"""Document format: JSON structure, wedge-expression parsing, round trips."""

import json
import os
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lieform import catalog, document
from lieform.document import (DocumentError, FormParseError, dumps, emit_form,
                              loads, parse_form)
from lieform.exterior import KForm
from lieform.scalars import Scalar
from test_scalars import scalars

DATA = os.path.join(os.path.dirname(__file__), "data")


def u2_algebra():
    return catalog.get("u2").algebra


# ---------------------------------------------------------------------------
# Wedge-expression parsing
# ---------------------------------------------------------------------------

def test_parse_form_basic():
    g = u2_algebra()
    f = parse_form("e0^e1 + e2^e3", g)
    assert f == KForm(g, 2, {(0, 1): g.one(), (2, 3): g.one()})


def test_parse_form_coefficients_and_signs():
    g = u2_algebra()
    f = parse_form("-2 * e0^e1 + a * e1^e3 - e2^e3", g)
    assert f.coefficient((0, 1)) == Scalar.const(g.params, -2)
    assert f.coefficient((1, 3)) == Scalar.var(g.params, "a")
    assert f.coefficient((2, 3)) == Scalar.const(g.params, -1)
    # doubled signs carry through (a 0-form expression)
    f2 = parse_form("a - -b", g)
    assert f2.degree == 0
    a = Scalar.var(g.params, "a")
    b = Scalar.var(g.params, "b")
    assert f2.coefficient(()) == a + b


def test_parse_form_normalizes_monomial_order():
    g = u2_algebra()
    assert parse_form("e1^e0", g) == parse_form("-e0^e1", g)
    # (3,1,0) is an odd permutation of (0,1,3)
    assert parse_form("e3^e1^e0", g) == parse_form("-e0^e1^e3", g)
    assert parse_form("e1^e3^e0", g) == parse_form("e0^e1^e3", g)


def test_parse_form_scalar_literal_coefficients():
    g = u2_algebra()
    f = parse_form("-(1+a^2)/b * e0^e1", g)
    a = Scalar.var(g.params, "a")
    b = Scalar.var(g.params, "b")
    assert f.coefficient((0, 1)) == -(1 + a * a) / b


def test_parse_form_errors():
    g = u2_algebra()
    with pytest.raises(FormParseError):
        parse_form("e0^e1 + e2", g)          # mixed degree
    with pytest.raises(FormParseError):
        parse_form("e0^e0", g)               # repeated factor
    with pytest.raises(FormParseError):
        parse_form("", g)                    # empty
    with pytest.raises(FormParseError) as e:
        parse_form("e0^e1 + q * e2^e3", g)   # unknown parameter
    assert e.value.pos > 0


@pytest.mark.parametrize("text, pos", [
    ("e0^e1 + e2", 6),        # forms of two degrees
    ("e0^e1 - 1", 6),         # a form and a scalar in a sum
    ("e0^e1 * e2^e3", 6),     # a product of two forms
    ("a / e0", 2),            # a form as divisor
    ("(e0^e1)^2", 7),         # a form as the base of a power
])
def test_parse_form_rejects_values_that_do_not_combine(text, pos):
    with pytest.raises(FormParseError) as e:
        parse_form(text, u2_algebra())
    assert e.value.pos == pos


def test_parse_form_reads_any_literal_as_coefficient():
    g = u2_algebra()
    a = Scalar.var(g.params, "a")
    assert parse_form("a^-1 * e0^e1", g) == KForm.monomial(g, (0, 1), 1 / a)
    assert parse_form("2*-a*e0^e1", g) == KForm.monomial(g, (0, 1), -2 * a)


def test_form_parse_error_is_reported_once():
    with pytest.raises(FormParseError) as e:
        parse_form("a^ * e0^e1", u2_algebra())
    assert e.value.pos == 3
    assert str(e.value).count("parse error at position") == 1


def test_emit_parse_round_trip():
    g = u2_algebra()
    for text in ("e0^e1 + e2^e3", "-e0^e1", "a1 * e1 + a2 * e2 + a3 * e3",
                 "(a^2 - 1)/b * e0^e2^e3"):
        f = parse_form(text, g)
        assert parse_form(emit_form(f), g) == f
    zero = KForm.zero(g, 2)
    assert parse_form(emit_form(zero), g) == zero
    # above the dimension the only form is zero, with no monomial to print
    assert emit_form(KForm.zero(g, g.dim + 1)) == "0"


U2_AB = catalog.u2(("a", "b"))  # the parameters of the scalars() strategy


@st.composite
def forms(draw):
    """A form of any degree up to dim + 1 on U2_AB; no monomial and zero
    coefficients give zero forms, and above the dimension only the zero
    form exists."""
    k = draw(st.integers(0, U2_AB.dim + 1))
    monomials = list(combinations(range(U2_AB.dim), k))
    keys = draw(st.lists(st.sampled_from(monomials), unique=True)
                if monomials else st.just([]))
    return KForm(U2_AB, k, {idx: draw(scalars()) for idx in keys})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(forms())
def test_parse_inverts_emit(f):
    text = str(f)
    assert emit_form(f) == text
    if f.degree > U2_AB.dim:
        assert text == "0"
        return
    parsed = parse_form(text, U2_AB)
    assert parsed.degree == f.degree
    assert parsed == f


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def test_document_build_and_round_trip():
    for id_ in ("u2", "gl2r"):
        entry = catalog.get(id_)
        doc = document.document_from_entry(entry)
        text = dumps(doc)
        doc2 = loads(text)
        g2 = doc2.build_algebra()
        g = entry.algebra
        assert g2.basis_names == g.basis_names
        assert bool(g2.check_jacobi())
        for (i, j), vec in g.structure_table().items():
            assert g2.bracket_basis(i, j) == vec
        for name, fam in entry.families.items():
            if isinstance(fam, KForm):
                assert doc2.build_form(name, g2) == \
                    KForm(g2, fam.degree, dict(fam.coeffs))


def test_document_matches_golden_files():
    for id_ in ("u2", "gl2r"):
        doc = document.document_from_entry(catalog.get(id_))
        with open(os.path.join(DATA, f"{id_}.json"), encoding="utf-8") as fh:
            assert fh.read() == dumps(doc)


def test_document_validation_errors():
    with pytest.raises(DocumentError):
        loads("not json at all")
    with pytest.raises(DocumentError):
        loads(json.dumps({"forms": {}}))
    with pytest.raises(DocumentError):
        loads(json.dumps({"algebra": {"dim": 2}}))
    bad = loads(json.dumps({
        "parameters": [],
        "algebra": {"dim": 2, "basis": ["x", "y"],
                    "brackets": [{"i": 0, "j": 5, "coeffs": {"x": "1"}}]}}))
    with pytest.raises(DocumentError):
        bad.build_algebra()
    bad2 = loads(json.dumps({
        "parameters": [],
        "algebra": {"dim": 2, "basis": ["x", "y"],
                    "brackets": [{"i": 0, "j": 1, "coeffs": {"z": "1"}}]}}))
    with pytest.raises(DocumentError):
        bad2.build_algebra()


def test_document_missing_names():
    doc = document.document_from_entry(catalog.get("u2"))
    g = doc.build_algebra()
    with pytest.raises(DocumentError):
        doc.build_form("missing", g)
    with pytest.raises(DocumentError):
        doc.build_endo("missing", g)


def test_corrupted_document_fails_jacobi():
    doc = document.load(os.path.join(DATA, "corrupted.json"))
    g = doc.build_algebra()
    rep = g.check_jacobi()
    assert not rep.passed
    assert rep.reason == "antisymmetry fails"
