"""Deterministic work gates for the catalog suites and four CLI calls.

Wall-clock time drifts from host to host and run to run; the work a suite
does does not.  The first gate counts, over every product of two ``Poly``
operands, the coefficient products len(a) * len(b) and the largest total
degree built, and bounds both at the measured values plus at most 10%, so
a change that swells the suite's scalars fails here.  The second counts
the calls of ``structures.lcs_check`` and ``linalg.rref`` and bounds them
at the measured values, so a change that computes a fact twice fails; a
``check-lck`` call on each shipped general form makes exactly two
eliminations, the CLI calls on a document with its own h one more (h is
reduced once, when the algebra is built), ``J_to_subalgebra`` one, and a
property test holds the elimination-free centrality test ad_w = 0 to the
span of the center.  The third counts the
polynomials compiled for evaluation (``Poly.compiled``) and the calls of
``Poly._integral`` and bounds them at the measured values, so a signature
census that re-derives its entries at each point fails.  The fourth
counts the ``Scalar`` constructions and bounds them at the measured values
plus at most 10%, so a kernel or a product that stops skipping structural
zeros fails.  The fifth bounds the products, the degree and the
report size of ``check-vaisman`` on a form with a 91-term coefficient, and
the sixth the report size of ``check-vaisman`` on a gl(2, R) form scaled by
a linear factor.  The seventh bounds the products, the degree and the
report size of ``check-vaisman`` on that form scaled by the factor's fourth
power, and the eighth counts the metric inverses of a Vaisman PASS (none)
and FAIL (one).  The ninth counts the ``Poly`` products and the ``Scalar``
constructions of the exterior differentials and bounds them at the
measured values plus at most 10%, so a differential that stops reading its
table or a constant product that takes the polynomial path fails.  The
last counts the content and leading-term reads of inverting a metric with
constant entries, which a constant pivot's inverse never needs.
"""

import json
import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieform import (catalog, cli, constructions, document, linalg, scalars,
                     structures)
from lieform.exterior import KForm, ce_d, twisted_d
from lieform.lie_core import center
from size_table import swell_document

DATA = os.path.join(os.path.dirname(__file__), "data")


def count_calls(monkeypatch, owner, name):
    """Patch owner.name to count its calls from here to the end of the
    test; the returned function reads the count so far."""
    fn = getattr(owner, name)
    count = 0

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return lambda: count


def count_poly_products(monkeypatch):
    """Count Poly x Poly coefficient products and the largest degree built
    from here to the end of the test."""
    mul = scalars.Poly.__mul__
    seen = {"products": 0, "degree": 0}

    def counting_mul(a, b):
        out = mul(a, b)
        if isinstance(b, scalars.Poly):
            seen["products"] += len(a.terms) * len(b.terms)
            seen["degree"] = max(seen["degree"], out.total_degree())
        return out

    monkeypatch.setattr(scalars.Poly, "__mul__", counting_mul)
    return seen


def test_gl2_suite_poly_product_work_is_bounded(monkeypatch):
    seen = count_poly_products(monkeypatch)
    assert catalog.run_suite("gl2_classification").ok
    # measured: 742 products and degree 5, with a zero numerator divided
    # returned as it is; 748 with the metric read off
    # Omega N / d and the census cleared over one common denominator; 713
    # with J's checks decided on N = d J and one J_mu for both
    # compatibility statements; 898 while
    # they ran on the quotient J, the Killing matrix of the
    # three-parameter Lee vector included; 861 while the suite rebuilt each
    # Vaisman sample at its point; 3,545 and degree 31 while the
    # Vaisman test inverted the metric of a PASS; 3,603 while it summed the
    # Koszul formula's structure-constant term (zero for the Lee vector),
    # 3,642 while a constant inverse ran the quotient normalization, and
    # 7,155 before that
    assert seen["products"] <= 780
    assert seen["degree"] <= 5


@pytest.mark.parametrize("suite, lcs_checks, rrefs", [
    ("u2_classification", 2, 7),
    ("gl2_classification", 3, 9),
    ("reductive_identities", 2, 22),
])
def test_suite_lcs_checks_and_eliminations_are_bounded(
        suite, lcs_checks, rrefs, monkeypatch):
    # each lcs fact is computed once: the suites read the general omega's
    # Lee form off the assemble_lck they run on it anyway, and every
    # Vaisman sample and the u(2) branch a2 = a3 = 0 off its Killing matrix
    # (8 and 9 lcs checks, 32 and 34 eliminations while each was assembled
    # anew); a Vaisman PASS inverts no metric (34 and 38 eliminations while
    # it did); the structural identities read rank(ad_v) off the
    # centralizer of v (32 eliminations while they reduced ad_v twice) and
    # take each center once (30 while they took two of them twice); lcs_check
    # reads the rank of omega off its Reeb elimination, the identities test
    # centrality as ad_w = 0 and check_jacobi compares two ranks of h
    # (9, 12 and 28 while the rank, the center and each bracket of h took
    # an elimination of their own)

    # a module that imports lcs_check calls it through its own global
    lcs_calls = [count_calls(monkeypatch, mod, "lcs_check")
                 for mod in (structures, catalog, constructions)
                 if hasattr(mod, "lcs_check")]
    rref_calls = count_calls(monkeypatch, linalg, "rref")
    assert catalog.run_suite(suite).ok
    assert sum(c() for c in lcs_calls) <= lcs_checks
    assert rref_calls() <= rrefs


@pytest.mark.parametrize("doc, J", [("u2.json", "J_01"),
                                     ("gl2r.json", "J_mu1")])
def test_check_lck_eliminates_twice(doc, J, monkeypatch, capsys):
    # the Lee form and the Reeb vector, whose elimination also gives the
    # rank of omega (3 while the rank took an elimination of its own)
    rref_calls = count_calls(monkeypatch, linalg, "rref")
    assert cli.main(["check-lck", os.path.join(DATA, doc), "omega_general",
                     J]) == 0
    assert "[PASS] omega defines an lcs structure" in capsys.readouterr().out
    assert rref_calls() == 2


def _g_mod_h_document(tmp_path):
    """u2 with h = span(e0, e1) and omega_h = e2^e3, a form on g/h."""
    with open(os.path.join(DATA, "u2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["h_subalgebra"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    doc["forms"]["omega_h"] = "e2^e3"
    path = tmp_path / "u2_h.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, code", [
    (("check-lcs", "omega_h"), 0),
    (("check-lck", "omega_h", "J_01"), 0),
    (("check-algebra",), 0),
    (("check-vaisman", "omega_h", "J_01"), 1),
])
def test_g_mod_h_calls_reduce_h_once(argv, code, monkeypatch, tmp_path,
                                     capsys):
    # the constructor's reduction of h, then the Lee form and the Reeb
    # vector, or the rank of h with its brackets; lcs_check, check_jacobi
    # and vaisman_check read dim h as len(h) (check-vaisman made 4 while
    # lcs_check and vaisman_check each reduced h)
    path = _g_mod_h_document(tmp_path)
    rref_calls = count_calls(monkeypatch, linalg, "rref")
    assert cli.main([argv[0], path, *argv[1:]]) == code
    capsys.readouterr()
    assert rref_calls() == 3


def test_construct_orbit_eliminates_five_times(monkeypatch, capsys):
    # the stabilizer, h = k cap ker(phi), the extension's h, the Lee form
    # and the Reeb vector; the extension's h is reduced by its constructor
    # (by lcs_check while the orbit's h was assigned after construction)
    rref_calls = count_calls(monkeypatch, linalg, "rref")
    assert cli.main(["construct-orbit", os.path.join(DATA, "u2.json"),
                     "--phi", "phi_general"]) == 0
    capsys.readouterr()
    assert rref_calls() == 5


@pytest.mark.parametrize("doc, J", [("u2.json", "J_01"),
                                     ("gl2r.json", "J_mu")])
def test_J_to_subalgebra_eliminates_once(doc, J, monkeypatch):
    # one elimination on the columns e_0, Je_0, e_1, Je_1, ... (4 while
    # each e_k took a span-membership elimination of its own)
    d = document.load(os.path.join(DATA, doc))
    g = d.build_algebra()
    cs = structures.ComplexStructure(g, d.build_endo(J, g))
    rref_calls = count_calls(monkeypatch, linalg, "rref")
    assert len(structures.J_to_subalgebra(cs)) == 2
    assert rref_calls() == 1


@pytest.mark.parametrize("make", [catalog.u2, catalog.gl2r, catalog.su2,
                                  catalog.sl2r])
@given(coeffs=st.lists(st.sampled_from([0, 0, 0, 1, -2, "a"]), min_size=4,
                       max_size=4))
@settings(max_examples=25, deadline=None)
def test_ad_w_zero_agrees_with_the_center(make, coeffs):
    # biinvariant_identities tests "w is central" as ad_w = 0, with no
    # elimination; the span of the center's nullspace basis is the oracle:
    # w lies in it iff appending w leaves the rank unchanged
    g = make(("a",))
    w = g.vector(coeffs[:g.dim])
    c = center(g)
    assert all(linalg.vec_is_zero(row) for row in g.ad(w)) == \
        (linalg.rank(c + [w])[0] == len(c))


@pytest.mark.parametrize("suite, compiled, integrals", [
    ("u2_classification", 22, 516),
    ("gl2_classification", 22, 660),
])
def test_suite_census_compiles_each_entry_once(suite, compiled, integrals,
                                               monkeypatch):
    # each suite runs two censuses of a metric with 10 upper-triangle
    # entries, cleared to 10 numerators over one common denominator (40
    # compilations while each entry compiled a numerator and a denominator),
    # at 498 (u2) and 482 (gl2) points in all; re-deriving the entries at
    # each point made about 10,700 _integral calls per gl2 suite; measured:
    # 366 (u2) and 590 (gl2), 380 and 608 while the census compiled each
    # entry's pair, 320 and 684 before J's checks were decided on N = d J
    compiled_calls = count_calls(monkeypatch, scalars.Poly, "compiled")
    integral_calls = count_calls(monkeypatch, scalars.Poly, "_integral")
    assert catalog.run_suite(suite).ok
    assert compiled_calls() <= compiled
    assert integral_calls() <= integrals


@pytest.mark.parametrize("suite, constructions", [
    ("u2_classification", 780),
    ("gl2_classification", 1_510),
])
def test_suite_scalar_constructions_are_bounded(suite, constructions,
                                                monkeypatch):
    # measured: 762 (u2) and 1,389 (gl2), with a zero numerator divided
    # returned as it is; 772 and 1,405 with the metric read off
    # Omega N / d; 733 and 1,379 with J's checks decided on N = d J
    # (building N and d adds constructions on u2) and one J_mu for both gl2
    # compatibility statements; 711 and 1,442 before; 1,744 and
    # 2,963 while each
    # Vaisman sample was assembled anew at its point; 1,770 and 3,037 while a
    # Vaisman PASS inverted the metric; 1,815 and 3,130 while the
    # Vaisman test summed the Koszul formula's structure-constant term and
    # assemble_lck formed G xi to check it against s lam; earlier 1,855 and
    # 3,166; with the suites' second compatibility check, 1,858 and 3,185;
    # while rref divided and subtracted in the pivot column, 2,006 and
    # 3,465, and while a product or a sum with a zero operand built a new
    # scalar, 7,013 and 9,306
    inits = count_calls(monkeypatch, scalars.Scalar, "__init__")
    assert catalog.run_suite(suite).ok
    assert inits() <= constructions


def test_vaisman_check_of_a_large_coefficient_is_bounded(
        monkeypatch, tmp_path, capsys):
    # omega = (a+b+1)^12 e^01 + e^23 on u(2): while the Lee vector was
    # solved from G xi = s lam, this call ran for more than 20 minutes
    path = swell_document(tmp_path, "u2", "(a+b+1)^12 * e0^e1 + e2^e3")
    seen = count_poly_products(monkeypatch)
    assert cli.main(["check-vaisman", path, "omega_swell", "J_ab"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] Lee field is parallel (Vaisman)" in out
    # measured: 20,564 characters, 24,459 products and degree 26 (24,469
    # while a zero numerator divided built a product, 24,032
    # while the metric was formed from the quotient J); 389,400
    # products and degree 62 while the Vaisman test inverted the metric of
    # a PASS, and 438,046 products while it summed the Koszul formula's
    # structure-constant term, which is zero for the Lee vector
    assert len(out) <= 22_600
    assert seen["products"] <= 26_400
    assert seen["degree"] <= 28


def test_vaisman_check_of_a_scaled_gl2_form_is_bounded(tmp_path, capsys):
    # omega = (mu1+mu2+1) * omega_std on gl(2, R): while g(xi, xi) was
    # printed as the pairing xi^T G xi, this call printed 1,689,687
    # characters; xi . (G xi), with G xi = s lam, prints 6,316
    path = swell_document(tmp_path, "gl2r", "(mu1+mu2+1) * ({std})")
    assert cli.main(["check-vaisman", path, "omega_swell", "J_mu"]) == 0
    assert len(capsys.readouterr().out) < 10_000


def test_vaisman_pass_of_a_gl2_form_to_the_fourth_inverts_no_metric(
        monkeypatch, tmp_path, capsys):
    # omega = (mu1+mu2+1)^4 * omega_std on gl(2, R), the largest gl(2, R)
    # row of tests/size_table.py: the verdict is the Killing form of xi, so
    # a PASS inverts no metric; while it did, 10,383,938 products of
    # degree up to 115
    path = swell_document(tmp_path, "gl2r", "(mu1+mu2+1)^4 * ({std})")
    seen = count_poly_products(monkeypatch)
    inverses = count_calls(monkeypatch, linalg, "inverse")
    assert cli.main(["check-vaisman", path, "omega_swell", "J_mu"]) == 0
    out = capsys.readouterr().out.replace(path, "")
    assert "[PASS] Lee field is parallel (Vaisman)" in out
    assert inverses() == 0
    # measured: 141,458 characters, 842,043 products and degree 49
    # (842,049 while a zero numerator divided built a product, 841,853
    # while the metric was formed from the quotient J)
    assert len(out) <= 155_600
    assert seen["products"] <= 926_000
    assert seen["degree"] <= 53


def test_vaisman_fail_inverts_the_metric_once(monkeypatch, capsys):
    # a FAIL list is made of the entries of nabla xi, which needs G^-1
    inverses = count_calls(monkeypatch, linalg, "inverse")
    assert cli.main(["check-vaisman", os.path.join(DATA, "u2.json"),
                     "omega_general", "J_01"]) == 1
    assert "[FAIL] Lee field is parallel (Vaisman)" in capsys.readouterr().out
    assert inverses() == 1


@pytest.mark.parametrize("make, products, constructions", [
    (catalog.u2, 39, 84),
    (catalog.gl2r, 66, 141),
])
def test_differentials_of_monomials_are_bounded(make, products,
                                                constructions, monkeypatch):
    # ce_d and twisted_d, lam = a e^0, of c e^I for every monomial e^I and
    # c in 1, 3/2, a + 1, 1/(a + 1); measured: 36 products and 77
    # constructions (u2), 60 and 129 (gl2r); while ce_d negated each term
    # it built and a product of two constants took the polynomial path,
    # 88 and 104 (u2), 136 and 160 (gl2r)
    g = make(("a",))
    lam = KForm.monomial(g, (0,), g._scalar("a"))
    forms = [KForm.monomial(g, idx, scalars.parse_scalar(c, g.params))
             for c in ("1", "3/2", "a + 1", "1/(a + 1)")
             for k in range(g.dim + 1)
             for idx in combinations(range(g.dim), k)]
    products_made = count_calls(monkeypatch, scalars.Poly, "__mul__")
    inits = count_calls(monkeypatch, scalars.Scalar, "__init__")
    for f in forms:
        ce_d(f)
        twisted_d(f, lam)
    assert products_made() <= products
    assert inits() <= constructions


def test_inverse_of_a_constant_metric_skips_normalization(monkeypatch):
    # gl(2, R), omega_std and J_mu1: the metric is diag(1, 4, 2, 2); a
    # constant inverse is one rational operation, where the quotient
    # normalization read 3 contents and 3 leading terms
    g = catalog.gl2r()
    omega = catalog.lcs_form(g, catalog.oneform(g, {2: 1, 3: -1}))
    lck = structures.assemble_lck(g, omega, catalog.J_mu(g, 1, 0))
    contents = count_calls(monkeypatch, scalars.Poly, "content")
    leadings = count_calls(monkeypatch, scalars.Poly, "leading")
    inverse, locus = linalg.inverse(lck.metric.matrix)
    assert (contents(), leadings()) == (0, 0)
    assert locus == []
    assert linalg.mat_mul(lck.metric.matrix, inverse) == \
        [[g._scalar(int(i == j)) for j in range(4)] for i in range(4)]
