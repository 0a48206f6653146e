"""Deterministic work gates for the classification suites and four CLI calls.

Wall-clock time drifts from host to host and run to run; the work a suite
does does not.  The first gate counts, over every product of two ``Poly``
operands, the coefficient products len(a) * len(b) and the largest total
degree built, and bounds both at the measured values plus at most 10%, so
a change that swells the suite's scalars fails here.  The second counts
the calls of ``structures.lcs_check`` and ``linalg.rref`` and bounds them
at the measured values, so a change that computes a fact twice fails.  The
third counts the polynomials compiled for evaluation (``Poly.compiled``)
and the calls of ``Poly._integral`` and bounds them at the measured values,
so a signature census that re-derives its entries at each point fails.  The
fourth counts the ``Scalar`` constructions and bounds them at the measured
values plus at most 10%, so a kernel or a product that stops skipping
structural zeros fails.  The fifth bounds the products, the degree and the
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

import os
from itertools import combinations

import pytest

from lieform import catalog, cli, constructions, linalg, scalars, structures
from lieform.exterior import KForm, ce_d, twisted_d
from size_table import swell_document

DATA = os.path.join(os.path.dirname(__file__), "data")


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
    # measured: 861 products and degree 5; 3,545 and degree 31 while the
    # Vaisman test inverted the metric of a PASS; 3,603 while it summed the
    # Koszul formula's structure-constant term (zero for the Lee vector),
    # 3,642 while a constant inverse ran the quotient normalization, and
    # 7,155 before that
    assert seen["products"] <= 940
    assert seen["degree"] <= 5


@pytest.mark.parametrize("suite, lcs_checks, rrefs", [
    ("u2_classification", 8, 32),
    ("gl2_classification", 9, 34),
])
def test_suite_lcs_checks_and_eliminations_are_bounded(
        suite, lcs_checks, rrefs, monkeypatch):
    # each lcs fact is computed once: the suites read the general omega's
    # Lee form off the assemble_lck they run on it anyway; a Vaisman PASS
    # inverts no metric (34 and 38 eliminations while it did)
    calls = {"lcs_check": 0, "rref": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # a module that imports lcs_check calls it through its own global
    for mod in (structures, catalog, constructions):
        if hasattr(mod, "lcs_check"):
            monkeypatch.setattr(mod, "lcs_check",
                                counting("lcs_check", mod.lcs_check))
    monkeypatch.setattr(linalg, "rref", counting("rref", linalg.rref))
    assert catalog.run_suite(suite).ok
    assert calls["lcs_check"] <= lcs_checks, calls
    assert calls["rref"] <= rrefs, calls


@pytest.mark.parametrize("suite, compiled, integrals", [
    ("u2_classification", 40, 516),
    ("gl2_classification", 40, 1_100),
])
def test_suite_census_compiles_each_entry_once(suite, compiled, integrals,
                                               monkeypatch):
    # each suite runs two censuses of a metric with 10 upper-triangle
    # entries (a numerator and a denominator each), at 498 (u2) and 482
    # (gl2) points in all; re-deriving the entries at each point made about
    # 10,700 _integral calls per gl2 suite
    calls = {"compiled": 0, "_integral": 0}

    def counting(name):
        fn = getattr(scalars.Poly, name)

        def wrapper(self):
            calls[name] += 1
            return fn(self)
        monkeypatch.setattr(scalars.Poly, name, wrapper)

    counting("compiled")
    counting("_integral")
    assert catalog.run_suite(suite).ok
    assert calls["compiled"] <= compiled, calls
    assert calls["_integral"] <= integrals, calls


@pytest.mark.parametrize("suite, constructions", [
    ("u2_classification", 1_760),
    ("gl2_classification", 3_000),
])
def test_suite_scalar_constructions_are_bounded(suite, constructions,
                                                monkeypatch):
    # measured: 1,744 (u2) and 2,963 (gl2); 1,770 and 3,037 while a
    # Vaisman PASS inverted the metric; 1,815 and 3,130 while the
    # Vaisman test summed the Koszul formula's structure-constant term and
    # assemble_lck formed G xi to check it against s lam; earlier 1,855 and
    # 3,166; with the suites' second compatibility check, 1,858 and 3,185;
    # while rref divided and subtracted in the pivot column, 2,006 and
    # 3,465, and while a product or a sum with a zero operand built a new
    # scalar, 7,013 and 9,306
    calls = {"init": 0}
    init = scalars.Scalar.__init__

    def counting_init(self, *args):
        calls["init"] += 1
        init(self, *args)

    monkeypatch.setattr(scalars.Scalar, "__init__", counting_init)
    assert catalog.run_suite(suite).ok
    assert calls["init"] <= constructions, calls


def count_inverses(monkeypatch):
    """Count the calls of linalg.inverse from here to the end of the test."""
    inverse = linalg.inverse
    seen = {"inverses": 0}

    def counting(rows):
        seen["inverses"] += 1
        return inverse(rows)

    monkeypatch.setattr(linalg, "inverse", counting)
    return seen


def test_vaisman_check_of_a_large_coefficient_is_bounded(
        monkeypatch, tmp_path, capsys):
    # omega = (a+b+1)^12 e^01 + e^23 on u(2): while the Lee vector was
    # solved from G xi = s lam, this call ran for more than 20 minutes
    path = swell_document(tmp_path, "u2", "(a+b+1)^12 * e0^e1 + e2^e3")
    seen = count_poly_products(monkeypatch)
    assert cli.main(["check-vaisman", path, "omega_swell", "J_ab"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] Lee field is parallel (Vaisman)" in out
    # measured: 20,564 characters, 24,032 products and degree 26; 389,400
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
    inverses = count_inverses(monkeypatch)
    assert cli.main(["check-vaisman", path, "omega_swell", "J_mu"]) == 0
    out = capsys.readouterr().out.replace(path, "")
    assert "[PASS] Lee field is parallel (Vaisman)" in out
    assert inverses["inverses"] == 0
    # measured: 141,458 characters, 841,853 products and degree 49
    assert len(out) <= 155_600
    assert seen["products"] <= 926_000
    assert seen["degree"] <= 53


def test_vaisman_fail_inverts_the_metric_once(monkeypatch, capsys):
    # a FAIL list is made of the entries of nabla xi, which needs G^-1
    inverses = count_inverses(monkeypatch)
    assert cli.main(["check-vaisman", os.path.join(DATA, "u2.json"),
                     "omega_general", "J_01"]) == 1
    assert "[FAIL] Lee field is parallel (Vaisman)" in capsys.readouterr().out
    assert inverses["inverses"] == 1


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
    calls = {"products": 0, "constructions": 0}
    mul = scalars.Poly.__mul__
    init = scalars.Scalar.__init__

    def counting_mul(a, b):
        calls["products"] += 1
        return mul(a, b)

    def counting_init(self, *args):
        calls["constructions"] += 1
        init(self, *args)

    monkeypatch.setattr(scalars.Poly, "__mul__", counting_mul)
    monkeypatch.setattr(scalars.Scalar, "__init__", counting_init)
    for f in forms:
        ce_d(f)
        twisted_d(f, lam)
    assert calls["products"] <= products, calls
    assert calls["constructions"] <= constructions, calls


def test_inverse_of_a_constant_metric_skips_normalization(monkeypatch):
    # gl(2, R), omega_std and J_mu1: the metric is diag(1, 4, 2, 2); a
    # constant inverse is one rational operation, where the quotient
    # normalization read 3 contents and 3 leading terms
    g = catalog.gl2r()
    omega = catalog.lcs_form(g, catalog.oneform(g, {2: 1, 3: -1}))
    lck = structures.assemble_lck(g, omega, catalog.J_mu(g, 1, 0))
    calls = {"content": 0, "leading": 0}

    def counting(name):
        fn = getattr(scalars.Poly, name)

        def wrapper(self):
            calls[name] += 1
            return fn(self)
        monkeypatch.setattr(scalars.Poly, name, wrapper)

    counting("content")
    counting("leading")
    inverse, locus = linalg.inverse(lck.metric.matrix)
    assert calls == {"content": 0, "leading": 0}
    assert locus == []
    assert linalg.mat_mul(lck.metric.matrix, inverse) == \
        [[g._scalar(int(i == j)) for j in range(4)] for i in range(4)]
