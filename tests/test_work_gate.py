"""Deterministic work gates for the classification suites.

Wall-clock time drifts from host to host and run to run; the work a suite
does does not.  The first gate counts, over every product of two ``Poly``
operands, the coefficient products len(a) * len(b) and the largest total
degree built, and bounds both at the measured values plus at most 10%, so
a change that swells the suite's scalars fails here.  The second counts
the calls of ``structures.lcs_check`` and ``linalg.rref`` and bounds them
at the measured values, so a change that computes a fact twice fails.
"""

import pytest

from lieform import catalog, constructions, linalg, scalars, structures


def test_gl2_suite_poly_product_work_is_bounded(monkeypatch):
    mul = scalars.Poly.__mul__
    seen = {"products": 0, "degree": 0}

    def counting_mul(a, b):
        out = mul(a, b)
        if isinstance(b, scalars.Poly):
            seen["products"] += len(a.terms) * len(b.terms)
            seen["degree"] = max(seen["degree"], out.total_degree())
        return out

    monkeypatch.setattr(scalars.Poly, "__mul__", counting_mul)
    assert catalog.run_suite("gl2_classification").ok
    # measured: 52,375 products and degree 60
    assert seen["products"] <= 57_600
    assert seen["degree"] <= 66


@pytest.mark.parametrize("suite, lcs_checks, rrefs", [
    ("u2_classification", 8, 42),
    ("gl2_classification", 9, 47),
])
def test_suite_lcs_checks_and_eliminations_are_bounded(
        suite, lcs_checks, rrefs, monkeypatch):
    # each lcs fact is computed once: the suites read the general omega's
    # Lee form off the assemble_lck they run on it anyway
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
