"""A deterministic work gate for the gl(2,R) suite.

Wall-clock time drifts from host to host and run to run; the polynomial
work a suite does does not.  The gate counts, over every product of two
``Poly`` operands, the coefficient products len(a) * len(b) and the
largest total degree built, and bounds both at the measured values plus
at most 10%, so a change that swells the suite's scalars fails here.
"""

from lieform import catalog, scalars


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
