"""Exact linear algebra: hand-checked kernels plus randomized oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieform import linalg
from lieform.scalars import Scalar, parse_scalar

P = ("a", "b")


def S(text, params=P):
    return parse_scalar(text, params)


def M(rows, params=P):
    return [[S(str(c), params) for c in row] for row in rows]


Z = Scalar.zero(P)


# ---------------------------------------------------------------------------
# Hand-enumerated oracles
# ---------------------------------------------------------------------------

def test_rank_and_nullspace_known():
    # rank 2 with kernel spanned by (1, -2, 1)
    rows = M([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    r, locus = linalg.rank(rows)
    assert r == 2 and locus == []
    basis, _ = linalg.nullspace(rows, Z)
    assert len(basis) == 1
    v = basis[0]
    assert linalg.vec_is_zero(linalg.mat_vec(rows, v))
    # proportional to (1, -2, 1)
    assert linalg.in_span([[S("1"), S("-2"), S("1")]], v, Z)


def test_mat_mul_known():
    a = M([[1, "a"], [0, "b"]])
    b = M([["b", 0], [1, 1]])
    assert linalg.mat_mul(a, b) == M([["a + b", "a"], ["b", "b"]])
    # non-square shapes: (1 x 2)(2 x 1)
    assert linalg.mat_mul(M([[1, 2]]), M([["a"], ["b"]])) == M([["a + 2*b"]])


def test_inverse_known():
    rows = M([[1, 1], [0, "b"]])
    inv, locus = linalg.inverse(rows, Z)
    prod = linalg.mat_mul(rows, inv)
    assert prod[0][0] == 1 and prod[1][1] == 1
    assert prod[0][1].is_zero() and prod[1][0].is_zero()
    assert any(str(p) == "b" for p in locus)
    with pytest.raises(linalg.LinalgError):
        linalg.inverse(M([[1, 2], [2, 4]]), Z)


def test_solve_consistent_and_inconsistent():
    rows = M([[1, 2], [2, 4]])
    x, kernel, _ = linalg.solve(rows, [S("1"), S("2")], Z)
    assert x is not None
    assert linalg.vec_is_zero(
        linalg.vec_sub(linalg.mat_vec(rows, x), [S("1"), S("2")]))
    assert len(kernel) == 1
    bad, _, _ = linalg.solve(rows, [S("1"), S("3")], Z)
    assert bad is None


def test_parametric_pivot_records_locus():
    rows = M([["a", 1], [0, 1]])
    r, locus = linalg.rank(rows)
    assert r == 2
    assert any(str(p) == "a" for p in locus)
    # a parameter-free pivot is preferred when available, keeping locus empty
    rows2 = M([["a", 1], [1, 0]])
    _, locus2 = linalg.rank(rows2)
    assert locus2 == []


def test_in_span():
    span = M([[1, 0, 1], [0, 1, 1]])
    assert linalg.in_span(span, [S("2"), S("3"), S("5")], Z)
    assert not linalg.in_span(span, [S("0"), S("0"), S("1")], Z)
    assert linalg.in_span([], [Z, Z], Z)
    # over Q(a): (a, 1) and (1, a) span the plane only off a^2 = 1
    par = M([["a", 1, 0], [1, "a", 0]])
    assert linalg.in_span(par, [S("a^2 + 1"), S("2*a"), Z], Z)
    assert linalg.in_span(par, [S("1"), Z, Z], Z)
    assert not linalg.in_span(par, [Z, Z, S("1")], Z)
    assert not linalg.in_span(M([["a", 1, 0]]), [S("1"), S("a"), Z], Z)


# ---------------------------------------------------------------------------
# Randomized consistency properties
# ---------------------------------------------------------------------------

entries = st.integers(-4, 4)


@st.composite
def matrices(draw, n=3):
    return [[Scalar.const(P, draw(entries)) for _ in range(n)]
            for _ in range(n)]


@settings(max_examples=50, deadline=None)
@given(matrices(), st.lists(entries, min_size=3, max_size=3))
def test_solve_solutions_verify(rows, rhs):
    b = [Scalar.const(P, v) for v in rhs]
    x, kernel, _ = linalg.solve(rows, b, Z)
    if x is not None:
        assert linalg.vec_is_zero(
            linalg.vec_sub(linalg.mat_vec(rows, x), b))
        for k in kernel:
            assert linalg.vec_is_zero(linalg.mat_vec(rows, k))
        assert kernel == linalg.nullspace(rows, Z)[0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), max_size=4),
       st.lists(entries, min_size=3, max_size=3))
def test_in_span_matches_rank_comparison(vectors, v):
    vectors = [[Scalar.const(P, c) for c in w] for w in vectors]
    v = [Scalar.const(P, c) for c in v]
    # reference: v is in the span iff appending it leaves the rank unchanged
    want = (linalg.vec_is_zero(v) if not vectors else
            linalg.rank(vectors)[0] == linalg.rank(vectors + [v])[0])
    assert linalg.in_span(vectors, v, Z) == want


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_rank_nullity(rows):
    r, _ = linalg.rank(rows)
    basis, _ = linalg.nullspace(rows, Z)
    assert r + len(basis) == 3


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_inverse_round_trip(rows):
    r, _ = linalg.rank(rows)
    if r < 3:
        with pytest.raises(linalg.LinalgError):
            linalg.inverse(rows, Z)
        return
    inv, _ = linalg.inverse(rows, Z)
    prod = linalg.mat_mul(rows, inv)
    for i in range(3):
        for j in range(3):
            want = Fraction(1 if i == j else 0)
            assert prod[i][j] == Scalar.const(P, want)
