"""Exact linear algebra: hand-checked kernels plus randomized oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieform import linalg
from lieform.scalars import Poly, Scalar, parse_scalar

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
    basis, _ = linalg.nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    assert linalg.vec_is_zero(linalg.mat_vec(rows, v))
    # proportional to (1, -2, 1)
    assert linalg.in_span([[S("1"), S("-2"), S("1")]], v)


def test_mat_mul_known():
    a = M([[1, "a"], [0, "b"]])
    b = M([["b", 0], [1, 1]])
    assert linalg.mat_mul(a, b) == M([["a + b", "a"], ["b", "b"]])
    # non-square shapes: (1 x 2)(2 x 1)
    assert linalg.mat_mul(M([[1, 2]]), M([["a"], ["b"]])) == M([["a + 2*b"]])


def test_inverse_known():
    rows = M([[1, 1], [0, "b"]])
    inv, locus = linalg.inverse(rows)
    prod = linalg.mat_mul(rows, inv)
    assert prod[0][0] == 1 and prod[1][1] == 1
    assert prod[0][1].is_zero() and prod[1][0].is_zero()
    assert any(str(p) == "b" for p in locus)
    with pytest.raises(linalg.LinalgError):
        linalg.inverse(M([[1, 2], [2, 4]]))


def test_solve_consistent_and_inconsistent():
    rows = M([[1, 2], [2, 4]])
    x, kernel, _ = linalg.solve(rows, [S("1"), S("2")])
    assert x is not None
    assert linalg.vec_is_zero(
        linalg.vec_sub(linalg.mat_vec(rows, x), [S("1"), S("2")]))
    assert len(kernel) == 1
    bad, _, _ = linalg.solve(rows, [S("1"), S("3")])
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
    assert linalg.in_span(span, [S("2"), S("3"), S("5")])
    assert not linalg.in_span(span, [S("0"), S("0"), S("1")])
    assert linalg.in_span([], [Z, Z])
    # over Q(a): (a, 1) and (1, a) span the plane only off a^2 = 1
    par = M([["a", 1, 0], [1, "a", 0]])
    assert linalg.in_span(par, [S("a^2 + 1"), S("2*a"), Z])
    assert linalg.in_span(par, [S("1"), Z, Z])
    assert not linalg.in_span(par, [Z, Z, S("1")])
    assert not linalg.in_span(M([["a", 1, 0]]), [S("1"), S("a"), Z])


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
    x, kernel, _ = linalg.solve(rows, b)
    if x is not None:
        assert linalg.vec_is_zero(
            linalg.vec_sub(linalg.mat_vec(rows, x), b))
        for k in kernel:
            assert linalg.vec_is_zero(linalg.mat_vec(rows, k))
        assert kernel == linalg.nullspace(rows)[0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), max_size=4),
       st.lists(entries, min_size=3, max_size=3))
def test_in_span_matches_rank_comparison(vectors, v):
    vectors = [[Scalar.const(P, c) for c in w] for w in vectors]
    v = [Scalar.const(P, c) for c in v]
    # reference: v is in the span iff appending it leaves the rank unchanged
    want = (linalg.vec_is_zero(v) if not vectors else
            linalg.rank(vectors)[0] == linalg.rank(vectors + [v])[0])
    assert linalg.in_span(vectors, v) == want


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_rank_nullity(rows):
    r, _ = linalg.rank(rows)
    basis, _ = linalg.nullspace(rows)
    assert r + len(basis) == 3


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_inverse_round_trip(rows):
    r, _ = linalg.rank(rows)
    if r < 3:
        with pytest.raises(linalg.LinalgError):
            linalg.inverse(rows)
        return
    inv, _ = linalg.inverse(rows)
    prod = linalg.mat_mul(rows, inv)
    for i in range(3):
        for j in range(3):
            want = Fraction(1 if i == j else 0)
            assert prod[i][j] == Scalar.const(P, want)


# ---------------------------------------------------------------------------
# Sparse kernels against the dense formulas
# ---------------------------------------------------------------------------

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.integers(-3, 3), min_size=1, max_size=2).map(lambda t: Poly(P, t))


@st.composite
def sparse_entries(draw):
    """Mostly zero; otherwise a one, a constant, a polynomial or a
    quotient over (a, b)."""
    kind = draw(st.sampled_from(
        ["zero", "zero", "zero", "one", "constant", "polynomial",
         "quotient"]))
    if kind == "zero":
        return Z
    if kind == "one":
        return Scalar.one(P)
    if kind == "constant":
        return Scalar.const(P, draw(st.fractions(
            min_value=-3, max_value=3, max_denominator=3)))
    num = draw(small_polys)
    if kind == "polynomial":
        return Scalar(num)
    return Scalar(num, draw(small_polys.filter(lambda p: not p.is_zero())))


def sparse_matrices(m, n):
    return st.lists(st.lists(sparse_entries(), min_size=n, max_size=n),
                    min_size=m, max_size=m)


# the dense kernels as they were before zero pairs and zero entries were
# skipped: the oracle for every (num, den) pair, except that rref writes
# the exact one and zero that its pivot division and subtraction yield


def _dense_mat_vec(a, v):
    return [sum((row[t] * v[t] for t in range(1, len(v))), row[0] * v[0])
            for row in a]


def _dense_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j])
             for j in range(m)] for i in range(n)]


def _dense_rref(rows):
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    locus = []
    pivot_cols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        choice = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                if linalg.pivot_locus(rows[i][c]) is None:
                    choice = i
                    break
                if choice is None:
                    choice = i
        if choice is None:
            continue
        rows[r], rows[choice] = rows[choice], rows[r]
        piv = rows[r][c]
        linalg.merge_locus(locus, [linalg.pivot_locus(piv)])
        inv = piv.inverse()
        rows[r] = [inv * x for x in rows[r]]
        rows[r][c] = Scalar.one(P)
        for i in range(m):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                rows[i][c] = Z
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, locus


def _dense_solve(rows, rhs):
    n = len(rows[0])
    red, pivot_cols, locus = _dense_rref(
        [list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivot_cols:
        return None, [], locus
    x = [Z] * n
    for r, pc in enumerate(pivot_cols):
        x[pc] = red[r][n]
    return x, linalg._kernel(red, pivot_cols, n), locus


def _dense_inverse(rows):
    n = len(rows)
    one = Scalar.one(P)
    red, pivot_cols, locus = _dense_rref(
        [list(r) + [one if i == j else Z for j in range(n)]
         for i, r in enumerate(rows)])
    if pivot_cols[:n] != list(range(n)):
        return None, locus
    return [row[n:] for row in red], locus


def _pairs(x):
    """The (num, den) strings of a scalar or of nested lists of them."""
    if isinstance(x, list):
        return [_pairs(y) for y in x]
    return (str(x.num), str(x.den))


def _loci(locus):
    return [str(p) for p in locus]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_sparse_products_match_the_dense_formulas(m, k, p, data):
    a = data.draw(sparse_matrices(m, k))
    b = data.draw(sparse_matrices(k, p))
    v = data.draw(st.lists(sparse_entries(), min_size=k, max_size=k))
    assert _pairs(linalg.mat_vec(a, v)) == _pairs(_dense_mat_vec(a, v))
    assert _pairs(linalg.mat_mul(a, b)) == _pairs(_dense_mat_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_sparse_elimination_matches_the_dense_formulas(m, n, data):
    rows = data.draw(sparse_matrices(m, n))
    rhs = data.draw(st.lists(sparse_entries(), min_size=m, max_size=m))
    red, pivots, locus = linalg.rref(rows)
    want_red, want_pivots, want_locus = _dense_rref(rows)
    assert (_pairs(red), pivots, _loci(locus)) == \
        (_pairs(want_red), want_pivots, _loci(want_locus))
    x, kernel, locus = linalg.solve(rows, rhs)
    want_x, want_kernel, want_locus = _dense_solve(rows, rhs)
    assert (x is None) == (want_x is None)
    if x is not None:
        assert _pairs(x) == _pairs(want_x)
    assert (_pairs(kernel), _loci(locus)) == \
        (_pairs(want_kernel), _loci(want_locus))
    square = rows[:n] if m >= n else None
    if square is not None:
        want_inv, want_locus = _dense_inverse(square)
        if want_inv is None:
            with pytest.raises(linalg.LinalgError):
                linalg.inverse(square)
        else:
            inv, locus = linalg.inverse(square)
            assert (_pairs(inv), _loci(locus)) == \
                (_pairs(want_inv), _loci(want_locus))
