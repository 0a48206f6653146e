"""Exterior calculus: wedge, differential, interior product, Lie derivative,
twisted complexes.  Each operation is cross-checked against an independent
pointwise oracle built from evaluation on vectors."""

from fractions import Fraction
from itertools import combinations, permutations
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieform.catalog import abelian, gl2r, sl2r, u2
from lieform.exterior import (AmbientMismatch, FormError, KForm, NoSolution,
                              ce_d, form_monomials, form_to_vector, interior,
                              lie_derivative, solve_potential,
                              twisted_cohomology_dim, twisted_d,
                              vector_to_form, wedge)
from lieform.lie_core import LieAlgebra
from lieform.scalars import Scalar, parse_scalar
from conftest import make_rng, random_form, random_vector


def e(g, *idx):
    return KForm.monomial(g, idx)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def leibniz_oracle(alpha, vectors):
    """alpha(v_1..v_k) = sum_I c_I det(e^{I_i}(v_j)), each determinant
    expanded by the Leibniz formula."""
    k = alpha.degree
    total = alpha.algebra.zero()
    for idx, c in alpha.coeffs.items():
        for perm in permutations(range(k)):
            inv = sum(1 for i in range(k) for j in range(i + 1, k)
                      if perm[i] > perm[j])
            term = c
            for i in range(k):
                term = term * vectors[perm[i]][idx[i]]
            total = total + (term if inv % 2 == 0 else -term)
    return total


def wedge_oracle(alpha, beta, vectors):
    """(alpha ^ beta)(v_1..v_{k+l}) via the shuffle-sum definition."""
    g = alpha.algebra
    k = alpha.degree
    total = g.zero()
    n = len(vectors)
    for left in combinations(range(n), k):
        right = tuple(i for i in range(n) if i not in left)
        seq = left + right
        inv = sum(1 for a in range(n) for b in range(a + 1, n)
                  if seq[a] > seq[b])
        term = alpha.evaluate(*[vectors[i] for i in left]) * \
            beta.evaluate(*[vectors[i] for i in right])
        total = total + (term if inv % 2 == 0 else -term)
    return total


def d_oracle(alpha, vectors):
    """d(alpha)(X_0..X_k) = sum_{i<j} (-1)^{i+j} alpha([X_i,X_j], rest)."""
    g = alpha.algebra
    total = g.zero()
    n = len(vectors)
    for i in range(n):
        for j in range(i + 1, n):
            rest = [vectors[t] for t in range(n) if t not in (i, j)]
            term = alpha.evaluate(g.bracket(vectors[i], vectors[j]), *rest)
            total = total + (term if (i + j) % 2 == 0 else -term)
    return total


def lie_derivative_oracle(g, v, alpha, vectors):
    """(L_v alpha)(X_1..X_k) = -sum_i alpha(X_1, .., [v, X_i], .., X_k)
    for constant (left-invariant) arguments."""
    total = g.zero()
    for i in range(len(vectors)):
        args = list(vectors)
        args[i] = g.bracket(v, vectors[i])
        total = total - alpha.evaluate(*args)
    return total


# ---------------------------------------------------------------------------
# KForm basics
# ---------------------------------------------------------------------------

def test_kform_rejects_bad_index_tuples():
    g = u2()
    with pytest.raises(FormError):
        KForm(g, 2, {(1, 1): g.one()})
    with pytest.raises(FormError):
        KForm(g, 2, {(2, 1): g.one()})
    with pytest.raises(FormError):
        KForm(g, 2, {(1,): g.one()})
    # an index outside range(dim), and a coefficient that is not a scalar
    # over the algebra's parameters
    for coeffs in ({(-1,): g.one()}, {(7,): g.one()},
                   {(1,): Scalar.one(("a",))}, {(1,): 1}):
        with pytest.raises(FormError):
            KForm(g, 1, coeffs)
    # a degree that is not a non-negative int: 2.5 was read as 2, and -1
    # failed later, in itertools, when the form met form_monomials
    for degree in (2.5, -1, "2", None, True):
        with pytest.raises(FormError):
            KForm(g, degree, {})
    with pytest.raises(FormError):
        KForm.zero(g, -1)
    assert form_to_vector(KForm.zero(g, g.dim + 1)) == []


def test_kform_division_is_exact():
    e0 = KForm.basis_oneform(u2(), 0)
    assert e0 / 3 == e0.scaled(Fraction(1, 3))
    with pytest.raises(ZeroDivisionError):
        e0 / 0


def test_kform_is_unhashable():
    # its scalars are unhashable; a class that defines __eq__ and not
    # __hash__ gets __hash__ = None
    with pytest.raises(TypeError):
        hash(KForm.basis_oneform(u2(), 0))


def test_dual_basis_pairing():
    g = u2()
    om = e(g, 1, 3)
    assert om.evaluate(g.basis_vector(1), g.basis_vector(3)) == 1
    assert om.evaluate(g.basis_vector(3), g.basis_vector(1)) == -1
    assert om.evaluate(g.basis_vector(1), g.basis_vector(2)).is_zero()
    assert e(g, 2).evaluate(g.vector([1, 2, 3, 4])) == 3


LITERALS = st.sampled_from(
    ["0", "1", "-2", "1/3", "a", "-b", "a*b - 1", "(a + 1)/b", "a^2/(b - 2)"])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_evaluate_matches_leibniz_expansion(k, data):
    params = ("a", "b")
    g = u2(params)
    coeffs = data.draw(st.dictionaries(
        st.sampled_from(form_monomials(g, k)), LITERALS, min_size=1))
    alpha = KForm(g, k, {idx: parse_scalar(c, params)
                         for idx, c in coeffs.items()})
    vectors = [[parse_scalar(c, params) for c in data.draw(
        st.lists(LITERALS, min_size=4, max_size=4))] for _ in range(k)]
    assert alpha.evaluate(*vectors) == leibniz_oracle(alpha, vectors)


def test_wedge_known_values():
    g = u2()
    assert wedge(e(g, 0), e(g, 1)) == e(g, 0, 1)
    assert wedge(e(g, 1), e(g, 0)) == -e(g, 0, 1)
    assert wedge(e(g, 0), e(g, 0)).is_zero()
    # (e0^e1) ^ (e2^e3) evaluates to 1 on the basis (shuffle normalization)
    om = wedge(e(g, 0, 1), e(g, 2, 3))
    assert om.evaluate(*[g.basis_vector(i) for i in range(4)]) == 1


def test_wedge_graded_commutativity_and_associativity():
    g = gl2r()
    rng = make_rng(11)
    for _ in range(25):
        ka = rng.randint(0, 2)
        kb = rng.randint(0, 2)
        a = random_form(rng, g, ka)
        b = random_form(rng, g, kb)
        c = random_form(rng, g, rng.randint(0, 2))
        sign = (-1) ** (ka * kb)
        assert wedge(a, b) == wedge(b, a).scaled(sign)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_matches_shuffle_oracle():
    g = u2()
    rng = make_rng(7)
    for _ in range(20):
        ka = rng.randint(1, 2)
        kb = rng.randint(1, 4 - ka)
        a = random_form(rng, g, ka)
        b = random_form(rng, g, kb)
        vs = [random_vector(rng, g) for _ in range(ka + kb)]
        assert wedge(a, b).evaluate(*vs) == wedge_oracle(a, b, vs)


def test_differential_of_dual_basis_verbatim():
    g = u2()
    # [e1,e2] = -e3 etc., so d(e^1) = e^{23}, d(e^2) = e^{31}, d(e^3) = e^{12}
    assert ce_d(e(g, 0)).is_zero()
    assert ce_d(e(g, 1)) == e(g, 2, 3)
    assert ce_d(e(g, 2)) == -e(g, 1, 3)
    assert ce_d(e(g, 3)) == e(g, 1, 2)
    # printed as canonical wedge expressions; d of the top-degree form is
    # the zero form of degree dim + 1, which has no monomial to print
    assert str(ce_d(e(g, 2))) == "(-1) * e1^e3"
    assert str(ce_d(e(g, 0))) == "0 * e0^e1"
    top = ce_d(e(g, 0, 1, 2, 3))
    assert top.degree == 5 and str(top) == "0"
    h = gl2r()
    # [h,e+] = 2e+, [h,e-] = -2e-, [e+,e-] = h
    assert ce_d(e(h, 1)) == -e(h, 2, 3)
    assert ce_d(e(h, 2)) == -e(h, 1, 2).scaled(2)
    assert ce_d(e(h, 3)) == e(h, 1, 3).scaled(2)


def test_differential_matches_pointwise_oracle():
    for g in (u2(), gl2r(), sl2r()):
        rng = make_rng(13)
        for _ in range(15):
            k = rng.randint(1, g.dim - 1)
            a = random_form(rng, g, k)
            vs = [random_vector(rng, g) for _ in range(k + 1)]
            assert ce_d(a).evaluate(*vs) == d_oracle(a, vs)
    # a parametric structure constant, [x, y] = t y over Q(t), and
    # parametric coefficients
    g = LieAlgebra(["x", "y"], {(0, 1): {1: "t"}}, params=("t",))
    vs = [g.vector([1, "t"]), g.vector([Fraction(-2, 3), 5])]
    for text in ("1", "t", "(t^2 - 1)/(2*t + 3)"):
        c = parse_scalar(text, g.params)
        for a in (KForm(g, 1, {(0,): c}), KForm(g, 1, {(1,): c}),
                  KForm(g, 1, {(0,): c, (1,): c * c + 1})):
            assert ce_d(a).evaluate(*vs) == d_oracle(a, vs)
    assert ce_d(KForm.basis_oneform(g, 1)) == \
        KForm(g, 2, {(0, 1): parse_scalar("-t", g.params)})


def test_d_is_an_antiderivation():
    g = gl2r()
    rng = make_rng(3)
    for _ in range(15):
        ka = rng.randint(0, 2)
        a = random_form(rng, g, ka)
        b = random_form(rng, g, rng.randint(0, 2))
        lhs = ce_d(wedge(a, b))
        rhs = wedge(ce_d(a), b) + wedge(a, ce_d(b)).scaled((-1) ** ka)
        assert lhs == rhs


def test_the_table_of_d_goes_with_its_algebra():
    # the table of d(e^I) that ce_d builds holds no reference to g
    g = u2()
    assert ce_d(e(g, 1)) == e(g, 2, 3)
    ref = weakref.ref(g)
    del g
    assert ref() is None


def test_interior_product_oracle_and_square_zero():
    g = u2()
    rng = make_rng(5)
    for _ in range(20):
        k = rng.randint(1, 4)
        a = random_form(rng, g, k)
        v = random_vector(rng, g)
        vs = [random_vector(rng, g) for _ in range(k - 1)]
        assert interior(v, a).evaluate(*vs) == a.evaluate(v, *vs)
        if k >= 2:
            assert interior(v, interior(v, a)).is_zero()


def test_lie_derivative_cartan_vs_bracket_oracle():
    for g in (u2(), sl2r()):
        rng = make_rng(17)
        for _ in range(12):
            k = rng.randint(1, g.dim - 1)
            a = random_form(rng, g, k)
            v = random_vector(rng, g)
            vs = [random_vector(rng, g) for _ in range(k)]
            assert lie_derivative(v, a).evaluate(*vs) == \
                lie_derivative_oracle(g, v, a, vs)


def test_twisted_d_squares_to_zero_for_closed_lambda():
    g = gl2r()
    lam = e(g, 0).scaled(-3)
    assert ce_d(lam).is_zero()
    rng = make_rng(23)
    for _ in range(20):
        a = random_form(rng, g, rng.randint(0, 3))
        assert twisted_d(twisted_d(a, lam), lam).is_zero()


@pytest.mark.parametrize("make, lam", [(u2, "a - 1/2"), (gl2r, "a + 1/3")],
                         ids=["u2", "gl2r"])
def test_twisted_d_is_the_difference_of_its_parts(make, lam):
    # the one-pass d_lam builds the (num, den) pairs, in the order, of the
    # difference of the two forms, on constant and quotient coefficients;
    # lam need not be closed.  On gl(2, R), d(e^23) cancels at e^123, which
    # lam ^ e^23 then fills: the difference puts it after e^012
    g = make(("a",))
    lam = KForm(g, 1, {(0,): parse_scalar(lam, g.params),
                       (1,): g._scalar(Fraction(3, 2))})
    rng = make_rng(29)
    quotients = [parse_scalar(t, g.params)
                 for t in ("3/2", "a + 1", "1/(a + 1)", "(2*a)/(a^2 - 3)")]
    forms = [KForm(g, 2, {(2, 3): g.one(), (0, 2): quotients[2]})]
    for _ in range(40):
        a = random_form(rng, g, rng.randint(0, g.dim))
        forms.append(KForm(g, a.degree, {idx: c * rng.choice(quotients)
                                         for idx, c in a.coeffs.items()}))
    for a in forms:
        want = ce_d(a) - wedge(lam, a)
        got = twisted_d(a, lam)
        assert [(idx, str(c.num), str(c.den)) for idx, c in got.coeffs.items()] \
            == [(idx, str(c.num), str(c.den))
                for idx, c in want.coeffs.items()]


def test_twisted_d_requires_degree_one():
    g = u2()
    with pytest.raises(FormError):
        twisted_d(e(g, 0), e(g, 0, 1))


# ---------------------------------------------------------------------------
# Cohomology and potentials
# ---------------------------------------------------------------------------

def test_untwisted_cohomology_of_u2():
    # product of a line and a compact simple factor: Betti numbers 1,1,0,1,1
    g = u2()
    zero = KForm.zero(g, 1)
    for k, want in [(0, 1), (1, 1), (2, 0), (3, 1), (4, 1)]:
        dim, _ = twisted_cohomology_dim(g, zero, k)
        assert dim == want


def test_twisted_cohomology_rejects_lambda_on_another_algebra():
    with pytest.raises(AmbientMismatch):
        twisted_cohomology_dim(u2(), KForm.zero(gl2r(), 1), 1)


def test_untwisted_cohomology_of_abelian():
    # the full exterior algebra survives: dim H^k = C(n, k)
    from math import comb
    g = abelian(3)
    zero = KForm.zero(g, 1)
    for k in range(4):
        dim, _ = twisted_cohomology_dim(g, zero, k)
        assert dim == comb(3, k)


def test_twisted_cohomology_vanishes_for_nonzero_multiple():
    g = u2()
    for c in (1, -1, 2):
        lam = e(g, 0).scaled(c)
        dim, _ = twisted_cohomology_dim(g, lam, 1)
        assert dim == 0


@pytest.mark.parametrize("g", [u2(), gl2r(("ah", "ap", "am"))],
                         ids=["u2", "gl2r"])
def test_form_vector_round_trip_in_every_degree(g):
    rng = make_rng(31)
    for k in range(g.dim + 1):
        monos = form_monomials(g, k)
        # coordinates follow form_monomials; a zero entry leaves the form
        # and reads back as zero
        vec = [g.zero() if t % 3 == 2 else
               g._scalar(rng.choice(g.params or (1,))) + Fraction(t, 2)
               for t in range(len(monos))]
        alpha = vector_to_form(g, k, vec)
        assert alpha.degree == k
        assert [alpha.coefficient(idx) for idx in monos] == vec
        assert form_to_vector(alpha) == vec
        beta = random_form(rng, g, k)
        assert vector_to_form(g, k, form_to_vector(beta)) == beta


def test_solve_potential_round_trip_and_gauge():
    g = u2()
    lam = e(g, 0).scaled(-1)
    rng = make_rng(29)
    for _ in range(10):
        phi = random_form(rng, g, 1)
        om = twisted_d(phi, lam)
        if om.is_zero():
            continue
        sol = solve_potential(om, lam)
        assert twisted_d(sol, lam) == om
        gauge = g.basis_vector(0)
        sol2 = solve_potential(om, lam, gauge=gauge)
        assert twisted_d(sol2, lam) == om
        assert sol2.evaluate(gauge).is_zero()


def test_solve_potential_reports_nonzero_class():
    # on the abelian algebra with lam = 0 a symplectic form is never exact
    g = abelian(4)
    om = wedge(e(g, 0), e(g, 1)) + wedge(e(g, 2), e(g, 3))
    with pytest.raises(NoSolution):
        solve_potential(om, KForm.zero(g, 1))
    # with h = g, C^1(g, h) = 0 and the system has no columns but still one
    # row per 2-form monomial: only omega = 0 has a potential, phi = 0
    g.h_subalgebra = [g.basis_vector(i) for i in range(g.dim)]
    with pytest.raises(NoSolution):
        solve_potential(wedge(e(g, 0), e(g, 1)), KForm.zero(g, 1))
    assert solve_potential(KForm.zero(g, 2), KForm.zero(g, 1)).is_zero()


def test_relative_complex_respects_marked_subalgebra():
    # mark the center of u(2); relative 1-forms must kill e0
    g = u2()
    g.h_subalgebra = [g.basis_vector(0)]
    from lieform.exterior import relative_basis
    basis = relative_basis(g, 1)
    for b in basis:
        assert b.evaluate(g.basis_vector(0)).is_zero()
    assert len(basis) == 3
    # 0-forms meet no interior condition; constants are invariant
    assert [str(b) for b in relative_basis(g, 0)] == ["(1)"]
