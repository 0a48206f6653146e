"""Geometric structures: complex structures, lcs extraction, metrics,
signatures (with a floating-point eigenvalue oracle), connections, Vaisman."""

import json
import os
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lieform import catalog, document, linalg
from lieform.catalog import J_ab, J_mu, abelian, gl2r, lcs_form, oneform, u2
from lieform.exterior import (AmbientMismatch, KForm, NoSolution, ce_d,
                              twisted_d, wedge)
from lieform.lie_core import LieAlgebra
from lieform.scalars import (DenominatorVanishes, ParameterValueError, Scalar,
                             parse_scalar, scalar_eval)
from lieform.structures import (CONVENTION_DEF, CONVENTION_THM,
                                ComplexStructure, Degenerate,
                                DegenerateAtPoint, DegenerateB,
                                J_to_subalgebra, Metric, NotAdInvariant,
                                NoLeeForm, NotAlmostComplex, NotCompatible,
                                NotTransverse, StructureReport, assemble_lck,
                                biinvariant_identities, gram_matrix,
                                _signature_over_z, compatibility_check,
                                lcs_check, metric_from, nijenhuis,
                                signatures,
                                subalgebra_to_J, vaisman_check)

DATA = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------------------
# Complex structures and Nijenhuis
# ---------------------------------------------------------------------------

def test_complex_structure_rejects_non_square_root():
    g = u2()
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(NotAlmostComplex):
        ComplexStructure(g, ident)


def test_nijenhuis_vanishes_on_abelian():
    # every almost complex structure on an abelian algebra is integrable
    g = abelian(4)
    J = ComplexStructure(g, [[0, -1, 0, 0], [1, 0, 0, 0],
                             [0, 0, 0, -1], [0, 0, 1, 0]])
    _, integrable, vanishing = nijenhuis(J)
    assert integrable and vanishing == []


def test_nijenhuis_detects_nonintegrable():
    # shear the last two columns of an integrable structure on u(2);
    # the defect concentrates in N(e2, e3) = -e1
    g = u2()
    J = ComplexStructure(g, [[0, -1, 0, -1], [1, 0, 1, 0],
                             [0, 0, 0, 1], [0, 0, -1, 0]])
    table, integrable, vanishing = nijenhuis(J)
    assert not integrable and vanishing
    assert table[(2, 3)] == g.vector({1: -1})


def test_complex_structure_subalgebra_round_trip():
    g = u2()
    J = J_ab(g, 0, 1)
    span = J_to_subalgebra(J)
    assert len(span) == 2
    J2, is_subalg = subalgebra_to_J(g, span)
    assert is_subalg  # J_01 is integrable
    for i in range(4):
        for j in range(4):
            assert J2.matrix[i][j] == J.matrix[i][j]


def test_nonintegrable_structure_subalgebra_round_trip():
    # on gl(2,R): J e0 = e+, J e+ = -e0, J h = e-, J e- = -h
    g = gl2r()
    z, o = g.zero(), g.one()
    J = ComplexStructure(g, [[z, z, -o, z], [z, z, z, -o],
                             [o, z, z, z], [z, o, z, z]])
    _, integrable, _ = nijenhuis(J)
    assert not integrable
    J2, is_subalg = subalgebra_to_J(g, J_to_subalgebra(J))
    assert is_subalg is False
    for i in range(4):
        for j in range(4):
            assert J2.matrix[i][j] == J.matrix[i][j]


@pytest.mark.parametrize("make_J", [
    lambda: J_ab(u2(("a", "b"))),
    lambda: J_mu(gl2r(("mu1", "mu2"))),
], ids=["J_ab", "J_mu"])
def test_parametric_subalgebra_round_trip(make_J):
    J = make_J()
    span = J_to_subalgebra(J)
    assert len(span) == 2
    for u, v in span:
        # J(u + iv) = i(u + iv)
        assert J.apply(u) == [-c for c in v]
        assert J.apply(v) == u
    J2, is_subalg = subalgebra_to_J(J.algebra, span)
    assert is_subalg  # both families are integrable
    assert J2.matrix == J.matrix


def test_subalgebra_to_J_rejects_non_transverse_spans():
    g = u2()
    e = g.basis_vector
    with pytest.raises(NotTransverse):
        # u and v are linearly dependent: e0, e1, e1, e0
        subalgebra_to_J(g, [(e(0), e(1)), (e(1), e(0))])
    with pytest.raises(NotTransverse):
        subalgebra_to_J(g, [(e(0), e(1))])


# ---------------------------------------------------------------------------
# The checks of J decided on N = d J, against the quotient definitions
# ---------------------------------------------------------------------------

GS = u2(("a", "b", "s"))


def _matrix(rows):
    return [[parse_scalar(c, GS.params) for c in row] for row in rows]


def _conjugated(M):
    """D^-1 M D for D = diag(1, s, 1, 1)."""
    D = [GS.one(), GS._scalar("s"), GS.one(), GS.one()]
    return [[M[i][j] * D[j] / D[i] for j in range(4)] for i in range(4)]


SHEAR = [["0", "-1", "0", "-1"], ["1", "0", "1", "0"],
         ["0", "0", "0", "1"], ["0", "0", "-1", "0"]]
POLES = [["0", "-(b + 1)/s", "0", "0"], ["s/(b + 1)", "0", "0", "0"],
         ["0", "0", "a", "1"], ["0", "0", "-1 - a^2", "-a"]]

# name: (J over Q(a, b, s), its distinct denominators); every J here has
# J^2 = -Id
SQUARE_ROOTS = {
    "J_01": (lambda: J_ab(GS, 0, 1).matrix, []),
    "shear": (lambda: _matrix(SHEAR), []),
    "J_ab": (lambda: J_ab(GS).matrix, ["b"]),
    "shear, conjugated": (lambda: _conjugated(_matrix(SHEAR)), ["s"]),
    "J_ab, conjugated": (lambda: _conjugated(J_ab(GS).matrix), ["b", "s"]),
    "two poles": (lambda: _matrix(POLES), ["s", "b + 1"]),
}


def _square_is_minus_id(M):
    square = linalg.mat_mul(M, M)
    return all(square[i][j] == -int(i == j)
               for i in range(4) for j in range(4))


def _nijenhuis_by_quotients(J):
    """N_J(e_i, e_j) = [Je_i, Je_j] - J[Je_i, e_j] - J[e_i, Je_j]
    - [e_i, e_j], pair by pair through J.apply."""
    g = J.algebra
    table = {}
    for i in range(g.dim):
        x = g.basis_vector(i)
        for j in range(i + 1, g.dim):
            y = g.basis_vector(j)
            jx, jy = J.apply(x), J.apply(y)
            n = linalg.vec_sub(g.bracket(jx, jy), J.apply(g.bracket(jx, y)))
            n = linalg.vec_sub(n, J.apply(g.bracket(x, jy)))
            table[(i, j)] = linalg.vec_sub(n, g.bracket(x, y))
    return table


@pytest.mark.parametrize("name", sorted(SQUARE_ROOTS))
def test_cleared_J_is_d_times_J(name):
    make, dens = SQUARE_ROOTS[name]
    M = make()
    J = ComplexStructure(GS, M)
    d = GS.one()
    for den in dens:
        d = d * parse_scalar(den, GS.params)
    assert J.d == d
    if not dens:
        assert J.cleared is J.matrix
    for i in range(4):
        for j in range(4):
            assert J.cleared[i][j].den.is_one()
            assert J.cleared[i][j] == d * M[i][j]


@pytest.mark.parametrize("rows", [
    [["0", "-(b + 1)/s", "0", "0"], ["s/(b + 2)", "0", "0", "0"],
     ["0", "0", "a", "1"], ["0", "0", "-1 - a^2", "-a"]],
    [["0", "-1/s", "0", "0"], ["s", "1/b", "0", "0"],
     ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
    [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
     ["0", "0", "a/s", "1"], ["0", "0", "-1 - a^2", "-a"]],
], ids=["two poles, perturbed", "off-diagonal pole", "one entry over s"])
def test_square_check_on_N_matches_the_quotient_definition(rows):
    M = _matrix(rows)
    assert not _square_is_minus_id(M)
    square = linalg.mat_mul(M, M)
    i, j = next((i, j) for i in range(4) for j in range(4)
                if square[i][j] != -int(i == j))
    with pytest.raises(NotAlmostComplex) as exc:
        ComplexStructure(GS, M)
    # the message prints the entry of the quotient J^2
    assert str(exc.value) == f"J^2 != -Id at entry ({i},{j}): {square[i][j]}"


@pytest.mark.parametrize("name", sorted(SQUARE_ROOTS))
def test_nijenhuis_on_N_matches_the_quotient_definition(name):
    make, dens = SQUARE_ROOTS[name]
    M = make()
    assert _square_is_minus_id(M)
    J = ComplexStructure(GS, M)
    table, integrable, vanishing = nijenhuis(J)
    want = _nijenhuis_by_quotients(J)
    assert table == want
    entries = [c for n in want.values() for c in n]
    assert integrable is all(c.is_zero() for c in entries)
    if name == "two poles":
        # a numerator can carry factors of the pole b + 1, which vanish
        # only where J is not defined
        pole = parse_scalar("b + 1", GS.params).num
        assert len(vanishing) == len(linalg.vanishing(entries))
        for p, q in zip(vanishing, linalg.vanishing(entries)):
            assert any(p == q * pole ** k for k in range(3))
    else:
        # monomial denominators: the same (num, den) pairs
        assert [(c.num, c.den) for n in table.values() for c in n] == \
            [(c.num, c.den) for c in entries]
        assert vanishing == linalg.vanishing(entries)
    verdicts = {"J_01": True, "shear": False, "J_ab": True,
                "shear, conjugated": False, "J_ab, conjugated": True,
                "two poles": False}
    assert integrable is verdicts[name]


@pytest.mark.parametrize("name", sorted(SQUARE_ROOTS))
def test_invariance_on_N_matches_the_quotient_definition(name):
    make, _ = SQUARE_ROOTS[name]
    J = ComplexStructure(GS, make())
    generic = KForm(GS, 2, {(i, j): GS._scalar(c) for (i, j), c in zip(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        [1, 2, "a", 5, "s", 11])})
    # beta + beta(J., J.) is J-invariant, as J^2 = -Id
    B = gram_matrix(generic)
    pulled = linalg.mat_mul(linalg.transpose(J.matrix),
                            linalg.mat_mul(B, J.matrix))
    invariant = KForm(GS, 2, {(i, j): B[i][j] + pulled[i][j]
                              for i in range(4) for j in range(i + 1, 4)})
    forms = [lcs_form(GS, oneform(GS, {1: 1})),
             lcs_form(GS, oneform(GS, {1: "s", 2: "a"})),
             KForm(GS, 2, {(0, 2): GS.one(), (1, 3): GS.one()}),
             generic, invariant]
    verdicts = []
    for om in forms:
        OJ = linalg.mat_mul(gram_matrix(om), J.matrix)
        symmetric = all(OJ[i][j] == OJ[j][i]
                        for i in range(4) for j in range(i + 1, 4))
        assert compatibility_check(om, J) is symmetric
        verdicts.append(symmetric)
        if not symmetric:
            continue
        # the metric is read off Omega N / d: the values of +-Omega J, and
        # over a monomial d also their (num, den) pairs
        for convention, sign in ((CONVENTION_DEF, 1), (CONVENTION_THM, -1)):
            G = metric_from(om, J, convention).matrix
            want = [[c * sign for c in row] for row in OJ]
            assert G == want
            if len(J.d.num.terms) == 1:
                assert [[(c.num, c.den) for c in row] for row in G] == \
                    [[(c.num, c.den) for c in row] for row in want]
    assert verdicts[-2:] == [False, True]


# ---------------------------------------------------------------------------
# lcs extraction
# ---------------------------------------------------------------------------

def test_lcs_check_on_symplectic_abelian():
    g = abelian(4)
    e = lambda *i: KForm.monomial(g, i)
    om = e(0, 1) + e(2, 3)
    lcs = lcs_check(g, om)
    assert lcs.lam.is_zero()
    assert linalg.vec_is_zero(lcs.Z)
    assert not lcs.proper


def test_lcs_check_standard_u2():
    g = u2()
    om = lcs_form(g, oneform(g, {1: 1}))
    lcs = lcs_check(g, om)
    assert lcs.lam == KForm(g, 1, {(0,): -g.one()})
    assert lcs.Z == g.vector({1: Fraction(1, 2)})
    assert lcs.proper
    # defining identities hold exactly
    assert ce_d(om) == wedge(lcs.lam, om)
    from lieform.exterior import interior
    assert interior(lcs.Z, om) == lcs.lam.scaled(Fraction(1, 2))
    assert lcs.lam.evaluate(lcs.Z).is_zero()


def test_lcs_check_rejects_degenerate():
    g = abelian(4)
    om = KForm.monomial(g, (0, 1))
    with pytest.raises(Degenerate):
        lcs_check(g, om)


def test_lcs_check_reports_a_degenerate_form_before_a_missing_lee_form():
    # omega = e^01 on u(2) has rank 2, and d(omega) = -e^023 is not
    # lam ^ omega for any lam either: the rank test decides first
    g = u2()
    with pytest.raises(Degenerate,
                       match=r"^rank 2 on the quotient \(need 4\)$"):
        lcs_check(g, KForm.monomial(g, (0, 1)))


def test_lcs_check_rejects_a_nondegenerate_form_with_no_lee_form():
    # [e0, e1] = e2 in dimension 6, omega = e^01 + e^24 + e^35: nondegenerate,
    # and d(omega) = -e^014 is not lam ^ omega (in dimension 4 with h = 0
    # a nondegenerate omega always has a Lee form)
    g = LieAlgebra([f"e{i}" for i in range(6)], {(0, 1): {2: 1}})
    e = lambda *i: KForm.monomial(g, i)
    om = e(0, 1) + e(2, 4) + e(3, 5)
    assert ce_d(om) == -e(0, 1, 4)
    with pytest.raises(NoLeeForm,
                       match=r"^d\(omega\) is not of the form lam \^ omega$"):
        lcs_check(g, om)


def test_lcs_check_in_dimension_two_has_no_lee_system():
    # no 3-forms: the Lee system has no rows, and lam = 0, Z = 0
    g = abelian(2)
    lcs = lcs_check(g, KForm.monomial(g, (0, 1)))
    assert lcs.lam.is_zero()
    assert lcs.Z == g.zero_vector()
    assert not lcs.proper


# ---------------------------------------------------------------------------
# Compatibility and metrics
# ---------------------------------------------------------------------------

def test_compatibility_check_is_false_on_an_incompatible_pair():
    g = u2()
    om = lcs_form(g, oneform(g, {1: 1, 2: 1}))
    assert compatibility_check(om, J_ab(g, 1, 2)) is False


def test_J_on_another_algebra_is_rejected():
    # without the check, assemble_lck returned lcK data on u2 with a J on
    # gl2r, and vaisman_check called it Vaisman
    g = u2()
    om = lcs_form(g, oneform(g, {1: 1}))
    J = ComplexStructure(gl2r(), J_ab(g, 0, 1).matrix)
    for check in (compatibility_check, metric_from,
                  lambda om, J: assemble_lck(g, om, J, CONVENTION_DEF)):
        with pytest.raises(AmbientMismatch,
                           match="J lives on another algebra than omega"):
            check(om, J)


def test_metric_conventions_differ_by_sign():
    g = u2(("a", "b"))
    om = lcs_form(g, oneform(g, {1: 1}))
    J = J_ab(g)
    m_def = metric_from(om, J, CONVENTION_DEF)
    m_thm = metric_from(om, J, CONVENTION_THM)
    for i in range(4):
        for j in range(4):
            assert m_def.matrix[i][j] == -m_thm.matrix[i][j]


def test_metric_from_rejects_incompatible_pair():
    g = u2()
    om = lcs_form(g, oneform(g, {1: 1, 2: 1}))
    # omega(., J.) is asymmetric at (0,2), (0,3) and (1,3)
    with pytest.raises(NotCompatible,
                       match=r"not symmetric at \(0,2\); omega is not"):
        metric_from(om, J_ab(g, 1, 2))


@pytest.mark.parametrize("algebra, J_name, omega_name, compatible", [
    ("u2", "J_ab", "omega_std", True),
    ("u2", "J_ab", "omega_general", False),
    ("u2", "J_01", "omega_std", True),
    ("u2", "J_01", "omega_general", True),
    ("gl2r", "J_mu", "omega_std", True),
    ("gl2r", "J_mu", "omega_general", False),
    ("gl2r", "J_mu1", "omega_std", True),
    ("gl2r", "J_mu1", "omega_general", True),
])
def test_matrix_path_matches_basis_evaluation(algebra, J_name, omega_name,
                                              compatible):
    # references: omega evaluated on basis vectors and their images under J
    fams = catalog.get(algebra).families
    om, J = fams[omega_name], fams[J_name]
    g = om.algebra
    e = g.basis_vector
    n = g.dim
    invariant = all(
        om.evaluate(J.apply(e(i)), J.apply(e(j))) == om.evaluate(e(i), e(j))
        for i in range(n) for j in range(i + 1, n))
    assert invariant == compatible
    assert compatibility_check(om, J) is invariant
    if not compatible:
        with pytest.raises(NotCompatible):
            metric_from(om, J, CONVENTION_DEF)
        return
    m = metric_from(om, J, CONVENTION_DEF)
    for i in range(n):
        for j in range(n):
            assert m.matrix[i][j] == om.evaluate(e(i), J.apply(e(j)))


# ---------------------------------------------------------------------------
# Exact signatures, with a numeric eigenvalue oracle
# ---------------------------------------------------------------------------

def exact_signature(rows):
    """Signature (p, q) of a symmetric matrix of ints and Fractions: the
    matrix scaled by the lcm of its entry denominators, handed to the
    integer core that ``signatures`` runs at each of its points."""
    l = lcm(*(c.denominator for r in rows for c in r))
    return _signature_over_z([[c.numerator * (l // c.denominator) for c in r]
                              for r in rows])


def test_exact_signature_known():
    assert exact_signature([[1, 0], [0, -1]]) == (1, 1)
    assert exact_signature([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == (3, 0)
    # hyperbolic plane: zero diagonal, off-diagonal coupling
    assert exact_signature([[0, 1], [1, 0]]) == (1, 1)
    assert exact_signature([[0, 0, -3, 3], [0, 0, 3, 3],
                            [-3, 3, 0, 0], [3, 3, 0, 0]]) == (2, 2)
    with pytest.raises(DegenerateAtPoint):
        exact_signature([[1, 1], [1, 1]])


def test_exact_signature_takes_ints_fractions_and_mixed_rows():
    rows = [[0, 2, 0], [2, 0, 0], [0, 0, -3]]
    fractions = [[Fraction(c) for c in r] for r in rows]
    mixed = [rows[0], fractions[1], [0, Fraction(0), Fraction(-3)]]
    for a in (rows, fractions, mixed):
        assert exact_signature(a) == (1, 2)
    # the caller's rows are copied, not reduced in place
    assert fractions == [[0, 2, 0], [2, 0, 0], [0, 0, -3]]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(st.lists(st.integers(-6, 6), min_size=10, max_size=10))
def test_exact_signature_matches_eigenvalue_oracle(entries):
    numpy = pytest.importorskip("numpy")
    a = [[0] * 4 for _ in range(4)]
    it = iter(entries)
    for i in range(4):
        for j in range(i, 4):
            a[i][j] = a[j][i] = next(it)
    eig = numpy.linalg.eigvalsh(numpy.array(a, dtype=float))
    if min(abs(e) for e in eig) < 1e-8:
        return  # numerically degenerate; the exact code may rightly refuse
    want = (int(sum(e > 0 for e in eig)), int(sum(e < 0 for e in eig)))
    assert exact_signature(a) == want


def det_by_fractions(a):
    """Determinant of a square int matrix by Gaussian elimination over Q,
    with row swaps."""
    m = [[Fraction(c) for c in row] for row in a]
    n, det = len(m), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return det


@st.composite
def sparse_symmetric(draw):
    """A symmetric int matrix of size 2 to 5, most entries zero and some
    diagonal entries zero, so that the core also meets hyperbolic pairs,
    pivots past a zero diagonal and degenerate blocks."""
    n = draw(st.integers(2, 5))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    a = [[0] * n for _ in range(n)]
    zero_diagonal = draw(st.sets(st.integers(0, n - 1), min_size=1))
    for i in range(n):
        for j in range(i, n):
            if i != j or i not in zero_diagonal:
                a[i][j] = a[j][i] = draw(entry)
    return a


@settings(max_examples=300, deadline=None)
@given(sparse_symmetric())
@example([[0, 1], [1, 0]])
@example([[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0],
          [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]])
@example([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
@example([[1, 1, 0, 0], [1, 1, 2, 0], [0, 2, 0, 3], [0, 0, 3, -1]])
def test_signature_core_on_sparse_matrices(a):
    # every branch of the core: pivots after a zero diagonal (their rows
    # are read from the mirrored lower triangle), hyperbolic pairs, and
    # DegenerateAtPoint exactly where the determinant is 0
    numpy = pytest.importorskip("numpy")
    copy = [row[:] for row in a]
    if det_by_fractions(a) == 0:
        with pytest.raises(DegenerateAtPoint,
                           match="^matrix is degenerate at the point$"):
            _signature_over_z(copy)
        return
    eig = numpy.linalg.eigvalsh(numpy.array(a, dtype=float))
    # |det| >= 1 and |eigenvalue| <= 15 bound every eigenvalue away from 0
    assert min(abs(e) for e in eig) > 1e-6
    want = (int(sum(e > 0 for e in eig)), int(sum(e < 0 for e in eig)))
    assert _signature_over_z(copy) == want


def test_signature_at_uses_exact_evaluation():
    g = u2(("a", "b"))
    om = lcs_form(g, oneform(g, {1: 1}))
    m = metric_from(om, J_ab(g), CONVENTION_THM)
    assert next(signatures(m, [{"a": 0, "b": -1}])) == (4, 0)
    assert next(signatures(m, [{"a": 0, "b": 1}])) == (2, 2)
    with pytest.raises(DegenerateAtPoint):
        next(signatures(m, [{"a": 0, "b": 0}]))  # on the excluded locus


@pytest.mark.parametrize("point, message", [
    ({"a": 0}, "parameter 'b': no value given"),
    ({"a": 0, "b": "x"}, "parameter 'b': value 'x' is not rational"),
])
def test_signature_at_names_a_missing_or_non_rational_parameter(point,
                                                                message):
    # a bad point is an input error, not a degenerate metric
    g = u2(("a", "b"))
    m = metric_from(lcs_form(g, oneform(g, {1: 1})), J_ab(g), CONVENTION_THM)
    with pytest.raises(ParameterValueError) as exc:
        next(signatures(m, [point]))
    assert str(exc.value) == message
    assert exc.value.name == "b"


def _signature_by_fractions(gm, assignment):
    """Reference for ``signatures`` at one point: every power, product and
    partial sum as a Fraction, then symmetric pivoting over Q.  Returns the
    signature or the message of the DegenerateAtPoint it would raise."""
    def value(poly, point):
        total = Fraction(0)
        for e, c in poly.terms.items():
            t = Fraction(c)
            for p, k in zip(poly.params, e):
                t *= point[p] ** k
            total += t
        return total

    n = len(gm.matrix)
    a = [[None] * n for _ in range(n)]
    try:
        point = {p: Fraction(v) for p, v in assignment.items()}
        for i in range(n):
            for j in range(i, n):
                c = gm.matrix[i][j]
                den = value(c.den, point)
                if den == 0:
                    raise DenominatorVanishes(point)
                a[i][j] = a[j][i] = value(c.num, point) / den
    except DenominatorVanishes as exc:
        return f"cannot evaluate metric: {exc}"
    p = q = 0
    live = list(range(n))
    while live:
        piv = next((i for i in live if a[i][i] != 0), None)
        if piv is not None:
            d = a[piv][piv]
            p, q = (p + 1, q) if d > 0 else (p, q + 1)
            live.remove(piv)
            for i in live:
                f = a[i][piv] / d
                for j in live:
                    a[i][j] -= f * a[piv][j]
            continue
        hyper = next(((i, j) for ii, i in enumerate(live)
                      for j in live[ii + 1:] if a[i][j] != 0), None)
        if hyper is None:
            return "matrix is degenerate at the point"
        i, j = hyper
        for c in live:
            a[i][c] += a[j][c]
        for r in live:
            a[r][i] += a[r][j]
    return p, q


_SIG_PARAMS = ("a", "b")
_SIG_NUMS = ["0", "1", "-2", "a", "-b", "a + b", "a^2 - b", "3*a*b - 1/2",
             "-b^2 + 2/3"]
# each vanishes somewhere on the sample grid below
_SIG_DENS = ["1", "a", "b", "a - b", "a*b + 1", "2*a + 1", "a^2 - 4*b^2"]


@st.composite
def _parametric_metrics(draw):
    """A symmetric Scalar matrix over Q(a, b): general, with a zero diagonal
    (hyperbolic steps) or a sum of two rank-one terms (singular)."""
    kind = draw(st.sampled_from(["general", "hyperbolic", "low rank"]))
    n = draw(st.integers(3 if kind == "low rank" else 2, 4))

    def entry():
        return parse_scalar(f"({draw(st.sampled_from(_SIG_NUMS))})/"
                            f"({draw(st.sampled_from(_SIG_DENS))})",
                            _SIG_PARAMS)

    if kind == "low rank":
        u = [entry() for _ in range(n)]
        v = [entry() for _ in range(n)]
        sign = draw(st.sampled_from([1, -1]))
        return [[u[i] * u[j] + v[i] * v[j] * sign for j in range(n)]
                for i in range(n)]
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry()
        if kind == "hyperbolic":
            m[i][i] = Scalar.zero(_SIG_PARAMS)
    return m


_SIG_GRID = [Fraction(k, 2) for k in range(-4, 5)] + [Fraction(-1, 3)]
# positive definite at a = 1/2, b = 1, where the common denominator of its
# entries, a (a - b) (2a + 1) (ab + 1), is -3/4: the census signs d times
# the metric and swaps (p, q) where d < 0
_NEGATIVE_D = [[parse_scalar(c, _SIG_PARAMS) for c in row] for row in [
    ["1/a", "0", "0"],
    ["0", "-b/(a - b)", "1/(2*a + 1)"],
    ["0", "1/(2*a + 1)", "(a + b)/(a*b + 1)"]]]


@settings(max_examples=300, deadline=None)
@given(_parametric_metrics(), st.sampled_from(_SIG_GRID),
       st.sampled_from(_SIG_GRID))
@example(_NEGATIVE_D, Fraction(1, 2), Fraction(1))
def test_signature_at_matches_the_fraction_route(matrix, av, bv):
    gm = Metric(u2(_SIG_PARAMS), matrix, None)
    want = _signature_by_fractions(gm, {"a": av, "b": bv})
    try:
        got = next(signatures(gm, [{"a": av, "b": bv}]))
    except DegenerateAtPoint as exc:
        got = str(exc)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(_parametric_metrics(),
       st.lists(st.tuples(st.sampled_from(_SIG_GRID),
                          st.sampled_from(_SIG_GRID)), min_size=1,
                max_size=12))
@example(_NEGATIVE_D, [(Fraction(1, 2), Fraction(1)), (Fraction(-2), -1),
                       (Fraction(1), Fraction(1, 2)), (0, Fraction(1))])
def test_signatures_match_the_fraction_route_at_every_point(matrix, grid):
    gm = Metric(u2(_SIG_PARAMS), matrix, None)
    points = [{"a": av, "b": bv} for av, bv in grid]
    want = [_signature_by_fractions(gm, p) for p in points]
    got = []
    while len(got) < len(points):
        # the census raises at a point it cannot sign; resume after it
        try:
            for sig in signatures(gm, points[len(got):]):
                got.append(sig)
        except DegenerateAtPoint as exc:
            got.append(str(exc))
    assert got == want


# ---------------------------------------------------------------------------
# Connection and Vaisman
# ---------------------------------------------------------------------------

def _nabla_by_three_pairings(g, gm, y):
    """The Koszul formula with one pairing u . G v per term: the covariant
    derivatives [nabla_{e_i} y for i] of a left-invariant vector y."""
    def pair(u, v):
        return linalg.dot(u, linalg.mat_vec(gm.matrix, v))

    ginv, _ = linalg.inverse(gm.matrix)
    out = []
    for i in range(g.dim):
        ei = g.basis_vector(i)
        ei_y = g.bracket(ei, y)
        rhs = []
        for k in range(g.dim):
            ek = g.basis_vector(k)
            val = pair(ei_y, ek) - pair(g.bracket(y, ek), ei) \
                + pair(g.bracket(ek, ei), y)
            rhs.append(val * Fraction(1, 2))
        out.append(linalg.mat_vec(ginv, rhs))
    return out


def test_levi_civita_is_metric_and_torsion_free():
    # the oracle above is the one general covariant derivative
    g = u2()
    om = lcs_form(g, oneform(g, {1: 1}))
    lck = assemble_lck(g, om, J_ab(g, 0, 1), CONVENTION_DEF)
    gm = lck.metric
    n = g.dim

    def pair(x, y):
        return linalg.dot(x, linalg.mat_vec(gm.matrix, y))

    table = {}
    for j in range(n):
        nabla_ej = _nabla_by_three_pairings(g, gm, g.basis_vector(j))
        for i in range(n):
            table[(i, j)] = nabla_ej[i]
    for i in range(n):
        for j in range(n):
            # torsion: nabla_i e_j - nabla_j e_i = [e_i, e_j]
            diff = linalg.vec_sub(table[(i, j)], table[(j, i)])
            assert diff == g.bracket_basis(i, j)
            for k in range(n):
                # metric compatibility on constant fields:
                # g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k) = 0
                val = pair(table[(i, j)], g.basis_vector(k)) + \
                    pair(g.basis_vector(j), table[(i, k)])
                assert val.is_zero()


def _lck_of(name, omega, J, convention):
    """The lcK data of the named forms of the document tests/data/<name>."""
    doc = document.load(os.path.join(DATA, name))
    g = doc.build_algebra()
    return assemble_lck(g, doc.build_form(omega, g),
                        ComplexStructure(g, doc.build_endo(J, g)), convention)


@pytest.mark.parametrize("path, omega, J, convention", [
    ("u2.json", "omega_std", "J_01", CONVENTION_DEF),
    ("u2.json", "omega_std", "J_ab", CONVENTION_DEF),
    ("u2.json", "omega_std", "J_ab", CONVENTION_THM),
    ("u2.json", "omega_general", "J_01", CONVENTION_DEF),
    ("gl2r.json", "omega_std", "J_mu1", CONVENTION_DEF),
    ("gl2r.json", "omega_general", "J_mu1", CONVENTION_DEF),
])
def test_vaisman_check_matches_the_koszul_oracle(path, omega, J, convention):
    # vaisman_check drops the structure-constant term of the Koszul formula
    # (zero, as d(lam) = 0); scalars have no canonical form, so the printed
    # numerators of the oracle's full formula are compared, not just values
    lck = _lck_of(path, omega, J, convention)
    g = lck.algebra
    want = _nabla_by_three_pairings(g, lck.metric, lck.xi)
    vanishing = linalg.vanishing(c for row in want for c in row)
    _, pivots = linalg.inverse(lck.metric.matrix)
    ok, got_vanishing, got_locus = vaisman_check(lck)
    assert ok == (not vanishing)
    assert [str(p) for p in got_vanishing] == [str(p) for p in vanishing]
    # a PASS inverts no metric: its verdict holds wherever lck is defined
    assert [str(p) for p in got_locus] == \
        ([str(p) for p in pivots] if vanishing else [])


def _recorded_vaisman_calls():
    """(document, omega, J) of every check-vaisman call in the CLI golden."""
    with open(os.path.join(DATA, "cli_reference.json"),
              encoding="utf-8") as fh:
        calls = json.load(fh)["cli"]
    return sorted({tuple(call.split()[1:4]) for call in calls
                   if call.startswith("check-vaisman ")})


@pytest.mark.parametrize("convention", [CONVENTION_DEF, CONVENTION_THM])
@pytest.mark.parametrize("path, omega, J", _recorded_vaisman_calls())
def test_g_xi_xi_from_gxi_matches_the_metric_pairing(path, omega, J,
                                                     convention):
    # check-vaisman prints g(xi, xi) as xi . gxi, and assemble_lck keeps
    # gxi = s lam without forming G xi (exact by construction), as the Reeb
    # vector has lam(Z) = 0 without a check; the references are the
    # products G xi and xi^T G xi and the evaluation lam(Z)
    lck = _lck_of(os.path.basename(path), omega, J, convention)
    gxi = linalg.mat_vec(lck.metric.matrix, lck.xi)
    assert len(gxi) == len(lck.gxi)
    for got, want in zip(lck.gxi, gxi):
        assert got == want
    assert lck.lcs.lam.evaluate(lck.lcs.Z).is_zero()
    assert linalg.dot(lck.xi, gxi) == \
        sum(x * y for x, y in zip(lck.xi, lck.gxi))


@pytest.mark.parametrize("convention", [CONVENTION_DEF, CONVENTION_THM])
@pytest.mark.parametrize("path, omega, J", _recorded_vaisman_calls())
def test_nabla_xi_vanishes_exactly_when_the_killing_list_is_empty(
        path, omega, J, convention):
    # Vaisman's criterion on a Lie algebra: as G xi = s lam is closed,
    # nabla xi = 0 exactly when M + M^T = 0, M = G ad_xi; the oracle forms
    # nabla xi by the full Koszul formula and one inverse of G
    lck = _lck_of(os.path.basename(path), omega, J, convention)
    n = lck.algebra.dim
    M = linalg.mat_mul(lck.metric.matrix, lck.algebra.ad(lck.xi))
    killing = linalg.vanishing(M[i][j] + M[j][i]
                               for i in range(n) for j in range(i, n))
    nabla = _nabla_by_three_pairings(lck.algebra, lck.metric, lck.xi)
    assert all(c.is_zero() for row in nabla for c in row) == (not killing)
    assert vaisman_check(lck)[0] == (not killing)


def test_vaisman_flat_on_standard_structure_and_not_on_perturbed():
    g = u2()
    om = lcs_form(g, oneform(g, {1: 1}))
    lck = assemble_lck(g, om, J_ab(g, 0, 1), CONVENTION_DEF)
    ok, vanishing, _ = vaisman_check(lck)
    assert ok and not vanishing
    assert not linalg.dot(
        lck.xi, linalg.mat_vec(lck.metric.matrix, lck.xi)).is_zero()
    om2 = lcs_form(g, oneform(g, {1: 1, 2: 1}))
    lck2 = assemble_lck(g, om2, J_ab(g, 0, 1), CONVENTION_DEF)
    ok2, vanishing2, _ = vaisman_check(lck2)
    assert not ok2 and vanishing2


def test_assemble_lck_identities():
    g = gl2r(("ap",))
    ap = Scalar.var(g.params, "ap")
    om = lcs_form(g, KForm(g, 1, {(2,): ap, (3,): -ap}))
    lck = assemble_lck(g, om, J_mu(g, 1, 0), CONVENTION_DEF)
    # Z = J xi and xi = -1/2 g^{-1} lam by construction; verify directly
    assert lck.J.apply(lck.xi) == lck.lcs.Z
    lam_vec = [lck.lcs.lam.coefficient((j,)) for j in range(4)]
    gx = linalg.mat_vec(lck.metric.matrix, lck.xi)
    assert gx == [c * Fraction(-1, 2) for c in lam_vec] == lck.gxi
    # theta(e_i) = lam(J e_i) / 2
    for i in range(4):
        v = g.basis_vector(i)
        assert lck.theta.evaluate(v) == \
            lck.lcs.lam.evaluate(lck.J.apply(v)) * Fraction(1, 2)
    # the potential satisfies d_lam(phi) = omega and phi(xi) = 0
    assert twisted_d(lck.phi, lck.lcs.lam) == om
    assert lck.phi.evaluate(lck.xi).is_zero()


@pytest.mark.parametrize("id_, J_name, pole", [("u2", "J_ab", "b"),
                                               ("gl2r", "J_mu", "mu1")])
def test_lee_vector_solves_the_metric_system(id_, J_name, pole):
    # every compatible (omega, J) pair of the catalog, in both conventions:
    # xi = -J Z is the solution of G xi = s lam, and the locus names the
    # pole of the parametric J
    entry = catalog.get(id_)
    g, fams = entry.algebra, entry.families
    forms = [f for f in fams.values()
             if isinstance(f, KForm) and f.degree == 2]
    Js = [f for f in fams.values() if isinstance(f, ComplexStructure)]
    checked = 0
    for om in forms:
        for J in Js:
            for convention in (CONVENTION_DEF, CONVENTION_THM):
                try:
                    lck = assemble_lck(g, om, J, convention)
                except NotCompatible:
                    continue
                xi, _, _ = linalg.solve(lck.metric.matrix, lck.gxi)
                assert lck.xi == xi
                locus = [str(p) for p in lck.locus]
                assert (pole in locus) == (J is fams[J_name])
                checked += 1
    assert checked == 6


def test_kahler_structure_assembles_and_has_no_potential():
    # omega is closed: lam = 0, and [omega] != 0 in untwisted cohomology
    g = abelian(4)
    om = KForm(g, 2, {(0, 1): g.one(), (2, 3): g.one()})
    J = ComplexStructure(g, [[0, -1, 0, 0], [1, 0, 0, 0],
                             [0, 0, 0, -1], [0, 0, 1, 0]])
    lck = assemble_lck(g, om, J, CONVENTION_DEF)
    assert lck.lcs.lam.is_zero() and lck.theta.is_zero()
    with pytest.raises(NoSolution):
        lck.phi


def test_assemble_lck_rejects_incompatible_pair():
    g = u2()
    om = lcs_form(g, oneform(g, {1: 1, 2: 1}))
    with pytest.raises(NotCompatible, match="omega is not J-invariant"):
        assemble_lck(g, om, J_ab(g, 1, 2))


def test_biinvariant_identities_rejects_degenerate_B():
    g = u2()
    lck = assemble_lck(g, lcs_form(g, oneform(g, {1: 1})), J_ab(g, 0, 1))
    # e0 spans the center, so this B is ad-invariant but degenerate
    B = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(DegenerateB):
        biinvariant_identities(B, lck)


def test_biinvariant_identities_rejects_non_ad_invariant_B():
    g = u2()
    lck = assemble_lck(g, lcs_form(g, oneform(g, {1: 1})), J_ab(g, 0, 1))
    B = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(NotAdInvariant,
                       match=r"ad-invariance fails on triple \(2,1,3\)$"):
        biinvariant_identities(B, lck)
    # asymmetric at (1,2) and (0,3): the first in row-major order is named
    B = [[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(NotAdInvariant, match=r"B not symmetric at \(0,3\)$"):
        biinvariant_identities(B, lck)


@pytest.mark.parametrize("make, phi, J", [
    (u2, {1: 1}, lambda g: J_ab(g, 0, 1)),
    (gl2r, {2: 1, 3: -1}, lambda g: J_mu(g, 1, 0)),
])
def test_ad_invariance_names_the_first_failing_triple(make, phi, J):
    g = make()
    lck = assemble_lck(g, lcs_form(g, oneform(g, phi)), J(g))
    n = g.dim

    def first_defect(B):
        # B([e_i, e_j], e_k) + B(e_j, [e_i, e_k]) in (i, j, k) order
        Bs = [[g._scalar(c) for c in row] for row in B]

        def pair(x, y):
            return linalg.dot(x, linalg.mat_vec(Bs, y))

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ei, ej, ek = (g.basis_vector(t) for t in (i, j, k))
                    if not (pair(g.bracket(ei, ej), ek)
                            + pair(ej, g.bracket(ei, ek))).is_zero():
                        return f"({i},{j},{k})"
        return None

    rng = random.Random(7)
    for _ in range(16):
        # sparse, so that some first failures sit on the diagonal j = k
        B = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                B[i][j] = B[j][i] = rng.choice([0, 0, 0, -1, 1, 2])
        want = first_defect(B)
        if want is None:
            continue
        with pytest.raises(NotAdInvariant) as exc:
            biinvariant_identities(B, lck)
        assert str(exc.value) == f"ad-invariance fails on triple {want}"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_structure_report_accounting():
    rep = StructureReport("demo")
    rep.check("yes", True)
    rep.check("no", False, "reason")
    rep.skip("later", "why")
    rep.info("note", "detail")
    assert not rep.ok
    assert rep.counts() == {"PASS": 1, "FAIL": 1, "SKIPPED": 1, "INFO": 1}
    text = rep.to_text()
    assert "[FAIL] no :: reason" in text
    assert text.endswith("1 passed, 1 failed, 1 skipped")
    sub = StructureReport("outer")
    sub.extend(rep)
    assert sub.entries[0][0].startswith("demo: ")
    js = rep.to_json()
    assert js["ok"] is False and len(js["checks"]) == 4


@pytest.mark.parametrize("algebra, J_name, x, y", [
    ("u2", "J_ab", "a", "b"),
    ("gl2r", "J_mu", "mu1", "mu2"),
])
def test_signature_at_upper_triangle_matches_full_evaluation(algebra, J_name,
                                                            x, y):
    fams = catalog.get(algebra).families
    om = fams["omega_std"]
    m = metric_from(om, fams[J_name], CONVENTION_THM)
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    for xv in grid:
        for yv in grid:
            point = dict.fromkeys(om.algebra.params, 0) | {x: xv, y: yv}
            try:
                full = exact_signature([[scalar_eval(c, point) for c in row]
                                        for row in m.matrix])
            except (DenominatorVanishes, DegenerateAtPoint):
                full = None
            try:
                upper = next(signatures(m, [point]))
            except DegenerateAtPoint:
                upper = None
            assert upper == full, point
