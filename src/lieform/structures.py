"""Geometric-structure checkers: complex structures, lcs/lcK data, metrics,
the Vaisman test (the verdict is the Killing form of the Lee vector; its
covariant derivative by the Koszul formula is formed only for a FAIL list)
and bi-invariant-form identities.

All verdicts are exact.  Parametric inputs get symbolic verdicts; when an
identity fails to hold identically the nonzero numerator polynomials are
reported as the vanishing locus on which it would hold.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg
from .exterior import (AmbientMismatch, KForm, ce_d, form_monomials,
                       form_to_vector, interior, matrix_of, solve_potential,
                       vector_to_form, wedge)
from .lie_core import center, centralizer, derived_subalgebra
from .scalars import DenominatorVanishes, Evaluator


class StructureError(Exception):
    pass


class NotAlmostComplex(StructureError):
    pass


class Degenerate(StructureError):
    def __init__(self, msg, locus=None):
        self.locus = list(locus or [])
        super().__init__(msg)


class NoLeeForm(StructureError):
    pass


class LeeFormNotClosed(StructureError):
    pass


class NotCompatible(StructureError):
    pass


class NotTransverse(StructureError):
    pass


class DegenerateMetric(Degenerate):
    pass


class DegenerateAtPoint(StructureError):
    pass


class NotAdInvariant(StructureError):
    pass


class DegenerateB(StructureError):
    pass


class IsotropicLeeVector(StructureError):
    pass


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
INFO = "INFO"


class StructureReport:
    """Ordered list of (check name, verdict, detail) with merge support."""

    def __init__(self, title=""):
        self.title = title
        self.entries = []

    def add(self, name, verdict, detail=""):
        self.entries.append((name, verdict, str(detail)))

    def check(self, name, condition, detail=""):
        self.add(name, PASS if condition else FAIL, detail)
        return bool(condition)

    def info(self, name, detail=""):
        self.add(name, INFO, detail)

    def skip(self, name, detail=""):
        self.add(name, SKIPPED, detail)

    def extend(self, other):
        for name, verdict, detail in other.entries:
            prefix = f"{other.title}: " if other.title else ""
            self.entries.append((prefix + name, verdict, detail))

    @property
    def ok(self):
        return all(v != FAIL for _, v, _ in self.entries)

    def counts(self):
        out = {PASS: 0, FAIL: 0, SKIPPED: 0, INFO: 0}
        for _, v, _ in self.entries:
            out[v] += 1
        return out

    def to_text(self):
        lines = []
        if self.title:
            lines.append(f"== {self.title} ==")
        for name, verdict, detail in self.entries:
            line = f"[{verdict}] {name}"
            if detail:
                line += f" :: {detail}"
            lines.append(line)
        c = self.counts()
        lines.append(
            f"-- {c[PASS]} passed, {c[FAIL]} failed, {c[SKIPPED]} skipped")
        return "\n".join(lines)

    def to_json(self):
        return {
            "title": self.title,
            "checks": [
                {"name": n, "verdict": v, "detail": d}
                for n, v, d in self.entries],
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Complex structures and the Nijenhuis tensor
# ---------------------------------------------------------------------------

class ComplexStructure:
    """An endomorphism J with J^2 = -Id over the scalar field."""

    def __init__(self, algebra, matrix):
        self.algebra = algebra
        self.matrix = [[algebra._scalar(c) for c in row] for row in matrix]
        square = linalg.mat_mul(self.matrix, self.matrix)
        for i, row in enumerate(square):
            for j, acc in enumerate(row):
                want = -algebra.one() if i == j else algebra.zero()
                if acc != want:
                    raise NotAlmostComplex(
                        f"J^2 != -Id at entry ({i},{j}): {acc}")

    def apply(self, v):
        return linalg.mat_vec(self.matrix, v)


def nijenhuis(J):
    """Nijenhuis tensor on basis pairs and the integrability verdict.

    Returns (table, integrable, vanishing) where vanishing lists the
    numerator polynomials that must vanish for integrability.
    """
    g = J.algebra
    table = {}
    for i in range(g.dim):
        x = g.basis_vector(i)
        jx = J.apply(x)
        for j in range(i + 1, g.dim):
            y = g.basis_vector(j)
            jy = J.apply(y)
            n = g.bracket(jx, jy)
            n = linalg.vec_sub(n, J.apply(g.bracket(jx, y)))
            n = linalg.vec_sub(n, J.apply(g.bracket(x, jy)))
            n = linalg.vec_sub(n, g.bracket(x, y))
            table[(i, j)] = n
    vanishing = linalg.vanishing(c for n in table.values() for c in n)
    return table, not vanishing, vanishing


# -- correspondence between J and its i-eigenspace --------------------------

def subalgebra_to_J(g, span):
    """Complex structure with Eig(J, i) = span, for real pairs (u, v) that
    stand for the vectors u + iv.

    J(u + iv) = i(u + iv) says Ju = -v and Jv = u, so J maps the real basis
    [u.., v..] to [-v.., u..].  Returns (ComplexStructure, is_subalgebra):
    the span is closed under the bracket iff J is integrable.
    """
    n = g.dim
    if 2 * len(span) != n:
        raise NotTransverse(
            f"{len(span)} pairs give {2 * len(span)} real vectors, need {n}")
    us = [[g._scalar(c) for c in u] for u, _ in span]
    vs = [[g._scalar(c) for c in v] for _, v in span]
    try:
        inv, _ = linalg.inverse(linalg.transpose(us + vs))
    except linalg.LinalgError as exc:
        raise NotTransverse(
            "span and its conjugate do not decompose g^C") from exc
    images = [[-c for c in v] for v in vs] + us
    J = ComplexStructure(g, linalg.mat_mul(linalg.transpose(images), inv))
    return J, nijenhuis(J)[1]


def J_to_subalgebra(J):
    """Basis of ker(J - i Id) as real pairs (u, v) standing for u + iv.

    Each x - iJx lies in the kernel; x runs over the basis vectors that are
    not in the span of the earlier x and Jx.
    """
    g = J.algebra
    seen = []
    span = []
    for k in range(g.dim):
        x = g.basis_vector(k)
        if linalg.in_span(seen, x):
            continue
        jx = J.apply(x)
        seen += [x, jx]
        span.append((x, [-c for c in jx]))
    return span


# ---------------------------------------------------------------------------
# lcs verification
# ---------------------------------------------------------------------------

class LcsData:
    def __init__(self, omega, lam, Z, proper, locus):
        self.algebra = omega.algebra
        self.omega = omega
        self.lam = lam
        self.Z = Z
        self.proper = proper
        self.locus = list(locus)


def gram_matrix(omega):
    """Matrix M[i][j] = omega(e_i, e_j)."""
    g = omega.algebra
    n = g.dim
    M = [[g.zero()] * n for _ in range(n)]
    for (i, j), c in omega.coeffs.items():
        M[i][j] = c
        M[j][i] = -c
    return M


def lcs_check(g, omega):
    """Verify the lcs equation and extract the Lee form and Reeb vector.

    Checks that omega lives on g/h (i_X omega = 0 = L_X omega for X in h)
    and is nondegenerate there, solves lam ^ omega = d(omega) for the Lee
    form, checks d(lam) = 0 separately (automatic only above dimension 4),
    and solves omega(Z, .) = lam/2 for the Reeb vector: lam(Z) = 0 as
    omega is skew.
    """
    if omega.degree != 2:
        raise StructureError(f"omega has degree {omega.degree}, not 2")
    n = g.dim
    dom = ce_d(omega)
    for X in g.h_subalgebra or []:
        # once i_X omega = 0, L_X omega = i_X d(omega) (Cartan)
        for name, form in (("i_X", omega), ("L_X", dom)):
            if not (rest := interior(X, form)).is_zero():
                raise StructureError(
                    f"omega does not live on g/h: {name} omega = {rest} "
                    f"for X = [{', '.join(str(c) for c in X)}]")
    # h may be given by a dependent spanning set
    h_dim, _ = linalg.rank(g.h_subalgebra or [])
    M = gram_matrix(omega)
    r, locus = linalg.rank(M)
    if r < n - h_dim:
        raise Degenerate(
            f"rank {r} on the quotient (need {n - h_dim})", locus)
    # solve lam ^ omega = d(omega), lam = sum x_i e^i
    rows = matrix_of([wedge(KForm.basis_oneform(g, i), omega)
                      for i in range(n)], form_monomials(g, 3))
    x, _, locus2 = linalg.solve(rows, form_to_vector(dom))
    if x is None:
        raise NoLeeForm("d(omega) is not of the form lam ^ omega")
    linalg.merge_locus(locus, locus2)
    lam = vector_to_form(g, 1, x)
    if not ce_d(lam).is_zero():
        raise LeeFormNotClosed(f"d(lam) = {ce_d(lam)} != 0")
    # omega(Z, e_j) = lam(e_j)/2
    half = Fraction(1, 2)
    rhs_z = [c * half for c in form_to_vector(lam)]
    z, _, locus3 = linalg.solve(linalg.transpose(M), rhs_z)
    if z is None:
        raise Degenerate("no Reeb vector: omega(Z,.) = lam/2 unsolvable",
                         locus)
    linalg.merge_locus(locus, locus3)
    return LcsData(omega, lam, z, proper=not dom.is_zero(), locus=locus)


# ---------------------------------------------------------------------------
# Compatibility, metrics, signatures
# ---------------------------------------------------------------------------

def compatibility_check(omega, J):
    """J-invariance of a 2-form: omega(X, JY) = omega(Y, JX).

    For J^2 = -Id this is omega(JX, JY) = omega(X, Y).  Returns True iff it
    holds identically, stopping at the first asymmetric basis pair.  Raises
    ``AmbientMismatch`` when J lives on another algebra than omega.
    """
    return next(_asymmetric_pairs(_omega_J(omega, J)), None) is None


def _omega_J(omega, J):
    """The matrix omega(e_i, J e_j); omega is J-invariant iff it is
    symmetric."""
    if J.algebra is not omega.algebra:
        raise AmbientMismatch("J lives on another algebra than omega")
    return linalg.mat_mul(gram_matrix(omega), J.matrix)


def _asymmetric_pairs(M):
    """The pairs (i, j), i < j, with M[i][j] != M[j][i], lazily and in
    row-major order; none iff M is symmetric."""
    n = len(M)
    return ((i, j) for i in range(n) for j in range(i + 1, n)
            if M[i][j] != M[j][i])


class Metric:
    """Symmetric Scalar matrix with its producing sign convention."""

    def __init__(self, algebra, matrix, convention_tag):
        self.algebra = algebra
        self.matrix = matrix
        self.convention_tag = convention_tag


CONVENTION_DEF = "def"   # g = omega(., J.)
CONVENTION_THM = "thm"   # g = -omega(., J.)


def metric_from(omega, J, convention=CONVENTION_THM):
    """Metric in either sign convention; the two differ by an overall sign."""
    g = omega.algebra
    mat = _omega_J(omega, J)
    if convention == CONVENTION_THM:
        mat = [[-c for c in row] for row in mat]
    elif convention != CONVENTION_DEF:
        raise StructureError(f"unknown metric convention {convention!r}")
    pair = next(_asymmetric_pairs(mat), None)
    if pair:
        i, j = pair
        raise NotCompatible(f"metric not symmetric at ({i},{j}); "
                            "omega is not J-invariant")
    return Metric(g, mat, convention)


def _signature_over_z(a):
    """Signature (p, q) of a symmetric int matrix, reduced in place over Z
    by symmetric pivoting (Sylvester's law of inertia): a pivot d counts
    by its sign and maps the rest S to |d| S - sgn(d) u u^T, u the rest of
    its column.  A zero diagonal with a nonzero a_ij takes the congruence
    e_i -> e_i + e_j, a hyperbolic (1,1) pair.
    """
    p = q = 0
    live = list(range(len(a)))
    while live:
        piv = None
        for i in live:
            if a[i][i] != 0:
                piv = i
                break
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                p += 1
            else:
                q += 1
            sgn = 1 if d > 0 else -1
            live.remove(piv)
            u = {i: a[i][piv] for i in live}
            for i in live:
                for j in live:
                    a[i][j] = sgn * (d * a[i][j] - u[i] * u[j])
            continue
        hyper = None
        for ii, i in enumerate(live):
            for j in live[ii + 1:]:
                if a[i][j] != 0:
                    hyper = (i, j)
                    break
            if hyper:
                break
        if hyper is None:
            raise DegenerateAtPoint("matrix is degenerate at the point")
        i, j = hyper
        for c in live:
            a[i][c] += a[j][c]
        for r in live:
            a[r][i] += a[r][j]
    return p, q


def signatures(gm, points):
    """Exact signature of the metric at each rational parameter point, as a
    generator; ``next(signatures(gm, [point]))`` signs one point.

    The upper triangle (``metric_from`` has checked symmetry) is compiled
    once (``scalars.Evaluator``).  At each point its entries are evaluated
    as int pairs, cleared by one lcm and pivoted by ``_signature_over_z``.
    Raises DegenerateAtPoint where a denominator vanishes or the metric is
    degenerate, and ParameterValueError for a missing or non-rational value.
    """
    n = len(gm.matrix)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    evaluate = Evaluator(gm.algebra.params,
                         [gm.matrix[i][j] for i, j in upper])
    for point in points:
        try:
            values = evaluate(point)
        except DenominatorVanishes as exc:
            raise DegenerateAtPoint(f"cannot evaluate metric: {exc}") from exc
        l = lcm(*(den for _, den in values))
        a = [[0] * n for _ in range(n)]
        for (i, j), (num, den) in zip(upper, values):
            a[i][j] = a[j][i] = num * (l // den)
        yield _signature_over_z(a)


# ---------------------------------------------------------------------------
# Full lcK assembly
# ---------------------------------------------------------------------------

class LckData:
    def __init__(self, lcs, J, metric, xi, gxi, theta, locus):
        self.lcs = lcs
        self.J = J
        self.metric = metric
        self.xi = xi
        self.gxi = gxi  # G xi = s lam by construction (see assemble_lck)
        self.theta = theta
        self.locus = list(locus)

    @property
    def algebra(self):
        return self.lcs.algebra

    @cached_property
    def phi(self):
        """The twisted potential, d_lam(phi) = omega with phi(xi) = 0.

        Solved on first read; raises ``NoSolution`` when the twisted class
        of omega is nonzero (for instance when omega is Kahler, lam = 0).
        """
        return solve_potential(self.lcs.omega, self.lcs.lam, gauge=self.xi)


def assemble_lck(g, omega, J, convention=CONVENTION_THM):
    """Assemble the full lcK data set.

    The Lee vector is xi = -J Z, with Z the Reeb vector of ``lcs_check``
    (Z = J xi, as J^2 = -Id).  The metric is G = +-Omega J, Omega the Gram
    matrix of omega, so G xi = +-Omega Z = s lam exactly, as Omega^T Z =
    lam/2 and Omega^T = -Omega; s lam is kept as ``gxi``, with s = -1/2 in
    the defining convention g = omega(., J.) and +1/2 in the other.
    The returned Metric carries the requested convention tag.
    The locus is that of ``lcs_check`` plus the non-constant denominators
    of J.
    """
    lcs = lcs_check(g, omega)
    metric = metric_from(omega, J, convention)
    lam = form_to_vector(lcs.lam)
    half = Fraction(1, 2)
    s = -half if convention == CONVENTION_DEF else half
    gxi = [c * s for c in lam]
    xi = [-c for c in J.apply(lcs.Z)]
    locus = linalg.merge_locus(list(lcs.locus), [
        c.den for row in J.matrix for c in row if not c.den.is_constant()])
    # theta(e_i) = lam(J e_i) / 2, so theta = J^T lam / 2
    theta = vector_to_form(g, 1, [
        c * half for c in linalg.mat_vec(linalg.transpose(J.matrix), lam)])
    return LckData(lcs, J, metric, xi, gxi, theta, locus)


# ---------------------------------------------------------------------------
# The Vaisman test
# ---------------------------------------------------------------------------

def vaisman_check(lck):
    """Parallel-Lee-field test, decided by the Killing form of xi.

    With M = G ad_xi and G xi = s lam, the Koszul formula for a
    left-invariant metric reads 2 g(nabla_{e_i} xi, e_k) = -M[k][i] -
    M[i][k] - s d(lam)(e_k, e_i), and d(lam) = 0 (``lcs_check``).  As G is
    invertible, nabla xi = 0 exactly when every covector -(M + M^T)[i]/2 is
    zero, that is when xi is a Killing field.
    Returns (is_vaisman, vanishing, locus).  A PASS is (True, [], []): its
    only denominators are those of xi and G, so it holds wherever the lcK
    data are defined.  A FAIL inverts G once to form nabla_{e_i} xi;
    vanishing lists the numerators of its nonzero entries, whose common
    zero locus is where the structure is Vaisman, and locus the pivots of
    the inverse metric, off which that list is generic.  G = +-Omega J is
    singular exactly when h != 0 (i_X omega = 0 on h), which raises
    DegenerateMetric.
    """
    g = lck.algebra
    if linalg.rank(g.h_subalgebra or [])[0]:
        raise DegenerateMetric("metric is singular")
    G = lck.metric.matrix
    n = len(G)
    M = linalg.mat_mul(G, g.ad(lck.xi))
    half = Fraction(1, 2)
    cov = [[(-M[k][i] - M[i][k]) * half for k in range(n)]
           for i in range(n)]
    if all(c.is_zero() for row in cov for c in row):
        return True, [], []
    ginv, locus = linalg.inverse(G)
    vanishing = linalg.vanishing(c for row in cov
                                 for c in linalg.mat_vec(ginv, row))
    return False, vanishing, locus


# ---------------------------------------------------------------------------
# Bi-invariant form identities
# ---------------------------------------------------------------------------

def biinvariant_identities(B, lck):
    """Identities relating d(phi) to ad_v for phi = B(v, .).

    B must be symmetric, nondegenerate and ad-invariant.  Returns a
    StructureReport plus computed data (v, ranks, centralizer dims).
    """
    g = lck.algebra
    n = g.dim
    B = [[g._scalar(c) for c in row] for row in B]
    pair = next(_asymmetric_pairs(B), None)
    if pair:
        i, j = pair
        raise NotAdInvariant(f"B not symmetric at ({i},{j})")

    for i in range(n):
        # B([e_i, e_j], e_k) + B(e_j, [e_i, e_k]) is M[k][j] + M[j][k],
        # symmetric in j and k, so k >= j meets the first failure
        M = linalg.mat_mul(B, g.ad(g.basis_vector(i)))
        for j in range(n):
            for k in range(j, n):
                if not (M[j][k] + M[k][j]).is_zero():
                    raise NotAdInvariant(
                        f"ad-invariance fails on triple ({i},{j},{k})")
    try:
        binv, _ = linalg.inverse(B)
    except linalg.LinalgError as exc:
        raise DegenerateB("B is degenerate") from exc

    report = StructureReport("bi-invariant identities")
    phi = lck.phi
    lam = lck.lcs.lam
    v = linalg.mat_vec(binv, form_to_vector(phi))
    w = linalg.mat_vec(binv, form_to_vector(lam))
    if lam.evaluate(w).is_zero():  # B(w, w) = lam(w), since B w = lam
        raise IsotropicLeeVector("B^{-1} lam is isotropic")

    adv = g.ad(v)
    M = linalg.mat_mul(B, adv)  # M[j][i] = B(e_j, [v, e_i])
    dphi = ce_d(phi)
    ok = all(dphi.coefficient((i, j)) == -M[j][i]
             for i in range(n) for j in range(i + 1, n))
    report.check("d(phi) = B o (-ad_v)", ok)

    report.check("A_g xi central (B^{-1} lam in the center)",
                 center(g).contains(w))
    rk, _ = linalg.rank(adv)
    report.check(f"rank(ad_v) = {rk} >= dim - 2", rk >= n - 2)
    zv = centralizer(g, v)
    dim_zv = zv.dim
    report.info("dim Z_g(v)", dim_zv)
    inter = _intersection_dim(zv.span, derived_subalgebra(g).span)
    report.check(f"dim Z_s(v) = {inter} == 1", inter == 1)
    return report, {"v": v, "rank_ad_v": rk, "dim_Zg_v": dim_zv,
                    "dim_Zs_v": inter}


def _intersection_dim(basis_a, basis_b):
    """Dimension of the intersection of two spans, given by bases (such as
    a nullspace basis or rref pivot rows), whose lengths are their ranks."""
    if not basis_a or not basis_b:
        return 0
    rab, _ = linalg.rank(basis_a + basis_b)
    return len(basis_a) + len(basis_b) - rab
