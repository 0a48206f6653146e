"""Built-in algebras and structure families, plus the verification suites.

The catalog hard-codes the four-dimensional reductive algebras u(2) and
gl(2,R) together with their parametric complex-structure and lcs families,
and exposes three suites that re-derive the classification statements for
these algebras by exact computation:

* ``u2_classification``   -- the compact case,
* ``gl2_classification``  -- the non-compact case,
* ``reductive_identities`` -- the structural identities behind both.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .exterior import (KForm, ce_d, interior, lie_derivative, solve_potential,
                       twisted_cohomology_dim, twisted_d, wedge)
from .lie_core import MAX_DIM, LieAlgebra, center
from .structures import (CONVENTION_DEF, CONVENTION_THM, ComplexStructure,
                         StructureReport, assemble_lck, compatibility_check,
                         nijenhuis, signatures, vaisman_check,
                         biinvariant_identities)


class CatalogError(Exception):
    pass


class UnknownId(CatalogError):
    pass


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------

def u2(params=()):
    """u(2) = R e0 + su(2) with [e_a, e_b] = -e_c cyclically on (1,2,3)."""
    return LieAlgebra(
        ["e0", "e1", "e2", "e3"],
        {(1, 2): {3: -1}, (2, 3): {1: -1}, (3, 1): {2: -1}},
        params=params, name="u2")


def su2(params=()):
    return LieAlgebra(
        ["e1", "e2", "e3"],
        {(0, 1): {2: -1}, (1, 2): {0: -1}, (2, 0): {1: -1}},
        params=params, name="su2")


def gl2r(params=()):
    """gl(2,R) = R e0 + sl(2,R) with [h,e+-] = +-2e+-, [e+,e-] = h."""
    return LieAlgebra(
        ["e0", "h", "ep", "em"],
        {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}},
        params=params, name="gl2r")


def sl2r(params=()):
    return LieAlgebra(
        ["h", "ep", "em"],
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
        params=params, name="sl2r")


def abelian(n, params=()):
    return LieAlgebra([f"e{i}" for i in range(n)], {}, params=params,
                      name=f"abelian_{n}")


# ---------------------------------------------------------------------------
# Forms helpers
# ---------------------------------------------------------------------------

def oneform(g, coeffs):
    """1-form from a map basis-index -> scalar/parameter-name/rational."""
    return KForm(g, 1, {(i,): g._scalar(c) for i, c in coeffs.items()})


def _minus_e0(g):
    """-e^0, the Lee form of every catalog lcs family."""
    return KForm(g, 1, {(0,): -g.one()})


def lcs_form(g, phi):
    """omega = d_lam(phi) = e^0 ^ phi + d(phi), lam = -e^0, phi off e^0."""
    return twisted_d(phi, _minus_e0(g))


# ---------------------------------------------------------------------------
# Complex structures
# ---------------------------------------------------------------------------

def J_ab(g, a="a", b="b"):
    """Calabi-Eckmann family on u(2): J e0 = a e0 + b e1, J e1 = c e0 - a e1,
    J e2 = -e3, J e3 = e2, with c = -(1+a^2)/b.

    a and b are parameter names or rationals; (a, b) = (0, 1) is the
    exceptional member J_01.
    """
    a, b = g._scalar(a), g._scalar(b)
    c = -(1 + a * a) / b
    z, o = g.zero(), g.one()
    return ComplexStructure(g, linalg.transpose([
        [a, b, z, z], [c, -a, z, z], [z, z, z, -o], [z, z, o, z]]))


def J_mu(g, mu1="mu1", mu2="mu2"):
    """Two-parameter family on gl(2,R), in the basis (e0, h, e+, e-).

    mu1 and mu2 are parameter names or rationals; mu = (1, 0) is the
    exceptional member J_mu1.
    """
    m1, m2 = g._scalar(mu1), g._scalar(mu2)
    z, o = g.zero(), g.one()
    half = g._scalar(Fraction(1, 2))
    n2 = m1 * m1 + m2 * m2
    return ComplexStructure(g, linalg.transpose([
        [m2 / m1, z, -n2 / (2 * m1), n2 / (2 * m1)],
        [z, z, o, o],
        [o / m1, -half, -m2 / (2 * m1), m2 / (2 * m1)],
        [-o / m1, -half, m2 / (2 * m1), -m2 / (2 * m1)]]))


# ---------------------------------------------------------------------------
# Bi-invariant scalar products
# ---------------------------------------------------------------------------

def biinvariant_B(g):
    """An ad-invariant nondegenerate symmetric form for a catalog algebra."""
    z, o = g.zero(), g.one()
    two = g._scalar(2)
    if g.name == "u2":
        return [[o if i == j else z for j in range(4)] for i in range(4)]
    if g.name == "gl2r":
        return [[o, z, z, z], [z, two, z, z], [z, z, z, o], [z, z, o, z]]
    raise CatalogError(f"no stored bi-invariant form for {g.name!r}")


# ---------------------------------------------------------------------------
# Catalog entries
# ---------------------------------------------------------------------------

class CatalogEntry:
    """Immutable bundle: algebra, named families, exclusion polynomials."""

    def __init__(self, id_, algebra, families, bilinears, excluded_locus):
        self.id = id_
        self.algebra = algebra
        self.families = families
        self.bilinears = bilinears
        self.excluded_locus = excluded_locus


ABELIAN_IDS = {f"abelian_{n}": n for n in range(1, MAX_DIM + 1)}


def get(id_):
    """Fresh catalog entry for one of u2, gl2r, su2, sl2r, abelian_<n>."""
    if id_ == "u2":
        g = u2(("a", "b", "a1", "a2", "a3"))
        a1, a2, a3 = (g._scalar(n) for n in ("a1", "a2", "a3"))
        phi = oneform(g, {1: "a1", 2: "a2", 3: "a3"})
        families = {
            "J_ab": J_ab(g),
            "J_01": J_ab(g, 0, 1),
            "phi_general": phi,
            "omega_general": lcs_form(g, phi),
            "omega_std": lcs_form(g, oneform(g, {1: 1})),
            "lambda_std": oneform(g, {0: -1}),
        }
        excl = [g._scalar("b").num, (a1 * a1 + a2 * a2 + a3 * a3).num]
        entry = CatalogEntry("u2", g, families,
                             {"B": biinvariant_B(g)}, excl)
    elif id_ == "gl2r":
        g = gl2r(("mu1", "mu2", "ah", "ap", "am"))
        ah, ap, am = (g._scalar(n) for n in ("ah", "ap", "am"))
        phi = oneform(g, {1: "ah", 2: "ap", 3: "am"})
        families = {
            "J_mu": J_mu(g),
            "J_mu1": J_mu(g, 1, 0),
            "phi_general": phi,
            "omega_general": lcs_form(g, phi),
            "omega_std": lcs_form(g, oneform(g, {2: 1, 3: -1})),
            "lambda_std": oneform(g, {0: -1}),
        }
        excl = [g._scalar("mu1").num, (ah * ah + 4 * ap * am).num]
        entry = CatalogEntry("gl2r", g, families,
                             {"B": biinvariant_B(g)}, excl)
    elif id_ == "su2":
        entry = CatalogEntry("su2", su2(), {}, {}, [])
    elif id_ == "sl2r":
        entry = CatalogEntry("sl2r", sl2r(), {}, {}, [])
    elif id_ in ABELIAN_IDS:
        entry = CatalogEntry(id_, abelian(ABELIAN_IDS[id_]), {}, {}, [])
    else:
        raise UnknownId(f"unknown catalog id {id_!r}; known: u2, gl2r, su2, "
                        f"sl2r, abelian_<n> for 1 <= n <= {MAX_DIM}")
    if not entry.algebra.check_jacobi():
        raise CatalogError(f"catalog algebra {id_!r} fails the Jacobi check")
    return entry


# ---------------------------------------------------------------------------
# Sample grids
# ---------------------------------------------------------------------------

def lattice(dims, step=Fraction(1, 2)):
    """All rational lattice points of the closed box [-3, 3]^dims, with an
    int for each integral coordinate."""
    axis = []
    v = Fraction(-3)
    while v <= 3:
        axis.append(v.numerator if v.denominator == 1 else v)
        v += step
    pts = [()]
    for _ in range(dims):
        pts = [p + (x,) for p in pts for x in axis]
    return pts


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

SUITES = ("u2_classification", "gl2_classification", "reductive_identities")


def run_suite(name):
    if name == "u2_classification":
        return _suite_u2()
    if name == "gl2_classification":
        return _suite_gl2()
    if name == "reductive_identities":
        return _suite_reductive()
    raise UnknownId(f"unknown suite {name!r}")


def _check_family(rep, g0, label, J, family):
    """Jacobi on the bare algebra and integrability of a J family."""
    rep.check(f"{label}: antisymmetry and Jacobi hold",
              bool(g0.check_jacobi()))
    g = J.algebra
    rep.check(f"{family}: J^2 = -Id and Nijenhuis tensor vanishes over "
              f"Q({','.join(g.params)})", nijenhuis(J)[1])


def _check_general_lcs(rep, lcs):
    """Lee form and properness of the general lcs family omega, read off
    the LcsData of the suite's assemble_lck on omega."""
    rep.check("general omega: Lee form is -e^0",
              lcs.lam == _minus_e0(lcs.algebra))
    rep.check("general omega: d(omega) != 0 (proper lcs)", lcs.proper)


def _metric_is(metric, upper):
    """Whether the metric has upper triangle {(i, j): scalar}, i <= j, and
    zeros elsewhere; ``metric_from`` has checked that it is symmetric."""
    g = metric.algebra
    return all(metric.matrix[i][j] == upper.get((i, j), g.zero())
               for i in range(g.dim) for j in range(i, g.dim))


def _check_census(rep, name, metric, points, agrees, minimum=50):
    """Check agrees(point, signature) at every sample point.

    The metric is compiled once and evaluated at the points over Z
    (``structures.signatures``).  ``name`` is formatted with the sample
    count n, of which there must be at least ``minimum``.
    """
    params = metric.algebra.params
    sigs = signatures(metric, [dict(zip(params, pt)) for pt in points])
    good = sum(1 for pt, sig in zip(points, sigs) if agrees(pt, sig))
    rep.check(name.format(n=len(points)),
              good == len(points) and len(points) >= minimum)


def _vaisman_misses(J, convention, samples):
    """The samples (a1, a2, a3) whose Vaisman verdict is not the expected
    one, for omega = e^0 ^ phi + d(phi), phi = a1 e^1 + a2 e^2 + a3 e^3, and
    J on its parameter-free algebra; each sample is assembled anew, as
    a cross-check independent of the symbolic verdict."""
    g = J.algebra
    misses = []
    for pt, want in samples:
        om = lcs_form(g, oneform(g, dict(zip((1, 2, 3), pt))))
        if vaisman_check(assemble_lck(g, om, J, convention))[0] != want:
            misses.append(pt)
    return misses


def _check_twisted(rep, g0, om):
    """H^1 twisted by -e^0 on the bare algebra and [omega] = 0."""
    h1, _ = twisted_cohomology_dim(g0, _minus_e0(g0), 1)
    rep.check("H^1 twisted by -e^0 vanishes", h1 == 0)
    lam = _minus_e0(om.algebra)
    rep.check("[omega] = 0: the twisted potential exists for general omega",
              twisted_d(solve_potential(om, lam), lam) == om)


def _suite_u2():
    rep = StructureReport("u2_classification")

    g0 = u2()
    gab = u2(("a", "b"))
    Jab = J_ab(gab)
    _check_family(rep, g0, "u(2)", Jab, "J_{a,b}")

    # the general lcs family omega = e^0 ^ phi + d(phi), phi = sum a_i e^i
    ga = u2(("a1", "a2", "a3"))
    om = lcs_form(ga, oneform(ga, {1: "a1", 2: "a2", 3: "a3"}))
    J0 = J_ab(ga, 0, 1)
    lck2 = assemble_lck(ga, om, J0, CONVENTION_THM)  # case (ii) below
    _check_general_lcs(rep, lck2.lcs)

    # compatibility criterion: J-invariance holds iff a2 = a3 = 0 or the
    # complex structure is the exceptional member (a, b) = (0, 1)
    gf = u2(("a", "b", "a1", "a2", "a3"))
    omf = lcs_form(gf, oneform(gf, {1: "a1", 2: "a2", 3: "a3"}))
    Jfull = J_ab(gf)
    ok_generic = compatibility_check(omf, Jfull)
    rep.check("general (omega, J_{a,b}): not J-invariant identically",
              not ok_generic)
    ok_i = compatibility_check(lcs_form(gf, oneform(gf, {1: "a1"})), Jfull)
    rep.check("J-invariance holds identically once a2 = a3 = 0", ok_i)
    # assemble_lck(ga, om, J0) above raises NotCompatible otherwise
    rep.add("the (0,1) member is J-invariant for every omega", "PASS")
    # a sample away from both branches stays incompatible
    ok_pt = compatibility_check(
        lcs_form(g0, oneform(g0, {1: 1, 2: 1})), J_ab(g0, 1, 2))
    rep.check("sample (a,b)=(1,2), a2=1: not J-invariant", not ok_pt)

    # case (i): the standard structure omega = e^{01} + e^{23}
    om_std = lcs_form(gab, oneform(gab, {1: 1}))
    lck = assemble_lck(gab, om_std, Jab, CONVENTION_THM)
    a, b = gab._scalar("a"), gab._scalar("b")
    c = -(1 + a * a) / b
    half = gab._scalar(Fraction(1, 2))
    z, o = gab.zero(), gab.one()
    rep.check("case (i): Lee form -e^0", lck.lcs.lam == _minus_e0(gab))
    rep.check("case (i): Reeb vector e1/2", lck.lcs.Z == [z, half, z, z])
    rep.check("case (i): Lee vector (a e1 - c e0)/2",
              lck.xi == [-c * half, a * half, z, z])
    ok_v, _, _ = vaisman_check(lck)
    rep.check("case (i): Vaisman identically over Q(a,b)", ok_v)
    rep.check("case (i): metric -b(e^0)^2+2a e^0e^1+c(e^1)^2+(e^2)^2+(e^3)^2",
              _metric_is(lck.metric, {(0, 0): -b, (0, 1): a, (1, 1): c,
                                      (2, 2): o, (3, 3): o}))
    _check_census(rep, "case (i): metric definite iff b < 0 on {n} samples",
                  lck.metric, [p for p in lattice(2) if p[1] != 0],
                  lambda p, sig: (0 in sig) == (p[1] < 0))

    # case (ii): the exceptional member with a general omega
    a1, a2, a3 = (ga._scalar(n) for n in ("a1", "a2", "a3"))
    rep.check("case (ii): metric matrix matches the displayed expansion",
              _metric_is(lck2.metric, {
                  (0, 0): -a1, (1, 1): -a1, (2, 2): a1, (3, 3): a1,
                  (0, 2): a3, (0, 3): -a2, (1, 2): -a2, (1, 3): -a3}))
    _check_census(rep, "case (ii): signature (2,2) at all {n} nonzero samples",
                  lck2.metric,
                  [p for p in lattice(3, step=Fraction(1)) if any(p)],
                  lambda p, sig: sig == (2, 2))

    # case (ii) Vaisman criterion via the Lee-vector ansatz: the Lee vector
    # must lie in span{e0, vec a}; applying omega o J to that span forces
    # the vec-a component to vanish and then a2 = a3 = 0.
    veca = [ga.zero(), a1, a2, a3]
    beta0 = interior(J0.apply(ga.basis_vector(0)), om)
    betaA = interior(J0.apply(veca), om)
    norm = a1 * a1 + a2 * a2 + a3 * a3
    rep.check("ansatz: (omega o J)(vec a) = -|a|^2 e^1 (vec-a component dies)",
              betaA == oneform(ga, {1: -norm}))
    rep.check("ansatz: (omega o J)(e0) = -a1 e^0 - a2 e^3 + a3 e^2",
              beta0 == oneform(ga, {0: -a1, 2: a3, 3: -a2}))
    rep.info("ansatz: proportionality to e^0 forces a2 = a3 = 0",
             "vanishing locus {a2, a3}")

    # Vaisman verdicts: the standard structure is Vaisman, perturbed ones not
    g1 = u2(("a1",))
    lck_std = assemble_lck(g1, lcs_form(g1, oneform(g1, {1: "a1"})),
                           J_ab(g1, 0, 1), CONVENTION_THM)
    ok_vs, _, _ = vaisman_check(lck_std)
    rep.check("case (ii): omega = a1(e^{01}+e^{23}) is Vaisman over Q(a1)",
              ok_vs)
    bad = _vaisman_misses(
        J_ab(g0, 0, 1), CONVENTION_THM,
        [(pt, False) for pt in
         [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3), (2, 0, -1)]])
    rep.check("case (ii): samples with (a2,a3) != 0 are never Vaisman",
              not bad, detail=bad or "")

    # twisted cohomology: H^1 vanishes and [omega] = 0 for lambda = -e^0
    _check_twisted(rep, g0, om)
    return rep


def _suite_gl2():
    rep = StructureReport("gl2_classification")

    g0 = gl2r()
    gmu = gl2r(("mu1", "mu2"))
    Jm = J_mu(gmu)
    _check_family(rep, g0, "gl(2,R)", Jm, "J_mu")

    # the general lcs family
    ga = gl2r(("ah", "ap", "am"))
    om = lcs_form(ga, oneform(ga, {1: "ah", 2: "ap", 3: "am"}))
    ah, ap, am = (ga._scalar(n) for n in ("ah", "ap", "am"))
    rep.check("omega^2 = -2(ah^2 + 4 ap am) e^0^h^*^e^+^e^-",
              wedge(om, om) == KForm(ga, 4, {
                  (0, 1, 2, 3): -2 * (ah * ah + 4 * ap * am)}))
    J1 = J_mu(ga, 1, 0)
    lck = assemble_lck(ga, om, J1, CONVENTION_DEF)  # case (ii) below
    _check_general_lcs(rep, lck.lcs)

    # case (i): mu != 1, the unique compatible structure
    om_std = lcs_form(gmu, oneform(gmu, {2: 1, 3: -1}))
    lck_i = assemble_lck(gmu, om_std, Jm, CONVENTION_DEF)
    ok_vi, _, _ = vaisman_check(lck_i)
    rep.check("case (i): omega = e^0^(e^+-e^-) - 2h^*^(e^++e^-) is Vaisman "
              "over Q(mu1,mu2)", ok_vi)
    _check_census(rep, "case (i): metric definite iff mu1 > 0 on {n} samples",
                  lck_i.metric, [p for p in lattice(2) if p[0] != 0],
                  lambda p, sig: (0 in sig) == (p[0] > 0))
    # uniqueness: generic omega is not J_mu-invariant, the ah = 0, am = -ap
    # branch is
    gu = gl2r(("mu1", "mu2", "ah", "ap", "am"))
    ok_gen = compatibility_check(
        lcs_form(gu, oneform(gu, {1: "ah", 2: "ap", 3: "am"})), J_mu(gu))
    rep.check("general (omega, J_mu): not J-invariant identically", not ok_gen)
    gq = gl2r(("mu1", "mu2", "ap"))
    apq = gq._scalar("ap")
    ok_br = compatibility_check(
        lcs_form(gq, oneform(gq, {2: apq, 3: -apq})), J_mu(gq))
    rep.check("J-invariance holds identically once ah = 0, am = -ap", ok_br)

    # case (ii): mu = 1 is compatible with every omega
    # assemble_lck(ga, om, J1) above raises NotCompatible otherwise
    rep.add("the mu = 1 member is J-invariant for every omega", "PASS")
    half = ga._scalar(Fraction(1, 2))
    rep.check("case (ii): metric matches the displayed coefficient matrix",
              _metric_is(lck.metric, {
                  (0, 0): -half * (ap - am), (1, 1): -2 * (ap - am),
                  (0, 1): ap + am, (2, 2): -2 * ap, (3, 3): 2 * am,
                  (0, 2): -half * ah, (0, 3): -half * ah,
                  (1, 2): -ah, (1, 3): ah}))

    # Vaisman criterion: ah = 0 and ap = -am != 0
    gv = gl2r(("ap",))
    apv = gv._scalar("ap")
    om_v = lcs_form(gv, oneform(gv, {2: apv, 3: -apv}))
    lck_v = assemble_lck(gv, om_v, J_mu(gv, 1, 0), CONVENTION_DEF)
    ok_v, _, _ = vaisman_check(lck_v)
    rep.check("Vaisman identically on the branch ah = 0, am = -ap over Q(ap)",
              ok_v)
    rep.check("on that branch the metric is -ap diag(1, 4, 2, 2) (definite)",
              _metric_is(lck_v.metric, {(0, 0): -apv, (1, 1): -4 * apv,
                                        (2, 2): -2 * apv, (3, 3): -2 * apv}))
    misses = _vaisman_misses(
        J_mu(g0, 1, 0), CONVENTION_DEF,
        [((0, 1, -1), True), ((0, 2, -2), True), ((0, -1, 2), False),
         ((1, 1, -1), False), ((1, 2, 3), False), ((2, 1, 1), False)])
    rep.check("Vaisman samples agree with the criterion ah = 0, ap = -am != 0",
              not misses)

    # definiteness region: -ah^2 > 4 ap am and am > 0 > ap
    _check_census(
        rep, "positive definite exactly on the stated region ({n} samples)",
        lck.metric, [p for p in lattice(3, step=Fraction(1))
                     if p[0] * p[0] + 4 * p[1] * p[2] != 0],
        lambda p, sig: (sig == (4, 0)) == (
            -p[0] * p[0] > 4 * p[1] * p[2] and p[2] > 0 > p[1]),
        minimum=100)

    # twisted cohomology
    _check_twisted(rep, g0, om)
    return rep


def _vaisman_instances():
    """The catalog Vaisman representatives used by the identity suite."""
    gab = u2(("a", "b"))
    yield ("u2, omega = e^{01}+e^{23}, J_{a,b}", gab,
           lcs_form(gab, oneform(gab, {1: 1})), J_ab(gab))
    gg = gl2r()
    yield ("gl2r, omega = e^0^(e^+-e^-) - 2h^*^(e^++e^-), mu = 1", gg,
           lcs_form(gg, oneform(gg, {2: 1, 3: -1})), J_mu(gg, 1, 0))


def _suite_reductive():
    rep = StructureReport("reductive_identities")

    for label, g, om, J in _vaisman_instances():
        lck = assemble_lck(g, om, J, CONVENTION_DEF)
        lam, Z, xi = lck.lcs.lam, lck.lcs.Z, lck.xi
        phi, theta = lck.phi, lck.theta
        dphi = ce_d(phi)
        rep.check(f"{label}: Z in ker d(phi)", interior(Z, dphi).is_zero())
        rep.check(f"{label}: xi in ker d(phi)", interior(xi, dphi).is_zero())
        lam_xi = lam.evaluate(xi)
        factor = -lam_xi.inverse()
        rep.check(f"{label}: phi = (-1/lam(xi)) theta",
                  phi == theta.scaled(factor))
        rep.info(f"{label}: proportionality factor phi/theta",
                 str(factor))
        rep.check(f"{label}: omega(Z,.) = phi(Z) lam",
                  interior(Z, om) == lam.scaled(phi.evaluate(Z)))
        lhs = lie_derivative(xi, om)
        rhs = om.scaled(lam_xi) - wedge(lam, theta) + ce_d(theta)
        rep.check(f"{label}: L_xi omega = lam(xi) omega - lam^theta + d(theta)",
                  lhs == rhs)
        sub, data = biinvariant_identities(biinvariant_B(g), lck)
        sub.title = label
        rep.extend(sub)
        rep.check(f"{label}: dim Z_g(v) <= 2", data["dim_Zg_v"] <= 2)

    for gz in (u2(), gl2r(), su2(), sl2r()):
        rep.check(f"{gz.name}: dim of the center <= 2", center(gz).dim <= 2)
    for gz in (su2(), sl2r()):
        rep.check(f"{gz.name} (the derived part): dim of the center <= 1",
                  center(gz).dim <= 1)
    for gz in (u2(), gl2r()):
        h1, _ = twisted_cohomology_dim(gz, _minus_e0(gz), 1)
        rep.check(f"{gz.name}: H^1 twisted by -e^0 vanishes", h1 == 0)
    return rep
