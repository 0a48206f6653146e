"""Coadjoint-orbit machinery: stabilizers, Kirillov-Kostant forms, and the
derivation-extension construction of lcs data."""

import os
from fractions import Fraction

import pytest

from lieform import document, linalg
from lieform.catalog import abelian, sl2r, su2
from lieform.constructions import (ConicalOrbit, ZeroForm,
                                   coadjoint_stabilizer, kirillov_kostant_form,
                                   lcs_from_orbit)
from lieform.exterior import KForm, ce_d, interior, twisted_d, wedge

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_kirillov_kostant_form_su2():
    g = su2()
    phi = KForm.basis_oneform(g, 0)          # dual of e1
    om = kirillov_kostant_form(phi)
    # [e2, e3] = -e1, so omega_Q = -e^2 ^ e^3
    assert om == -KForm.monomial(g, (1, 2))
    # omega_Q(X, Y) = phi([X, Y]) on random pairs
    x = g.vector([1, 2, 3])
    y = g.vector([0, -1, 5])
    assert om.evaluate(x, y) == phi.evaluate(g.bracket(x, y))


def test_stabilizer_su2():
    g = su2()
    orbit = coadjoint_stabilizer(KForm.basis_oneform(g, 0))
    assert len(orbit.k) == 1
    assert linalg.in_span(orbit.k, g.basis_vector(0))
    assert len(orbit.h) == 0
    assert orbit.non_conical


def test_stabilizer_conical_orbit():
    # the stabilizer of the dual of a nilpotent element meets ker(phi)
    g = sl2r()
    orbit = coadjoint_stabilizer(KForm.basis_oneform(g, 1))
    assert not orbit.non_conical
    with pytest.raises(ConicalOrbit):
        lcs_from_orbit(orbit)


def test_stabilizer_rejects_zero_form():
    with pytest.raises(ZeroForm):
        coadjoint_stabilizer(KForm.zero(su2(), 1))


def test_lcs_from_orbit_su2():
    g = su2()
    orbit = coadjoint_stabilizer(KForm.basis_oneform(g, 0))
    ext, lcs, phi = lcs_from_orbit(orbit)
    assert ext.basis_names == ["D", "e1", "e2", "e3"]
    # omega = -e^D ^ e^1 + e^2 ^ e^3 in the extended dual basis
    assert lcs.omega == KForm(ext, 2, {(0, 1): -ext.one(),
                                       (2, 3): ext.one()})
    assert lcs.lam == KForm.basis_oneform(ext, 0)
    assert ce_d(lcs.omega) == wedge(lcs.lam, lcs.omega)
    assert lcs.lam.evaluate(lcs.Z).is_zero()
    assert lcs.proper


def test_lcs_from_orbit_sl2r():
    g = sl2r()
    phi = KForm(g, 1, {(1,): g.one(), (2,): -g.one()})   # e^+ - e^-
    orbit = coadjoint_stabilizer(phi)
    assert len(orbit.k) == 1
    assert linalg.in_span(orbit.k, g.vector([0, 1, -1]))
    ext, lcs, _ = lcs_from_orbit(orbit)
    # omega = -e^D^(e^+ - e^-) - 2 h^*^(e^+ + e^-)
    want = KForm(ext, 2, {(0, 2): -ext.one(), (0, 3): ext.one(),
                          (1, 2): -ext._scalar(2), (1, 3): -ext._scalar(2)})
    assert lcs.omega == want
    assert lcs.lam == KForm.basis_oneform(ext, 0)


def test_lcs_from_orbit_with_inner_derivation():
    # a nonzero derivation changes the extension but the lcs identities hold
    g = su2()
    orbit = coadjoint_stabilizer(KForm.basis_oneform(g, 0))
    D = g.ad(g.basis_vector(0))
    ext, lcs, phi = lcs_from_orbit(orbit, D)
    assert bool(ext.check_jacobi())
    assert ce_d(lcs.omega) == wedge(lcs.lam, lcs.omega)
    phiZ = phi.evaluate(lcs.Z)
    contraction = KForm(ext, 1, {
        (j,): lcs.omega.evaluate(lcs.Z, ext.basis_vector(j))
        for j in range(ext.dim)})
    assert contraction == lcs.lam.scaled(phiZ)


def test_abelian_orbit_quotient_bookkeeping():
    # on an abelian algebra the stabilizer is everything and the kernel
    # subalgebra h soaks up ker(phi); omega = -e^D ^ e^0 has exactly the
    # rank required on the two-dimensional quotient
    g = abelian(3)
    orbit = coadjoint_stabilizer(KForm.basis_oneform(g, 0))
    assert orbit.non_conical
    assert len(orbit.k) == 3
    assert len(orbit.h) == 2
    ext, lcs, _ = lcs_from_orbit(orbit)
    assert lcs.omega == KForm(ext, 2, {(0, 1): -ext.one()})
    assert not lcs.proper


@pytest.mark.parametrize("name", ["u2.json", "gl2r.json"])
def test_orbit_subspaces_hold_bases(name):
    # a subspace is read as a basis list: its length is the rank only for
    # a basis
    doc = document.load(os.path.join(DATA, name))
    g = doc.build_algebra()
    orbit = coadjoint_stabilizer(doc.build_form("phi_general", g))
    for s in (orbit.k, orbit.h):
        assert len(s) == linalg.rank(s)[0]


def _phi_general(name):
    doc = document.load(os.path.join(DATA, name))
    return coadjoint_stabilizer(doc.build_form("phi_general",
                                               doc.build_algebra())), None


def _su2_e0(inner):
    g = su2()
    D = g.ad(g.basis_vector(0)) if inner else None
    return coadjoint_stabilizer(KForm.basis_oneform(g, 0)), D


def _sl2r_ep_minus_em():
    g = sl2r()
    phi = KForm(g, 1, {(1,): g.one(), (2,): -g.one()})
    return coadjoint_stabilizer(phi), None


def _abelian3_e0():
    return coadjoint_stabilizer(KForm.basis_oneform(abelian(3), 0)), None


# (orbit, derivation) makers: the parametric phi_general orbits have
# dim h = 1, the abelian one dim h = 2, the others h = 0
ORBITS = {
    "u2_phi_general": lambda: _phi_general("u2.json"),
    "gl2r_phi_general": lambda: _phi_general("gl2r.json"),
    "su2_e0": lambda: _su2_e0(False),
    "su2_e0_inner_derivation": lambda: _su2_e0(True),
    "sl2r_ep_minus_em": _sl2r_ep_minus_em,
    "abelian3_e0": _abelian3_e0,
}


@pytest.mark.parametrize("case", ORBITS)
def test_orbit_omega_is_twisted_closed_by_the_dual_of_D(case):
    # d_lam(omega) = d_lam(d_lam(phi)) = -d(lam) ^ phi, and lam = e^D is
    # closed on the extension, so no input can make this fail
    orbit, D = ORBITS[case]()
    ext, lcs, _ = lcs_from_orbit(orbit, D)
    assert twisted_d(lcs.omega, KForm.basis_oneform(ext, 0)).is_zero()


@pytest.mark.parametrize("case", ORBITS)
def test_orbit_reeb_vector_solves_omega_z_equals_half_lam(case):
    # lcs_check's Reeb system is consistent once its rank test passes
    orbit, D = ORBITS[case]()
    _, lcs, _ = lcs_from_orbit(orbit, D)
    assert interior(lcs.Z, lcs.omega) == lcs.lam.scaled(Fraction(1, 2))
