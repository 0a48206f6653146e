"""Coadjoint-orbit machinery: stabilizers, Kirillov-Kostant forms, and the
derivation-extension construction of lcs data."""

import os

import pytest

from lieform import document, linalg
from lieform.catalog import abelian, sl2r, su2
from lieform.constructions import (ConicalOrbit, ZeroForm,
                                   coadjoint_stabilizer, kirillov_kostant_form,
                                   lcs_from_orbit)
from lieform.exterior import KForm, ce_d, wedge

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
    assert orbit.k.dim == 1
    assert orbit.k.contains(g.basis_vector(0))
    assert orbit.h.dim == 0
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
    assert orbit.k.dim == 1
    assert orbit.k.contains(g.vector([0, 1, -1]))
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
    assert orbit.k.dim == 3
    assert orbit.h.dim == 2
    ext, lcs, _ = lcs_from_orbit(orbit)
    assert lcs.omega == KForm(ext, 2, {(0, 1): -ext.one()})
    assert not lcs.proper


@pytest.mark.parametrize("name", ["u2.json", "gl2r.json"])
def test_orbit_subspaces_hold_bases(name):
    # Subspace.dim is len(span); that is the rank only for a basis
    doc = document.load(os.path.join(DATA, name))
    g = doc.build_algebra()
    orbit = coadjoint_stabilizer(doc.build_form("phi_general", g))
    for s in (orbit.k, orbit.h):
        assert len(s.span) == linalg.rank(s.span)[0]
