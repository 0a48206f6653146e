"""Coadjoint-orbit machinery: Kirillov-Kostant form, stabilizer, and the
orbit-plus-derivation construction of homogeneous lcs data."""

from __future__ import annotations

from . import linalg
from .exterior import KForm, ce_d, interior, twisted_d
from .lie_core import extend_by_derivation
from .structures import StructureError, gram_matrix, lcs_check


class ConstructionError(StructureError):
    pass


class NotAOneForm(ConstructionError):
    pass


class ZeroForm(ConstructionError):
    pass


class ConicalOrbit(ConstructionError):
    pass


class DegenerateOnQuotient(ConstructionError):
    pass


class OrbitData:
    """Stabilizer data of a 1-form phi_prime in the coadjoint representation.

    k and h are basis lists: k of the stabilizer {X : phi_prime o ad_X = 0},
    the kernel of the Kirillov-Kostant form, and h of k intersect
    ker(phi_prime).  non_conical says whether phi_prime is nonzero on k.
    """

    def __init__(self, phi_prime, k, h, non_conical):
        self.phi_prime = phi_prime
        self.k = k
        self.h = h
        self.non_conical = non_conical


def kirillov_kostant_form(phi):
    """omega_Q(X, Y) = phi([X, Y]) as a 2-form: -d(phi), since
    d(phi)(X, Y) = -phi([X, Y]).  phi must be a 1-form on g."""
    return -ce_d(phi)


def coadjoint_stabilizer(phi):
    """Stabilizer of phi under the coadjoint action, with orbit data.

    Uses omega_Q(X, .) = -phi o ad_X: the stabilizer is the kernel of the
    Kirillov-Kostant form.
    """
    if phi.degree != 1:
        raise NotAOneForm(f"phi has degree {phi.degree}, not 1")
    if phi.is_zero():
        raise ZeroForm("coadjoint stabilizer of the zero form")
    k, _ = linalg.nullspace(gram_matrix(kirillov_kostant_form(phi)))
    # h = k intersect ker(phi)
    h_rows = [[phi.evaluate(v) for v in k]]
    coeff_kernel, _ = linalg.nullspace(h_rows)
    kcols = linalg.transpose(k)
    h = [linalg.mat_vec(kcols, cv) for cv in coeff_kernel]
    non_conical = any(not c.is_zero() for c in h_rows[0])
    return OrbitData(phi, k, h, non_conical)


def lcs_from_orbit(orbit, D=None):
    """Homogeneous lcs data on the derivation extension of the orbit algebra.

    Builds g(D) with the dual 1-form lam of D and h the lifted orbit.h
    (not the h of g), extends phi by phi(D) = 0, and assembles omega =
    d_lam(phi) = d(phi) - lam ^ phi.  The lcs equation d_lam(omega) = 0
    holds by construction: d_lam o d_lam is -d(lam) ^ ., and lam is closed
    on g(D), whose brackets all lie in span(e_1..e_n).  Before returning,
    ``lcs_check`` is run on omega, and omega(Z, .) = phi(Z) lam and (when
    h = 0) the extracted Lee form are checked.
    """
    g = orbit.phi_prime.algebra
    if not orbit.non_conical:
        raise ConicalOrbit("phi vanishes on its stabilizer")
    if D is None:
        D = [[0] * g.dim for _ in range(g.dim)]
    ext = extend_by_derivation(g, D)
    lam = KForm.basis_oneform(ext, 0)
    ext.h_subalgebra = [[ext.zero()] + list(v) for v in orbit.h] or None
    phi = KForm(ext, 1, {(i + 1,): c
                         for (i,), c in orbit.phi_prime.coeffs.items()})
    omega = twisted_d(phi, lam)
    try:
        lcs = lcs_check(ext, omega)
    except StructureError as exc:
        raise DegenerateOnQuotient(
            f"constructed 2-form degenerate on the quotient: {exc}") from exc
    if interior(lcs.Z, omega) != lam.scaled(phi.evaluate(lcs.Z)):
        raise ConstructionError("omega(Z,.) = phi(Z) lam fails")
    if not ext.h_subalgebra and lcs.lam != lam:
        raise ConstructionError("extracted Lee form differs from dual of D")
    return ext, lcs, phi
