"""Build lcs structures from coadjoint orbits of the semisimple factors.

Starting from a 1-form phi on a semisimple algebra, the stabilizer of phi
under the coadjoint action determines an orbit; extending by a derivation D
(here D = 0) yields a one-dimension-higher algebra carrying the exact lcs
form omega = -lam ^ phi + d(phi), where lam is the dual of D.

Run:  python3 demos/03_orbit_construction.py
"""

from lieform.catalog import sl2r, su2
from lieform.constructions import coadjoint_stabilizer, lcs_from_orbit
from lieform.document import emit_form
from lieform.exterior import KForm

for g, phi_coeffs, label in [
        (su2(), {(0,): 1}, "su(2), phi = e^1"),
        (sl2r(), {(1,): 1, (2,): -1}, "sl(2,R), phi = e^+ - e^-")]:
    phi = KForm(g, 1, {k: g._scalar(c) for k, c in phi_coeffs.items()})
    print(f"== {label} ==")
    orbit = coadjoint_stabilizer(phi)
    print("dim of the coadjoint stabilizer k:", len(orbit.k))
    print("dim of the kernel subalgebra h:   ", len(orbit.h))
    print("orbit is non-conical:             ", orbit.non_conical)
    ext, lcs, phi_ext = lcs_from_orbit(orbit)
    print("extended basis:", " ".join(ext.basis_names))
    print("omega    =", emit_form(lcs.omega))
    print("Lee form =", emit_form(lcs.lam))
    print("Reeb Z   = [", ", ".join(str(c) for c in lcs.Z), "]")
    print("proper (d omega != 0):", lcs.proper)
    print()

print("Relabeling e0 := -D carries these to the standard catalog forms on")
print("u(2) and gl(2,R) respectively (only the e^D coefficients flip sign).")
