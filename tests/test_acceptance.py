"""End-to-end acceptance checks, one test per headline capability:

1. foundations (bracket axioms, square-zero differentials),
2. integrability of the stored complex-structure families,
3. the compact-case classification suite,
4. the non-compact-case classification suite,
5. twisted cohomology vanishing and exact potentials,
6. the structural-identity suite for the Vaisman representatives,
7. coadjoint-orbit construction round trips,
8. the command-line golden-file and exit-code contract.
"""

import json
import os

from lieform import catalog, cli
from lieform.catalog import (J_ab, J_mu, gl2r, lcs_form, oneform, sl2r, su2,
                             u2)
from lieform.constructions import coadjoint_stabilizer, lcs_from_orbit
from lieform.exterior import (KForm, ce_d, solve_potential,
                              twisted_cohomology_dim, twisted_d)
from lieform.structures import ComplexStructure, nijenhuis
from conftest import make_rng, random_form

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_1_bracket_axioms_and_square_zero_differentials():
    rng = make_rng(20260824)
    for g in (u2(), gl2r(), su2(), sl2r()):
        assert bool(g.check_jacobi()), g.name
        # a closed twisting 1-form: the dual of the center when there is one
        lam = KForm(g, 1, {(0,): -g.one()}) if g.dim == 4 \
            else KForm.zero(g, 1)
        assert ce_d(lam).is_zero()
        for _ in range(200):
            alpha = random_form(rng, g)
            assert ce_d(ce_d(alpha)).is_zero()
            assert twisted_d(twisted_d(alpha, lam), lam).is_zero()


def test_2_complex_structure_families_integrable_perturbation_not():
    gab = u2(("a", "b"))
    _, ok_ab, _ = nijenhuis(J_ab(gab))
    assert ok_ab
    gmu = gl2r(("mu1", "mu2"))
    _, ok_mu, _ = nijenhuis(J_mu(gmu))
    assert ok_mu
    # shear the standard structure by t in the last two columns; the
    # quadratic part of the Nijenhuis defect is N(e2, e3) = -t^2 e1, exactly
    from lieform.scalars import Scalar
    gt = u2(("t",))
    t = Scalar.var(gt.params, "t")
    z, o = gt.zero(), gt.one()
    Jt = ComplexStructure(gt, [
        [z, -o, z, -t], [o, z, t, z], [z, z, z, o], [z, z, -o, z]])
    table, ok_t, _ = nijenhuis(Jt)
    assert not ok_t
    want = [z, -(t * t), z, z]
    assert table[(2, 3)] == want


def test_3_compact_classification_suite():
    rep = catalog.run_suite("u2_classification")
    assert rep.counts()["FAIL"] == 0 and rep.ok, rep.to_text()


def test_4_noncompact_classification_suite():
    rep = catalog.run_suite("gl2_classification")
    assert rep.counts()["FAIL"] == 0 and rep.ok, rep.to_text()


def test_5_twisted_cohomology_vanishes_and_potentials_exist():
    for id_ in ("u2", "gl2r"):
        entry = catalog.get(id_)
        g = entry.algebra
        lam = entry.families["lambda_std"]
        h1, _ = twisted_cohomology_dim(g, lam, 1)
        assert h1 == 0, id_
        om = entry.families["omega_general"]
        phi = solve_potential(om, lam)
        assert twisted_d(phi, lam) == om, id_


def test_6_structural_identity_suite():
    rep = catalog.run_suite("reductive_identities")
    assert rep.counts()["FAIL"] == 0 and rep.ok, rep.to_text()


def test_7_orbit_construction_round_trips():
    # the compact orbit: dual of a compact-factor generator
    g = su2()
    orbit = coadjoint_stabilizer(KForm.basis_oneform(g, 0))
    assert orbit.non_conical and len(orbit.h) == 0
    ext, lcs, phi = lcs_from_orbit(orbit)
    # relabeling e0 := -D carries this to the standard structure on u(2):
    # omega = -e^D^e^1 + e^{23}  <->  e^{01} + e^{23}
    assert lcs.omega == KForm(ext, 2, {(0, 1): -ext.one(),
                                       (2, 3): ext.one()})
    gu = u2()
    std = lcs_form(gu, oneform(gu, {1: 1}))
    flipped = {(i, j): (-c if i == 0 else c)
               for (i, j), c in lcs.omega.coeffs.items()}
    assert {k: str(v) for k, v in flipped.items()} == \
        {k: str(v) for k, v in std.coeffs.items()}

    # the non-compact orbit: e^+ - e^-
    h = sl2r()
    phi2 = KForm(h, 1, {(1,): h.one(), (2,): -h.one()})
    orbit2 = coadjoint_stabilizer(phi2)
    assert orbit2.non_conical
    ext2, lcs2, _ = lcs_from_orbit(orbit2)
    assert lcs2.omega == KForm(ext2, 2, {
        (0, 2): -ext2.one(), (0, 3): ext2.one(),
        (1, 2): -ext2._scalar(2), (1, 3): -ext2._scalar(2)})
    gg = gl2r()
    std2 = lcs_form(gg, oneform(gg, {2: 1, 3: -1}))
    # again equal to the catalog form after e0 := -D
    flipped2 = {(i, j): (-c if i == 0 else c)
                for (i, j), c in lcs2.omega.coeffs.items()}
    assert {k: str(v) for k, v in flipped2.items()} == \
        {k: str(v) for k, v in std2.coeffs.items()}

    # invariants of the extracted lcs data
    for lc in (lcs, lcs2):
        assert ce_d(lc.lam).is_zero()
        assert lc.lam.evaluate(lc.Z).is_zero()
        assert lc.proper


def test_8_cli_golden_files_and_exit_codes(capsys):
    # document round trip against the golden file
    assert cli.main(["catalog", "u2", "--emit"]) == 0
    out = capsys.readouterr().out
    with open(os.path.join(DATA, "u2.json"), encoding="utf-8") as fh:
        assert out == fh.read()
    # suite output against the CLI golden
    assert cli.main(["suite", "reductive_identities"]) == 0
    out2 = capsys.readouterr().out
    with open(os.path.join(DATA, "cli_reference.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)["cli"]["suite reductive_identities"]
    assert out2 == golden["out"]
    # exit-code contract: a corrupted algebra document must fail loudly
    code = cli.main(["check-algebra", os.path.join(DATA, "corrupted.json")])
    out3 = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out3 and "antisymmetry fails" in out3
    # and the same document read as JSON still parses (the failure is
    # semantic, not syntactic)
    with open(os.path.join(DATA, "corrupted.json"), encoding="utf-8") as fh:
        json.load(fh)
