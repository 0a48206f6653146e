"""Catalog entries: built-in algebras, structure families, sample lattices.

The three full verification suites are exercised by the acceptance tests;
here we check the catalog plumbing and the cheap symbolic facts about the
stored families.
"""

from fractions import Fraction

import pytest

from lieform import catalog
from lieform.exterior import KForm, ce_d, wedge
from lieform.structures import (CONVENTION_DEF, CONVENTION_THM,
                                ComplexStructure, assemble_lck,
                                compatibility_check, metric_from,
                                vaisman_check)


def _at(form, point):
    """The form with the rational point substituted into each coefficient."""
    return KForm(form.algebra, form.degree,
                 {idx: c.substitute(point) for idx, c in form.coeffs.items()})


def test_known_ids_and_basic_shape():
    for id_, dim, nparams in [("u2", 4, 5), ("gl2r", 4, 5), ("su2", 3, 0),
                              ("sl2r", 3, 0), ("abelian_4", 4, 0),
                              ("abelian_5", 5, 0), ("abelian_16", 16, 0),
                              ("abelian_20", 20, 0)]:
        entry = catalog.get(id_)
        assert entry.id == id_
        assert entry.algebra.dim == dim
        assert len(entry.algebra.params) == nparams
        assert bool(entry.algebra.check_jacobi())


def test_unknown_ids_rejected():
    # abelian_<n> is bounded, so a large n fails before any basis name is
    # built, and n is spelled in plain decimal digits
    for bad in ("so3", "abelian_x", "abelian_0", "", "abelian_21",
                "abelian_123456789012", "abelian_1_0", "abelian_04",
                "abelian_+4"):
        with pytest.raises(catalog.UnknownId):
            catalog.get(bad)
    with pytest.raises(catalog.CatalogError):
        catalog.run_suite("nope")


def test_u2_families_are_consistent():
    entry = catalog.get("u2")
    g = entry.algebra
    fams = entry.families
    assert isinstance(fams["J_ab"], ComplexStructure)
    # the general omega really is e^0 ^ phi + d(phi)
    om = fams["omega_general"]
    phi = fams["phi_general"]
    assert om == wedge(KForm.basis_oneform(g, 0), phi) + ce_d(phi)
    # the standard member sits inside the general family at a1=1, a2=a3=0
    member = _at(om, {"a1": Fraction(1), "a2": Fraction(0),
                      "a3": Fraction(0)})
    assert member == fams["omega_std"]
    assert ce_d(fams["lambda_std"]).is_zero()
    # excluded locus names b and |a|^2
    assert len(entry.excluded_locus) == 2


def test_gl2r_families_are_consistent():
    fams = catalog.get("gl2r").families
    member = _at(fams["omega_general"],
                 {"ah": Fraction(0), "ap": Fraction(1), "am": Fraction(-1)})
    assert member == fams["omega_std"]
    # the mu = 1 member is compatible with the whole family
    assert compatibility_check(fams["omega_general"], fams["J_mu1"]) is True


def test_biinvariant_forms_are_ad_invariant():
    from lieform import linalg
    for id_ in ("u2", "gl2r"):
        entry = catalog.get(id_)
        g = entry.algebra
        B = entry.bilinears["B"]
        linalg.inverse(B)  # raises LinalgError if B is degenerate
        for i in range(g.dim):
            ei = g.basis_vector(i)
            for j in range(g.dim):
                ej = g.basis_vector(j)
                for k in range(g.dim):
                    ek = g.basis_vector(k)

                    def pair(x, y):
                        return linalg.dot(x, linalg.mat_vec(B, y))

                    val = pair(g.bracket(ei, ej), ek) + \
                        pair(ej, g.bracket(ei, ek))
                    assert val.is_zero()


def test_lattice_counts_and_contents():
    pts = catalog.lattice(1)
    assert len(pts) == 13                      # step 1/2 on [-3, 3]
    assert (Fraction(-3),) in pts and (Fraction(3, 2),) in pts
    assert len(catalog.lattice(2)) == 169
    assert len(catalog.lattice(3, step=Fraction(1))) == 343
    # the census runs over Z: an integral coordinate is an int
    assert [type(x) for (x,) in pts] == [int, Fraction] * 6 + [int]
    assert {type(x) for p in catalog.lattice(3, step=Fraction(1))
            for x in p} == {int}


def test_suite_names_are_registered():
    assert set(catalog.SUITES) == {"u2_classification", "gl2_classification",
                                   "reductive_identities"}


def test_suite_metric_comparison_reads_every_entry():
    # the suites compare a metric with its upper triangle; a wrong entry on
    # or above the diagonal must be caught
    entry = catalog.get("u2")
    m = metric_from(entry.families["omega_std"], entry.families["J_01"])
    upper = {(i, j): m.matrix[i][j] for i in range(4) for j in range(i, 4)}
    assert catalog._metric_is(m, upper)
    for key, value in upper.items():
        assert not catalog._metric_is(m, {**upper, key: value + 1})


# The suites read each Vaisman sample off the Killing matrix of their
# parametric family; here each sample is rebuilt on the bare algebra and
# decided by vaisman_check, independently of that specialisation.
U2_VAISMAN_SAMPLES = [((0, 1, 0), False), ((0, 0, 1), False),
                      ((1, 1, 0), False), ((1, 2, 3), False),
                      ((2, 0, -1), False)]
GL2_VAISMAN_SAMPLES = [((0, 1, -1), True), ((0, 2, -2), True),
                       ((0, -1, 2), False), ((1, 1, -1), False),
                       ((1, 2, 3), False), ((2, 1, 1), False)]


FAMILIES = {
    "u2": (catalog.u2, lambda g: catalog.J_ab(g, 0, 1), CONVENTION_THM),
    "gl2r": (catalog.gl2r, lambda g: catalog.J_mu(g, 1, 0), CONVENTION_DEF),
}


@pytest.mark.parametrize("family, pt, want", [
    *(("u2", pt, want) for pt, want in U2_VAISMAN_SAMPLES),
    *(("gl2r", pt, want) for pt, want in GL2_VAISMAN_SAMPLES),
])
def test_vaisman_samples_rebuilt_at_each_point(family, pt, want):
    make, J, convention = FAMILIES[family]
    g = make()
    omega = catalog.lcs_form(g, catalog.oneform(g, dict(zip((1, 2, 3), pt))))
    assert vaisman_check(assemble_lck(g, omega, J(g), convention))[0] is want


def test_vaisman_branch_of_the_u2_exceptional_member():
    # omega = a1(e^{01} + e^{23}) with J_01 is Vaisman over Q(a1)
    g = catalog.u2(("a1",))
    omega = catalog.lcs_form(g, catalog.oneform(g, {1: "a1"}))
    lck = assemble_lck(g, omega, catalog.J_ab(g, 0, 1), CONVENTION_THM)
    assert vaisman_check(lck)[0] is True
