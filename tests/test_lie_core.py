"""Lie algebra core: bracket tables, Jacobi witnesses, subspaces, derivations."""

import pytest

from decimal import Decimal
from fractions import Fraction

from lieform import linalg
from lieform.catalog import abelian, gl2r, sl2r, su2, u2
from lieform.lie_core import (LieAlgebra, LieError, NotADerivation,
                              ZeroVector, center, centralizer,
                              derived_subalgebra, extend_by_derivation,
                              is_derivation)
from lieform.scalars import Scalar


def test_scalar_reads_names_and_rationals_over_the_algebra_parameters():
    g = u2(("a", "b"))
    assert g._scalar("b") == Scalar.var(("a", "b"), "b")
    assert g._scalar(Fraction(-3, 4)) == Scalar.const(("a", "b"),
                                                      Fraction(-3, 4))
    assert g._scalar(2) == Scalar.const(("a", "b"), 2)
    a = Scalar.var(("a", "b"), "a")
    assert g._scalar(a) is a
    with pytest.raises(LieError):
        g._scalar("c")
    with pytest.raises(LieError):
        g._scalar(Scalar.var(("a",), "a"))
    # a float would be read as its binary expansion, 0.1 as
    # 3602879701896397/36028797018963968
    for value in (0.1, 0.5, Decimal("0.1")):
        with pytest.raises(LieError, match=r"value .* is not rational$"):
            g._scalar(value)


def test_bracket_tables_match_structure_constants():
    g = u2()
    # [e1, e2] = -e3, cyclic
    assert g.bracket_basis(1, 2) == g.vector({3: -1})
    assert g.bracket_basis(2, 1) == g.vector({3: 1})
    assert g.bracket_basis(0, 1) == g.zero_vector()
    h = gl2r()
    assert h.bracket_basis(1, 2) == h.vector({2: 2})
    assert h.bracket_basis(1, 3) == h.vector({3: -2})
    assert h.bracket_basis(2, 3) == h.vector({1: 1})


def test_bracket_is_bilinear_and_antisymmetric():
    g = gl2r()
    x = g.vector([1, 2, 3, -1])
    y = g.vector([0, 1, -2, 5])
    xy = g.bracket(x, y)
    yx = g.bracket(y, x)
    assert linalg.vec_is_zero(linalg.vec_add(xy, yx))
    two_x = [c + c for c in x]
    assert g.bracket(two_x, y) == [c + c for c in xy]


def test_jacobi_witness_on_corrupted_table():
    # break antisymmetry by giving both orders the same sign
    bad = LieAlgebra(["e0", "e1", "e2"],
                     {(0, 1): {2: 1}, (1, 0): {2: 1}})
    rep = bad.check_jacobi()
    assert not rep.passed
    assert rep.reason == "antisymmetry fails"
    # break the Jacobi identity itself
    bad2 = LieAlgebra(["e0", "e1", "e2"],
                      {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {0: 1}})
    rep2 = bad2.check_jacobi()
    assert not rep2.passed
    assert rep2.reason == "Jacobi fails"
    assert rep2.witness == (0, 1, 2)


def test_ad_matrix_columns():
    g = su2()
    ad1 = g.ad(g.basis_vector(0))
    for j in range(3):
        col = [ad1[k][j] for k in range(3)]
        assert col == g.bracket(g.basis_vector(0), g.basis_vector(j))


def test_center_and_derived_subalgebra_dims():
    assert len(center(u2())) == 1
    assert len(center(gl2r())) == 1
    assert len(center(su2())) == 0
    assert len(center(sl2r())) == 0
    assert len(center(abelian(3))) == 3
    assert len(derived_subalgebra(u2())) == 3
    assert len(derived_subalgebra(gl2r())) == 3
    assert len(derived_subalgebra(abelian(4))) == 0


def test_centralizer_known():
    g = su2()
    c = centralizer(g, g.basis_vector(0))
    assert len(c) == 1
    assert linalg.rank(c + [g.basis_vector(0)])[0] == len(c)
    with pytest.raises(ZeroVector):
        centralizer(g, g.zero_vector())


def test_is_derivation_inner_and_non():
    g = sl2r()
    # every ad_x is a derivation
    ok, _ = is_derivation(g, g.ad(g.vector([1, 2, -1])))
    assert ok
    # the identity map is not (for a nonabelian algebra)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    ok2, witness = is_derivation(g, ident)
    assert not ok2 and witness is not None


@pytest.mark.parametrize("D", [[[0] * 3] * 2, [[0] * 3, [0] * 3, [0] * 2]])
def test_derivation_matrix_shape_is_checked(D):
    g = sl2r()
    with pytest.raises(LieError, match="wrong shape"):
        is_derivation(g, D)
    with pytest.raises(LieError, match="wrong shape"):
        extend_by_derivation(g, D)


def test_extension_by_zero_derivation():
    g = su2()
    ext = extend_by_derivation(g, [[0] * 3 for _ in range(3)])
    assert ext.dim == 4
    assert ext.basis_names[0] == "D"
    # old brackets survive with shifted indices
    assert ext.bracket_basis(1, 2) == ext.vector({3: -1})
    # D is central here
    assert ext.bracket_basis(0, 1) == ext.zero_vector()
    # the dual 1-form of D is closed
    from lieform.exterior import KForm, ce_d
    assert ce_d(KForm.basis_oneform(ext, 0)).is_zero()
    assert bool(ext.check_jacobi())


def test_extension_rejects_non_derivation():
    g = sl2r()
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    with pytest.raises(NotADerivation):
        extend_by_derivation(g, ident)


def test_extension_by_inner_derivation_keeps_jacobi():
    g = sl2r()
    D = g.ad(g.vector([0, 1, 1]))
    ext = extend_by_derivation(g, D)
    assert bool(ext.check_jacobi())


def test_extension_lifts_exactly_the_given_h():
    # g's own h is not carried over; the vectors given are lifted as (0, v)
    g0 = su2()
    g = LieAlgebra(g0.basis_names, g0.structure_table(),
                   h_subalgebra=[g0.basis_vector(0)])
    zero = [[0] * 3 for _ in range(3)]
    assert extend_by_derivation(g, zero).h_subalgebra is None
    ext = extend_by_derivation(g, zero, h=[g.vector([0, 1, 1])])
    assert ext.h_subalgebra == [ext.vector([0, 0, 1, 1])]


@pytest.mark.parametrize("make", [u2, gl2r, su2, sl2r, lambda: abelian(4)])
def test_library_subspaces_hold_bases(make):
    # a subspace is read as a basis list: its length is the rank only for
    # a basis; h is given here by a spanning set with a dependent vector
    g = make()
    spaces = [center(g), derived_subalgebra(g)]
    spaces += [centralizer(g, g.basis_vector(i)) for i in range(g.dim)]
    spanning = spaces[0] + spaces[1] + [g.vector([1] * g.dim)]
    spaces.append(LieAlgebra(g.basis_names, g.structure_table(),
                             h_subalgebra=spanning).h_subalgebra)
    for s in spaces:
        assert len(s) == linalg.rank(s)[0]
