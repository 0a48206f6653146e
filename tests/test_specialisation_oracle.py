"""Symbolic lcK and Vaisman verdicts against the same checks recomputed at
rational points.

Each case of the shipped documents is assembled once over Q(parameters).
At seeded points off every reported locus, the document is rebuilt with
the point substituted into each literal (``Document.build_*(..., at)``),
and the parameter-free checks must agree with the symbolic answer
specialised: the Lee form is the symbolic one at the point, and the
structure is Vaisman at the point exactly when every polynomial of the
symbolic vanishing list vanishes there.

A second oracle computes the Killing list in the test: with M = G ad_xi,
the Lee field is parallel exactly when M + M^T = 0, since G xi = s lam is
closed.  It skips a point only where the Pfaffian of omega or a
denominator of J vanishes, so it also checks the Vaisman branches, which
lie inside the lcK locus of both omega_general cases.
"""

import functools
import os
import random
from fractions import Fraction

import pytest

from lieform import document, linalg
from lieform.exterior import FormError, form_to_vector
from lieform.scalars import ScalarError
from lieform.structures import (CONVENTION_DEF, CONVENTION_THM,
                                ComplexStructure, StructureError,
                                assemble_lck, vaisman_check)

DATA = os.path.join(os.path.dirname(__file__), "data")

# (document, omega, J)
CASES = [
    ("u2", "omega_std", "J_ab"),
    ("u2", "omega_std", "J_01"),
    ("u2", "omega_general", "J_01"),
    ("gl2r", "omega_std", "J_mu"),
    ("gl2r", "omega_std", "J_mu1"),
    ("gl2r", "omega_general", "J_mu1"),
]
CONVENTIONS = [CONVENTION_DEF, CONVENTION_THM]
POINTS = 20


def on_branch(name, point):
    """The point moved onto the Vaisman branch of its document: a2 = a3 = 0
    on u2, ah = 0 and am = -ap on gl2r."""
    if name == "u2":
        return point | {"a2": Fraction(0), "a3": Fraction(0)}
    return point | {"ah": Fraction(0), "am": -point["ap"]}


def lck_of(doc, omega, J, convention, at=None):
    g = doc.build_algebra(at)
    om = doc.build_form(omega, g, at)
    return assemble_lck(g, om, ComplexStructure(g, doc.build_endo(J, g, at)),
                        convention)


def vanishes(poly, point):
    return poly.substitute(point).is_zero()


def seeded_points(doc, name, case):
    """The case's seeded points, every other one on the Vaisman branch."""
    rng = random.Random(CASES.index(case))
    for n in range(POINTS):
        point = {p: Fraction(rng.randint(-6, 6), 2) for p in doc.parameters}
        yield on_branch(name, point) if n % 2 else point


@functools.cache
def outcome(name, omega, J, convention):
    """(points used, pointwise Vaisman verdicts seen) over the case's seeded
    points, every other one on the Vaisman branch; asserts the agreement at
    each point used.  A point is skipped where an entry of the lcK locus or
    of the Vaisman check's locus vanishes, or where the pointwise build
    raises.  On both omega_general cases the branch lies inside the lcK
    locus (it lists a3, resp. ah), so their branch points are skipped."""
    doc = document.load(os.path.join(DATA, f"{name}.json"))
    lck = lck_of(doc, omega, J, convention)
    _, vanishing, vaisman_locus = vaisman_check(lck)
    lam = form_to_vector(lck.lcs.lam)
    used, verdicts = 0, set()
    for point in seeded_points(doc, name, (name, omega, J)):
        if any(vanishes(p, point) for p in lck.locus + vaisman_locus):
            continue
        try:
            at_point = lck_of(doc, omega, J, convention, point)
        except (StructureError, FormError, ScalarError):
            continue
        used += 1
        assert [c.substitute(point) for c in lam] == \
            form_to_vector(at_point.lcs.lam), point
        vaisman = vaisman_check(at_point)[0]
        assert vaisman == all(vanishes(p, point) for p in vanishing), point
        verdicts.add(vaisman)
    return used, verdicts


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("name, omega, J", CASES)
def test_symbolic_verdicts_specialise_to_the_pointwise_ones(name, omega, J,
                                                            convention):
    used, _ = outcome(name, omega, J, convention)
    assert used >= POINTS // 4


def test_the_points_used_cover_both_verdicts():
    outcomes = [outcome(*case, convention)
                for case in CASES for convention in CONVENTIONS]
    assert sum(used for used, _ in outcomes) >= 150
    assert set().union(*(verdicts for _, verdicts in outcomes)) == \
        {True, False}


@functools.cache
def killing_outcome(name, omega, J, convention):
    """(points used, pointwise Vaisman verdicts seen) of the Killing list
    against the pointwise vaisman_check, over the points of ``outcome``;
    asserts the agreement at each point used.  A point is skipped only
    where Pf(omega) = m01 m23 - m02 m13 + m03 m12 or a denominator of J
    vanishes; the pointwise build must succeed everywhere else."""
    doc = document.load(os.path.join(DATA, f"{name}.json"))
    lck = lck_of(doc, omega, J, convention)
    g = lck.algebra
    M = linalg.mat_mul(lck.metric.matrix, g.ad(lck.xi))
    killing = linalg.vanishing(M[i][j] + M[j][i]
                               for i in range(g.dim) for j in range(i, g.dim))
    m = lck.lcs.omega.coefficient
    pf = m((0, 1)) * m((2, 3)) - m((0, 2)) * m((1, 3)) + m((0, 3)) * m((1, 2))
    singular = [pf.num] + [c.den for row in lck.J.matrix for c in row]
    used, verdicts = 0, set()
    for point in seeded_points(doc, name, (name, omega, J)):
        if any(vanishes(p, point) for p in singular):
            continue
        used += 1
        vaisman = vaisman_check(lck_of(doc, omega, J, convention, point))[0]
        assert vaisman == all(vanishes(p, point) for p in killing), point
        verdicts.add(vaisman)
    return used, verdicts


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("name, omega, J", CASES)
def test_killing_list_specialises_to_the_pointwise_verdicts(name, omega, J,
                                                           convention):
    used, verdicts = killing_outcome(name, omega, J, convention)
    assert used >= POINTS * 3 // 4
    if omega == "omega_general":
        # the branch points the lcK locus hides are used here
        assert verdicts == {True, False}


def test_the_killing_oracle_uses_almost_every_point():
    # measured: 228 of the 240 points; the 12 others lie on Pf = 0 or on
    # a zero of a denominator of J
    assert sum(killing_outcome(*case, convention)[0]
               for case in CASES for convention in CONVENTIONS) >= 228
