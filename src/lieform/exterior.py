"""Alternating forms on a Lie algebra and the Chevalley-Eilenberg calculus.

Conventions are fixed once and for all:

* wedge is the shuffle (determinant) convention, without 1/k! factors, so
  that on the dual basis (e^I)(e_I) = 1;
* on 1-forms the differential is d(alpha) = -alpha([.,.]), and in general
  d(alpha)(X_0..X_k) = sum_{i<j} (-1)^{i+j} alpha([X_i,X_j], ..hat i..hat j..);
* the twisted differential is d_lam(alpha) = d(alpha) - lam ^ alpha.

A form prints as its canonical wedge expression, ``(c) * e0^e1 + ...``;
``document.parse_form`` reads it back, so ``parse_form(str(f)) == f``.

The differential reads each algebra's table of the terms of d(e^I), which
this module builds on first use and drops with its algebra.  The forms
this module builds skip the public ``KForm`` constructor's checks of their
index tuples.

A linear system in forms is built by ``matrix_of``: column j holds the
coefficients of the j-th form, one row per monomial.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb
from operator import add, sub
from weakref import WeakKeyDictionary

from . import linalg
from .scalars import Scalar


class FormError(Exception):
    pass


class AmbientMismatch(FormError):
    pass


class DegreeZero(FormError):
    pass


class NonClosedLambda(FormError):
    pass


class NoSolution(FormError):
    pass


class GaugeUnresolvable(FormError):
    pass


class TooManyMonomials(FormError):
    pass


# C(12, 6): the relative complex in every degree up to dimension 12
MAX_MONOMIALS = 924


def _merge_sign(left, right):
    """(sorted union, sign of the shuffle) of two increasing index tuples,
    or (None, 0) when they share an index: the sign is the parity of the
    pairs a in left, b in right with a > b."""
    if not set(left).isdisjoint(right):
        return None, 0
    inv = sum(a > b for b in right for a in left)
    return tuple(sorted(left + right)), (-1) ** inv


class KForm:
    """Alternating k-form with Scalar coefficients, sparsely stored.

    Coefficients are keyed by strictly increasing index tuples; a 0-form is
    keyed by the empty tuple.
    """

    __slots__ = ("algebra", "degree", "coeffs")

    def __init__(self, algebra, degree, coeffs=None):
        if type(degree) is not int or degree < 0:
            raise FormError(f"degree {degree!r} is not a non-negative int")
        coeffs = {tuple(idx): c for idx, c in (coeffs or {}).items()}
        for idx, c in coeffs.items():
            if len(idx) != degree:
                raise FormError(f"index tuple {idx} has wrong length")
            if not all(isinstance(i, int) and 0 <= i < algebra.dim
                       for i in idx):
                raise FormError(f"index tuple {idx} is out of range for "
                                f"dimension {algebra.dim}")
            if list(idx) != sorted(set(idx)):
                raise FormError(f"index tuple {idx} is not strictly increasing")
            if not (isinstance(c, Scalar) and c.params == algebra.params):
                raise FormError(f"coefficient {c!r} is not a scalar over "
                                f"{algebra.params}")
        self.algebra, self.degree = algebra, degree
        self.coeffs = {idx: c for idx, c in coeffs.items() if not c.is_zero()}

    @classmethod
    def _built(cls, algebra, degree, coeffs):
        """The form on coefficients keyed by index tuples this module built:
        only the zero coefficients are dropped."""
        form = cls.__new__(cls)
        form.algebra, form.degree = algebra, degree
        form.coeffs = {idx: c for idx, c in coeffs.items() if not c.is_zero()}
        return form

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, algebra, degree):
        return cls(algebra, degree, {})

    @classmethod
    def monomial(cls, algebra, idx, coeff=None):
        if coeff is None:
            coeff = algebra.one()
        return cls(algebra, len(idx), {tuple(idx): coeff})

    @classmethod
    def basis_oneform(cls, algebra, i):
        return cls.monomial(algebra, (i,))

    @classmethod
    def constant(cls, algebra, value):
        return cls(algebra, 0, {(): algebra._scalar(value)})

    # -- basics -------------------------------------------------------

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AmbientMismatch("forms live on different algebras")

    def is_zero(self):
        return not self.coeffs

    def _sum(self, other, op):
        """self + other or self - other, for op the Scalar add or sub."""
        self._check(other)
        if self.degree != other.degree:
            raise FormError("cannot add forms of different degree")
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            coeffs[idx] = op(coeffs.get(idx, self.algebra.zero()), c)
        return KForm._built(self.algebra, self.degree, coeffs)

    def __add__(self, other):
        return self._sum(other, add)

    def __neg__(self):
        return KForm._built(self.algebra, self.degree,
                            {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self._sum(other, sub)

    def scaled(self, c):
        c = self.algebra._scalar(c)
        return KForm._built(self.algebra, self.degree,
                            {i: c * v for i, v in self.coeffs.items()})

    def __rmul__(self, c):
        return self.scaled(c)

    __mul__ = __rmul__

    def __truediv__(self, c):
        return self.scaled(1 / self.algebra._scalar(c))

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self - other).is_zero()

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), self.algebra.zero())

    def evaluate(self, *vectors):
        """alpha(v_1..v_k), by contraction: i_{v_k} .. i_{v_1} alpha."""
        if len(vectors) != self.degree:
            raise FormError(
                f"degree {self.degree} form applied to {len(vectors)} vectors")
        form = self
        for v in vectors:
            form = interior(v, form)
        return form.coefficient(())

    def __str__(self):
        """``(c) * e0^e1 + ...``; the zero k-form is ``0 * e0^...^e{k-1}``,
        or ``0`` in degree 0 and above the dimension (no monomial)."""
        names = self.algebra.basis_names
        if self.is_zero():
            return ("0 * " + "^".join(names[:self.degree])
                    if 0 < self.degree <= len(names) else "0")
        return " + ".join(f"({c}) * {'^'.join(names[i] for i in idx)}"
                          if idx else f"({c})"
                          for idx, c in sorted(self.coeffs.items()))

    def __repr__(self):
        return f"KForm[{self.degree}]({self})"


def _wedge_coeffs(alpha, beta):
    """The coefficients of alpha ^ beta, the zero ones included."""
    alpha._check(beta)
    zero = alpha.algebra.zero()
    coeffs = {}
    for i1, c1 in alpha.coeffs.items():
        for i2, c2 in beta.coeffs.items():
            merged, sign = _merge_sign(i1, i2)
            if merged is None:
                continue
            term = c1 * c2 if sign == 1 else -(c1 * c2)
            coeffs[merged] = coeffs.get(merged, zero) + term
    return coeffs


# each algebra's table of d(e^I), built on first use and dropped with it
_D_TABLES = WeakKeyDictionary()


def _d_terms(constants, idx):
    """The terms (merged index, signed c_ij^k) of d(e^idx) in the order
    ce_d sums them: position a of k in idx, then the pairs i < j."""
    terms = []
    for a, k in enumerate(idx):
        rest = idx[:a] + idx[a + 1:]
        for ij, c, neg in constants[k]:
            merged, sign = _merge_sign(ij, rest)
            if merged is not None:
                terms.append((merged, neg if sign * (-1) ** a == 1 else c))
    return terms


def _d_coeffs(alpha):
    """The coefficients of d(alpha), the zero ones included (see ce_d)."""
    g = alpha.algebra
    table = _D_TABLES.get(g)
    if table is None:
        # by k, ((i, j), c, -c) for each i < j with c = c_ij^k != 0, in
        # lexicographic order of (i, j): every term shares c or -c
        constants = [[] for _ in range(g.dim)]
        for ij, vec in g.structure_table().items():
            for k, c in enumerate(vec):
                if not c.is_zero():
                    constants[k].append((ij, c, -c))
        table = _D_TABLES[g] = (constants, {})
    constants, by_idx = table
    zero = g.zero()
    coeffs = {}
    for idx, c in alpha.coeffs.items():
        terms = by_idx.get(idx)
        if terms is None:
            terms = by_idx[idx] = _d_terms(constants, idx)
        for merged, s in terms:
            coeffs[merged] = coeffs.get(merged, zero) + c * s
    return coeffs


def wedge(alpha, beta):
    """Graded-commutative shuffle-convention wedge product."""
    return KForm._built(alpha.algebra, alpha.degree + beta.degree,
                        _wedge_coeffs(alpha, beta))


def ce_d(alpha):
    """Chevalley-Eilenberg differential (anti-derivation extension).

    d(e^k) = -sum_{i<j} c_{ij}^k e^i ^ e^j is a 2-form, so it commutes past
    the 1-forms before e^k in a monomial:
    d(e^{idx}) = sum_a (-1)^a d(e^{idx[a]}) ^ e^{idx without position a}.
    The terms of each d(e^{idx}) come from the algebra's table, built on
    first use, and are summed in its order.
    """
    return KForm._built(alpha.algebra, alpha.degree + 1, _d_coeffs(alpha))


def twisted_d(alpha, lam):
    """d_lam(alpha) = d(alpha) - lam ^ alpha, built as one form by the scalar
    operations of that difference, in its order.  lam should be closed."""
    if lam.degree != 1:
        raise FormError("twisting form must have degree 1")
    g = alpha.algebra
    coeffs = {i: c for i, c in _d_coeffs(alpha).items() if not c.is_zero()}
    for idx, c in _wedge_coeffs(lam, alpha).items():
        if not c.is_zero():
            coeffs[idx] = coeffs.get(idx, g.zero()) - c
    return KForm._built(g, alpha.degree + 1, coeffs)


def interior(v, alpha):
    """Interior product: (i_v alpha)(X..) = alpha(v, X..)."""
    g = alpha.algebra
    if alpha.degree == 0:
        raise DegreeZero("interior product of a 0-form")
    coeffs = {}
    for idx, c in alpha.coeffs.items():
        for a, i in enumerate(idx):
            if v[i].is_zero():
                continue
            rest = idx[:a] + idx[a + 1:]
            term = v[i] * c
            if a % 2 == 1:
                term = -term
            coeffs[rest] = coeffs.get(rest, g.zero()) + term
    return KForm._built(g, alpha.degree - 1, coeffs)


def lie_derivative(v, alpha):
    """Cartan formula L_v = d o i_v + i_v o d."""
    if alpha.degree == 0:
        return interior(v, ce_d(alpha))
    return ce_d(interior(v, alpha)) + interior(v, ce_d(alpha))


# ---------------------------------------------------------------------------
# Relative complex C^k(g, h) and twisted cohomology
# ---------------------------------------------------------------------------

def form_monomials(g, k):
    """The increasing index tuples of degree k, in lexicographic order."""
    return _monomials(g.dim, k)


@cache
def _monomials(dim, k):
    return tuple(combinations(range(dim), k))


def form_to_vector(alpha):
    """The coefficients of alpha in the order of ``form_monomials``."""
    return [alpha.coefficient(idx)
            for idx in form_monomials(alpha.algebra, alpha.degree)]


def matrix_of(forms, monomials):
    """Matrix whose column j holds the coefficients of forms[j]: one row
    per monomial, also when there are no forms."""
    return [[f.coefficient(idx) for f in forms] for idx in monomials]


def vector_to_form(g, k, vec):
    """The k-form with coefficients vec: the inverse of form_to_vector."""
    return KForm(g, k, dict(zip(form_monomials(g, k), vec)))


def relative_basis(g, k):
    """Basis of C^k(g,h): forms vanishing on h and infinitesimally invariant.

    With no distinguished subalgebra this is all of Lambda^k.
    """
    monos = form_monomials(g, k)
    if not monos:
        return []
    monomials = [KForm._built(g, k, {idx: g.one()}) for idx in monos]
    h_vectors = g.h_subalgebra or []
    if not h_vectors:
        return monomials
    rows = []
    lower = form_monomials(g, k - 1) if k >= 1 else []
    for X in h_vectors:
        # linear constraints i_X(alpha) = 0 (none on 0-forms) and
        # L_X(alpha) = 0
        for target, op in ((lower, interior), (monos, lie_derivative)):
            if not target:
                continue
            rows.extend(matrix_of([op(X, m) for m in monomials], target))
    kernel, _ = linalg.nullspace(rows)
    return [vector_to_form(g, k, v) for v in kernel]


def _twisted_d_rank(lam, k):
    g = lam.algebra
    basis = relative_basis(g, k)
    rows = [form_to_vector(twisted_d(b, lam)) for b in basis]
    r, locus = linalg.rank(rows)
    return len(basis), r, locus


def twisted_cohomology_dim(g, lam, k):
    """dim H^k_lam(g,h) with the generic-locus annotation.

    Requires the twisting form to be closed.  Raises TooManyMonomials when
    C^{k-1}, C^k or C^{k+1} has more than MAX_MONOMIALS monomials, so a
    short input cannot ask for unbounded work.
    """
    if k < 0:
        raise FormError(f"cohomology degree {k} is negative")
    if lam.algebra is not g:
        raise AmbientMismatch("the twisting form lives on another algebra")
    count = max(comb(g.dim, d) for d in range(max(k - 1, 0), k + 2))
    if count > MAX_MONOMIALS:
        raise TooManyMonomials(
            f"{count} monomials next to degree {k} in dimension {g.dim} "
            f"(limit {MAX_MONOMIALS})")
    if not ce_d(lam).is_zero():
        raise NonClosedLambda("twisting 1-form is not closed")
    dim_k, rank_k, locus = _twisted_d_rank(lam, k)
    dim_ker = dim_k - rank_k
    dim_im = 0
    if k >= 1:
        _, dim_im, locus2 = _twisted_d_rank(lam, k - 1)
        linalg.merge_locus(locus, locus2)
    return dim_ker - dim_im, locus


def solve_potential(omega, lam, gauge=None):
    """Solve d_lam(phi) = omega for phi in C^1(g,h).

    When a gauge vector xi is supplied, the representative with phi(xi) = 0
    is returned (raising GaugeUnresolvable when the solution set does not
    meet that hyperplane).
    """
    g = omega.algebra
    basis = relative_basis(g, 1)
    rows = matrix_of([twisted_d(b, lam) for b in basis], form_monomials(g, 2))
    x, kernel, _ = linalg.solve(rows, form_to_vector(omega))
    if x is None:
        raise NoSolution("the twisted class of omega is nonzero")

    def build(coeffvec):
        phi = KForm.zero(g, 1)
        for c, b in zip(coeffvec, basis):
            phi = phi + b.scaled(c)
        return phi

    phi = build(x)
    if gauge is None:
        return phi
    val = phi.evaluate(gauge)
    if val.is_zero():
        return phi
    # adjust along the kernel of d_lam on C^1 to impose phi(gauge) = 0
    for kv in kernel:
        kform = build(kv)
        kval = kform.evaluate(gauge)
        if not kval.is_zero():
            return phi - kform.scaled(val / kval)
    raise GaugeUnresolvable(
        "every gauge form vanishes on the gauge vector; cannot fix phi")
