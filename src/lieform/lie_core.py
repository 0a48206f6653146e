"""Lie algebras with exact structure constants, subspaces and derivations."""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from . import linalg
from .scalars import Scalar

# the largest dimension of a document or a catalog id: check_jacobi costs n^4
MAX_DIM = 20


class LieError(Exception):
    pass


class ZeroVector(LieError):
    pass


class NotADerivation(LieError):
    pass


class JacobiReport:
    """Outcome of the antisymmetry + Jacobi check."""

    def __init__(self, passed, witness=None, reason=""):
        self.passed = passed
        self.witness = witness
        self.reason = reason

    def __bool__(self):
        return self.passed

    def __repr__(self):
        if self.passed:
            return "JacobiReport(pass)"
        return f"JacobiReport(fail, {self.reason} at {self.witness})"


class LieAlgebra:
    """Finite-dimensional Lie algebra over the scalar field Q(params).

    The bracket table stores [e_i, e_j] as a coefficient vector for every
    ordered pair; pairs given only one way are completed antisymmetrically,
    so deliberately corrupted tables can violate antisymmetry and be caught
    by check_jacobi.
    """

    def __init__(self, basis_names, brackets, params=(), h_subalgebra=None,
                 name=""):
        self.name = name
        self.params = tuple(params)
        self.basis_names = list(basis_names)
        self.dim = len(self.basis_names)
        # scalars are immutable, so every caller can share these two
        self._zero = Scalar.zero(self.params)
        self._one = Scalar.one(self.params)
        table = {}
        for (i, j), vec in brackets.items():
            table[(i, j)] = [self._scalar(c) for c in self._as_vector(vec)]
        for (i, j) in list(table):
            if (j, i) not in table:
                table[(j, i)] = [-c for c in table[(i, j)]]
        self._table = table
        self.h_subalgebra = None
        if h_subalgebra:
            self.h_subalgebra = [
                [self._scalar(c) for c in v] for v in h_subalgebra]

    # -- scalar plumbing ----------------------------------------------

    def _scalar(self, c):
        """c, a Scalar over params, a parameter name or a rational (an int or
        a Fraction, never a float), as a scalar of this algebra."""
        if isinstance(c, Scalar):
            if c.params != self.params:
                raise LieError("scalar parameter mismatch")
            return c
        if isinstance(c, str):
            if c not in self.params:
                raise LieError(f"unknown parameter {c!r}")
            return Scalar.var(self.params, c)
        if not isinstance(c, Rational):
            raise LieError(f"value {c!r} is not rational")
        return Scalar.const(self.params, Fraction(c))

    def _as_vector(self, vec):
        if isinstance(vec, dict):
            out = [0] * self.dim
            for k, c in vec.items():
                out[k] = c
            return out
        return list(vec)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def zero_vector(self):
        return [self.zero()] * self.dim

    def basis_vector(self, i):
        v = self.zero_vector()
        v[i] = self.one()
        return v

    def vector(self, entries):
        return [self._scalar(c) for c in self._as_vector(entries)]

    # -- bracket ------------------------------------------------------

    def bracket_basis(self, i, j):
        if (i, j) in self._table:
            return list(self._table[(i, j)])
        return self.zero_vector()

    def bracket(self, x, y):
        """sum x_i y_j [e_i, e_j], read off the table in place; x_i y_j is
        formed once per pair (i, j) whose bracket is not zero."""
        out = self.zero_vector()
        table = self._table
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero() or (b := table.get((i, j))) is None:
                    continue
                xy = None
                for k, c in enumerate(b):
                    if not c.is_zero():
                        if xy is None:
                            xy = xi * yj
                        out[k] = out[k] + xy * c
        return out

    def ad(self, v):
        """Matrix of ad_v: column j is [v, e_j]."""
        return linalg.transpose([self.bracket(v, self.basis_vector(j))
                                 for j in range(self.dim)])

    # -- structural checks --------------------------------------------

    def check_jacobi(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                lhs = self.bracket_basis(i, j)
                rhs = self.bracket_basis(j, i)
                if any(not (a + b).is_zero() for a, b in zip(lhs, rhs)):
                    return JacobiReport(False, (i, j), "antisymmetry fails")
                if i == j and any(not c.is_zero() for c in lhs):
                    return JacobiReport(False, (i, i), "[x,x] != 0")
        for i in range(n):
            ei = self.basis_vector(i)
            for j in range(i + 1, n):
                ej = self.basis_vector(j)
                for k in range(j + 1, n):
                    ek = self.basis_vector(k)
                    s = self.bracket(self.bracket(ei, ej), ek)
                    s = linalg.vec_add(s, self.bracket(self.bracket(ej, ek), ei))
                    s = linalg.vec_add(s, self.bracket(self.bracket(ek, ei), ej))
                    if not linalg.vec_is_zero(s):
                        return JacobiReport(False, (i, j, k), "Jacobi fails")
        # h may be given by a dependent spanning set
        h = self.h_subalgebra or []
        for a, x in enumerate(h):
            for y in h[a:]:
                if not linalg.in_span(h, self.bracket(x, y)):
                    return JacobiReport(
                        False, "h", "h is not closed under the bracket")
        return JacobiReport(True)

    def structure_table(self):
        """Canonical bracket table for golden data / round-tripping."""
        out = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                vec = self.bracket_basis(i, j)
                if any(not c.is_zero() for c in vec):
                    out[(i, j)] = vec
        return out


def is_derivation(g, D):
    """Leibniz check D[x,y] = [Dx,y] + [x,Dy] on all basis pairs.

    D is a dim x dim matrix of scalars or rationals.
    """
    if len(D) != g.dim or any(len(r) != g.dim for r in D):
        raise LieError("derivation matrix has wrong shape")
    D = [[g._scalar(c) for c in row] for row in D]
    for i in range(g.dim):
        ei = g.basis_vector(i)
        for j in range(i + 1, g.dim):
            ej = g.basis_vector(j)
            lhs = linalg.mat_vec(D, g.bracket(ei, ej))
            rhs = linalg.vec_add(g.bracket(linalg.mat_vec(D, ei), ej),
                                 g.bracket(ei, linalg.mat_vec(D, ej)))
            if not linalg.vec_is_zero(linalg.vec_sub(lhs, rhs)):
                return False, (i, j)
    return True, None


def centralizer(g, v):
    """Basis list of the nullspace of ad_v; v must be nonzero."""
    if linalg.vec_is_zero(v):
        raise ZeroVector("centralizer of the zero vector")
    return linalg.nullspace(g.ad(v))[0]


def center(g):
    """Basis list of the intersection of the nullspaces of all ad_{e_i}."""
    stacked = []
    for i in range(g.dim):
        stacked.extend(g.ad(g.basis_vector(i)))
    return linalg.nullspace(stacked)[0]


def derived_subalgebra(g):
    """Basis list (the rref pivot rows) of the span of all brackets
    [e_i, e_j]."""
    vectors = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            b = g.bracket_basis(i, j)
            if any(not c.is_zero() for c in b):
                vectors.append(b)
    red, pivots, _ = linalg.rref(vectors)
    return red[:len(pivots)]


def extend_by_derivation(g, D):
    """The extension with basis (D, e_1..e_n): [D, x] = Dx, for a
    dim x dim matrix D.  Its brackets all lie in span(e_1..e_n), so the
    dual 1-form e^0 of D is closed."""
    ok, witness = is_derivation(g, D)
    if not ok:
        raise NotADerivation(f"Leibniz identity fails on basis pair {witness}")
    n = g.dim
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            brackets[(i + 1, j + 1)] = dict(enumerate(g.bracket_basis(i, j),
                                                      1))
    for j in range(n):
        brackets[(0, j + 1)] = {k + 1: D[k][j] for k in range(n)}
    h_sub = None
    if g.h_subalgebra:
        h_sub = [[g.zero()] + list(v) for v in g.h_subalgebra]
    return LieAlgebra(["D"] + list(g.basis_names), brackets, params=g.params,
                      h_subalgebra=h_sub,
                      name=f"{g.name}(D)" if g.name else "extension")
