"""An independent oracle for the Lee form, the Reeb vector and the lcK
data built from them.

sympy computes over the fraction field Q(params), with a GCD, so equality
there is equality of rational functions, whatever the unreduced form of
``lieform``'s quotients.  Each scalar crosses over as its printed string.
The differential, the wedge product and ad are written out here from the
structure constants, and the linear algebra is ``DomainMatrix`` over
``QQ.frac_field``, exact in that field (not ``Matrix.LUsolve``, which
eliminates over unreduced expressions).
"""

import os
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from lieform import document  # noqa: E402
from lieform.exterior import form_to_vector  # noqa: E402
from lieform.structures import (CONVENTION_DEF, CONVENTION_THM,  # noqa: E402
                                ComplexStructure, assemble_lck, gram_matrix,
                                killing, lcs_check)

DATA = os.path.join(os.path.dirname(__file__), "data")


class Field:
    """Q(params) and the conversion of a lieform scalar into it."""

    def __init__(self, params):
        self.symbols = {p: sympy.Symbol(p) for p in params}
        self.K = sympy.QQ.frac_field(*self.symbols.values())

    def __call__(self, scalar):
        expr = sympy.parse_expr(str(scalar).replace("^", "**"),
                                local_dict=self.symbols)
        return self.K.from_sympy(expr)

    def matrix(self, rows):
        return DomainMatrix([[self(x) for x in row] for row in rows],
                            (len(rows), len(rows[0])), self.K)

    def column(self, v):
        return self.matrix([[x] for x in v])


@pytest.mark.parametrize("name", ["u2.json", "gl2r.json"])
def test_lee_form_and_reeb_vector_agree_with_the_field(name):
    doc = document.load(os.path.join(DATA, name))
    g = doc.build_algebra()
    omega = doc.build_form("omega_general", g)
    lcs = lcs_check(g, omega)
    F = Field(g.params)
    n, K = g.dim, F.K
    W = [[F(x) for x in row] for row in gram_matrix(omega)]
    # c[i][j][k], the e_k coefficient of [e_i, e_j]
    c = [[[F(x) for x in g.bracket_basis(i, j)] for j in range(n)]
         for i in range(n)]
    lam = [F(lcs.lam.coefficient((i,))) for i in range(n)]

    def om(u, k):
        """omega(u, e_k)."""
        return sum((u[i] * W[i][k] for i in range(n)), K.zero)

    # lam ^ omega = d(omega) on each triple, with d(omega)(X, Y, Z) =
    # -omega([X, Y], Z) + omega([X, Z], Y) - omega([Y, Z], X); the system
    # has rank n (L_omega is injective on 1-forms), so lam is the only
    # solution
    triples = list(combinations(range(n), 3))
    lee_rows = []
    for i, j, k in triples:
        coeffs = [K.zero] * n
        coeffs[i], coeffs[j], coeffs[k] = W[j][k], -W[i][k], W[i][j]
        lee_rows.append(coeffs)
        d_omega = -om(c[i][j], k) + om(c[i][k], j) - om(c[j][k], i)
        assert sum((a * x for a, x in zip(coeffs, lam)), K.zero) == d_omega
    assert DomainMatrix(lee_rows, (len(triples), n), K).rank() == n

    # Omega Z = -lam/2, and Omega is invertible, so Z is the only solution
    Omega = DomainMatrix(W, (n, n), K)
    Z = DomainMatrix([[F(z)] for z in lcs.Z], (n, 1), K)
    half = K.convert(sympy.Rational(1, 2))
    rhs = DomainMatrix([[-half * x] for x in lam], (n, 1), K)
    assert Omega * Z == rhs
    assert Omega.rank() == n


@pytest.mark.parametrize("convention, sign", [(CONVENTION_DEF, 1),
                                              (CONVENTION_THM, -1)])
@pytest.mark.parametrize("name, J", [("u2.json", "J_01"),
                                     ("gl2r.json", "J_mu1")])
def test_lck_data_agree_with_the_field(name, J, convention, sign):
    doc = document.load(os.path.join(DATA, name))
    g = doc.build_algebra()
    omega = doc.build_form("omega_general", g)
    lck = assemble_lck(g, omega, ComplexStructure(g, doc.build_endo(J, g)),
                       convention)
    F = Field(g.params)
    n, K = g.dim, F.K
    Jm = F.matrix(lck.J.matrix)
    # G = +-Omega J: g = omega(., J.) in the defining convention
    omega_J = F.matrix(gram_matrix(omega)) * Jm
    G = F.matrix(lck.metric.matrix)
    assert G == (omega_J if sign > 0 else -omega_J)

    # xi = -J Z, and G xi = s lam with s = -sign/2
    xi = F.column(lck.xi)
    assert xi == -(Jm * F.column(lck.lcs.Z))
    s_lam = F.column(form_to_vector(lck.lcs.lam)) * K.convert(
        sympy.Rational(-sign, 2))
    assert G * xi == s_lam
    assert F.column(lck.gxi) == s_lam

    # the Killing matrix M + M^T, M = G ad_xi, where ad_xi[k][j] is the
    # e_k coefficient of [xi, e_j] = sum_i xi_i [e_i, e_j]
    c = [[[F(x) for x in g.bracket_basis(i, j)] for j in range(n)]
         for i in range(n)]
    xs = [F(x) for x in lck.xi]
    ad = DomainMatrix([[sum((xs[i] * c[i][j][k] for i in range(n)), K.zero)
                        for j in range(n)] for k in range(n)], (n, n), K)
    M = G * ad
    assert F.matrix(killing(lck)) == M + M.transpose()
