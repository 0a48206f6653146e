"""An independent oracle for the Lee form and the Reeb vector.

sympy computes over the fraction field Q(params), with a GCD, so equality
there is equality of rational functions, whatever the unreduced form of
``lieform``'s quotients.  Each scalar crosses over as its printed string.
The differential and the wedge product are written out here from the
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
from lieform.structures import gram_matrix, lcs_check  # noqa: E402

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
