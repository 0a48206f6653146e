"""Exact linear algebra over the scalar field.

Matrices are plain lists of row lists.  Elimination divides by pivots inside
the rational-function field, which is exact; whenever a pivot depends on
parameters the computed rank/kernel is *generic* and the pivot numerator is
recorded as an exclusion polynomial (the vanishing locus) instead of being
resolved.

``transpose`` turns columns into rows; it is the one place that does.
``dot`` is the one dot product of two vectors.  No routine takes the
field's zero: each reads it off its entries (``x * 0``), as ``rref`` does.

The matrices are sparse, so the kernels skip structural zeros: a dot product
(``mat_vec``, ``mat_mul``) skips each pair with a zero factor, and ``rref``
scales and subtracts only the nonzero entries of each pivot row, keeping the
rest of every row as it is.  Zero is always the pair (0, 1) and adding it
returns the other summand, so each result is the (num, den) pair the dense
formula builds.  Pivots are exactly one: ``rref`` writes an exact one into
each pivot entry and an exact zero into the pivot column of the other rows,
which is what the division and the subtraction yield.
"""

from __future__ import annotations


class LinalgError(Exception):
    pass


def pivot_locus(x):
    """Exclusion polynomial of a pivot, or None when the pivot is constant."""
    return None if x.rational is not None or x.num.is_constant() else x.num


def merge_locus(locus, extra):
    for p in extra:
        if p is not None and not any(q == p for q in locus):
            locus.append(p)
    return locus


def vanishing(entries):
    """The distinct numerators of the nonzero entries, in order: the
    polynomials whose common zero locus is where every entry vanishes."""
    return merge_locus([], [c.num for c in entries if not c.is_zero()])


def transpose(a):
    return [list(col) for col in zip(*a)]


def dot(u, v):
    """sum u[t] v[t] in order, over the pairs with no zero factor; with none,
    the zero factor of the first pair, which is what u[0] v[0] returns."""
    out = None
    for x, y in zip(u, v):
        if not (x.is_zero() or y.is_zero()):
            out = x * y if out is None else out + x * y
    return u[0] * v[0] if out is None else out


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def mat_mul(a, b):
    cols = transpose(b)
    return [[dot(row, col) for col in cols] for row in a]


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_is_zero(v):
    return all(x.is_zero() for x in v)


def rref(rows):
    """Reduced row echelon form of a copy of rows.

    Returns (reduced rows, pivot_cols, locus) where locus lists the
    non-constant pivot numerators encountered (the generic-rank exclusion
    polynomials).
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    locus = []
    pivot_cols = []
    zero = one = None
    r = 0
    for c in range(n):
        if r >= m:
            break
        # prefer a parameter-free pivot to keep the locus small
        choice = None
        for i in range(r, m):
            if not rows[i][c].is_zero():
                if pivot_locus(rows[i][c]) is None:
                    choice = i
                    break
                if choice is None:
                    choice = i
        if choice is None:
            continue
        rows[r], rows[choice] = rows[choice], rows[r]
        piv = rows[r][c]
        merge_locus(locus, [pivot_locus(piv)])
        inv = piv.inverse()
        if one is None:
            zero = piv * 0
            one = zero + 1
        pivot_row = rows[r]
        nonzero = [j for j, y in enumerate(pivot_row)
                   if j != c and not y.is_zero()]
        for j in nonzero:
            pivot_row[j] = inv * pivot_row[j]
        pivot_row[c] = one
        for i in range(m):
            f = rows[i][c]
            if i != r and not f.is_zero():
                row = rows[i]
                for j in nonzero:
                    row[j] = row[j] - f * pivot_row[j]
                row[c] = zero
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, locus


def rank(rows):
    """Generic rank and the exclusion locus under which it holds."""
    if not rows:
        return 0, []
    _, pivot_cols, locus = rref(rows)
    return len(pivot_cols), locus


def _kernel(red, pivot_cols, n):
    """Kernel basis read off a reduced matrix whose first n columns are in
    reduced row echelon form with the given pivot columns."""
    free = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for fc in free:
        zero = red[0][fc] * 0
        v = [zero] * n
        v[fc] = zero + 1
        for r, pc in enumerate(pivot_cols):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def nullspace(rows):
    """Basis of the (generic) kernel of the matrix; vectors of length n."""
    if not rows:
        return [], []
    red, pivot_cols, locus = rref(rows)
    return _kernel(red, pivot_cols, len(rows[0])), locus


def solve(rows, rhs):
    """One solution of A x = b, or None when inconsistent (generically).

    Returns (particular, kernel_basis, locus).  Pivot choice depends only on
    the column being reduced, so the first n columns of rref([A|b]) are
    rref(A) with the same locus, and the kernel is read off them.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivot_cols, locus = rref(aug)
    if n in pivot_cols:
        return None, [], locus
    x = [rows[0][0] * 0] * n if n else []
    for r, pc in enumerate(pivot_cols):
        x[pc] = red[r][n]
    return x, _kernel(red, pivot_cols, n), locus


def inverse(rows):
    """Exact inverse; raises LinalgError when (generically) singular."""
    n = len(rows)
    zero = rows[0][0] * 0
    one = zero + 1
    aug = [list(r) + [one if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivot_cols, locus = rref(aug)
    if len(pivot_cols) < n or pivot_cols[:n] != list(range(n)):
        raise LinalgError("matrix is singular")
    return [row[n:] for row in red], locus


def in_span(vectors, v):
    """Membership of v in span(vectors): with the vectors and v as columns,
    v is in the span iff its column is not a pivot column."""
    _, pivot_cols, _ = rref(transpose(list(vectors) + [v]))
    return len(vectors) not in pivot_cols
