"""Exact linear algebra on small integer and rational matrices.

Everything here is dimension <= ~15, so clarity beats asymptotics. A
rational matrix is first cleared to an integer one, row by row, in one
place (_cleared_rows); after that, Bareiss gives determinants and one
integer diagonalization with recorded transforms gives both ranks and
solutions of A x = b over a chosen coefficient ring (Z, Q, or the
2-local integers).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _cleared_rows(rows) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators: (integer rows, scale).

    scale is the product of the row multipliers, so a determinant of the
    integer rows is scale times the original one, while ranks and the
    solution sets of the scaled equations are unchanged. Entries may be
    ints or Fractions; both carry numerator and denominator, so an int
    entry is never converted.
    """
    out = []
    scale = 1
    for row in rows:
        mult = 1
        for x in row:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss, fraction-free)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is guaranteed by the Bareiss identity
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_fraction(rows) -> Fraction:
    """Determinant of a square matrix with int/Fraction entries."""
    ints, scale = _cleared_rows(rows)
    return Fraction(det_int(ints), scale)


def rank_fraction(rows) -> int:
    """Rank over Q of a matrix with int/Fraction entries.

    U and V of the diagonalization are unimodular, so the rank is the
    number of nonzero diagonal entries.
    """
    diag, _, _ = _diagonalize(_cleared_rows(rows)[0])
    return sum(1 for d in diag if d)


def maximal_minors_gcd(rows: list[list[int]]) -> int:
    """gcd of all k x k minors of a k x n integer matrix (0 if all vanish).

    A set of k rows extends to a unimodular n x n matrix exactly when this
    gcd is 1, and to an odd-determinant matrix exactly when it is odd.
    """
    from itertools import combinations

    k = len(rows)
    if k == 0:
        return 1
    n = len(rows[0])
    if k > n:
        return 0
    g = 0
    for cols in combinations(range(n), k):
        minor = det_int([[row[c] for c in cols] for row in rows])
        g = gcd(g, minor)
        if g == 1:
            return 1
    return g


def _diagonalize(mat: list[list[int]]):
    """Integer diagonalization with transforms: returns (diag, U, V).

    mat holds integer rows, as _cleared_rows leaves them. U @ mat @ V is
    diagonal with entries diag (no divisibility chain; enough for solving
    and for the rank, the count of nonzero entries). U, V are unimodular.
    """
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, f):  # row_i -= f * row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for r in a:
            r[i] -= f * r[j]
        for r in v:
            r[i] -= f * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    k = 0
    while k < min(m, n):
        piv = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    piv, best = (i, j), abs(a[i][j])
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    row_op(i, k, q)
                    if a[i][k] != 0:  # remainder becomes the new, smaller pivot
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    col_op(j, k, q)
                    if a[k][j] != 0:
                        swap_cols(k, j)
                        dirty = True
        k += 1
    diag = [a[i][i] for i in range(min(m, n))]
    return diag, u, v


def solve_linear(a_rows, b, value_ok) -> list[Fraction] | None:
    """Solve A x = b with x constrained so every value_ok(x_i) holds.

    Entries of A, b may be ints or Fractions; each equation is cleared to
    integers, which keeps its solutions over any domain, and solved through
    the integer diagonalization. value_ok is the membership test of the
    coefficient ring (always-true for Q, integrality for Z, odd denominator
    for the 2-local integers). Returns one solution or None.
    """
    m = len(a_rows)
    if m == 0:
        return []
    t = len(a_rows[0])
    cleared, _ = _cleared_rows([[*row, rhs] for row, rhs in zip(a_rows, b)])
    a_int = [r[:t] for r in cleared]
    b_int = [r[t] for r in cleared]
    if t == 0:
        return [] if all(x == 0 for x in b_int) else None
    diag, u, v = _diagonalize(a_int)
    c = [sum(u[i][j] * b_int[j] for j in range(m)) for i in range(m)]
    y = [Fraction(0)] * t
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            yi = Fraction(c[i], d)
            if not value_ok(yi):
                return None
            y[i] = yi
    x = [sum(v[i][j] * y[j] for j in range(t)) for i in range(t)]
    if not all(value_ok(xi) for xi in x):
        return None
    return x


def primitive_part(vec: list[int]) -> list[int]:
    """Divide an integer vector by its content (gcd); zero stays zero."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g in (0, 1):
        return list(vec)
    return [x // g for x in vec]
