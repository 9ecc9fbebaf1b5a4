"""Exact linear algebra on small integer and rational matrices.

Everything here is dimension <= ~15, so clarity beats asymptotics. A
rational matrix is first cleared to an integer one, row by row, in one
place (_cleared_rows). After that there are two eliminations. A
fraction-free (Bareiss) row echelon form gives determinants and ranks,
and its entries are minors of the input. Euclid on columns, row by row
(_euclid), gives the rest: solutions of A x = b over a chosen
coefficient ring (Z, Q, or the 2-local integers) from a lower column
echelon that carries its column transform, and gcds of maximal minors
from a column Hermite reduction kept modulo one nonzero maximal minor.
The cofactors of a last row, which give every determinant with that
row as a dot product, come from a table of the minors of the rows above
it, grown one row at a time by Laplace expansion (_expand_minors,
cofactor_vector).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .core import integer_entries


def _cleared_rows(rows) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators: (integer rows, scale).

    scale is the product of the row multipliers, so a determinant of the
    integer rows is scale times the original one, while ranks and the
    solution sets of the scaled equations are unchanged. Entries may be
    ints or Fractions; both carry numerator and denominator, so an int
    entry is never converted. A row of ints alone (type int, so no bool)
    has multiplier 1 and is copied as it stands; every row comes back as
    a new list, which the in-place eliminations may overwrite.
    """
    out = []
    scale = 1
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        mult = 1
        for x in row:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def _echelon(a: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) row echelon form of integer rows, in place: (rank, sign).

    sign is that of the row swaps. Every entry is a minor of the input, so
    each division is exact and nothing outgrows the minors. A square
    matrix of full rank ends with sign * det as its last pivot.
    """
    m, t = len(a), len(a[0]) if a else 0
    sign = prev = 1
    r = 0
    for c in range(t):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        for row in a[r + 1:]:
            f = row[c]
            for j in range(c + 1, t):
                # exact division is guaranteed by the Bareiss identity
                row[j] = (row[j] * top[c] - f * top[j]) // prev
            row[c] = 0
        prev = top[c]
        r += 1
    return r, sign


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss, fraction-free).

    Every entry must be an int: a bool or any other type (a Fraction, a
    float) raises TypeError naming it, since reading 1/2 as 0 or 1.7 as 1
    would answer for another matrix.
    """
    return _det_in_place([list(integer_entries(r, "det_int")) for r in rows])


def det_fraction(rows) -> Fraction:
    """Determinant of a square matrix with int/Fraction entries.

    The rows are cleared to integers once (_cleared_rows, which returns new
    lists), and those are eliminated in place, so the input is never
    written to: the determinant is that of the cleared rows over their
    scale.
    """
    ints, scale = _cleared_rows(rows)
    return Fraction(_det_in_place(ints), scale)


def _det_in_place(a: list[list[int]]) -> int:
    """The determinant of square integer rows, eliminating them in place (_echelon)."""
    n = len(a)
    if n == 0:
        return 1
    rank, sign = _echelon(a)
    return sign * a[n - 1][n - 1] if rank == n else 0


def _expand_minors(minors: dict, row: list[int]) -> dict:
    """The nonzero minors of the rows so far and one more integer row, by Laplace expansion.

    minors maps each column set (a bit mask) to the nonzero minor of the
    rows so far on those columns, {0: 1} before any row. Expanding along
    the new row gives each minor on one more column: at most
    len(row) * len(minors) products, and none for a zero entry. Zero
    minors are dropped, so the result is empty exactly when the new row
    lies in the span over Q of the rows before it.
    """
    nxt: dict = {}
    for s, x in enumerate(row):
        if x:
            bit = 1 << s
            for cols, m in minors.items():
                if not cols & bit:
                    # the sign counts the columns of cols right of column s
                    term = -x * m if (cols >> s).bit_count() % 2 else x * m
                    nxt[cols | bit] = nxt.get(cols | bit, 0) + term
    return {cols: m for cols, m in nxt.items() if m}


def cofactor_vector(rows) -> list:
    """c with det(rows + [w]) = sum_j c_j w_j for every w, given n - 1 rows of length n.

    c_j is the cofactor of entry j of the last row: (-1)^(n-1+j) times the
    minor of rows without column j, so one call answers the determinant
    for every last row by a dot product. The minors of the cleared integer
    rows (_cleared_rows) are built one row at a time by _expand_minors,
    the step the witness search takes as it places each row: at most
    n 2^(n-1) products in all. c is integral when every row is, and
    otherwise Fractions over the clearing scale. It is zero exactly when
    the rows are dependent. Rows of ints, as the witness search over Z
    places them, are read as they stand (_cleared_rows) and left
    unchanged.
    """
    ints, scale = _cleared_rows(rows)
    minors = {0: 1}
    for row in ints:
        minors = _expand_minors(minors, row)
    return _cofactors(minors, len(ints) + 1, scale)


def _cofactors(minors: dict, n: int, scale: int) -> list:
    """The cofactor vector of n - 1 rows from the table of their minors (_expand_minors).

    The rows were cleared to integers with the product of multipliers
    scale, so each minor is divided by it: ints when scale is 1,
    Fractions otherwise.
    """
    full = (1 << n) - 1
    c = [(-1) ** (n - 1 + j) * minors.get(full ^ (1 << j), 0) for j in range(n)]
    return c if scale == 1 else [Fraction(x, scale) for x in c]


def rank_fraction(rows) -> int:
    """Rank over Q of a matrix with int/Fraction entries: its pivots in echelon form."""
    return _echelon(_cleared_rows(rows)[0])[0]


def maximal_minors_gcd(rows: list[list[int]]) -> int:
    """gcd of all k x k minors of a k x n integer matrix (0 if all vanish).

    A set of k rows extends to a unimodular n x n matrix exactly when this
    gcd is 1, and to an odd-determinant matrix exactly when it is odd.
    By Cauchy-Binet, unimodular column operations keep the gcd of the
    maximal minors, so at rank k it is the index of the column lattice,
    which _lattice_index computes with entries bounded by one minor.
    """
    k = len(rows)
    if k == 0:
        return 1
    if k > len(rows[0]):
        return 0
    a = [list(r) for r in rows]
    rank, _ = _echelon(a)
    if rank < k:
        return 0
    # the last Bareiss pivot is a nonzero maximal minor
    return _lattice_index(rows, abs(next(filter(None, a[k - 1]))))


def _lattice_index(rows: list[list[int]], det: int) -> int:
    """Index in Z^k of the lattice spanned by the columns of k integer rows.

    det is a nonzero maximal minor, so the lattice L holds det times each
    unit vector (adjugate). The index is the gcd of the maximal minors. It
    comes from a column Hermite reduction whose entries are reduced mod an
    R such that R Z^k lies in L (first R = det) before and after each row,
    so nothing outgrows what one row's Euclid makes of entries below det.
    Row by row, Euclid on the columns leaves one pivot entry x, and the
    projection of L onto that coordinate is d Z with d = gcd(x, R): a
    factor d of the index. The vectors of L with that coordinate zero form
    a lattice of index (index / d), which divides R / d, so they are
    spanned by the other columns and (R / d) Z^(k-1), and the reduction
    goes on with those columns mod R / d.
    """
    r = det
    cols = [[x % r for x in col] for col in zip(*rows)]
    index = 1
    for i in range(len(rows)):
        if r == 1:
            break
        piv = _euclid(cols, i)
        d = r
        if piv is not None:
            cols.remove(piv)
            d = gcd(piv[i], r)
        index *= d
        r //= d
        cols = [[x % r for x in c] for c in cols]
    return index


def _euclid(cols: list[list[int]], i: int) -> list[int] | None:
    """Euclid on entry i of integer columns, in place: the one left nonzero there, or None.

    While two columns are nonzero at i, each takes away its floor quotient
    times the one with the smallest |entry i|. These unimodular column
    operations leave a column that is zero at i untouched.
    """
    while True:
        live = [c for c in cols if c[i]]
        if len(live) < 2:
            return live[0] if live else None
        piv = min(live, key=lambda c: abs(c[i]))
        for c in live:
            if c is not piv:
                f = c[i] // piv[i]
                c[:] = [x - f * y for x, y in zip(c, piv)]


def solve_linear(a_rows, b, value_ok) -> list[Fraction] | None:
    """Solve A x = b with x constrained so every value_ok(x_i) holds.

    Entries of A, b may be ints or Fractions; each equation is cleared to
    integers, which keeps its solutions over any domain. Each column of
    the cleared A carries its column of V below it, V starting as the
    identity, and Euclid on the columns, row by row, makes A V = L lower
    echelon with V unimodular. Forward substitution in L y = b fixes y on
    the pivot columns; the other y are 0, and every row without a pivot
    must then hold as it stands. value_ok is the membership test of the
    coefficient ring (always-true for Q, integrality for Z, odd
    denominator for the 2-local integers). Since V and its inverse are
    integral, x = V y lies in the ring exactly when y does, so a solution
    is missed in none of the three. Returns one solution or None.
    """
    m = len(a_rows)
    t = len(a_rows[0]) if m else 0
    cleared, _ = _cleared_rows([[*row, rhs] for row, rhs in zip(a_rows, b)])
    free = [[r[j] for r in cleared] + [int(i == j) for i in range(t)] for j in range(t)]
    pivots, y = [], []
    for i in range(m):
        piv = _euclid(free, i)
        c = cleared[i][t] - sum(p[i] * yk for p, yk in zip(pivots, y))
        if piv is not None:
            free.remove(piv)
            yk = Fraction(c, piv[i])
            if not value_ok(yk):
                return None
            pivots.append(piv)
            y.append(yk)
        elif c != 0:
            return None
    x = [sum((p[m + j] * yk for p, yk in zip(pivots, y)), Fraction(0)) for j in range(t)]
    if not all(value_ok(xi) for xi in x):
        return None
    return x

