"""Matrix moves that preserve the homeomorphism type of a Bott tower.

Two kinds of move are implemented. Reordering the stages along a
permutation is allowed whenever the permutation respects the dependency
order of the twists (entry (i,j) != 0 forces stage i to stay before
stage j). Trivializing a stage removes one nonzero column when the twist
form of that stage is even and squares to zero, at the cost of adjusting
the later columns.
"""

from __future__ import annotations

from .core import BottMatrix, CoeffMode, _check_tower, integer_entries
from .quadratic import _product_vanishes

PERMUTATION_N_MAX = 8


def conjugate(matrix: BottMatrix, perm) -> BottMatrix:
    """Reorder stages: old stage i becomes stage perm[i].

    Raises ValueError when the permutation is inadmissible, i.e. when it
    would move a nonzero entry onto or below the diagonal.
    """
    n = matrix.n
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(matrix.rows):
        for j in range(i + 1, n):
            v = row[j]
            if v == 0:
                continue
            if perm[i] >= perm[j]:
                raise ValueError(
                    f"permutation sends nonzero entry ({i},{j}) to "
                    f"({perm[i]},{perm[j]}), breaking the stage order"
                )
            rows[perm[i]][perm[j]] = v
    return BottMatrix(rows)


def is_admissible(matrix: BottMatrix, perm) -> bool:
    perm = tuple(perm)
    return all(perm[i] < perm[j]
               for j, col in enumerate(matrix.columns)
               for i, v in enumerate(col) if v != 0)


def admissible_permutations(matrix: BottMatrix):
    """Yield every admissible stage permutation of the matrix.

    These are exactly the linear extensions of the dependency order, so
    the count can reach n!; matrices larger than PERMUTATION_N_MAX are refused.
    Output order is deterministic: lexicographic in the sequence of old
    stages listed by new position.
    """
    n = matrix.n
    if n > PERMUTATION_N_MAX:
        raise ValueError(f"refusing to enumerate permutations for n={n} > {PERMUTATION_N_MAX}")
    preds = [[i for i, v in enumerate(col) if v != 0] for col in matrix.columns]
    placed = [False] * n
    order: list[int] = []

    def walk():
        if len(order) == n:
            perm = [0] * n
            for pos, old in enumerate(order):
                perm[old] = pos
            yield tuple(perm)
            return
        for cand in range(n):
            if placed[cand]:
                continue
            if any(not placed[p] for p in preds[cand]):
                continue
            placed[cand] = True
            order.append(cand)
            yield from walk()
            order.pop()
            placed[cand] = False

    yield from walk()


def _check_stage(matrix: BottMatrix, m) -> None:
    """TypeError unless matrix is a BottMatrix and m an int stage index (no bool)."""
    _check_tower(matrix, "matrix")
    if type(m) is not int and (isinstance(m, bool) or not isinstance(m, int)):
        raise TypeError(f"stage index: expected an int, got {type(m).__name__}")


def stage_fibration_trivial(matrix: BottMatrix, m: int, mode: CoeffMode = CoeffMode.INTEGER) -> bool:
    """Whether stage m can be made untwisted by a fiberwise change of coordinates.

    True for an already zero column, and otherwise exactly when the twist
    form f_m is divisible by 2 in the coefficient ring and squares to zero
    over the base of stage m. The entries are ints, so outside Q they are
    even when x % 2 is 0. The square is taken over the base itself: the
    closed-form product of f_m with itself on the first m columns
    (quadratic._product_vanishes). A mode that is already a CoeffMode
    member, an exact int m and a BottMatrix pass their checks at once, so
    the greedy loop pays little for them at every stage.
    """
    if type(m) is not int or not isinstance(matrix, BottMatrix):
        _check_stage(matrix, m)
    if type(mode) is not CoeffMode:
        mode = CoeffMode(mode)
    col = matrix.column(m)
    if not any(col):
        return True
    if not mode.is_field and any(x % 2 for x in col):
        return False
    return _product_vanishes(matrix.columns[:m], col, col)


def trivialize_stage(matrix: BottMatrix, m: int, mode: CoeffMode = CoeffMode.INTEGER):
    """Zero out column m, absorbing the twist into the later columns.

    Applicable when column m is nonzero, the twist form f_m is even in the
    coefficient ring and f_m^2 = 0 over the base of stage m. Substituting
    x_m - f_m/2 for the stage-m generator then kills the column and shifts
    each later column j by (entry (m,j)/2) times column m. Returns the
    rewritten matrix, or None when the move does not apply.

    In rational mode the shift can leave fractional entries; these are
    cleared by rescaling generators, which changes no column's zero/nonzero
    status and keeps the rational ring type.
    """
    _check_stage(matrix, m)
    mode = CoeffMode(mode)
    if matrix.is_zero_column(m) or not stage_fibration_trivial(matrix, m, mode):
        return None
    return _trivialized(matrix, m)[0]


def _trivialized(matrix: BottMatrix, m: int, basis=None):
    """The rewrite of trivialize_stage, for a stage the caller has already checked.

    Returns (rewritten matrix, basis'). Row k of basis, when given, is the
    k-th generator of matrix in some fixed generators; basis' is then the
    same for the rewritten matrix (_moved_basis), and None otherwise.

    The rewritten rows are ints computed from the matrix's own entries,
    and the shift adds to entries (i, j) with i < m < j only, so they stay
    strictly upper triangular and go in unchecked (BottMatrix._trusted).
    An even twist form is halved and each shift added in place. An odd one
    (over Q only) first doubles the entries, so the half-shift stays
    integral, and the result is then halved or rescaled.
    """
    n = matrix.n
    col = matrix.columns[m]
    row_m = matrix.rows[m]
    scale = 1 if all(c % 2 == 0 for c in col) else 2
    if scale == 1:
        rows = [list(row) for row in matrix.rows]
    else:
        rows = [[2 * x for x in row] for row in matrix.rows]
    for i in range(m):
        rows[i][m] = 0
    shift = [scale * c // 2 for c in col]
    for j in range(m + 1, n):
        cmj = row_m[j]
        if cmj:
            for i, h in enumerate(shift):
                if h:
                    rows[i][j] += cmj * h
    denom = 1
    if scale == 2:
        if all(x % 2 == 0 for row in rows for x in row):
            rows = [[x // 2 for x in row] for row in rows]
        else:
            # entries are half-integers: multiplying the generator of stage i
            # by 2**i multiplies entry (i, j) by 2**(j - i)
            rows = [[x * 2 ** (j - i - 1) if j > i else 0 for j, x in enumerate(row)]
                    for i, row in enumerate(rows)]
            denom = 2
    out = BottMatrix._trusted(rows)
    if basis is not None:
        basis = _moved_basis(basis, col, m, scale, denom)
    return out, basis


def _moved_basis(basis, col, m: int, scale: int, denom: int):
    """The generators after the move on stage m with twist form col.

    The move substitutes x_m - f_m/2 for the stage-m generator. An odd
    coefficient of f_m (over Q only) first doubles every generator, which
    keeps every twist form and keeps the rows integral: scale is 2 then
    and 1 otherwise, as _trivialized chose it. Clearing the
    denominator denom then multiplies the generator of stage i by
    denom**i.

    Row m is rewritten with rows i < m only (f_m has length m) and every
    other row is scaled, so a lower triangular basis stays lower
    triangular: row k is supported on indices <= k. Composed from the
    identity, every basis twist_number builds has this shape, which
    analysis._basis_witness asserts before it reads the determinant off
    the diagonal. With scale and denom both 1 (every move over Z and
    Z_(2), and every even twist form over Q) no other row changes: the
    result is a new list holding the new row m and the other rows of
    basis themselves, so the rows are shared and never written to.
    """
    row = [scale * a for a in basis[m]]
    for i, c in enumerate(col):
        if c:
            row = [a - scale * c // 2 * b for a, b in zip(row, basis[i])]
    if scale == denom == 1:
        out = list(basis)
        out[m] = row
        return out
    out = [[scale * a for a in r] for r in basis]
    out[m] = row
    return [[denom ** k * a for a in r] for k, r in enumerate(out)]


def retwist(alpha, w):
    """Replace a final twist alpha over a product base by alpha - 2w.

    Valid exactly when w * (alpha - w) = 0 in the base ring, so that both
    twists present the same total space. The product is taken in closed
    form over the untwisted base (quadratic._product_vanishes).
    Returns the new twist vector, or None when the move does not apply.
    """
    alpha = integer_entries(alpha, "twist vector")
    w = integer_entries(w, "retwist vector")
    if len(alpha) != len(w):
        raise ValueError("alpha and w must have the same length")
    rest = [a - x for a, x in zip(alpha, w)]
    if not _product_vanishes(BottMatrix.zeros(len(alpha)).columns, w, rest):
        return None
    return [a - 2 * x for a, x in zip(alpha, w)]


def normalize_last_twist(matrix: BottMatrix):
    """Rotate the unique nonzero column into the final position.

    Returns (matrix', perm) where perm is the admissible stage cycle used.
    A matrix with no twists is returned unchanged. Raises ValueError when
    more than one column is nonzero.
    """
    n = matrix.n
    cols = matrix.nonzero_columns()
    if len(cols) > 1:
        raise ValueError(f"matrix has {len(cols)} nonzero columns, expected at most one")
    ident = tuple(range(n))
    if not cols or cols[0] == n - 1:
        return matrix, ident
    k = cols[0]
    perm = tuple(j if j < k else (n - 1 if j == k else j - 1) for j in range(n))
    return conjugate(matrix, perm), perm
