"""Recognition of Bott towers among quasitoric characteristic matrices.

Characteristic matrices over the cube are taken as square integer
matrices, one row per facet pair, well defined up to row sign. They are
normalized to a +1 diagonal; a zero diagonal entry cannot be normalized
and fails validation. A normalized matrix is characteristic when every
principal minor is +1 or -1, and describes a Bott tower exactly when its
off-diagonal support is acyclic, in which case reordering stages by any
topological order and subtracting the identity yields the Bott matrix.
"""

from __future__ import annotations

from itertools import combinations

from .core import BottMatrix, integer_entries
from .linalg import det_int


def normalize_characteristic(rows):
    """Flip row signs to put +1 on the diagonal; None when a diagonal entry is not +1 or -1."""
    mat = [integer_entries(row, f"row {i}") for i, row in enumerate(rows)]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("characteristic matrix must be square")
    out = []
    for i, row in enumerate(mat):
        d = row[i]
        if d not in (1, -1):
            return None
        out.append([x if d == 1 else -x for x in row])
    return out


def principal_minor(rows, subset) -> int:
    sub = [[rows[i][j] for j in subset] for i in subset]
    return det_int(sub)


def validate_characteristic(rows, n_max: int = 12) -> bool:
    """All principal minors are +1 or -1 (checked on the normalized matrix)."""
    mat = normalize_characteristic(rows)
    if mat is None:
        return False
    n = len(mat)
    if n > n_max:
        raise ValueError(f"refusing principal-minor scan for n={n} > {n_max}")
    for k in range(2, n + 1):
        for subset in combinations(range(n), k):
            if principal_minor(mat, subset) not in (1, -1):
                return False
    return True


def is_bott(rows):
    """Decide whether the characteristic matrix comes from a Bott tower.

    Requires validate_characteristic. Builds the digraph with an edge
    i -> j for each nonzero off-diagonal entry and returns
    (True, stage permutation) for a topological order, or (False, None)
    on a cycle. Accepted matrices are additionally checked against the
    two structural necessities: opposite off-diagonal entries never both
    nonzero, and every principal minor is exactly +1.
    """
    if not validate_characteristic(rows):
        raise ValueError("input is not a valid characteristic matrix")
    mat = normalize_characteristic(rows)
    n = len(mat)
    order = []
    placed = [False] * n
    while len(order) < n:
        pick = None
        for cand in range(n):
            if placed[cand]:
                continue
            if all(placed[i] or mat[i][cand] == 0 for i in range(n) if i != cand):
                pick = cand
                break
        if pick is None:
            return False, None
        placed[pick] = True
        order.append(pick)
    sigma = [0] * n
    for pos, old in enumerate(order):
        sigma[old] = pos
    for i in range(n):
        for j in range(n):
            if i != j and mat[i][j] * mat[j][i] != 0:
                raise AssertionError("acyclic support cannot have opposite nonzero entries")
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            if principal_minor(mat, subset) != 1:
                raise AssertionError("accepted matrix has a principal minor != +1")
    return True, tuple(sigma)


def to_bott_matrix(rows, sigma) -> BottMatrix:
    """Reorder stages by sigma and subtract the identity."""
    mat = normalize_characteristic(rows)
    if mat is None:
        raise ValueError("input is not normalizable to a unit diagonal")
    n = len(mat)
    conj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            conj[sigma[i]][sigma[j]] = mat[i][j]
    for i in range(n):
        conj[i][i] -= 1
    return BottMatrix(conj)


def from_bott_matrix(matrix: BottMatrix):
    """Normalized characteristic matrix of the tower: the Bott matrix plus identity."""
    rows = matrix.to_lists()
    for i in range(matrix.n):
        rows[i][i] = 1
    return rows
