"""Recognition of Bott towers among quasitoric characteristic matrices.

Characteristic matrices over the cube are taken as square integer
matrices, one row per facet pair, well defined up to row sign. They are
normalized to a +1 diagonal; a zero diagonal entry cannot be normalized
and fails validation. A normalized matrix is characteristic when every
principal minor is +1 or -1. It describes a Bott tower exactly when its
off-diagonal support is acyclic: reordered by a topological order it is
unitriangular, so it is characteristic with every principal minor +1 and
no minor scan runs, and subtracting the identity yields the Bott matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from .core import BottMatrix, integer_entries
from .linalg import det_int

MINOR_SCAN_N_MAX = 12


def normalize_characteristic(rows):
    """Flip row signs to put +1 on the diagonal; None when a diagonal entry is not +1 or -1."""
    mat = [integer_entries(row, f"row {i}") for i, row in enumerate(rows)]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("characteristic matrix must be square")
    if any(row[i] not in (1, -1) for i, row in enumerate(mat)):
        return None
    return [list(row) if row[i] == 1 else [-x for x in row] for i, row in enumerate(mat)]


def principal_minor(rows, subset) -> int:
    sub = [[rows[i][j] for j in subset] for i in subset]
    return det_int(sub)


def _stage_order(mat):
    """Topological order of the support of a normalized matrix; None on a cycle.

    Edges i -> j are the nonzero off-diagonal entries, and each position
    takes the least unplaced stage all of whose predecessors are placed,
    found by keeping each stage's count of unplaced predecessors, in
    O(n^2) time. Reordered by it, the matrix is unitriangular: an entry
    (i, j) would break that exactly when j was placed before i, so the
    placement loop asserts that no placed stage has a nonzero entry
    towards an earlier placed one.
    """
    n = len(mat)
    # nonzero entries in each column, less the diagonal 1; placing a stage
    # decrements its row's support, its own diagonal included, so a placed
    # stage counts -1 and the least stage counting 0 is the next to place
    indegree = [n - 1 - col.count(0) for col in zip(*mat)]
    sigma = [None] * n
    for pos in range(n):
        try:
            cand = indegree.index(0)
        except ValueError:
            return None
        sigma[cand] = pos
        for j, x in enumerate(mat[cand]):
            if x:
                if j != cand and sigma[j] is not None:
                    raise AssertionError("stage order leaves a nonzero entry below the diagonal")
                indegree[j] -= 1
    return tuple(sigma)


def _recognition(rows):
    """(normalized matrix, characteristic, sigma); see recognize.

    The matrix is None when the rows cannot be normalized.
    """
    mat = normalize_characteristic(rows)
    if mat is None:
        return None, False, None
    sigma = _stage_order(mat)
    if sigma is not None:
        return mat, True, sigma
    n = len(mat)
    if n > MINOR_SCAN_N_MAX:
        raise ValueError(f"refusing principal-minor scan for n={n} > {MINOR_SCAN_N_MAX}")
    return mat, all(principal_minor(mat, subset) in (1, -1)
                    for k in range(2, n + 1) for subset in combinations(range(n), k)), None


def recognize(rows):
    """(characteristic, sigma) from one normalization and one stage order.

    sigma is the stage order of an acyclic support, which proves every
    principal minor +1, and None otherwise. Only a cyclic support is
    scanned, each minor once, and only that scan is refused above
    MINOR_SCAN_N_MAX (ValueError).
    """
    _, valid, sigma = _recognition(rows)
    return valid, sigma


def validate_characteristic(rows) -> bool:
    """All principal minors are +1 or -1 (checked on the normalized matrix); see recognize."""
    return recognize(rows)[0]


def is_bott(rows):
    """(True, stage permutation) for a Bott tower, (False, None) on a cycle; see recognize.

    An invalid characteristic matrix raises ValueError.
    """
    valid, sigma = recognize(rows)
    if not valid:
        raise ValueError("input is not a valid characteristic matrix")
    return sigma is not None, sigma


def to_bott_matrix(rows, sigma) -> BottMatrix:
    """Reorder stages by sigma (stage i moves to sigma[i]) and subtract the identity.

    sigma is the caller's, so it is checked: anything but a sequence of
    ints (not bools) whose sorted values are range(n) raises ValueError,
    and so does a permutation that leaves a nonzero entry on or below the
    diagonal, which the constructor rejects.
    """
    mat = normalize_characteristic(rows)
    if mat is None:
        raise ValueError("input is not normalizable to a unit diagonal")
    if not (isinstance(sigma, Sequence)
            and all(isinstance(s, int) and not isinstance(s, bool) for s in sigma)
            and sorted(sigma) == list(range(len(mat)))):
        raise ValueError(f"sigma {sigma!r} is not a permutation of range({len(mat)})")
    return BottMatrix(_reordered_rows(mat, sigma))


def _reordered_rows(mat, sigma) -> list[list[int]]:
    """The rows of mat with stage i moved to sigma[i], minus the identity.

    For sigma = _stage_order(mat) these are the rows of to_bott_matrix,
    with no check: _stage_order asserts that the support reordered by
    sigma is unitriangular, so they are strictly upper triangular. The
    CLI prints them as they are, without building the tower.
    """
    n = len(mat)
    conj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            conj[sigma[i]][sigma[j]] = mat[i][j]
    for i in range(n):
        conj[i][i] -= 1
    return conj


def from_bott_matrix(matrix: BottMatrix):
    """Normalized characteristic matrix of the tower: the Bott matrix plus identity."""
    rows = matrix.to_lists()
    for i in range(matrix.n):
        rows[i][i] = 1
    return rows
