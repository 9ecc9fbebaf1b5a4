"""Independent routes the benchmark checks the program's outputs against.

Nothing here imports the package: every answer is recomputed from the
paper's closed forms on plain integer tuples, so a wrong output cannot
be confirmed by the code that produced it.
"""

from __future__ import annotations

from itertools import permutations


def one_twist_key(vec) -> tuple:
    """Complete invariant of a one-twist vector: min over S_k of (parities, |products|).

    Two vectors give equivalent towers exactly when some permutation
    matches their parities and the absolute values of all pairwise
    products, so the least such tuple over all permutations is a
    canonical key for the class.
    """
    k = len(vec)
    best = None
    for perm in permutations(vec):
        cand = (tuple(x % 2 for x in perm),
                tuple(abs(perm[i] * perm[j]) for i in range(k) for j in range(i + 1, k)))
        if best is None or cand < best:
            best = cand
    return best


def witness_matches(alpha, beta, sigma) -> bool:
    """Whether sigma sends alpha's slots onto beta's with equal parities and |products|."""
    k = len(alpha)
    if sorted(sigma) != list(range(k)):
        return False
    moved = [alpha[sigma[i]] for i in range(k)]
    if any((moved[i] - beta[i]) % 2 for i in range(k)):
        return False
    return all(abs(moved[i] * moved[j]) == abs(beta[i] * beta[j])
               for i in range(k) for j in range(i + 1, k))


def conjugate_rows(rows, pi) -> list[list[int]]:
    """Relabel stage i as stage pi[i]; entries keep their values."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[pi[i]][pi[j]] = rows[i][j]
    return out


def is_strictly_upper(rows) -> bool:
    return all(rows[i][j] == 0 for i in range(len(rows)) for j in range(i + 1))


def square_pairs(rows, z) -> list[int]:
    """Coefficients of (sum z_i x_i)^2 on x_i x_j, i < j, from x_j^2 = f_j x_j."""
    n = len(z)
    return [2 * z[i] * z[j] + rows[i][j] * z[j] * z[j] for j in range(n) for i in range(j)]


def tower_stratum(rows) -> tuple:
    """Input features that set a tower's certification cost.

    Counts the twisted columns, the odd ones among them, and the even
    ones whose twist form squares to zero over the base, which are the
    stages a greedy reduction can remove first.
    """
    twisted = odd = reducible = 0
    for m in range(1, len(rows)):
        col = [rows[i][m] for i in range(m)]
        if not any(col):
            continue
        twisted += 1
        if any(c % 2 for c in col):
            odd += 1
        elif not any(square_pairs(rows, col)):  # reads only the base block
            reducible += 1
    return twisted, odd, reducible
