"""Twist minimization and graded ring isomorphism for Bott towers.

Three questions are answered here. How many twisted stages does a tower
really need (twist_number, reduced greedily by trivializing stages)?
What is the true minimum over every unit change of basis
(complexity_oracle, a certified search that does not trust the greedy
route)? And are two cohomology rings isomorphic as graded rings over the
chosen coefficients (ring_isomorphic, three-valued)?

A change of basis is encoded by its matrix B: row k lists the
coefficients of the k-th new degree-2 generator in the old generators.
Valid presentations require each new generator y_k to satisfy
y_k^2 = g_k y_k with g_k in the span of the earlier rows, and B to be
invertible over the coefficient ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import BottMatrix, BottRing, CoeffMode, CoeffRing
from .linalg import det_fraction, maximal_minors_gcd, rank_fraction, solve_linear
from .moves import trivialize_stage, stage_fibration_trivial
from .quadratic import (
    line_product_pairs,
    line_square_pairs,
    primitive_rows_box,
    square_zero_lines,
    twisted_row_solutions,
)


def _value_ok(mode: CoeffMode):
    if mode is CoeffMode.INTEGER:
        return lambda f: f.denominator == 1
    if mode is CoeffMode.TWO_LOCAL:
        return lambda f: f.denominator % 2 == 1
    return lambda f: True


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError(f"box bound must be at least 1, got {bound}")


def find_reducible_stage(matrix: BottMatrix, mode: CoeffMode = CoeffMode.INTEGER):
    """Highest twisted stage whose twist form is even and squares to zero."""
    for m in reversed(range(matrix.n)):
        if not matrix.is_zero_column(m) and stage_fibration_trivial(matrix, m, mode):
            return m
    return None


@dataclass
class TwistReport:
    twist: int
    witness_moves: tuple
    final_matrix: BottMatrix
    certified_minimal: bool
    oracle: "ComplexityReport | None"
    budget_exhausted: bool


def twist_number(matrix: BottMatrix, mode: CoeffMode = CoeffMode.INTEGER,
                 certify: bool = False, bound: int = 2,
                 certify_n_max: int = 5) -> TwistReport:
    """Greedy twist count: trivialize reducible stages until none remain.

    Each trivialization removes one nonzero column and never creates a new
    one, so the loop terminates. With certify=True the result is checked
    against the independent minimum found by complexity_oracle; towers
    taller than certify_n_max skip the oracle and come back uncertified
    with budget_exhausted set.
    """
    cur = matrix
    moves = []
    while True:
        m = find_reducible_stage(cur, mode)
        if m is None:
            break
        cur = trivialize_stage(cur, m, mode)
        moves.append({"stage": m, "matrix": cur.to_lists()})
    value = cur.twist_count()
    oracle = None
    certified = False
    exhausted = False
    if certify:
        _check_bound(bound)
        if matrix.n > certify_n_max:
            exhausted = True
        else:
            oracle = complexity_oracle(matrix, mode, bound=bound)
            certified = oracle.certified and oracle.value == value
            exhausted = not certified
    return TwistReport(twist=value, witness_moves=tuple(moves), final_matrix=cur,
                       certified_minimal=certified, oracle=oracle,
                       budget_exhausted=exhausted)


@dataclass
class ComplexityReport:
    value: int
    lower_bound: int
    certified: bool
    witness: dict | None
    mode: CoeffMode
    bound: int


def complexity_oracle(matrix: BottMatrix, mode: CoeffMode = CoeffMode.INTEGER,
                      bound: int = 2) -> ComplexityReport:
    """Minimal twist count over unit changes of basis, by direct search.

    Generators with zero twist form square to zero, so they must sit on
    the square-zero lines; a basis with n - s such rows needs a line
    subset of size n - s that extends to a unit-determinant matrix. That
    gives the lower bound. The search then tries s = lower bound upward:
    pick a line subset, complete it with rows from a coefficient box,
    placing a row only when its square lies in the span of the placed
    rows times itself. Every primitive row of the box [-bound, bound]^n
    is a candidate: w^2 = g w always has the solution g = w, so no row
    can be ruled out before the span is known. The identity basis always
    succeeds at the tower's own twist count, so the scan terminates for
    any bound >= 1. certified means the value met the lower bound;
    otherwise it is only an upper bound at this box bound.
    """
    _check_bound(bound)
    n = matrix.n
    lines = square_zero_lines(matrix)
    unit = CoeffRing(mode).is_unit
    best = 0
    for k in range(len(lines), 0, -1):
        if any(unit(maximal_minors_gcd(sub)) for sub in combinations(lines, k)):
            best = k
            break
    lower = n - best
    pool = primitive_rows_box(n, bound)
    for s in range(lower, n + 1):
        witness = _presentation_search(matrix, mode, lines, pool, s)
        if witness is not None:
            return ComplexityReport(value=s, lower_bound=lower,
                                    certified=(s == lower), witness=witness,
                                    mode=mode, bound=bound)
    raise AssertionError("identity fallback should have terminated the scan")


def _presentation_search(matrix, mode, lines, pool, s):
    """First unit basis of need = n - s line rows plus s rows from the pool.

    Each completion is placed greedily: a row goes in once its square lies
    in the span of the placed rows times itself. The first placement is
    always solved against the bare base, so for each base that solve is
    memoized by w across all completions; cached solutions are never
    mutated.
    Deeper prefixes are not memoized: at s >= 2 the table would grow
    toward |pool|^2 entries for little gain.
    """
    n = matrix.n
    need = n - s
    if need > len(lines) or need < 0:
        return None
    ok = _value_ok(mode)
    unit = CoeffRing(mode).is_unit
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for base in combinations(lines, need):
        if not unit(maximal_minors_gcd(base)):
            continue
        first: dict = {}
        for completion in combinations(pool, s):
            placed = [tuple(r) for r in base]
            twists = [None] * s
            remaining = list(range(s))
            ordered = []
            while remaining:
                progressed = False
                for idx in list(remaining):
                    w = completion[idx]
                    if ordered:
                        sol = _span_twist_solve(matrix, placed, w, ok, pairs)
                    elif w in first:
                        sol = first[w]
                    else:
                        sol = first[w] = _span_twist_solve(matrix, placed, w, ok, pairs)
                    if sol is not None:
                        twists[len(ordered)] = sol
                        ordered.append(w)
                        placed.append(tuple(w))
                        remaining.remove(idx)
                        progressed = True
                        break
                if not progressed:
                    break
            if remaining:
                continue
            det = det_fraction([list(r) for r in placed])
            if not unit(det):
                continue
            twist_rows = []
            actual = 0
            for pos, coeffs in enumerate(twists):
                full = [Fraction(0)] * n
                for q, c in enumerate(coeffs):
                    full[q] = c
                twist_rows.append(full)
                if any(coeffs):
                    actual += 1
            if actual != s:
                raise AssertionError("ascending scan found fewer twists than targeted")
            return {
                "basis": [list(r) for r in placed],
                "zero_rows": need,
                "twist_coefficients": twist_rows,
                "det": det,
            }
    return None


def _span_twist_solve(matrix, placed, w, ok, pairs):
    """Coefficients t with w^2 = (sum t_q placed_q) w, or None."""
    sq = line_square_pairs(matrix, w)
    rows = []
    for p in pairs:
        rows.append([Fraction(line_product_pairs(matrix, r, w).get(p, 0)) for r in placed])
    rhs = [Fraction(sq.get(p, 0)) for p in pairs]
    if not placed:
        return [] if not any(rhs) else None
    return solve_linear(rows, rhs, ok)


@dataclass
class IsoReport:
    isomorphic: bool | None
    witness: dict | None
    reason: str
    complete: bool
    mode: CoeffMode
    moduli_checked: tuple


# Largest scan, in vectors per row, allowed for an odd modulus q: q**n must
# not exceed it. It equals 8**4, the mod-8 scan at height 4.
ODD_SCAN_LIMIT = 8 ** 4


def _odd_primes(value: int) -> set:
    """Odd primes dividing a nonzero integer, by trial division."""
    value, primes, d = abs(value), set(), 2
    while d * d <= value:
        while value % d == 0:
            primes.add(d)
            value //= d
        d += 1
    if value > 1:
        primes.add(value)
    primes.discard(2)
    return primes


def _iso_moduli(a: BottMatrix, b: BottMatrix, mode: CoeffMode):
    """Moduli to check before the witness search and after it, in order."""
    if mode is CoeffMode.RATIONAL:
        return (), ()
    if mode is CoeffMode.TWO_LOCAL:
        return (2, 4), (8,)
    n = a.n
    entries = [t.entry(i, j) for t in (a, b) for j in range(n) for i in range(j)]
    primes = set().union(*(_odd_primes(e) for e in entries if e))
    odd = sorted(q for p in primes for q in (p, p * p) if q ** n <= ODD_SCAN_LIMIT)
    return (2, 4, *odd), (8,)


def ring_isomorphic(a: BottMatrix, b: BottMatrix, mode: CoeffMode = CoeffMode.INTEGER,
                    bound: int = 2) -> IsoReport:
    """Decide graded ring isomorphism over the chosen coefficients.

    True comes with a verified change of basis. False only ever comes
    from a sound obstruction: a square-zero line invariant, a finite
    quotient with no unit change of basis (integer-like modes), or an
    exhaustive witness search. When the search had to sample an infinite
    family and found nothing, the answer is None rather than a guess.

    The cheap finite quotients run first: mod 2, mod 4, then (integer
    mode only) mod p and mod p^2 in ascending order for every odd prime p
    dividing a nonzero entry of either tower, keeping a modulus q only
    while q^n <= ODD_SCAN_LIMIT. Then comes the witness search in both
    directions, and mod 8 after a search that was not exhaustive. Over
    Z_(2) odd primes are units, so only 2, 4 and 8 apply; over Q no
    quotient applies.

    Soundness of a quotient mod q: H*(M; Z) is free, so H*(M; Z/q) is
    H*(M; Z) tensored with Z/q. A change of basis in GL_n(Z) therefore
    reduces mod q to rows that satisfy the relations mod q and whose
    determinant is a unit mod q, i.e. nonzero mod the prime p dividing
    q. When no such rows exist no integral isomorphism exists either.
    The same holds over Z_(2) for powers of 2.
    """
    if a.n != b.n:
        return IsoReport(False, None, "stage count differs", True, mode, ())
    la, lb = square_zero_lines(a), square_zero_lines(b)
    if len(la) != len(lb):
        return IsoReport(False, None, "square-zero line count differs", True, mode, ())
    if rank_fraction([list(v) for v in la]) != rank_fraction([list(v) for v in lb]):
        return IsoReport(False, None, "square-zero span rank differs", True, mode, ())
    before, after = _iso_moduli(a, b, mode)
    checked = []

    def obstructed(moduli):
        for m in moduli:
            checked.append(m)
            if not modular_iso_exists(a, b, m):
                return IsoReport(False, None, f"no unit change of basis mod {m}",
                                 True, mode, tuple(checked))
        return None

    report = obstructed(before)
    if report is not None:
        return report
    rows1, ex1 = _dfs_direction(a, b, mode, bound)
    if rows1 is not None:
        witness = _verified_witness(a, b, rows1, mode, "second_into_first")
        return IsoReport(True, witness, "witness verified", True, mode, tuple(checked))
    rows2, ex2 = _dfs_direction(b, a, mode, bound)
    if rows2 is not None:
        witness = _verified_witness(b, a, rows2, mode, "first_into_second")
        return IsoReport(True, witness, "witness verified", True, mode, tuple(checked))
    if ex1 or ex2:
        return IsoReport(False, None, "exhaustive search found no unit change of basis",
                         True, mode, tuple(checked))
    report = obstructed(after)
    if report is not None:
        return report
    return IsoReport(None, None,
                     "no witness within bound and no obstruction found",
                     False, mode, tuple(checked))


def _verified_witness(host, target, rows, mode, direction):
    """Replay the candidate change of basis through the full ring engine."""
    ring = BottRing(host, mode)
    elems = [ring.line_element(r) for r in rows]
    for k in range(target.n):
        u = ring.zero()
        for i in range(k):
            u = u + target.entry(i, k) * elems[i]
        if not (elems[k] * elems[k] - u * elems[k]).is_zero():
            raise AssertionError("witness failed relation replay")
    det = det_fraction([list(r) for r in rows])
    if not CoeffRing(mode).is_unit(det):
        raise AssertionError("witness determinant is not a unit")
    return {"direction": direction, "rows": [list(r) for r in rows], "det": det}


def _dfs_direction(host: BottMatrix, target: BottMatrix, mode: CoeffMode, bound: int):
    """Search rows mapping target's generators into host's ring.

    Returns (rows, exhaustive). Row k solves w^2 = u w for u the image of
    target's twist form; the per-row solution sets are exact, so the only
    completeness loss is interior sampling of affine families, tracked in
    the exhaustive flag. Families reaching the final row are resolved
    exactly through the linearity of the determinant in one row.
    """
    n = host.n
    lines = square_zero_lines(host)
    sample = max(bound, 3)
    state = {"exhaustive": True}
    rows: list = []

    def candidates(k):
        u = tuple(sum(target.entry(i, k) * rows[i][c] for i in range(k)) for c in range(n))
        sols = twisted_row_solutions(host, u, mode, lines=lines)
        if not sols.exhaustive:
            state["exhaustive"] = False
        cands = list(sols.finite)
        if k < n - 1:
            if sols.families:
                state["exhaustive"] = False
            for w0, step in sols.families:
                for t in range(-sample, sample + 1):
                    w = tuple(a + t * b for a, b in zip(w0, step))
                    if any(w) and w not in cands:
                        cands.append(w)
        else:
            for fam in sols.families:
                for w in _final_family_rows(rows, fam, mode):
                    if w not in cands:
                        cands.append(w)
        cands.sort(key=lambda w: (sum(abs(Fraction(x)) for x in w), [Fraction(x) for x in w]))
        return cands

    def rec(k):
        if k == n:
            det = det_fraction([list(r) for r in rows])
            return CoeffRing(mode).is_unit(det)
        for w in candidates(k):
            if rank_fraction([list(r) for r in rows] + [list(w)]) != k + 1:
                continue
            rows.append(w)
            if rec(k + 1):
                return True
            rows.pop()
        return False

    if rec(0):
        return [tuple(r) for r in rows], True
    return None, state["exhaustive"]


def _final_family_rows(rows, fam, mode: CoeffMode):
    """Exact unit-determinant members of a family w0 + t*step in the last row.

    The determinant is linear in the free row: det = A + t C with
    A = det(rows, w0) and C = det(rows, step), so each mode reduces to a
    congruence or a linear equation in t.
    """
    w0, step = fam
    A = det_fraction([list(r) for r in rows] + [list(w0)])
    C = det_fraction([list(r) for r in rows] + [list(step)])
    out = []

    def emit(t):
        w = tuple(a + t * b for a, b in zip(w0, step))
        if any(w):
            out.append(w)

    if mode is CoeffMode.INTEGER:
        for target in (1, -1):
            if C != 0:
                t = Fraction(target - A, 1) / C
                if t.denominator == 1:
                    emit(int(t))
            elif A == target:
                emit(0)
                emit(1)
    elif mode is CoeffMode.TWO_LOCAL:
        a_, c_ = Fraction(A), Fraction(C)
        if a_.denominator != 1 or c_.denominator != 1:
            raise AssertionError("2-local family rows should be integral")
        ai, ci = int(a_), int(c_)
        if ci == 0:
            if ai % 2 == 1:
                emit(0)
                emit(1)
        elif ci % 2 == 1:
            t0 = (1 - ai) % 2
            for t in (t0, t0 + 2, t0 - 2):
                emit(t)
        elif ai % 2 == 1:
            emit(0)
            emit(1)
    else:
        for t in (0, 1, -1, 2):
            if A + t * C != 0:
                emit(Fraction(t))
                break
    return out


def square_zero_row_constraints(matrix: BottMatrix, row) -> bool:
    """Whether a change-of-basis row that must square to zero really does.

    Coefficientwise this is 2 b_j b_i = -b_j^2 c[i][j] for every i < j,
    the constraint any isomorphism imposes on rows whose image generator
    carries no twist form.
    """
    return not line_square_pairs(matrix, row)


def even_block_forces_even_det(rows, row_idx, col_idx) -> bool:
    """Determinant parity cut: an all-even r x t block with r + t > n.

    Every permutation product must then pick at least one entry from the
    block, so the determinant is even. Returns True when the rule applies
    to the given index sets, False when it is silent (not a parity claim
    about the determinant itself).
    """
    n = len(rows)
    if len(row_idx) + len(col_idx) <= n:
        return False
    return all(rows[i][j] % 2 == 0 for i in row_idx for j in col_idx)


def _prime_of(modulus: int) -> int:
    """The prime p with modulus = p^k for some k >= 1, else ValueError."""
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    p = next(d for d in range(2, modulus + 1) if modulus % d == 0)
    rest = modulus
    while rest % p == 0:
        rest //= p
    if rest != 1:
        raise ValueError(f"modulus must be a prime power, got {modulus}")
    return p


def modular_iso_exists(a: BottMatrix, b: BottMatrix, modulus: int) -> bool:
    """Whether b's presentation maps into a's ring over Z/modulus with unit det.

    modulus is a prime power p^k (anything else raises ValueError). A
    determinant is a unit mod p^k exactly when it is nonzero mod p, so
    the placed rows are kept in an echelon form mod p, pushed when a row
    is placed and popped on backtrack; a row is placed only when it is
    independent mod p of the earlier ones, so reaching the last row
    already guarantees invertibility. Candidate rows for a twist image u
    are generated coordinate by coordinate, because the relation for the
    pair (i, j) involves only w_i, w_j and u; they come out in the
    lexicographic order of product(range(modulus), repeat=n) and are
    memoized by u. A failure is a sound obstruction for the integral
    question and, for powers of 2, for the 2-local one.
    """
    p = _prime_of(modulus)
    n = a.n
    if n != b.n:
        return False
    c = [[a.entry(i, j) for j in range(n)] for i in range(n)]
    twist = [b.column(k) for k in range(n)]
    memo: dict = {}
    rows: list = []
    echelon: list = []

    def candidates(u):
        out = []
        w = [0] * n

        def fill(j):
            if j == n:
                out.append(tuple(w))
                return
            uj = u[j]
            for x in range(modulus):
                # pair (i, j): 2 w_i w_j + c_ij w_j^2 - u_i w_j - u_j w_i - c_ij u_j w_j = 0,
                # factored in x = w_j
                for i in range(j):
                    if (x * (2 * w[i] + c[i][j] * (x - uj) - u[i]) - uj * w[i]) % modulus:
                        break
                else:
                    w[j] = x
                    fill(j + 1)

        fill(0)
        return out

    def reduced(w):
        v = [x % p for x in w]
        for piv, r in echelon:
            f = v[piv]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, r)]
        return v

    def rec(k):
        if k == n:
            return True
        u = tuple(sum(t * r[col] for t, r in zip(twist[k], rows)) % modulus
                  for col in range(n))
        if u not in memo:
            memo[u] = candidates(u)
        for w in memo[u]:
            v = reduced(w)
            piv = next((col for col, x in enumerate(v) if x), None)
            if piv is None:
                continue
            inv = pow(v[piv], -1, p)
            echelon.append((piv, [x * inv % p for x in v]))
            rows.append(w)
            if rec(k + 1):
                return True
            rows.pop()
            echelon.pop()
        return False

    return rec(0)
