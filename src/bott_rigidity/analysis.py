"""Twist minimization and graded ring isomorphism for Bott towers.

Three questions are answered here. How many twisted stages does a tower
really need (twist_number, reduced greedily by trivializing stages and
certified when it meets the square-zero-line lower bound)?
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
from functools import lru_cache
from itertools import combinations
from math import isqrt
from operator import mul
from typing import NamedTuple

from .core import BottMatrix, BottRing, CoeffMode, _check_tower, integer_entries
from .linalg import (
    _cleared_rows,
    _cofactors,
    _expand_minors,
    det_fraction,
    maximal_minors_gcd,
    solve_linear,
)
from .moves import _trivialized, stage_fibration_trivial
from .quadratic import (
    _product_vanishes,
    line_product_pairs,
    line_square_pairs,
    primitive_rows_box,
    square_zero_lines,
    twisted_row_solutions,
)


def _check_bound(bound: int) -> None:
    integer_entries((bound,), "bound")
    if bound < 1:
        raise ValueError(f"box bound must be at least 1, got {bound}")


def find_reducible_stage(matrix: BottMatrix, mode: CoeffMode = CoeffMode.INTEGER):
    """Highest twisted stage whose twist form is even and squares to zero."""
    _check_tower(matrix, "matrix")
    if type(mode) is not CoeffMode:
        mode = CoeffMode(mode)
    cols = matrix.columns
    for m in reversed(range(matrix.n)):
        if any(cols[m]) and stage_fibration_trivial(matrix, m, mode):
            return m
    return None


@dataclass
class TwistReport:
    twist: int
    witness_moves: tuple
    final_matrix: BottMatrix
    oracle: "ComplexityReport | None"

    @property
    def certified_minimal(self) -> bool:
        return self.oracle is not None and self.oracle.certified

    @property
    def budget_exhausted(self) -> bool:
        return self.oracle is not None and not self.oracle.certified


def twist_number(matrix: BottMatrix, mode: CoeffMode = CoeffMode.INTEGER,
                 certify: bool = False, bound: int = 2) -> TwistReport:
    """Greedy twist count: trivialize reducible stages until none remain.

    Each trivialization removes one nonzero column and never creates a new
    one, so the loop terminates. The count is an upper bound on the
    minimum over unit changes of basis, and the moves compose to a basis
    that attains it: starting from the identity, each move rewrites the
    row of its stage and rescales the others only when an odd twist form
    over Q makes it double the generators (moves._moved_basis).

    With certify=True, oracle is a ComplexityReport of the count, the line
    lower bound of complexity_oracle (which takes time polynomial in the
    height) and the composed basis as witness. _basis_witness checks it
    with one closed-form product per relation and, in the same pass, reads
    its determinant off the diagonal of the lower triangular basis the
    moves compose and the sign of the reordering to square-zero rows first.
    The count is certified when it meets the bound; otherwise the report
    has budget_exhausted set. No search runs: complexity_oracle certifies
    only a value that meets this same bound, so a search could never
    certify a count above it, and no tower is known whose count exceeds
    it. bound selects nothing, but is checked on entry with or without
    certify: an int, at least 1.
    """
    _check_tower(matrix, "matrix")
    _check_bound(bound)
    if type(mode) is not CoeffMode:
        mode = CoeffMode(mode)
    n = matrix.n
    cur = matrix
    moves = []
    # row k: the k-th generator of cur in the generators of matrix
    basis = [[0] * k + [1] + [0] * (n - 1 - k) for k in range(n)] if certify else None
    while True:
        m = find_reducible_stage(cur, mode)
        if m is None:
            break
        cur, basis = _trivialized(cur, m, basis)
        moves.append({"stage": m, "matrix": cur.to_lists()})
    value = cur.twist_count()
    oracle = None
    if certify:
        lower = _line_lower_bound(n, square_zero_lines(matrix), mode)
        oracle = ComplexityReport(value=value, lower_bound=lower,
                                  witness=_basis_witness(matrix, cur, basis, mode), mode=mode)
    return TwistReport(twist=value, witness_moves=tuple(moves), final_matrix=cur, oracle=oracle)


def _basis_witness(matrix: BottMatrix, final: BottMatrix, basis, mode: CoeffMode) -> dict:
    """The witness of a basis presenting final inside matrix's ring, checked.

    Row k of basis is final's k-th generator y_k in matrix's generators.
    Each relation y_k^2 = f_k(y) y_k, with f_k read off column k of final,
    is checked as the one closed-form product (y_k - u_k) y_k = 0 over
    matrix's columns (quadratic._product_vanishes, which stops at the
    first nonzero coefficient), where u_k = f_k(y) is a vector in
    matrix's generators. The moves keep the basis lower triangular
    (moves._moved_basis), which is asserted, so its determinant is the
    product of the diagonal, and it must be a unit.
    The rows are put in the shape complexity_oracle returns: square-zero
    rows first, then the twisted rows in stage order, each with the
    coefficients of its twist form in the reordered rows; "det" is the
    Fraction determinant of those rows. The pass that checks each row also
    files it as square-zero or twisted, multiplies in its diagonal entry
    and counts the inversions of the reordering: a square-zero row passes
    over every twisted row before it, and their parity is the sign.
    """
    n = matrix.n
    base = matrix.columns
    cols = final.columns
    zero, twisted = [], []
    det = 1
    inversions = 0
    for k, (y, col) in enumerate(zip(basis, cols)):
        if not _product_vanishes(base, _relation_factor(y, col, basis), y):
            raise AssertionError("composed basis fails a relation")
        if any(y[k + 1:]):
            raise AssertionError("composed basis is not lower triangular")
        det *= y[k]
        if any(col):
            twisted.append(k)
        else:
            zero.append(k)
            inversions += len(twisted)
    if inversions % 2:
        det = -det
    if not mode.is_unit(det):
        raise AssertionError("composed basis determinant is not a unit")
    order = zero + twisted
    pos = [0] * n
    for p, k in enumerate(order):
        pos[k] = p
    twist_rows = []
    for k in twisted:
        coeffs = [0] * n
        for i, c in enumerate(cols[k]):
            coeffs[pos[i]] = c
        twist_rows.append(coeffs)
    return {"basis": [basis[k] for k in order], "zero_rows": len(zero),
            "twist_coefficients": twist_rows, "det": Fraction(det)}


def _relation_factor(w, col, rows) -> list:
    """w - u for u = sum_i col[i] rows[i]; w^2 = u w exactly when (w - u) w = 0."""
    rest = list(w)
    for c, r in zip(col, rows):
        if c:
            rest = [a - c * b for a, b in zip(rest, r)]
    return rest


@dataclass
class ComplexityReport:
    """Minimal twist count over unit changes of basis, with its evidence.

    value is attained by witness; lower_bound is the line lower bound, and
    certified means the two meet. witness is a dict: "basis" lists the
    rows of the change of basis, the "zero_rows" square-zero rows first;
    "twist_coefficients" gives, for each later (twisted) row in order, the
    coefficients of its twist form in the basis rows; "det" is the unit
    determinant of the basis. complexity_oracle finds the basis by search,
    so value is the least count in its box. twist_number(certify=True)
    composes the basis from the greedy moves, so value is the greedy
    count, and only an upper bound when it is not certified.
    """

    value: int
    lower_bound: int
    witness: dict | None
    mode: CoeffMode

    @property
    def certified(self) -> bool:
        return self.value == self.lower_bound


def _line_lower_bound(n: int, lines, mode: CoeffMode) -> int:
    """n minus the largest number of the lines extending to a unit basis.

    Generators with zero twist form square to zero, so they lie on the
    square-zero lines, and lines extend to a unit basis exactly when the
    gcd of their maximal minors is a unit. A presentation therefore has
    at least this many twisted generators.

    The largest such subset is read off in closed form. square_zero_lines
    gives at most one line per top index, with top entry 1 or 2, so any
    subset is in echelon form: it is independent over Q, and its minor on
    the top indices is a power of 2, which the gcd of its maximal minors
    divides. Over Q every subset extends. Over Z and Z(2) that gcd is a
    unit exactly when it is odd, i.e. when the subset is independent mod
    2, so the largest subset has the rank mod 2 of all the lines.
    """
    if mode.is_field:
        return n - len(lines)
    # echelon basis mod 2: rows as bit masks, keyed by their top bit
    pivots = {}
    for line in lines:
        v = sum(1 << i for i, x in enumerate(line) if x % 2)
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return n - len(pivots)


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
    _check_tower(matrix, "matrix")
    mode = CoeffMode(mode)
    _check_bound(bound)
    n = matrix.n
    lines = square_zero_lines(matrix)
    lower = _line_lower_bound(n, lines, mode)
    pool = primitive_rows_box(n, bound)
    for s in range(lower, n + 1):
        witness = _presentation_search(matrix, mode, lines, pool, s)
        if witness is not None:
            return ComplexityReport(value=s, lower_bound=lower, witness=witness, mode=mode)
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
    ok = mode.contains
    unit = mode.is_unit
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
            det = det_fraction(placed)
            if not unit(det):
                continue
            twist_rows = [list(coeffs) + [Fraction(0)] * (n - len(coeffs)) for coeffs in twists]
            if sum(1 for coeffs in twists if any(coeffs)) != s:
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
    rhs = [sq.get(p, 0) for p in pairs]
    products = [line_product_pairs(matrix, r, w) for r in placed]
    rows = [[prod.get(p, 0) for prod in products] for p in pairs]
    return solve_linear(rows, rhs, ok)


@dataclass
class IsoReport:
    isomorphic: bool | None
    witness: dict | None
    reason: str
    mode: CoeffMode
    moduli_checked: tuple

    @property
    def complete(self) -> bool:
        return self.isomorphic is not None


# Largest scan, in vectors per row, allowed for an odd modulus q: q**n must
# not exceed it. It equals 8**4, the mod-8 scan at height 4.
ODD_SCAN_LIMIT = 8 ** 4

# Parameters t in [-FAMILY_SAMPLE, FAMILY_SAMPLE] sampled from an affine
# family of candidate rows, for each row the witness search places before
# its last one.
FAMILY_SAMPLE = 3


def _iso_moduli(a: BottMatrix, b: BottMatrix, mode: CoeffMode):
    """Moduli to check before the witness search and after it, in order.

    Only a prime that is not a unit of the coefficient ring can obstruct:
    2 and the odd primes of the entries over Z, only 2 over Z_(2), none
    over Q. The odd moduli merge the two towers' sorted tuples
    (_tower_facts), which are mostly equal or empty.
    """
    if mode.is_unit(2):
        return (), ()
    if mode.is_unit(3):
        # Z_(2): 3, and so every odd prime, is a unit
        return (2, 4), (8,)
    odd, other = _tower_facts(a).odd_moduli, _tower_facts(b).odd_moduli
    if other != odd:
        odd = tuple(sorted({*odd, *other})) if odd and other else odd or other
    return (2, 4, *odd), (8,)


class _TowerFacts(NamedTuple):
    """What ring_isomorphic reads off one tower before it looks at the pair."""
    tower: BottMatrix
    # the number of square-zero lines (quadratic.square_zero_lines)
    lines: int
    # q = p and p*p for each odd prime p dividing a nonzero entry, with
    # q**n <= ODD_SCAN_LIMIT, ascending
    odd_moduli: tuple


# Towers whose facts stay cached. The iso_pairs benchmark draws its pairs
# from 49 towers and the height-3 box [-2,2] holds 125, so a scan over all
# pairs of a tower set computes each tower's facts once. A tower evicted
# here and seen again may still key other caches by an earlier equal
# object; those lookups compare rows, as before, until that entry goes.
_FACTS_CACHED = 1024


@lru_cache(maxsize=_FACTS_CACHED)
def _tower_facts(tower: BottMatrix) -> _TowerFacts:
    """The _TowerFacts of tower; its tower field is the first-seen equal tower.

    Every later tower-keyed lookup of a call (_flat_mod, _row_equation,
    the square-zero lines) made with that field finds its entry by
    identity, so no call compares rows with a fresh but equal tower more
    than once. No prime larger than isqrt(ODD_SCAN_LIMIT) gives a modulus,
    since a tower with a nonzero entry has n >= 2: only those odd primes
    are tried, each by divisibility, and no entry is factored.
    """
    n = tower.n
    entries = {e for col in tower.columns for e in col if e}
    primes = [p for p in range(3, isqrt(ODD_SCAN_LIMIT) + 1, 2)
              if p ** n <= ODD_SCAN_LIMIT and any(e % p == 0 for e in entries)
              and all(p % d for d in range(3, p, 2))]
    odd = sorted(q for p in primes for q in (p, p * p) if q ** n <= ODD_SCAN_LIMIT)
    return _TowerFacts(tower, len(square_zero_lines(tower)), tuple(odd))


def ring_isomorphic(a: BottMatrix, b: BottMatrix,
                    mode: CoeffMode = CoeffMode.INTEGER) -> IsoReport:
    """Decide graded ring isomorphism over the chosen coefficients.

    True comes with a verified change of basis. False only ever comes
    from a sound obstruction: the stage count, the square-zero line
    count, or a finite quotient with no unit change of basis
    (integer-like modes). The witness search can only prove an
    isomorphism, so when it finds none and no quotient obstructs, the
    answer is None rather than a guess.

    The cheap finite quotients run first: mod 2, mod 4, then (integer
    mode only) mod p and mod p^2 in ascending order for every odd prime p
    dividing a nonzero entry of either tower, keeping a modulus q only
    while q^n <= ODD_SCAN_LIMIT. Every quotient goes through
    modular_iso_exists. Then comes the witness search in both
    directions, and mod 8 after a failed search. Over Z_(2) odd primes
    are units, so only 2, 4 and 8 apply; over Q no quotient applies.

    Each tower is looked up once per call (_tower_facts): its square-zero
    line count and odd moduli are kept per tower, since a scan over a set
    of towers meets each tower in many pairs, and the rest of the call
    runs on the first-seen equal tower the lookup returns, so every later
    tower-keyed cache (_flat_mod, _row_equation, the square-zero lines)
    finds its entry by identity rather than by comparing rows.

    Over Z the witness rows are ints throughout, and neither the search
    nor the replay clears or coerces them: each sampled row is cleared
    once per row-equation entry, which copies an int row as it stands
    (_row_equation, linalg._cleared_rows), the last row's parameters are
    solved by divmod (CoeffMode.unit_parameters) and the least unit row is
    taken in one pass (_least_unit_row), and the replay builds its line
    elements unchecked from their nonzero terms (BottRing.line_element)
    before taking every product in the ring engine. The replay's
    determinant is computed afresh (det_fraction), and the witness det is
    a Fraction in every mode.

    Soundness of a quotient mod q: H*(M; Z) is free, so H*(M; Z/q) is
    H*(M; Z) tensored with Z/q. A change of basis in GL_n(Z) therefore
    reduces mod q to rows that satisfy the relations mod q and whose
    determinant is a unit mod q, i.e. nonzero mod the prime p dividing
    q. When no such rows exist no integral isomorphism exists either.
    The same holds over Z_(2) for powers of 2.
    """
    _check_tower(a, "a")
    _check_tower(b, "b")
    if type(mode) is not CoeffMode:
        mode = CoeffMode(mode)
    if a.n != b.n:
        return IsoReport(False, None, "stage count differs", mode, ())
    fa, fb = _tower_facts(a), _tower_facts(b)
    # the lines have distinct top indices (square_zero_lines), so they are
    # independent and their count is their span rank
    if fa.lines != fb.lines:
        return IsoReport(False, None, "square-zero line count differs", mode, ())
    a, b = fa.tower, fb.tower
    before, after = _iso_moduli(a, b, mode)
    checked = []

    def obstructed(moduli):
        for m in moduli:
            checked.append(m)
            if not modular_iso_exists(a, b, m):
                return IsoReport(False, None, f"no unit change of basis mod {m}",
                                 mode, tuple(checked))
        return None

    report = obstructed(before)
    if report is not None:
        return report
    for host, target, direction in ((a, b, "second_into_first"),
                                    (b, a, "first_into_second")):
        rows = _dfs_direction(host, target, mode)
        if rows is not None:
            witness = _verified_witness(host, target, rows, mode, direction)
            return IsoReport(True, witness, "witness verified", mode, tuple(checked))
    report = obstructed(after)
    if report is not None:
        return report
    return IsoReport(None, None,
                     "no witness within bound and no obstruction found",
                     mode, tuple(checked))


def _verified_witness(host, target, rows, mode, direction):
    """Replay the candidate change of basis through the full ring engine.

    Each relation w_k^2 = u_k w_k, with u_k the image of target's twist
    form, is one ring product (w_k - u_k) w_k, which must vanish. Only the
    vector w_k - u_k is formed outside the engine (_relation_factor).
    """
    ring = BottRing(host, mode)
    for w, col in zip(rows, target.columns):
        rest = _relation_factor(w, col, rows)
        if not (ring.line_element(rest) * ring.line_element(w)).is_zero():
            raise AssertionError("witness failed relation replay")
    det = det_fraction(rows)
    if not mode.is_unit(det):
        raise AssertionError("witness determinant is not a unit")
    return {"direction": direction, "rows": [list(r) for r in rows], "det": det}


def _dfs_direction(host: BottMatrix, target: BottMatrix, mode: CoeffMode):
    """Search rows mapping target's generators into host's ring.

    Returns the rows of a unit change of basis, or None when none was
    found. Row k solves w^2 = u w for u the image of target's twist form;
    each equation is solved once per value of (host, u, mode) and kept
    with its sampled members, each cleared to an integer row once, in one
    entry (_row_equation). A row above the last tries the sampled members,
    those of its affine families at the parameters |t| <= FAMILY_SAMPLE,
    in _members order. At the last row the determinant is linear in the
    candidate w: det(rows + [w]) = c . w for the cofactor vector c of the
    placed rows, read off the minors table the search carries. The last
    row is the least candidate by _row_order whose c . w is a unit
    (_least_unit_row): the finite rows and, for each family, its members
    at the parameters solved exactly against the placed rows from the two
    dot products c . w0 and c . step (CoeffMode.unit_parameters). None
    proves nothing: for n >= 2, row 0 always samples the family of the
    square-zero line e_0.

    The search carries one table down with it: the nonzero minors of the
    placed rows, cleared row by row to integers (_cleared_rows), on every
    set of columns, with the product of their clearing scales. Placing a
    row is one Laplace expansion step along its cleared row
    (linalg._expand_minors), and a candidate above the last row is placed
    only when the new table is non-empty, that is when it is independent
    over Q of the rows above it. At the last row the table holds the
    minors of the n - 1 placed rows, and c is read off it over the scale
    (linalg._cofactors), as cofactor_vector gives it. target's columns are
    the ones it carries (BottMatrix.columns), and u is the dot product of
    column k with the placed rows, summed over the nonzero entries of the
    column only: with none, u is the zero row.
    """
    n = host.n
    cols = target.columns
    zero = (0,) * n
    rows: list = []

    def rec(k, minors, scale):
        terms = [(x, rows[i]) for i, x in enumerate(cols[k]) if x]
        u = tuple([sum(x * row[c] for x, row in terms) for c in range(n)]) if terms else zero
        if k == n - 1:
            finite, families, _, _ = _row_equation(host, u, mode)
            w = _least_unit_row(finite, families, _cofactors(minors, n, scale), mode)
            if w is None:
                return False
            rows.append(w)
            return True
        _, _, sampled, cleared = _row_equation(host, u, mode)
        for w, (row, mult) in zip(sampled, cleared):
            placed = _expand_minors(minors, row)
            if not placed:
                continue
            rows.append(w)
            if rec(k + 1, placed, scale * mult):
                return True
            rows.pop()
        return False

    if n == 0 or rec(0, {0: 1}, 1):
        return [tuple(r) for r in rows]
    return None


def _least_unit_row(finite, families, cof, mode):
    """The least candidate w by _row_order with c . w a unit, c = cof; None if there is none.

    The candidates are those of _members(finite, families, params) with
    params(w0, step) = mode.unit_parameters(c . w0, c . step), taken in
    one pass with no list built, and the row is the first unit of that
    sorted list: _row_order orders rows by value, a zero row has c . w =
    0, and strict < keeps the first-listed of value-equal rows, as
    _members keeps the first of repeats and sorts stably. A family
    member's c . w is c . w0 + t c . step.
    """
    def det(w):
        return sum(map(mul, cof, w))

    best = key = None
    for w in finite:
        value = det(w)
        if value and mode.is_unit(value):
            order = _row_order(w)
            if best is None or order < key:
                best, key = w, order
    for w0, step in families:
        a, c = det(w0), det(step)
        for t in mode.unit_parameters(a, c):
            value = a + t * c
            if value and mode.is_unit(value):
                w = tuple([x + t * y for x, y in zip(w0, step)])
                order = _row_order(w)
                if best is None or order < key:
                    best, key = w, order
    return best


def _row_order(w):
    return sum(map(abs, w)), w


def _members(finite, families, params) -> tuple:
    """Candidate rows: finite, then each family's w0 + t*step at t in params(w0, step).

    Zero rows and repeats are dropped, and the rows come sorted by
    _row_order, so a search tries the smallest rows first.
    """
    cands = list(finite)
    for w0, step in families:
        for t in params(w0, step):
            w = tuple(a + t * b for a, b in zip(w0, step))
            if any(w) and w not in cands:
                cands.append(w)
    cands.sort(key=_row_order)
    return tuple(cands)


# Solutions of w^2 = u w, their sampled members and the members cleared to
# integer rows, for every row of the witness search, as (host, u, mode) keys
# compared by value. Over Z the 1225 one-twist pairs of [-3,3]^2 touch 339
# keys and 40 passes of the iso_pairs benchmark 564, so 1024 keys hold them
# all; over Q the pairs touch 2,272, none twice.
@lru_cache(maxsize=1024)
def _row_equation(host: BottMatrix, u: tuple, mode: CoeffMode) -> tuple:
    """(finite, families, sampled, cleared) for one row of _dfs_direction.

    finite and families are the exact solutions of w^2 = u w as
    twisted_row_solutions returns them; sampled is their members at the
    parameters |t| <= FAMILY_SAMPLE (_members), the candidates of a row
    above the last, and cleared[i] is (sampled[i] cleared to an integer
    row, its multiplier), as _cleared_rows gives them, so the search
    clears each candidate once per entry rather than once per visit.
    Every part is a tuple of tuples, so no caller can change a shared
    entry. The solutions depend on the value of u, not on the types of
    its entries (RowSolutions), so an int u and an equal Fraction u share
    one entry.
    """
    finite, families = twisted_row_solutions(host, u, mode)
    sampled = _members(finite, families,
                       lambda w0, step: range(-FAMILY_SAMPLE, FAMILY_SAMPLE + 1))
    cleared = []
    for w in sampled:
        (row,), mult = _cleared_rows([w])
        cleared.append((tuple(row), mult))
    return finite, families, sampled, tuple(cleared)


@lru_cache(maxsize=64)
def _prime_of(modulus: int) -> int:
    """The prime p with modulus = p^k for some k >= 1, else ValueError.

    p is the least d <= sqrt(modulus) dividing modulus, or modulus itself
    when there is none, and modulus must then be a power of p. Trial
    division stops at the least divisor, so a power of a small prime is
    answered at once, and no call divides past sqrt(modulus).

    Memoized: ring_isomorphic asks about the same few moduli on every
    pair. A ValueError is raised afresh on every call, since lru_cache
    keeps no exceptions.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    p = next((d for d in range(2, isqrt(modulus) + 1) if modulus % d == 0), modulus)
    rest = modulus
    while rest % p == 0:
        rest //= p
    if rest != 1:
        raise ValueError(f"modulus must be a prime power, got {modulus}")
    return p


def modular_iso_exists(a: BottMatrix, b: BottMatrix, modulus: int) -> bool:
    """Whether b's presentation maps into a's ring over Z/modulus with unit det.

    modulus is an int prime power q = p^k: a non-int raises TypeError, any
    other int ValueError. Row k is a vector w of (Z/q)^n with w^2 = u w in
    a's ring mod q, where u is the image of b's twist form f_k under the
    rows already placed. The relation for the pair (i, j) is a quadratic
    in w_j whose coefficients involve only w_i and u, so the candidates
    are built coordinate by coordinate from a table of roots mod q. They
    come out in the lexicographic order of product(range(q), repeat=n),
    are memoized by u for the scan and carry their reduction mod p. Only
    the root tables are kept across scans, per (q, c_ij).

    A determinant is a unit mod q exactly when it is nonzero mod p. The
    search therefore keeps the span mod p of the placed rows as the set of
    its vectors: a row is placed only when its reduction lies outside the
    set, so reaching the last row already guarantees invertibility. Child
    spans are memoized by (span, row). Failed states are memoized too,
    keyed on the span and on the partial images sum_{i<k} b_ik' w_i mod q
    of the twist forms of every row k' >= k. The key is exact, because the
    rest of the search reads the placed rows only through those twist
    images and through the independence test against the span.

    Two exact reductions come first; neither changes the answer.

    Square-zero count (odd p only). Rows with unit determinant define a
    graded ring map from b's ring mod q to a's that is onto, because the
    rings are generated in degree 2. Both rings are free Z/q-modules of
    rank 2^n, finite sets of one size, so the map is an isomorphism, and
    it carries b's set of w with w^2 = 0 bijectively onto a's. When the
    two sets differ in size, no rows exist. a's set is the candidate list
    for u = 0, which the search reuses for row 0. It runs for odd p only,
    as measured on the scans ring_isomorphic makes for the 1225 one-twist
    pairs of [-3,3]^2: mod 3 and mod 9 it settles all 144 obstructed
    scans. Mod 4 the counts never differ (256 obstructed scans) while the
    passing scans take about 20 % longer. Mod 2 it settles all 168
    obstructed scans, but the passing scans, which every isomorphic pair
    (the slowest calls) makes, also take about 20 % longer.

    One row 0 per unit orbit (q > 2). Scaling every row by a unit l maps
    solutions to solutions, since (l w)^2 = (l u)(l w) and l u is the
    image of the twist form under the scaled rows, and it keeps every
    span mod p. Row 0 (u = 0) is therefore tried only when its first unit
    entry, its first entry nonzero mod p, equals 1. The failed-state memo
    stays exact: the filter acts at the root alone, and no state below the
    root (whose span is never {0}) shares the root's key.

    A failure is a sound obstruction for the integral question and, for
    powers of 2, for the 2-local one.

    The boolean itself is memoized across calls (_modular_verdict), keyed
    on (q, n, entries of a mod q, entries of b mod q), each tower's entries
    flat and row by row, and kept for the _VERDICTS_CACHED most recently
    used keys. The key is exact: everything above reads the towers only
    through their entries mod q.
    The towers fall into few classes mod q (4 mod 2 and 16 mod 4 among
    the one-twist towers of [-3,3]^2), so the mod 2, 4, p and p^2 checks
    of ring_isomorphic mostly become lookups. Validation, the stage-count
    comparison and n = 0 are answered before the memo, the prime of the
    modulus is memoized (_prime_of), and so is each tower's key mod q
    (_flat_mod), since a tower meets the same few moduli in every pair.
    ring_isomorphic passes the towers its _tower_facts lookups return, so
    there _flat_mod finds each entry by identity. Called directly, the
    towers are validated afresh on every call.
    """
    _check_tower(a, "a")
    _check_tower(b, "b")
    integer_entries((modulus,), "modulus")
    _prime_of(modulus)
    n = a.n
    if n != b.n:
        return False
    if n == 0:
        return True
    return _modular_verdict(modulus, n, _flat_mod(a, modulus), _flat_mod(b, modulus))


# Quotient pairs whose modular_iso_exists verdict stays cached, as
# (q, n, entries of a mod q, entries of b mod q) keys. The scans
# ring_isomorphic makes for the 2401 ordered one-twist pairs of [-3,3]^2
# touch 427 of them.
_VERDICTS_CACHED = 1024


# (tower, q) pairs whose _flat_mod entries stay cached. A tower meets the
# same few moduli in every pair it is in: ring_isomorphic over Z on the
# 2401 ordered pairs of the 49 one-twist towers of [-3,3]^2 (the iso_pairs
# benchmark towers) touches 166 such keys, and on the 7,750 pairs of the
# 125 height-3 towers over [-2,2] 318.
_FLAT_MODS_CACHED = 1024


@lru_cache(maxsize=_FLAT_MODS_CACHED)
def _flat_mod(tower: BottMatrix, q: int) -> tuple:
    """The entries of tower mod q, row by row, in one flat tuple.

    Memoized on (tower, q): the key is exact, since a BottMatrix is
    immutable and compares by its entries.
    """
    return tuple([x % q for row in tower.rows for x in row])


@lru_cache(maxsize=_VERDICTS_CACHED)
def _modular_verdict(q: int, n: int, fa: tuple, fb: tuple) -> bool:
    """modular_iso_exists for towers of height n >= 1 given by their _flat_mod entries."""
    p = _prime_of(q)
    ca, cb = (tuple([f[i:i + n] for i in range(0, n * n, n)]) for f in (fa, fb))
    by_u: dict = {}

    def candidates(u):
        # the (w, w mod p) with w^2 = u w in a's ring mod q, in lexicographic order of w
        rows = by_u.get(u)
        if rows is None:
            rows = by_u[u] = [(w, tuple([x % p for x in w])) for w in _modular_rows(q, ca, u)]
        return rows

    zero = (0,) * n
    first = candidates(zero)
    if p > 2 and len(first) != len(_modular_rows(q, cb, zero)):
        return False
    if q > 2:
        # wp's first nonzero entry is 1 where w's first unit entry is
        first = [(w, wp) for w, wp in first
                 if next(filter(None, wp), 0) == 1 and w[wp.index(1)] == 1]
    # coefficients of row k in the twist forms of the later rows
    later = [cb[k][k + 1:] for k in range(n)]
    spans: dict = {}
    dead: set = set()

    def rec(k, images, span):
        # images[k' - k] is the image of f_k' under the rows placed so far
        key = (images, span)
        if key in dead:
            return False
        for w, wp in candidates(images[0]) if k else first:
            if wp in span:
                continue
            if k == n - 1:
                return True
            child = spans.get((span, wp))
            if child is None:
                child = spans[span, wp] = span.union([
                    tuple([(s + t * x) % p for s, x in zip(v, wp)])
                    for v in span for t in range(1, p)])
            nxt = tuple([tuple([(y + t * x) % q for y, x in zip(img, w)]) if t else img
                         for img, t in zip(images[1:], later[k])])
            if rec(k + 1, nxt, child):
                return True
        dead.add(key)
        return False

    return rec(0, (zero,) * n, frozenset([zero]))


def _modular_rows(q: int, c: tuple, u: tuple) -> list:
    """Every w with w^2 = u w mod q in the ring of c, in lexicographic order."""
    # pair (i, j): c_ij w_j^2 + (2 w_i - c_ij u_j - u_i) w_j - u_j w_i = 0,
    # so the prefixes are extended one coordinate at a time
    prefixes = [()]
    for j in range(len(c)):
        uj = u[j]
        tables = [_root_table(q, c[i][j]) for i in range(j)]
        longer = []
        for w in prefixes:
            xs = range(q)
            for i in range(j):
                r = tables[i][(2 * w[i] - c[i][j] * uj - u[i]) % q][-uj * w[i] % q]
                xs = r if i == 0 else [x for x in xs if x in r]
                if not xs:
                    break
            longer += [w + (x,) for x in xs]
        prefixes = longer
    return prefixes


@lru_cache(maxsize=64)
def _root_table(q: int, cij: int) -> tuple:
    """table[lin][const]: the x in range(q) with x (cij x + lin) + const = 0 mod q."""
    table = [[[] for _ in range(q)] for _ in range(q)]
    for lin, by_const in enumerate(table):
        for x in range(q):
            by_const[-x * (cij * x + lin) % q].append(x)
    return tuple(tuple(map(tuple, by_const)) for by_const in table)
