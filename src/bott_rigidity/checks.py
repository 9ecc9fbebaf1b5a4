"""Test oracles and the seeded property-check battery behind ``selftest``.

Everything here cross-checks the library against an independent route:
brute-force references (a factorial permutation scan, cyclic
counterexample matrices, the presentation axioms replayed through the
ring engine, the even-block parity rule), a random-order rewriting
oracle for ring reduction, and the ordered ``SELFTEST_CHECKS`` list that
the CLI runs. The pytest suite imports the same helpers. Nothing here is
re-exported from the package root.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

from .analysis import complexity_oracle, ring_isomorphic, twist_number
from .core import (
    BottMatrix,
    BottRing,
    CoeffMode,
    inverse_pair_coefficient_condition,
    pontrjagin_one_twist,
    whitney_sum_trivial,
)
from .linalg import det_int
from .moves import (
    admissible_permutations,
    conjugate,
    retwist,
    stage_fibration_trivial,
    trivialize_stage,
)
from .onetwist import diffeo_equivalent, pontrjagin_invariant
from .quadratic import line_square_pairs
from .quasitoric import (
    from_bott_matrix,
    is_bott,
    normalize_characteristic,
    to_bott_matrix,
    validate_characteristic,
)


def rand_bott(rng: random.Random, n: int, bound: int = 2) -> BottMatrix:
    """Height-n tower with entries drawn uniformly from [-bound, bound]."""
    return BottMatrix([[rng.randint(-bound, bound) if j > i else 0 for j in range(n)]
                       for i in range(n)])


def random_order_reduction(matrix: BottMatrix, word, rng: random.Random) -> dict:
    """Rewrite x_j^2 -> f_j x_j in random order; oracle for confluence."""
    total: Counter = Counter()
    work = [(Counter(word), Fraction(1))]
    while work:
        exps, coeff = work.pop()
        exps = +exps
        reps = sorted(i for i, e in exps.items() if e >= 2)
        if not reps:
            total[frozenset(exps)] += coeff
            continue
        j = rng.choice(reps)
        base = exps.copy()
        base[j] -= 2
        for i in range(j):
            c = matrix.entry(i, j)
            if c:
                nxt = base.copy()
                nxt[i] += 1
                nxt[j] += 1
                work.append((nxt, coeff * c))
    return {k: v for k, v in total.items() if v}


def bott_by_exhaustive_permutations(rows, n_max: int = 6):
    """Reference recognizer: try every stage order directly.

    Used to validate the digraph route; factorially slow, so guarded.
    """
    mat = normalize_characteristic(rows)
    if mat is None:
        return False, None
    n = len(mat)
    if n > n_max:
        raise ValueError(f"refusing factorial scan for n={n} > {n_max}")
    for perm in permutations(range(n)):
        if all(mat[i][j] == 0
               for i in range(n) for j in range(n)
               if i != j and perm[i] >= perm[j]):
            return True, perm
    return False, None


def bq_structure_check(matrix: BottMatrix, mode: CoeffMode = CoeffMode.INTEGER) -> bool:
    """End-to-end check of the two presentation axioms through the ring engine.

    Each generator must satisfy its quadratic relation (structural, but
    replayed against the engine) and the product of all generators must
    be nonzero.
    """
    ring = BottRing(matrix, mode)
    for k in range(matrix.n):
        xk = ring.generator(k)
        if not (xk * xk - ring.twist_form(k) * xk).is_zero():
            return False
    return ring.top_class_nonzero()


def cycle_matrix(hs) -> list[list[int]]:
    """Unit-diagonal matrix whose off-diagonal support is one k-cycle.

    Entry (i, i+1) holds hs[i], wrapping around at the end; its
    determinant is 1 + (-1)^(k+1) * product(hs).
    """
    k = len(hs)
    rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for i, h in enumerate(hs):
        rows[i][(i + 1) % k] = int(h)
    return rows


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


# ---------------------------------------------------------------------------
# selftest: every module's documented properties at desk scale


def _check_reduction_confluence(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        mat = rand_bott(rng, n)
        ring = BottRing(mat)
        word = [rng.randrange(n) for _ in range(rng.randint(2, 5))]
        want = {k: Fraction(v) for k, v in ring.reduce_monomial(word).terms.items()}
        got = random_order_reduction(mat, word, rng)
        if want != got:
            return False, f"order-dependent reduction of {word} over {mat.to_lists()}"
    return True, "30 random monomials"


def _check_basis_dimension(rng):
    for n in range(1, 6):
        ring = BottRing(rand_bott(rng, n))
        basis = ring.basis()
        if len(basis) != 2 ** n:
            return False, f"n={n}: basis has {len(basis)} monomials"
        if len(set(basis)) != len(basis):
            return False, f"n={n}: basis monomials repeat"
    return True, "rank 2^n for n=1..5"


def _check_square_law(rng):
    for _ in range(40):
        n = rng.randint(2, 5)
        mat = rand_bott(rng, n)
        ring = BottRing(mat)
        alpha = [rng.randint(-3, 3) for _ in range(n)]
        z = ring.line_element(alpha)
        rhs = ring.zero()
        for j in range(n):
            rhs = rhs + alpha[j] * alpha[j] * (ring.twist_form(j) * ring.generator(j))
        for i in range(n):
            for j in range(i + 1, n):
                rhs = rhs + 2 * alpha[i] * alpha[j] * (ring.generator(i) * ring.generator(j))
        if z * z != rhs:
            return False, f"square law fails for {alpha} over {mat.to_lists()}"
    return True, "40 random line classes"


def _check_grading(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        ring = BottRing(rand_bott(rng, n))
        z = ring.line_element([rng.randint(-2, 2) for _ in range(n)])
        w = ring.line_element([rng.randint(-2, 2) for _ in range(n)])
        p = z * w
        if p.degree_part(4) != p:
            return False, "degree-2 product left degree 4"
        if not p.is_zero() and p.max_degree() != 4:
            return False, "degree-4 part mislabeled"
        long_product = ring.one()
        for _ in range(n + 2):
            long_product = long_product * ring.generator(rng.randrange(n))
        if long_product.max_degree() > 2 * n:
            return False, "reduced element above top degree"
    return True, "30 random products"


def _check_mode_agreement(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        mat = rand_bott(rng, n)
        t_z = twist_number(mat, CoeffMode.INTEGER).twist
        t_2 = twist_number(mat, CoeffMode.TWO_LOCAL).twist
        t_q = twist_number(mat, CoeffMode.RATIONAL).twist
        if t_z != t_2:
            return False, f"integer {t_z} vs 2-local {t_2} on {mat.to_lists()}"
        if t_q > t_z:
            return False, f"rational twist {t_q} above integer {t_z} on {mat.to_lists()}"
    return True, "25 random towers"


def _check_conjugation(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        mat = rand_bott(rng, n)
        perms = list(admissible_permutations(mat))
        sigma = perms[rng.randrange(len(perms))]
        conj = conjugate(mat, sigma)
        if conj.twist_count() != mat.twist_count():
            return False, "conjugation changed the twist count"
        inverse = [0] * n
        for i, s in enumerate(sigma):
            inverse[s] = i
        if conjugate(conj, inverse) != mat:
            return False, "inverse conjugation did not restore the matrix"
        if twist_number(conj).twist != twist_number(mat).twist:
            return False, f"twist not conjugation-invariant on {mat.to_lists()}"
    return True, "25 random conjugations"


def _check_trivialize(rng):
    hits = 0
    for _ in range(120):
        n = rng.randint(2, 4)
        rows = rand_bott(rng, n).to_lists()
        m = rng.randrange(1, n)
        for i in range(m):
            rows[i][m] *= 2
        mat = BottMatrix(rows)
        if mat.is_zero_column(m) or not stage_fibration_trivial(mat, m):
            continue
        new = trivialize_stage(mat, m)
        if new is None:
            return False, f"predicate accepted stage {m} but the move refused"
        if new.twist_count() != mat.twist_count() - 1 or not new.is_zero_column(m):
            return False, f"move did not remove exactly column {m}"
        hits += 1
    if hits < 10:
        return False, f"only {hits} applicable stages sampled"
    return True, f"{hits} stage moves"


def _check_retwist(rng):
    checked = 0
    for _ in range(40):
        k = rng.randint(1, 4)
        alpha = [rng.randint(-2, 2) for _ in range(k)]
        for w in product(range(-2, 3), repeat=k):
            beta = retwist(alpha, list(w))
            if beta is None:
                continue
            if any((x - y) % 2 for x, y in zip(alpha, beta)):
                return False, f"retwist broke parity: {alpha} -> {beta}"
            if pontrjagin_one_twist(beta) != pontrjagin_one_twist(alpha):
                return False, f"retwist broke the square: {alpha} -> {beta} via {w}"
            checked += 1
    return True, f"{checked} admissible retwists"


def _check_moves_preserve_ring(rng):
    cases = []
    for mat, stage in [(BottMatrix([[0, 2], [0, 0]]), 1),
                       (BottMatrix([[0, 0, 2], [0, 0, 0], [0, 0, 0]]), 2)]:
        moved = trivialize_stage(mat, stage)
        if moved is None:
            return False, f"expected stage {stage} of {mat.to_lists()} to trivialize"
        cases.append((mat, moved))
    scattered = BottMatrix([[0, 0, 3], [0, 0, 0], [0, 0, 0]])
    for sigma in admissible_permutations(scattered):
        cases.append((scattered, conjugate(scattered, sigma)))
    cases.append((BottMatrix([[0, 1], [0, 0]]), BottMatrix([[0, 3], [0, 0]])))
    for a, b in cases:
        report = ring_isomorphic(a, b)
        if report.isomorphic is not True:
            return False, f"{a.to_lists()} vs {b.to_lists()}: {report.reason}"
    return True, f"{len(cases)} move pairs verified isomorphic"


def _check_twist_vs_oracle(rng):
    mats = [BottMatrix([[0, 1, 1], [0, 0, -2], [0, 0, 0]]),
            BottMatrix([[0, 1, 1], [0, 0, 0], [0, 0, 0]])]
    mats += [rand_bott(rng, 3) for _ in range(10)]
    for mat in mats:
        # twist_number certifies by the line bound; the search checks it
        report = twist_number(mat, certify=True)
        oracle = complexity_oracle(mat, bound=2)
        if not (report.certified_minimal and oracle.certified
                and oracle.value == report.twist):
            return False, f"greedy {report.twist} vs oracle {oracle.value} on {mat.to_lists()}"
    return True, f"{len(mats)} towers certified"


def _check_witness_square_zero(rng):
    pairs = [(BottMatrix([[0, 2], [0, 0]]), BottMatrix.zeros(2)),
             (BottMatrix([[0, 0, 2], [0, 0, 0], [0, 0, 0]]), BottMatrix.zeros(3))]
    for a, b in pairs:
        report = ring_isomorphic(a, b)
        if report.isomorphic is not True:
            return False, f"expected isomorphism for {a.to_lists()}"
        host, target = (a, b) if report.witness["direction"] == "second_into_first" else (b, a)
        rows = report.witness["rows"]
        for j in range(target.n):
            if target.is_zero_column(j) and line_square_pairs(host, rows[j]):
                return False, f"witness row {j} fails the square-zero constraint"
    return True, f"{len(pairs)} witnesses checked"


def _check_parity_block(rng):
    for _ in range(30):
        n = rng.randint(3, 5)
        r = rng.randint(1, n)
        t = n + 1 - r
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        row_idx = rng.sample(range(n), r)
        col_idx = rng.sample(range(n), t)
        for i in row_idx:
            for j in col_idx:
                rows[i][j] = 2 * rng.randint(-2, 2)
        if not even_block_forces_even_det(rows, row_idx, col_idx):
            return False, f"lemma precondition not recognized ({r}x{t} block, n={n})"
        if det_int(rows) % 2:
            return False, f"odd determinant despite even {r}x{t} block, n={n}"
    return True, "30 planted blocks"


def _check_onetwist_relation(rng):
    for _ in range(40):
        k = rng.randint(1, 4)
        a = [rng.randint(-3, 3) for _ in range(k)]
        b = [rng.randint(-3, 3) for _ in range(k)]
        if not diffeo_equivalent(a, a)[0]:
            return False, f"{a} not equivalent to itself"
        if diffeo_equivalent(a, b)[0] != diffeo_equivalent(b, a)[0]:
            return False, f"asymmetric verdict on {a}, {b}"
        flipped = [v if rng.random() < 0.5 else -v for v in a]
        if not diffeo_equivalent(a, flipped)[0]:
            return False, f"sign flips separated {a} from {flipped}"
        shuffled = a[:]
        rng.shuffle(shuffled)
        if not diffeo_equivalent(a, shuffled)[0]:
            return False, f"permutation separated {a} from {shuffled}"
    return True, "40 random vectors"


def _check_onetwist_vs_ring(rng):
    agreements = 0
    for _ in range(15):
        a = [rng.randint(-2, 2) for _ in range(2)]
        b = [rng.randint(-2, 2) for _ in range(2)]
        fast = diffeo_equivalent(a, b)[0]
        report = ring_isomorphic(BottMatrix.from_last_column(a),
                                 BottMatrix.from_last_column(b))
        if report.isomorphic is None:
            return False, f"ring oracle inconclusive on {a} vs {b}"
        if report.isomorphic != fast:
            return False, f"criterion {fast} vs ring {report.isomorphic} on {a}, {b}"
        agreements += 1
    return True, f"{agreements} pairs agree"


def _check_pontrjagin(rng):
    for _ in range(40):
        k = rng.randint(1, 4)
        a = [rng.randint(-3, 3) for _ in range(k)]
        b = [rng.randint(-3, 3) for _ in range(k)]
        if diffeo_equivalent(a, b)[0] and pontrjagin_invariant(a) != pontrjagin_invariant(b):
            return False, f"equivalent pair {a}, {b} with different invariants"
    return True, "40 random pairs"


def _check_bundle_routes(rng):
    base = BottMatrix([[0, 1], [0, 0]])
    ring = BottRing(base)
    for a1 in range(-2, 3):
        for a2 in range(-2, 3):
            alpha = [a1, a2]
            via_chern = whitney_sum_trivial(ring, alpha, [-a1, -a2])
            via_coeffs = inverse_pair_coefficient_condition(base, alpha)
            closed_form = a2 == 0 or a2 == -2 * a1
            if via_chern != via_coeffs or via_chern != closed_form:
                return False, f"routes disagree at {alpha}: {via_chern}/{via_coeffs}/{closed_form}"
    return True, "5x5 grid, both routes"


def _check_quasitoric_roundtrip(rng):
    for _ in range(60):
        n = rng.randint(2, 6)
        lam = rand_bott(rng, n, 3)
        rows = from_bott_matrix(lam)
        if not validate_characteristic(rows):
            return False, f"tower matrix rejected as characteristic: {rows}"
        rho = list(range(n))
        rng.shuffle(rho)
        scrambled = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                scrambled[rho[i]][rho[j]] = rows[i][j]
        accepted, sigma = is_bott(scrambled)
        if not accepted:
            return False, f"scrambled tower not recognized: {scrambled}"
        pi = [sigma[rho[i]] for i in range(n)]
        if to_bott_matrix(scrambled, sigma) != conjugate(lam, pi):
            return False, f"roundtrip drifted from a conjugate on {lam.to_lists()}"
    return True, "60 scrambled towers"


def _check_quasitoric_rejects_cycles(rng):
    two_cycle = [[1, 1], [2, 1]]
    three_cycle = [[1, 1, 0], [0, 1, 1], [-2, 0, 1]]
    for rows in (two_cycle, three_cycle):
        if not validate_characteristic(rows):
            return False, f"cycle example is not even characteristic: {rows}"
        if is_bott(rows)[0]:
            return False, f"cyclic matrix accepted as a tower: {rows}"
    if validate_characteristic([[1, 1], [1, 1]]):
        return False, "singular matrix accepted as characteristic"
    return True, "both cycle counterexamples rejected"


def _check_digraph_vs_scan(rng):
    compared = 0
    for _ in range(80):
        n = rng.randint(2, 5)
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                rows[i][j] = rng.choice([-2, -1, 1, 2])
        if not validate_characteristic(rows):
            continue
        fast = is_bott(rows)[0]
        slow = bott_by_exhaustive_permutations(rows)[0]
        if fast != slow:
            return False, f"digraph {fast} vs scan {slow} on {rows}"
        compared += 1
    if compared < 20:
        return False, f"only {compared} valid samples"
    return True, f"{compared} matrices compared"


def _check_cycle_determinant(rng):
    for _ in range(30):
        k = rng.randint(2, 6)
        hs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k)]
        prod = 1
        for h in hs:
            prod *= h
        expect = 1 + (-1) ** (k + 1) * prod
        if det_int(cycle_matrix(hs)) != expect:
            return False, f"determinant mismatch for cycle {hs}"
    return True, "30 cycles, k=2..6"


def _check_presentation_axioms(rng):
    for _ in range(40):
        mat = rand_bott(rng, 5, 3)
        if not bq_structure_check(mat):
            return False, f"tower ring failed its own axioms: {mat.to_lists()}"
    return True, "40 random height-5 towers"


SELFTEST_CHECKS = [
    ("ring-reduction-confluence", _check_reduction_confluence),
    ("ring-basis-dimension", _check_basis_dimension),
    ("ring-square-law", _check_square_law),
    ("ring-grading", _check_grading),
    ("coefficient-mode-agreement", _check_mode_agreement),
    ("conjugation-preserves-structure", _check_conjugation),
    ("stage-trivialization-decrement", _check_trivialize),
    ("retwist-preserves-square", _check_retwist),
    ("moves-preserve-ring-type", _check_moves_preserve_ring),
    ("twist-matches-exhaustive-minimum", _check_twist_vs_oracle),
    ("witness-rows-square-to-zero", _check_witness_square_zero),
    ("even-block-parity-lemma", _check_parity_block),
    ("one-twist-equivalence-relation", _check_onetwist_relation),
    ("one-twist-matches-ring-oracle", _check_onetwist_vs_ring),
    ("pontrjagin-class-invariance", _check_pontrjagin),
    ("bundle-triviality-routes-agree", _check_bundle_routes),
    ("quasitoric-roundtrip", _check_quasitoric_roundtrip),
    ("quasitoric-rejects-cycles", _check_quasitoric_rejects_cycles),
    ("digraph-matches-permutation-scan", _check_digraph_vs_scan),
    ("cyclic-determinant-closed-form", _check_cycle_determinant),
    ("presentation-axioms-random", _check_presentation_axioms),
]
