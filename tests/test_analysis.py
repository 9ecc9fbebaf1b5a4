"""Twist numbers, the exhaustive complexity oracle, and ring isomorphism.

Frozen values were derived by the oracle itself on tiny towers and then
pinned, or hand-computed (noted inline). Witness replays go through the
full ring engine, never the shortcut formulas.
"""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from bott_rigidity import (
    BottMatrix,
    BottRing,
    CoeffMode,
    complexity_oracle,
    diffeo_equivalent,
    even_block_forces_even_det,
    find_reducible_stage,
    modular_iso_exists,
    ring_isomorphic,
    square_zero_row_constraints,
    trivialize_stage,
    twist_number,
)
from bott_rigidity.linalg import det_fraction, det_int


def rand_bott(rng, n, bound=2):
    return BottMatrix([[rng.randint(-bound, bound) if j > i else 0
                        for j in range(n)] for i in range(n)])


def _tower(n, entries):
    """Strict upper triangle filled column by column from entries."""
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for j in range(n):
        for i in range(j):
            rows[i][j] = next(it)
    return rows


class TestFindReducibleStage:
    def test_hand_values(self):
        assert find_reducible_stage(BottMatrix([[0, 2], [0, 0]])) == 1
        assert find_reducible_stage(BottMatrix([[0, 1], [0, 0]])) is None
        assert find_reducible_stage(BottMatrix.zeros(3)) is None
        # both stages reducible: the scan runs from the top down
        both = BottMatrix([[0, 2, 2], [0, 0, 0], [0, 0, 0]])
        assert find_reducible_stage(both) == 2


class TestTwistNumber:
    def test_hand_values(self):
        assert twist_number(BottMatrix.zeros(3)).twist == 0
        rep = twist_number(BottMatrix([[0, 2], [0, 0]]))
        assert rep.twist == 0
        assert len(rep.witness_moves) == 1
        assert rep.final_matrix == BottMatrix.zeros(2)
        assert twist_number(BottMatrix([[0, 1], [0, 0]])).twist == 1
        # greedy removes the even first column, leaving one odd column
        assert twist_number(BottMatrix([[0, 2, 1], [0, 0, 1], [0, 0, 0]])).twist == 1

    def test_moves_replay(self):
        rng = random.Random(53)
        for _ in range(40):
            mat = rand_bott(rng, rng.randint(2, 4))
            rep = twist_number(mat)
            cur = mat
            for move in rep.witness_moves:
                cur = trivialize_stage(cur, move["stage"])
                assert cur is not None
                assert cur.to_lists() == move["matrix"]
            assert cur == rep.final_matrix
            assert cur.twist_count() == rep.twist
            assert find_reducible_stage(cur) is None

    def test_certification(self):
        rep = twist_number(BottMatrix([[0, 2], [0, 0]]), certify=True)
        assert rep.certified_minimal and not rep.budget_exhausted
        assert rep.oracle.value == 0
        # towers above the certification height skip the oracle
        rep = twist_number(BottMatrix.zeros(6), certify=True, certify_n_max=5)
        assert rep.budget_exhausted and rep.oracle is None
        rep = twist_number(BottMatrix.zeros(6), certify=True, certify_n_max=6)
        assert rep.certified_minimal


class TestComplexityOracle:
    def test_hand_values(self):
        assert complexity_oracle(BottMatrix.zeros(3)).value == 0
        assert complexity_oracle(BottMatrix([[0, 2], [0, 0]])).value == 0
        assert complexity_oracle(BottMatrix([[0, 1], [0, 0]])).value == 1
        # all three square-zero lines collide mod 2, forcing two twists
        rep = complexity_oracle(BottMatrix([[0, 1, 1], [0, 0, -2], [0, 0, 0]]))
        assert rep.value == 2 and rep.lower_bound == 2 and rep.certified

    def test_rational_collapse(self):
        # over Q the same tower splits completely: three independent lines
        rep = complexity_oracle(BottMatrix([[0, 1, 1], [0, 0, -2], [0, 0, 0]]),
                                CoeffMode.RATIONAL)
        assert rep.value == 0 and rep.certified

    def test_witness_shape(self):
        rep = complexity_oracle(BottMatrix([[0, 2], [0, 0]]))
        w = rep.witness
        assert len(w["basis"]) == 2
        assert det_fraction(w["basis"]) in (1, -1)
        assert w["zero_rows"] == 2 - rep.value

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        mat = BottMatrix([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match=f"got {bound}"):
            complexity_oracle(mat, bound=bound)
        with pytest.raises(ValueError, match=f"got {bound}"):
            twist_number(mat, certify=True, bound=bound)

    def test_pinned_values_and_witnesses(self):
        # every height-3 tower over [-2,2] in every mode, then 60 seeded
        # height-4 towers over [-3,3]: the digest pins each value, lower
        # bound and witness basis, so pool order and solve reuse are fixed
        modes = list(CoeffMode)
        cases = [(_tower(3, e), mode) for mode in modes
                 for e in product(range(-2, 3), repeat=3)]
        rng = random.Random(11)
        for k in range(60):
            cases.append((_tower(4, [rng.randint(-3, 3) for _ in range(6)]), modes[k % 3]))
        lines = []
        for rows, mode in cases:
            rep = complexity_oracle(BottMatrix(rows), mode, bound=2)
            lines.append(repr((rows, mode.value, rep.value, rep.lower_bound,
                               rep.certified, rep.witness)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "137b650f79895f801d419064ad37f6b38192a2d81be6f11fb7fc3c6f45e7a92a"

    def test_greedy_matches_oracle_exhaustively_height_two(self):
        for a in range(-3, 4):
            mat = BottMatrix([[0, a], [0, 0]])
            rep = twist_number(mat, certify=True, bound=2)
            assert rep.certified_minimal
            assert rep.twist == (0 if a % 2 == 0 else 1)


HIRZ_1 = BottMatrix([[0, 1], [0, 0]])
HIRZ_3 = BottMatrix([[0, 3], [0, 0]])


class TestRingIsomorphic:
    def test_odd_hirzebruch_pair(self):
        rep = ring_isomorphic(HIRZ_1, HIRZ_3)
        assert rep.isomorphic is True and rep.complete
        assert rep.reason == "witness verified"
        rows = rep.witness["rows"]
        assert abs(det_fraction(rows)) == 1

    def test_identity_pair(self):
        rep = ring_isomorphic(HIRZ_1, HIRZ_1)
        assert rep.isomorphic is True

    def test_parity_obstruction(self):
        rep = ring_isomorphic(BottMatrix.zeros(2), HIRZ_1)
        assert rep.isomorphic is False and rep.complete
        assert "mod 2" in rep.reason

    def test_modular_obstruction(self):
        a = BottMatrix.from_last_column([1, 1])
        b = BottMatrix.from_last_column([1, 2])
        rep = ring_isomorphic(a, b)
        assert rep.isomorphic is False and rep.complete
        assert "mod 4" in rep.reason

    def test_odd_prime_obstruction(self):
        # entry 3 exceeds the default row bound, but no unit change of
        # basis exists mod 3, and that check runs before the witness search
        a = BottMatrix.from_last_column([1, 1])
        b = BottMatrix.from_last_column([1, 3])
        rep = ring_isomorphic(a, b)
        assert rep.isomorphic is False and rep.complete
        assert rep.reason == "no unit change of basis mod 3"
        assert rep.moduli_checked == (2, 4, 3)

    def test_honest_none_outside_search_bound(self):
        # inequivalent (|products| 3, 3, 9 vs 9, 9, 9), but mod 2, 4, 3 and
        # 8 all admit a change of basis and 9^4 exceeds the odd-modulus scan
        # limit; the verdict stays open rather than being guessed
        a = BottMatrix.from_last_column([1, 3, 3])
        b = BottMatrix.from_last_column([3, 3, 3])
        rep = ring_isomorphic(a, b)
        assert rep.isomorphic is None and not rep.complete
        assert rep.moduli_checked == (2, 4, 3, 8)

    def test_integer_verdicts_match_criterion_on_box(self):
        # every unordered pair of one-twist vectors over [-3,3]^2 is decided,
        # and each verdict equals the closed-form criterion
        vecs = list(product(range(-3, 4), repeat=2))
        for i, x in enumerate(vecs):
            for y in vecs[i:]:
                rep = ring_isomorphic(BottMatrix.from_last_column(list(x)),
                                      BottMatrix.from_last_column(list(y)))
                assert rep.isomorphic is diffeo_equivalent(x, y)[0], (x, y, rep.reason)

    def test_odd_moduli_only_in_integer_mode(self):
        # p and p^2 for the odd primes of the entries, in ascending order,
        # while q^3 <= 8^4 (so 25 is left out); odd primes are units over
        # Z_(2), and Q has no finite quotient
        a = BottMatrix.from_last_column([3, 5])
        checked = {mode: ring_isomorphic(a, a, mode).moduli_checked for mode in CoeffMode}
        assert checked[CoeffMode.INTEGER] == (2, 4, 3, 5, 9)
        assert checked[CoeffMode.TWO_LOCAL] == (2, 4)
        assert checked[CoeffMode.RATIONAL] == ()

    def test_stage_count_obstruction(self):
        rep = ring_isomorphic(BottMatrix.zeros(2), BottMatrix.zeros(3))
        assert rep.isomorphic is False
        assert rep.reason == "stage count differs"

    def test_witness_rows_replay_through_engine(self):
        pairs = [(HIRZ_1, HIRZ_3),
                 (BottMatrix([[0, 2], [0, 0]]), BottMatrix.zeros(2)),
                 (BottMatrix([[0, 1, 1], [0, 0, -2], [0, 0, 0]]),
                  BottMatrix([[0, 1, 1], [0, 0, 0], [0, 0, 0]]))]
        for a, b in pairs:
            rep = ring_isomorphic(a, b)
            assert rep.isomorphic is True
            host, target = (a, b) if rep.witness["direction"] == "second_into_first" \
                else (b, a)
            ring = BottRing(host)
            elems = [ring.line_element(r) for r in rep.witness["rows"]]
            for k in range(target.n):
                u = ring.zero()
                for i in range(k):
                    u = u + target.entry(i, k) * elems[i]
                assert (elems[k] * elems[k] - u * elems[k]).is_zero()
            # rows sent to stages with zero twist must square to zero
            for j in range(target.n):
                if target.is_zero_column(j):
                    assert square_zero_row_constraints(host, rep.witness["rows"][j])

    def test_symmetry_of_verdicts(self):
        rng = random.Random(59)
        for _ in range(25):
            a, b = rand_bott(rng, 2), rand_bott(rng, 2)
            va = ring_isomorphic(a, b).isomorphic
            vb = ring_isomorphic(b, a).isomorphic
            assert va == vb

    def test_modes_agree_on_small_corpus(self):
        for x, y in [((1,), (3,)), ((2,), (0,)), ((1,), (2,)), ((1, 1), (1, 2))]:
            a = BottMatrix.from_last_column(list(x))
            b = BottMatrix.from_last_column(list(y))
            vz = ring_isomorphic(a, b).isomorphic
            v2 = ring_isomorphic(a, b, CoeffMode.TWO_LOCAL).isomorphic
            assert vz is not None and vz == v2


def _brute_modular_iso(a, b, modulus):
    """Reference: every vector of (Z/modulus)^n per row, full rank mod p."""
    p = next(d for d in range(2, modulus + 1) if modulus % d == 0)
    n = a.n
    vectors = list(product(range(modulus), repeat=n))
    rows = []

    def rank_mod_p(mat):
        work = [[x % p for x in r] for r in mat]
        rank = 0
        for c in range(n):
            piv = next((r for r in range(rank, len(work)) if work[r][c]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            inv = pow(work[rank][c], -1, p)
            work[rank] = [x * inv % p for x in work[rank]]
            for r in range(len(work)):
                if r != rank and work[r][c]:
                    f = work[r][c]
                    work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
            rank += 1
        return rank

    def rec(k):
        if k == n:
            return True
        u = [sum(b.entry(i, k) * rows[i][c] for i in range(k)) % modulus for c in range(n)]
        for w in vectors:
            if any((2 * w[i] * w[j] + a.entry(i, j) * w[j] * w[j] - u[i] * w[j]
                    - u[j] * w[i] - a.entry(i, j) * u[j] * w[j]) % modulus
                   for j in range(n) for i in range(j)):
                continue
            if rank_mod_p(rows + [w]) != k + 1:
                continue
            rows.append(w)
            if rec(k + 1):
                return True
            rows.pop()
        return False

    return rec(0)


class TestModularIso:
    @pytest.mark.parametrize("modulus", [2, 3, 4, 5, 8, 9])
    def test_matches_brute_force_reference(self, modulus):
        rng = random.Random(1000 + modulus)
        outcomes = set()
        for n, count in ((2, 30), (3, 6 if modulus < 8 else 1)):
            for _ in range(count):
                a, b = rand_bott(rng, n, 3), rand_bott(rng, n, 3)
                got = modular_iso_exists(a, b, modulus)
                assert got == _brute_modular_iso(a, b, modulus), (a, b)
                outcomes.add(got)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("modulus", [1, 0, -4])
    def test_modulus_below_two_rejected(self, modulus):
        # modulus 1 used to report an obstruction for a tower and itself
        with pytest.raises(ValueError, match=f"got {modulus}"):
            modular_iso_exists(HIRZ_1, HIRZ_1, modulus)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError, match="prime power"):
            modular_iso_exists(HIRZ_1, HIRZ_1, 6)

    def test_necessary_condition(self):
        # an exact isomorphism must survive every finite quotient
        for m in (2, 4, 8):
            assert modular_iso_exists(HIRZ_1, HIRZ_3, m)

    def test_parity_separates(self):
        assert not modular_iso_exists(BottMatrix.zeros(2), HIRZ_1, 2)

    def test_trivial_pair(self):
        assert modular_iso_exists(BottMatrix.zeros(2), BottMatrix.zeros(2), 2)


class TestEvenBlockLemma:
    def test_hand_values(self):
        rows = [[2, 2, 1], [4, 0, 1], [1, 1, 1]]
        # rows {0,1} x cols {0,1} even, 2 + 2 > 3
        assert even_block_forces_even_det(rows, [0, 1], [0, 1])
        assert det_int(rows) % 2 == 0
        assert not even_block_forces_even_det([[1, 0], [0, 1]], [0], [0])

    def test_small_block_not_enough(self):
        rows = [[2, 1], [1, 1]]
        assert not even_block_forces_even_det(rows, [0], [0])
        assert det_int(rows) % 2 == 1

    def test_planted_blocks_force_even_determinants(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(3, 5)
            r = rng.randint(1, n)
            t = n + 1 - r
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            ri = rng.sample(range(n), r)
            ci = rng.sample(range(n), t)
            for i in ri:
                for j in ci:
                    rows[i][j] = 2 * rng.randint(-2, 2)
            assert even_block_forces_even_det(rows, ri, ci)
            assert det_int(rows) % 2 == 0
