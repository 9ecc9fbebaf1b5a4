"""Tower moves: conjugation, stage trivialization, retwisting, reordering.

Hand values cover one worked example per move; properties assert the
structural contracts (admissibility, exact column decrement, parity).
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from bott_rigidity import (
    BottMatrix,
    BottRing,
    CoeffMode,
    admissible_permutations,
    conjugate,
    is_admissible,
    normalize_last_twist,
    pontrjagin_one_twist,
    retwist,
    ring_isomorphic,
    stage_fibration_trivial,
    trivialize_stage,
    twist_number,
)
from bott_rigidity.checks import rand_bott
from bott_rigidity.moves import _moved_basis, _trivialized


class TestConjugate:
    def test_worked_height_four_example(self):
        # stages 1, 2, 3 move to slots 3, 1, 2; entries follow their stages
        a = BottMatrix([[0, 1, 2, 3],
                        [0, 0, 0, 0],
                        [0, 0, 0, 4],
                        [0, 0, 0, 0]])
        expect = BottMatrix([[0, 2, 3, 1],
                             [0, 0, 4, 0],
                             [0, 0, 0, 0],
                             [0, 0, 0, 0]])
        assert conjugate(a, (0, 3, 1, 2)) == expect

    def test_rejects_inadmissible(self):
        m = BottMatrix([[0, 1], [0, 0]])
        assert not is_admissible(m, (1, 0))
        with pytest.raises(ValueError):
            conjugate(m, (1, 0))
        with pytest.raises(ValueError):
            conjugate(m, (0, 0))

    def test_admissible_counts(self):
        assert len(list(admissible_permutations(BottMatrix.zeros(3)))) == 6
        assert list(admissible_permutations(BottMatrix([[0, 1], [0, 0]]))) == [(0, 1)]
        single = BottMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        perms = list(admissible_permutations(single))
        assert len(perms) == 3
        assert (0, 1, 2) in perms

    def test_generator_matches_brute_filter(self):
        rng = random.Random(3)
        for _ in range(25):
            m = rand_bott(rng, rng.randint(2, 4))
            fast = set(admissible_permutations(m))
            slow = {p for p in permutations(range(m.n)) if is_admissible(m, p)}
            assert fast == slow

    def test_round_trip_and_invariants(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rand_bott(rng, rng.randint(2, 4))
            perms = list(admissible_permutations(m))
            sigma = perms[rng.randrange(len(perms))]
            conj = conjugate(m, sigma)
            assert conj.twist_count() == m.twist_count()
            inverse = [0] * m.n
            for i, s in enumerate(sigma):
                inverse[s] = i
            assert conjugate(conj, inverse) == m


class TestTrivializeStage:
    def test_predicate_hand_values(self):
        assert stage_fibration_trivial(BottMatrix([[0, 2], [0, 0]]), 1)
        assert not stage_fibration_trivial(BottMatrix([[0, 1], [0, 0]]), 1)
        # even column whose twist form has a nonzero square
        bad = BottMatrix([[0, 0, 2], [0, 0, 2], [0, 0, 0]])
        assert not stage_fibration_trivial(bad, 2)
        # zero column counts as trivial
        assert stage_fibration_trivial(BottMatrix.zeros(3), 1)

    def test_predicate_matches_ring_oracle(self):
        # oracle: every entry even and f * f = 0 in the ring of the base
        rng = random.Random(17)
        hits = 0
        for _ in range(120):
            n = rng.randint(1, 5)
            rows = rand_bott(rng, n).to_lists()
            for j in range(n):
                if rng.random() < 0.5:
                    for i in range(j):
                        rows[i][j] *= 2
            mat = BottMatrix(rows)
            for mode in CoeffMode:
                for m in range(n):
                    col = mat.column(m)
                    f = BottRing(mat.prefix(m), mode).line_element(col)
                    want = all(mode.is_even(c) for c in col) and (f * f).is_zero()
                    assert stage_fibration_trivial(mat, m, mode) == want, (rows, m, mode)
                    hits += want and any(col)
        assert hits >= 100

    def test_worked_example_updates_later_columns(self):
        m = BottMatrix([[0, 2, 1], [0, 0, 1], [0, 0, 0]])
        out = trivialize_stage(m, 1)
        assert out == BottMatrix([[0, 0, 2], [0, 0, 1], [0, 0, 0]])

    def test_refuses_when_predicate_fails(self):
        assert trivialize_stage(BottMatrix([[0, 1], [0, 0]]), 1) is None

    def test_exact_decrement(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(200):
            n = rng.randint(2, 4)
            rows = rand_bott(rng, n).to_lists()
            m = rng.randrange(1, n)
            for i in range(m):
                rows[i][m] *= 2
            mat = BottMatrix(rows)
            if mat.is_zero_column(m) or not stage_fibration_trivial(mat, m):
                continue
            out = trivialize_stage(mat, m)
            assert out is not None
            assert out.twist_count() == mat.twist_count() - 1
            assert out.is_zero_column(m)
            hits += 1
        assert hits >= 20

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_rewritten_towers_pass_the_validating_constructor(self, mode):
        # the move builds its towers unchecked (BottMatrix._trusted)
        rng = random.Random(13)
        hits = 0
        for _ in range(150):
            mat = rand_bott(rng, rng.randint(2, 6))
            for m in range(1, mat.n):
                out = trivialize_stage(mat, m, mode)
                if out is not None:
                    assert out == BottMatrix(out.to_lists())
                    assert all(type(x) is int for row in out.rows for x in row)
                    hits += 1
        assert hits >= 50

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_move_matches_the_doubling_rewrite(self, mode):
        # an even twist form is halved in place; the reference doubles every
        # entry, adds each shift and halves when all entries are even, as
        # every move did before, and both agree on the tower and on the
        # denominator that moves the basis; the basis moves as the all-rows
        # rewrite moves it, for every scale and denominator
        def doubling(mat, m):
            col = mat.column(m)
            twice = [[2 * x for x in row] for row in mat.rows]
            for i in range(m):
                twice[i][m] = 0
            for j in range(m + 1, mat.n):
                for i in range(m):
                    twice[i][j] += mat.entry(m, j) * col[i]
            if all(x % 2 == 0 for row in twice for x in row):
                return [[x // 2 for x in row] for row in twice], 1
            return [[x * 2 ** (j - i - 1) if j > i else 0 for j, x in enumerate(row)]
                    for i, row in enumerate(twice)], 2

        # the reference basis rewrite rebuilds every row: row m moved, every
        # other row scaled, then the row of stage i multiplied by denom**i
        def all_rows_moved(basis, col, m, scale, denom):
            row = [scale * a for a in basis[m]]
            for i, c in enumerate(col):
                if c:
                    row = [a - scale * c // 2 * b for a, b in zip(row, basis[i])]
            out = [[scale * a for a in r] for r in basis]
            out[m] = row
            return [[denom ** k * a for a in r] for k, r in enumerate(out)]

        rng = random.Random(41)
        hits = odd = 0
        for _ in range(400):
            mat = rand_bott(rng, rng.randint(2, 6), bound=rng.randint(1, 4))
            n = mat.n
            basis = [[rng.randint(-3, 3) if i < k else int(i == k) for i in range(n)]
                     for k in range(n)]
            for m in range(1, n):
                if mat.is_zero_column(m) or not stage_fibration_trivial(mat, m, mode):
                    continue
                before = [list(r) for r in basis]
                out, new_basis = _trivialized(mat, m, basis)
                rows, denom = doubling(mat, m)
                assert out.to_lists() == rows
                col = mat.column(m)
                scale = 2 if any(c % 2 for c in col) else 1
                assert new_basis == all_rows_moved(basis, col, m, scale, denom)
                for s, d in product((1, 2), repeat=2):
                    assert _moved_basis(basis, col, m, s, d) == all_rows_moved(basis, col, m, s, d)
                # unmoved rows may be shared with the input, which stays as it was
                assert basis == before
                assert _trivialized(mat, m)[1] is None
                hits += 1
                odd += any(c % 2 for c in mat.column(m))
        assert hits >= 80
        assert (odd > 20) == (mode is CoeffMode.RATIONAL)

    def test_stage_index_out_of_range(self):
        mat = BottMatrix([[0, 2], [0, 0]])
        for m in (-1, 2):
            with pytest.raises(IndexError):
                stage_fibration_trivial(mat, m)
            with pytest.raises(IndexError):
                trivialize_stage(mat, m)

    def test_rational_mode_clears_denominators(self):
        # odd columns become removable over Q; the move rescales later
        # generators so the stored matrix stays integral
        m = BottMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        out = trivialize_stage(m, 1, CoeffMode.RATIONAL)
        assert out == BottMatrix([[0, 0, 2], [0, 0, 2], [0, 0, 0]])
        rep = ring_isomorphic(m, out, CoeffMode.RATIONAL)
        assert rep.isomorphic is True
        assert twist_number(out, CoeffMode.RATIONAL).twist == \
            twist_number(m, CoeffMode.RATIONAL).twist

    def test_rational_mode_full_collapse(self):
        m = BottMatrix([[0, 1, 1], [0, 0, -2], [0, 0, 0]])
        assert twist_number(m, CoeffMode.RATIONAL).twist == 0
        assert twist_number(m, CoeffMode.INTEGER).twist == 2


class TestRetwist:
    def test_hand_values(self):
        # w = alpha: the complementary factor vanishes
        assert retwist([1, 1], [1, 1]) == [-1, -1]
        # w = 0 always works and fixes alpha
        assert retwist([1, 1], [0, 0]) == [1, 1]
        # product x0 * x1 is nonzero over the trivial base
        assert retwist([1, 1], [1, 0]) is None
        # squares vanish over the trivial base, so (2,0) reaches (0,0)
        assert retwist([2, 0], [1, 0]) == [0, 0]
        with pytest.raises(ValueError):
            retwist([1, 1], [1])

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), True, "1"])
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(TypeError, match="not an integer"):
            retwist([bad, 1], [0, 0])
        with pytest.raises(TypeError, match="not an integer"):
            retwist([1, 1], [bad, 0])

    def test_preserves_parity_and_square(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(30):
            k = rng.randint(1, 4)
            alpha = [rng.randint(-2, 2) for _ in range(k)]
            for w in product(range(-2, 3), repeat=k):
                beta = retwist(alpha, list(w))
                if beta is None:
                    continue
                assert all((x - y) % 2 == 0 for x, y in zip(alpha, beta))
                assert pontrjagin_one_twist(beta) == pontrjagin_one_twist(alpha)
                checked += 1
        assert checked > 50


class TestNormalizeLastTwist:
    def test_hand_values(self):
        m = BottMatrix([[0, 5, 0], [0, 0, 0], [0, 0, 0]])
        out, perm = normalize_last_twist(m)
        assert out == BottMatrix([[0, 0, 5], [0, 0, 0], [0, 0, 0]])
        assert perm == (0, 2, 1)

        m = BottMatrix([[0, 0, 1, 0], [0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        out, perm = normalize_last_twist(m)
        assert out == BottMatrix.from_last_column([1, 2, 0])
        assert perm == (0, 1, 3, 2)

    def test_identity_cases(self):
        z = BottMatrix.zeros(3)
        assert normalize_last_twist(z) == (z, (0, 1, 2))
        m = BottMatrix.from_last_column([1, 2])
        assert normalize_last_twist(m) == (m, (0, 1, 2))

    def test_rejects_multiple_twists(self):
        with pytest.raises(ValueError):
            normalize_last_twist(BottMatrix([[0, 1, 1], [0, 0, 0], [0, 0, 0]]))

    def test_move_is_a_conjugation(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 5)
            k = rng.randrange(1, n)
            col = [rng.randint(-3, 3) for _ in range(k)] + [0] * (n - 1 - k)
            col[rng.randrange(k)] = rng.choice([-2, -1, 1, 2])
            rows = [[0] * n for _ in range(n)]
            for i in range(k):
                rows[i][k] = col[i]
            m = BottMatrix(rows)
            if m.twist_count() != 1:
                continue
            out, perm = normalize_last_twist(m)
            assert conjugate(m, perm) == out
            assert out.nonzero_columns() in ([], [n - 1])
