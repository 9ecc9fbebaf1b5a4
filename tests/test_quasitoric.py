"""Characteristic-matrix recognition: normalization, validation, Bott detection.

The digraph-based recognizer is checked against the factorial-scan oracle,
and every roundtrip lands on an admissible conjugate of the source tower.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from bott_rigidity import (
    BottMatrix,
    conjugate,
    from_bott_matrix,
    is_admissible,
    is_bott,
    normalize_characteristic,
    to_bott_matrix,
    validate_characteristic,
)
from bott_rigidity.checks import (
    bott_by_exhaustive_permutations,
    bq_structure_check,
    cycle_matrix,
    rand_bott,
)
from bott_rigidity.linalg import det_int
from bott_rigidity.quasitoric import _recognition, _reordered_rows, _stage_order, principal_minor

IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
CYCLE_2 = [[1, 1], [2, 1]]
CYCLE_3 = [[1, 1, 0], [0, 1, 1], [-2, 0, 1]]


def scramble(rng, rows):
    """Relabel facet pairs and flip some row signs."""
    n = len(rows)
    rho = list(range(n))
    rng.shuffle(rho)
    out = [[rows[rho[i]][rho[j]] for j in range(n)] for i in range(n)]
    return [[-x for x in row] if rng.random() < 0.5 else row for row in out]


class TestNormalize:
    def test_hand_values(self):
        assert normalize_characteristic([[-1, 0], [0, 1]]) == [[1, 0], [0, 1]]
        assert normalize_characteristic([[2, 0], [0, 1]]) is None
        assert normalize_characteristic([[0, 1], [1, 0]]) is None

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            normalize_characteristic([[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), True, "1"])
    def test_non_integer_entries_rejected(self, bad):
        rows = [[1, bad], [0, 1]]
        for fn in (normalize_characteristic, validate_characteristic, is_bott):
            with pytest.raises(TypeError, match="not an integer"):
                fn(rows)
        with pytest.raises(TypeError, match="not an integer"):
            to_bott_matrix(rows, (0, 1))


class TestValidate:
    def test_hand_values(self):
        assert validate_characteristic(IDENTITY_3)
        assert not validate_characteristic([[1, 1], [1, 1]])
        # a diagonal entry other than +-1 fails before any minor is taken
        assert not validate_characteristic([[0, 1], [0, 1]])
        assert validate_characteristic(CYCLE_2)
        assert validate_characteristic(CYCLE_3)

    def test_principal_minor_rejects_non_int_entries(self):
        # the 1.5 used to be truncated to 1, giving the minor 1
        with pytest.raises(TypeError, match="1.5"):
            principal_minor([[1.5, 0], [0, 1]], [0, 1])

    def test_cycle_determinants(self):
        assert det_int(CYCLE_2) == -1
        assert det_int(CYCLE_3) == -1
        for k in range(2, 7):
            hs = [((-1) ** i) * (i + 1) for i in range(k)]
            mat = cycle_matrix(hs)
            prod = 1
            for h in hs:
                prod *= h
            assert det_int(mat) == 1 + (-1) ** (k + 1) * prod
            # a unit determinant makes a one-cycle matrix characteristic,
            # because every proper principal submatrix is triangular
            assert validate_characteristic(mat) == (abs(det_int(mat)) == 1)

    def test_size_guard(self):
        # the guard bounds the minor scan, which only a cyclic support runs
        big = cycle_matrix([-2] + [1] * 12)
        with pytest.raises(ValueError):
            validate_characteristic(big)
        tower = [[1 if i == j else 0 for j in range(13)] for i in range(13)]
        assert validate_characteristic(tower)

    def test_matches_principal_minor_scan(self):
        # oracle: every principal minor of size >= 2 of the row-sign
        # normalized matrix, with no shortcut for an acyclic support
        def scan(rows):
            if any(row[i] not in (1, -1) for i, row in enumerate(rows)):
                return False
            mat = [[row[i] * x for x in row] for i, row in enumerate(rows)]
            n = len(mat)
            return all(det_int([[mat[i][j] for j in sub] for i in sub]) in (1, -1)
                       for k in range(2, n + 1) for sub in combinations(range(n), k))

        rng = random.Random(211)
        mats = []
        for _ in range(60):
            n = rng.randint(1, 6)
            mats.append(scramble(rng, from_bott_matrix(rand_bott(rng, n, bound=3))))
        for _ in range(60):
            hs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(2, 6))]
            mats.append(scramble(rng, cycle_matrix(hs)))
        for _ in range(60):
            # a tower with one entry below the diagonal, often closing a cycle
            n = rng.randint(2, 6)
            rows = from_bott_matrix(rand_bott(rng, n, bound=2))
            i = rng.randrange(1, n)
            rows[i][rng.randrange(i)] = rng.choice((-2, -1, 1, 2))
            mats.append(scramble(rng, rows))
        verdicts = [validate_characteristic(mat) for mat in mats]
        assert verdicts == [scan(mat) for mat in mats]
        cyclic = [is_bott(mat) == (False, None) for mat, ok in zip(mats, verdicts) if ok]
        assert verdicts.count(False) and cyclic.count(True) and cyclic.count(False)


class TestIsBott:
    def test_hand_values(self):
        assert is_bott(IDENTITY_3) == (True, (0, 1, 2))
        assert is_bott(CYCLE_2) == (False, None)
        assert is_bott(CYCLE_3) == (False, None)

    def test_rejects_invalid_characteristic(self):
        with pytest.raises(ValueError):
            is_bott([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            is_bott([[0, 1], [0, 1]])

    def test_matches_factorial_oracle(self):
        rng = random.Random(89)
        mats = []
        for _ in range(40):
            n = rng.randint(2, 5)
            mats.append(scramble(rng, from_bott_matrix(rand_bott(rng, n, bound=3))))
        sizes = [2, 3, 4, 5]
        for k in sizes:
            hs = [rng.choice((-3, -2, 2, 3))] + [1] * (k - 1)
            mat = cycle_matrix(hs)
            if validate_characteristic(mat):
                mats.append(mat)
        for mat in mats:
            fast = is_bott(mat)[0]
            slow = bott_by_exhaustive_permutations(mat)[0]
            assert fast == slow

    def test_tall_tower_needs_no_minor_scan(self):
        # past the n = 12 scan guard a tower is still recognized, because
        # the stage order alone proves every principal minor +1
        rng = random.Random(103)
        n = 13
        lam = rand_bott(rng, n, bound=3)
        rho = list(range(n))
        rng.shuffle(rho)
        rows = from_bott_matrix(lam)
        scr = [[rows[rho[i]][rho[j]] for j in range(n)] for i in range(n)]
        scr = [[-x for x in row] if rng.random() < 0.5 else row for row in scr]
        ok, sigma = is_bott(scr)
        assert ok
        # stage i of scr is stage rho[i] of lam, and lands at sigma[i]
        pi = [0] * n
        for i in range(n):
            pi[rho[i]] = sigma[i]
        assert is_admissible(lam, pi)
        assert to_bott_matrix(scr, sigma) == conjugate(lam, pi)
        assert validate_characteristic(scr)
        # a 2-cycle between the first and last stage needs the scan, which
        # the guard refuses
        first, last = sigma.index(0), sigma.index(n - 1)
        cyc = [row[:] for row in scr]
        cyc[first][last] = cyc[last][first] = 1
        with pytest.raises(ValueError, match="principal-minor scan"):
            validate_characteristic(cyc)
        with pytest.raises(ValueError, match="principal-minor scan"):
            is_bott(cyc)

    def test_stage_order_matches_first_eligible_scan(self):
        # reference: each position rescans the stages for the first one
        # whose predecessors are all placed, O(n^3)
        def first_eligible(mat):
            n = len(mat)
            sigma = [None] * n
            for pos in range(n):
                for cand in range(n):
                    if sigma[cand] is None and all(sigma[i] is not None or mat[i][cand] == 0
                                                   for i in range(n) if i != cand):
                        sigma[cand] = pos
                        break
                else:
                    return None
            return tuple(sigma)

        rng = random.Random(131)
        mats = [normalize_characteristic(IDENTITY_3), normalize_characteristic(CYCLE_3)]
        for _ in range(150):
            n = rng.randint(1, 13)
            mats.append(normalize_characteristic(
                scramble(rng, from_bott_matrix(rand_bott(rng, n, bound=rng.randint(1, 3))))))
        for _ in range(150):
            # unit diagonal, random support of random density: sparse ones
            # are mostly acyclic, dense ones cyclic
            n = rng.randint(1, 13)
            density = rng.random() / 2
            mats.append([[1 if i == j else rng.choice((-2, -1, 1, 2)) * (rng.random() < density)
                          for j in range(n)] for i in range(n)])
        for _ in range(50):
            hs = [rng.choice((-3, -1, 1, 2)) for _ in range(rng.randint(2, 13))]
            mats.append(normalize_characteristic(scramble(rng, cycle_matrix(hs))))
        orders = [_stage_order(mat) for mat in mats]
        assert orders == [first_eligible(mat) for mat in mats]
        assert orders.count(None) >= 100 and len(mats) - orders.count(None) >= 200

    def test_factorial_scan_guard(self):
        big = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
        with pytest.raises(ValueError):
            bott_by_exhaustive_permutations(big)


class TestRoundtrip:
    def test_plain_roundtrip(self):
        lam = BottMatrix([[0, 2, 1], [0, 0, -1], [0, 0, 0]])
        rows = from_bott_matrix(lam)
        assert rows == [[1, 2, 1], [0, 1, -1], [0, 0, 1]]
        ok, sigma = is_bott(rows)
        assert ok and to_bott_matrix(rows, sigma) == lam

    def test_scrambled_roundtrip_hits_a_conjugate(self):
        rng = random.Random(97)
        for _ in range(150):
            n = rng.randint(2, 4)
            lam = rand_bott(rng, n, bound=3)
            scr = scramble(rng, from_bott_matrix(lam))
            assert validate_characteristic(scr)
            ok, sigma = is_bott(scr)
            assert ok
            back = to_bott_matrix(scr, sigma)
            assert any(is_admissible(lam, pi) and conjugate(lam, pi) == back
                       for pi in permutations(range(n)))

    def test_trusted_reorder_matches_validating_path(self):
        # the CLI prints the rows reordered by the stage order without a
        # check; to_bott_matrix takes any sigma and checks, and both agree
        # on every tower
        rng = random.Random(61)
        for n in range(1, 9):
            for _ in range(10):
                lam = rand_bott(rng, n, bound=3)
                scr = scramble(rng, from_bott_matrix(lam))
                mat, valid, sigma = _recognition(scr)
                assert valid and sigma is not None
                checked = to_bott_matrix(scr, sigma)
                assert _reordered_rows(mat, sigma) == checked.to_lists()
                assert checked == BottMatrix(checked.to_lists())

    def test_to_bott_rejects_inadmissible_order(self):
        rows = from_bott_matrix(BottMatrix([[0, 2], [0, 0]]))
        with pytest.raises(ValueError, match="below or on the diagonal"):
            to_bott_matrix(rows, (1, 0))

    @pytest.mark.parametrize("sigma", [
        (-3, 1, 2),     # read as (0, 1, 2) through negative indexing
        (0, 1, 2, 3),   # one stage too many
        (0, 1),         # an IndexError
        (0, 0, 2),      # reported as an entry below the diagonal
        (0, 1, 2.0), (False, True, 2), "012", {0, 1, 2}, None,
    ])
    def test_to_bott_rejects_a_sigma_that_is_no_permutation(self, sigma):
        rows = [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
        assert to_bott_matrix(rows, (0, 1, 2)) == BottMatrix([[0, 2, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="is not a permutation of range"):
            to_bott_matrix(rows, sigma)

    def test_to_bott_rejects_zero_diagonal(self):
        with pytest.raises(ValueError):
            to_bott_matrix([[0, 1], [1, 0]], (0, 1))


class TestBqStructure:
    def test_axioms_hold_on_random_towers(self):
        rng = random.Random(101)
        for _ in range(50):
            mat = rand_bott(rng, rng.randint(1, 5), bound=3)
            assert bq_structure_check(mat)

    def test_all_coefficient_modes(self):
        from bott_rigidity import CoeffMode
        mat = BottMatrix([[0, 1, -2], [0, 0, 3], [0, 0, 0]])
        for mode in CoeffMode:
            assert bq_structure_check(mat, mode)
