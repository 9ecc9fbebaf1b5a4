"""Twist numbers, the exhaustive complexity oracle, and ring isomorphism.

Frozen values were derived by the oracle itself on tiny towers and then
pinned, or hand-computed (noted inline). Witness replays go through the
full ring engine, never the shortcut formulas.
"""

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations, islice, product
from math import isqrt, prod

import pytest

from bott_rigidity import (
    BottMatrix,
    BottRing,
    CoeffMode,
    diffeo_equivalent,
    find_reducible_stage,
    line_square_pairs,
    modular_iso_exists,
    ring_isomorphic,
    trivialize_stage,
    twist_number,
)
from bott_rigidity import analysis, core, moves, quadratic
from bott_rigidity.analysis import complexity_oracle
from bott_rigidity.checks import even_block_forces_even_det, rand_bott
from bott_rigidity.linalg import (
    _cleared_rows, cofactor_vector, det_fraction, det_int, maximal_minors_gcd, rank_fraction,
)
from bott_rigidity.quadratic import square_zero_lines


def _tower(n, entries):
    """Strict upper triangle filled column by column from entries."""
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for j in range(n):
        for i in range(j):
            rows[i][j] = next(it)
    return rows


def _witness_towers():
    """Every tower of heights 2-3 over [-2,2] and 600 seeded towers of
    heights 4-8, whose certified twist numbers exercise the witness."""
    rng = random.Random(2509)
    towers = [_tower(n, e) for n in (2, 3) for e in product(range(-2, 3), repeat=n * (n - 1) // 2)]
    towers += [rand_bott(rng, n).to_lists() for n in range(4, 9) for _ in range(120)]
    return towers


def _sorted_witness(final, basis):
    """The witness shape as a sort, with its inversion count: the reference
    for analysis._basis_witness, which shapes the rows in its checking pass."""
    n = len(basis)
    cols = final.columns
    order = [k for k in range(n) if not any(cols[k])]
    need = len(order)
    order += [k for k in range(n) if any(cols[k])]
    pos = {k: p for p, k in enumerate(order)}
    twist_rows = []
    for k in order[need:]:
        coeffs = [0] * n
        for i, c in enumerate(cols[k]):
            coeffs[pos[i]] = c
        twist_rows.append(coeffs)
    inversions = sum(p > q for p, q in combinations(order, 2))
    det = (-1) ** inversions * prod(basis[k][k] for k in range(n))
    witness = {"basis": [basis[k] for k in order], "zero_rows": need,
               "twist_coefficients": twist_rows, "det": Fraction(det)}
    return witness, inversions


def _sorted_last_row(finite, families, cof, mode):
    """The last row as a sorted member list gives it: the reference for
    analysis._least_unit_row, which takes it in one pass."""
    def det(w):
        return sum(x * y for x, y in zip(cof, w))

    def params(w0, step):
        return mode.unit_parameters(det(w0), det(step))

    for w in analysis._members(finite, families, params):
        value = det(w)
        if value and mode.is_unit(value):
            return w
    return None


def _typed_row(w):
    return None if w is None else [(x, type(x)) for x in w]


def _clear_caches():
    """Empty every memo the package keeps across calls."""
    for module in (analysis, core, quadratic):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def _pinned_pairs():
    """The 325 unordered one-twist pairs of [-2,2]^2, then 40 seeded pairs
    of height-3 towers over [-2,2]."""
    vecs = list(product(range(-2, 3), repeat=2))
    pairs = [(BottMatrix.from_last_column(list(x)), BottMatrix.from_last_column(list(y)))
             for i, x in enumerate(vecs) for y in vecs[i:]]
    rng = random.Random(5)
    for _ in range(40):
        a, b = ([rng.randint(-2, 2) for _ in range(3)] for _ in range(2))
        pairs.append((BottMatrix(_tower(3, a)), BottMatrix(_tower(3, b))))
    return pairs


def _oracle_cases():
    """Every height-3 tower over [-2,2] in every mode, then 60 seeded
    height-4 towers over [-3,3], the modes taken in turn."""
    modes = list(CoeffMode)
    cases = [(_tower(3, e), mode) for mode in modes
             for e in product(range(-2, 3), repeat=3)]
    rng = random.Random(11)
    for k in range(60):
        cases.append((_tower(4, [rng.randint(-3, 3) for _ in range(6)]), modes[k % 3]))
    return cases


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

    def test_each_stage_checked_once(self, monkeypatch):
        # the greedy loop rewrites the stage find_reducible_stage accepted
        # without checking it again: stage 3 is odd, so the passes check
        # stages (3, 2), (3, 1) and (3)
        seen = []
        check = moves.stage_fibration_trivial

        def counting(matrix, m, mode=CoeffMode.INTEGER):
            seen.append((matrix, m))
            return check(matrix, m, mode)

        monkeypatch.setattr(analysis, "stage_fibration_trivial", counting)
        monkeypatch.setattr(moves, "stage_fibration_trivial", counting)
        rep = twist_number(BottMatrix([[0, 2, 2, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
        assert [move["stage"] for move in rep.witness_moves] == [2, 1]
        assert rep.twist == 1
        assert [m for _, m in seen] == [3, 2, 3, 1, 3]
        assert len(set(seen)) == len(seen)

    def test_certification(self):
        rep = twist_number(BottMatrix([[0, 2], [0, 0]]), certify=True)
        assert rep.certified_minimal and not rep.budget_exhausted
        assert rep.oracle.value == 0
        # so is a taller one, by the line bound alone
        rep = twist_number(BottMatrix.zeros(6), certify=True)
        assert rep.certified_minimal and not rep.budget_exhausted
        assert (rep.oracle.value, rep.oracle.lower_bound) == (0, 0)
        identity = [[int(i == k) for i in range(6)] for k in range(6)]
        assert rep.oracle.witness == {"basis": identity, "zero_rows": 6,
                                      "twist_coefficients": [], "det": 1}

    def test_count_above_the_line_bound_is_left_uncertified(self, monkeypatch):
        # no tower is known whose greedy count exceeds the line bound, so
        # the bound is lowered by one, on a tower low enough for a box
        # search: none runs, and the count comes back uncertified
        mat = BottMatrix([[0, 1, 1], [0, 0, -2], [0, 0, 0]])
        witness = twist_number(mat, certify=True).oracle.witness
        real = analysis._line_lower_bound
        searched = []
        monkeypatch.setattr(analysis, "_line_lower_bound",
                            lambda n, lines, mode: real(n, lines, mode) - 1)
        monkeypatch.setattr(analysis, "complexity_oracle",
                            lambda *args, **kwargs: searched.append(args))
        rep = twist_number(mat, certify=True)
        assert searched == []
        assert rep.budget_exhausted and not rep.certified_minimal
        assert (rep.twist, rep.oracle.value, rep.oracle.lower_bound) == (2, 2, 1)
        assert not rep.oracle.certified and rep.oracle.witness == witness
        # without certify there is no certificate and no budget to exhaust
        rep = twist_number(mat)
        assert rep.oracle is None
        assert not rep.certified_minimal and not rep.budget_exhausted

    @pytest.mark.parametrize("mode", [CoeffMode.INTEGER, CoeffMode.TWO_LOCAL])
    def test_line_bound_is_polynomial_in_height(self, mode, monkeypatch):
        # row 0 all ones: e_0 and the n - 1 lines 2 e_j - e_0 square to
        # zero, and every pair of them has maximal-minor gcd 2, so a scan
        # over line subsets would try 2**16 - 17 of them before k = 1
        n = 16
        mat = BottMatrix([[int(i == 0 < j) for j in range(n)] for i in range(n)])
        assert len(square_zero_lines(mat)) == n
        minors = []
        monkeypatch.setattr(analysis, "maximal_minors_gcd",
                            lambda rows: minors.append(rows) or maximal_minors_gcd(rows))
        start = time.process_time()
        rep = twist_number(mat, mode, certify=True)
        assert time.process_time() - start < 1.0
        assert rep.certified_minimal and not rep.budget_exhausted
        assert (rep.twist, rep.oracle.lower_bound) == (n - 1, n - 1)
        assert minors == []

    def test_tall_towers_certify_without_search(self, monkeypatch):
        searched = []
        monkeypatch.setattr(analysis, "complexity_oracle",
                            lambda *args, **kwargs: searched.append(args))
        rng = random.Random(58)
        for n in range(1, 9):
            for mode in CoeffMode:
                for _ in range(10):
                    mat = rand_bott(rng, n, rng.randint(1, 3))
                    rep = twist_number(mat, mode, certify=True)
                    assert rep.certified_minimal and not rep.budget_exhausted
                    assert rep.oracle.value == rep.oracle.lower_bound == rep.twist
        assert searched == []


    def test_pinned_twist_reports(self):
        # full certified reports (moves, final matrix, bound and witness,
        # entry types included) on every height-3 tower over [-2,2] and
        # seeded towers of heights 4-8, in every mode; the digest was taken
        # before the towers carried their columns
        modes = [CoeffMode(m) for m in ("z", "z2local", "q")]
        cases = [(_tower(3, e), mode) for mode in modes
                 for e in product(range(-2, 3), repeat=3)]
        rng = random.Random(29)
        for n in range(4, 9):
            for _ in range(6):
                rows = rand_bott(rng, n).to_lists()
                cases += [(rows, mode) for mode in modes]
        lines = []
        for rows, mode in cases:
            rep = twist_number(BottMatrix(rows), mode, certify=True)
            oracle = rep.oracle
            lines.append(repr((rows, mode.value, rep.twist, rep.witness_moves,
                               rep.final_matrix.to_lists(), oracle.value,
                               oracle.lower_bound, oracle.witness)))
        assert len(lines) == 465
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "c2e74d10853e739c80a126ea7d427432dbc4738dd26172b0e126df5f37ac8ede"


class TestWitnessChecks:
    # the trivial tower: every relation reads y_k^2 = 0
    ZEROS = BottMatrix.zeros(2)

    def test_row_breaking_a_relation_rejected(self):
        # x_0 + x_1 squares to 2 x_0 x_1
        with pytest.raises(AssertionError, match="fails a relation"):
            analysis._basis_witness(self.ZEROS, self.ZEROS, [[1, 0], [1, 1]], CoeffMode.INTEGER)

    def test_entry_above_the_diagonal_rejected(self):
        # swapping the generators keeps every relation and a unit
        # determinant, but no move composes it
        with pytest.raises(AssertionError, match="not lower triangular"):
            analysis._basis_witness(self.ZEROS, self.ZEROS, [[0, 1], [1, 0]], CoeffMode.INTEGER)

    def test_non_unit_diagonal_rejected_over_z(self):
        # 3 x_0 still squares to zero, but the determinant is 3
        basis = [[3, 0], [0, 1]]
        with pytest.raises(AssertionError, match="not a unit"):
            analysis._basis_witness(self.ZEROS, self.ZEROS, basis, CoeffMode.INTEGER)
        witness = analysis._basis_witness(self.ZEROS, self.ZEROS, basis, CoeffMode.RATIONAL)
        assert witness["det"] == 3

    def test_replay_rejects_a_row_breaking_a_relation(self):
        with pytest.raises(AssertionError, match="relation replay"):
            analysis._verified_witness(self.ZEROS, self.ZEROS, [[1, 0], [1, 1]],
                                       CoeffMode.INTEGER, "first_into_second")

    def test_det_matches_elimination(self):
        # the determinant read off the diagonal is the one Bareiss gives,
        # a Fraction in every mode
        for rows in _witness_towers():
            for mode in CoeffMode:
                witness = twist_number(BottMatrix(rows), mode, certify=True).oracle.witness
                expected = det_fraction(witness["basis"])
                assert type(witness["det"]) is type(expected) is Fraction
                assert witness["det"] == expected

    @pytest.mark.parametrize("mode", list(CoeffMode))
    @pytest.mark.parametrize("rows, inversions", [
        # a square-zero last stage above 0, 1, 2 and 3 twisted stages
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),
        ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], 1),
        ([[0, 1, 2, 0], [0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 2),
        ([[0, 1, 1, 3, 0], [0, 0, 2, 0, 0], [0, 0, 0, -1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], 3),
        # square-zero stages above 1 and 2 twisted ones
        ([[0, 1, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], 3),
        # a twisted last stage after square-zero ones
        ([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]], 0),
    ])
    def test_shape_matches_the_sort_by_hand(self, rows, inversions, mode):
        # the identity presents a tower inside its own ring; the one-pass
        # shape equals the sorted one, entry types included, and its sign
        # is the parity of the inversions
        final = BottMatrix(rows)
        n = final.n
        basis = [[int(i == k) for i in range(n)] for k in range(n)]
        want, count = _sorted_witness(final, basis)
        got = analysis._basis_witness(final, final, basis, mode)
        assert count == inversions and got["det"] == (-1) ** inversions
        assert got == want and repr(got) == repr(want)

    def test_shape_matches_the_sort_on_composed_bases(self, monkeypatch):
        # every witness twist_number builds for the towers of
        # test_det_matches_elimination equals the sorted shape, entry types
        # included; 151 of the 2190 reorderings are odd
        real = analysis._basis_witness
        seen = []

        def recorded(matrix, final, basis, mode):
            got = real(matrix, final, basis, mode)
            seen.append((got, *_sorted_witness(final, basis)))
            return got

        monkeypatch.setattr(analysis, "_basis_witness", recorded)
        for rows in _witness_towers():
            for mode in CoeffMode:
                twist_number(BottMatrix(rows), mode, certify=True)
        odd = 0
        for got, want, inversions in seen:
            assert got == want and repr(got) == repr(want)
            odd += inversions % 2
        assert len(seen) == 2190 and 50 < odd < len(seen) // 2


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

    @pytest.mark.parametrize("bound", [True, 2.0, 1.5, Fraction(2)])
    def test_non_integer_bound_rejected(self, bound):
        # a float bound used to fail deep inside range(), and True or 2.0
        # were taken as the box bound 1 or 2
        mat = BottMatrix([[0, 1], [0, 0]])
        with pytest.raises(TypeError, match="bound: entry"):
            complexity_oracle(mat, bound=bound)
        with pytest.raises(TypeError, match="bound: entry"):
            twist_number(mat, certify=True, bound=bound)

    @pytest.mark.parametrize("bound, error", [(1.5, TypeError), (0, ValueError)])
    def test_bound_checked_without_certify(self, bound, error):
        # the keyword selects nothing without certify, and used to be
        # checked only with it
        with pytest.raises(error, match="bound"):
            twist_number(BottMatrix([[0, 1], [0, 0]]), certify=False, bound=bound)

    def test_pinned_values_and_witnesses(self):
        # the digest pins each value, lower bound and witness basis, so
        # pool order and solve reuse are fixed
        lines = []
        for rows, mode in _oracle_cases():
            rep = complexity_oracle(BottMatrix(rows), mode, bound=2)
            lines.append(repr((rows, mode.value, rep.value, rep.lower_bound,
                               rep.certified, rep.witness)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "137b650f79895f801d419064ad37f6b38192a2d81be6f11fb7fc3c6f45e7a92a"

    def test_bound_certificate_matches_search(self):
        # the certificate twist_number composes from its moves agrees with
        # the search, and its basis replays through the ring engine
        for rows, mode in _oracle_cases():
            mat = BottMatrix(rows)
            search = complexity_oracle(mat, mode, bound=2)
            rep = twist_number(mat, mode, certify=True, bound=2)
            assert rep.certified_minimal
            assert (rep.oracle.value, rep.oracle.lower_bound) == (search.value,
                                                                  search.lower_bound)
            w = rep.oracle.witness
            need, n = w["zero_rows"], mat.n
            assert need == n - rep.twist == len(w["basis"]) - len(w["twist_coefficients"])
            target = [[0] * n for _ in range(n)]
            for r, coeffs in enumerate(w["twist_coefficients"]):
                for i, c in enumerate(coeffs):
                    target[i][need + r] = c
            replayed = analysis._verified_witness(mat, BottMatrix(target), w["basis"],
                                                  mode, "second_into_first")
            assert replayed["det"] == w["det"]

    def test_line_bound_matches_subset_definition(self):
        # the closed form against its definition: n minus the largest
        # number of lines whose maximal minors have a unit gcd
        cases = [(BottMatrix(rows), mode) for rows, mode in _oracle_cases()]
        for n in (1, 5):
            cases += [(BottMatrix.zeros(n), mode) for mode in CoeffMode]
        ones = BottMatrix([[int(i == 0 < j) for j in range(6)] for i in range(6)])
        cases += [(ones, mode) for mode in CoeffMode]
        for mat, mode in cases:
            lines = square_zero_lines(mat)
            sizes = [k for k in range(len(lines) + 1)
                     if any(mode.is_unit(maximal_minors_gcd(list(sub)))
                            for sub in combinations(lines, k))]
            assert analysis._line_lower_bound(mat.n, lines, mode) == mat.n - max(sizes)

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

    def test_mod_eight_after_the_search(self):
        # mod 2, 4 (and 3, 9 over Z) admit a change of basis and the
        # witness search finds none, so mod 8 runs after it and decides;
        # Q has no finite quotient, and a witness exists there
        a = BottMatrix([[0, -2, -3], [0, 0, 1], [0, 0, 0]])
        b = BottMatrix([[0, 0, -1], [0, 0, -2], [0, 0, 0]])
        for mode, moduli in ((CoeffMode.INTEGER, (2, 4, 3, 9, 8)),
                             (CoeffMode.TWO_LOCAL, (2, 4, 8))):
            rep = ring_isomorphic(a, b, mode)
            assert (rep.isomorphic, rep.reason, rep.complete, rep.moduli_checked) == \
                (False, "no unit change of basis mod 8", True, moduli)
        rep = ring_isomorphic(a, b, CoeffMode.RATIONAL)
        assert (rep.isomorphic, rep.reason, rep.moduli_checked) == (True, "witness verified", ())
        host, target = (a, b) if rep.witness["direction"] == "second_into_first" else (b, a)
        ring = BottRing(host, CoeffMode.RATIONAL)
        elems = [ring.line_element(r) for r in rep.witness["rows"]]
        for k in range(target.n):
            u = ring.zero()
            for i in range(k):
                u = u + target.entry(i, k) * elems[i]
            assert (elems[k] * elems[k] - u * elems[k]).is_zero()
        assert det_fraction(rep.witness["rows"]) != 0

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

    def test_witness_found_only_into_the_second(self):
        # over Z_(2) the search from a's side finds nothing, so the witness
        # (det -15, a unit only 2-locally) must come from the reverse search
        a = BottMatrix([[0, -1, 0], [0, 0, -3], [0, 0, 0]])
        b = BottMatrix([[0, -1, -2], [0, 0, 1], [0, 0, 0]])
        assert analysis._dfs_direction(a, b, CoeffMode.TWO_LOCAL) is None
        rep = ring_isomorphic(a, b, CoeffMode.TWO_LOCAL)
        assert rep.isomorphic is True and rep.reason == "witness verified"
        assert rep.witness["direction"] == "first_into_second"
        assert rep.witness["det"] == -15

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
                    assert not line_square_pairs(host, rep.witness["rows"][j])

    def test_symmetry_of_verdicts(self):
        rng = random.Random(59)
        for _ in range(25):
            a, b = rand_bott(rng, 2), rand_bott(rng, 2)
            va = ring_isomorphic(a, b).isomorphic
            vb = ring_isomorphic(b, a).isomorphic
            assert va == vb

    def test_pinned_verdicts_and_witnesses_in_every_mode(self):
        # the pinned pairs, each in every mode: the digest pins verdict,
        # reason, completeness, moduli and witness (entry types included)
        pairs, lines = _pinned_pairs(), []
        for mode in CoeffMode:
            for a, b in pairs:
                rep = ring_isomorphic(a, b, mode)
                lines.append(repr((a, b, mode.value, rep.isomorphic, rep.reason, rep.complete,
                                   rep.moduli_checked, rep.witness)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "9d29f387815ee79db66d0f736710344ac78b890ece90cc66ffb0463fd9afed28"

    @staticmethod
    def _report_line(a, b, mode, rep):
        # verdict, reason, moduli and witness, with the type of every row
        # entry and of det spelled out
        w = rep.witness
        if w is not None:
            w = (w["direction"], w["rows"], [[type(x).__name__ for x in r] for r in w["rows"]],
                 w["det"], type(w["det"]).__name__)
        return repr((a.to_lists(), b.to_lists(), mode.value, rep.isomorphic, rep.reason,
                     rep.moduli_checked, w))

    @pytest.mark.parametrize("mode, bound, want", [
        (CoeffMode.INTEGER, 3, "99380f81c2e51491659bda628615cf331d433ac4eda99445383737b35c0532ca"),
        (CoeffMode.TWO_LOCAL, 3, "6d00fc3f6671813f346d32556ccc5769dc490a0a7457eb4f09c810243b4e1b01"),
        (CoeffMode.RATIONAL, 2, "61926543d5b48e5a4e820815c41a0340b8c00694a95bb11e7362d556b00b9bbf"),
    ])
    def test_pinned_reports_on_the_benchmark_pairs(self, mode, bound, want):
        # the 1225 unordered one-twist pairs of [-3,3]^2 (the iso_pairs
        # benchmark inputs) over Z and Z_(2), and the 325 of [-2,2]^2 over Q
        vecs = list(product(range(-bound, bound + 1), repeat=2))
        pairs = [(BottMatrix.from_last_column(list(x)), BottMatrix.from_last_column(list(y)))
                 for i, x in enumerate(vecs) for y in vecs[i:]]
        lines = [self._report_line(a, b, mode, ring_isomorphic(a, b, mode)) for a, b in pairs]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == want

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_pinned_reports_at_heights_zero_and_one(self, mode):
        # height 0 still runs mod 2 and mod 4 over Z and Z_(2); over Q the
        # height-1 witness row is a Fraction. det is a Fraction in every mode.
        moduli = () if mode is CoeffMode.RATIONAL else (2, 4)
        one = Fraction(1) if mode is CoeffMode.RATIONAL else -1
        for n, rows, det in ((0, [], 1), (1, [[one]], one)):
            z = BottMatrix.zeros(n)
            rep = ring_isomorphic(z, z, mode)
            assert (rep.isomorphic, rep.reason, rep.moduli_checked) == (
                True, "witness verified", moduli)
            assert rep.witness == {"direction": "second_into_first", "rows": rows, "det": det}
            assert [type(x) for r in rep.witness["rows"] for x in r] == [type(one)] * n
            assert type(rep.witness["det"]) is Fraction

    def test_answers_do_not_depend_on_the_caches(self):
        # each call on empty caches, then every call again on warm caches
        # in shuffled order; the report must not change in any mode. The
        # height-3 pairs reach rows above the last with u != 0, which the
        # one-twist pairs never do.
        pairs = _pinned_pairs()
        cases = [(a, b, mode) for mode in CoeffMode for a, b in pairs]

        def report(case):
            rep = ring_isomorphic(*case)
            return rep.isomorphic, rep.reason, rep.complete, rep.moduli_checked, repr(rep.witness)

        cold = {}
        for case in cases:
            _clear_caches()
            cold[case] = report(case)
        random.Random(29).shuffle(cases)
        for case in cases:
            assert report(case) == cold[case], case
        # fresh equal copies, after more distinct towers than _tower_facts
        # holds: the copies become the first-seen towers while the other
        # caches still hold the evicted originals
        for entries in islice(product(range(-3, 4), repeat=5), analysis._FACTS_CACHED):
            analysis._tower_facts(BottMatrix.from_last_column(list(entries)))
        a, b, _ = cases[0]
        fresh = BottMatrix(a.rows)
        assert analysis._tower_facts(fresh).tower is fresh
        for a, b, mode in cases:
            assert report((BottMatrix(a.rows), BottMatrix(b.rows), mode)) == cold[a, b, mode]

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_second_call_compares_each_tower_once(self, mode, monkeypatch):
        # no entry is -1 or -2 (hash(-1) == hash(-2)), so no two distinct
        # towers here share a hash; a second call on fresh equal towers
        # compares rows once per tower, in its _tower_facts lookup, when the
        # first call filled every cache with the same first-seen towers
        _clear_caches()
        pairs = [([3, 5], [5, 3]), ([0, 4], [4, 0]), ([3, 3], [6, 0]),
                 ([1, 3], [3, 1]), ([2, 0], [0, 0])]
        tower = [[0, 1, 3, 0], [0, 0, 4, 1], [0, 0, 0, 5], [0, 0, 0, 0]]
        pairs = [(BottMatrix.from_last_column(x), BottMatrix.from_last_column(y))
                 for x, y in pairs] + [(BottMatrix(tower), BottMatrix(tower))]
        calls = []
        eq = BottMatrix.__eq__

        def counted(self, other):
            calls.append(1)
            return eq(self, other)

        for a, b in pairs:
            first = ring_isomorphic(a, b, mode)
            monkeypatch.setattr(BottMatrix, "__eq__", counted)
            calls.clear()
            again = ring_isomorphic(BottMatrix(a.rows), BottMatrix(b.rows), mode)
            monkeypatch.undo()
            assert len(calls) == 2, (a, b)
            assert (again.isomorphic, again.reason, again.moduli_checked,
                    repr(again.witness)) == (first.isomorphic, first.reason,
                                             first.moduli_checked, repr(first.witness))

    def test_large_prime_entry_search_is_fast(self):
        # from a fresh process the witness search makes 108 divisors calls
        # on 12 values, 6 of them small multiples of 10^10 + 19 (prime), and
        # the divisor cache answers 96; trial division to the square root
        # of each such multiple on every call took seconds
        _clear_caches()
        a = BottMatrix.from_last_column([1, 10 ** 10 + 19])
        b = BottMatrix.from_last_column([1, 1])
        start = time.process_time()
        rep = ring_isomorphic(a, b)
        assert time.process_time() - start < 1.0
        assert rep.isomorphic is None and rep.moduli_checked == (2, 4, 8)

    def test_huge_smooth_entries_are_fast(self):
        # 10**20 and 3**40 have only small prime factors, so their divisors
        # come from a short factorization; a scan to the square root did
        # not finish in minutes
        for big in (10 ** 20, 3 ** 40):
            a = BottMatrix.from_last_column([big, 3])
            b = BottMatrix.from_last_column([3, big])
            start = time.process_time()
            rep = ring_isomorphic(a, b)
            assert time.process_time() - start < 1.0
            assert (rep.isomorphic, rep.reason) == (True, "witness verified")

    def test_row_equation_keyed_on_values(self):
        # Fraction(2) == 2 and both hash alike, and the solutions take
        # their entry types from value and mode alone, so an int u and an
        # equal Fraction u share one entry; the solutions and the sampled
        # rows are tuples all the way down, so no caller can change them
        _clear_caches()
        host = BottMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        entries = []
        for u in ((2, 0, 1), (Fraction(2), 0, Fraction(1))):
            entry = analysis._row_equation(host, u, CoeffMode.RATIONAL)
            finite, families, sampled, cleared = entry
            assert sampled and isinstance(entry, tuple)
            assert all(isinstance(part, tuple) for part in entry)
            assert all(isinstance(w, tuple) for w in finite + sampled)
            assert all(isinstance(w0, tuple) and isinstance(step, tuple)
                       for w0, step in families)
            # sampled holds the members at |t| <= FAMILY_SAMPLE
            span = range(-analysis.FAMILY_SAMPLE, analysis.FAMILY_SAMPLE + 1)
            assert sampled == analysis._members(finite, families, lambda w0, step: span)
            # each sampled row carries its cleared integer row (a tuple) and multiplier
            assert len(cleared) == len(sampled) and all(
                isinstance(row, tuple) and _cleared_rows([w]) == ([list(row)], mult)
                for w, (row, mult) in zip(sampled, cleared))
            entries.append(entry)
        assert entries[0] is entries[1]
        info = analysis._row_equation.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_last_row_matches_sorted_members(self, mode):
        # rows above the last placed as the witness search may place them:
        # a sampled member of each row equation, independent of the rows
        # before it; then the last row of each choice, with entry types
        rng = random.Random(151)
        found = 0
        for _ in range(200):
            n = rng.randint(2, 4)
            host = rand_bott(rng, n)
            # a tower against itself always has a unit last row along the identity
            target = host if rng.random() < 0.5 else rand_bott(rng, n)
            rows = []
            for k in range(n):
                u = tuple(sum(x * r[c] for x, r in zip(target.columns[k], rows))
                          for c in range(n))
                finite, families, sampled, _ = analysis._row_equation(host, u, mode)
                if k == n - 1:
                    cof = cofactor_vector(rows)
                    got = analysis._least_unit_row(finite, families, cof, mode)
                    assert _typed_row(got) == _typed_row(
                        _sorted_last_row(finite, families, cof, mode)), (host, target, rows)
                    found += got is not None
                    break
                options = [w for w in sampled if rank_fraction(rows + [w]) == k + 1]
                if not options:
                    break
                # the search tries the smallest rows first
                rows.append(rng.choice(options[:3]))
        assert found >= 30

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_last_row_keeps_the_first_listed_of_equal_rows(self, mode):
        # a family member equal in value to an earlier candidate of another
        # type is a repeat: the earlier one, with its entry types, is chosen
        one = (Fraction(1), Fraction(0), Fraction(0))
        cof = (1, 0, 0)
        # over Q the parameters are Fractions, so a family member is one too
        t = Fraction if mode is CoeffMode.RATIONAL else int

        def typed(kind):
            return [(1, kind), (0, kind), (0, kind)]

        cases = [
            (((1, 0, 0),), ((one, (0, 0, 1)),), typed(int)),
            ((), ((one, (0, 0, 1)), ((1, 0, 0), (0, 0, 1))), typed(Fraction)),
            (((1, 1, 0),), (((1, 0, 0), (0, 0, 1)),), typed(t)),
            (((0, 0, 0), (0, 1, 1)), (), None),
        ]
        for finite, families, want in cases:
            got = analysis._least_unit_row(finite, families, cof, mode)
            assert _typed_row(got) == want
            assert _typed_row(_sorted_last_row(finite, families, cof, mode)) == want

    def test_each_row_equation_solved_once(self, monkeypatch):
        # every row of the witness search, the last one included, reads
        # w^2 = u w from one cache: one solve per distinct key
        keys = []
        solve = analysis.twisted_row_solutions

        def counted(host, u, mode):
            keys.append((host, u, mode))
            return solve(host, u, mode)

        monkeypatch.setattr(analysis, "twisted_row_solutions", counted)
        pairs = _pinned_pairs()
        _clear_caches()
        for mode in CoeffMode:
            for a, b in pairs:
                ring_isomorphic(a, b, mode)
        assert keys and len(keys) == len(set(keys))

    def test_modes_agree_on_small_corpus(self):
        for x, y in [((1,), (3,)), ((2,), (0,)), ((1,), (2,)), ((1, 1), (1, 2))]:
            a = BottMatrix.from_last_column(list(x))
            b = BottMatrix.from_last_column(list(y))
            vz = ring_isomorphic(a, b).isomorphic
            v2 = ring_isomorphic(a, b, CoeffMode.TWO_LOCAL).isomorphic
            assert vz is not None and vz == v2


class TestIsoModuli:
    @staticmethod
    def _full_factorization_moduli(a, b):
        n = a.n
        odd = set()
        for t in (a, b):
            for j in range(n):
                for i in range(j):
                    value, d = abs(t.entry(i, j)), 2
                    while value > 1:
                        if d * d > value:
                            odd.add(value)
                            break
                        while value % d == 0:
                            odd.add(d)
                            value //= d
                        d += 1
        odd.discard(2)
        moduli = sorted(q for p in odd for q in (p, p * p) if q ** n <= analysis.ODD_SCAN_LIMIT)
        return (2, 4, *moduli), (8,)

    def test_bounded_factoring_matches_full_factorization(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(1, 8)
            bound = rng.choice((60, 10 ** 6))
            a, b = rand_bott(rng, n, bound), rand_bott(rng, n, bound)
            assert analysis._iso_moduli(a, b, CoeffMode.INTEGER) == \
                self._full_factorization_moduli(a, b), (a, b)

    @staticmethod
    def _set_union_moduli(a, b, mode):
        # the per-pair set union over per-tower odd primes that
        # _tower_facts and its tuple merge replaced, as the reference
        def odd_scan_primes(tower):
            n = tower.n
            entries = {e for col in tower.columns for e in col if e}
            return frozenset(p for p in range(3, isqrt(analysis.ODD_SCAN_LIMIT) + 1, 2)
                             if p ** n <= analysis.ODD_SCAN_LIMIT
                             and any(e % p == 0 for e in entries)
                             and all(p % d for d in range(3, p, 2)))

        if mode.is_unit(2):
            return (), ()
        n = a.n
        odd = {p for t in (a, b) for p in odd_scan_primes(t) if not mode.is_unit(p)}
        moduli = sorted(q for p in odd for q in (p, p * p) if q ** n <= analysis.ODD_SCAN_LIMIT)
        return (2, 4, *moduli), (8,)

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_tuple_merge_matches_set_union(self, mode):
        rng = random.Random(73)
        for _ in range(400):
            n = rng.randint(0, 8)
            bound = rng.choice((3, 30, 10 ** 6))
            a, b = rand_bott(rng, n, bound), rand_bott(rng, n, bound)
            for x, y in ((a, b), (b, a), (a, a)):
                assert analysis._iso_moduli(x, y, mode) == \
                    self._set_union_moduli(x, y, mode), (x, y)

    def test_large_prime_entry_is_not_factored(self):
        # 2^61 - 1 is prime; full trial division would take ~1.5e9 steps
        a = BottMatrix.from_last_column([2 ** 61 - 1])
        b = BottMatrix.from_last_column([1])
        start = time.process_time()
        assert analysis._iso_moduli(a, b, CoeffMode.INTEGER) == ((2, 4), (8,))
        assert time.process_time() - start < 1.0


class TestModeValues:
    def test_value_string_means_its_member(self):
        # "q" used to fail the identity tests and be treated as Z, giving a
        # false "mod 2" obstruction; over Q these two rings are isomorphic
        a, b = BottMatrix.zeros(2), HIRZ_1
        rep = ring_isomorphic(a, b, "q")
        assert rep.isomorphic is True
        assert rep == ring_isomorphic(a, b, CoeffMode.RATIONAL)
        assert rep.mode is CoeffMode.RATIONAL

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_values_agree_with_members(self, mode):
        vecs = list(product(range(-1, 2), repeat=2))
        for i, x in enumerate(vecs):
            for y in vecs[i:]:
                a = BottMatrix.from_last_column(list(x))
                b = BottMatrix.from_last_column(list(y))
                rep = ring_isomorphic(a, b, mode.value)
                assert rep == ring_isomorphic(a, b, mode), (x, y)
                assert rep.mode is mode
        assert complexity_oracle(HIRZ_1, mode.value).mode is mode

    def test_unknown_mode_rejected(self):
        # the zeros(2) vs HIRZ_1 pair is obstructed mod 2 before any ring
        # is built, so the error must come from normalising the mode
        for call in (lambda: ring_isomorphic(BottMatrix.zeros(2), HIRZ_1, "bogus"),
                     lambda: complexity_oracle(HIRZ_1, "bogus"),
                     lambda: twist_number(HIRZ_1, "bogus")):
            with pytest.raises(ValueError, match="bogus"):
                call()


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
    # height-3 pairs (entries as in _tower) on which the scan revisits a
    # failed state and answers from its memo, 2 to 336 times per call
    MEMO_HIT_CASES = {
        4: [((0, 2, -1), (0, 3, 0)), ((0, 0, -2), (2, -3, 3)), ((2, -3, 2), (2, 0, 2))],
        9: [((3, 1, 3), (1, -1, -3)), ((0, 0, 2), (-3, -1, -3)), ((3, -3, 0), (2, -2, -2))],
    }

    # height-3 pairs whose square-zero counts differ, so the scan answers
    # False before any search
    COUNT_CASES = {
        3: [((3, -3, 2), (0, -1, 2)), ((3, -2, 1), (-3, -1, -3))],
        9: [((-2, 1, 3), (3, 3, -3)), ((-1, -2, 2), (-2, 3, 0))],
    }
    # height-3 pairs with equal counts whose lexicographically first row 0
    # (first square-zero row nonzero mod 3) has first unit entry 2, so the
    # one-row-per-unit-orbit rule skips it
    ORBIT_CASES = {
        9: [((-3, 0, -3), (3, 3, -3)), ((-1, 0, -3), (3, 2, 0)), ((1, 0, -3), (-1, 3, 0))],
    }

    @pytest.mark.parametrize("modulus", [2, 3, 4, 5, 8, 9])
    def test_matches_brute_force_reference(self, modulus):
        rng = random.Random(1000 + modulus)
        cases = []
        for n, count in ((2, 30), (3, 6 if modulus < 8 else 1)):
            cases += [(rand_bott(rng, n, 3), rand_bott(rng, n, 3)) for _ in range(count)]
        for table in (self.MEMO_HIT_CASES, self.COUNT_CASES, self.ORBIT_CASES):
            cases += [(BottMatrix(_tower(3, x)), BottMatrix(_tower(3, y)))
                      for x, y in table.get(modulus, ())]
        outcomes = set()
        for a, b in cases:
            got = modular_iso_exists(a, b, modulus)
            assert got == _brute_modular_iso(a, b, modulus), (a, b)
            outcomes.add(got)
        assert outcomes == {True, False}

    def test_reduction_cases_exercise_the_reductions(self):
        def square_zero(t, q):
            return [w for w in product(range(q), repeat=t.n)
                    if all((2 * w[i] * w[j] + t.entry(i, j) * w[j] * w[j]) % q == 0
                           for j in range(t.n) for i in range(j))]

        for q, pairs in self.COUNT_CASES.items():
            for x, y in pairs:
                a, b = BottMatrix(_tower(3, x)), BottMatrix(_tower(3, y))
                assert len(square_zero(a, q)) != len(square_zero(b, q))
        for q, pairs in self.ORBIT_CASES.items():
            for x, y in pairs:
                a, b = BottMatrix(_tower(3, x)), BottMatrix(_tower(3, y))
                zeros_a = square_zero(a, q)
                assert len(zeros_a) == len(square_zero(b, q))
                first = next(w for w in zeros_a if any(v % 3 for v in w))
                assert next(v for v in first if v % 3) != 1
                assert modular_iso_exists(a, b, q)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 8, 9])
    def test_symmetric_in_the_two_towers(self, modulus):
        # an isomorphism mod q has an inverse, so the scan may not depend
        # on which tower hosts it
        rng = random.Random(2000 + modulus)
        outcomes = set()
        for n, count in ((2, 40), (3, 30 if modulus < 8 else 10)):
            for _ in range(count):
                a, b = rand_bott(rng, n, 3), rand_bott(rng, n, 3)
                got = modular_iso_exists(a, b, modulus)
                assert got == modular_iso_exists(b, a, modulus), (a, b)
                outcomes.add(got)
        assert outcomes == {True, False}

    def test_answers_do_not_depend_on_the_caches(self):
        # every scan on empty caches, then again on warm caches in shuffled
        # order, with both towers as host
        rng = random.Random(3000)
        pairs = [(rand_bott(rng, 3, 3), rand_bott(rng, 3, 3)) for _ in range(30)]
        pairs += [(rand_bott(rng, 4, 3), rand_bott(rng, 4, 3)) for _ in range(10)]
        pairs += [(a, a) for a, _ in pairs[-5:]]
        cases = [(x, y, m) for a, b in pairs for x, y in ((a, b), (b, a))
                 for m in (2, 3, 4, 8, 9)]
        cold = {}
        for case in cases:
            _clear_caches()
            cold[case] = modular_iso_exists(*case)
        assert set(cold.values()) == {True, False}
        rng.shuffle(cases)
        for case in cases:
            assert modular_iso_exists(*case) == cold[case], case

    def test_every_cache_is_bounded(self):
        # more quotient pairs than the verdict memo holds: the 125 height-3
        # towers mod 5, each against 9 hosts
        _clear_caches()
        size = analysis._VERDICTS_CACHED
        towers = [BottMatrix(_tower(3, e)) for e in product(range(5), repeat=3)]
        cases = [(a, b) for a in towers[:9] for b in towers]
        assert len(cases) > size
        got = [modular_iso_exists(a, b, 5) for a, b in cases]
        assert all(v for (a, b), v in zip(cases, got) if a == b)
        info = analysis._modular_verdict.cache_info()
        assert info.maxsize == size and info.currsize == size
        # the most recent keys were all still cached
        assert [modular_iso_exists(a, b, 5) for a, b in cases[-size:]] == got[-size:]
        assert analysis._modular_verdict.cache_info().misses == info.misses
        for module in (analysis, core, quadratic):
            for fn in vars(module).values():
                if hasattr(fn, "cache_info"):
                    assert fn.cache_info().maxsize is not None, fn

    @pytest.mark.parametrize("x, y, modulus", [
        ((1, 3, 3), (3, 3, 3), 9),
        ((1, 3, 3), (3, 3, 3), 27),
        ((1, 5, 5), (5, 5, 5), 25),
        ((1, 1, 1, 3), (1, 1, 1, 1), 9),
    ])
    def test_odd_prime_power_scans_outside_the_limit_obstruct(self, x, y, modulus):
        # inequivalent one-twist pairs whose modulus ring_isomorphic leaves
        # out (q^n > ODD_SCAN_LIMIT), though the scan itself settles them
        a, b = BottMatrix.from_last_column(list(x)), BottMatrix.from_last_column(list(y))
        assert modulus ** a.n > analysis.ODD_SCAN_LIMIT
        assert modular_iso_exists(a, b, modulus) is False
        assert modular_iso_exists(b, a, modulus) is False

    def test_pinned_verdicts(self):
        # the 325 one-twist pairs of [-2,2]^2 at the moduli ring_isomorphic
        # checks on them over Z (2 and 4), and 20 seeded height-3 pairs at
        # moduli 2, 3, 4, 8 and 9; the digest was taken from the echelon-based
        # scan that the span-set search replaced
        vecs = list(product(range(-2, 3), repeat=2))
        cases = [(BottMatrix.from_last_column(list(x)), BottMatrix.from_last_column(list(y)), m)
                 for i, x in enumerate(vecs) for y in vecs[i:] for m in (2, 4)]
        rng = random.Random(7)
        for _ in range(20):
            a, b = (BottMatrix(_tower(3, [rng.randint(-3, 3) for _ in range(3)]))
                    for _ in range(2))
            cases += [(a, b, m) for m in (2, 3, 4, 8, 9)]
        lines = [repr((a, b, m, modular_iso_exists(a, b, m))) for a, b, m in cases]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "5afe05d90961eb465ed61e402c045a8774008f42a90035d048eb8a0dadf8bd0c"

    @pytest.mark.parametrize("modulus", [4.0, True, "4"])
    def test_non_integer_modulus_rejected(self, modulus):
        with pytest.raises(TypeError, match="modulus: entry"):
            modular_iso_exists(HIRZ_1, HIRZ_1, modulus)

    @pytest.mark.parametrize("modulus", [1, 0, -4])
    def test_modulus_below_two_rejected(self, modulus):
        # modulus 1 used to report an obstruction for a tower and itself
        with pytest.raises(ValueError, match=f"got {modulus}"):
            modular_iso_exists(HIRZ_1, HIRZ_1, modulus)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError, match="prime power"):
            modular_iso_exists(HIRZ_1, HIRZ_1, 6)

    def test_prime_of_matches_brute_force(self):
        # the prime of every prime power in -5..20000, by sieve and
        # repeated multiplication; every other value raises ValueError
        top = 20000
        sieve = [True] * (top + 1)
        want = {}
        for p in range(2, top + 1):
            if sieve[p]:
                sieve[p * p::p] = [False] * len(sieve[p * p::p])
                q = p
                while q <= top:
                    want[q] = p
                    q *= p
        analysis._prime_of.cache_clear()
        for modulus in range(-5, top + 1):
            if modulus in want:
                assert analysis._prime_of(modulus) == want[modulus], modulus
            else:
                with pytest.raises(ValueError):
                    analysis._prime_of(modulus)

    @pytest.mark.parametrize("modulus, prime", [(2 ** 40, 2), (3 ** 25, 3)])
    def test_prime_of_large_power_is_fast(self, modulus, prime):
        # trial division stops at the least divisor, not at sqrt(modulus)
        analysis._prime_of.cache_clear()
        start = time.process_time()
        assert analysis._prime_of(modulus) == prime
        with pytest.raises(ValueError, match="prime power"):
            analysis._prime_of(modulus * 5)
        assert time.process_time() - start < 1.0

    def test_necessary_condition(self):
        # an exact isomorphism must survive every finite quotient
        for m in (2, 4, 8):
            assert modular_iso_exists(HIRZ_1, HIRZ_3, m)

    def test_parity_separates(self):
        assert not modular_iso_exists(BottMatrix.zeros(2), HIRZ_1, 2)

    def test_trivial_pair(self):
        assert modular_iso_exists(BottMatrix.zeros(2), BottMatrix.zeros(2), 2)
        # height 0: the empty rows are the unit change of basis
        assert modular_iso_exists(BottMatrix.zeros(0), BottMatrix.zeros(0), 9) is True

    def test_stage_count_differs(self):
        assert modular_iso_exists(BottMatrix.zeros(2), BottMatrix.zeros(3), 2) is False

    @staticmethod
    def _shifted(rng, tower, q):
        # a tower congruent to tower mod q, each entry moved by a multiple of q
        return BottMatrix([[x + q * rng.randint(-2, 2) if j > i else 0
                            for j, x in enumerate(row)] for i, row in enumerate(tower.rows)])

    @pytest.mark.parametrize("modulus", [2, 3, 4, 8, 9])
    def test_congruent_pairs_get_one_verdict(self, modulus):
        # the verdict memo is keyed on the towers mod q; each pair is scanned
        # on empty caches, so the shifted pair is scanned afresh too
        rng = random.Random(4000 + modulus)
        outcomes = set()
        for n, count in ((2, 12), (3, 12 if modulus < 8 else 4)):
            for _ in range(count):
                a, b = rand_bott(rng, n, 3), rand_bott(rng, n, 3)
                a2, b2 = self._shifted(rng, a, modulus), self._shifted(rng, b, modulus)
                _clear_caches()
                got = modular_iso_exists(a, b, modulus)
                _clear_caches()
                assert modular_iso_exists(a2, b2, modulus) == got, (a, b, a2, b2)
                outcomes.add(got)
        assert outcomes == {True, False}

    def test_congruent_pairs_share_one_memo_entry(self):
        rng = random.Random(4100)
        a, b = BottMatrix(_tower(3, (1, 3, 2))), BottMatrix(_tower(3, (1, 1, 2)))
        a2, b2 = self._shifted(rng, a, 4), self._shifted(rng, b, 4)
        assert (a, b) != (a2, b2)
        _clear_caches()
        assert analysis._modular_verdict.cache_info().currsize == 0
        got = modular_iso_exists(a, b, 4)
        assert modular_iso_exists(a2, b2, 4) == got
        info = analysis._modular_verdict.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.maxsize == analysis._VERDICTS_CACHED
        # the same towers mod another modulus are another quotient pair
        modular_iso_exists(a, b, 2)
        assert analysis._modular_verdict.cache_info().currsize == 2


class TestTowerArguments:
    # a tower given as plain lists is named in a TypeError at each entry point
    ROWS = [[0, 1], [0, 0]]

    def test_ring_isomorphic(self):
        with pytest.raises(TypeError, match="b: expected a BottMatrix, got list"):
            ring_isomorphic(HIRZ_1, self.ROWS)

    def test_modular_iso_exists(self):
        with pytest.raises(TypeError, match="a: expected a BottMatrix, got list"):
            modular_iso_exists(self.ROWS, HIRZ_1, 2)

    def test_twist_number(self):
        with pytest.raises(TypeError, match="matrix: expected a BottMatrix, got list"):
            twist_number(self.ROWS, certify=True)

    def test_complexity_oracle(self):
        with pytest.raises(TypeError, match="matrix: expected a BottMatrix, got list"):
            complexity_oracle(self.ROWS)


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
