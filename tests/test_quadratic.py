"""Degree-2 arithmetic shortcuts and the twisted-square equation solver.

The closed pair formulas are checked against the full ring engine; the
solver is checked for soundness, and its integer rows over Z and Z_(2)
for completeness against a brute-force box scan.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from bott_rigidity import BottMatrix, BottRing, CoeffMode
from bott_rigidity.checks import rand_bott
from bott_rigidity.quadratic import (
    RowSolutions,
    _product_vanishes,
    divisors,
    line_product_pairs,
    line_square_pairs,
    perfect_square_root,
    primitive_rows_box,
    square_zero_lines,
    twisted_row_solutions,
)


def pairs_via_engine(matrix, z, w):
    ring = BottRing(matrix, CoeffMode.RATIONAL)
    p = ring.line_element(z) * ring.line_element(w)
    return {tuple(sorted(k)): Fraction(v) for k, v in p.terms.items()}


class TestClosedForms:
    def test_match_ring_engine(self):
        rng = random.Random(29)
        for _ in range(120):
            n = rng.randint(2, 5)
            mat = rand_bott(rng, n)
            z = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(n)]
            w = [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(n)]
            got = {k: Fraction(v) for k, v in line_product_pairs(mat, z, w).items()}
            assert got == pairs_via_engine(mat, z, w)
            got_sq = {k: Fraction(v) for k, v in line_square_pairs(mat, z).items()}
            assert got_sq == pairs_via_engine(mat, z, z)

    def test_product_with_itself_is_the_square(self):
        # w^2 = g w is always solved by g = w, so no box row can be ruled
        # out of the complexity oracle's pool before the span is known
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 6)
            mat = rand_bott(rng, n, bound=4)
            w = [rng.randint(-5, 5) for _ in range(n)]
            assert line_product_pairs(mat, w, w) == line_square_pairs(mat, w)

    def test_sparse_vectors_match_the_entry_formula(self):
        # the kernel skips a pair whose z_j and w_j are both 0 and drops the
        # vanishing terms when one is; the full formula, entry by entry, is
        # the reference, on vectors that are mostly zero
        def by_entries(mat, z, w):
            out = {}
            for j in range(mat.n):
                for i in range(j):
                    c = z[i] * w[j] + z[j] * w[i] + mat.entry(i, j) * z[j] * w[j]
                    if c:
                        out[(i, j)] = c
            return out

        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(0, 6)
            mat = rand_bott(rng, n, bound=3)

            def sparse():
                return [rng.choice([0, 0, 0, rng.randint(-4, 4),
                                    Fraction(rng.randint(-4, 4), rng.choice([1, 3]))])
                        for _ in range(n)]

            z, w = sparse(), sparse()
            assert line_product_pairs(mat, z, w) == by_entries(mat, z, w)
            assert line_product_pairs(mat, w, z) == by_entries(mat, w, z)
            assert line_square_pairs(mat, z) == by_entries(mat, z, z)

    def test_vanishing_kernel_matches_the_coefficients(self):
        # _product_vanishes answers "is the product zero?" without the
        # coefficients: on the whole tower it agrees with an empty
        # line_product_pairs, and on the first m columns with vectors of
        # length m it agrees with the product over the base of stage m,
        # read from the same tower with the vectors padded by zeros
        rng = random.Random(47)
        vanished = kept = 0
        for _ in range(60):
            for n in range(9):
                mat = rand_bott(rng, n, bound=rng.randint(1, 3))
                cols = mat.columns

                def entry():
                    return rng.choice([0, 0, rng.randint(-3, 3),
                                       Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))])

                z = [entry() for _ in range(n)]
                w = [entry() for _ in range(n)]
                line = square_zero_lines(mat)
                cases = [(z, w), (w, z), (z, z), (z, [0] * n), ([0] * n, [0] * n)]
                cases += [(v, v) for v in line] + [(v, [2 * x for x in v]) for v in line]
                cases += [([int(x) for x in z], [int(x) for x in w])]
                for a, b in cases:
                    want = not line_product_pairs(mat, a, b)
                    assert _product_vanishes(cols, a, b) == want, (mat, a, b)
                    vanished += want
                    kept += not want
                for m in range(n + 1):
                    a, b = z[:m], w[:m]
                    for u, v in ((a, b), (a, a), (a, [0] * m)):
                        pad = [0] * (n - m)
                        want = not line_product_pairs(mat, u + pad, v + pad)
                        assert _product_vanishes(cols[:m], u, v) == want, (mat, m, u, v)
        assert vanished >= 500 and kept >= 500

    def test_zero_coefficients_dropped(self):
        mat = BottMatrix.zeros(3)
        assert line_square_pairs(mat, [1, 0, 0]) == {}
        assert line_product_pairs(mat, [1, 0, 0], [0, 1, 0]) == {(0, 1): 1}

    @pytest.mark.parametrize("v", [[1, 1, 5], [1]], ids=["long", "short"])
    def test_vector_length_is_checked(self, v):
        # an extra entry is not dropped and a missing one is not an IndexError
        mat = BottMatrix([[0, 1], [0, 0]])
        message = f"expected 2 coefficients, got {len(v)}"
        for call in (lambda: line_square_pairs(mat, v),
                     lambda: line_product_pairs(mat, v, [1, 1]),
                     lambda: line_product_pairs(mat, [1, 1], v)):
            with pytest.raises(ValueError, match=message):
                call()


class TestSquareZeroLines:
    def test_hand_values(self):
        assert square_zero_lines(BottMatrix.zeros(2)) == [(1, 0), (0, 1)]
        assert square_zero_lines(BottMatrix([[0, 1], [0, 0]])) == [(1, 0), (-1, 2)]
        m = BottMatrix([[0, 1, 1], [0, 0, -2], [0, 0, 0]])
        assert square_zero_lines(m) == [(1, 0, 0), (-1, 2, 0), (-1, 2, 2)]

    def test_lines_square_to_zero(self):
        rng = random.Random(31)
        for _ in range(60):
            mat = rand_bott(rng, rng.randint(2, 5))
            for line in square_zero_lines(mat):
                assert line_square_pairs(mat, list(line)) == {}

    def test_every_boxed_square_zero_vector_is_a_multiple(self):
        rng = random.Random(37)
        for _ in range(40):
            mat = rand_bott(rng, 3)
            lines = square_zero_lines(mat)
            for v in product(range(-4, 5), repeat=3):
                if not any(v) or line_square_pairs(mat, list(v)):
                    continue
                ok = False
                for line in lines:
                    # v parallel to the line: all 2x2 minors vanish
                    if all(v[i] * line[j] == v[j] * line[i]
                           for i in range(3) for j in range(3)):
                        ok = True
                        break
                assert ok, (mat.to_lists(), v)

    def test_distinct_top_indices(self):
        # ring_isomorphic relies on this: the lines' count is their span rank
        rng = random.Random(41)
        for _ in range(60):
            mat = rand_bott(rng, rng.randint(2, 5))
            tops = []
            for line in square_zero_lines(mat):
                tops.append(max(i for i, x in enumerate(line) if x))
            assert len(set(tops)) == len(tops)


class TestSmallHelpers:
    def test_perfect_square_root(self):
        assert perfect_square_root(Fraction(4)) == 2
        assert perfect_square_root(Fraction(9, 4)) == Fraction(3, 2)
        assert perfect_square_root(Fraction(0)) == 0
        assert perfect_square_root(Fraction(2)) is None
        assert perfect_square_root(Fraction(-4)) is None

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(-4) == [1, 2, 4]
        assert divisors(1) == [1]
        assert divisors(0) == []

    def test_divisors_match_a_scan_to_the_square_root(self):
        # the trial-division scan that divisors replaced, as the reference
        def scan(x):
            out, d = set(), 1
            while d * d <= x:
                if x % d == 0:
                    out.update((d, x // d))
                d += 1
            return sorted(out)

        for x in range(20001):
            assert divisors(x) == scan(x), x

    @pytest.mark.parametrize("x, count", [(10 ** 40, 41 * 41), (2 ** 64 * 3 ** 20, 65 * 21)])
    def test_divisors_of_smooth_values_are_fast(self, x, count):
        # a scan to the square root would take 10**20 and 10**19 steps
        start = time.process_time()
        got = divisors(x)
        assert time.process_time() - start < 1.0
        assert len(got) == count and all(x % d == 0 for d in got)
        assert got == sorted(set(got))

    def test_primitive_rows_box(self):
        rows = primitive_rows_box(2, 1)
        assert (1, 0) in rows and (0, 1) in rows and (1, 1) in rows
        # sign-canonical: first nonzero coordinate positive
        for r in rows:
            first = next(x for x in r if x)
            assert first > 0
        assert len(set(rows)) == len(rows)
        # built once per (n, bound) and shared, so it must be immutable
        assert isinstance(rows, tuple) and primitive_rows_box(2, 1) is rows


def in_family(w, fam, mode):
    """Does w = w0 + t*step for a mode-allowed t?"""
    w0, step = fam
    ts = set()
    for a, b, s in zip(w, w0, step):
        if s == 0:
            if Fraction(a) != Fraction(b):
                return False
        else:
            ts.add(Fraction(Fraction(a) - Fraction(b), Fraction(s)))
    if not ts:
        return True
    if len(ts) != 1:
        return False
    t = ts.pop()
    if mode is CoeffMode.RATIONAL:
        return True
    if mode is CoeffMode.INTEGER:
        return t.denominator == 1
    return t.denominator % 2 == 1


MODES = [CoeffMode.INTEGER, CoeffMode.TWO_LOCAL, CoeffMode.RATIONAL]


class TestTwistedRowSolutions:
    def test_solutions_are_sound(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(2, 3)
            mat = rand_bott(rng, n)
            u = [rng.randint(-2, 2) for _ in range(n)]
            mode = rng.choice(MODES)
            sols = twisted_row_solutions(mat, u, mode)
            for w in sols.finite:
                got = {k: Fraction(v)
                       for k, v in line_square_pairs(mat, list(w)).items()}
                ulw = {k: Fraction(v)
                       for k, v in line_product_pairs(mat, list(u), list(w)).items()}
                assert got == ulw, "w^2 != u w for a reported solution"
            for w0, step in sols.families:
                for t in (-2, -1, 0, 1, 2):
                    w = [a + t * b for a, b in zip(w0, step)]
                    got = line_square_pairs(mat, w)
                    ulw = line_product_pairs(mat, list(u), w)
                    assert {k: Fraction(v) for k, v in got.items()} == \
                        {k: Fraction(v) for k, v in ulw.items()}

    def test_exhaustive_answers_cover_a_box_scan(self):
        # every integer row in the box is found, over Z_(2) as well: that
        # search misses only rows with odd denominators
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(2, 3)
            mat = rand_bott(rng, n)
            u = [rng.randint(-2, 2) for _ in range(n)]
            mode = rng.choice([CoeffMode.INTEGER, CoeffMode.TWO_LOCAL])
            sols = twisted_row_solutions(mat, u, mode)
            for w in product(range(-4, 5), repeat=n):
                if not any(w):
                    continue  # the zero row is omitted by contract
                sq = line_square_pairs(mat, list(w))
                uw = line_product_pairs(mat, list(u), list(w))
                if {k: Fraction(v) for k, v in sq.items()} != \
                        {k: Fraction(v) for k, v in uw.items()}:
                    continue
                found = tuple(Fraction(x) for x in w) in \
                    {tuple(Fraction(x) for x in f) for f in sols.finite}
                found = found or any(in_family(w, fam, mode) for fam in sols.families)
                assert found, (mat.to_lists(), u, w, mode)

    def test_half_of_a_null_square_class_is_a_solution(self):
        # u^2 = 0 makes w = u/2 a solution whenever u halves in the mode
        mat = BottMatrix([[0, 2], [0, 0]])
        u = [-2, 2]
        assert line_square_pairs(mat, u) == {}
        sols = twisted_row_solutions(mat, u, CoeffMode.INTEGER)
        found = [tuple(int(x) for x in w) for w in sols.finite]
        assert (-1, 1) in found
        # one affine family per square-zero line direction
        assert len(sols.families) == 2

    def test_two_local_search_is_not_exhaustive(self):
        # over Z_(2) the row w = (0, 0, -10/3) also solves w^2 = u w, but the
        # search finds integer rows only, which can cost a witness but never
        # gives a False verdict
        mat = BottMatrix([[0, -2, 3], [0, 0, -3], [0, 0, 0]])
        u = (2, -2, -4)
        ring = BottRing(mat, CoeffMode.TWO_LOCAL)
        w = ring.line_element([0, 0, Fraction(-10, 3)])
        assert (w * w - ring.line_element(u) * w).is_zero()
        sols = twisted_row_solutions(mat, u, CoeffMode.TWO_LOCAL)
        assert sols.finite == ((2, -2, -4),)

    def test_solutions_depend_on_the_value_of_u(self):
        # an int u and the equal Fraction u give the same rows, entry
        # types included, so callers may key them by value
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(1, 4)
            mat = rand_bott(rng, n, 3)
            u = [rng.randint(-4, 4) for _ in range(n)]
            for mode in MODES:
                sols = twisted_row_solutions(mat, u, mode)
                assert isinstance(sols.finite, tuple) and isinstance(sols.families, tuple)
                same = twisted_row_solutions(mat, [Fraction(x) for x in u], mode)
                assert repr(same) == repr(sols), (mat.to_lists(), u, mode)

    def test_report_type(self):
        sols = twisted_row_solutions(BottMatrix.zeros(2), [0, 0], CoeffMode.INTEGER)
        assert isinstance(sols, RowSolutions)
        # w^2 = 0: every square-zero line direction must appear as a family
        assert [step for _, step in sols.families] == square_zero_lines(BottMatrix.zeros(2))

    @pytest.mark.parametrize("u", [[0, 0, 9], [0]], ids=["long", "short"])
    def test_vector_length_is_checked(self, u):
        # u = (0, 0, 9) is not answered as u = (0, 0)
        with pytest.raises(ValueError, match=f"expected 2 coefficients, got {len(u)}"):
            twisted_row_solutions(BottMatrix([[0, 1], [0, 0]]), u, CoeffMode.INTEGER)
