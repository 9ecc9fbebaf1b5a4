"""Degree-2 arithmetic shortcuts and the twisted-square equation solver.

The closed pair formulas are checked against the full ring engine; the
solver is checked for soundness always and for completeness against a
brute-force box scan whenever it reports an exhaustive answer.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from bott_rigidity import BottMatrix, BottRing, CoeffMode
from bott_rigidity.quadratic import (
    RowSolutions,
    divisors,
    line_product_pairs,
    line_square_pairs,
    perfect_square_root,
    primitive_rows_box,
    square_zero_lines,
    twisted_row_solutions,
)


def rand_bott(rng, n, bound=2):
    return BottMatrix([[rng.randint(-bound, bound) if j > i else 0
                        for j in range(n)] for i in range(n)])


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

    def test_zero_coefficients_dropped(self):
        mat = BottMatrix.zeros(3)
        assert line_square_pairs(mat, [1, 0, 0]) == {}
        assert line_product_pairs(mat, [1, 0, 0], [0, 1, 0]) == {(0, 1): 1}


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
            want = {k: Fraction(v) for k, v in line_product_pairs(mat, u, u).items()}
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
        rng = random.Random(47)
        tested = 0
        for _ in range(60):
            n = rng.randint(2, 3)
            mat = rand_bott(rng, n)
            u = [rng.randint(-2, 2) for _ in range(n)]
            mode = rng.choice([CoeffMode.INTEGER, CoeffMode.TWO_LOCAL])
            sols = twisted_row_solutions(mat, u, mode)
            if not sols.exhaustive:
                continue
            tested += 1
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
        assert tested >= 20

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
        assert sols.exhaustive

    def test_report_type(self):
        sols = twisted_row_solutions(BottMatrix.zeros(2), [0, 0], CoeffMode.INTEGER)
        assert isinstance(sols, RowSolutions)
        # w^2 = 0: every square-zero line direction must appear as a family
        assert sols.exhaustive
