"""Exact linear algebra: determinants, ranks, minors, constrained solving.

Reference values are either hand computations on tiny matrices or an
independent cofactor-expansion oracle implemented here.
"""

import random
import re
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bott_rigidity import linalg
from bott_rigidity.linalg import (
    _cleared_rows,
    _cofactors,
    _expand_minors,
    cofactor_vector,
    det_fraction,
    det_int,
    maximal_minors_gcd,
    rank_fraction,
    solve_linear,
)


def cofactor_det(rows):
    # independent oracle: Laplace expansion along the first row
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * x * cofactor_det(minor)
    return total


def minor_rank(rows):
    # independent oracle: the largest k with a nonzero k x k minor
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                if cofactor_det([[rows[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def gauss_jordan_rank(rows):
    # independent oracle: Gauss-Jordan elimination over Fraction
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][c] for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def minors_gcd(rows):
    # independent oracle: gcd of every k x k minor, 0 when k > n
    k, n = len(rows), len(rows[0])
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, cofactor_det([[row[c] for c in cols] for row in rows]))
    return g


small_int = st.integers(min_value=-6, max_value=6)
# ints mixed with Fractions whose denominators need clearing
small_rational = st.one_of(small_int, st.builds(Fraction, small_int, st.integers(1, 4)))


@st.composite
def square_matrix(draw, max_n=5, entries=small_int):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@st.composite
def rect_matrix(draw, entries):
    # an m x k times k x n product, so that rank deficiency is common
    m, k, n = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    left = [[draw(entries) for _ in range(k)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


class TestDeterminant:
    def test_hand_values(self):
        assert det_int([[1, 2], [3, 4]]) == -2
        assert det_int([[2, 0], [0, 3]]) == 6
        assert det_int([[0, 1], [1, 0]]) == -1
        assert det_int([[5]]) == 5
        assert det_int([]) == 1

    @given(st.one_of(square_matrix(), square_matrix(entries=small_rational)))
    @settings(max_examples=120, deadline=None)
    def test_matches_cofactor_expansion(self, rows):
        expect = cofactor_det(rows)
        if all(isinstance(x, int) for r in rows for x in r):
            assert det_int(rows) == expect
        assert det_fraction(rows) == expect

    def test_big_entries_stay_exact(self):
        rows = [[10 ** 12, 1], [1, 10 ** 12]]
        assert det_int(rows) == 10 ** 24 - 1

    def test_fraction_entries(self):
        rows = [[Fraction(1, 2), 1], [1, Fraction(1, 2)]]
        assert det_fraction(rows) == Fraction(-3, 4)

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 1.7, True])
    def test_det_int_rejects_non_int_entries(self, bad):
        # each used to be truncated: 1/2 read as 0, 1.7 as 1
        for rows in ([[bad]], [[1, 0], [0, bad]]):
            with pytest.raises(TypeError, match=re.escape(repr(bad))):
                det_int(rows)

    def test_det_fraction_is_the_cleared_determinant_over_the_scale(self):
        rng = random.Random(157)

        def entry(kind):
            if kind == "int" or (kind == "mixed" and rng.random() < 0.6):
                return rng.randint(-6, 6)
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

        cases = [[]]
        for kind in ("int", "fraction", "mixed"):
            for _ in range(100):
                n = rng.randint(1, 5)
                rows = [[entry(kind) for _ in range(n)] for _ in range(n)]
                cases.append(rows)
                if n > 1:
                    # singular: one row a multiple of another
                    f = rng.randint(-2, 2)
                    cases.append(rows[:-1] + [[f * x for x in rows[0]]])
        for rows in cases:
            before = _typed(rows)
            ints, scale = _cleared_rows(rows)
            assert _typed(det_fraction(rows)) == _typed(Fraction(det_int(ints), scale))
            assert _typed(rows) == before
        assert sum(det_fraction(rows) == 0 for rows in cases) >= 100


class TestCofactorVector:
    def test_hand_values(self):
        assert cofactor_vector([]) == [1]
        # det([[1, 2], [a, b]]) = b - 2a
        assert cofactor_vector([[1, 2]]) == [-2, 1]
        assert cofactor_vector([[1, 0, 0], [0, 1, 0]]) == [0, 0, 1]
        assert cofactor_vector([[1, 2, 3], [2, 4, 6]]) == [0, 0, 0]

    def test_entry_types(self):
        assert all(type(x) is int for x in cofactor_vector([[1, 2, 0], [0, 1, 5]]))
        assert cofactor_vector([[Fraction(1, 2), 0]]) == [0, Fraction(1, 2)]
        assert all(type(x) is Fraction for x in cofactor_vector([[Fraction(1, 2), 1]]))

    def test_dot_product_is_the_determinant(self):
        # c . w equals det(rows + [w]) exactly for every w, with int and
        # Fraction rows, dependent ones included
        rng = random.Random(97)

        def entry():
            return rng.choice((0, 0, 1, -1, rng.randint(-6, 6),
                               Fraction(rng.randint(-5, 5), rng.randint(1, 4))))

        dependent = 0
        for _ in range(600):
            n = rng.randint(1, 6)
            rows = [[entry() for _ in range(n)] for _ in range(n - 1)]
            if n > 2 and rng.random() < 0.25:
                rows[-1] = [rng.choice((2, Fraction(-1, 3))) * x for x in rows[0]]
            c = cofactor_vector(rows)
            assert len(c) == n
            if rank_fraction(rows) < n - 1:
                dependent += 1
                assert not any(c)
            for _ in range(3):
                w = [entry() for _ in range(n)]
                assert sum(x * y for x, y in zip(c, w)) == det_fraction(rows + [w])
        assert dependent > 50


class TestExpandMinors:
    """One Laplace step per row, as the witness search places them."""

    @staticmethod
    def _entry(rng, kind):
        if kind == "int" or (kind == "mixed" and rng.random() < 0.6):
            return rng.choice((0, 0, 1, -1, rng.randint(-6, 6)))
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def _seeded_rows(self, rng, kind, n, count):
        rows = []
        for _ in range(count):
            if rows and rng.random() < 0.3:
                # a combination of the rows so far, so dependence is common
                row = [sum(rng.choice((-2, -1, 1, Fraction(1, 2))) * r[c] for r in rows)
                       for c in range(n)]
            else:
                row = [self._entry(rng, kind) for _ in range(n)]
            rows.append(row)
        return rows

    def test_empty_exactly_when_the_rank_does_not_grow(self):
        # the table holds every nonzero minor of the rows placed so far
        rng = random.Random(83)
        grew = stuck = 0
        for kind in ("int", "fraction", "mixed"):
            for _ in range(150):
                n = rng.randint(1, 6)
                placed, minors = [], {0: 1}
                for row in self._seeded_rows(rng, kind, n, rng.randint(1, n + 2)):
                    nxt = _expand_minors(minors, _cleared_rows([row])[0][0])
                    independent = rank_fraction(placed + [row]) == len(placed) + 1
                    assert bool(nxt) == independent
                    if not independent:
                        stuck += 1
                        continue
                    grew += 1
                    placed.append(row)
                    minors = nxt
                    ints = _cleared_rows(placed)[0]
                    k = len(placed)
                    for cs in combinations(range(n), k):
                        value = det_int([[r[c] for c in cs] for r in ints])
                        assert minors.get(sum(1 << c for c in cs), 0) == value
                    assert all(cols.bit_count() == k and m for cols, m in minors.items())
        assert grew > 500 and stuck > 200

    def test_fold_matches_cofactor_vector(self):
        # rows cleared one at a time with the product of their scales, as
        # the witness search carries them, give cofactor_vector's value and
        # entry types
        rng = random.Random(89)
        for kind in ("int", "fraction", "mixed"):
            for _ in range(200):
                n = rng.randint(1, 6)
                rows = self._seeded_rows(rng, kind, n, n - 1)
                minors, scale = {0: 1}, 1
                for row in rows:
                    (ints,), mult = _cleared_rows([row])
                    minors = _expand_minors(minors, ints)
                    scale *= mult
                assert _typed(_cofactors(minors, n, scale)) == _typed(cofactor_vector(rows))


def _clearing_route(rows):
    # every row scaled by the lcm of its denominators, int rows included
    out, scale = [], 1
    for row in rows:
        mult = 1
        for x in row:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def _typed(value):
    # a value with the type of every entry, nested lists and tuples included
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(x) for x in value]
    return type(value), value


class TestClearedRows:
    """A row of ints passes through as a copy; every result matches the
    clearing route, value and type."""

    @staticmethod
    def _seeded_rows(rng, kind):
        def entry():
            if kind == "int" or (kind == "mixed" and rng.random() < 0.6):
                return rng.randint(-6, 6)
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

        n = rng.randint(1, 5)
        return n, [[entry() for _ in range(n)] for _ in range(n)]

    def test_int_rows_are_copied_unmodified(self):
        rng = random.Random(131)
        for _ in range(200):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            before = [list(r) for r in rows]
            ints, scale = _cleared_rows(rows)
            assert (ints, scale) == (before, 1)
            assert all(a is not b for a, b in zip(ints, rows))
            det_fraction(rows)
            rank_fraction(rows)
            cofactor_vector(rows[:-1])
            assert rows == before

    def test_bool_rows_take_the_clearing_route(self):
        ints, scale = _cleared_rows([[True, 0], [False, 2]])
        assert _typed(ints) == _typed([[1, 0], [0, 2]]) and scale == 1

    def test_results_match_the_clearing_route(self, monkeypatch):
        rng = random.Random(137)
        cases = [self._seeded_rows(rng, kind) for kind in ("int", "fraction", "mixed")
                 for _ in range(150)]

        def results():
            return [(_cleared_rows(rows), det_fraction(rows), rank_fraction(rows),
                     cofactor_vector(rows[:-1])) for _, rows in cases]

        got = results()
        monkeypatch.setattr(linalg, "_cleared_rows", _clearing_route)
        assert _typed(got) == _typed(results())


class TestRank:
    def test_hand_values(self):
        assert rank_fraction([]) == 0
        assert rank_fraction([[0, 0], [0, 0]]) == 0
        assert rank_fraction([[1, 0], [0, 1]]) == 2
        assert rank_fraction([[1, 2], [2, 4]]) == 1
        assert rank_fraction([[1, 2, 3]]) == 1

    @given(st.one_of(square_matrix(), rect_matrix(small_int), rect_matrix(small_rational)))
    @settings(max_examples=80, deadline=None)
    def test_full_rank_iff_nonzero_det(self, rows):
        rank = rank_fraction(rows)
        assert rank == minor_rank(rows)
        if len(rows) == len(rows[0]):
            assert (rank == len(rows)) == (cofactor_det(rows) != 0)

    def test_dense_matrices(self):
        # dense 8 x 8 matrices with entries in [-4, 4], and products of
        # 8 x r and r x 8 ones for a planted rank r: the fraction-free
        # echelon keeps its entries at the size of the minors
        rng = random.Random(8)
        mats = [[[rng.randint(-4, 4) for _ in range(8)] for _ in range(8)]
                for _ in range(100)]
        for _ in range(100):
            r = rng.randint(0, 8)
            left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(8)]
            right = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(r)]
            mats.append([[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                         if r else [0] * 8 for row in left])
        ranks = [rank_fraction(rows) for rows in mats]
        assert ranks == [gauss_jordan_rank(rows) for rows in mats]
        assert len(set(ranks)) >= 5


class TestMaximalMinorsGcd:
    def test_hand_values(self):
        assert maximal_minors_gcd([]) == 1
        assert maximal_minors_gcd([[1, 0], [0, 1]]) == 1
        assert maximal_minors_gcd([[2, 4]]) == 2
        # 2x2 minors of the pair of rows: 2, 0, 0
        assert maximal_minors_gcd([[1, 0, 0], [-1, 2, 0]]) == 2
        assert maximal_minors_gcd([[0, 0], [0, 0]]) == 0
        # more rows than columns: no maximal minors at all
        assert maximal_minors_gcd([[1], [1]]) == 0

    @given(st.lists(st.lists(small_int, min_size=3, max_size=3),
                    min_size=1, max_size=2), small_int)
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_row_operations(self, rows, f):
        if len(rows) == 2:
            changed = [rows[0], [x + f * y for x, y in zip(rows[1], rows[0])]]
        else:
            changed = [[x for x in rows[0]]]
        assert maximal_minors_gcd(rows) == maximal_minors_gcd(changed)

    @given(st.one_of(square_matrix(max_n=4), rect_matrix(small_int)))
    @settings(max_examples=120, deadline=None)
    def test_matches_minor_enumeration(self, rows):
        assert maximal_minors_gcd(rows) == minors_gcd(rows)

    def test_dense_inputs_stay_fast(self):
        # dense inputs, on which an integer elimination kept without a
        # modulus can let its entries grow for seconds; a square matrix has
        # |det| as its only maximal minor, and 6x8 ones are checked by
        # enumeration
        rng = random.Random(0)
        cases = [[[rng.randint(-4, 4) for _ in range(8)] for _ in range(8)] for _ in range(30)]
        cases += [[[rng.randint(-4, 4) for _ in range(8)] for _ in range(6)] for _ in range(4)]
        for rows in cases:
            start = time.process_time()
            got = maximal_minors_gcd(rows)
            assert time.process_time() - start < 0.1, rows
            want = abs(det_int(rows)) if len(rows) == 8 else minors_gcd(rows)
            assert got == want, rows


def _ok_int(x):
    return Fraction(x).denominator == 1


def _ok_two_local(x):
    return Fraction(x).denominator % 2 == 1


class TestSolveLinear:
    def test_unique_solution(self):
        x = solve_linear([[1, 2], [0, 1]], [5, 1], _ok_int)
        assert x == [Fraction(3), Fraction(1)]

    def test_integrality_filtering(self):
        assert solve_linear([[2]], [1], _ok_int) is None
        assert solve_linear([[2]], [1], lambda v: True) == [Fraction(1, 2)]
        # denominator 2 is exactly what the 2-local ring rejects
        assert solve_linear([[2]], [1], _ok_two_local) is None
        assert solve_linear([[3]], [1], _ok_two_local) == [Fraction(1, 3)]
        assert solve_linear([[3]], [1], _ok_int) is None

    def test_inconsistent_system(self):
        assert solve_linear([[1, 1], [1, 1]], [0, 1], lambda v: True) is None

    def test_underdetermined_finds_integer_point(self):
        x = solve_linear([[2, 1]], [1], _ok_int)
        assert x is not None
        assert 2 * x[0] + x[1] == 1
        assert all(v.denominator == 1 for v in x)

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=160, deadline=None)
    def test_never_misses_a_planted_solution(self, m, t, data):
        # an integer x over Z, or over the 2-local integers an x whose
        # entries have odd denominators
        ok = data.draw(st.sampled_from([_ok_int, _ok_two_local]))
        odd = st.sampled_from([1, 3, 5]) if ok is _ok_two_local else st.just(1)
        a = [[data.draw(small_int) for _ in range(t)] for _ in range(m)]
        planted = [Fraction(data.draw(small_int), data.draw(odd)) for _ in range(t)]
        b = [sum(r[j] * planted[j] for j in range(t)) for r in a]
        if data.draw(st.booleans()):
            # the same system, each equation scaled by a nonzero rational
            for i in range(m):
                f = Fraction(data.draw(small_int.filter(bool)), data.draw(st.integers(1, 4)))
                a[i] = [f * c for c in a[i]]
                b[i] *= f
        x = solve_linear(a, b, ok)
        assert x is not None, "a solution in the ring exists but was not found"
        for r, rhs in zip(a, b):
            assert sum(Fraction(c) * v for c, v in zip(r, x)) == rhs
        assert all(ok(v) for v in x)

    def test_dense_inputs_stay_fast(self):
        # dense 8x8 and 6x8 systems with a planted integer solution, on
        # which an elimination that pivots on rows it has not reduced lets
        # its entries grow for seconds
        rng = random.Random(1)
        cases = [[[rng.randint(-4, 4) for _ in range(8)] for _ in range(m)]
                 for m in [8] * 24 + [6] * 6]
        for a in cases:
            planted = [rng.randint(-4, 4) for _ in range(8)]
            b = [sum(x * y for x, y in zip(row, planted)) for row in a]
            start = time.process_time()
            x = solve_linear(a, b, _ok_int)
            assert time.process_time() - start < 0.1, a
            assert x is not None, a
            assert [sum(e * v for e, v in zip(row, x)) for row in a] == b
            assert all(v.denominator == 1 for v in x)


    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_right_hand_side_outside_the_span(self, m, t, data):
        # A = P B and b = P (B x0 + last e_m) with P invertible and the last
        # row of B zero: A x = b has a rational solution exactly when
        # last = 0, and the right-hand side must follow every row operation
        # to tell which
        unit_lower = [[data.draw(small_int) if j < i else int(i == j) for j in range(m)]
                      for i in range(m)]
        unit_upper = [[data.draw(small_int) if j > i else int(i == j) for j in range(m)]
                      for i in range(m)]
        p = [[sum(unit_lower[i][k] * unit_upper[k][j] for k in range(m)) for j in range(m)]
             for i in range(m)]
        bottom = [[data.draw(small_int) for _ in range(t)] for _ in range(m - 1)] + [[0] * t]
        a = [[sum(p[i][k] * bottom[k][j] for k in range(m)) for j in range(t)]
             for i in range(m)]
        scale = [Fraction(data.draw(small_int.filter(bool)), data.draw(st.integers(1, 4)))
                 if data.draw(st.booleans()) else 1 for _ in range(m)]
        a = [[f * x for x in row] for f, row in zip(scale, a)]
        x0 = [data.draw(small_int) for _ in range(t)]
        c = [sum(e * v for e, v in zip(row, x0)) for row in bottom]
        for last in (data.draw(small_int.filter(bool)), 0):
            c[-1] = last
            b = [f * sum(p[i][k] * ck for k, ck in enumerate(c))
                 for i, f in enumerate(scale)]
            outside = minor_rank([row + [rhs] for row, rhs in zip(a, b)]) > minor_rank(a)
            assert outside == (last != 0)
            x = solve_linear(a, b, lambda v: True)
            if outside:
                assert x is None
            else:
                assert [sum(Fraction(e) * v for e, v in zip(row, x)) for row in a] == b
