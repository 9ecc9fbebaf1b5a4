"""Cohomology ring engine: reduction, grading, products, line classes.

Frozen values are hand computations in height-2 and height-3 towers; the
confluence oracle re-derives reductions in randomized rewrite order.
"""

import copy
import pickle
import random
import re
from enum import IntEnum
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from bott_rigidity import (
    BottMatrix,
    BottRing,
    CoeffMode,
    RingElement,
    admissible_permutations,
    conjugate,
    from_bott_matrix,
    inverse_pair_coefficient_condition,
    is_bott,
    pontrjagin_one_twist,
    stage_fibration_trivial,
    to_bott_matrix,
    total_chern_sum,
    whitney_sum_trivial,
)
from bott_rigidity.checks import rand_bott, random_order_reduction
from bott_rigidity.core import integer_entries
from bott_rigidity.moves import _trivialized

HIRZEBRUCH = BottMatrix([[0, 1], [0, 0]])


class TestBottMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            BottMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            BottMatrix([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            BottMatrix([[0, 1, 2], [0, 0, 3]])

    @pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(3, 2), True, "1"])
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(TypeError, match="not an integer"):
            BottMatrix([[0, bad], [0, 0]])
        with pytest.raises(TypeError, match="not an integer"):
            BottMatrix.from_last_column([bad, 2])
        with pytest.raises(TypeError, match="not an integer"):
            inverse_pair_coefficient_condition(HIRZEBRUCH, [bad, 0])

    def test_integer_entries_accepts_exactly_the_non_bool_ints(self):
        # exact ints take a fast path; every other value still gets both
        # isinstance checks, so the verdicts are unchanged
        class Level(IntEnum):
            LOW = 2

        assert integer_entries([3, -1, 0, Level.LOW], "v") == (3, -1, 0, Level.LOW)
        assert type(integer_entries([Level.LOW], "v")[0]) is Level
        for bad in (True, False, 2.0, Fraction(2), "2"):
            with pytest.raises(TypeError, match=re.escape(f"v: entry {bad!r} is not an integer")):
                integer_entries([1, bad], "v")

    def test_trusted_matches_validating_constructor(self):
        # _trusted skips only checks that rows built from ints already pass;
        # the public constructors keep them (test_non_integer_entries_rejected)
        rng = random.Random(29)
        for n in range(1, 9):
            for _ in range(10):
                rows = rand_bott(rng, n, bound=3).to_lists()
                trusted, checked = BottMatrix._trusted(rows), BottMatrix(rows)
                assert trusted == checked
                assert (trusted.n, trusted.rows) == (checked.n, checked.rows)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_column_index_out_of_range(self, n):
        # the stored columns are a tuple, so -1 would silently read the
        # last one; both accessors raise as BottRing.generator does
        m = BottMatrix.from_last_column([1] * (n - 1)) if n else BottMatrix.zeros(0)
        for j in (-1, n):
            with pytest.raises(IndexError, match=f"column index {j}"):
                m.column(j)
            with pytest.raises(IndexError, match=f"column index {j}"):
                m.is_zero_column(j)
            with pytest.raises(IndexError):
                BottRing(m).twist_form(j)
        assert [m.column(j) for j in range(n)] == list(m.columns)

    def test_immutable_with_stored_hash(self):
        m = BottMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        for name in ("rows", "n", "columns", "_hash", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(m, name, None)
        assert hash(m) == hash(m.rows) == hash(BottMatrix(m.to_lists()))
        assert m.columns == ((), (1,), (2, 3))
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m) and twin.columns == m.columns

    def test_columns_match_rows_for_every_constructor(self):
        # each way a tower is made stores the columns its rows give
        def columns_of(mat):
            return tuple(tuple(mat.rows[i][j] for i in range(j)) for j in range(mat.n))

        rng = random.Random(31)
        made = [BottMatrix.zeros(n) for n in range(5)]
        made += [BottMatrix.from_last_column(a) for a in ([], [3], [1, -2], [0, 2, -1])]
        for n in range(1, 9):
            for _ in range(6):
                mat = rand_bott(rng, n, bound=3)
                rows = mat.to_lists()
                made += [mat, BottMatrix._trusted(rows), mat.prefix(rng.randint(0, n))]
                perms = list(islice(admissible_permutations(mat), 24))
                made.append(conjugate(mat, rng.choice(perms)))
                char = from_bott_matrix(mat)
                rho = list(range(n))
                rng.shuffle(rho)
                char = [[char[rho[i]][rho[j]] for j in range(n)] for i in range(n)]
                made.append(to_bott_matrix(char, is_bott(char)[1]))
                for mode in CoeffMode:
                    for m in range(n):
                        if stage_fibration_trivial(mat, m, mode) and not mat.is_zero_column(m):
                            made.append(_trivialized(mat, m)[0])
        assert sum(m.n > 1 for m in made) > 200
        for mat in made:
            assert mat.columns == columns_of(mat)
            assert hash(mat) == hash(mat.rows)

    def test_helpers(self):
        m = BottMatrix([[0, 0, 2], [0, 0, 3], [0, 0, 0]])
        assert m == BottMatrix.from_last_column([2, 3])
        assert m.column(2) == (2, 3)
        assert m.is_zero_column(1)
        assert m.nonzero_columns() == [2]
        assert m.twist_count() == 1
        assert m.prefix(2) == BottMatrix.zeros(2)
        assert BottMatrix.zeros(3).twist_count() == 0


class TestReduction:
    def test_hirzebruch_square(self):
        ring = BottRing(HIRZEBRUCH)
        x0, x1 = ring.generator(0), ring.generator(1)
        assert (x0 * x0).is_zero()
        assert (x1 * x1).to_triples() == [([0, 1], 1, 1)]
        # x0 * x1^2 = x0 * (x0 x1) = x0^2 x1 = 0
        assert (x0 * x1 * x1).is_zero()
        assert ((x0 + x1) ** 2).to_triples() == [([0, 1], 3, 1)]

    def test_top_class_of_trivial_tower(self):
        ring = BottRing(BottMatrix.zeros(3))
        prod = ring.generator(0) * ring.generator(1) * ring.generator(2)
        assert prod.to_triples() == [([0, 1, 2], 1, 1)]
        assert ring.top_class_nonzero()

    def test_basis_has_rank_two_to_n(self):
        for n in range(1, 7):
            ring = BottRing(BottMatrix.zeros(n))
            assert len(ring.basis()) == 2 ** n

    def test_confluence_against_random_order_oracle(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(2, 5)
            mat = rand_bott(rng, n)
            ring = BottRing(mat)
            word = [rng.randrange(n) for _ in range(rng.randint(2, 6))]
            want = {k: Fraction(v)
                    for k, v in ring.reduce_monomial(word).terms.items()}
            assert want == random_order_reduction(mat, word, rng)


@st.composite
def tower_and_vectors(draw, max_n=5, bound=3):
    n = draw(st.integers(2, max_n))
    ent = st.integers(-bound, bound)
    rows = [[draw(ent) if j > i else 0 for j in range(n)] for i in range(n)]
    a = [draw(ent) for _ in range(n)]
    b = [draw(ent) for _ in range(n)]
    return BottMatrix(rows), a, b


class TestRingLaws:
    @given(tower_and_vectors())
    @settings(max_examples=80, deadline=None)
    def test_line_square_closed_form(self, data):
        mat, a, _ = data
        ring = BottRing(mat)
        z = ring.line_element(a)
        rhs = ring.zero()
        for j in range(mat.n):
            rhs = rhs + a[j] * a[j] * (ring.twist_form(j) * ring.generator(j))
        for i in range(mat.n):
            for j in range(i + 1, mat.n):
                rhs = rhs + 2 * a[i] * a[j] * (ring.generator(i) * ring.generator(j))
        assert z * z == rhs

    @given(tower_and_vectors())
    @settings(max_examples=60, deadline=None)
    def test_commutative_and_distributive(self, data):
        mat, a, b = data
        ring = BottRing(mat)
        z, w = ring.line_element(a), ring.line_element(b)
        assert z * w == w * z
        assert z * (w + ring.one()) == z * w + z
        assert (z - z).is_zero()

    @given(tower_and_vectors())
    @settings(max_examples=60, deadline=None)
    def test_grading(self, data):
        mat, a, b = data
        ring = BottRing(mat)
        p = ring.line_element(a) * ring.line_element(b)
        assert p.degree_part(4) == p
        if not p.is_zero():
            assert p.max_degree() == 4
        total = ring.zero()
        full = ring.one() + p + ring.line_element(a)
        for d in range(0, 2 * mat.n + 1, 2):
            total = total + full.degree_part(d)
        assert total == full

    @given(tower_and_vectors())
    @settings(max_examples=40, deadline=None)
    def test_modes_agree_on_integer_input(self, data):
        mat, a, b = data
        rz = BottRing(mat, CoeffMode.INTEGER)
        r2 = BottRing(mat, CoeffMode.TWO_LOCAL)
        rq = BottRing(mat, CoeffMode.RATIONAL)
        pz = (rz.line_element(a) * rz.line_element(b)).to_triples()
        assert pz == (r2.line_element(a) * r2.line_element(b)).to_triples()
        assert pz == (rq.line_element(a) * rq.line_element(b)).to_triples()


class TestClosedOperations:
    """Element + element, negation and element * element skip coerce; a
    generator squared is rewritten in place. Each must give the normal form
    built term by term through the coercing constructor."""

    @staticmethod
    def _typed(elem):
        return {m: (c, type(c)) for m, c in elem.terms.items()}

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_match_term_by_term_normal_form(self, mode):
        rng = random.Random(113)
        dens = {CoeffMode.INTEGER: (1,), CoeffMode.TWO_LOCAL: (1, 1, 3, 5),
                CoeffMode.RATIONAL: (1, 2, 3, 4)}[mode]

        def coeff():
            return Fraction(rng.randint(-4, 4), rng.choice(dens))

        for _ in range(150):
            n = rng.randint(1, 5)
            mat = rand_bott(rng, n)
            ring = BottRing(mat, mode)
            a = [coeff() for _ in range(n)]
            b = [a[i] if rng.random() < 0.3 else coeff() for i in range(n)]
            z, w = ring.line_element(a), ring.line_element(b)
            prod: dict = {}
            for i in range(n):
                for j in range(n):
                    for m, c in ring.reduce_monomial([i, j]).terms.items():
                        prod[m] = prod.get(m, 0) + a[i] * b[j] * c

            def line(coeffs):
                return RingElement(ring, {frozenset([i]): c for i, c in enumerate(coeffs)})

            # the terms with i == j are generator squares
            assert self._typed(z * w) == self._typed(RingElement(ring, prod))
            assert self._typed(z + w) == self._typed(line([x + y for x, y in zip(a, b)]))
            assert self._typed(-z) == self._typed(line([-x for x in a]))
            assert self._typed(z - z) == {}

    def test_other_mode_operand_is_coerced(self):
        rz = BottRing(HIRZEBRUCH, CoeffMode.INTEGER)
        rq = BottRing(HIRZEBRUCH, CoeffMode.RATIONAL)
        total = rz.generator(0) + rq.line_element([Fraction(2), 1])
        assert {m: type(c) for m, c in total.terms.items()} == {
            frozenset([0]): int, frozenset([1]): int}
        with pytest.raises(ValueError):
            rz.generator(0) + rq.line_element([Fraction(1, 2), 0])
        with pytest.raises(ValueError):
            rz.generator(0) * rq.line_element([0, Fraction(1, 2)])


class TestIntegerLineElement:
    """Over Z an all-int line element is built unchecked; it must equal the
    element the coercing constructor builds, coefficient types included."""

    @staticmethod
    def _typed(elem):
        return [(m, c, type(c)) for m, c in elem.terms.items()]

    def test_matches_constructor_path(self):
        # every height 0..8; the zero coefficients are dropped
        rng = random.Random(139)
        for n in range(9):
            for _ in range(25):
                ring = BottRing(rand_bott(rng, n), CoeffMode.INTEGER)
                coeffs = [rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
                built = RingElement(ring, {frozenset([i]): c for i, c in enumerate(coeffs)})
                assert self._typed(ring.line_element(coeffs)) == self._typed(built)
                assert self._typed(ring.line_element(tuple(coeffs))) == self._typed(built)
                assert len(built.terms) == sum(1 for c in coeffs if c)

    def test_other_inputs_are_coerced(self):
        ring = BottRing(HIRZEBRUCH, CoeffMode.INTEGER)
        with pytest.raises(TypeError):
            ring.line_element([True, 0])
        with pytest.raises(ValueError):
            ring.line_element([Fraction(1, 2), 0])
        assert self._typed(ring.line_element([Fraction(2, 1), 0])) == [
            (frozenset([0]), 2, int)]
        with pytest.raises(ValueError):
            ring.line_element([1, 2, 3])


class TestCoeffRing:
    # each CoeffMode member is the coefficient ring it names
    def test_integer_mode(self):
        r = CoeffMode.INTEGER
        assert r.coerce(3) == 3
        with pytest.raises(ValueError):
            r.coerce(Fraction(1, 2))
        assert r.is_even(2) and not r.is_even(3)
        assert r.is_unit(1) and r.is_unit(-1) and not r.is_unit(2)
        assert r.halve(4) == 2

    def test_rational_mode(self):
        r = CoeffMode.RATIONAL
        assert r.coerce(Fraction(1, 2)) == Fraction(1, 2)
        assert r.is_even(3)  # everything halves over Q
        assert r.is_unit(Fraction(2, 7)) and not r.is_unit(0)
        assert r.halve(3) == Fraction(3, 2)

    def test_two_local_mode(self):
        r = CoeffMode.TWO_LOCAL
        assert r.coerce(Fraction(1, 3)) == Fraction(1, 3)
        with pytest.raises(ValueError):
            r.coerce(Fraction(1, 2))
        assert r.is_even(Fraction(2, 3)) and not r.is_even(Fraction(3, 5))
        assert r.is_unit(Fraction(3, 5)) and not r.is_unit(Fraction(2, 3))
        assert r.halve(Fraction(2, 3)) == Fraction(1, 3)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            CoeffMode.INTEGER.coerce(True)

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_int_units_match_fraction_route(self, mode):
        # an int is tested without building a Fraction; bool and Fraction
        # values still take the Fraction route, and every answer agrees
        for x in range(-50, 51):
            assert mode.is_unit(x) is mode.is_unit(Fraction(x))
        assert mode.is_unit(True) is mode.is_unit(Fraction(1)) is True
        assert mode.is_unit(False) is mode.is_unit(Fraction(0)) is False

    def test_membership_and_field(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        assert [m.contains(half) for m in CoeffMode] == [False, True, False]
        assert [m.contains(third) for m in CoeffMode] == [False, True, True]
        assert all(m.contains(5) for m in CoeffMode)
        assert [m.is_field for m in CoeffMode] == [False, True, False]

    def test_halve_keeps_integral_halves_integers(self):
        # over Z and Z_(2) row vectors stay int vectors; over Q every half
        # is a Fraction
        assert type(CoeffMode.INTEGER.halve(Fraction(6))) is int
        assert type(CoeffMode.TWO_LOCAL.halve(6)) is int
        assert CoeffMode.TWO_LOCAL.halve(Fraction(2, 3)) == Fraction(1, 3)
        assert type(CoeffMode.RATIONAL.halve(6)) is Fraction
        with pytest.raises(ValueError):
            CoeffMode.TWO_LOCAL.halve(3)

    def test_unit_parameters(self):
        # t with a + t*c a unit: +-1 over Z, odd over Z_(2), nonzero over Q
        z, z2, q = CoeffMode.INTEGER, CoeffMode.TWO_LOCAL, CoeffMode.RATIONAL
        assert z.unit_parameters(Fraction(3), Fraction(2)) == [-1, -2]
        assert z.unit_parameters(Fraction(2), Fraction(3)) == [-1]
        assert z.unit_parameters(Fraction(-1), Fraction(0)) == [0, 1]
        assert z.unit_parameters(Fraction(2), Fraction(0)) == []
        assert z2.unit_parameters(Fraction(2), Fraction(3)) == [1, 3, -1]
        assert z2.unit_parameters(Fraction(3), Fraction(2)) == [0, 1]
        assert z2.unit_parameters(Fraction(2), Fraction(2)) == []
        assert q.unit_parameters(Fraction(0), Fraction(2)) == [Fraction(1)]
        assert q.unit_parameters(Fraction(0), Fraction(0)) == []
        assert all(type(t) is int for t in z.unit_parameters(Fraction(3), Fraction(2)))
        assert all(type(t) is Fraction for t in q.unit_parameters(Fraction(1), Fraction(1)))

    @staticmethod
    def _fraction_route_z(a, c):
        # the Z parameters by Fraction division, as unit_parameters once solved them
        out = []
        for target in (1, -1):
            if c != 0:
                t = Fraction(target - a) / c
                if t.denominator == 1:
                    out.append(int(t))
            elif a == target:
                out += [0, 1]
        return out

    @pytest.mark.parametrize("mode", [CoeffMode.INTEGER, CoeffMode.TWO_LOCAL])
    def test_int_unit_parameters_match_fraction_route(self, mode):
        # int a and c are solved by divmod and parity, with no Fraction
        # built; they give the same int parameters as the Fraction route
        for a in range(-6, 7):
            for c in range(-6, 7):
                got = mode.unit_parameters(a, c)
                want = mode.unit_parameters(Fraction(a), Fraction(c))
                assert [(t, type(t)) for t in got] == [(t, type(t)) for t in want], (a, c)
                assert all(mode.is_unit(a + t * c) for t in got), (a, c)
                if mode is CoeffMode.INTEGER:
                    ref = self._fraction_route_z(a, c)
                    assert [(t, type(t)) for t in got] == [(t, type(t)) for t in ref], (a, c)

    def test_z_unit_parameters_by_divmod_on_fractions(self):
        # divmod on Fractions, and on an int mixed with a Fraction, has an
        # int quotient and a zero remainder exactly when the parameter is
        # an integer, so non-integral inputs agree with Fraction division
        z = CoeffMode.INTEGER
        values = [Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 3)] + list(range(-3, 4))
        for a in values:
            for c in values:
                got = z.unit_parameters(a, c)
                ref = self._fraction_route_z(a, c)
                assert [(t, type(t)) for t in got] == [(t, type(t)) for t in ref], (a, c)

    def test_two_local_unit_parameters_need_integral_values(self):
        # ints and Fractions are read through numerator and denominator
        z2 = CoeffMode.TWO_LOCAL
        assert z2.unit_parameters(Fraction(4, 2), 3) == z2.unit_parameters(2, Fraction(3))
        for a, c in ((Fraction(1, 3), 1), (1, Fraction(2, 3))):
            with pytest.raises(AssertionError, match="integral"):
                z2.unit_parameters(a, c)

    def test_values_name_the_members(self):
        assert BottRing(HIRZEBRUCH, "z2local").mode is CoeffMode.TWO_LOCAL
        with pytest.raises(ValueError):
            BottRing(HIRZEBRUCH, "bogus")


BAD_COEFFICIENTS = [1.5, 1.0, "1", "1/2"]


class TestNonRationalCoefficientsRejected:
    # a coefficient is an int (no bool) or a Fraction in every mode; a
    # float or a string raises TypeError even when Fraction() reads it

    @pytest.mark.parametrize("mode", list(CoeffMode))
    @pytest.mark.parametrize("bad", BAD_COEFFICIENTS)
    def test_coerce(self, mode, bad):
        with pytest.raises(TypeError, match="not a ring coefficient"):
            mode.coerce(bad)

    @pytest.mark.parametrize("mode", list(CoeffMode))
    @pytest.mark.parametrize("bad", BAD_COEFFICIENTS)
    def test_line_element(self, mode, bad):
        ring = BottRing(HIRZEBRUCH, mode)
        with pytest.raises(TypeError):
            ring.line_element([bad, 1])

    @pytest.mark.parametrize("mode", list(CoeffMode))
    @pytest.mark.parametrize("bad", BAD_COEFFICIENTS)
    def test_scalar_operands(self, mode, bad):
        x = BottRing(HIRZEBRUCH, mode).generator(0)
        for op in (lambda: x * bad, lambda: bad * x, lambda: x + bad):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("mode", list(CoeffMode))
    @pytest.mark.parametrize("bad", BAD_COEFFICIENTS)
    def test_chern_sums(self, mode, bad):
        ring = BottRing(HIRZEBRUCH, mode)
        with pytest.raises(TypeError):
            total_chern_sum(ring, [bad, 0], [1, 0])
        with pytest.raises(TypeError):
            whitney_sum_trivial(ring, [bad, 0], [-1, 0])


class TestScalarEquality:
    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_answers_for_every_scalar(self, mode):
        one = BottRing(HIRZEBRUCH, mode).one()
        assert one == 1 and one == Fraction(1) and one != 2
        # a Fraction outside the mode and a bool are answered, not raised on
        assert (one == Fraction(1, 2)) is False
        assert (one == Fraction(1, 3)) is False
        assert (one == True) is False
        assert (one != True) is True
        assert (one == 1.5) is False
        assert one.__eq__(True) is NotImplemented
        if mode is not CoeffMode.INTEGER:
            assert one * Fraction(1, 3) == Fraction(1, 3)

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_scalars_hash_as_the_numbers_they_equal(self, mode):
        # equal objects must hash equal, so a scalar element and the number
        # it equals are one key of a set or dict
        ring = BottRing(HIRZEBRUCH, mode)
        pairs = [(ring.one(), 1), (ring.zero(), 0), (ring.scalar(-2), -2)]
        if mode is not CoeffMode.INTEGER:
            pairs.append((ring.scalar(Fraction(1, 3)), Fraction(1, 3)))
        for element, number in pairs:
            assert element == number and hash(element) == hash(number)
            assert len({number, element}) == 1
            assert {number: "key"}[element] == "key"
        # elements with other terms keep hashing by their terms
        x0 = ring.generator(0)
        assert hash(x0 + 1) == hash(1 + x0) and len({x0, x0 + 1, ring.one()}) == 3


class TestLineBundles:
    def test_inverse_pair_sums_to_one(self):
        # alpha = x0 - 2 x1 squares to zero over the odd Hirzebruch base
        ring = BottRing(HIRZEBRUCH)
        alpha = [1, -2]
        neg = [-1, 2]
        assert total_chern_sum(ring, alpha, neg) == ring.one()
        assert whitney_sum_trivial(ring, alpha, neg)
        assert inverse_pair_coefficient_condition(HIRZEBRUCH, alpha)

    def test_nontrivial_pair(self):
        ring = BottRing(HIRZEBRUCH)
        assert not whitney_sum_trivial(ring, [0, 1], [0, -1])
        assert not inverse_pair_coefficient_condition(HIRZEBRUCH, [0, 1])

    def test_routes_agree_on_grid(self):
        ring = BottRing(HIRZEBRUCH)
        for a0 in range(-3, 4):
            for a1 in range(-3, 4):
                via_chern = whitney_sum_trivial(ring, [a0, a1], [-a0, -a1])
                via_coeff = inverse_pair_coefficient_condition(HIRZEBRUCH, [a0, a1])
                assert via_chern == via_coeff, (a0, a1)
                # closed form for this base, derived by hand from the pair condition
                assert via_chern == (a1 == 0 or a1 == -2 * a0), (a0, a1)

    @pytest.mark.parametrize("mode", list(CoeffMode))
    def test_pontrjagin_reads_its_vector_once(self, mode):
        # an iterator is read once, so it gives the class of the equal list
        assert pontrjagin_one_twist(iter([1, 2]), mode) == pontrjagin_one_twist([1, 2], mode)
        assert pontrjagin_one_twist(x for x in (1, 1, 1)) == pontrjagin_one_twist((1, 1, 1))

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_pontrjagin_rejects_non_integers(self, bad):
        with pytest.raises(TypeError, match="twist vector"):
            pontrjagin_one_twist([1, bad])

    def test_pontrjagin_hand_values(self):
        p = pontrjagin_one_twist([1, 2])
        assert p.to_triples() == [([], 1, 1), ([0, 1], 4, 1)]
        p = pontrjagin_one_twist([1, 1, 1])
        assert p.to_triples() == [([], 1, 1), ([0, 1], 2, 1), ([0, 2], 2, 1),
                                  ([1, 2], 2, 1)]
