"""Cohomology ring arithmetic for Bott towers.

A Bott tower of height n is encoded by a strictly upper triangular integer
matrix: column j (0-based) lists the coefficients of the twist form
f_j = sum_{i<j} c[i][j] x_i, and the integral cohomology of the total space
is Z[x_0..x_{n-1}] / (x_j^2 - f_j x_j). Every element has a unique normal
form supported on squarefree monomials, so the ring is a free module of
rank 2^n with basis indexed by subsets of {0..n-1}.

Coefficients live in one of three modes: the integers, the rationals, or
the 2-local integers (fractions with odd denominator). All arithmetic is
exact and arbitrary precision.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def integer_entries(values, where: str) -> tuple[int, ...]:
    """The values as a tuple, each checked to be an int.

    bool and every non-int (float, Fraction, str, ...) are rejected, even
    when integral in value: silently truncating 1.5 to 1 would change the
    tower being asked about.
    """
    out = tuple(values)
    for v in out:
        # exact ints, the common case, skip the two isinstance calls
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
            raise TypeError(f"{where}: entry {v!r} is not an integer")
    return out


class CoeffMode(str, Enum):
    """The coefficient ring of a computation: Z, Q or Z_(2).

    Every question about coefficients is asked of a member: which values
    it contains, which are units, what "divisible by 2" means, and how a
    value is halved. Z_(2) is the ring of fractions with odd denominator,
    so over it divisibility by 2 reads off the numerator parity, and over
    Q it is vacuous. Public functions accept a member or its value ("z",
    "q", "z2local") and normalise with CoeffMode(mode); anything else
    raises ValueError.
    """

    INTEGER = "z"
    RATIONAL = "q"
    TWO_LOCAL = "z2local"

    @property
    def is_field(self) -> bool:
        """True only for Q, where every nonzero value is a unit."""
        return self is CoeffMode.RATIONAL

    def contains(self, value) -> bool:
        """Whether a rational value (an int or a Fraction) lies in the ring."""
        return self._admits(value.denominator)

    def _admits(self, denominator: int) -> bool:
        """Whether 1/denominator lies in the ring, for a positive denominator."""
        if self is CoeffMode.INTEGER:
            return denominator == 1
        if self is CoeffMode.TWO_LOCAL:
            return denominator % 2 == 1
        return True

    def coerce(self, value):
        """value as a coefficient: an int over Z, a Fraction otherwise.

        Only an int (no bool) or a Fraction is a coefficient. Anything else
        raises TypeError, even when Fraction() would read it (1.0, "1/2"),
        as integer_entries does at the library's other boundaries.
        """
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"{value!r} is not a ring coefficient: expected an int or a Fraction")
        if self is CoeffMode.INTEGER and isinstance(value, int):
            return value
        f = Fraction(value)
        if not self.contains(f):
            if self is CoeffMode.INTEGER:
                raise ValueError(f"{value!r} is not an integer coefficient")
            raise ValueError(f"{value!r} has even denominator, not 2-local")
        return int(f) if self is CoeffMode.INTEGER else f

    def is_even(self, value) -> bool:
        """Whether value (an int or a Fraction in the ring) is divisible by 2 in it."""
        return self.is_field or value.numerator % 2 == 0

    def is_unit(self, value) -> bool:
        """Whether value lies in the ring and so does its inverse."""
        if type(value) is int:
            return value != 0 and self._admits(abs(value))
        f = Fraction(value)
        # the inverse of p/q in lowest terms is q/p, with denominator |p|
        return f != 0 and self._admits(f.denominator) and self._admits(abs(f.numerator))

    def halve(self, value):
        """value / 2 inside the ring; ValueError when 2 does not divide it.

        The half is an int whenever it is integral and the ring is not Q,
        so row vectors over Z and Z_(2) stay integer vectors.
        """
        if not self.is_even(value):
            raise ValueError(f"{value!r} is not divisible by 2 in mode {self.value}")
        if value.denominator == 1 and not self.is_field:
            return value.numerator // 2
        return Fraction(value) / 2

    def unit_parameters(self, a, c) -> list:
        """A fixed list of parameters t at which a + t*c is a unit.

        a and c are rationals in the ring. Over Z these are every t with
        a + t c = 1 or -1 when c != 0, and t = 0, 1 when c = 0 and a is
        already a unit. Over Z_(2), where a and c must be integers, a + t c
        is a unit when it is odd: for odd c that fixes the parity of t and
        three values of that parity are returned; otherwise a must be odd
        and t = 0, 1 are returned. Over Q, the first t among 0, 1, -1, 2
        with a + t c != 0, as a Fraction. Over Z, t is solved by divmod,
        whose quotient is an int for int and Fraction inputs alike and
        whose remainder is 0 exactly when t is an integer. Over Z_(2), ints
        and Fractions alike are read through .denominator and .numerator,
        so no Fraction is built, and the parameters are ints in both modes.
        """
        if self is CoeffMode.RATIONAL:
            return [Fraction(t) for t in (0, 1, -1, 2) if a + t * c != 0][:1]
        if self is CoeffMode.INTEGER:
            out = []
            for target in (1, -1):
                if c == 0:
                    if a == target:
                        out += [0, 1]
                else:
                    t, r = divmod(target - a, c)
                    if r == 0:
                        out.append(t)
            return out
        if a.denominator != 1 or c.denominator != 1:
            raise AssertionError("2-local family rows should be integral")
        a, c = a.numerator, c.numerator
        if c % 2 == 1:
            t0 = (1 - a) % 2
            return [t0, t0 + 2, t0 - 2]
        return [0, 1] if a % 2 == 1 else []


class BottMatrix:
    """Strictly upper triangular integer matrix describing a Bott tower.

    Immutable: rows, n, columns and the hash are fixed when the matrix is
    made, and assigning an attribute raises AttributeError. columns[j]
    lists the coefficients of the twist form f_j (length j), the entries
    of column j above the diagonal. Every constructor builds them in one
    pass over zip(*rows), and readers take a column as it is stored
    rather than rebuilding it entry by entry.
    """

    __slots__ = ("rows", "n", "columns", "_hash")

    def __init__(self, rows):
        rows = tuple(integer_entries(row, f"row {i}") for i, row in enumerate(rows))
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for j in range(i + 1):
                if row[j] != 0:
                    raise ValueError(
                        f"entry ({i},{j}) = {row[j]} below or on the diagonal must be 0"
                    )
        _fill(self, rows)

    @classmethod
    def _trusted(cls, rows) -> "BottMatrix":
        """A matrix from rows the library built itself, with no check.

        Safe only when rows is a square list of rows of ints (no bool)
        that is already strictly upper triangular, as the constructor
        would find it: the caller built it from checked ints and its shape
        follows from how it was built. Public input goes through
        BottMatrix(rows).
        """
        self = cls.__new__(cls)
        _fill(self, tuple(map(tuple, rows)))
        return self

    @classmethod
    def zeros(cls, n: int) -> "BottMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def from_last_column(cls, alpha) -> "BottMatrix":
        """Tower over a trivial base whose final stage twists by alpha."""
        alpha = integer_entries(alpha, "twist vector")
        n = len(alpha) + 1
        rows = [[0] * n for _ in range(n)]
        for i, a in enumerate(alpha):
            rows[i][n - 1] = a
        return cls(rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"BottMatrix is immutable: cannot set {name!r}")

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        """Coefficients of the twist form f_j (length j); IndexError unless 0 <= j < n."""
        if not 0 <= j < self.n:
            raise IndexError(f"column index {j} out of range")
        return self.columns[j]

    def is_zero_column(self, j: int) -> bool:
        """Whether f_j = 0; IndexError unless 0 <= j < n."""
        return not any(self.column(j))

    def nonzero_columns(self) -> list[int]:
        return [j for j, col in enumerate(self.columns) if any(col)]

    def twist_count(self) -> int:
        return sum(map(any, self.columns))

    def prefix(self, m: int) -> "BottMatrix":
        """Top-left m x m block: the base of stage m."""
        return BottMatrix([row[:m] for row in self.rows[:m]])

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __eq__(self, other):
        return isinstance(other, BottMatrix) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since no
        # attribute can be set on an existing matrix
        return BottMatrix, (self.rows,)

    def __repr__(self):
        return f"BottMatrix({self.to_lists()})"


_set = object.__setattr__


def _fill(matrix: BottMatrix, rows: tuple) -> None:
    """Set every attribute of a new matrix from its square tuple of int rows."""
    _set(matrix, "rows", rows)
    _set(matrix, "n", len(rows))
    _set(matrix, "columns", tuple([col[:j] for j, col in enumerate(zip(*rows))]))
    _set(matrix, "_hash", hash(rows))


def _normalize_exponents(exps: Counter) -> Counter:
    return Counter({i: e for i, e in exps.items() if e > 0})


class RingElement:
    """Element of the cohomology ring of a Bott tower, in normal form.

    Stored as a map from squarefree monomials (frozensets of generator
    indices) to nonzero coefficients. Supports +, -, * (with scalars and
    other elements) and ** with small nonnegative exponents.

    The constructor coerces every coefficient into the ring's mode. The
    sum, difference and product of two elements of one mode, and the
    negation of an element, skip that step (_closed). Their coefficients
    are sums and products of coefficients already coerced and of integer
    tower entries. Each mode's coefficients are closed under those
    operations, and so is their type: ints over Z, Fractions over Q, and
    Fractions with odd denominators over Z_(2). Coercing them again would
    return them unchanged. A scalar operand, or an element of another
    mode, is still coerced.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "BottRing", terms: dict):
        clean = {}
        for mono, coeff in terms.items():
            c = ring.mode.coerce(coeff)
            if c != 0:
                clean[frozenset(mono)] = c
        self.ring = ring
        self.terms = clean

    @classmethod
    def _closed(cls, ring: "BottRing", terms) -> "RingElement":
        """An element from (monomial, coefficient) pairs, the monomials frozensets and the
        coefficients already in ring's mode; zeros are dropped."""
        self = cls.__new__(cls)
        self.ring = ring
        self.terms = {m: c for m, c in terms if c}
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def degree_part(self, degree: int) -> "RingElement":
        """Homogeneous piece in H^degree (monomial of size p sits in H^{2p})."""
        if degree % 2:
            return self.ring.zero()
        p = degree // 2
        return RingElement(self.ring, {m: c for m, c in self.terms.items() if len(m) == p})

    def max_degree(self) -> int:
        return max((2 * len(m) for m in self.terms), default=0)

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring.matrix == other.ring.matrix and self.terms == other.terms
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            # a rational scalar outside the mode equals no element of the ring
            return self.ring.mode.contains(other) and self == self.ring.scalar(other)
        return NotImplemented

    def __hash__(self):
        # an element with no term but the empty monomial equals that
        # coefficient as a scalar (and one with no term equals 0), so it
        # hashes as the scalar does
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and frozenset() in terms:
            return hash(terms[frozenset()])
        return hash(frozenset((m, Fraction(c)) for m, c in terms.items()))

    def __add__(self, other):
        other = self._coerce_operand(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return RingElement._closed(self.ring, out.items())

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RingElement._closed(self.ring, ((m, -c) for m, c in self.terms.items()))

    def __sub__(self, other):
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.ring._multiply(self, other)
        return RingElement(self.ring, {m: c * other for m, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        out = self.ring.one()
        for _ in range(exponent):
            out = out * self
        return out

    def _coerce_operand(self, other) -> "RingElement":
        """other as an element of this ring's mode, for + and -."""
        if isinstance(other, RingElement):
            if other.ring.matrix != self.ring.matrix:
                raise ValueError("elements live over different Bott matrices")
            if other.ring.mode is not self.ring.mode:
                return RingElement(self.ring, other.terms)
            return other
        return self.ring.scalar(other)

    def to_triples(self) -> list[tuple[list[int], int, int]]:
        """Canonical serialization: sorted (indices, numerator, denominator)."""
        out = []
        for mono in sorted(self.terms, key=lambda m: (len(m), sorted(m))):
            c = Fraction(self.terms[mono])
            out.append((sorted(mono), c.numerator, c.denominator))
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for indices, num, den in self.to_triples():
            coeff = str(num) if den == 1 else f"{num}/{den}"
            mono = "*".join(f"x{i}" for i in indices) or "1"
            bits.append(f"{coeff}*{mono}" if indices else coeff)
        return " + ".join(bits)


# Heights whose generator monomials stay cached; every tower the library
# builds is far lower.
_MONOMIALS_CACHED = 64


@lru_cache(maxsize=_MONOMIALS_CACHED)
def _generator_monomials(n: int) -> tuple:
    """The monomials x_0, ..., x_{n-1} as frozensets, shared by every ring of height n."""
    return tuple([frozenset([i]) for i in range(n)])


class BottRing:
    """The cohomology ring of a Bott tower with a chosen coefficient mode."""

    def __init__(self, matrix: BottMatrix, mode: CoeffMode = CoeffMode.INTEGER):
        self.matrix = matrix
        self.mode = CoeffMode(mode)

    @property
    def n(self) -> int:
        return self.matrix.n

    def zero(self) -> RingElement:
        return RingElement(self, {})

    def one(self) -> RingElement:
        return RingElement(self, {frozenset(): 1})

    def scalar(self, value) -> RingElement:
        return RingElement(self, {frozenset(): value})

    def generator(self, i: int) -> RingElement:
        if not 0 <= i < self.n:
            raise IndexError(f"generator index {i} out of range")
        return RingElement(self, {frozenset([i]): 1})

    def line_element(self, coeffs) -> RingElement:
        """Degree-2 class sum coeffs[i] * x_i.

        The monomials x_i are the memoized ones of the height
        (_generator_monomials). Over Z a list of ints alone (type int, so
        no bool) already holds coefficients of the mode, so the element is
        built unchecked from its nonzero terms (RingElement._closed).
        Every other input goes through the coercing constructor
        (CoeffMode.coerce), which rejects a bool, any value that is not an
        int or a Fraction, and a value outside the mode.
        """
        coeffs = list(coeffs)
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        monos = _generator_monomials(self.n)
        if self.mode is CoeffMode.INTEGER and all(type(c) is int for c in coeffs):
            return RingElement._closed(self, zip(monos, coeffs))
        return RingElement(self, dict(zip(monos, coeffs)))

    def twist_form(self, j: int) -> RingElement:
        """f_j as a ring element."""
        return RingElement(self, {frozenset([i]): c for i, c in enumerate(self.matrix.column(j))})

    def basis(self):
        """All 2^n squarefree monomials, sorted by degree then indices."""
        out = [frozenset()]
        for p in range(1, self.n + 1):
            out.extend(frozenset(c) for c in combinations(range(self.n), p))
        return out

    def reduce_monomial(self, indices) -> RingElement:
        """Normal form of a product of generators given with multiplicities.

        Rewrites the highest repeated generator by x_j^2 -> f_j x_j until the
        support is squarefree; the result does not depend on the rewrite
        order (see the confluence test).
        """
        return RingElement(self, self._reduce_counter(_normalize_exponents(Counter(indices)), 1))

    def _reduce_counter(self, exps: Counter, coeff) -> dict:
        out: dict = {}
        work = [(exps, coeff)]
        while work:
            exps, coeff = work.pop()
            j = -1
            for i, e in exps.items():
                if e >= 2 and i > j:
                    j = i
            if j < 0:
                mono = frozenset(exps)
                out[mono] = out.get(mono, 0) + coeff
                continue
            for i, c in enumerate(self.matrix.columns[j]):
                if c:
                    nxt = exps.copy()
                    nxt[j] -= 1
                    nxt[i] += 1
                    work.append((_normalize_exponents(nxt), coeff * c))
        return {m: c for m, c in out.items() if c != 0}

    def _multiply(self, a: RingElement, b: RingElement) -> RingElement:
        if a.ring is not b.ring and a.ring.matrix != b.ring.matrix:
            raise ValueError("elements live over different Bott matrices")
        columns = self.matrix.columns
        acc: dict = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                c = ca * cb
                if not (ma & mb):
                    mono = ma | mb
                    acc[mono] = acc.get(mono, 0) + c
                elif len(ma) == 1 and ma == mb:
                    # x_j x_j -> f_j x_j = sum_i c_ij x_i x_j, the only
                    # overlap in a product of two line elements; _reduce_counter
                    # gives the same terms through a Counter round trip, which
                    # made ring_isomorphic on one-twist pairs about 16 % slower
                    (j,) = ma
                    for i, cij in enumerate(columns[j]):
                        if cij:
                            mono = frozenset((i, j))
                            acc[mono] = acc.get(mono, 0) + c * cij
                else:
                    exps = Counter(ma) + Counter(mb)
                    for mono, cc in self._reduce_counter(exps, c).items():
                        acc[mono] = acc.get(mono, 0) + cc
        if a.ring.mode is b.ring.mode is self.mode:
            return RingElement._closed(self, acc.items())
        return RingElement(self, acc)

    def top_class_nonzero(self) -> bool:
        """Whether x_0 x_1 ... x_{n-1} is nonzero (it always is: basis element)."""
        prod = self.one()
        for i in range(self.n):
            prod = prod * self.generator(i)
        return not prod.is_zero()


def total_chern_sum(ring: BottRing, alpha, beta) -> RingElement:
    """Total Chern class (1 + alpha)(1 + beta) of a sum of two line bundles."""
    a = alpha if isinstance(alpha, RingElement) else ring.line_element(alpha)
    b = beta if isinstance(beta, RingElement) else ring.line_element(beta)
    return (ring.one() + a) * (ring.one() + b)


def whitney_sum_trivial(ring: BottRing, alpha, beta) -> bool:
    """Whether the rank-2 sum of the two line bundles has trivial total Chern class."""
    return total_chern_sum(ring, alpha, beta) == ring.one()


def inverse_pair_coefficient_condition(matrix: BottMatrix, alpha) -> bool:
    """Coefficient test for triviality of the pair (alpha, -alpha).

    The sum of the line bundles with first Chern classes alpha and -alpha
    is trivial exactly when a_j^2 c[i][j] = -2 a_j a_i for all i < j, which
    is the coefficientwise statement of alpha^2 = 0.
    """
    a = integer_entries(alpha, "line class")
    n = matrix.n
    if len(a) != n:
        raise ValueError(f"expected {n} coefficients, got {len(a)}")
    for j, col in enumerate(matrix.columns):
        aj = a[j]
        for i, c in enumerate(col):
            if aj * aj * c != -2 * aj * a[i]:
                return False
    return True


def pontrjagin_one_twist(alpha, mode: CoeffMode = CoeffMode.INTEGER) -> RingElement:
    """Total Pontrjagin class 1 + alpha^2 of a one-twist tower over a product base.

    alpha lists the twist coefficients (ints, no bool) over the trivial
    tower of height len(alpha), and is read once, so any iterable works;
    the class lives in that base ring, where every generator squares to
    zero.
    """
    alpha = integer_entries(alpha, "twist vector")
    base = BottRing(BottMatrix.zeros(len(alpha)), mode)
    a = base.line_element(alpha)
    return base.one() + a * a
