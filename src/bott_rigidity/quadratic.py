"""Degree-2 and degree-4 arithmetic in closed form.

The product of two degree-2 classes z, w over a Bott matrix is supported
on the squarefree pairs x_i x_j (i < j) with coefficient

    z_i w_j + z_j w_i + c[i][j] z_j w_j,

the last summand coming from x_j^2 = f_j x_j. Everything in this module
is built from that formula: enumeration of the square-zero lines in
degree 2, and the exact solutions of the quadratic equation
w^2 = u * w for a known u, which is how rows of a candidate change of
basis are produced without scanning a coefficient box.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from typing import NamedTuple

from .core import BottMatrix, CoeffMode
from .linalg import _cleared_rows

RATIONAL_PROBE = 4


def line_product_pairs(matrix: BottMatrix, z, w) -> dict:
    """Coefficients of (sum z_i x_i)(sum w_i x_i) on the pairs x_i x_j, i < j.

    Column j of the matrix (the twist form f_j) is read once, and a pair
    (i, j) with z_j = w_j = 0 has coefficient 0 and is skipped.
    """
    out = {}
    n = matrix.n
    for v in (z, w):
        if len(v) != n:
            raise ValueError(f"expected {n} coefficients, got {len(v)}")
    for j, col in enumerate(matrix.columns):
        zj, wj = z[j], w[j]
        if not (zj or wj):
            continue
        zw = zj * wj
        for i, cij in enumerate(col):
            c = z[i] * wj + zj * w[i] + cij * zw
            if c:
                out[(i, j)] = c
    return out


def line_square_pairs(matrix: BottMatrix, z) -> dict:
    """Coefficients of (sum z_i x_i)^2 on the pairs x_i x_j, i < j.

    The square is the product of z with itself (line_product_pairs), with
    the same pairs in the same order and the same length check.
    """
    return line_product_pairs(matrix, z, z)


def _pinned_line(matrix: BottMatrix, m: int) -> tuple:
    """The direction with top index m pinned by 2 z_i z_m = -c[i][m] z_m^2.

    z_m = 1 when column m is even and 2 otherwise, so every other
    coordinate is an integer.
    """
    col = matrix.columns[m]
    vm = 1 if all(c % 2 == 0 for c in col) else 2
    return tuple(-(c * vm) // 2 for c in col) + (vm,) + (0,) * (matrix.n - m - 1)


def square_zero_lines(matrix: BottMatrix) -> list[tuple[int, ...]]:
    """Primitive directions of the square-zero lines in degree 2.

    A nonzero z with z^2 = 0 and top support index m must satisfy
    2 z_i z_m = -c[i][m] z_m^2 for each i < m, so the whole line is pinned
    by m (_pinned_line), and the direction is kept when its square really
    vanishes. Hence there is at most one line per index and at most n in
    total, the same set in integral, rational and 2-local coefficients.
    The lines of the _LINES_CACHED most recently seen towers are kept.
    """
    return list(_square_zero_lines(matrix))


# Towers whose square-zero lines stay cached.
_LINES_CACHED = 256


@lru_cache(maxsize=_LINES_CACHED)
def _square_zero_lines(matrix: BottMatrix) -> tuple[tuple[int, ...], ...]:
    lines = (_pinned_line(matrix, m) for m in range(matrix.n))
    return tuple(v for v in lines if not line_square_pairs(matrix, v))


def perfect_square_root(q: Fraction):
    """Exact square root of a rational, or None when q is not a square."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def divisors(x: int) -> list[int]:
    """Positive divisors of x, ascending; [] for x = 0.

    They are built from the prime factorization of |x|, found by trial
    division that stops once the next divisor's square exceeds the part
    of |x| still unfactored. A value whose prime factors are small beside
    it is answered at once (10**40 and 2**64 * 3**20 take microseconds),
    and so is a large prime or a small multiple of one. A value with two
    large prime factors, such as p**2 with p near 10**10, is still divided
    up to p: that case waits for a search budget.

    The divisors of the _DIVISORS_CACHED most recently seen |x| are kept,
    because the witness search asks for the same few values many times.
    """
    return list(_divisors(abs(x)))


# Absolute values whose divisors stay cached.
_DIVISORS_CACHED = 1024


@lru_cache(maxsize=_DIVISORS_CACHED)
def _divisors(x: int) -> tuple[int, ...]:
    if x == 0:
        return ()
    out = [1]
    rest, d = x, 2
    while d * d <= rest:
        if rest % d == 0:
            # each power d**k of this prime times every divisor found so far
            k, powers = 0, []
            while rest % d == 0:
                rest //= d
                k += 1
                powers.append(d ** k)
            out += [e * q for q in powers for e in out]
        d += 1
    if rest > 1:
        out += [e * rest for e in out]
    return tuple(sorted(out))


def _rational_roots(coeffs) -> list[Fraction]:
    """Nonzero rational roots of a polynomial given by ascending int/Fraction coefficients."""
    (ints,), _ = _cleared_rows([coeffs])
    while ints and ints[-1] == 0:
        ints.pop()
    lead_zeros = 0
    while lead_zeros < len(ints) and ints[lead_zeros] == 0:
        lead_zeros += 1
    ints = ints[lead_zeros:]
    if len(ints) <= 1:
        return []
    roots = []
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand**k for k, c in enumerate(ints)) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def _halve_vector(vec, mode: CoeffMode):
    """vec / 2 inside the coefficient ring, or None when 2 does not divide."""
    if not all(mode.is_even(x) for x in vec):
        return None
    return tuple(mode.halve(x) for x in vec)


def _affine_family(u, line, mode: CoeffMode):
    """The solutions w = (u + t*line)/2, reparametrized as w0 + t*step.

    Over the rationals every t works, so t = 0 gives w0. Over the
    integer-like modes the numerator must be even componentwise, which
    fixes the parity of t (the primitive line always has an odd
    coordinate); an inconsistent parity kills the family.
    """
    for tau in (0, 1):
        w0 = _halve_vector([ui + tau * li for ui, li in zip(u, line)], mode)
        if w0 is not None:
            return w0, tuple(line)
    return None


class RowSolutions(NamedTuple):
    """Solutions of w^2 = u*w found by twisted_row_solutions.

    finite is a tuple of single rows; families is a tuple of (w0, step)
    pairs describing {w0 + t*step}, where over the integer-like modes
    every integer t yields an admissible row and over the rationals
    every rational t. The rows are candidates for a witness, so a
    solution they miss can only cost a witness, never give a False
    verdict. Each entry's type follows from its value and the mode
    (CoeffMode.halve), so an int u and an equal Fraction u have the same
    solutions.
    """

    finite: tuple
    families: tuple


def twisted_row_solutions(matrix: BottMatrix, u, mode: CoeffMode) -> RowSolutions:
    """Solve w^2 = u*w exactly for a known degree-2 class u.

    Substituting v = 2w - u turns the equation into v^2 = u^2. When
    u^2 = 0 the solutions are v = 0 and the square-zero lines, giving
    affine families in w. Otherwise the top support index m of v is at
    least the top pair index of u^2, the coordinates below m are pinned
    by v_m, and v_m itself is confined to divisors (integer modes) or to
    roots of an explicit polynomial (rational mode), so the solution set
    is finite. It is returned in full over Z; over Z_(2) only its integer
    rows are found, and over Q a degenerate case is probed at finitely
    many points (_case_pinned_rational).

    The zero row solves every instance and is omitted: callers build
    basis rows or unimodular changes of basis, where it never occurs.
    """
    mode = CoeffMode(mode)
    n = matrix.n
    s = line_square_pairs(matrix, u)
    finite = []
    families = []

    def push_v(v):
        if line_square_pairs(matrix, v) != s:
            return
        w = _halve_vector([ui + vi for ui, vi in zip(u, v)], mode)
        if w is not None and any(w) and w not in finite:
            finite.append(w)

    if not s:
        w0 = _halve_vector(u, mode)
        if w0 is not None and any(w0):
            finite.append(w0)
        for line in _square_zero_lines(matrix):
            fam = _affine_family(u, line, mode)
            if fam is not None:
                families.append(fam)
        return RowSolutions(tuple(finite), tuple(families))

    top = max(j for _, j in s)
    for m in range(top, n):
        col = matrix.columns[m]
        sim = [s.get((i, m), 0) for i in range(m)]
        if any(sim):
            if mode.is_field:
                for v in _case_pinned_rational(matrix, s, m, col, sim):
                    push_v(v)
            else:
                if any(x.denominator != 1 for x in sim):
                    raise AssertionError("integer mode produced a fractional square")
                sim = [x.numerator for x in sim]
                for d in divisors(gcd(*sim)):
                    for vm in (d, -d):
                        v = [0] * n
                        v[m] = vm
                        for i in range(m):
                            v[i], rem = divmod(sim[i] - col[i] * vm * vm, 2 * vm)
                            if rem:
                                break
                        else:
                            push_v(tuple(v))
        else:
            # v = t * delta with t^2 delta^2 = s: one pair fixes t^2, and
            # push_v checks the others
            delta = _pinned_line(matrix, m)
            key, sk = next(iter(s.items()))
            dk = line_square_pairs(matrix, delta).get(key)
            t = perfect_square_root(Fraction(sk, dk)) if dk else None
            if t is not None and (mode.is_field or t.denominator == 1):
                for tt in (t, -t):
                    push_v(tuple(tt * x for x in delta))
    return RowSolutions(tuple(finite), tuple(families))


def _case_pinned_rational(matrix, s, m, col, sim):
    """Rational-mode solutions with top index m when some s[(i,m)] != 0.

    v_i = (s_im - c_im v_m^2) / (2 v_m) for i < m; each remaining pair
    equation clears to a polynomial in v_m of degree at most 4. A
    nontrivial polynomial has finitely many rational roots; when every
    equation degenerates the curve is probed at v_m = +-1..RATIONAL_PROBE.
    """
    n = matrix.n

    def build(vm):
        v = [Fraction(0)] * n
        v[m] = vm
        for i in range(m):
            v[i] = (sim[i] - col[i] * vm * vm) / (2 * vm)
        return tuple(v)

    poly = None
    for j in range(m):
        for i, cij in enumerate(matrix.columns[j]):
            sij = s.get((i, j), 0)
            # (2 v_m)^2 * (2 v_i v_j + c_ij v_j^2 - s_ij), with
            # 2 v_m v_k = s_km - c_km v_m^2: a degree-4 polynomial in v_m.
            pi = (sim[i], -col[i])
            pj = (sim[j], -col[j])
            # 2*(pi)(pj) + c*(pj)^2 - 4 s v^2, coefficients in v_m^2
            q0 = 2 * pi[0] * pj[0] + cij * pj[0] * pj[0]
            q1 = 2 * (pi[0] * pj[1] + pi[1] * pj[0]) + 2 * cij * pj[0] * pj[1] - 4 * sij
            q2 = 2 * pi[1] * pj[1] + cij * pj[1] * pj[1]
            cand = [q0, 0, q1, 0, q2]
            if any(cand):
                poly = cand
                break
        if poly:
            break
    if poly is not None:
        return [build(r) for r in _rational_roots(poly) if r != 0]
    vals = []
    for k in range(1, RATIONAL_PROBE + 1):
        for vm in (Fraction(k), Fraction(-k)):
            vals.append(build(vm))
    return vals


def primitive_rows_box(n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer vectors in [-bound, bound]^n, first nonzero entry positive.

    The box is built once per (n, bound) and shared between callers, so it
    is returned as a tuple. The cache sits on a private helper so that this
    name stays a plain function, which bench/tracing.py wraps and counts.
    """
    return _primitive_rows_box(n, bound)


@lru_cache(maxsize=32)
def _primitive_rows_box(n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    box = product(range(-bound, bound + 1), repeat=n)
    return tuple(v for v in box if gcd(*v) == 1 and next(x for x in v if x) > 0)
