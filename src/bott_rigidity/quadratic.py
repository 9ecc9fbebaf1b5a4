"""Degree-2 and degree-4 arithmetic in closed form.

The product of two degree-2 classes z, w over a Bott matrix is supported
on the squarefree pairs x_i x_j (i < j) with coefficient

    z_i w_j + z_j w_i + c[i][j] z_j w_j,

the last summand coming from x_j^2 = f_j x_j. Everything in this module
is built from that formula: enumeration of the square-zero lines in
degree 2, and the complete solution of the quadratic equation
w^2 = u * w for a known u, which is how rows of a candidate change of
basis are produced without scanning a coefficient box.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .core import BottMatrix, CoeffMode
from .linalg import primitive_part


def line_product_pairs(matrix: BottMatrix, z, w) -> dict:
    """Coefficients of (sum z_i x_i)(sum w_i x_i) on the pairs x_i x_j, i < j."""
    out = {}
    n = matrix.n
    for j in range(n):
        zj, wj = z[j], w[j]
        for i in range(j):
            c = z[i] * wj + zj * w[i] + matrix.entry(i, j) * zj * wj
            if c:
                out[(i, j)] = c
    return out


def line_square_pairs(matrix: BottMatrix, z) -> dict:
    """Coefficients of (sum z_i x_i)^2 on the pairs x_i x_j, i < j."""
    out = {}
    n = matrix.n
    for j in range(n):
        zj = z[j]
        for i in range(j):
            c = 2 * z[i] * zj + matrix.entry(i, j) * zj * zj
            if c:
                out[(i, j)] = c
    return out


def square_zero_lines(matrix: BottMatrix) -> list[tuple[int, ...]]:
    """Primitive directions of the square-zero lines in degree 2.

    A nonzero z with z^2 = 0 and top support index m must satisfy
    2 z_i z_m = -c[i][m] z_m^2 for each i < m, so the whole line is pinned
    by m: take z_m = 1 when column m is even and 2 otherwise, read off the
    other coordinates, and keep the direction when its square really
    vanishes. Hence there is at most one line per index and at most n in
    total, the same set in integral, rational and 2-local coefficients.
    """
    n = matrix.n
    out = []
    for m in range(n):
        col = matrix.column(m)
        vm = 1 if all(c % 2 == 0 for c in col) else 2
        v = tuple(-(c * vm) // 2 for c in col) + (vm,) + (0,) * (n - m - 1)
        if not line_square_pairs(matrix, v):
            out.append(v)
    return out


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
    x = abs(x)
    out = []
    d = 1
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            if d != x // d:
                out.append(x // d)
        d += 1
    return sorted(out)


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """Nonzero rational roots of a polynomial given by ascending coefficients."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
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
    out = []
    for x in vec:
        f = Fraction(x) / 2
        if mode is not CoeffMode.RATIONAL:
            if f.denominator != 1:
                return None
            f = int(f)
        out.append(f)
    return tuple(out)


def _affine_family(u, line, mode: CoeffMode):
    """The solutions w = (u + t*line)/2, reparametrized as w0 + t*step.

    Over the rationals every t works. Over the integer-like modes the
    numerator must be even componentwise, which fixes the parity of t
    (the primitive line always has an odd coordinate); an inconsistent
    parity kills the family.
    """
    if mode is CoeffMode.RATIONAL:
        return tuple(Fraction(x) / 2 for x in u), tuple(Fraction(x) for x in line)
    tau = None
    for cand in (0, 1):
        if all((cand * li - ui) % 2 == 0 for ui, li in zip(u, line)):
            tau = cand
            break
    if tau is None:
        return None
    w0 = tuple((ui + tau * li) // 2 for ui, li in zip(u, line))
    return w0, tuple(line)


class RowSolutions:
    """Solution set of w^2 = u*w: finitely many rows plus affine families.

    families lists (w0, step) pairs describing {w0 + t*step}; over the
    integer-like modes every integer t yields an admissible row, over the
    rationals every rational t. exhaustive is False when a rational search
    had to fall back to probing a curve of solutions.
    """

    __slots__ = ("finite", "families", "exhaustive")

    def __init__(self, finite, families, exhaustive):
        self.finite = finite
        self.families = families
        self.exhaustive = exhaustive


def twisted_row_solutions(matrix: BottMatrix, u, mode: CoeffMode,
                          lines=None, probe: int = 4) -> RowSolutions:
    """Solve w^2 = u*w exactly for a known degree-2 class u.

    Substituting v = 2w - u turns the equation into v^2 = u^2. When
    u^2 = 0 the solutions are v = 0 and the square-zero lines, giving
    affine families in w. Otherwise the top support index m of v is at
    least the top pair index of u^2, the coordinates below m are pinned
    by v_m, and v_m itself is confined to divisors (integer modes) or to
    roots of an explicit polynomial (rational mode), so the solution set
    is finite and is returned in full.

    The zero row solves every instance and is omitted: callers build
    basis rows or unimodular changes of basis, where it never occurs.
    """
    n = matrix.n
    if lines is None:
        lines = square_zero_lines(matrix)
    s = line_square_pairs(matrix, u)
    finite = []
    families = []
    exhaustive = True

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
        for line in lines:
            fam = _affine_family(u, line, mode)
            if fam is not None:
                families.append(fam)
        return RowSolutions(finite, families, exhaustive)

    top = max(j for _, j in s)
    for m in range(top, n):
        col = [matrix.entry(i, m) for i in range(m)]
        sim = [s.get((i, m), 0) for i in range(m)]
        if any(sim):
            if mode is CoeffMode.RATIONAL:
                vals, probed = _case_pinned_rational(matrix, s, m, col, sim, probe)
                exhaustive = exhaustive and not probed
                for v in vals:
                    push_v(v)
            else:
                g = 0
                for x in sim:
                    f = Fraction(x)
                    if f.denominator != 1:
                        raise AssertionError("integer mode produced a fractional square")
                    g = gcd(g, f.numerator)
                for d in divisors(g):
                    for vm in (d, -d):
                        v = [Fraction(0)] * n
                        v[m] = Fraction(vm)
                        bad = False
                        for i in range(m):
                            num = Fraction(sim[i] - col[i] * vm * vm, 2 * vm)
                            if num.denominator != 1:
                                bad = True
                                break
                            v[i] = num
                        if not bad:
                            push_v(tuple(v))
        else:
            vm_unit = 1 if all(c % 2 == 0 for c in col) else 2
            delta = tuple(-(c * vm_unit) // 2 for c in col) + (vm_unit,) + (0,) * (n - m - 1)
            d2 = line_square_pairs(matrix, delta)
            ratio = None
            ok = True
            for key in set(d2) | set(s):
                a_, b_ = d2.get(key, 0), s.get(key, 0)
                if a_ == 0:
                    if b_ != 0:
                        ok = False
                        break
                    continue
                r = Fraction(b_) / Fraction(a_)
                if ratio is None:
                    ratio = r
                elif ratio != r:
                    ok = False
                    break
            if ok and ratio is not None and ratio > 0:
                t = perfect_square_root(ratio)
                if t is not None and (mode is CoeffMode.RATIONAL or t.denominator == 1):
                    for tt in (t, -t):
                        push_v(tuple(tt * x for x in delta))
    return RowSolutions(finite, families, exhaustive)


def _case_pinned_rational(matrix, s, m, col, sim, probe):
    """Rational-mode solutions with top index m when some s[(i,m)] != 0.

    v_i = (s_im - c_im v_m^2) / (2 v_m) for i < m; each remaining pair
    equation clears to a polynomial in v_m of degree at most 4. A
    nontrivial polynomial has finitely many rational roots; when every
    equation degenerates the curve is probed at small parameter values
    and the probed flag is raised.
    """
    n = matrix.n
    a = [Fraction(x) for x in sim]
    bcol = [Fraction(c) for c in col]

    def build(vm):
        v = [Fraction(0)] * n
        v[m] = vm
        for i in range(m):
            v[i] = (a[i] - bcol[i] * vm * vm) / (2 * vm)
        return tuple(v)

    poly = None
    for j in range(m):
        for i in range(j):
            cij = Fraction(matrix.entry(i, j))
            sij = Fraction(s.get((i, j), 0))
            # (2 v_m)^2 * (2 v_i v_j + c_ij v_j^2 - s_ij), with
            # 2 v_m v_k = a_k - b_k v_m^2: a degree-4 polynomial in v_m.
            pi = (a[i], -bcol[i])
            pj = (a[j], -bcol[j])
            # 2*(pi)(pj) + c*(pj)^2 - 4 s v^2, coefficients in v_m^2
            q0 = 2 * pi[0] * pj[0] + cij * pj[0] * pj[0]
            q1 = 2 * (pi[0] * pj[1] + pi[1] * pj[0]) + 2 * cij * pj[0] * pj[1] - 4 * sij
            q2 = 2 * pi[1] * pj[1] + cij * pj[1] * pj[1]
            cand = [q0, Fraction(0), q1, Fraction(0), q2]
            if any(cand):
                poly = cand
                break
        if poly:
            break
    if poly is not None:
        return [build(r) for r in _rational_roots(poly) if r != 0], False
    vals = []
    for k in range(1, probe + 1):
        for vm in (Fraction(k), Fraction(-k)):
            vals.append(build(vm))
    return vals, True


def primitive_rows_box(n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer vectors in [-bound, bound]^n, first nonzero entry positive.

    The box is built once per (n, bound) and shared between callers, so it
    is returned as a tuple. The cache sits on a private helper so that this
    name stays a plain function, which bench/tracing.py wraps and counts.
    """
    return _primitive_rows_box(n, bound)


@lru_cache(maxsize=32)
def _primitive_rows_box(n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if any(prefix):
                v = primitive_part(list(prefix))
                t = tuple(v)
                if t not in seen:
                    seen.add(t)
                    out.append(t)
            return
        started = any(prefix)
        lo = -bound if started else 0
        for x in range(lo, bound + 1):
            rec(prefix + (x,))

    seen: set = set()
    rec(())
    return tuple(out)
