"""Scaled-integer arithmetic of the moment method: Gram, Cholesky, pairings and control evaluation.

A number is a Python integer with an explicit power-of-two scale,
``n * 2**e``, in fixed point at ``bits`` fraction bits within one kernel,
Gram or vector, with real and imaginary parts in separate lists.  A
complex inner product is three exact C-level ``sum(map(mul, ...))`` of
integers, shifted once: with ``p = ar . br`` and ``q = ai . bi``, its real
part is ``p - q`` and its imaginary part ``(ar + ai) . (br + bi) - p - q``
(Gauss's product; on integers the identity is exact, so the results are
those of four products), where the sums ``ar + ai`` of a Cholesky factor's
or a Gram's rows are formed once.  The rates and coefficients of a kernel
come from doubles, so their integers are short odd parts times powers of
two; the moment Gram pairs the odd parts and shifts the powers back once,
exactly (:func:`_moment_gram`).  The exponentials are integers too
(:func:`_exp`): one ``e^{rate T}`` per kernel term, paired by products, and
the step factors of the control evaluation, which steps the weighted terms
``x conj(coef) e^{conj(rate) s}`` themselves, so that a point is a plain
sum; a step a few units from an earlier one takes its factors from that
step's by a short series, rate by rate.  The argument of an exponential is
formed exactly from the double rate and the float horizon or integer step,
reduced by ln 2 and pi/2, and summed as two short real series; ln 2 and
pi/2 come from integer series once per precision.  Kernels come in as lists
of :class:`~cnslab.kernels.KernelTerm`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache, reduce
from itertools import chain, count, repeat
from operator import add, lshift, mul, or_, rshift, sub
from typing import NamedTuple

import numpy as np

from .errors import ArithmeticFailure
from .kernels import TAYLOR_RADIUS, KernelTerm

#: extra bits (ten digits) of the Gram, its exponentials and the residual that refines the solution
_GUARD_BITS = 34
#: largest ``max|rate| * |h - h0|`` at which the control evaluation derives a step's factors from step ``h0``'s
_STEP_SERIES_RADIUS = 1e-6
#: extra bits of the series inside the integer exponential :func:`_exp`
_EXP_GUARD = 12
_LN2 = math.log(2.0)


class ScaledVector(NamedTuple):
    """Complex numbers ``(re[k] + 1j * im[k]) * 2**exp`` on Python ints, with one power-of-two scale."""

    re: list[int]
    im: list[int]
    exp: int


class Kernel(NamedTuple):
    """A moment kernel on integers at ``bits`` fraction bits.

    Each term is ``(cr, ci, ar, ai, rate, degree, er, ei)``: the coefficient
    ``(cr + 1j * ci) * 2**(exp - bits)``, the rate ``(ar + 1j * ai) * 2**-bits``
    (also kept as the complex ``rate``), the degree, and ``e^{rate T}`` as
    ``(er + 1j * ei) * 2**-bits``.  ``exp`` brings the row's coefficients
    below 1 in modulus.
    """

    exp: int
    bits: int
    terms: list[tuple]


class Gram(NamedTuple):
    """A Hermitian Gram with its rows and columns scaled by powers of two.

    ``G[i][j] = (re + 1j * im)[i][j] * 2**(exps[i] + exps[j] - bits)``, and
    ``re[i][i] * 2**-bits`` lies in ``[1, 4)``: the scaled matrix has a unit
    diagonal up to a factor below 4.  ``sums`` holds ``re + im`` row by row
    for the products of :func:`_gram_times`.
    """

    re: list[list[int]]
    im: list[list[int]]
    exps: list[int]
    bits: int
    sums: list[list[int]]


def _shift(n: int, k: int) -> int:
    """``n * 2**k``, rounded down when ``k < 0``."""
    return n << k if k >= 0 else n >> -k


def _shift_all(values: list[int], k: int) -> list[int]:
    """:func:`_shift` of every value by ``k``."""
    return list(map(lshift, values, repeat(k))) if k >= 0 else list(map(rshift, values, repeat(-k)))


def _fixed(x: float, bits: int) -> int:
    """``floor(x * 2**bits)`` for a finite float ``x``."""
    n, d = x.as_integer_ratio()
    return _shift(n, bits) // d


def _ratio(x: float) -> tuple[int, int]:
    """``(n, e)`` with ``x = n * 2**e`` exactly, for a finite float ``x``."""
    m, e = math.frexp(x)
    return int(m * 2.0**53), e - 53


def _dps_bits(dps: int) -> int:
    """The bits of a rung of ``dps`` decimal digits, as mpmath's ``dps_to_prec`` counts them."""
    return max(1, round((dps + 1) * 3.3219280948873626))


def _float(n: int, exp: int) -> float:
    """``n * 2**exp`` correctly rounded to a float."""
    return n / (1 << -exp) if exp < 0 else float(n << exp)


def _sqrt_float(n: int, exp: int) -> float:
    """``sqrt(n * 2**exp)`` for ``n >= 0``, rounded to a float from an integer square root of at least 64 bits."""
    k = max(0, 130 - n.bit_length())
    k += (exp - k) % 2
    return _float(math.isqrt(n << k), (exp - k) // 2)


def require_finite(label: str, what: str, values) -> None:
    """Refuse non-finite complex ``values`` with :class:`ArithmeticFailure` naming the row and the input."""
    for v in values:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ArithmeticFailure(f"{label}: non-finite {what} {v!r}")


def _range_bits(kernels: list[list[KernelTerm]], T: float) -> int:
    """Bits by which the smallest ``integral_0^T |(T-t)**j e^{rate (T-t)}|**2 dt`` of the kernels' terms falls below 1.

    That integral is ``I_{2j}(2 Re rate, T)``, about ``T**(2j+1) / (2j+1)``
    and, for a decaying rate, at most ``(2j)! / |2 Re rate|**(2j+1)``; the
    smaller of the two is taken.  Pair integrals carry these bits on top of
    the working ones, so rescaling the Gram to a unit diagonal keeps every
    working bit.  Non-finite rates are skipped here and refused by
    :func:`_kernel`.
    """
    smallest = 0.0
    for kernel in kernels:
        for t in kernel:
            m = 2 * t.degree
            size = (m + 1) * math.log2(T) - math.log2(m + 1)
            decay = -2.0 * complex(t.rate).real
            if 0.0 < decay < math.inf:
                size = min(size, math.log2(math.factorial(m)) - (m + 1) * math.log2(decay))
            smallest = min(smallest, size)
    return math.ceil(-smallest)


def _kernel(label: str, kernel: list[KernelTerm], T: float, bits: int) -> Kernel:
    """The terms of one kernel as integers at ``bits`` fraction bits (see :class:`Kernel`).

    Each term costs one integer exponential :func:`_exp` of ``rate T``, formed
    exactly from the double rate and the float ``T``.  Non-finite
    coefficients and rates are refused here, where they would enter the
    integer arithmetic.
    """
    coefs = [complex(t.coef) for t in kernel]
    rates = [complex(t.rate) for t in kernel]
    require_finite(label, "kernel coefficient", coefs)
    require_finite(label, "kernel rate", rates)
    exp = max((math.frexp(v)[1] for c in coefs for v in (c.real, c.imag)), default=0)
    Tn, Te = _ratio(T)
    terms = []
    for t, c, rate in zip(kernel, coefs, rates):
        coef = _fixed(c.real, bits - exp), _fixed(c.imag, bits - exp)
        terms.append((*coef, _fixed(rate.real, bits), _fixed(rate.imag, bits), rate, t.degree,
                      *_exp(rate, Tn, Te, bits)))
    return Kernel(exp, bits, terms)


def _exp(rate: complex, n: int, e: int, bits: int) -> tuple[int, int]:
    """Real and imaginary parts of ``e^z`` at ``bits`` fraction bits, for ``z = rate * n * 2**e`` and a finite ``rate``.

    ``z`` is a product of dyadic rationals, so it is formed exactly and
    floored once, at the bits of the ln 2 and pi/2 that reduce it:
    ``z = k ln 2 + i q pi/2 + r + i s`` with ``|r| <= ln(2)/2`` and
    ``|s| <= pi/4``.  Those constants carry the bits of ``k`` and ``q`` on
    top of the working ones.  ``e^{|r|}`` is ``sinh + sqrt(1 + sinh**2)``
    and ``e^{i|s|}`` is ``sqrt(1 - sin**2) + i sin``, each from one odd
    Taylor series at :data:`_EXP_GUARD` bits above ``bits``; the product is
    shifted by ``k`` and turned by ``i**q``.  Below ``Re z = -(bits + 2) ln 2``
    the result is 0.  The error stays within about one unit of ``2**-bits``.
    """
    (ar, er), (ai, ei) = _ratio(rate.real), _ratio(rate.imag)
    low = min(er, ei)
    zr, zi, exp = (ar << er - low) * n, (ai << ei - low) * n, low + e
    x = _float(zr, exp)
    if x < -(bits + 2) * _LN2:
        return 0, 0
    k, q = round(x / _LN2), round(_float(zi, exp) / (math.pi / 2))
    w = bits + _EXP_GUARD + max(k, 0)
    # the constants' bits: those of k and q above w, rounded up to a multiple of 64 so that few precisions are cached
    c = -(-(w + max(abs(k), abs(q), 1).bit_length() + 2) // 64) * 64
    ln2, half_pi = _ln2_half_pi(c)
    r = _shift(_shift(zr, exp + c) - k * ln2, w - c)
    s = _shift(_shift(zi, exp + c) - q * half_pi, w - c)
    one = 1 << 2 * w
    sinh = sum(_odd_terms(abs(r), w))
    modulus = sinh + math.isqrt(one + sinh * sinh)
    if r < 0:
        modulus = one // modulus
    terms = _odd_terms(abs(s), w)
    sin = sum(terms[::2]) - sum(terms[1::2])
    re, im = modulus * math.isqrt(one - sin * sin), modulus * sin if s >= 0 else -modulus * sin
    for _ in range(q % 4):
        re, im = -im, re
    return _shift(re, k + bits - 2 * w), _shift(im, k + bits - 2 * w)


def _odd_terms(x: int, w: int) -> list[int]:
    """``x**(2j+1) / (2j+1)!`` for ``0 <= x < 1`` at ``w`` fraction bits, each rounded down, up to the last nonzero one."""
    x2 = x * x >> w
    terms = [x]
    for j in count(2, 2):
        t = (terms[-1] * x2 >> w) // (j * (j + 1))
        if not t:
            return terms
        terms.append(t)


@lru_cache
def _ln2_half_pi(bits: int) -> tuple[int, int]:
    """ln 2 and pi/2 at ``bits`` fraction bits within one unit, as ``2 atanh(1/3)`` and ``8 atan(1/5) - 2 atan(1/239)``."""
    g = bits + 16
    return 2 * _arc(3, 1, g) >> 16, 8 * _arc(5, -1, g) - 2 * _arc(239, -1, g) >> 16


def _arc(m: int, sign: int, bits: int) -> int:
    """``atanh(1/m)`` (``sign`` 1) or ``atan(1/m)`` (``sign`` -1) at ``bits`` fraction bits, within one unit per term."""
    total, p, j = 0, (1 << bits) // m, 1  # p = m**-j
    while p:
        total += p // j if j % 4 == 1 or sign > 0 else -(p // j)
        p //= m * m
        j += 2
    return total


def _taylor(m: int, zr: int, zi: int, T: int, bits: int) -> tuple[int, int]:
    """Taylor series of ``I_m(z, T)`` in ``zT`` at ``bits`` fraction bits, summed until a term is below ``2**-bits``.

    The powers ``z**k / k!`` are rounded down.  For ``Re z > 0`` a part can
    settle at -1, a power that rounds to itself: its terms are rounding
    alone, and for ``T > 1`` they would grow without end, so the sum ends there too.
    """
    total_r = total_i = 0
    pr, pi = 1 << bits, 0  # z**k / k!
    Tp = _shift(T ** (m + 1), -m * bits)  # T**(m + k + 1)
    k = 0
    while True:
        c = Tp // (m + k + 1)
        tr, ti = pr * c, pi * c
        total_r += tr
        total_i += ti
        if abs(tr) + abs(ti) < 1 << bits:
            break
        k += 1
        last = pr, pi
        pr, pi = ((pr * zr - pi * zi) >> bits) // k, ((pr * zi + pi * zr) >> bits) // k
        if (pr, pi) == last and abs(pr) <= 1 and abs(pi) <= 1:
            break
        Tp = (Tp * T) >> bits
    return total_r >> bits, total_i >> bits


def _odd_parts(kernel: Kernel) -> tuple[int, list[tuple]]:
    """``(p, terms)``: a kernel's terms with the powers of two their double-born parts share divided out.

    ``p`` is shared by all the kernel's coefficient parts; each term becomes
    ``(cr, ci, ar, ai, t, rate, degree, er, ei)`` with the coefficient
    ``(cr + 1j * ci) * 2**p`` and the rate ``(ar + 1j * ai) * 2**t`` of the
    :class:`Kernel`'s integers, ``t`` at most ``bits``.
    """
    bits = kernel.bits
    p = _trailing_zeros(reduce(or_, (part for term in kernel.terms for part in term[:2]), 0), 0)
    terms = []
    for cr, ci, ar, ai, rate, degree, er, ei in kernel.terms:
        t = min(_trailing_zeros(ar | ai, bits), bits)
        terms.append((cr >> p, ci >> p, ar >> t, ai >> t, t, rate, degree, er, ei))
    return p, terms


def _trailing_zeros(n: int, zero: int) -> int:
    """The largest ``k`` with ``2**k`` dividing ``n``, and ``zero`` for ``n = 0``."""
    return (n & -n).bit_length() - 1 if n else zero


def _moment_gram(rows: list[Kernel], columns: list[Kernel], T: float, bits: int) -> tuple[list[list], list[list]]:
    """``integral_0^T k_r conj(k_s) dt`` of row kernels against column kernels.

    Kernels come as :func:`_kernel` made them at ``bits`` fraction bits; the
    entries come back as their real and their imaginary parts, two lists of
    lists of integers: entry ``[r][s]`` is ``(re + 1j * im)[r][s] *
    2**(rows[r].exp + columns[s].exp - bits)``.  When ``rows`` is
    ``columns`` the Gram is Hermitian: only the upper triangle is
    integrated, and the lower one mirrors it.

    A term pair with the rates ``a`` and ``b`` adds ``c_a conj(c_b)
    I_m(z, T)`` (see :mod:`~cnslab.kernels`) with ``z = a + conj(b)`` and
    ``m`` the sum of the degrees.  Rates and coefficients come from doubles,
    so their integers are short odd parts times powers of two
    (:func:`_odd_parts`); a pair works on the odd parts.  With ``z = Z
    2**s``, ``1/z`` enters ``I_m`` as ``conj(Z) / |Z|**2`` with the
    numerator shifted by ``bits - s``, one division per part and step, and
    ``floor(A 2**(bits+s) / (|Z|**2 2**(2s))) = floor(A 2**(bits-s) /
    |Z|**2)`` keeps every bit of the full-width division.
    ``e^{zT}`` is the product ``e^{aT} conj(e^{bT})``.  Pairs with ``|z| T <
    TAYLOR_RADIUS``, decided in double precision, take :func:`_taylor`.  The
    products of an entry are summed exactly and shifted once.
    """
    hermitian = rows is columns
    T_int = _fixed(T, bits)
    one = 1 << bits
    row_parts = list(map(_odd_parts, rows))
    column_parts = row_parts if hermitian else list(map(_odd_parts, columns))
    re = [[0] * len(columns) for _ in rows]
    im = [[0] * len(columns) for _ in rows]
    for i, (p_row, row) in enumerate(row_parts):
        for j in range(i if hermitian else 0, len(columns)):
            p_column, column = column_parts[j]
            sr = si = 0
            for car, cai, ar, ai, ta, a, da, ear, eai in row:
                for cbr, cbi, br, bi, tb, b, db, ebr, ebi in column:
                    m = da + db
                    if ta < tb:
                        s, zr, zi = ta, ar + (br << tb - ta), ai - (bi << tb - ta)
                    else:
                        s, zr, zi = tb, (ar << ta - tb) + br, (ai << ta - tb) - bi
                    if abs(a + b.conjugate()) * T < TAYLOR_RADIUS:
                        Ir, Ii = _taylor(m, zr << s, zi << s, T_int, bits)
                    else:
                        den, up = zr * zr + zi * zi, bits - s
                        er, ei = (ear * ebr + eai * ebi) >> bits, (eai * ebr - ear * ebi) >> bits
                        nr, ni = er - one, ei
                        Ir, Ii = ((nr * zr + ni * zi) << up) // den, ((ni * zr - nr * zi) << up) // den
                        if m:  # the chain degrees: I_k = (T**k e^{zT} - k I_{k-1}) / z
                            Tk = one
                            for k in range(1, m + 1):
                                Tk = (Tk * T_int) >> bits
                                nr, ni = ((Tk * er) >> bits) - k * Ir, ((Tk * ei) >> bits) - k * Ii
                                Ir, Ii = ((nr * zr + ni * zi) << up) // den, ((ni * zr - nr * zi) << up) // den
                    wr, wi = car * cbr + cai * cbi, cai * cbr - car * cbi
                    sr += wr * Ir - wi * Ii
                    si += wr * Ii + wi * Ir
            re[i][j], im[i][j] = _shift(sr, p_row + p_column - 2 * bits), _shift(si, p_row + p_column - 2 * bits)
            if hermitian and j != i:
                re[j][i], im[j][i] = re[i][j], -im[i][j]
    return re, im


def unit_gram(labels: list[str], kernels: list[list[KernelTerm]], T: float, dps: int) -> tuple[Gram, list[Kernel]]:
    """The Hermitian :class:`Gram` of ``kernels`` at a rung of ``dps`` digits, at a unit diagonal, and its columns.

    The columns carry :data:`_GUARD_BITS` and :func:`_range_bits` on top of
    :func:`_dps_bits` of ``dps``; ``labels`` name them in errors.  Row and
    column ``i`` are multiplied by the power of two ``2**s[i]`` that brings
    the diagonal entry into ``[1, 4)``, an exact shift that leaves
    Cholesky's rounding errors as they were relative to the diagonal.  The
    entries gain ``-2 * min(s)`` fraction bits, so every shift is to the left.
    """
    bits = _dps_bits(dps) + _GUARD_BITS + _range_bits(kernels, T)
    columns = [_kernel(label, kernel, T, bits) for label, kernel in zip(labels, kernels)]
    re, im = _moment_gram(columns, columns, T, bits)
    s = [(bits + 2 - re[i][i].bit_length()) // 2 if re[i][i] > 0 else 0 for i in range(len(re))]
    low = min(s, default=0)
    u = [v - low for v in s]
    re = [list(map(lshift, map(lshift, row, u), repeat(ui))) for row, ui in zip(re, u)]
    im = [list(map(lshift, map(lshift, row, u), repeat(ui))) for row, ui in zip(im, u)]
    return Gram(re, im, [c.exp - v for c, v in zip(columns, s)], bits - 2 * low, _row_sums(re, im)), columns


def float_gram(gram: Gram) -> np.ndarray:
    """The scaled Gram ``H`` in doubles: its entries lie below 4, so at 60 fraction bits they fit int64.

    Each part is rounded down to 60 bits.  The real parts are converted on
    the upper triangle only, and the lower one mirrors them; the imaginary
    parts are converted in full, because rounding down does not commute with
    their negation.
    """
    m = len(gram.re)
    k = 60 - gram.bits
    upper = np.array(_shift_all(list(chain.from_iterable(row[i:] for i, row in enumerate(gram.re))), k), dtype=np.int64)
    im = np.array(_shift_all(list(chain.from_iterable(gram.im)), k), dtype=np.int64).reshape(m, m)
    rows, cols = np.triu_indices(m)
    re = np.empty((m, m))
    re[rows, cols] = re[cols, rows] = upper
    return (re + 1j * im) * 2.0**-60


def factor(gram: Gram, dps: int) -> tuple | None:
    """``(bits, Lr, Li, d, Ls, Ur, Ui, Us)``: ``H = L L^H`` for the scaled ``H`` of ``gram`` at ``dps`` digits.

    ``L`` is at the ``bits`` of :func:`_dps_bits`, row by row as the real
    parts, the imaginary parts, the diagonal and the sums ``Lr + Li``;
    ``Ur``, ``Ui`` and ``Us`` are the same of the rows of ``L^H`` that the
    back substitution reads, the last first.  Each entry's inner product
    with an earlier row is three exact C-level ``sum(map(mul, ...))`` of
    integers (Gauss's complex product, with the earlier row's ``Lr - Li``
    kept from when it was finished), and the entry is rounded once, by its
    division.  Returns None at the first pivot that is not positive: ``H``
    is not numerically definite at this precision.
    """
    bits = _dps_bits(dps)
    Lr: list[list] = []
    Li: list[list] = []
    Ls: list[list] = []
    d: list = []
    # Lr - Li of the earlier rows: the real and imaginary parts of conj(L[j]) summed
    diffs: list[list] = []
    scale = 2 * bits - gram.bits  # the entries of H at 2 * bits fraction bits, like the products of L
    for i in range(len(gram.re)):
        gr = _shift_all(gram.re[i][: i + 1], scale)
        gi = _shift_all(gram.im[i][:i], scale)
        ri: list = []
        ii: list = []
        si: list = []
        for j in range(i):
            # L[i] . conj(L[j]) = (p + q) + 1j * ((ri + ii) . (Lr - Li) - p + q)
            p, q = sum(map(mul, ri, Lr[j])), sum(map(mul, ii, Li[j]))
            re = (gr[j] - p - q) // d[j]
            im = (gi[j] - sum(map(mul, si, diffs[j])) + p - q) // d[j]
            ri.append(re)
            ii.append(im)
            si.append(re + im)
        pivot = gr[i] - sum(map(mul, ri, ri)) - sum(map(mul, ii, ii))
        if pivot <= 0:
            return None
        d.append(math.isqrt(pivot))
        Lr.append(ri)
        Li.append(ii)
        Ls.append(si)
        diffs.append(list(map(sub, ri, ii)))
    # row i of L^H holds conj(L[k][i]) for k from the last row down to i + 1
    Ur = [[row[i] for row in Lr[:i:-1]] for i in reversed(range(len(d)))]
    Ui = [[-row[i] for row in Li[:i:-1]] for i in reversed(range(len(d)))]
    Us = [[row[i] for row in diffs[:i:-1]] for i in reversed(range(len(d)))]
    return bits, Lr, Li, d, Ls, Ur, Ui, Us


def forward(factor: tuple, b: ScaledVector) -> ScaledVector:
    """``y`` with ``L y = b`` for a :func:`factor`, each row exact to one unit of ``y``'s last place.

    ``b`` is first shifted ``shift`` bits, so that its largest part lies just
    below 1 and ``y`` carries the factor's bits relative to ``b``, at ``y.exp = b.exp - shift``.
    """
    bits, Lr, Li, d, Ls = factor[:5]
    shift = bits - max(v.bit_length() for v in b.re + b.im)
    yr, yi = _substitute(Lr, Li, Ls, d, _shift_all(b.re, shift + bits), _shift_all(b.im, shift + bits))
    return ScaledVector(yr, yi, b.exp - shift)


def _cholesky_solve(factor: tuple, b: ScaledVector) -> ScaledVector:
    """``x`` with ``L L^H x = b`` for a :func:`factor`: :func:`forward`, then ``L^H x = y`` from the last row up."""
    bits, _, _, d, _, Ur, Ui, Us = factor
    y = forward(factor, b)
    xr, xi = _substitute(Ur, Ui, Us, d[::-1], _shift_all(y.re[::-1], bits), _shift_all(y.im[::-1], bits))
    return ScaledVector(xr[::-1], xi[::-1], y.exp)


def _substitute(Lr: list[list], Li: list[list], Ls: list[list], d: list, br: list, bi: list) -> tuple[list, list]:
    """Forward substitution ``L y = b`` on integers: row ``i`` of ``L`` is ``Lr[i] + 1j * Li[i]`` left of ``d[i]``.

    ``Ls[i]`` is ``Lr[i] + Li[i]``: each row's product with ``y`` is three
    dot products, its imaginary part ``Ls . (yr + yi) - Lr . yr - Li . yi``.
    ``L`` and ``y`` share one count of fraction bits, and ``b`` has twice it.
    """
    yr: list = []
    yi: list = []
    ys: list = []
    for lr, li, ls, di, vr, vi in zip(Lr, Li, Ls, d, br, bi):
        p, q = sum(map(mul, lr, yr)), sum(map(mul, li, yi))
        yr.append((vr - p + q) // di)
        yi.append((vi - sum(map(mul, ls, ys)) + p + q) // di)
        ys.append(yr[-1] + yi[-1])
    return yr, yi


def _combine(op, a: ScaledVector, b: ScaledVector) -> ScaledVector:
    """``a + b`` (``op`` is ``add``) or ``a - b`` (``sub``), exactly, at the smaller of their two scales."""
    exp = min(a.exp, b.exp)
    parts = ((a.re, b.re), (a.im, b.im))
    return ScaledVector(*(list(map(op, _shift_all(p, a.exp - exp), _shift_all(q, b.exp - exp))) for p, q in parts), exp)


def _row_sums(re: list[list], im: list[list]) -> list[list]:
    """``re[i][j] + im[i][j]`` row by row: the third operand of :func:`_gram_times`."""
    return [list(map(add, g, h)) for g, h in zip(re, im)]


def _gram_times(re: list[list], im: list[list], sums: list[list], xr: list, xi: list) -> tuple[list, list]:
    """Real and imaginary parts of ``G x`` on integers, row by row, exactly.

    ``sums`` are the :func:`_row_sums` of ``G``; each row costs three dot
    products, its imaginary part ``sums . (xr + xi) - re . xr - im . xi``.
    """
    xs = list(map(add, xr, xi))
    p = [sum(map(mul, g, xr)) for g in re]
    q = [sum(map(mul, h, xi)) for h in im]
    return list(map(sub, p, q)), [sum(map(mul, g, xs)) - a - b for g, a, b in zip(sums, p, q)]


def _residual(gram: Gram, y: ScaledVector, b: ScaledVector) -> ScaledVector:
    """``b - H y`` for the scaled Gram ``H`` of ``gram``, exactly."""
    return _combine(sub, b, ScaledVector(*_gram_times(gram.re, gram.im, gram.sums, y.re, y.im), y.exp - gram.bits))


def _rescaled(v: ScaledVector, exps: list[int]) -> ScaledVector:
    """``v[k] * 2**exps[k]`` per entry, exactly, at one scale."""
    low = min(exps)
    shifts = [e - low for e in exps]
    return ScaledVector(list(map(lshift, v.re, shifts)), list(map(lshift, v.im, shifts)), v.exp + low)


def _norm(v: ScaledVector, shift: int) -> float:
    """Euclidean norm of ``v * 2**shift`` as a float."""
    return math.hypot(*(_float(p, v.exp + shift) for p in v.re + v.im))


def top_exponent(values: list[complex]) -> int:
    """The ``frexp`` exponent ``e`` of the largest part of ``values`` (0 for zeros); times ``2**-e`` none underflows."""
    return max((math.frexp(p)[1] for v in values for p in (v.real, v.imag) if p), default=0)


def _scaled_targets(targets: list[complex], exps: list[int], bits: int) -> ScaledVector:
    """The finite targets times ``2**-exps[k]``, each to ``bits`` bits below the largest of them."""
    top = max((math.frexp(p)[1] - e for v, e in zip(targets, exps) for p in (v.real, v.imag) if p), default=0)
    exp = top - bits
    re = [_fixed(v.real, -exp - e) for v, e in zip(targets, exps)]
    return ScaledVector(re, [_fixed(v.imag, -exp - e) for v, e in zip(targets, exps)], exp)


def solve(gram: Gram, factor: tuple, columns: list[Kernel], targets: list[complex], tol: float) -> tuple:
    """``(residual, x, sqrt(x^H G x), H y)`` of the Cholesky solve of ``G x = targets`` on a :func:`factor` of ``gram``.

    ``gram`` and ``columns`` come from :func:`unit_gram` at one rung.  ``H y = D b``
    (``H = D G D``) is substituted on the factor, and ``x = D y``.  Returns
    ``(residual, None, 0.0, None)`` when the relative moment residual exceeds
    ``tol``; otherwise ``x`` is refined once and ``H y``, exact, is that of the refined ``y``.
    """
    b = _scaled_targets(targets, gram.exps, columns[0].bits)
    # the relative residual is formed at the targets' scale, where a tiny datum's residual does not underflow
    shift = -top_exponent(targets)
    b_norm = math.hypot(*(math.ldexp(p, shift) for v in targets for p in (v.real, v.imag)))
    y = _cholesky_solve(factor, b)
    r = _residual(gram, y, b)
    # b - G x = D^-1 (D b - H y)
    residual = _norm(_rescaled(r, gram.exps), shift) / b_norm
    if residual > tol:
        return residual, None, 0.0, None
    # one step of refinement: the rung's arithmetic leaves an error of about
    # cond(H) 2**-bits in y at the factor's bits, the guard-bit residual and
    # Gram bring it to about cond(H) 2**-(bits + guard)
    dy = _cholesky_solve(factor, r)
    y = _combine(add, y, dy)
    # b - H (y + dy), at the same scale, from the short integers of dy
    r = _residual(gram, dy, r)
    # x^H G x = y^H H y with H y = D b - r
    hy = _combine(sub, b, r)
    energy = sum(map(mul, y.re, hy.re)) + sum(map(mul, y.im, hy.im))
    x = _rescaled(y, [-e for e in gram.exps])
    return _norm(_rescaled(r, gram.exps), shift) / b_norm, x, _sqrt_float(abs(energy), y.exp + hy.exp), hy


def terminal_pairings(free: list[complex], gram_rows: list[int | None], kernels: list[tuple[str, list[KernelTerm]]],
                      T: float, gram: Gram | None, columns: list[Kernel], x: ScaledVector,
                      hy: ScaledVector | None = None, shift: int = 0) -> list[complex]:
    """``(free[k] + G[r] x) * 2**shift`` per row, each summed exactly and rounded once.

    A row with a row ``g`` of the solve's Gram reads row ``g`` of ``G x``:
    ``hy`` (``H y`` of :func:`solve`, whose ``x`` this must be) scaled by
    ``2**exps[g]``, or, with None, the product formed here.  A row with
    None integrates the next ``(label, kernel)`` of ``kernels`` against the
    kept ``columns``.  With no Gram (no kept rows, the zero control) the
    pairings are ``free``.  A ``shift`` set by the targets keeps tiny pairings from underflowing.
    """
    if gram is None:
        return [complex(math.ldexp(f.real, shift), math.ldexp(f.imag, shift)) for f in free]
    bits = columns[0].bits
    fresh = [_kernel(label, kernel, T, bits) for label, kernel in kernels]
    if hy is None:
        y = _rescaled(x, gram.exps)
        hy = ScaledVector(*_gram_times(gram.re, gram.im, gram.sums, y.re, y.im), y.exp - gram.bits)
    # x times the column scales of the cross rows integrated here
    fresh_x = _rescaled(x, [column.exp for column in columns])
    cross = _moment_gram(fresh, columns, T, bits)
    fresh_rows = zip(
        *_gram_times(*cross, _row_sums(*cross), fresh_x.re, fresh_x.im),
        [kernel.exp - bits + fresh_x.exp for kernel in fresh],
    )
    out = []
    for f, g in zip(free, gram_rows):
        fr, fi, exp = next(fresh_rows) if g is None else (hy.re[g], hy.im[g], gram.exps[g] + hy.exp)
        re, im = _fixed(f.real, -exp) + fr, _fixed(f.imag, -exp) + fi
        out.append(complex(_float(re, exp + shift), _float(im, exp + shift)))
    return out


def evaluate(x: ScaledVector, columns: list[Kernel], T: float, times: list[float]) -> list[complex]:
    """``p(t) = sum_j x_j conj(k_j(t))`` at finite ``times``: the exact sums of :func:`_weighted_walk`, rounded once.

    With ``w_j = x_j conj(coef_j)``, the step factors of the walk round to a
    few units of ``2**-bits`` per step and term, so after ``k`` steps a
    point is within about ``k 2**-bits sum_j |w_j| s**degree_j`` of the
    exact ``p`` (``s = T - t``), as when the walk carried unit exponentials
    that ``w`` multiplied per point.  Carrying ``w e^{conj(rate) s}`` at
    ``bits + _GUARD_BITS`` fraction bits below ``max|w|`` adds at most ``k + 1``
    units of ``2**-(bits + _GUARD_BITS) max|w|`` per term.  For decaying
    rates every factor has modulus at most 1, so no step amplifies an
    earlier rounding.
    """
    out = [0j] * len(times)
    for i, re, im, exp in _weighted_walk(x, columns, T, times):
        out[i] = complex(_float(re, exp), _float(im, exp))
    return out


def _weighted_walk(x: ScaledVector, columns: list[Kernel], T: float, times: list[float]) -> Iterator:
    """``(i, re, im, exp)``: ``p(times[i]) = (re + 1j * im) * 2**exp`` for every ``i``, in increasing ``T - times[i]``.

    Each term of ``p`` is ``w (T-t)**degree e^{conj(rate) (T-t)}`` with
    ``w = x conj(coef)``, an exact integer product.  The walk carries
    ``v = w e^{conj(rate) s}`` at ``bits + _GUARD_BITS`` fraction bits below
    ``max|w|`` and steps it by the factors of :func:`_walk`, so a point is
    two plain sums of ``v``; only the chain terms take their ``s**degree``,
    at ``bits`` fraction bits.
    """
    live = [(a, b, column) for a, b, column in zip(x.re, x.im, columns) if a or b]
    if not live:
        return
    bits = live[0][2].bits
    low = min(column.exp for _, _, column in live)
    # plain terms first: a point sums them as they are and multiplies the chain terms after them by s**degree
    terms = sorted(
        ((a * cr + b * ci << k, b * cr - a * ci << k, rate.conjugate(), ar, -ai, degree)
         for a, b, column in live
         for k in (column.exp - low,)
         for cr, ci, ar, ai, rate, degree, _, _ in column.terms),
        key=lambda term: term[-1],
    )
    wr, wi, rates, rate_re, rate_im, degrees = (list(v) for v in zip(*terms))
    plain = degrees.count(0)
    shift = bits + _GUARD_BITS - max(v.bit_length() for v in wr + wi)
    exp = x.exp + low - 2 * bits - shift  # of v times s**degree at bits fraction bits
    T_int = _fixed(T, bits)
    s_all = [T_int - _fixed(ti, bits) for ti in times]
    walk = _walk(_shift_all(wr, shift), _shift_all(wi, shift), rates, (rate_re, rate_im), s_all, bits)
    for i, vr, vi in walk:
        powers = [_shift(s_all[i] ** d, (1 - d) * bits) for d in degrees[plain:]]  # s**d at bits fraction bits
        yield (
            i,
            (sum(vr[:plain]) << bits) + sum(map(mul, vr[plain:], powers)),
            (sum(vi[:plain]) << bits) + sum(map(mul, vi[plain:], powers)),
            exp,
        )


def _walk(vr: list, vi: list, rates: list[complex], rate_ints: tuple[list, list], s_all: list[int],
          bits: int) -> Iterator:
    """``(i, re, im)`` of ``v e^{rate s_all[i]}`` per term, for every ``i`` in increasing ``s_all[i]``.

    ``v`` comes as integer parts at any one scale, which the walk keeps;
    rates come as complexes and as integers ``rate_ints`` (real parts,
    imaginary parts), ``s_all`` and the step factors at ``bits`` fraction
    bits.  The walk starts at ``s = 0`` and carries the products from
    point to point by the step factors ``e^{rate h}``, computed once per
    distinct step ``h``.  The steps of a uniform float grid differ only in
    their last bits, so one exponential per rate is taken, at the first step
    ``h0``, and a step within :data:`_STEP_SERIES_RADIUS` of it gets its
    factors as ``e^{rate h0}`` times the short Taylor series of
    ``e^{rate (h - h0)}``.  Any other step takes its own exponentials and
    becomes the new ``h0``, so scattered points go through the same
    recurrence.
    """
    rate_max = max(map(abs, rates))
    s_prev = 0
    steps: dict = {}
    base = None  # (h0, factors of h0) of the last step that took exponentials
    for i in sorted(range(len(s_all)), key=s_all.__getitem__):
        h = s_all[i] - s_prev
        if h:
            factors = steps.get(h)
            if factors is None:
                if base is not None and rate_max * abs(_float(h - base[0], -bits)) <= _STEP_SERIES_RADIUS:
                    factors = _shifted_factors(base[1], rate_ints, h - base[0], bits)
                else:
                    exps = [_exp(rate, h, -bits, bits) for rate in rates]
                    factors = [e[0] for e in exps], [e[1] for e in exps]
                    base = (h, factors)
                steps[h] = factors
            vr, vi = _complex_products(vr, vi, *factors, bits)
            s_prev = s_all[i]
        yield i, vr, vi


def _shifted_factors(factors: tuple[list, list], rates: tuple[list, list], d: int, bits: int) -> tuple[list, list]:
    """``f * e^{rate d}`` per rate, for the factors ``f`` of a step and a small shift ``d`` of it.

    Factors, the real and imaginary parts of the rates and ``d`` are integers
    at ``bits`` fraction bits.  ``e^{rate d}`` is its Taylor series, summed
    rate by rate on plain integers; with ``|rate d|`` at most
    :data:`_STEP_SERIES_RADIUS` every term is smaller than the last and the
    sum is near 1, so a few terms suffice and nothing cancels.  A rate's
    series runs until a term is at most one unit of ``2**-bits`` in both
    parts; its terms never grow back from there.  The first sweep finds the
    most terms any rate takes, and the second runs every rate on to that
    count, whose rounded-down terms may still add units of ``-1``.
    """
    one = 1 << bits
    runs = [(one, 0, one, 0, ar * d >> bits, ai * d >> bits, 0) for ar, ai in zip(*rates)]  # sum, term, w, k
    most = 0
    for _ in range(2):
        for i, (sr, si, tr, ti, wr, wi, k) in enumerate(runs):
            while k < most or abs(tr) > 1 or abs(ti) > 1:
                k += 1
                tr, ti = ((tr * wr - ti * wi) >> bits) // k, ((tr * wi + ti * wr) >> bits) // k
                sr += tr
                si += ti
            runs[i] = sr, si, tr, ti, wr, wi, k
            most = max(most, k)
    return _complex_products(*factors, [run[0] for run in runs], [run[1] for run in runs], bits)


def _complex_products(ar: list, ai: list, br: list, bi: list, bits: int) -> tuple[list, list]:
    """Real and imaginary parts of ``a[k] * b[k]`` for integers at ``bits`` fraction bits, at ``bits`` again."""
    return (
        list(map(rshift, map(sub, map(mul, ar, br), map(mul, ai, bi)), repeat(bits))),
        list(map(rshift, map(add, map(mul, ar, bi), map(mul, ai, br)), repeat(bits))),
    )
