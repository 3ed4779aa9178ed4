"""Scaled-integer arithmetic of the moment method: Gram, Cholesky, pairings and exponentials.

A number is a Python integer with an explicit power-of-two scale,
``n * 2**e``, in fixed point at ``bits`` fraction bits within one kernel,
Gram or vector, with real and imaginary parts in separate lists.  An inner
product is an exact C-level ``sum(map(mul, ...))`` of integers per pair of
parts that are not all zero, shifted once.  The rates and coefficients of a kernel
come from doubles, so their integers are short odd parts times powers of
two, formed once per kernel (``Kernel.odd``); the moment Gram pairs the
odd parts and shifts the powers back once, exactly (:func:`_moment_gram`).
The exponentials are integers too (:func:`_exp`): ``e^{rate T}`` of the
kernel terms, paired by products, and the step factors of the control
evaluation (:mod:`~cnslab.walk`).  The systems have real coefficients, so
the kernels of modes ``n`` and ``-n`` are conjugates: :func:`_exp` gives a
rate's conjugate the conjugate integers, one exponential serves both
(:func:`_exps`), and a Gram entry whose kernels are the conjugates of an
entry's already formed is that entry's conjugate (:func:`partners`, found
once per Gram and kept on it).  So the Gram is conjugate-persymmetric
integer for integer, and :func:`real_form` turns it, by exact additions
in one pass over the lead row of each pair, into a matrix whose rows of
conjugate pairs and real kernels are real: the Cholesky (:func:`factor`),
the substitutions and the residual take one real product per entry
there, and Gauss's three-product complex multiplication only on the rows
of kernels without a partner.  The powers of two that bring the Gram and
its real form to a unit diagonal are never applied to their integers:
they are kept as shifts and folded into the shift that :func:`factor`
makes of each entry anyway and into the vectors of the products, which
gives the integers of the scaled matrices exactly.  The coefficients of
a real datum come back as exact conjugates, so the control evaluation
walks one term per conjugate pair and the verification forms one cross
product per pair of rows.  The argument of an exponential is formed
exactly from the double rate and the float horizon or integer step,
reduced by ln 2 and pi/2, and summed as two short real series; ln 2 and
pi/2 come from integer series once per precision.  Kernels come in as
lists of :class:`~cnslab.kernels.KernelTerm`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import lru_cache, reduce
from itertools import chain, count, repeat
from operator import add, lshift, mul, or_, rshift, sub
from typing import NamedTuple

import numpy as np

from .errors import ArithmeticFailure
from .kernels import TAYLOR_RADIUS, KernelTerm

#: extra bits (ten digits) of the Gram, its exponentials and the residual that refines the solution
_GUARD_BITS = 34
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
    below 1 in modulus.  ``odd`` is :func:`_odd_parts` of the terms, which
    the pair integrals read.
    """

    exp: int
    bits: int
    terms: list[tuple]
    odd: tuple


class Gram(NamedTuple):
    """A Hermitian moment Gram as its pair integrals leave it, with the powers of two of its unit diagonal.

    ``G[i][j] = (re + 1j * im)[i][j] * 2**(exps[i] + exps[j] + shifts[i] +
    shifts[j] - bits)``.  The scaled Gram ``H = D G D``, ``D =
    diag(2**-exps)``, has the entries ``(re + 1j * im)[i][j] * 2**(shifts[i]
    + shifts[j] - bits)``, and ``H[i][i]`` lies in ``[1, 4)``: the shifts,
    all at least 0, are exact and are applied where an entry is read, never
    to the matrix.  ``mates`` are the :func:`partners` of the columns.
    """

    re: list[list[int]]
    im: list[list[int]]
    exps: list[int]
    bits: int
    shifts: list[int]
    mates: list[int | None]


def _shift(n: int, k: int) -> int:
    """``n * 2**k``, rounded down when ``k < 0``."""
    return n << k if k >= 0 else n >> -k


def _shift_all(values: list[int], k: int) -> list[int]:
    """:func:`_shift` of every value by ``k``."""
    return list(map(lshift, values, repeat(k))) if k >= 0 else list(map(rshift, values, repeat(-k)))


def _fixed(x: float, bits: int) -> int:
    """``x * 2**bits`` rounded toward zero, for a finite float ``x``, so that ``_fixed(-x) = -_fixed(x)``."""
    n, d = x.as_integer_ratio()
    return _shift(n, bits) // d if n >= 0 else -(_shift(-n, bits) // d)


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
    :func:`_kernels`.
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


def _kernels(labelled: Iterable[tuple[str, list[KernelTerm]]], T: float, bits: int) -> list[Kernel]:
    """The terms of each ``(label, kernel)`` as integers at ``bits`` fraction bits (see :class:`Kernel`).

    The exponentials ``e^{rate T}``, formed exactly from the double rates and
    the float ``T``, come from one :func:`_exps` over all the kernels' terms:
    one integer exponential per distinct rate up to conjugation.  Non-finite
    coefficients and rates are refused here, where they would enter the
    integer arithmetic, in the order of the kernels.
    """
    parts = []
    for label, kernel in labelled:
        coefs = [complex(t.coef) for t in kernel]
        rates = [complex(t.rate) for t in kernel]
        require_finite(label, "kernel coefficient", coefs)
        require_finite(label, "kernel rate", rates)
        parts.append((coefs, rates, [t.degree for t in kernel]))
    exps = zip(*_exps([rate for _, rates, _ in parts for rate in rates], *_ratio(T), bits))
    out = []
    for coefs, rates, degrees in parts:
        exp = max((math.frexp(v)[1] for c in coefs for v in (c.real, c.imag)), default=0)
        terms = [(_fixed(c.real, bits - exp), _fixed(c.imag, bits - exp), _fixed(rate.real, bits),
                  _fixed(rate.imag, bits), rate, degree, *next(exps)) for c, rate, degree in zip(coefs, rates, degrees)]
        out.append(Kernel(exp, bits, terms, _odd_parts(terms, bits)))
    return out


def _exps(rates: list[complex], n: int, e: int, bits: int) -> tuple[list[int], list[int]]:
    """The parts of :func:`_exp` of ``rate * n * 2**e`` per rate, one call per distinct rate up to conjugation.

    A rate and its conjugate share the call through a dict local to this
    one: a rate with a negative imaginary part reads its conjugate's
    integers with the imaginary part negated, which is what :func:`_exp`
    itself returns for it.
    """
    table: dict = {}
    re, im = [], []
    for rate in rates:
        key = complex(rate.real, abs(rate.imag))
        if key not in table:
            table[key] = _exp(key, n, e, bits)
        a, b = table[key]
        re.append(a)
        im.append(b if rate.imag >= 0 else -b)
    return re, im


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
    A rate with a negative imaginary part takes the integers of its
    conjugate with the imaginary part negated, so ``_exp(conj(rate))`` is
    ``conj(_exp(rate))`` integer for integer.
    """
    if rate.imag < 0:
        re, im = _exp(rate.conjugate(), n, e, bits)
        return re, -im
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
    """``I_m(z, T) = T**(m+1) sum_k w**k / (k! (m+k+1))``, ``w = zT``, for ``z`` and ``T`` at ``bits`` fraction bits.

    The series runs in ``w``, its powers ``w**k / k!`` rounded down, at
    ``g`` fraction bits: ``bits``, the bits of ``T**(m+1)`` above 1 and 8
    for the rounding of the terms (``|w|`` is below
    :data:`~cnslab.kernels.TAYLOR_RADIUS`, so a few dozen terms reach one
    unit).  So the sum times the exact ``T**(m+1)`` is within about one unit
    of ``2**-bits``, at every ``T``.  A term at most one unit in both parts
    ends the sum: from there on the powers are rounding alone (for ``Re w >
    0`` a part can settle at -1).
    """
    Tm = T ** (m + 1)  # at (m + 1) * bits fraction bits, exactly
    g = bits + max(Tm.bit_length() - (m + 1) * bits, 0) + 8
    wr, wi = _shift(zr * T, g - 2 * bits), _shift(zi * T, g - 2 * bits)
    pr, pi = 1 << g, 0
    sr, si, k = pr // (m + 1), 0, 0
    while abs(pr) > 1 or abs(pi) > 1:
        k += 1
        pr, pi = ((pr * wr - pi * wi) >> g) // k, ((pr * wi + pi * wr) >> g) // k
        sr += pr // (m + k + 1)
        si += pi // (m + k + 1)
    return _shift(sr * Tm, -g - m * bits), _shift(si * Tm, -g - m * bits)


def _odd_parts(kernel_terms: list[tuple], bits: int) -> tuple[int, list[tuple]]:
    """``(p, terms)``: a kernel's terms with the powers of two their double-born parts share divided out.

    ``p`` is shared by all the kernel's coefficient parts; each term becomes
    ``(cr, ci, ar, ai, t, rate, degree, er, ei)`` with the coefficient
    ``(cr + 1j * ci) * 2**p`` and the rate ``(ar + 1j * ai) * 2**t`` of the
    :class:`Kernel`'s integers, ``t`` at most ``bits``.
    """
    p = _trailing_zeros(reduce(or_, (part for term in kernel_terms for part in term[:2]), 0), 0)
    terms = []
    for cr, ci, ar, ai, rate, degree, er, ei in kernel_terms:
        t = min(_trailing_zeros(ar | ai, bits), bits)
        terms.append((cr >> p, ci >> p, ar >> t, ai >> t, t, rate, degree, er, ei))
    return p, terms


def _trailing_zeros(n: int, zero: int) -> int:
    """The largest ``k`` with ``2**k`` dividing ``n``, and ``zero`` for ``n = 0``."""
    return (n & -n).bit_length() - 1 if n else zero


def partners(kernels: list[Kernel]) -> list[int | None]:
    """Per kernel, the index of the kernel whose terms are its conjugate's, integer for integer, or None.

    A kernel's key is its ``exp`` and its terms; its conjugate key negates
    the imaginary parts of each term's coefficient, rate and ``e^{rate T}``
    and conjugates the double rate, on which the Taylor branch is decided.
    The partner is the first kernel of the conjugate key, for the first
    kernel of a key (a real kernel is its own partner).
    """
    first: dict = {}
    for i, kernel in enumerate(kernels):
        first.setdefault((kernel.exp, *kernel.terms), i)
    return [p if p is not None and first[(k.exp, *k.terms)] == i else None
            for i, k in enumerate(kernels)
            for p in (first.get((k.exp, *((cr, -ci, ar, -ai, rate.conjugate(), degree, er, -ei)
                                          for cr, ci, ar, ai, rate, degree, er, ei in k.terms))),)]


def _paired(mates: list[int | None], x: ScaledVector) -> list[int | None]:
    """The :func:`partners` ``mates`` that hold where the coefficient ``x`` of the partner is the kernel's conjugate."""
    return [p if p is not None and (x.re[p], x.im[p]) == (x.re[i], -x.im[i]) else None for i, p in enumerate(mates)]


def _moment_gram(rows: list[Kernel], columns: list[Kernel], T: float, bits: int, row_mates: list[int | None],
                 column_mates: list[int | None]) -> tuple[list[list], list[list]]:
    """``integral_0^T k_r conj(k_s) dt`` of row kernels against column kernels.

    Kernels come as :func:`_kernels` made them at ``bits`` fraction bits; the
    entries come back as their real and their imaginary parts, two lists of
    lists of integers: entry ``[r][s]`` is ``(re + 1j * im)[r][s] *
    2**(rows[r].exp + columns[s].exp - bits)``.  When ``rows`` is
    ``columns`` the Gram is Hermitian: only the upper triangle is
    integrated, and the lower one mirrors it.  An entry whose row and column
    are, integer for integer, the conjugates of those of an entry already
    formed (the :func:`partners` ``row_mates`` and ``column_mates``) is
    that entry's conjugate, as the integral is.  Integrating it would floor
    the negated operands, whose floors may lie a unit below the negated
    floors, so the two differ by those units as the pair integrals carry
    them (2 units of ``2**-bits`` per part at most on the workhorse Gram of
    ``N = 8``, ``T = 8``); kernels without a partner are integrated.

    A term pair with the rates ``a`` and ``b`` adds ``c_a conj(c_b)
    I_m(z, T)`` (see :mod:`~cnslab.kernels`) with ``z = a + conj(b)`` and
    ``m`` the sum of the degrees.  Rates and coefficients come from doubles,
    so their integers are short odd parts times powers of two
    (``Kernel.odd``); a pair works on the odd parts.  With ``z = Z
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
    re = [[None] * len(columns) for _ in rows]
    im = [[None] * len(columns) for _ in rows]
    for i, (p_row, row) in enumerate(kernel.odd for kernel in rows):
        for j in range(i if hermitian else 0, len(columns)):
            ci, cj = row_mates[i], column_mates[j]
            if ci is not None and cj is not None and re[ci][cj] is not None:
                re[i][j], im[i][j] = re[ci][cj], -im[ci][cj]
            else:
                p_column, column = columns[j].odd
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
                shift = p_row + p_column - 2 * bits
                re[i][j], im[i][j] = (sr << shift, si << shift) if shift >= 0 else (sr >> -shift, si >> -shift)
            if hermitian and j != i:
                re[j][i], im[j][i] = re[i][j], -im[i][j]
    return re, im


def unit_gram(labels: list[str], kernels: list[list[KernelTerm]], T: float, dps: int) -> tuple[Gram, list[Kernel]]:
    """The Hermitian :class:`Gram` of ``kernels`` at a rung of ``dps`` digits, and its columns.

    The columns carry :data:`_GUARD_BITS` and :func:`_range_bits` on top of
    :func:`_dps_bits` of ``dps``; ``labels`` name them in errors.  The
    diagonal, ``integral |k|**2``, is real: the imaginary parts that the pair
    loop's roundings leave there are set to 0, so that the Gram is exactly
    Hermitian.  ``s[i] = (bits + 2 - re[i][i].bit_length()) // 2`` brings
    entry ``i`` of the diagonal into ``[1, 4)``; the Gram keeps the pair
    integrals and takes ``s - min(s)`` as its shifts and ``bits - 2 min(s)``
    as its bits, so every shift is to the left.
    """
    bits = _dps_bits(dps) + _GUARD_BITS + _range_bits(kernels, T)
    columns = _kernels(zip(labels, kernels), T, bits)
    mates = partners(columns)
    re, im = _moment_gram(columns, columns, T, bits, mates, mates)
    for i, row in enumerate(im):
        row[i] = 0
    s = _diagonal_exponents(re, bits)
    low = min(s, default=0)
    return Gram(re, im, [c.exp - v for c, v in zip(columns, s)], bits - 2 * low, [v - low for v in s], mates), columns


def _diagonal_exponents(re: list[list], bits: int) -> list[int]:
    """Per row ``i``, the ``s`` with ``re[i][i] * 2**(2 s - bits)`` in ``[1, 4)``, or 0 for a diagonal not above 0."""
    return [(bits + 2 - row[i].bit_length()) // 2 if row[i] > 0 else 0 for i, row in enumerate(re)]


def _shift_by(values: list[int], shifts: list[int], k: int) -> list[int]:
    """``values[j] * 2**(shifts[j] + k)`` rounded down, for ``shifts`` at least 0: one left shift per value for
    ``k >= 0``, and otherwise the exact left shifts by ``shifts[j]`` before the right shift by ``-k``."""
    if k >= 0:
        return list(map(lshift, values, map(add, shifts, repeat(k))))
    return list(map(rshift, map(lshift, values, shifts), repeat(-k)))


class RealForm(NamedTuple):
    """``M = E S^H H S E`` for the scaled ``H`` of a :class:`Gram`: the moment system in real coordinates.

    A pair ``(j, p)`` of :func:`partners` in ``groups`` gives the columns
    ``e_j + e_p`` and ``1j * (e_j - e_p)`` of ``S``, a single ``(j, j)`` the
    column ``e_j``: pairs first, then the kernels that are their own
    partners, then those without one.  ``H[p][q] = conj(H[j][k])`` integer
    for integer when ``(j, p)`` and ``(k, q)`` are partners, so the first
    ``real`` rows and columns of ``M`` are real; the unpaired rows come
    last.  ``re`` and ``im`` hold ``S^H R S`` for the pair integrals ``R``
    of the Gram, and ``M[a][b] = (re + 1j * im)[a][b] * 2**(shifts[a] +
    shifts[b] - bits)``: the shifts, at least 0, fold the Gram's own into
    those of ``E = diag(2**exps)``, which brings the diagonal into ``[1,
    4)``, and :func:`factor` and the residual apply them.  ``im[a]`` holds
    the last ``len(im[a])`` imaginary parts of row ``a``, the others being
    0: those of the unpaired columns on a real row, all of them on an
    unpaired row.  Only additions form ``re`` and ``im``, so ``M`` is
    exactly the congruence of ``H``.
    """

    re: list[list[int]]
    im: list[list[int]]
    exps: list[int]
    bits: int
    shifts: list[int]
    real: int
    groups: list[tuple]


def real_form(gram: Gram) -> RealForm:
    """The :class:`RealForm` of ``gram``, each row from the lead row of its group.

    For a pair ``(j, p)``, a column pair ``(k, q)``, ``a = R[j][k]`` and
    ``b = R[j][q]``, the block of ``S^H R S`` is ``[[2 Re(a + b), 2 Im(b -
    a)], [2 Im(a + b), 2 Re(a - b)]]``, and a real kernel's column ``k``
    gives ``2 Re a`` and ``2 Im a``: there the rows of ``p`` are the
    conjugates of ``j``'s, integer for integer.  On the column of a kernel
    without a partner they are not, and row ``p`` is read too.  A single
    row ``j`` is ``R[j] S``: ``a + b`` and ``1j * (a - b)`` per column pair.
    """
    mates = gram.mates
    # pairs, then the real kernels, then the unpaired ones, each in the order of the kernels
    groups = sorted(((j, j if p is None else p) for j, p in enumerate(mates) if p is None or p >= j),
                    key=lambda g: (g[0] == g[1]) + (mates[g[0]] is None))
    n, real = len(mates) - len(groups), len(mates) - mates.count(None)
    # the leads of the pairs, their partners, then the single kernels: the unpaired ones last
    order = [j for j, _ in groups[:n]] + [k for _, k in groups]
    re, im = [], []
    for j, k in groups:
        (ar, br, hr), (ai, bi, hi) = ((v[:n], v[n:2 * n], v[2 * n:]) for row in (gram.re[j], gram.im[j])
                                      for v in (list(map(row.__getitem__, order)),))
        row_re = list(chain.from_iterable(zip(map(add, ar, br), map(sub, bi, ai)))) + hr
        row_im = list(chain.from_iterable(zip(map(add, ai, bi), map(sub, ar, br)))) + hi
        if k == j:
            re.append(row_re)
            im.append(row_im if mates[j] is None else row_im[real:])
        else:
            pr, pi = (list(map(row.__getitem__, order[real:])) for row in (gram.re[k], gram.im[k]))
            re += [_shift_all(row_re[:real], 1) + list(map(add, row_re[real:], pr)),
                   _shift_all(row_im[:real], 1) + list(map(sub, row_im[real:], pi))]
            im += [list(map(add, row_im[real:], pi)), list(map(sub, pr, row_re[real:]))]
    # the shifts that bring each diagonal entry of M into [1, 4), as two steps would: the Gram's, then M's own
    u = [gram.shifts[j] for j, k in groups for _ in range(1 + (k != j))]
    s = [v - w if row[a] > 0 else 0 for a, (row, v, w) in enumerate(zip(re, _diagonal_exponents(re, gram.bits), u))]
    low = min(s, default=0)
    return RealForm(re, im, s, gram.bits - 2 * low, [w + v - low for v, w in zip(s, u)], real, groups)


def _from_form(form: RealForm, w: ScaledVector, inverse: bool = False) -> ScaledVector:
    """``S E w``, or with ``inverse`` ``S^-H E^-1 w``, exactly: ``S^-H`` is ``S / 2`` on a pair and 1 on a single."""
    v = _rescaled(w, [-e for e in form.exps] if inverse else form.exps)
    parts = zip(v.re, v.im)
    re, im = [0] * len(v.re), [0] * len(v.re)
    for j, k in form.groups:
        ar, ai = next(parts)
        if k != j:
            br, bi = next(parts)
            re[j], im[j], re[k], im[k] = ar - bi, ai + br, ar + bi, ai - br
        else:
            re[j], im[j] = ar << inverse, ai << inverse
    return ScaledVector(re, im, v.exp - inverse)


def _to_form(form: RealForm, b: ScaledVector) -> ScaledVector:
    """``E S^H b``, exactly: a pair ``(j, p)`` gives ``b[j] + b[p]`` and ``-1j * (b[j] - b[p])``."""
    re, im = [], []
    for j, k in form.groups:
        re += [b.re[j] + b.re[k], b.im[j] - b.im[k]] if k != j else [b.re[j]]
        im += [b.im[j] + b.im[k], b.re[k] - b.re[j]] if k != j else [b.im[j]]
    return _rescaled(ScaledVector(re, im, b.exp), form.exps)


def _times(re: list[list], im: list[list], x: ScaledVector) -> tuple[list, list]:
    """Real and imaginary parts of ``A x`` on integers, row by row, exactly, for the rows ``re + 1j * im`` of ``A``.

    A row of ``im`` may hold only its last parts, the others being 0 (see
    :class:`RealForm`).  An entry takes one dot product per part of it and
    of ``x`` that is not all zero: a real row against a real ``x`` takes one.
    """
    xr, m = x.re, len(x.re)
    imag = [sum(map(mul, h, xr[m - len(h):])) if h else 0 for h in im]
    if not any(x.im):
        return [sum(map(mul, g, xr)) for g in re], imag
    xi = x.im
    return ([sum(map(mul, g, xr)) - sum(map(mul, h, xi[m - len(h):])) for g, h in zip(re, im)],
            [sum(map(mul, g, xi)) + v for g, v in zip(re, imag)])


def _scaled_times(a: Gram | RealForm, v: ScaledVector) -> ScaledVector:
    """``A v`` exactly, for the scaled matrix ``A`` of a :class:`Gram` or :class:`RealForm`: ``v`` and rows shifted."""
    shifts = a.shifts
    pr, pi = _times(a.re, a.im, ScaledVector(*(list(map(lshift, p, shifts)) for p in (v.re, v.im)), v.exp))
    return ScaledVector(list(map(lshift, pr, shifts)), list(map(lshift, pi, shifts)), v.exp - a.bits)


def float_gram(gram: Gram) -> np.ndarray:
    """The scaled Gram ``H`` in doubles: its entries lie below 4, so at 60 fraction bits they fit int64.

    Each part is shifted to 60 bits once, its row's and column's shifts
    included, and so rounded down once.  The real parts are converted on
    the upper triangle only, and the lower one mirrors them; the imaginary
    parts are converted in full, because rounding down does not commute with
    their negation.
    """
    m, u, k = len(gram.re), gram.shifts, gram.bits - 60
    # entry (i, j) comes to 60 fraction bits by a right shift of k - u[i] - u[j], not negative unless a shift
    # exceeds k / 2
    shift = rshift if 2 * max(u, default=0) <= k else lambda n, c: _shift(n, -c)
    upper = list(map(shift, chain.from_iterable(row[i:] for i, row in enumerate(gram.re)),
                     chain.from_iterable(map(sub, repeat(k - v), u[i:]) for i, v in enumerate(u))))
    im = list(map(shift, chain.from_iterable(gram.im), chain.from_iterable(map(sub, repeat(k - v), u) for v in u)))
    rows, cols = np.triu_indices(m)
    re = np.empty((m, m))
    re[rows, cols] = re[cols, rows] = np.array(upper, dtype=np.int64)
    return (re + 1j * np.array(im, dtype=np.int64).reshape(m, m)) * 2.0**-60


def factor(form: RealForm, dps: int) -> tuple | None:
    """``(bits, Lr, Li, d, Ur, Ui)``: ``M = L L^H`` for the :class:`RealForm` ``M`` at ``dps`` digits.

    ``L`` is at the ``bits`` of :func:`_dps_bits`, row by row as the real
    parts, the imaginary parts and the diagonal; ``Ur`` and ``Ui`` are the
    same of the rows of ``L^H`` that the back substitution reads, the last
    first.  Each entry of ``M`` is brought to ``2 * bits`` fraction bits,
    like the products of ``L``, by one shift that includes the form's
    shifts.  The first ``form.real`` rows of ``L`` are real: their imaginary
    parts are empty lists, and an entry's inner product with an earlier row
    is one exact C-level ``sum(map(mul, ...))`` of integers.  An unpaired row's entry takes two
    against a real row and three against an unpaired one (Gauss's complex
    product, with the earlier row's ``Lr - Li`` kept from when it was
    finished); so a row of ``Ui`` holds the parts of the unpaired rows, which
    come first in it, and no more.  Each entry is rounded once, by its
    division.  Returns None at the first pivot that is not positive: ``M``
    is not numerically definite at this precision.
    """
    bits = _dps_bits(dps)
    Lr: list[list] = []
    Li: list[list] = []
    d: list = []
    # Lr - Li of the earlier rows: the real and imaginary parts of conj(L[j]) summed
    diffs: list[list] = []
    scale = 2 * bits - form.bits
    for i, (row_re, row_im, shift) in enumerate(zip(form.re, form.im, form.shifts)):
        gr = _shift_by(row_re[: i + 1], form.shifts, shift + scale)
        ri: list = []
        ii: list = []
        if i < form.real:
            for j in range(i):
                ri.append((gr[j] - sum(map(mul, ri, Lr[j]))) // d[j])
        else:
            gi = _shift_by(row_im[:i], form.shifts, shift + scale)
            si: list = []
            for j in range(i):
                # L[i] . conj(L[j]) = (p + q) + 1j * ((ri + ii) . (Lr - Li) - p + q)
                p, q = sum(map(mul, ri, Lr[j])), sum(map(mul, ii, Li[j]))
                re, im = (gr[j] - p - q) // d[j], (gi[j] - sum(map(mul, si, diffs[j])) + p - q) // d[j]
                ri.append(re)
                ii.append(im)
                si.append(re + im)
        pivot = gr[i] - sum(map(mul, ri, ri)) - sum(map(mul, ii, ii))
        if pivot <= 0:
            return None
        d.append(math.isqrt(pivot))
        Lr.append(ri)
        Li.append(ii)
        diffs.append(list(map(sub, ri, ii)) if ii else ri)
    # row i of L^H holds conj(L[k][i]) for k from the last row down to i + 1
    Ur = [[row[i] for row in Lr[:i:-1]] for i in reversed(range(len(d)))]
    Ui = [[-row[i] for row in Li[: max(i, form.real - 1) : -1]] for i in reversed(range(len(d)))]
    return bits, Lr, Li, d, Ur, Ui


def forward(factor: tuple, b: ScaledVector) -> ScaledVector:
    """``y`` with ``L y = b`` for a :func:`factor`, each row exact to one unit of ``y``'s last place.

    ``b`` is first shifted ``shift`` bits, so that its largest part lies just
    below 1 and ``y`` carries the factor's bits relative to ``b``, at ``y.exp = b.exp - shift``.
    """
    bits, Lr, Li, d = factor[:4]
    shift = bits - max(v.bit_length() for v in b.re + b.im)
    yr, yi = _substitute(Lr, Li, d, _shift_all(b.re, shift + bits), _shift_all(b.im, shift + bits))
    return ScaledVector(yr, yi, b.exp - shift)


def _cholesky_solve(factor: tuple, b: ScaledVector) -> ScaledVector:
    """``x`` with ``L L^H x = b`` for a :func:`factor`: :func:`forward`, then ``L^H x = y`` from the last row up."""
    bits, _, _, d, Ur, Ui = factor
    y = forward(factor, b)
    xr, xi = _substitute(Ur, Ui, d[::-1], _shift_all(y.re[::-1], bits), _shift_all(y.im[::-1], bits))
    return ScaledVector(xr[::-1], xi[::-1], y.exp)


def _substitute(Lr: list[list], Li: list[list], d: list, br: list, bi: list) -> tuple[list, list]:
    """Forward substitution ``L y = b`` on integers: row ``i`` of ``L`` is ``Lr[i] + 1j * Li[i]`` left of ``d[i]``.

    A row of ``Li`` may hold only its first parts, the others being 0.
    With every ``Li`` row empty and ``bi`` zero, ``y`` is real and a row
    takes one dot product.  Otherwise a row's product with ``y`` is three,
    its imaginary part ``(Lr + Li) . (yr + yi) - Lr . yr - Li . yi``.  ``L``
    and ``y`` share one count of fraction bits, and ``b`` has twice it.
    """
    yr: list = []
    yi: list = []
    ys: list = []
    real = not any(bi) and not any(Li)
    for lr, li, di, vr, vi in zip(Lr, Li, d, br, bi):
        p, q = sum(map(mul, lr, yr)), sum(map(mul, li, yi)) if li else 0
        yr.append((vr - p + q) // di)
        if not real:
            yi.append((vi - sum(map(mul, map(add, lr, chain(li, repeat(0))), ys)) + p + q) // di)
            ys.append(yr[-1] + yi[-1])
    return yr, yi or [0] * len(yr)


def _combine(op, a: ScaledVector, b: ScaledVector) -> ScaledVector:
    """``a + b`` (``op`` is ``add``) or ``a - b`` (``sub``), exactly, at the smaller of their two scales."""
    exp = min(a.exp, b.exp)
    parts = ((a.re, b.re), (a.im, b.im))
    return ScaledVector(*(list(map(op, _shift_all(p, a.exp - exp), _shift_all(q, b.exp - exp))) for p, q in parts), exp)


def _rescaled(v: ScaledVector, exps: list[int]) -> ScaledVector:
    """``v[k] * 2**exps[k]`` per entry, exactly, at one scale."""
    low = min(exps)
    shifts = [e - low for e in exps]
    return ScaledVector(list(map(lshift, v.re, shifts)), list(map(lshift, v.im, shifts)), v.exp + low)


def _norm(v: ScaledVector, shift: int) -> float:
    """Euclidean norm of ``v * 2**shift`` as a float."""
    return math.hypot(*map(_float, v.re + v.im, repeat(v.exp + shift)))


def top_exponent(values: list[complex]) -> int:
    """The ``frexp`` exponent ``e`` of the largest part of ``values`` (0 for zeros); times ``2**-e`` none underflows."""
    return max((math.frexp(p)[1] for v in values for p in (v.real, v.imag) if p), default=0)


def _scaled_targets(targets: list[complex], exps: list[int], bits: int) -> ScaledVector:
    """The finite targets times ``2**-exps[k]``, each to ``bits`` bits below the largest of them.

    :func:`_fixed` rounds toward zero, so conjugate targets give conjugate
    integers even where a tiny target's bits fall below the last place.
    """
    top = max((math.frexp(p)[1] - e for v, e in zip(targets, exps) for p in (v.real, v.imag) if p), default=0)
    exp = top - bits
    re = [_fixed(v.real, -exp - e) for v, e in zip(targets, exps)]
    return ScaledVector(re, [_fixed(v.imag, -exp - e) for v, e in zip(targets, exps)], exp)


def solve(gram: Gram, form: RealForm, factor: tuple, columns: list[Kernel], targets: list[complex],
          tol: float) -> tuple:
    """``(residual, x, sqrt(x^H G x), H y)`` of the Cholesky solve of ``G x = targets`` on a :func:`factor` of ``form``.

    ``gram`` and ``columns`` come from :func:`unit_gram` at one rung, and
    ``form`` is the Gram's :func:`real_form`.  ``H y = D b`` (``H = D G
    D``) is solved as ``M w = c`` with ``c = E S^H D b`` on the factor,
    ``y = S E w`` and ``x = D y``; ``M w`` is formed on the form's
    integers, its shifts applied to ``w`` and to the product's rows
    (:func:`_scaled_times`).  Targets that are conjugates across partners
    make ``c`` real, and then ``w`` is real.  The residual ``D b - H y`` is
    ``S^-H E^-1 (c - M w)``, exactly, and ``b - G x = D^-1 (D b - H y)``;
    the relative residual is formed at the targets' scale, where a tiny
    datum's residual does not underflow.  Returns ``(residual, None, 0.0,
    None)`` when it exceeds ``tol``.  Otherwise ``w`` is refined once: the
    rung's arithmetic leaves an error of about ``cond(M) 2**-bits`` in ``w``
    at the factor's bits, and the guard-bit residual and Gram bring it to
    about ``cond(M) 2**-(bits + guard)``; the new residual is formed at the
    same scale from the short integers of the step.  ``H y = D b - r``,
    exact, is that of the refined ``y``, and ``x^H G x = y^H H y``.
    """
    b = _scaled_targets(targets, gram.exps, columns[0].bits)
    shift = -top_exponent(targets)
    b_norm = math.hypot(*(math.ldexp(p, shift) for v in targets for p in (v.real, v.imag)))
    c = _to_form(form, b)

    def residual_of(v, rhs):  # rhs - M v, exactly
        return _combine(sub, rhs, _scaled_times(form, v))

    w = _cholesky_solve(factor, c)
    r = residual_of(w, c)
    residual = _norm(_rescaled(_from_form(form, r, True), gram.exps), shift) / b_norm
    if residual > tol:
        return residual, None, 0.0, None
    dw = _cholesky_solve(factor, r)
    w = _combine(add, w, dw)
    r = _from_form(form, residual_of(dw, r), True)
    y = _from_form(form, w)
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
    kept ``columns``.  When every column's coefficient is its partner's
    conjugate (the partners are the Gram's ``mates``), the product of a row
    whose partner comes first is the conjugate of that row's, integer for
    integer, as the cross Gram's entries are: it is not formed again.  With
    no Gram (no kept rows, the zero control) the pairings are ``free``.  A ``shift`` set by the
    targets keeps tiny pairings from underflowing.
    """
    if gram is None:
        return [complex(math.ldexp(f.real, shift), math.ldexp(f.imag, shift)) for f in free]
    bits = columns[0].bits
    fresh = _kernels(kernels, T, bits)
    if hy is None:
        hy = _scaled_times(gram, _rescaled(x, gram.exps))
    # x times the column scales of the cross rows integrated here
    fresh_x = _rescaled(x, [column.exp for column in columns])
    mates = partners(fresh)
    later = [r for r, p in enumerate(mates) if p is not None and p < r] if None not in _paired(gram.mates, x) else []
    re, im = _moment_gram(fresh, columns, T, bits, mates, gram.mates)
    for r in later:
        re[r] = im[r] = []
    pr, pi = _times(re, im, fresh_x)
    for r in later:
        pr[r], pi[r] = pr[mates[r]], -pi[mates[r]]
    fresh_rows = zip(pr, pi, [kernel.exp - bits + fresh_x.exp for kernel in fresh])
    out = []
    for f, g in zip(free, gram_rows):
        fr, fi, exp = next(fresh_rows) if g is None else (hy.re[g], hy.im[g], gram.exps[g] + hy.exp)
        re, im = _fixed(f.real, -exp) + fr, _fixed(f.imag, -exp) + fi
        out.append(complex(_float(re, exp + shift), _float(im, exp + shift)))
    return out
