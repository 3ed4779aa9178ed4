"""The control evaluation on scaled integers: ``p(t) = sum_j x_j conj(k_j(t))`` stepped from point to point.

A moment solution's control is a sum of weighted exponential terms ``w
(T-t)**degree e^{conj(rate) (T-t)}``, ``w = x conj(coef)``, on the integers
of :mod:`~cnslab.fixedpoint`.  The evaluation walks the weighted terms
themselves from ``s = T - t = 0`` through the points in increasing ``s``,
multiplying them by one step factor ``e^{rate h}`` per step, so that a point
is a plain sum.  The step factors are integer exponentials
(:func:`~cnslab.fixedpoint._exps`), one per rate up to conjugation, and a
step a few units from an earlier one takes its factors from that step's by a
short series, rate by rate.  A conjugate pair of columns whose coefficients
are conjugates walks once.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from operator import add, mul, rshift, sub

from .fixedpoint import Kernel, ScaledVector, _exps, _fixed, _float, _paired, _shift, _shift_all

#: largest ``max|rate| * |h - h0|`` at which the control evaluation derives a step's factors from step ``h0``'s
_STEP_SERIES_RADIUS = 1e-6
#: extra bits of the step factors, below which their roundings stay
_STEP_GUARD = 8


def evaluate(x: ScaledVector, columns: list[Kernel], T: float, times: list[float],
             mates: list[int | None]) -> list[complex]:
    """``p(t) = sum_j x_j conj(k_j(t))`` at finite ``times``: the exact sums of :func:`_weighted_walk`, rounded once.

    ``mates`` are the :func:`~cnslab.fixedpoint.partners` of the columns.
    With ``w_j = x_j conj(coef_j)``, the step factors of the walk, carried at
    :data:`_STEP_GUARD` bits above ``bits``, round to a few units of
    ``2**-(bits + _STEP_GUARD)`` per step and term (up to 18, where a step
    series runs many terms), and so does ``w e^{conj(rate) s}``, carried at
    ``bits + _STEP_GUARD`` fraction bits below ``max|w|``.  So after ``k``
    steps a point is within ``(k / 4 + 1) 2**-bits sum_j |w_j| max(1,
    s)**degree_j`` of the exact ``p`` at the walked ``s = T - t``, the
    bound ``tests/test_walk.py`` checks against mpmath (0.018 ``(k + 1)``
    units seen).  A conjugate pair walked once, its real part doubled, is
    as near.  For decaying rates every factor has modulus at most 1, so no
    step amplifies an earlier rounding.
    """
    out = [0j] * len(times)
    for i, re, im, exp in _weighted_walk(x, columns, T, times, mates):
        out[i] = complex(_float(re, exp), _float(im, exp))
    return out


def _weighted_walk(x: ScaledVector, columns: list[Kernel], T: float, times: list[float],
                   mates: list[int | None]) -> Iterator:
    """``(i, re, im, exp)``: ``p(times[i]) = (re + 1j * im) * 2**exp`` for every ``i``, in increasing ``T - times[i]``.

    Each term of ``p`` is ``w (T-t)**degree e^{conj(rate) (T-t)}`` with
    ``w = x conj(coef)``, an exact integer product.  The walk carries
    ``v = w e^{conj(rate) s}`` at ``bits + _STEP_GUARD`` fraction bits below
    ``max|w|`` and steps it by the factors of :func:`_walk`, so a point is
    two plain sums of ``v``; only the chain terms take their ``s**degree``,
    at ``bits`` fraction bits.  A column whose coefficient is its partner's
    conjugate (its ``mates`` entry) has the conjugate terms of that partner's:
    the first of the two walks with ``2 w`` and enters the real sum alone,
    ``p = sum v_single + 2 Re sum v_pair``, and the second does not walk.
    """
    live = [(a, b, column, p not in (None, j))
            for j, (a, b, column, p) in enumerate(zip(x.re, x.im, columns, _paired(mates, x)))
            if (a or b) and (p is None or p >= j)]
    if not live:
        return
    bits = live[0][2].bits
    low = min(column.exp for _, _, column, _ in live)
    # plain terms first, singles before pairs: a point sums the plain terms as they are and multiplies the chain
    # terms after them by s**degree, and only the singles enter the imaginary sums
    terms = sorted(
        ((a * cr + b * ci << k, b * cr - a * ci << k, rate.conjugate(), ar, -ai, degree, twice)
         for a, b, column, twice in live
         for k in (column.exp - low + twice,)
         for cr, ci, ar, ai, rate, degree, _, _ in column.terms),
        key=lambda term: (term[5] > 0, term[6]),
    )
    wr, wi, rates, rate_re, rate_im, degrees, twice = (list(v) for v in zip(*terms))
    plain = degrees.count(0)
    single, chained = twice[:plain].count(False), plain + twice[plain:].count(False)
    shift = bits + _STEP_GUARD - max(v.bit_length() for v in wr + wi)
    exp = x.exp + low - 2 * bits - shift  # of v times s**degree at bits fraction bits
    T_int = _fixed(T, bits)
    s_all = [T_int - _fixed(ti, bits) for ti in times]
    walk = _walk(_shift_all(wr, shift), _shift_all(wi, shift), rates, (rate_re, rate_im), s_all, bits)
    for i, vr, vi in walk:
        powers = [_shift(s_all[i] ** d, (1 - d) * bits) for d in degrees[plain:]]  # s**d at bits fraction bits
        yield (
            i,
            (sum(vr[:plain]) << bits) + sum(map(mul, vr[plain:], powers)),
            (sum(vi[:single]) << bits) + sum(map(mul, vi[plain:chained], powers)),
            exp,
        )


def _walk(vr: list, vi: list, rates: list[complex], rate_ints: tuple[list, list], s_all: list[int],
          bits: int) -> Iterator:
    """``(i, re, im)`` of ``v e^{rate s_all[i]}`` per term, for every ``i`` in increasing ``s_all[i]``.

    ``v`` comes as integer parts at any one scale, which the walk keeps;
    rates come as complexes and as integers ``rate_ints`` (real parts,
    imaginary parts) and ``s_all`` at ``bits`` fraction bits.  The step
    factors are carried at :data:`_STEP_GUARD` bits more, so that their
    roundings stay below ``2**-bits``.  The walk starts at ``s = 0`` and carries the products from
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
    g = bits + _STEP_GUARD
    rate_ints = tuple(_shift_all(part, _STEP_GUARD) for part in rate_ints)
    s_prev = 0
    steps: dict = {}
    base = None  # (h0, factors of h0) of the last step that took exponentials
    for i in sorted(range(len(s_all)), key=s_all.__getitem__):
        h = s_all[i] - s_prev
        if h:
            factors = steps.get(h)
            if factors is None:
                if base is not None and rate_max * abs(_float(h - base[0], -bits)) <= _STEP_SERIES_RADIUS:
                    factors = _shifted_factors(base[1], rate_ints, h - base[0] << _STEP_GUARD, g)
                else:
                    factors = _exps(rates, h, -bits, g)
                    base = (h, factors)
                steps[h] = factors
            vr, vi = _complex_products(vr, vi, *factors, g)
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
