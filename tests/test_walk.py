"""The control evaluation's walk against mpmath at 60 more bits.

``walk._walk`` carries ``v e^{rate s}`` from point to point by step factors
``e^{rate h}``, integer exponentials for a new step and a short series from
an earlier step's factors for a step a few units away.  The factors are
carried at ``_STEP_GUARD`` bits more than the walk's, so the bound was
stated before the run as one quarter of a unit of ``2**-bits`` of a term per
step walked (``18`` units of ``2**-(bits + 8)`` from a long series and the
product with its base factor, about one from an exponential), plus the two
roundings down of each step's product (one unit of ``v``'s last place per
part), plus one unit for the point itself.  The same bound holds for a
point of ``walk._weighted_walk``, in units of ``2**-bits * sum_j |w_j|
max(1, s)**degree_j``: its ``v`` carries ``_STEP_GUARD`` bits below
``max|w|``, and a chain term's ``s**degree`` rounds by one unit.  The exact
values are formed from the same integers and double rates, at the walked
``s`` (``T`` and the times at ``bits`` fraction bits).  Rates, weights,
linspace grids and scattered points are drawn by hypothesis at the 40-, 80-
and 160-digit rungs.
"""

import math

import control_oracle as oracle
import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cnslab import fixedpoint, walk
from cnslab.kernels import KernelTerm

#: units of 2**-bits per step walked, relative to a term's modulus, stated before the test was run
UNITS_PER_STEP = 0.25
_RATE = st.builds(complex, st.floats(-30.0, 0.0), st.floats(-40.0, 40.0))


def _times(draw, T: float) -> list[float]:
    """A linspace grid on ``[0, T]`` or scattered points in it."""
    if draw(st.booleans()):
        return np.linspace(0.0, T, draw(st.integers(2, 60))).tolist()
    return [T * v for v in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))]


@st.composite
def walk_cases(draw):
    """``(bits, T, rates, vr, vi, times)``: terms at ``bits + _STEP_GUARD`` bits, some of them conjugate rates."""
    bits = fixedpoint._dps_bits(draw(st.sampled_from([40, 80, 160]))) + fixedpoint._GUARD_BITS
    T = draw(st.sampled_from([2.0, 5.0, 8.0, 12.0]))
    rates = draw(st.lists(_RATE, min_size=1, max_size=6))
    if draw(st.booleans()):
        rates += [r.conjugate() for r in rates]
    part = st.integers(-(1 << bits + walk._STEP_GUARD), 1 << bits + walk._STEP_GUARD)
    return bits, T, rates, [draw(part) for _ in rates], [draw(part) for _ in rates], _times(draw, T)


def _steps(s_all: list[int], i: int) -> int:
    """The steps the walk takes to point ``i``: one per distinct nonzero ``s`` up to it."""
    return len({v for v in s_all if 0 < v <= s_all[i]})


@settings(max_examples=60, deadline=None)
@given(case=walk_cases())
def test_walked_terms_stay_within_a_quarter_unit_per_step(case):
    bits, T, rates, vr, vi, times = case
    rate_ints = [fixedpoint._fixed(r.real, bits) for r in rates], [fixedpoint._fixed(r.imag, bits) for r in rates]
    T_int = fixedpoint._fixed(T, bits)
    s_all = [T_int - fixedpoint._fixed(t, bits) for t in times]
    seen = set()
    with mpmath.workprec(bits + 60):
        for i, wr, wi in walk._walk(vr, vi, rates, rate_ints, s_all, bits):
            seen.add(i)
            k, s = _steps(s_all, i), mpmath.ldexp(s_all[i], -bits)
            for a, b, c, d, rate in zip(vr, vi, wr, wi, rates):
                error = abs(mpmath.mpc(c, d) - mpmath.mpc(a, b) * mpmath.exp(mpmath.mpc(rate) * s))
                assert error <= (UNITS_PER_STEP * k + 1) * 2.0**-bits * math.hypot(a, b) + 2 * (k + 1)
    assert seen == set(range(len(times)))


@st.composite
def control_cases(draw):
    """``(T, x, columns, mates, times)``: drawn kernels with chains and conjugate pairs, and their coefficients."""
    bits = fixedpoint._dps_bits(draw(st.sampled_from([40, 80, 160]))) + fixedpoint._GUARD_BITS
    T = draw(st.sampled_from([2.0, 5.0, 8.0, 12.0]))
    coef = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(lambda c: abs(c) > 0.1)
    kernels = []
    for rate in draw(st.lists(_RATE, min_size=1, max_size=4)):
        kernel = [KernelTerm(draw(coef), rate, d) for d in range(1 + draw(st.integers(0, 2)))]
        kernels.append(kernel)
        if draw(st.booleans()):
            kernels.append([KernelTerm(t.coef.conjugate(), rate.conjugate(), t.degree) for t in kernel])
    columns = fixedpoint._kernels([("row", k) for k in kernels], T, bits)
    mates = fixedpoint.partners(columns)
    part = st.integers(-(1 << bits), 1 << bits)
    re, im = [draw(part) for _ in columns], [draw(part) for _ in columns]
    re[0] = re[0] or 1  # a live term, so that every point is walked
    if draw(st.booleans()):
        # a real datum's coefficients: partners' are exact conjugates, and a pair walks once
        for j, p in enumerate(mates):
            if p is not None and p > j:
                re[p], im[p] = re[j], -im[j]
    x = fixedpoint.ScaledVector(re, im, draw(st.integers(-300, 300)))
    return T, x, columns, mates, _times(draw, T)


@settings(max_examples=60, deadline=None)
@given(case=control_cases())
def test_the_weighted_walk_stays_within_a_quarter_unit_per_step(case):
    T, x, columns, mates, times = case
    bits = columns[0].bits
    wr, wi, w_exp, rates, _, _, degrees = oracle.weights(x, columns)
    T_int = fixedpoint._fixed(T, bits)
    s_all = [T_int - fixedpoint._fixed(t, bits) for t in times]
    got = {i: rest for i, *rest in walk._weighted_walk(x, columns, T, times, mates)}
    assert got.keys() == set(range(len(times)))
    with mpmath.workprec(bits + 60):
        w = [mpmath.mpc(a, b) * mpmath.mpf(2) ** w_exp for a, b in zip(wr, wi)]
        for i, (re, im, exp) in got.items():
            s = mpmath.ldexp(s_all[i], -bits)
            exact = mpmath.fsum(v * s**d * mpmath.exp(mpmath.mpc(r) * s) for v, d, r in zip(w, degrees, rates))
            unit = 2.0**-bits * mpmath.fsum(abs(v) * max(1, s) ** d for v, d in zip(w, degrees))
            error = abs(mpmath.mpc(re, im) * mpmath.mpf(2) ** exp - exact)
            assert error <= (UNITS_PER_STEP * _steps(s_all, i) + 1) * unit
