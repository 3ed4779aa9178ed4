"""The odd-part moment Gram and the rate-by-rate step series of ``fixedpoint`` against ``control_oracle``.

Production pairs the odd parts of the kernels' integers, with the powers of
two their double-born rates and coefficients share divided out, and sums the
step series of the control evaluation one rate at a time.  ``control_oracle``
keeps the full-width pair loop and the series summed for all rates at once.
Both are exact integer rewrites, so the Gram entries and the step factors
must agree integer for integer.
"""

import control_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnslab import fixedpoint
from cnslab.kernels import TAYLOR_RADIUS, KernelTerm

finite = dict(allow_nan=False, allow_infinity=False)

#: rate parts: zero, integer values (their trailing zeros exceed the working bits), general and tiny doubles
_RATE_PART = st.one_of(
    st.just(0.0), st.integers(-3, 3).map(float), st.floats(-3.0, 3.0, **finite), st.floats(-1e-6, 1e-6, **finite)
)
#: coefficient parts: zero, general doubles and parts far below the largest part of a row, which floor
_COEF_PART = st.one_of(
    st.just(0.0),
    st.floats(-2.0, 2.0, **finite),
    st.floats(1e-50, 1e-30).flatmap(lambda x: st.sampled_from([x, -x])),
)


def _kernels(rates: list[complex]):
    """Kernels of one to three terms of degrees 0 to 4, each rate drawn from ``rates``."""
    term = st.builds(KernelTerm, st.builds(complex, _COEF_PART, _COEF_PART), st.sampled_from(rates), st.integers(0, 4))
    return st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=4)


def _case(rows, columns, T: float = 2.0, dps: int = 40):
    """``(rows, columns, T, bits)`` as :func:`fixedpoint._kernel` makes them at a rung of ``dps`` digits."""
    bits = fixedpoint._dps_bits(dps) + fixedpoint._GUARD_BITS + fixedpoint._range_bits(rows + columns, T)
    return ([fixedpoint._kernel("row", k, T, bits) for k in rows],
            [fixedpoint._kernel("column", k, T, bits) for k in columns], T, bits)


@st.composite
def gram_cases(draw):
    """:func:`_case` of drawn kernels, with columns whose rates can mirror the rows'.

    A column rate ``-conj(a) + e`` with a tiny ``e`` puts the pair with a
    row rate ``a`` near ``z = 0``, on the Taylor branch; a rate with a tiny
    real part does so on the Hermitian Gram's diagonal.
    """
    T = draw(st.sampled_from([0.5, 2.0, 8.0]))
    rates = draw(st.lists(st.builds(complex, _RATE_PART, _RATE_PART), min_size=1, max_size=4))
    mirrored = [-a.conjugate() + draw(st.sampled_from([0.0, 1e-9, -2e-7j])) for a in rates]
    rows = draw(_kernels(rates))
    return _case(rows, draw(_kernels(rates + mirrored)), T, draw(st.sampled_from([15, 40, 80])))


def _near_pairs(rows, columns, T: float) -> int:
    return sum(abs(a[4] + b[4].conjugate()) * T < TAYLOR_RADIUS for r in rows for c in columns
               for a in r.terms for b in c.terms)


_TAYLOR_CASE = (
    [[KernelTerm(1.0 + 1e-45j, complex(-1e-9, 2.0), 2), KernelTerm(0.5j, complex(-2.0, 0.0), 0)]],
    [[KernelTerm(-0.25 + 0j, complex(1e-9, 2.0), 1)], [KernelTerm(1.0 + 0j, 0j, 4)]],
)


def test_the_pinned_case_has_near_pairs_and_a_capped_rate_power():
    rows, columns, T, bits = _case(*_TAYLOR_CASE)
    assert _near_pairs(rows, rows, T) == 1 and _near_pairs(rows, columns, T) == 1
    # the integer-valued rate -2 has bits + 1 trailing zeros, one more than the cap
    assert fixedpoint._odd_parts(rows[0])[1][1][4] == bits


@settings(max_examples=150, deadline=None)
@given(case=gram_cases())
@example(case=_case(*_TAYLOR_CASE))
def test_hermitian_gram_equals_the_full_width_pair_loop(case):
    rows, _, T, bits = case
    assert fixedpoint._moment_gram(rows, rows, T, bits) == oracle.moment_gram(rows, rows, T, bits)


@settings(max_examples=150, deadline=None)
@given(case=gram_cases())
@example(case=_case(*_TAYLOR_CASE))
def test_cross_gram_equals_the_full_width_pair_loop(case):
    rows, columns, T, bits = case
    assert fixedpoint._moment_gram(rows, columns, T, bits) == oracle.moment_gram(rows, columns, T, bits)


@st.composite
def step_cases(draw):
    """``(factors, rates, d, bits)`` as the control evaluation passes them: ``|rate d|`` within the series radius."""
    bits = draw(st.sampled_from([64, fixedpoint._dps_bits(40) + fixedpoint._GUARD_BITS, 300]))
    rates = draw(st.lists(st.builds(complex, _RATE_PART, _RATE_PART) | st.builds(complex, st.floats(-300.0, 0.0),
                                                                                    st.floats(-50.0, 50.0)),
                          min_size=1, max_size=6))
    largest = max(max(abs(r.real), abs(r.imag)) for r in rates)
    reach = int(fixedpoint._STEP_SERIES_RADIUS / max(2 * largest, 1.0) * 2.0**bits)
    d = draw(st.integers(-reach, reach) | st.integers(-64, 64))
    unit = st.integers(-(1 << bits), 1 << bits)
    factors = [draw(unit) for _ in rates], [draw(unit) for _ in rates]
    parts = [fixedpoint._fixed(r.real, bits) for r in rates], [fixedpoint._fixed(r.imag, bits) for r in rates]
    return factors, parts, d, bits


@settings(max_examples=200, deadline=None)
@given(case=step_cases())
def test_step_series_equals_the_list_wide_series(case):
    assert fixedpoint._shifted_factors(*case) == oracle.shifted_factors(*case)


def test_a_rate_stuck_at_minus_one_runs_on_to_the_longest_series():
    # the first rate's terms are (1, -1), (0, -1), (-1, -1), (-1, 0) and then stay (-1, 0); the second rate
    # (2**-20 on a step of one unit) needs four terms, so the first adds units of -1 it would not add alone
    bits = 64
    rates = [1 << bits, 1 << 2 * bits - 20], [-(1 << bits), 0]
    units = [1 << bits] * 2, [0] * 2
    both = fixedpoint._shifted_factors(units, rates, 1, bits)
    assert both == oracle.shifted_factors(units, rates, 1, bits)
    alone = fixedpoint._shifted_factors(([1 << bits], [0]), ([1 << bits], [-(1 << bits)]), 1, bits)
    assert (both[0][0], both[1][0]) != (alone[0][0], alone[1][0])
