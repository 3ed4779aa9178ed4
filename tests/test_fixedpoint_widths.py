"""The odd-part moment Gram and the rate-by-rate step series of ``fixedpoint`` against ``control_oracle``.

Production pairs the odd parts of the kernels' integers, with the powers of
two their double-born rates and coefficients share divided out, and sums the
step series of the control evaluation one rate at a time.  ``control_oracle``
keeps the full-width pair loop and the series summed for all rates at once.
Both are exact integer rewrites, so the step factors and every Gram entry
that production integrates must agree integer for integer.

Production also takes an entry as the conjugate of an entry already formed
when its row and column kernels are, integer for integer, the conjugates of
that entry's (``fixedpoint.partners``).  The full-width loop integrates
such an entry from the negated operands, whose floors differ from the
negated floors, so it may differ from the conjugate by the propagation of
a unit or two per rounding, which :func:`_asymmetry_units` bounds.
"""

import math

import control_oracle as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnslab import fixedpoint, walk
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
    """``(rows, columns, T, bits)`` as :func:`fixedpoint._kernels` makes them at a rung of ``dps`` digits."""
    bits = fixedpoint._dps_bits(dps) + fixedpoint._GUARD_BITS + fixedpoint._range_bits(rows + columns, T)
    return (fixedpoint._kernels([("row", k) for k in rows], T, bits),
            fixedpoint._kernels([("column", k) for k in columns], T, bits), T, bits)


def _conjugate(kernel: list[KernelTerm]) -> list[KernelTerm]:
    return [KernelTerm(t.coef.conjugate(), t.rate.conjugate(), t.degree) for t in kernel]


@st.composite
def gram_cases(draw):
    """:func:`_case` of drawn kernels, with columns whose rates can mirror the rows'.

    A column rate ``-conj(a) + e`` with a tiny ``e`` puts the pair with a
    row rate ``a`` near ``z = 0``, on the Taylor branch; a rate with a tiny
    real part does so on the Hermitian Gram's diagonal.  Rows and columns
    each gain the conjugates of some of their kernels, in drawn places, and
    keep one of each set of equal kernels: a repeated kernel makes a Gram
    singular, and the moment system drops it before any Gram is formed.
    """
    T = draw(st.sampled_from([0.5, 2.0, 8.0]))
    rates = draw(st.lists(st.builds(complex, _RATE_PART, _RATE_PART), min_size=1, max_size=4))
    mirrored = [-a.conjugate() + draw(st.sampled_from([0.0, 1e-9, -2e-7j])) for a in rates]
    rows, columns = draw(_kernels(rates)), draw(_kernels(rates + mirrored))
    rows, columns = ([*kernels, *(_conjugate(k) for k in kernels if draw(st.booleans()))]
                     for kernels in (rows, columns))
    rows, columns, T, bits = _case(draw(st.permutations(rows)), draw(st.permutations(columns)), T,
                                   draw(st.sampled_from([15, 40, 80])))
    rows, columns = ([*{(k.exp, *k.terms): k for k in kernels}.values()] for kernels in (rows, columns))
    return rows, columns, T, bits


def _near_pairs(rows, columns, T: float) -> int:
    return sum(abs(a[4] + b[4].conjugate()) * T < TAYLOR_RADIUS for r in rows for c in columns
               for a in r.terms for b in c.terms)


_TAYLOR_CASE = (
    [[KernelTerm(1.0 + 1e-45j, complex(-1e-9, 2.0), 2), KernelTerm(0.5j, complex(-2.0, 0.0), 0)]],
    [[KernelTerm(-0.25 + 0j, complex(1e-9, 2.0), 1)], [KernelTerm(1.0 + 0j, 0j, 4)]],
)
#: conjugate partners with chain degrees and a near pair: rows 0 and 1 against 2 and 3 pair rates
#: ``a`` and ``-conj(a) + 1e-9``, and the coefficients' parts are exact at every rung
_CONJUGATE_CASE = [
    [KernelTerm(0.75 + 0.5j, complex(-0.5, 2.0), 0), KernelTerm(-0.25j, complex(-1.5, 1.0), 2)],
    _conjugate([KernelTerm(0.75 + 0.5j, complex(-0.5, 2.0), 0), KernelTerm(-0.25j, complex(-1.5, 1.0), 2)]),
    [KernelTerm(0.5 - 1.0j, complex(0.5 + 1e-9, 2.0), 3)],
    _conjugate([KernelTerm(0.5 - 1.0j, complex(0.5 + 1e-9, 2.0), 3)]),
    [KernelTerm(1.0 + 0j, complex(-0.25, 0.0), 1)],
]


def test_the_pinned_case_has_near_pairs_and_a_capped_rate_power():
    rows, columns, T, bits = _case(*_TAYLOR_CASE)
    assert _near_pairs(rows, rows, T) == 1 and _near_pairs(rows, columns, T) == 1
    # the integer-valued rate -2 has bits + 1 trailing zeros, one more than the cap
    assert rows[0].odd[1][1][4] == bits


def _partners(kernels: list) -> list:
    """Per kernel, the first kernel whose terms are its conjugate's, integer for integer, or None."""
    def conjugate(kernel):
        return [(cr, -ci, ar, -ai, rate.conjugate(), degree, er, -ei)
                for cr, ci, ar, ai, rate, degree, er, ei in kernel.terms]

    return [next((j for j, other in enumerate(kernels) if (other.exp, other.terms) == (k.exp, conjugate(k))), None)
            for k in kernels]


def _asymmetry_units(row, column, T: float, bits: int) -> float:
    """A bound, per part and in units of ``2**-bits``, on the full-width loop's entry for the conjugates of
    ``row`` and ``column`` minus the conjugate of its entry for the two.

    The operands of the conjugate pair are the pair's with the imaginary
    parts negated.  Where a rounding sees its operand moved by ``d``, its
    floor moves by less than ``|d| + 1``, and by less than ``|d| + 2`` where
    it floors a negated operand, whose floor is the negated one or one unit
    below it.  So a pair integral moves by ``D``: off the Taylor branch
    ``D_0 = 2 + 1/|z|`` and ``D_k = 2 + (2 k D_{k-1} + T**k + 2) / |z|`` up
    the chain degrees; on it, the powers ``z**k / k!`` move by ``E_k = 2 +
    2 |z| E_{k-1} / k`` and the sum by ``2 + sum E_k T**(m+k+1) / (m+k+1)``,
    with four more terms of ``E + 1`` once the powers are below a unit,
    where a sum may end a few terms after its partner's.  The entry moves by
    ``2 + sum (|wr| + |wi|) D``, with ``w`` the pair's coefficient product
    at ``2 * bits`` fraction bits.
    """
    total = 2.0
    for cr_a, ci_a, _, _, a, da, _, _ in row.terms:
        for cr_b, ci_b, _, _, b, db, _, _ in column.terms:
            m, z = da + db, abs(a + b.conjugate())
            if z * T < TAYLOR_RADIUS:
                d, e, k, tail = 2.0, 0.0, 0, 0
                while tail < 4:
                    k += 1
                    e = 2 + 2 * z * e / k
                    below = z == 0 or bits + k * math.log2(z) - math.lgamma(k + 1) / math.log(2) < 0
                    tail += below
                    d += (e + below) * T ** (m + k + 1) / (m + k + 1)
            else:
                d = 2 + 1 / z
                for k in range(1, m + 1):
                    d = 2 + (2 * k * d + T**k + 2) / z
            w = abs(cr_a * cr_b + ci_a * ci_b) + abs(ci_a * cr_b - cr_a * ci_b)
            total += w / (1 << 2 * bits) * d
    return total


def _assert_integrated_or_conjugated(rows, columns, T: float, bits: int) -> int:
    """Every entry is the full-width loop's, or the exact conjugate of the entry of its rows' and columns' first
    conjugate partners and within :func:`_asymmetry_units` of the loop's; returns the count of the latter."""
    row_partners = _partners(rows)
    column_partners = row_partners if rows is columns else _partners(columns)
    got = fixedpoint._moment_gram(rows, columns, T, bits, row_partners, column_partners)
    want = oracle.moment_gram(rows, columns, T, bits)
    conjugated = 0
    for i, j in ((i, j) for i in range(len(rows)) for j in range(len(columns))):
        entry = got[0][i][j], got[1][i][j]
        if entry == (want[0][i][j], want[1][i][j]):
            continue
        p, q = row_partners[i], column_partners[j]
        assert p is not None and q is not None and entry == (got[0][p][q], -got[1][p][q]), (i, j)
        units = _asymmetry_units(rows[i], columns[j], T, bits)
        assert abs(entry[0] - want[0][i][j]) <= units and abs(entry[1] - want[1][i][j]) <= units, (i, j, units)
        conjugated += 1
    return conjugated


@settings(max_examples=150, deadline=None)
@given(case=gram_cases())
@example(case=_case(*_TAYLOR_CASE))
@example(case=_case(_CONJUGATE_CASE, _CONJUGATE_CASE[::-1], 8.0))
def test_hermitian_gram_equals_the_full_width_pair_loop(case):
    rows, _, T, bits = case
    _assert_integrated_or_conjugated(rows, rows, T, bits)


@settings(max_examples=150, deadline=None)
@given(case=gram_cases())
@example(case=_case(*_TAYLOR_CASE))
@example(case=_case(_CONJUGATE_CASE, _CONJUGATE_CASE[::-1], 8.0))
def test_cross_gram_equals_the_full_width_pair_loop(case):
    _assert_integrated_or_conjugated(*case)


@pytest.mark.parametrize("dps", [40, 80, 160])
def test_the_conjugate_case_takes_entries_from_their_partners(dps):
    rows, columns, T, bits = _case(_CONJUGATE_CASE, _CONJUGATE_CASE[::-1], 8.0, dps)
    assert _partners(rows) == fixedpoint.partners(rows) == [1, 0, 3, 2, 4]
    assert _near_pairs(rows[:1], rows[2:3], T) == _near_pairs(rows[1:2], rows[3:4], T) == 1
    # a mirrored entry that the loop would round otherwise shows the path is taken
    conjugated = _assert_integrated_or_conjugated(rows, rows, T, bits)
    assert conjugated + _assert_integrated_or_conjugated(rows, columns, T, bits)


@st.composite
def step_cases(draw):
    """``(factors, rates, d, bits)`` as the control evaluation passes them: ``|rate d|`` within the series radius."""
    bits = draw(st.sampled_from([64, fixedpoint._dps_bits(40) + fixedpoint._GUARD_BITS, 300]))
    rates = draw(st.lists(st.builds(complex, _RATE_PART, _RATE_PART) | st.builds(complex, st.floats(-300.0, 0.0),
                                                                                    st.floats(-50.0, 50.0)),
                          min_size=1, max_size=6))
    largest = max(max(abs(r.real), abs(r.imag)) for r in rates)
    reach = int(walk._STEP_SERIES_RADIUS / max(2 * largest, 1.0) * 2.0**bits)
    d = draw(st.integers(-reach, reach) | st.integers(-64, 64))
    unit = st.integers(-(1 << bits), 1 << bits)
    factors = [draw(unit) for _ in rates], [draw(unit) for _ in rates]
    parts = [fixedpoint._fixed(r.real, bits) for r in rates], [fixedpoint._fixed(r.imag, bits) for r in rates]
    return factors, parts, d, bits


@settings(max_examples=200, deadline=None)
@given(case=step_cases())
def test_step_series_equals_the_list_wide_series(case):
    assert walk._shifted_factors(*case) == oracle.shifted_factors(*case)


def test_a_rate_stuck_at_minus_one_runs_on_to_the_longest_series():
    # the first rate's terms are (1, -1), (0, -1), (-1, -1), (-1, 0) and then stay (-1, 0); the second rate
    # (2**-20 on a step of one unit) needs four terms, so the first adds units of -1 it would not add alone
    bits = 64
    rates = [1 << bits, 1 << 2 * bits - 20], [-(1 << bits), 0]
    units = [1 << bits] * 2, [0] * 2
    both = walk._shifted_factors(units, rates, 1, bits)
    assert both == oracle.shifted_factors(units, rates, 1, bits)
    alone = walk._shifted_factors(([1 << bits], [0]), ([1 << bits], [-(1 << bits)]), 1, bits)
    assert (both[0][0], both[1][0]) != (alone[0][0], alone[1][0])
