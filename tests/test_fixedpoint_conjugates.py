"""Conjugate rates and kernels share their integers.

``fixedpoint._exp`` is conjugation-equivariant: a rate with a negative
imaginary part takes its conjugate's integers with the imaginary part
negated, and rates with a nonnegative one keep the integers of
``control_oracle.exp_direct``, which reduces every rate as it is.  So one
exponential serves a rate and its conjugate (``fixedpoint._exps``), and the
moment Gram takes an entry as the conjugate of another when their kernels
are conjugates integer for integer (``tests/test_fixedpoint_widths.py``).

The paper's systems have real coefficients, so mode ``-n`` of a barotropic
slice is the conjugate of mode ``n`` bit for bit, and every moment kernel
finds its conjugate partner; the tests here pin that symmetry, on which the
saving depends.  Three-field slices are symmetric except at modes whose
branch labels swap (ROADMAP item 4); those modes' kernels find no partner
and are integrated, and the synthesized control still passes its
verification.
"""

from unittest import mock

import control_oracle as oracle
import numpy as np
import pytest
from conftest import random_nonbarotropic
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnslab import cli, control, fixedpoint
from cnslab.control import build_moment_system, synthesize_control, verify_terminal
from cnslab.evolution import ObservationChannel
from cnslab.spectrum import build_slice

#: working bits of the exponentials at the 40-, 80- and 160-digit rungs, without the range bits of a kernel set
RUNG_BITS = [fixedpoint._dps_bits(dps) + fixedpoint._GUARD_BITS for dps in (40, 80, 160)]
#: largest distance of either part from the direct reduction of a rate with a negative imaginary part, in units of
#: ``2**-bits``: both are within ``test_fixedpoint_arithmetic.EXP_ERROR_UNITS`` of the exact value
CONJUGATE_UNITS = 4

finite = dict(allow_nan=False, allow_infinity=False)
_SIGNED = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])
#: real parts: signed zeros and subnormals, decaying and growing, and far below the underflow cut-off
_REAL = _SIGNED | st.floats(-300.0, 5.0, **finite) | st.floats(-1e300, -1e4, **finite)
#: imaginary parts: signed zeros and subnormals, moderate, and huge
_IMAG = _SIGNED | st.floats(-1000.0, 1000.0, **finite) | st.floats(1e6, 1e15).flatmap(
    lambda y: st.sampled_from([y, -y]))


@st.composite
def _arguments(draw):
    """``(n, e, bits)``: a horizon's ``T = n * 2**e`` as a kernel forms it, or a step of ``n`` units of ``2**-bits``."""
    bits = draw(st.sampled_from(RUNG_BITS))
    if draw(st.booleans()):
        return (*fixedpoint._ratio(draw(st.sampled_from([0.16, 1.0, 3.0, 8.0]))), bits)
    return draw(st.integers(1, 1 << 64)), -bits, bits


@settings(max_examples=150, deadline=None)
@given(x=_REAL, y=_IMAG, args=_arguments())
@example(x=-1141.5, y=-86.4, args=(1, 0, RUNG_BITS[0]))
@example(x=-(RUNG_BITS[0] + 2) * 0.6931471805599453, y=-1.0, args=(1, 0, RUNG_BITS[0]))
@example(x=5.0, y=-1000.0, args=(1, 0, RUNG_BITS[2]))
def test_exponential_of_the_conjugate_is_the_conjugate(x, y, args):
    rate = complex(x, y)
    re, im = fixedpoint._exp(rate, *args)
    assert fixedpoint._exp(rate.conjugate(), *args) == (re, -im)
    direct = oracle.exp_direct(rate, *args)
    if y >= 0:
        assert (re, im) == direct
    else:
        assert abs(re - direct[0]) <= CONJUGATE_UNITS and abs(im - direct[1]) <= CONJUGATE_UNITS


@settings(max_examples=60, deadline=None)
@given(
    rates=st.lists(st.builds(complex, _SIGNED | st.floats(-3.0, 1.0, **finite),
                             _SIGNED | st.floats(-9.0, 9.0, **finite)), min_size=1, max_size=5),
    picks=st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=10),
    args=_arguments(),
)
def test_one_exponential_per_rate_up_to_conjugation(rates, picks, args):
    # the drawn rates, then repeats and conjugates of them in a drawn order
    rates = rates + [rates[i % len(rates)].conjugate() if flip else rates[i % len(rates)] for i, flip in picks]
    direct = [fixedpoint._exp(rate, *args) for rate in rates]
    with mock.patch.object(fixedpoint, "_exp", wraps=fixedpoint._exp) as spy:
        got = fixedpoint._exps(rates, *args)
    assert got == ([d[0] for d in direct], [d[1] for d in direct])
    assert spy.call_count == len({complex(r.real, abs(r.imag)) for r in rates})


def _kernels_at_the_first_rung(rows, T: float) -> list:
    """The rows' kernels as ``fixedpoint.unit_gram`` makes them at 40 digits."""
    kernels = [row.kernel for row in rows]
    bits = fixedpoint._dps_bits(40) + fixedpoint._GUARD_BITS + fixedpoint._range_bits(kernels, T)
    return fixedpoint._kernels([("row", k) for k in kernels], T, bits)


@pytest.mark.parametrize("fixture", ["unit_barotropic", "nondegenerate_barotropic", "uc_failing_barotropic"])
@pytest.mark.parametrize("channel", [ObservationChannel.DENSITY, ObservationChannel.VELOCITY])
def test_barotropic_modes_and_kernels_are_conjugate_pairs(request, fixture, channel):
    params = request.getfixturevalue(fixture)
    slice_ = build_slice(params, 12)
    table = slice_.basis
    row = {n: r for r, n in enumerate(table.ns.tolist())}
    for n in range(1, 13):
        # bit for bit, up to the sign of a zero part, which no integer of a kernel keeps
        for part in (table.values, table.vectors, table.basis):
            assert (part[row[-n]] + 0.0).tobytes() == (part[row[n]].conj() + 0.0).tobytes(), (fixture, n)
    T = 8.0
    system = build_moment_system(cli._random_field(2, 8, np.random.default_rng(1)), channel, T, slice_, 8)
    assert None not in fixedpoint.partners(_kernels_at_the_first_rung(system.rows, T))
    keep, inconsistent, _ = control._duplicate_row_structure(system)
    kept = fixedpoint.partners(_kernels_at_the_first_rung([system.rows[i] for i in keep], T))
    # unique continuation fails on the b = 1.25 set: the rows of modes -1 and 1 are proportional, and the one
    # kept has lost its partner
    assert kept.count(None) == len(inconsistent) == (fixture == "uc_failing_barotropic")


def _synthesized(params, N: int = 8, T: float = 8.0):
    slice_ = build_slice(params, N + 2)
    system = build_moment_system(cli._random_field(3, N, np.random.default_rng(2)), ObservationChannel.DENSITY, T,
                                 slice_, N)
    solution = synthesize_control(system)
    assert verify_terminal(solution, N + 2).in_truncation_residual <= 1e-6
    return solution


def test_a_symmetric_three_field_slice_pairs_its_kernels(generic_nonbarotropic):
    solution = _synthesized(generic_nonbarotropic)
    assert None not in fixedpoint.partners(solution.columns)


def test_three_field_modes_whose_labels_swap_find_no_partner():
    # the first set of rng 5: coincidence-free, and its branch labels at modes 1 and 2 are
    # not the conjugates of those at -1 and -2 (ROADMAP item 4)
    params = random_nonbarotropic(np.random.default_rng(5))
    solution = _synthesized(params)
    modes = [solution.system.rows[i].n for i in solution.keep]
    partners = fixedpoint.partners(solution.columns)
    assert {n for n, p in zip(modes, partners) if p is None} == {-2, -1, 1, 2}
    assert len(partners) - partners.count(None) == 36
