"""The integer exponential, its constants, the digits-to-bits rule and the double Gram of ``fixedpoint``.

mpmath is the oracle here: :func:`fixedpoint._exp` is compared with
``mpmath.exp`` of the same exact argument at 80 more bits, at the working
bits of the first two rungs of the precision ladder, over the arguments
the moment method meets (ROADMAP items 3 and 6): real parts from far below
the underflow cut-off to +5, imaginary parts up to 1000, the tiny steps of
the control evaluation's series, and zero.
"""

import random
from itertools import chain

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnslab import fixedpoint

#: working bits of the exponentials at the 40- and 80-digit rungs, without the range bits of a kernel set
RUNG_BITS = [fixedpoint._dps_bits(dps) + fixedpoint._GUARD_BITS for dps in (40, 80)]
#: largest error of either part of ``_exp``, in units of ``2**-bits``, fixed before the test was run
EXP_ERROR_UNITS = 2


def _exact_exp(rate: complex, n: int, e: int, bits: int):
    """``e^{rate n 2**e} * 2**bits`` in mpmath, from the exact argument, at 80 bits more than ``bits``."""
    with mpmath.workprec(bits + 80 + max(1, abs(n).bit_length())):
        t = mpmath.ldexp(n, e)
        z = mpmath.mpc(mpmath.mpf(rate.real) * t, mpmath.mpf(rate.imag) * t)
    with mpmath.workprec(bits + 80):
        return mpmath.exp(z) * mpmath.ldexp(1, bits)


def _assert_close(rate: complex, n: int, e: int, bits: int) -> None:
    re, im = fixedpoint._exp(rate, n, e, bits)
    want = _exact_exp(rate, n, e, bits)
    assert abs(re - want.real) <= EXP_ERROR_UNITS and abs(im - want.imag) <= EXP_ERROR_UNITS, (rate, n, e, bits)


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(-2000.0, 5.0, **finite),
    y=st.floats(-1000.0, 1000.0, **finite),
    T=st.sampled_from([1.0, 0.16, 3.0, 8.0, 12.0]) | st.floats(1.0 / 64, 16.0, **finite),
    bits=st.sampled_from(RUNG_BITS),
)
@example(x=0.0, y=0.0, T=1.0, bits=RUNG_BITS[0])
@example(x=-1141.5, y=-86.4, T=8.0, bits=RUNG_BITS[0])
@example(x=-(RUNG_BITS[0] + 2) * 0.6931471805599453, y=1.0, T=1.0, bits=RUNG_BITS[0])
@example(x=5.0, y=-1000.0, T=1.0, bits=RUNG_BITS[1])
def test_exponential_of_a_horizon_matches_mpmath(x, y, T, bits):
    # the argument is rate * T with the double rate x/T + i y/T, as a kernel term forms it
    n, e = fixedpoint._ratio(T)
    _assert_close(complex(x / T, y / T), n, e, bits)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-1e-6, 1e-6, **finite),
    y=st.floats(-1e-6, 1e-6, **finite),
    h=st.integers(1, 1 << 200),
    bits=st.sampled_from(RUNG_BITS),
)
@example(x=0.0, y=0.0, h=1, bits=RUNG_BITS[1])
def test_exponential_of_a_tiny_step_matches_mpmath(x, y, h, bits):
    # the control evaluation's step: an integer h at bits fraction bits, scaled so that |z| <= 1e-6
    h = h % (1 << bits) or 1
    _assert_close(complex(x, y), h, -bits, bits)


def test_exponential_underflows_to_zero_below_the_cut_off():
    bits = RUNG_BITS[0]
    assert fixedpoint._exp(complex(-1141.5, 86.4), 1, 0, bits) == (0, 0)
    assert fixedpoint._exp(0j, 12345, -7, bits) == (1 << bits, 0)


@pytest.mark.parametrize("bits", [64, 128, 256, 384, 1024])
def test_reduction_constants_within_one_unit(bits):
    ln2, half_pi = fixedpoint._ln2_half_pi(bits)
    with mpmath.workprec(bits + 64):
        assert abs(ln2 - mpmath.ldexp(mpmath.ln2, bits)) <= 1
        assert abs(half_pi - mpmath.ldexp(mpmath.pi / 2, bits)) <= 1


def test_digits_to_bits_is_mpmaths_rule():
    assert [fixedpoint._dps_bits(d) for d in range(1, 1001)] == [mpmath.libmp.dps_to_prec(d) for d in range(1, 1001)]


def _full_conversion(gram: fixedpoint.Gram) -> np.ndarray:
    """The scaled Gram in doubles, every one of its 2 m**2 integers converted on its own."""
    m = len(gram.re)
    re, im = (np.array(fixedpoint._shift_all(list(chain.from_iterable(part)), 60 - gram.bits), dtype=np.int64)
              .reshape(m, m) for part in (gram.re, gram.im))
    return (re + 1j * im) * 2.0**-60


@pytest.mark.parametrize("m", [1, 2, 7, 32])
def test_float_gram_is_bit_identical_to_the_full_conversion(m):
    rng = random.Random(m)
    bits = 200
    re = [[0] * m for _ in range(m)]
    im = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            # zeros and exact multiples of the discarded bits round the same both ways; others do not
            re[i][j] = rng.choice([0, -(1 << 150), rng.randrange(-(1 << bits), 1 << bits)])
            im[i][j] = rng.choice([0, 3 << 140, rng.randrange(-(1 << bits), 1 << bits)])
            re[j][i], im[j][i] = re[i][j], -im[i][j]
        re[i][i] = rng.randrange(1 << bits, 4 << bits)
    gram = fixedpoint.Gram(re, im, [0] * m, bits, fixedpoint._row_sums(re, im))
    assert fixedpoint.float_gram(gram).tobytes() == _full_conversion(gram).tobytes()
