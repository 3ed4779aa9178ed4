"""The three-product integer kernels of ``fixedpoint`` against the four-product forms of ``control_oracle``.

Production forms each complex inner product from three integer dot
products (Gauss's complex multiplication); ``control_oracle`` keeps the
four-product forms they replace.  Both are exact integer identities, so
the Cholesky factor, the forward and back substitutions and the Gram
products must agree integer for integer, on random integer Grams and
vectors of mixed signs and sizes, at the fraction bits of the 40-, 80- and
160-digit rungs.
"""

import control_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from cnslab import fixedpoint

RUNG_DPS = (40, 80, 160)


def _mixed(bits: int):
    """Integers of either sign whose size is drawn too, below ``2**bits`` in modulus."""
    return st.integers(0, bits).flatmap(lambda k: st.integers(-(1 << k) + 1, (1 << k) - 1))


@st.composite
def grams(draw):
    """``(dps, gram)``: a Hermitian integer Gram at a rung's bits with a unit diagonal up to a factor below 4.

    Off-diagonal parts have mixed sizes, or, in a coupled Gram, the
    diagonal's size, so that some Grams are not definite and both paths
    meet the first pivot that is not positive.
    """
    dps = draw(st.sampled_from(RUNG_DPS))
    bits = fixedpoint._dps_bits(dps) + fixedpoint._GUARD_BITS + draw(st.integers(0, 40))
    m = draw(st.integers(1, 7))
    part = st.integers(-(2 << bits), 2 << bits) if draw(st.booleans()) else _mixed(bits)
    re = [[0] * m for _ in range(m)]
    im = [[0] * m for _ in range(m)]
    for i in range(m):
        re[i][i] = draw(st.integers(1 << bits, (4 << bits) - 1))
        for j in range(i + 1, m):
            re[i][j], im[i][j] = draw(part), draw(part)
            re[j][i], im[j][i] = re[i][j], -im[i][j]
    return dps, fixedpoint.Gram(re, im, [0] * m, bits, fixedpoint._row_sums(re, im))


def _vector(data, m: int, bits: int) -> fixedpoint.ScaledVector:
    part = st.lists(_mixed(bits), min_size=m, max_size=m)
    re, im = data.draw(part), data.draw(part)
    if not any(re + im):
        re[0] = 1
    return fixedpoint.ScaledVector(re, im, data.draw(st.integers(-1100, 1100)))


@settings(max_examples=200, deadline=None)
@given(case=grams())
def test_factor_equals_the_four_product_factor(case):
    dps, gram = case
    got, want = fixedpoint.factor(gram, dps), oracle.factor_four(gram, dps)
    assert (got is None) == (want is None)
    if got is not None:
        bits, Lr, Li, d, Ls, Ur, Ui, Us = got
        assert (bits, Lr, Li, d, Ur, Ui) == want
        assert Ls == fixedpoint._row_sums(Lr, Li) and Us == fixedpoint._row_sums(Ur, Ui)


@settings(max_examples=200, deadline=None)
@given(case=grams(), data=st.data())
def test_substitutions_equal_the_four_product_substitutions(case, data):
    dps, gram = case
    got = fixedpoint.factor(gram, dps)
    if got is None:
        return
    want = oracle.factor_four(gram, dps)
    b = _vector(data, len(gram.re), 2 * got[0])
    assert fixedpoint.forward(got, b) == oracle.forward_four(want, b)
    assert fixedpoint._cholesky_solve(got, b) == oracle.cholesky_solve_four(want, b)


@settings(max_examples=200, deadline=None)
@given(dps=st.sampled_from(RUNG_DPS), m=st.integers(1, 7), data=st.data())
def test_triangular_substitution_equals_the_four_product_form(dps, m, data):
    # any lower triangle, not only a Cholesky factor's: rows of mixed sizes over positive pivots
    bits = fixedpoint._dps_bits(dps)
    Lr = [data.draw(st.lists(_mixed(bits), min_size=i, max_size=i)) for i in range(m)]
    Li = [data.draw(st.lists(_mixed(bits), min_size=i, max_size=i)) for i in range(m)]
    d = data.draw(st.lists(st.integers(1, 1 << bits), min_size=m, max_size=m))
    br, bi = (data.draw(st.lists(_mixed(2 * bits), min_size=m, max_size=m)) for _ in range(2))
    got = fixedpoint._substitute(Lr, Li, fixedpoint._row_sums(Lr, Li), d, br, bi)
    assert got == oracle.substitute_four(Lr, Li, d, br, bi)


@settings(max_examples=200, deadline=None)
@given(dps=st.sampled_from(RUNG_DPS), rows=st.integers(1, 7), cols=st.integers(1, 7), data=st.data())
def test_gram_times_equals_the_four_product_form(dps, rows, cols, data):
    # square or not: the solve's Gram and the verification's cross Gram go through the same product
    bits = fixedpoint._dps_bits(dps) + fixedpoint._GUARD_BITS
    matrix = st.lists(st.lists(_mixed(bits), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    re, im = data.draw(matrix), data.draw(matrix)
    x = _vector(data, cols, 2 * bits)
    got = fixedpoint._gram_times(re, im, fixedpoint._row_sums(re, im), x.re, x.im)
    assert got == oracle.gram_times_four(re, im, x.re, x.im)
