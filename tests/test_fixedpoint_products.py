"""The integer kernels of ``fixedpoint`` against the four-product forms of ``control_oracle``.

Production forms the complex inner products of the Cholesky factor and the
substitutions from three integer dot products (Gauss's complex
multiplication), and the Gram products from the four products of each part
pair that is not all zero; ``control_oracle`` keeps the four-product forms.
Both are exact integer identities, so the Cholesky factor of a real form
without pairs (every row complex), the forward and back substitutions and
the Gram products must agree integer for integer, on random integer Grams
and vectors of mixed signs and sizes, at the fraction bits of the 40-, 80-
and 160-digit rungs.
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
    return dps, fixedpoint.Gram(re, im, [0] * m, bits, [0] * m, [None] * m)


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
    assert fixedpoint.factor(_unpaired(gram), dps) == oracle.factor_four(gram, dps)


def _unpaired(gram: fixedpoint.Gram) -> fixedpoint.RealForm:
    """The real form of ``gram`` with no partners: ``gram``'s own integers, every row complex."""
    form = fixedpoint.real_form(gram)
    assert (form.re, form.im, form.bits, form.real) == (gram.re, gram.im, gram.bits, 0)
    assert not any(form.shifts)
    return form


@settings(max_examples=200, deadline=None)
@given(case=grams(), data=st.data())
def test_substitutions_equal_the_four_product_substitutions(case, data):
    dps, gram = case
    got = fixedpoint.factor(_unpaired(gram), dps)
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
    got = fixedpoint._substitute(Lr, Li, d, br, bi)
    assert got == oracle.substitute_four(Lr, Li, d, br, bi)


@settings(max_examples=200, deadline=None)
@given(dps=st.sampled_from(RUNG_DPS), rows=st.integers(1, 7), cols=st.integers(1, 7), data=st.data())
def test_gram_times_equals_the_four_product_form(dps, rows, cols, data):
    # square or not: the solve's Gram and the verification's cross Gram go through the same product; a
    # real form's rows keep only their last imaginary parts, and a real vector takes no imaginary products
    bits = fixedpoint._dps_bits(dps) + fixedpoint._GUARD_BITS
    matrix = st.lists(st.lists(_mixed(bits), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    re, im = data.draw(matrix), data.draw(matrix)
    x = _vector(data, cols, 2 * bits)
    if data.draw(st.booleans()):
        x = x._replace(im=[0] * cols)
    tails = data.draw(st.lists(st.integers(0, cols), min_size=rows, max_size=rows))
    im = [row[cols - k:] if k < cols else row for row, k in zip(im, tails)]
    padded = [[0] * (cols - len(row)) + row for row in im]
    assert fixedpoint._times(re, im, x) == oracle.gram_times_four(re, padded, x.re, x.im)
