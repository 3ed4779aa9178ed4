"""The closed-form singular values of the slice's small blocks.

``spectrum._closed_form_svd`` gives the largest singular value of each 2x2
or 3x3 block (the residual scale of every eigenpair) and the condition
number of each 2x2 basis block (``SpectrumSlice.conds``).  Its norms are
compared with ``np.linalg.norm(M, 2)``, its condition numbers and the norms
where LAPACK itself drifts with the 40-digit singular values of
``spectrum_oracle``.  The bounds were set before the first run:

* norms within ``8 eps`` of LAPACK's, whose own error on random blocks is up
  to ``3 eps``, and within ``2 eps`` of the 40-digit value;
* a 2x2 condition number within ``4 eps (1 + cond)`` relative of the 40-digit
  value: the determinant of a block near singularity carries an absolute
  error of a few ``eps |M|**2``, relative ``eps cond``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy.linalg._linalg as _linalg
import spectrum_oracle as oracle
from cnslab import cli, spectrum
from cnslab.spectrum import _closed_form_svd, build_slice
from test_spectrum_fastpaths import NAMED

EPS = float(np.finfo(float).eps)
NORM_RTOL_LAPACK = 8 * EPS
NORM_RTOL_40 = 2 * EPS
COND_RTOL = 4 * EPS

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: real and imaginary parts: signed zeros and magnitudes 2**-40 .. 2**40 of either sign
_PART = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=2.0**-40, max_value=2.0**40),
    st.floats(min_value=-(2.0**40), max_value=-(2.0**-40)),
)


@st.composite
def _stacks(draw, dim: int, most: int = 6) -> np.ndarray:
    k = draw(st.integers(1, most))
    parts = draw(st.lists(_PART, min_size=2 * k * dim * dim, max_size=2 * k * dim * dim))
    return np.array(parts).view(complex).reshape(k, dim, dim)


def _near(got, ref, rtol) -> bool:
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= rtol * np.abs(ref)))


def _conds_near(got, ref) -> bool:
    got, ref = np.asarray(got), np.asarray(ref)
    finite = np.isfinite(ref)
    if not np.array_equal(np.isfinite(got), finite):
        return False
    got, ref = got[finite], ref[finite]
    return bool(np.all(np.abs(got - ref) <= COND_RTOL * (1.0 + ref) * ref))


def _lapack_norms(M):
    return np.linalg.norm(M, 2, axis=(1, 2))


class TestNorms:
    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    @settings(max_examples=60, **_SETTINGS)
    def test_random_blocks(self, dim, data):
        M = data.draw(_stacks(dim))
        assert _near(_closed_form_svd(M), _lapack_norms(M), NORM_RTOL_LAPACK)

    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    @settings(max_examples=60, **_SETTINGS)
    def test_rank_one_blocks(self, dim, data):
        u = data.draw(_stacks(dim))[:, :, 0]
        v = data.draw(_stacks(dim))[: u.shape[0], 0, :]
        u = u[: v.shape[0]]
        M = u[:, :, None] * v[:, None, :]
        assert _near(_closed_form_svd(M), _lapack_norms(M), NORM_RTOL_LAPACK)

    def test_zero_blocks(self):
        for dim in (2, 3):
            zero = np.zeros((2, dim, dim), dtype=complex)
            zero[1] = -0.0
            assert _closed_form_svd(zero).tolist() == [0.0, 0.0]
        assert _closed_form_svd(np.zeros((1, 2, 2), dtype=complex), condition=True).tolist() == [np.inf]

    @pytest.mark.parametrize("dim", [2, 3])
    @given(c=st.tuples(_PART, _PART))
    @settings(max_examples=60, **_SETTINGS)
    def test_multiples_of_the_identity(self, dim, c):
        # a 3x3 multiple of the identity is the p = 0 branch of the cubic
        M = complex(*c) * np.eye(dim, dtype=complex)[None]
        norm = _closed_form_svd(M)
        assert _near(norm, _lapack_norms(M), NORM_RTOL_LAPACK)
        assert _near(norm, [abs(complex(*c))], NORM_RTOL_40)
        if dim == 2:
            assert _conds_near(_closed_form_svd(M, condition=True), [1.0 if complex(*c) else np.inf])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_two_largest_singular_values_meet(self, dim):
        # U diag(1 + d, 1, s) V: the 3x3 cubic loses half the digits here and
        # takes the deflated root; LAPACK drifts by tens of eps at small d
        rng = np.random.default_rng(3)
        blocks = []
        for d in (0.0, 1e-14, 1e-10, 1e-6, 1e-3, 0.1):
            for s in (0.3, 1.0, 1e-9):
                U, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
                V, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
                blocks.append(U @ np.diag([1.0 + d, 1.0, s][:dim]) @ V)
        M = np.array(blocks)
        ref = [oracle.singular_values(block)[0] for block in M]
        assert _near(_closed_form_svd(M), ref, NORM_RTOL_40)

    def test_against_lapack_on_the_named_symbols(self):
        for params in NAMED.values():
            for N in (96, 1024):
                ns = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
                M = spectrum._symbols(params, ns)
                assert _near(_closed_form_svd(M), _lapack_norms(M), NORM_RTOL_LAPACK)


class TestExactness:
    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    @settings(max_examples=60, **_SETTINGS)
    def test_powers_of_two_scale_exactly(self, dim, data):
        M = data.draw(_stacks(dim))
        norm = _closed_form_svd(M)
        for power in (600, -600):
            assert np.array_equal(_closed_form_svd(M * 2.0**power), np.ldexp(norm, power))
        if dim == 2:
            cond = _closed_form_svd(M, condition=True)
            for power in (600, -600):
                assert _closed_form_svd(M * 2.0**power, condition=True).tobytes() == cond.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    @settings(max_examples=60, **_SETTINGS)
    def test_signed_zeros(self, dim, data):
        # the sign of a zero part changes no bit of the result
        M = data.draw(_stacks(dim))
        parts = M.view(float)
        plus, minus = M.copy(), M.copy()
        plus.view(float)[parts == 0.0] = 0.0
        minus.view(float)[parts == 0.0] = -0.0
        for condition in (False, True) if dim == 2 else (False,):
            got = _closed_form_svd(M, condition)
            assert got.tobytes() == _closed_form_svd(plus, condition).tobytes()
            assert got.tobytes() == _closed_form_svd(minus, condition).tobytes()


class TestConditionNumbers:
    @given(M=_stacks(2, most=3))
    @settings(max_examples=100, **_SETTINGS)
    def test_random_blocks_against_40_digits(self, M):
        assert _conds_near(_closed_form_svd(M, condition=True), oracle.condition_numbers(M))

    def test_near_singular_blocks_against_40_digits(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        M = np.stack([rows, rows * (1.0 + 1e-3j)], axis=1)
        M[:, 1] += np.logspace(-15, -1, 12)[:, None] * (rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)))
        M[0, 1] = 2.0 * M[0, 0]  # exactly singular
        conds = _closed_form_svd(M, condition=True)
        assert conds[0] == np.inf
        assert _conds_near(conds, oracle.condition_numbers(M))

    @pytest.mark.parametrize("name,N", [("workhorse", 24), ("unit_barotropic", 24), ("uc_failing", 24)])
    def test_slice_conds(self, name, N):
        slice_ = build_slice(NAMED[name], N)
        assert _conds_near(slice_.conds, oracle.condition_numbers(slice_.basis.basis))

    def test_three_field_conds_stay_on_lapack(self):
        slice_ = build_slice(NAMED["triple_root"], 8)
        assert slice_.conds.tobytes() == np.linalg.cond(slice_.basis.basis).tobytes()

    def test_singular_basis_block_through_observe(self, tmp_path, capsys, monkeypatch):
        # a singular 2x2 basis block has condition number inf and stops the
        # expansion at its mode: exit 2, the mode named
        build = cli.build_slice

        def singular_at_3(params, N):
            slice_ = build(params, N)
            basis = slice_.basis.basis.copy()
            r = slice_.basis.rows([3])[0]
            basis[r, :, 1] = basis[r, :, 0]
            return dataclasses.replace(slice_, basis=slice_.basis._replace(basis=basis))

        monkeypatch.setattr(cli, "build_slice", singular_at_3)
        config = tmp_path / "observe.ini"
        config.write_text("[run]\nsystem = barotropic\ncommand = observe\n\n[params]\nrho_bar = 1.0\nu_bar = 0.9\n"
                          "mu0 = 1.0\nb = 1.3\n\n[observe]\nN = 6\nT = 2.0\ntrials = 4\n")
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "mode 3: expansion matrix condition number inf exceeds budget" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("name,N", [("workhorse", 112), ("shared_eigenvalue", 96)])
def test_build_slice_makes_no_svd_call(monkeypatch, name, N):
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setattr(_linalg, "svd", spy)  # the name np.linalg.norm and cond call
    np.linalg.norm(np.eye(2)[None], 2, axis=(1, 2))  # the spy is live
    assert len(calls) == 1
    calls.clear()
    build_slice(NAMED[name], N)
    assert calls == []
