"""The extended-precision moment pipeline against the per-pair oracle.

Production assembles the Gram from one exponential per kernel term, solves
it by Cholesky on lists, caches the solution's terms for moment integrals
and steps the control from point to point.  ``control_oracle`` keeps the
per-pair exponentials, ``mpmath.lu_solve`` and per-point evaluation.
"""

from __future__ import annotations

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import control_oracle as oracle
from cnslab import control
from cnslab.cli import main
from cnslab.control import MomentRow, MomentSystem, build_moment_system, gram_matrix, synthesize_control
from cnslab.errors import RankDeficient
from cnslab.evolution import ObservationChannel
from cnslab.fields import SpectralField
from cnslab.kernels import TAYLOR_RADIUS, KernelTerm
from cnslab.model import BarotropicParams
from cnslab.spectrum import build_slice

WORKHORSE = BarotropicParams(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3)
# n0 = 2: a Jordan block at mode 2 gives (T-t)**k chain rows
UNIT = BarotropicParams(rho_bar=1.0, u_bar=1.0, mu0=1.0, b=1.0)
# a rate this small puts its diagonal Gram entry on the Taylor branch
SMALL_RATE = complex(-3e-9, 2e-9)

_COMPLEX = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(lambda c: abs(c) > 0.1)


@functools.lru_cache(maxsize=None)
def _slice(params: BarotropicParams, N: int):
    return build_slice(params, N)


def _field(seed: int, N: int) -> SpectralField:
    rng = np.random.default_rng(seed)
    c = np.zeros((2 * N + 1, 2), dtype=complex)
    for n in range(1, N + 1):
        c[n + N] = rng.normal(size=2) + 1j * rng.normal(size=2)
        c[-n + N] = rng.normal(size=2) + 1j * rng.normal(size=2)
    return SpectralField(dim=2, N=N, coeffs=c)


@st.composite
def physical_systems(draw):
    """Moment systems of the workhorse and the Jordan-chain coefficient sets."""
    params = draw(st.sampled_from([WORKHORSE, UNIT]))
    N = draw(st.integers(1, 3))
    T = draw(st.sampled_from([3.0, 5.0, 8.0]))
    field = _field(draw(st.integers(0, 2**16)), N)
    return build_moment_system(field, ObservationChannel.DENSITY, T, _slice(params, N), N)


@st.composite
def kernel_systems(draw):
    """Hand-built rows: separated rates, optional chain pairs and a Taylor-branch rate."""
    T = draw(st.sampled_from([1.0, 2.5, 8.0]))
    cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), min_size=1, max_size=4, unique=True))
    rates = [
        complex(-0.05 - 0.7 * a - draw(st.floats(0.0, 0.2)), 1.3 * b + draw(st.floats(0.0, 0.3))) for a, b in cells
    ]
    if draw(st.booleans()):
        rates.append(SMALL_RATE)
    rows = []
    for n, rate in enumerate(rates, start=1):
        c0, c1 = draw(_COMPLEX), draw(_COMPLEX)
        kernels = [[KernelTerm(c0, rate, 0)]]
        if draw(st.booleans()):
            kernels.append([KernelTerm(c1, rate, 0), KernelTerm(c0, rate, 1)])
        for level, kernel in enumerate(kernels):
            rows.append(MomentRow(n, 0, level, rate, kernel, draw(_COMPLEX), 1.0 + 0j))
    return MomentSystem(ObservationChannel.DENSITY, T, len(rates), rows, 1.0, False)


def _solved(system):
    solution = synthesize_control(system)
    assert solution.solve_dps == 40
    return solution


class TestGram:
    @settings(max_examples=40, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()))
    def test_entries_match_per_pair_oracle(self, system):
        with mpmath.workdps(40):
            got = control._moment_gram([r.kernel for r in system.rows], system.horizon)
            want = oracle.gram_mp(system.rows, system.horizon)
            for i in range(len(system.rows)):
                for j in range(len(system.rows)):
                    assert abs(got[i][j] - want[i, j]) <= 1e-30 * abs(want[i, j])

    def test_taylor_branch_is_exercised(self):
        row = MomentRow(1, 0, 0, SMALL_RATE, [KernelTerm(1.0 + 0j, SMALL_RATE, 0)], 1.0 + 0j, 1.0 + 0j)
        assert abs(2 * SMALL_RATE.real) * 8.0 < TAYLOR_RADIUS
        with mpmath.workdps(40):
            got = control._moment_gram([row.kernel], 8.0)[0][0]
            assert abs(got - oracle.gram_mp([row], 8.0)[0, 0]) <= 1e-30 * abs(got)

    @settings(max_examples=40, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()))
    def test_double_gram_matches_pairwise_loop(self, system):
        got = gram_matrix(system)
        want = oracle.gram_matrix_pairs(system.rows, system.horizon)
        scale = np.sqrt(np.outer(np.diag(want).real, np.diag(want).real))
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestSolution:
    @settings(max_examples=30, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()))
    def test_cholesky_coefficients_match_lu(self, system):
        solution = _solved(system)
        keep = control._duplicate_row_structure(system)[0]
        with mpmath.workdps(solution.solve_dps):
            want = oracle.lu_coefficients([system.rows[i] for i in keep], system.horizon)
            scale = max(abs(v) for v in want)
            for i, w in zip(keep, want):
                assert abs(solution.coefficients_mp[i] - w) <= 1e-25 * scale

    @settings(max_examples=30, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()), degree=st.integers(0, 2))
    def test_moment_integrals_match_per_pair_oracle(self, system, degree):
        solution = _solved(system)
        T = system.horizon
        rates = {row.rate for row in system.rows} | {SMALL_RATE, complex(-2.5, 7.0)}
        with mpmath.workdps(solution.solve_dps):
            for rate in rates:
                # |I_k(z, T)| <= T**(k+1) / (k+1) when Re z <= 0
                scale = mpmath.fsum(
                    abs(x * t.coef) * T ** (t.degree + degree + 1)
                    for x, row in zip(solution.coefficients_mp, system.rows)
                    for t in row.kernel
                )
                got = solution.moment_integral(degree, rate)
                assert abs(got - oracle.moment_integral(solution, degree, rate)) <= 1e-25 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        system=st.one_of(kernel_systems(), physical_systems()),
        points=st.integers(2, 60),
        scattered=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_stepped_control_matches_per_point_exponentials(self, system, points, scattered):
        solution = _solved(system)
        T = system.horizon
        for t in (np.linspace(0.0, T, points), T * np.array(scattered)):
            got = solution(t)
            want = oracle.evaluate_control(solution, t)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_scalar_and_array_shapes(self):
        system = build_moment_system(_field(3, 2), ObservationChannel.DENSITY, 8.0, _slice(WORKHORSE, 2), 2)
        solution = _solved(system)
        grid = np.linspace(0.0, 8.0, 6).reshape(2, 3)
        assert solution(grid).shape == (2, 3)
        assert solution(2.0).shape == (1,)
        assert solution(grid)[1, 1] == solution(grid[1, 1])[0]


class TestProportionalRows:
    def _rows(self, rate_b, target_b):
        rate_a = complex(-1.5, 2.0)
        a = MomentRow(1, 0, 0, rate_a, [KernelTerm(1.0 + 0j, rate_a, 0)], 1.0 + 0j, 1.0 + 0j)
        b = MomentRow(-1, 0, 0, rate_b, [KernelTerm(2.0 + 0j, rate_b, 0)], target_b, 1.0 + 0j)
        return MomentSystem(ObservationChannel.DENSITY, 8.0, 1, [a, b], 1.0, False)

    def test_nearly_equal_rates_agree_in_both_places(self):
        # rates 1e-14 relative apart: both the rank-deficiency record and
        # the deduplication treat the rows as proportional
        rate_b = complex(-1.5, 2.0) * (1.0 + 1e-14)
        assert rate_b != complex(-1.5, 2.0)
        system = self._rows(rate_b, 2.0 + 0j)
        assert control._proportional_rows(*system.rows)
        assert control._rank_deficiency_groups(system.rows) == [(0, 1)]
        keep, inconsistent, dropped = control._duplicate_row_structure(system)
        assert keep == [0] and not inconsistent and [d[:2] for d in dropped] == [(1, 0)]

        contradictory = self._rows(rate_b, -2.0 + 0j)
        assert control._rank_deficiency_groups(contradictory.rows) == [(0, 1)]
        assert control._duplicate_row_structure(contradictory)[1] == [(0, 1)]

    def test_separated_rates_agree_in_both_places(self):
        system = self._rows(complex(-1.5, 2.0) * (1.0 + 1e-9), 2.0 + 0j)
        assert not control._proportional_rows(*system.rows)
        assert control._rank_deficiency_groups(system.rows) == []
        assert control._duplicate_row_structure(system)[0] == [0, 1]


class TestExhaustedLadder:
    def test_shallow_ladder_raises_with_best_residual(self, monkeypatch):
        # 15 digits leave a residual of ~3e-11 on this system, above 1e-12
        monkeypatch.setattr(control, "_DPS_LADDER", (15,))
        system = build_moment_system(_field(1, 4), ObservationChannel.DENSITY, 8.0, _slice(WORKHORSE, 4), 4)
        with pytest.raises(RankDeficient, match=r"best moment residual \d\.\d+e-\d+ > 1e-12"):
            synthesize_control(system)

    def test_no_positive_pivot_raises(self, monkeypatch):
        monkeypatch.setattr(control, "_DPS_LADDER", (10,))
        system = build_moment_system(_field(1, 8), ObservationChannel.DENSITY, 8.0, _slice(WORKHORSE, 8), 8)
        with pytest.raises(RankDeficient, match="not positive definite"):
            synthesize_control(system)

    def test_cli_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(control, "_DPS_LADDER", (10,))
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nsystem = barotropic\ncommand = synthesize\nseed = 7\n\n"
            "[params]\nrho_bar = 1.0\nu_bar = 0.9\nmu0 = 1.0\nb = 1.3\n\n"
            "[synthesize]\nN = 4\nT = 8.0\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical tolerance failure" in err
        assert "Traceback" not in err
