"""The extended-precision moment pipeline against the per-pair mpmath oracle.

Production works on complex pairs of ``decimal.Decimal``: it assembles the
Gram from one exponential per kernel term, solves it by Cholesky on lists,
keeps the Gram for the verification, which integrates only the rows outside
it, and steps the control from point to point.  ``control_oracle`` keeps
mpmath numbers, per-pair exponentials, ``mpmath.lu_solve``, an mpmath
Cholesky ladder and per-point evaluation.
"""

from __future__ import annotations

import dataclasses
import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import control_oracle as oracle
from cnslab import cli, control
from cnslab.cli import main
from cnslab.control import (
    MomentRow,
    MomentSystem,
    build_moment_system,
    gram_matrix,
    synthesize_control,
    verify_terminal,
)
from cnslab.errors import ArithmeticFailure, RankDeficient
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
def physical_cases(draw):
    """``(field, slice, system)`` of the workhorse and the Jordan-chain coefficient sets.

    The slice reaches two modes beyond the truncation, so a verification on
    it has spill-over rows.
    """
    params = draw(st.sampled_from([WORKHORSE, UNIT]))
    N = draw(st.integers(1, 3))
    T = draw(st.sampled_from([3.0, 5.0, 8.0]))
    field = _field(draw(st.integers(0, 2**16)), N)
    slice_ = _slice(params, N + 2)
    return field, slice_, build_moment_system(field, ObservationChannel.DENSITY, T, slice_, N)


def physical_systems():
    """Moment systems of :func:`physical_cases`."""
    return physical_cases().map(lambda case: case[2])


@st.composite
def kernel_systems(draw):
    """Hand-built rows: separated rates, optional chain pairs, a Taylor-branch rate and a proportional duplicate."""
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
    if draw(st.booleans()):
        # a consistent multiple of the first row, from another mode: dropped before the solve
        first, factor = rows[0], draw(_COMPLEX)
        kernel = [KernelTerm(factor * first.kernel[0].coef, first.rate, 0)]
        rows.append(MomentRow(-1, 0, 0, first.rate, kernel, factor * first.target, 1.0 + 0j))
    return MomentSystem(ObservationChannel.DENSITY, T, len(rates), rows, 1.0, False)


#: digits the Gram and coefficient references carry beyond the production rung: at
#: equal precision their own rounding reaches 4e-31 (Gram entries with cancelling
#: chain terms) and 4.5e-25 * max|x| (LU on an ill-conditioned T = 1 system),
#: at or above the bounds checked
_REFERENCE_DIGITS = 20


def _solved(system):
    solution = synthesize_control(system)
    assert solution.solve_dps == 40
    return solution


def _as_mp(re, im) -> list[list]:
    """Decimal entries as mpmath complexes at the working precision."""
    return [[control._mpc(a, b) for a, b in zip(r, i)] for r, i in zip(re, im)]


def _gram(rows, T: float, columns=None) -> list[list]:
    """Production cross-Gram of ``rows`` against ``columns`` (default: the Hermitian Gram of ``rows``) at 40 digits."""
    with control._working_digits(40):
        terms = [control._decimal_terms(r.kernel, T) for r in rows]
        return _as_mp(*control._moment_gram(terms, terms if columns is None else columns, T))


class TestGram:
    @settings(max_examples=40, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()))
    def test_entries_match_per_pair_oracle(self, system):
        got = _gram(system.rows, system.horizon)
        with mpmath.workdps(40 + _REFERENCE_DIGITS):
            want = oracle.gram_mp(system.rows, system.horizon)
            for i in range(len(system.rows)):
                for j in range(len(system.rows)):
                    assert abs(got[i][j] - want[i, j]) <= 1e-30 * abs(want[i, j])

    def test_taylor_branch_is_exercised(self):
        row = MomentRow(1, 0, 0, SMALL_RATE, [KernelTerm(1.0 + 0j, SMALL_RATE, 0)], 1.0 + 0j, 1.0 + 0j)
        assert abs(2 * SMALL_RATE.real) * 8.0 < TAYLOR_RADIUS
        got = _gram([row], 8.0)[0][0]
        with mpmath.workdps(40 + _REFERENCE_DIGITS):
            assert abs(got - oracle.gram_mp([row], 8.0)[0, 0]) <= 1e-30 * abs(got)

    @pytest.mark.parametrize("rate", [complex(-3e-30, 2e-30), complex(-1e-18, 0.0), complex(0.0, 4e-20)])
    def test_taylor_branch_at_rates_the_recurrence_cannot_resolve(self, rate):
        # e^{zT} - 1 cancels every digit the recurrence carries at these rates
        rows = [MomentRow(1, 0, 0, rate, [KernelTerm(1.0 + 0j, rate, d) for d in (0, 1)], 1.0 + 0j, 1.0 + 0j)]
        got = _gram(rows, 8.0)[0][0]
        with mpmath.workdps(40 + _REFERENCE_DIGITS):
            assert abs(got - oracle.gram_mp(rows, 8.0)[0, 0]) <= 1e-30 * abs(got)

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
        with mpmath.workdps(solution.solve_dps + _REFERENCE_DIGITS):
            want = oracle.lu_coefficients([system.rows[i] for i in keep], system.horizon)
            scale = max(abs(v) for v in want)
            for i, w in zip(keep, want):
                assert abs(solution.coefficients_mp[i] - w) <= 1e-25 * scale

    def test_ill_conditioned_coefficients_match_lu(self):
        # T = 1 with chains at -0.05, -0.05 + 1.3i and a near-zero rate: the
        # Gram's condition number is about 1e19, so the 40-digit Cholesky
        # alone leaves ~1e-24 * max|x| in the coefficients; the guard-digit
        # refinement step brings them to the bound
        rows = []
        for n, rate in enumerate([complex(-0.05, 0.0), complex(-0.05, 1.3), SMALL_RATE], start=1):
            rows.append(MomentRow(n, 0, 0, rate, [KernelTerm(1j, rate, 0)], 1j, 1.0 + 0j))
            rows.append(MomentRow(n, 0, 1, rate, [KernelTerm(1j, rate, 0), KernelTerm(1j, rate, 1)], 1j, 1.0 + 0j))
        system = MomentSystem(ObservationChannel.DENSITY, 1.0, 3, rows, 1.0, False)
        solution = _solved(system)
        with mpmath.workdps(solution.solve_dps + _REFERENCE_DIGITS):
            want = oracle.lu_coefficients(rows, system.horizon)
            scale = max(abs(v) for v in want)
            assert scale > 1e9
            for got, w in zip(solution.coefficients_mp, want):
                assert abs(got - w) <= 1e-25 * scale

    @settings(max_examples=30, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()))
    def test_solve_dps_matches_oracle_ladder(self, system):
        assert synthesize_control(system).solve_dps == oracle.ladder_solve(system)[0]

    @settings(max_examples=30, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()), degree=st.integers(0, 2))
    def test_moment_integrals_match_per_pair_oracle(self, system, degree):
        # the row of the cross block of kernel (T-t)**degree e^{rate (T-t)}
        # against the kept columns, times the coefficients, is the moment
        # integral of p against that kernel
        solution = _solved(system)
        T = system.horizon
        rates = {row.rate for row in system.rows} | {SMALL_RATE, complex(-2.5, 7.0)}
        rows = [MomentRow(1, 0, 0, rate, [KernelTerm(1.0 + 0j, rate, degree)], 0j, 0j) for rate in rates]
        kept = [solution.coefficients_mp[i] for i in solution.keep]
        with mpmath.workdps(solution.solve_dps):
            block = _gram(rows, T, columns=solution.columns)
            # |I_k(z, T)| <= T**(k+1) / (k+1) when Re z <= 0
            scale = mpmath.fsum(
                abs(x * t.coef) * T ** (t.degree + degree + 1)
                for x, row in zip(solution.coefficients_mp, system.rows)
                for t in row.kernel
            )
            for row, entries in zip(rows, block):
                got = mpmath.fdot(entries, kept)
                assert abs(got - oracle.moment_integral(solution, degree, row.rate)) <= 1e-25 * scale

    @settings(max_examples=20, deadline=None)
    @given(case=physical_cases())
    def test_verify_residuals_match_per_pair_moment_integrals(self, case):
        field, slice_, system = case
        solution = _solved(system)
        record = verify_terminal(field, solution, system, slice_, slice_.N)
        T = system.horizon
        with mpmath.workdps(solution.solve_dps):
            for j, row in control._chain_rows(field, system.channel, T, slice_, slice_.N):
                forced = mpmath.fsum(
                    mpmath.mpc(t.coef) * oracle.moment_integral(solution, t.degree, t.rate) for t in row.kernel
                )
                want = abs(complex(mpmath.mpc(-row.target) + forced))
                scale = mpmath.fsum(
                    abs(t.coef * x * u.coef) * T ** (t.degree + u.degree + 1)
                    for t in row.kernel
                    for x, kept in zip(solution.coefficients_mp, system.rows)
                    for u in kept.kernel
                )
                got = record.per_row_residuals[(row.n, row.cluster_index, j)]
                assert abs(got - want) <= 1e-25 * scale + 1e-15 * want

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


class TestOraclePath:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_benchmark_outputs_match_the_mpmath_path(self, seed):
        # the control-roundtrip configuration: N = 8, T = 8, N_verify = 12,
        # 51 grid points; the control, its norm and the spill-over agree with
        # the all-mpmath path within 1e-12 relative
        slice_ = _slice(WORKHORSE, 12)
        field = cli._random_mean_zero_field(2, 8, np.random.default_rng(seed))
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 8)
        solution = synthesize_control(system)
        record = verify_terminal(field, solution, system, slice_, 12)

        dps, x_keep, control_norm = oracle.ladder_solve(system)
        assert solution.solve_dps == dps
        x_full = [mpmath.mpc(0)] * len(system.rows)
        for i, x in zip(solution.keep, x_keep):
            x_full[i] = x
        reference = dataclasses.replace(solution, coefficients_mp=x_full)

        grid = np.linspace(0.0, 8.0, 51)
        want = oracle.evaluate_control(reference, grid)
        assert np.max(np.abs(solution(grid) - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(solution.control_norm - control_norm) <= 1e-12 * control_norm
        spill: dict[int, float] = {}
        with mpmath.workdps(dps):
            for _, row in control._chain_rows(field, system.channel, 8.0, slice_, 12):
                if abs(row.n) > 8:
                    forced = mpmath.fsum(
                        mpmath.mpc(t.coef) * oracle.moment_integral(reference, t.degree, t.rate) for t in row.kernel
                    )
                    spill[row.n] = max(spill.get(row.n, 0.0), abs(complex(mpmath.mpc(-row.target) + forced)))
        assert sorted(spill) == sorted(record.spillover)
        for n, value in spill.items():
            assert abs(record.spillover[n] - value) <= 1e-12 * value


class TestArithmeticSignals:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "coef,target",
        [(complex(np.nan, 0.0), 1.0 + 0j), (complex(np.inf, 1.0), 1.0 + 0j), (complex(np.inf, 0.0), 0j)],
        ids=["nan", "inf", "inf-zero-targets"],
    )
    def test_non_finite_kernel_coefficient_is_a_typed_error(self, coef, target):
        rate_a, rate_b = complex(-1.5, 2.0), complex(-0.7, -1.0)
        rows = [
            MomentRow(1, 0, 0, rate_a, [KernelTerm(1.0 + 0j, rate_a, 0)], target, 1.0 + 0j),
            MomentRow(2, 0, 0, rate_b, [KernelTerm(coef, rate_b, 0)], target, 1.0 + 0j),
        ]
        system = MomentSystem(ObservationChannel.DENSITY, 8.0, 2, rows, 1.0, False)
        with pytest.raises(ArithmeticFailure):
            synthesize_control(system)

    def test_decimal_signal_exits_3(self, tmp_path, monkeypatch, capsys):
        rate = complex(-1.5, 2.0)
        row = MomentRow(1, 0, 0, rate, [KernelTerm(complex(np.nan, 0.0), rate, 0)], 1.0 + 0j, 1.0 + 0j)
        system = MomentSystem(ObservationChannel.DENSITY, 8.0, 1, [row], 1.0, False)
        monkeypatch.setattr(cli, "build_moment_system", lambda *args: system)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nsystem = barotropic\ncommand = synthesize\nseed = 7\n\n"
            "[params]\nrho_bar = 1.0\nu_bar = 0.9\nmu0 = 1.0\nb = 1.3\n\n"
            "[synthesize]\nN = 1\nT = 8.0\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical tolerance failure" in err and "InvalidOperation" in err
        assert "Traceback" not in err


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
