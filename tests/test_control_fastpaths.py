"""The extended-precision moment pipeline against the per-pair mpmath oracle.

Production works on Python integers with power-of-two scales: it assembles
the Gram from one exponential per kernel term at the rung's bits plus guard
and range bits, scales its rows and columns to a unit diagonal, solves it by
Cholesky on lists of integers, keeps the Gram for the verification, which
integrates only the rows outside it, and steps the control from point to
point.  ``control_oracle`` keeps mpmath numbers, per-pair exponentials,
``mpmath.lu_solve``, an mpmath Cholesky ladder and per-point evaluation.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import control_oracle as oracle
from cnslab import cli, control, fixedpoint, walk
from cnslab.cli import main
from cnslab.control import (
    MomentRow,
    MomentSystem,
    build_moment_system,
    synthesize_control,
    verify_terminal,
)
from cnslab.errors import ArithmeticFailure, DomainError, RankDeficient
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
            rows.append(MomentRow(n, 0, level, rate, kernel, draw(_COMPLEX)))
    if draw(st.booleans()):
        # a consistent multiple of the first row, from another mode: dropped before the solve
        first, factor = rows[0], draw(_COMPLEX)
        kernel = [KernelTerm(factor * first.kernel[0].coef, first.rate, 0)]
        rows.append(MomentRow(-1, 0, 0, first.rate, kernel, factor * first.target))
    return MomentSystem(ObservationChannel.DENSITY, T, len(rates), rows, False)


#: digits the Gram and coefficient references carry beyond the production rung: at
#: equal precision their own rounding reaches 4e-31 (Gram entries with cancelling
#: chain terms) and 4.5e-25 * max|x| (LU on an ill-conditioned T = 1 system),
#: at or above the bounds checked
_REFERENCE_DIGITS = 20


def _solved(system):
    solution = synthesize_control(system)
    assert solution.solve_dps == 40
    return solution


def _mates(solution) -> list:
    """The partners of the solution's columns, none for the zero control."""
    return solution.gram.mates if solution.gram else []


def _gram(rows, T: float, columns=None, bits=None) -> list[list]:
    """Production cross-Gram of ``rows`` against ``columns`` as exact mpmath complexes.

    ``columns`` defaults to the rows themselves (the Hermitian Gram) and
    ``bits`` to the 40-digit rung's fraction bits for ``rows``; the columns
    of a solution need the solution's bits.
    """
    if bits is None:
        range_bits = fixedpoint._range_bits([r.kernel for r in rows], T)
        bits = mpmath.libmp.dps_to_prec(40) + fixedpoint._GUARD_BITS + range_bits
    kernels = fixedpoint._kernels([("row", r.kernel) for r in rows], T, bits)
    columns = kernels if columns is None else columns
    mates = fixedpoint.partners(kernels)
    re, im = fixedpoint._moment_gram(kernels, columns, T, bits, mates,
                                     mates if columns is kernels else fixedpoint.partners(columns))
    return [
        [oracle.mp_complex(a, b, kernel.exp + column.exp - bits) for a, b, column in zip(ra, ia, columns)]
        for ra, ia, kernel in zip(re, im, kernels)
    ]


def _chain_system(T: float, rate: complex) -> MomentSystem:
    """A chain pair at one rate: ``i e^{rate s}`` and ``-i e^{rate s} + i s e^{rate s}``."""
    rows = [
        MomentRow(1, 0, 0, rate, [KernelTerm(1j, rate, 0)], 1j),
        MomentRow(1, 0, 1, rate, [KernelTerm(-1j, rate, 0), KernelTerm(1j, rate, 1)], 1j),
    ]
    return MomentSystem(ObservationChannel.DENSITY, T, 1, rows, False)


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
        row = MomentRow(1, 0, 0, SMALL_RATE, [KernelTerm(1.0 + 0j, SMALL_RATE, 0)], 1.0 + 0j)
        assert abs(2 * SMALL_RATE.real) * 8.0 < TAYLOR_RADIUS
        got = _gram([row], 8.0)[0][0]
        with mpmath.workdps(40 + _REFERENCE_DIGITS):
            assert abs(got - oracle.gram_mp([row], 8.0)[0, 0]) <= 1e-30 * abs(got)

    @pytest.mark.parametrize("rate", [complex(-3e-30, 2e-30), complex(-1e-18, 0.0), complex(0.0, 4e-20)])
    def test_taylor_branch_at_rates_the_recurrence_cannot_resolve(self, rate):
        # e^{zT} - 1 cancels every digit the recurrence carries at these rates
        rows = [MomentRow(1, 0, 0, rate, [KernelTerm(1.0 + 0j, rate, d) for d in (0, 1)], 1.0 + 0j)]
        got = _gram(rows, 8.0)[0][0]
        with mpmath.workdps(40 + _REFERENCE_DIGITS):
            assert abs(got - oracle.gram_mp(rows, 8.0)[0, 0]) <= 1e-30 * abs(got)

    @settings(max_examples=40, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()))
    # a degree-2 chain pair at |z| T = 0.25, just outside the degree-0 Taylor ball
    @example(system=_chain_system(2.5, complex(-0.05, 0.0)))
    def test_double_gram_matches_pairwise_loop(self, system):
        got = oracle.gram_matrix(system)
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
            got = oracle.coefficients_mp(solution)
            for i, w in zip(keep, want):
                assert abs(got[i] - w) <= 1e-25 * scale

    def test_ill_conditioned_coefficients_match_lu(self):
        # T = 1 with chains at -0.05, -0.05 + 1.3i and a near-zero rate: the
        # Gram's condition number is about 1e19, so the 40-digit Cholesky
        # alone leaves ~1e-24 * max|x| in the coefficients; the guard-digit
        # refinement step brings them to the bound
        rows = []
        for n, rate in enumerate([complex(-0.05, 0.0), complex(-0.05, 1.3), SMALL_RATE], start=1):
            rows.append(MomentRow(n, 0, 0, rate, [KernelTerm(1j, rate, 0)], 1j))
            rows.append(MomentRow(n, 0, 1, rate, [KernelTerm(1j, rate, 0), KernelTerm(1j, rate, 1)], 1j))
        system = MomentSystem(ObservationChannel.DENSITY, 1.0, 3, rows, False)
        solution = _solved(system)
        with mpmath.workdps(solution.solve_dps + _REFERENCE_DIGITS):
            want = oracle.lu_coefficients(rows, system.horizon)
            scale = max(abs(v) for v in want)
            assert scale > 1e9
            for got, w in zip(oracle.coefficients_mp(solution), want):
                assert abs(got - w) <= 1e-25 * scale

    @pytest.mark.parametrize("N,dps", [(6, 80), (8, 160)], ids=["rung80", "rung160"])
    @pytest.mark.parametrize("params", [WORKHORSE, UNIT], ids=["workhorse", "jordan-chain"])
    def test_second_rung_coefficients_match_lu(self, params, N, dps):
        # 4N rows at T = 0.5, far below the critical time: a pivot of the
        # 40-digit Cholesky is not positive, and the ladder solves at 80
        # digits; at N = 8 the 80-digit residual misses the gate too, and the
        # ladder solves at 160
        system = build_moment_system(_field(1, N), ObservationChannel.DENSITY, 0.5, _slice(params, N), N)
        solution = synthesize_control(system)
        assert solution.solve_dps == oracle.ladder_solve(system)[0] == dps
        keep = control._duplicate_row_structure(system)[0]
        with mpmath.workdps(solution.solve_dps + _REFERENCE_DIGITS):
            want = oracle.lu_coefficients([system.rows[i] for i in keep], system.horizon)
            scale = max(abs(v) for v in want)
            got = oracle.coefficients_mp(solution)
            for i, w in zip(keep, want):
                assert abs(got[i] - w) <= 1e-25 * scale

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
        rows = [MomentRow(1, 0, 0, rate, [KernelTerm(1.0 + 0j, rate, degree)], 0j) for rate in rates]
        with mpmath.workdps(solution.solve_dps):
            coefficients = oracle.coefficients_mp(solution)
            kept = [coefficients[i] for i in solution.keep]
            block = _gram(rows, T, columns=solution.columns, bits=solution.columns[0].bits)
            # |I_k(z, T)| <= T**(k+1) / (k+1) when Re z <= 0
            scale = mpmath.fsum(
                abs(x * t.coef) * T ** (t.degree + degree + 1)
                for x, row in zip(coefficients, system.rows)
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
        record = verify_terminal(solution, slice_.N)
        T = system.horizon
        with mpmath.workdps(solution.solve_dps):
            coefficients = oracle.coefficients_mp(solution)
            for row in control._chain_rows(field, system.channel, T, slice_, slice_.N):
                forced = mpmath.fsum(
                    mpmath.mpc(t.coef) * oracle.moment_integral(solution, t.degree, t.rate) for t in row.kernel
                )
                want = abs(complex(mpmath.mpc(-row.target) + forced))
                scale = mpmath.fsum(
                    abs(t.coef * x * u.coef) * T ** (t.degree + u.degree + 1)
                    for t in row.kernel
                    for x, kept in zip(coefficients, system.rows)
                    for u in kept.kernel
                )
                got = record.per_row_residuals[(row.n, row.cluster_index, row.position)]
                assert abs(got - want) <= 1e-25 * scale + 1e-15 * want

    @staticmethod
    def _assert_solve_products_reused(solution, N_verify: int):
        """The solve's ``H y`` is its Gram times the solution, exactly, and a
        verification that forms the product anew gives the same record."""
        gram = oracle.scaled_gram(solution.gram, solution.columns)
        y = fixedpoint._rescaled(solution.x, gram.exps)
        product = fixedpoint._times(gram.re, gram.im, y)
        fresh = fixedpoint.ScaledVector(*product, y.exp - gram.bits)
        difference = fixedpoint._combine(operator.sub, solution.hy, fresh)
        assert not any(difference.re) and not any(difference.im)
        # a solution replaced, even with the same coefficients, carries no product
        replaced = dataclasses.replace(solution)
        assert replaced.hy is None
        assert verify_terminal(replaced, N_verify) == verify_terminal(solution, N_verify)

    @settings(max_examples=20, deadline=None)
    @given(case=physical_cases())
    def test_verification_reads_the_solve_products(self, case):
        _, slice_, system = case
        self._assert_solve_products_reused(_solved(system), slice_.N)

    @pytest.mark.parametrize("params", [WORKHORSE, UNIT], ids=["workhorse", "jordan-chain"])
    def test_verification_reads_the_second_rung_products(self, params):
        system = build_moment_system(_field(1, 6), ObservationChannel.DENSITY, 0.5, _slice(params, 8), 6)
        solution = synthesize_control(system)
        assert solution.solve_dps == 80
        self._assert_solve_products_reused(solution, 8)

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

    #: largest gap between a point of the weighted walk and of the unit-exponential walk, in units of
    #: 2**-bits * sum_j |w_j| max(1, s)**degree_j per step walked to the point and one more, fixed before the
    #: test was run: the unit walk rounds each step by less than sqrt(2) units per term, the weighted walk by
    #: 2**-guard of that, and the one more covers the weighted walk's first rounding of w
    WALK_UNITS_PER_STEP = 2

    @classmethod
    def _assert_weighted_walk_near_unit_walk(cls, solution, t):
        x, columns, T = solution.x, solution.columns, solution.system.horizon
        times = [float(v) for v in t]
        got = {i: rest for i, *rest in walk._weighted_walk(x, columns, T, times, _mates(solution))}
        want = {i: rest for i, *rest in oracle.unit_walk(x, columns, T, times)}
        wr, wi, w_exp, _, _, _, degrees = oracle.weights(x, columns)
        assert got.keys() == want.keys() == (set(range(len(times))) if degrees else set())
        bits = columns[0].bits
        # values relative to 2**top, where every part of w lies below 1
        top = w_exp + max(v.bit_length() for v in wr + wi)
        w = [math.hypot(fixedpoint._float(a, w_exp - top), fixedpoint._float(b, w_exp - top)) for a, b in zip(wr, wi)]
        T_int = fixedpoint._fixed(T, bits)
        s_all = [T_int - fixedpoint._fixed(ti, bits) for ti in times]
        for i in got:
            (re, im, exp), (re_old, im_old, exp_old) = got[i], want[i]
            low = min(exp, exp_old)
            gap = [(a << exp - low) - (b << exp_old - low) for a, b in ((re, re_old), (im, im_old))]
            s = fixedpoint._float(s_all[i], -bits)
            unit = 2.0**-bits * sum(a * max(1.0, s) ** d for a, d in zip(w, degrees))
            steps = len({v for v in s_all if 0 < v <= s_all[i]})
            assert math.hypot(*(fixedpoint._float(g, low - top) for g in gap)) <= (
                cls.WALK_UNITS_PER_STEP * (steps + 1) * unit
            )

    @settings(max_examples=30, deadline=None)
    @given(
        system=st.one_of(kernel_systems(), physical_systems()),
        points=st.integers(2, 60),
        scattered=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    # a degree-1 chain on the Taylor-branch rate beside a separated rate
    @example(
        system=MomentSystem(
            ObservationChannel.DENSITY, 2.5, 2,
            _chain_system(2.5, SMALL_RATE).rows
            + [MomentRow(2, 0, 0, complex(-0.75, 1.3), [KernelTerm(0.5 - 1j, complex(-0.75, 1.3), 0)], 1.0 + 0j)],
            False,
        ),
        points=41,
        scattered=[0.7, 0.05, 0.7, 1.0, 0.0, 0.33],
    )
    # the Jordan block of the UNIT set at mode 2
    @example(
        system=build_moment_system(_field(2, 3), ObservationChannel.DENSITY, 5.0, _slice(UNIT, 5), 3),
        points=51,
        scattered=[0.9, 0.1, 0.5, 0.25],
    )
    def test_weighted_walk_matches_the_unit_exponential_walk(self, system, points, scattered):
        solution = _solved(system)
        T = system.horizon
        for t in (np.linspace(0.0, T, points), T * np.array(scattered)):
            self._assert_weighted_walk_near_unit_walk(solution, t)

    @pytest.mark.parametrize("params", [WORKHORSE, UNIT], ids=["workhorse", "jordan-chain"])
    def test_weighted_walk_matches_the_unit_exponential_walk_at_the_second_rung(self, params):
        system = build_moment_system(_field(1, 6), ObservationChannel.DENSITY, 0.5, _slice(params, 6), 6)
        solution = synthesize_control(system)
        assert solution.solve_dps == 80
        for t in (np.linspace(0.0, 0.5, 51), 0.5 * np.array([0.9, 0.2, 0.2, 0.55, 0.0])):
            self._assert_weighted_walk_near_unit_walk(solution, t)

    def test_scalar_and_array_shapes(self):
        system = build_moment_system(_field(3, 2), ObservationChannel.DENSITY, 8.0, _slice(WORKHORSE, 2), 2)
        solution = _solved(system)
        grid = np.linspace(0.0, 8.0, 6).reshape(2, 3)
        assert solution(grid).shape == (2, 3)
        assert solution(2.0).shape == (1,)
        assert solution(grid)[1, 1] == solution(grid[1, 1])[0]

    def test_non_finite_times_are_refused(self):
        solution = _solved(build_moment_system(_field(3, 2), ObservationChannel.DENSITY, 8.0, _slice(WORKHORSE, 2), 2))
        with pytest.raises(DomainError, match="times must be finite"):
            solution(np.array([0.0, np.nan]))

    def test_uniform_grid_takes_one_exponential_per_conjugate_pair(self, monkeypatch):
        # the control-roundtrip configuration at seed 0: the steps of the float
        # grid differ in their last bits, and only the first takes exponentials,
        # one per rate up to conjugation (modes n and -n have conjugate rates)
        field = cli._random_field(2, 8, np.random.default_rng(0))
        solution = synthesize_control(build_moment_system(field, ObservationChannel.DENSITY, 8.0, _slice(WORKHORSE, 12), 8))
        rates = [t[4] for column, a, b in zip(solution.columns, solution.x.re, solution.x.im) if a or b
                 for t in column.terms]
        calls = []
        exp = fixedpoint._exp
        monkeypatch.setattr(fixedpoint, "_exp", lambda *args: calls.append(args) or exp(*args))
        solution(np.linspace(0.0, 8.0, 51))
        assert len(rates) == 32
        assert len({complex(r.real, abs(r.imag)) for r in rates}) == len(calls) == 16

    @pytest.mark.parametrize("ulps", [1, -3, 40])
    def test_shifted_step_factors_equal_the_step_exponentials(self, ulps):
        # a step a few ulps from h0 gets e^{rate h0} times a series; it must be
        # e^{rate (h0 + d)} to the working precision, far below the step's own size
        rates = [complex(-1.5, 2.0), complex(-200.0, 17.0), complex(0.3, -0.1), 0j]
        bits = mpmath.libmp.dps_to_prec(40) + fixedpoint._GUARD_BITS
        with mpmath.workprec(bits):
            h0 = mpmath.mpf(-0.16)
            d = mpmath.mpf(ulps) * 2.0**-55
            base = [mpmath.exp(mpmath.mpc(r) * h0) for r in rates]
            got = walk._shifted_factors(
                ([oracle.mpf_fixed(e.real, bits) for e in base], [oracle.mpf_fixed(e.imag, bits) for e in base]),
                ([fixedpoint._fixed(r.real, bits) for r in rates], [fixedpoint._fixed(r.imag, bits) for r in rates]),
                oracle.mpf_fixed(d, bits),
                bits,
            )
            for r, re, im in zip(rates, *got):
                want = mpmath.exp(mpmath.mpc(r) * (h0 + d))
                assert abs(oracle.mp_complex(re, im, -bits) - want) <= mpmath.mpf(10) ** -39 * abs(want)


class TestLadder:
    @pytest.mark.parametrize(
        "field,T,N,dps,grams,factors",
        [
            (cli._random_field(2, 8, np.random.default_rng(0)), 8.0, 8, 40, 1, 1),
            (_field(1, 6), 0.5, 6, 80, 2, 2),
            (_field(1, 8), 0.5, 8, 160, 3, 3),
            (SpectralField.zeros(2, 8), 8.0, 8, 15, 1, 0),
        ],
        ids=["rung40", "rung80", "rung160", "zero-targets"],
    )
    def test_one_gram_and_one_factor_per_rung_tried(self, monkeypatch, field, T, N, dps, grams, factors):
        # zero targets take the first rung's Gram for the singular-value count and factor nothing
        calls = []

        def spy(name):
            original = getattr(fixedpoint, name)
            return lambda *args: calls.append(name) or original(*args)

        for name in ("unit_gram", "factor"):
            monkeypatch.setattr(fixedpoint, name, spy(name))
        system = build_moment_system(field, ObservationChannel.DENSITY, T, _slice(WORKHORSE, N), N)
        assert synthesize_control(system).solve_dps == dps
        assert (calls.count("unit_gram"), calls.count("factor")) == (grams, factors)

    @settings(max_examples=40, deadline=None)
    @given(system=st.one_of(kernel_systems(), physical_systems()), data=st.data())
    def test_forward_solves_the_lower_triangle(self, system, data):
        # y read at y.exp: each row of L y = b leaves a remainder of at least
        # 0 and below one unit of y's last place times the row's pivot, in
        # both parts, for right-hand sides of fewer bits than twice the factor's
        keep = control._duplicate_row_structure(system)[0]
        gram, columns = fixedpoint.unit_gram(["row"] * len(keep), [system.rows[i].kernel for i in keep],
                                             system.horizon, 40)
        factor = fixedpoint.factor(fixedpoint.real_form(gram), 40)
        assume(factor is not None)
        bits, Lr, Li, d = factor[:4]
        # the real rows of the real form keep no imaginary parts
        Li = [row + [0] * (i - len(row)) for i, row in enumerate(Li)]
        part = st.lists(st.integers(-(1 << 256), 1 << 256), min_size=len(d), max_size=len(d))
        b = fixedpoint.ScaledVector(data.draw(part), data.draw(part), data.draw(st.integers(-1100, 1100)))
        assume(any(b.re + b.im))
        y = fixedpoint.forward(factor, b)
        two = Fraction(2)
        ys = [(Fraction(a) * two**y.exp, Fraction(c) * two**y.exp) for a, c in zip(y.re, y.im)]
        for i in range(len(d)):
            rr, ri = Fraction(b.re[i]) * two**b.exp, Fraction(b.im[i]) * two**b.exp
            for lr, li, (a, c) in zip(Lr[i] + [d[i]], Li[i] + [0], ys):
                rr -= (lr * a - li * c) * two**-bits
                ri -= (lr * c + li * a) * two**-bits
            unit = d[i] * two ** (y.exp - bits)
            assert 0 <= rr < unit and 0 <= ri < unit


@pytest.mark.parametrize("real", [True, False])
def test_control_csv_bytes(tmp_path, real):
    # one buffered write, byte for byte the rows of csv.writer, for a real and a complex control
    field = cli._random_field(2, 6, np.random.default_rng(0)) if real else _field(3, 6)
    solution = synthesize_control(build_moment_system(field, ObservationChannel.DENSITY, 8.0, _slice(WORKHORSE, 8), 6))
    headers = []
    for grid in (np.linspace(0.0, 8.0, 201), np.array([0.0, 8.0]), np.zeros(0)):
        control.export_control_csv(solution, grid, tmp_path / "new.csv")
        oracle.export_control_csv(solution, grid, tmp_path / "rows.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        headers.append((tmp_path / "new.csv").read_bytes().split(b"\r\n")[0])
    assert headers == [b"t,p" if real else b"t,re_p,im_p"] * 2 + [b"t,p"]


class TestOraclePath:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_benchmark_outputs_match_the_mpmath_path(self, seed):
        # the control-roundtrip configuration: N = 8, T = 8, N_verify = 12,
        # 51 grid points; the control, its norm and the spill-over agree with
        # the all-mpmath path within 1e-12 relative
        slice_ = _slice(WORKHORSE, 12)
        field = cli._random_field(2, 8, np.random.default_rng(seed))
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 8)
        solution = synthesize_control(system)
        record = verify_terminal(solution, 12)

        dps, x_keep, control_norm = oracle.ladder_solve(system)
        assert solution.solve_dps == dps
        x_full = [mpmath.mpc(0)] * len(system.rows)
        for i, x in zip(solution.keep, x_keep):
            x_full[i] = x
        reference = oracle.with_coefficients(solution, x_full)

        grid = np.linspace(0.0, 8.0, 51)
        want = oracle.evaluate_control(reference, grid)
        assert np.max(np.abs(solution(grid) - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(solution.control_norm - control_norm) <= 1e-12 * control_norm
        spill: dict[int, float] = {}
        with mpmath.workdps(dps):
            for row in control._chain_rows(field, system.channel, 8.0, slice_, 12):
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
        "coef,rate,targets,message",
        [
            (complex(np.nan, 0.0), None, (1.0, 1.0), r"moment row 1 \(mode 2\): non-finite kernel coefficient"),
            (complex(np.inf, 1.0), None, (1.0, 1.0), r"moment row 1 \(mode 2\): non-finite kernel coefficient"),
            (complex(np.inf, 0.0), None, (0.0, 0.0), r"moment row 1 \(mode 2\): non-finite kernel coefficient"),
            (1.0 + 0j, None, (1.0, complex(np.nan, 0.0)), r"moment row 1 \(mode 2\): non-finite target"),
            (1.0 + 0j, None, (1.0, complex(0.0, -np.inf)), r"moment row 1 \(mode 2\): non-finite target"),
            # a proportional duplicate of row 0, whose target the deduplication reads
            (2.0 + 0j, complex(-1.5, 2.0), (1.0, complex(np.nan, 0.0)), r"moment row 1 \(mode 2\): non-finite target"),
            (1.0 + 0j, complex(np.nan, -1.0), (1.0, 1.0), r"moment row 1 \(mode 2\): non-finite kernel rate"),
            (1.0 + 0j, complex(-np.inf, -1.0), (1.0, 1.0), r"moment row 1 \(mode 2\): non-finite kernel rate"),
        ],
        ids=[
            "nan", "inf", "inf-zero-targets", "nan-target", "inf-target", "nan-target-duplicate", "nan-rate", "inf-rate"
        ],
    )
    def test_non_finite_kernel_coefficient_is_a_typed_error(self, coef, rate, targets, message):
        rate_a, rate_b = complex(-1.5, 2.0), complex(-0.7, -1.0) if rate is None else rate
        target_a, target_b = map(complex, targets)
        rows = [
            MomentRow(1, 0, 0, rate_a, [KernelTerm(1.0 + 0j, rate_a, 0)], target_a),
            MomentRow(2, 0, 0, rate_b, [KernelTerm(coef, rate_b, 0)], target_b),
        ]
        system = MomentSystem(ObservationChannel.DENSITY, 8.0, 2, rows, False)
        with pytest.raises(ArithmeticFailure, match=message):
            synthesize_control(system)

    def test_non_finite_kernel_coefficient_exits_3(self, tmp_path, monkeypatch, capsys):
        rate = complex(-1.5, 2.0)
        row = MomentRow(1, 0, 0, rate, [KernelTerm(complex(np.nan, 0.0), rate, 0)], 1.0 + 0j)
        system = MomentSystem(ObservationChannel.DENSITY, 8.0, 1, [row], False)
        monkeypatch.setattr(cli, "build_moment_system", lambda *args: system)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nsystem = barotropic\ncommand = synthesize\nseed = 7\n\n"
            "[params]\nrho_bar = 1.0\nu_bar = 0.9\nmu0 = 1.0\nb = 1.3\n\n"
            "[synthesize]\nN = 1\nT = 8.0\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical tolerance failure" in err
        assert "moment row 0 (mode 1): non-finite kernel coefficient" in err
        assert "Traceback" not in err


_BASE_RATES = (complex(-1.5, 2.0), complex(-1.5, -2.0), complex(-200.0, 17.0), complex(0.3, -0.1), 0j)
# relative to max(1, |rate|): equal, inside, on and outside the 1e-12 predicate, along and across the rate
_SHIFTS = (0.0, 0.5e-12, -0.5e-12, 1e-12, 2e-12, 0.5e-12j, -2e-12j)


@st.composite
def proportional_systems(draw):
    """Rows on a few shared rates, nearly equal ones among them, of few modes, some with two kernel terms."""
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        base = draw(st.sampled_from(_BASE_RATES))
        rate = base + draw(st.sampled_from(_SHIFTS)) * max(1.0, abs(base))
        coef = draw(st.sampled_from([1.0 + 0j, -2.0 + 0j, 0.5j]))
        kernel = [KernelTerm(coef, rate, 0)]
        if draw(st.integers(0, 3)) == 0:
            kernel.append(KernelTerm(1.0 + 0j, rate, 1))
        target = coef * draw(st.sampled_from([1.0, 2.0, 0.0]))
        rows.append(MomentRow(draw(st.sampled_from([-2, -1, 1, 2])), 0, 0, rate, kernel, target))
    return MomentSystem(ObservationChannel.DENSITY, 8.0, 2, rows, False)


class TestProportionalRows:
    @settings(max_examples=150, deadline=None)
    @given(system=proportional_systems())
    def test_search_matches_all_pairs_scans(self, system):
        assert control._rank_deficiency_groups(system.rows) == oracle.rank_deficiency_groups(system.rows)
        assert control._duplicate_row_structure(system) == oracle.duplicate_row_structure(system)

    def _rows(self, rate_b, target_b):
        rate_a = complex(-1.5, 2.0)
        a = MomentRow(1, 0, 0, rate_a, [KernelTerm(1.0 + 0j, rate_a, 0)], 1.0 + 0j)
        b = MomentRow(-1, 0, 0, rate_b, [KernelTerm(2.0 + 0j, rate_b, 0)], target_b)
        return MomentSystem(ObservationChannel.DENSITY, 8.0, 1, [a, b], False)

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
        # 8 digits (30 bits) leave a pivot of this system's unit-diagonal Gram
        # non-positive; the exact integer sums keep them positive at 10 digits
        monkeypatch.setattr(control, "_DPS_LADDER", (8,))
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
