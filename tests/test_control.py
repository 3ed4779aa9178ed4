import dataclasses
import math

import mpmath
import numpy as np
import pytest

import control_oracle
from conftest import single_mode_field
from control_oracle import coefficients_mp, gram_mp, targets_mp, with_coefficients
from energy_oracle import quadrature_energy

from cnslab import control, fixedpoint
from cnslab.control import MomentRow, MomentSystem, build_moment_system, synthesize_control, verify_terminal
from cnslab.errors import DomainError, RankDeficient
from cnslab.evolution import ObservationChannel, observation_signal
from cnslab.fields import EigenExpansion, SpectralField
from cnslab.fixedpoint import ScaledVector
from cnslab.kernels import KernelTerm
from cnslab.spectrum import build_slice


def _random_mean_zero(rng, dim, N, content=None):
    content = content or N
    c = np.zeros((2 * N + 1, dim), dtype=complex)
    for n in range(1, content + 1):
        c[n + N] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        c[-n + N] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return SpectralField(dim=dim, N=N, coeffs=c)


def _modes_one_system(slice_, scale: float) -> MomentSystem:
    """The density moment system at N = 4, T = 8 of a datum with ``[1, 0.5] * scale`` at the modes +-1."""
    c = np.zeros((9, 2), dtype=complex)
    c[3] = c[5] = np.array([1.0, 0.5]) * scale
    return build_moment_system(SpectralField(dim=2, N=4, coeffs=c), ObservationChannel.DENSITY, 8.0, slice_, 4)


class TestBuildMomentSystem:
    def test_zero_initial_state(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 4)
        system = build_moment_system(SpectralField.zeros(2, 4), ObservationChannel.DENSITY, 2.0, slice_, 2)
        assert all(row.target == 0.0 for row in system.rows)

    def test_row_count_two_per_mode(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 2)
        field = single_mode_field(1, np.array([1.0, 0.5]), 2)
        system = build_moment_system(field, ObservationChannel.DENSITY, 2.0, slice_, 1)
        # two rows (dim 2) for each of the modes +-1 in the truncation
        assert len(system.rows) == 4
        assert len([r for r in system.rows if r.n == 1]) == 2

    def test_degenerate_kernels_flagged(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 2)
        rng = np.random.default_rng(0)
        field = _random_mean_zero(rng, 2, 2)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 1)
        assert system.rank_deficiency_groups
        i, j = system.rank_deficiency_groups[0]
        assert {system.rows[i].n, system.rows[j].n} == {-1, 1}

    def test_below_critical_watermark(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 2)
        field = single_mode_field(1, np.array([1.0, 0.0]), 2)
        fast = build_moment_system(field, ObservationChannel.DENSITY, 3.0, slice_, 1)
        slow = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 1)
        assert fast.below_critical_time
        assert not slow.below_critical_time


class TestSynthesizeControl:
    def test_zero_targets_zero_control(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 4)
        system = build_moment_system(SpectralField.zeros(2, 4), ObservationChannel.DENSITY, 2.0, slice_, 2)
        solution = synthesize_control(system)
        assert solution.control_norm == 0.0
        assert solution.residual == 0.0
        assert np.all(solution(np.linspace(0, 2, 7)) == 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-170, 1e-300])
    def test_tiny_data_get_the_scaled_control(self, nondegenerate_barotropic, scale):
        # the targets' sum of squares underflows below about 1e-154; a test
        # for exact zeros does not, and the solve is scale-free.  Both relative
        # residuals are formed at the targets' scale, so neither underflows
        # (about 4.5e-72 here, parts of about 1e-372 at scale 1e-300).
        slice_ = build_slice(nondegenerate_barotropic, 4)
        unit, tiny = (synthesize_control(_modes_one_system(slice_, s)) for s in (1.0, scale))
        assert tiny.solve_dps == unit.solve_dps == 40
        assert tiny.control_norm / scale == pytest.approx(unit.control_norm, rel=1e-12)
        assert 0.5 * unit.residual <= tiny.residual <= 2.0 * unit.residual
        unit_in, tiny_in = (verify_terminal(s, 4).in_truncation_residual for s in (unit, tiny))
        assert 0.5 * unit_in <= tiny_in <= 2.0 * unit_in
        assert unit.residual > 0.0 and unit_in > 0.0

    def test_single_eigenfunction_density(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 16)
        from cnslab.spectrum import _symbol

        # forward eigenfunction of mode 2: the forward symbol at n is the adjoint one at -n
        M = _symbol(nondegenerate_barotropic, -2)
        vals, vecs = np.linalg.eig(M)
        field = single_mode_field(2, vecs[:, 0], 16)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 8)
        solution = synthesize_control(system)
        assert solution.residual <= 1e-8

    def test_residual_matches_recomputation(self, nondegenerate_barotropic):
        # recompute ||A x - m|| / ||m|| from scratch at the solver's precision
        # with the oracle's per-pair Gram (double-precision Gram entries
        # cannot resolve residuals this small)
        slice_ = build_slice(nondegenerate_barotropic, 8)
        rng = np.random.default_rng(1)
        field = _random_mean_zero(rng, 2, 8, content=4)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 4)
        solution = synthesize_control(system)
        with mpmath.workdps(solution.solve_dps):
            G = gram_mp(system.rows, system.horizon)
            m = targets_mp(system.rows)
            x = mpmath.matrix(coefficients_mp(solution))
            r = G * x - m
            recomputed = float(mpmath.norm(r) / mpmath.norm(m))
        assert abs(recomputed - solution.residual) <= 1e-12 * max(1.0, solution.residual) + 1e-30

    def test_rank_deficient_raises_on_uc_failure(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 2)
        rng = np.random.default_rng(2)
        field = _random_mean_zero(rng, 2, 2)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 1)
        with pytest.raises(RankDeficient):
            synthesize_control(system)

    def test_consistent_duplicate_rows_are_dropped(self, uc_failing_barotropic):
        # data orthogonal to the obstruction: both coincident rows carry zero
        # targets, so the duplicate is redundant rather than contradictory
        slice_ = build_slice(uc_failing_barotropic, 2)
        field = single_mode_field(2, np.array([0.3, -0.1 + 0.2j]), 2)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 1)
        solution = synthesize_control(system)
        assert solution.residual <= 1e-10

    def test_jordan_chain_rows_round_trip(self, unit_barotropic):
        # the n0 = 2 Jordan block contributes (T-t)^j kernels; null control
        # through the generalized rows still closes
        slice_ = build_slice(unit_barotropic, 8)
        rng = np.random.default_rng(9)
        field = _random_mean_zero(rng, 2, 8, content=4)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 4)
        chain_rows = [r for r in system.rows if r.level > 0]
        assert len(chain_rows) == 2
        assert all([t.degree for t in r.kernel] == [0, 1] for r in chain_rows)
        solution = synthesize_control(system)
        record = verify_terminal(solution, 8)
        assert solution.residual <= 1e-8
        assert record.in_truncation_residual <= 1e-6

    def test_cost_blowup_below_critical_time(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 12)
        rng = np.random.default_rng(3)
        norms = {}
        for N in (4, 8):
            field = _random_mean_zero(rng, 2, 12, content=N)
            for T in (3.0, 8.0):
                system = build_moment_system(field, ObservationChannel.DENSITY, T, slice_, N)
                norms[(N, T)] = synthesize_control(system).control_norm
        ratio_small = norms[(4, 3.0)] / norms[(4, 8.0)]
        ratio_large = norms[(8, 3.0)] / norms[(8, 8.0)]
        assert ratio_small >= 10.0
        assert ratio_large >= 10.0 * ratio_small


class TestDiscardedSingularValues:
    @pytest.mark.parametrize(
        "N,T,count", [(8, 8.0, 2), (12, 12.0, 8), (16, 12.0, 15), (8, 5.0, 6), (16, 8.0, 16), (24, 12.0, 30)]
    )
    def test_zero_target_count_matches_the_double_precision_gram(self, nondegenerate_barotropic, N, T, count):
        # zero targets: the count is taken without a solve, from the first
        # rung's integer Gram
        system = build_moment_system(
            SpectralField.zeros(2, N), ObservationChannel.DENSITY, T, build_slice(nondegenerate_barotropic, N), N
        )
        solution = synthesize_control(system)
        assert solution.solve_dps == 15 and not solution.keep
        assert solution.discarded_singular_values == control_oracle.discarded_singular_values(system) == count

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_deduplicated_count_matches_the_double_precision_gram(self, uc_failing_barotropic, N):
        # a shared parabolic eigenvalue at modes +-1: one row of the pair is
        # dropped and counts as discarded on top of the kept rows' count
        slice_ = build_slice(uc_failing_barotropic, N)
        field = single_mode_field(2, np.array([0.3, -0.1 + 0.2j]), N)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, N)
        solution = synthesize_control(system)
        assert len(solution.keep) < len(system.rows)
        assert solution.discarded_singular_values == control_oracle.discarded_singular_values(system)
        record = verify_terminal(solution, N)
        assert record.rank == len(system.rows) - solution.discarded_singular_values


class TestVerifyTerminal:
    def test_zero_everything(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 4)
        field = SpectralField.zeros(2, 4)
        system = build_moment_system(field, ObservationChannel.DENSITY, 2.0, slice_, 2)
        solution = synthesize_control(system)
        record = verify_terminal(solution, 4)
        assert record.in_truncation_residual == 0.0
        assert all(v == 0.0 for v in record.spillover.values())

    def test_residual_of_a_tiny_datum_does_not_underflow(self, nondegenerate_barotropic):
        # pairings of about 1e-172 and targets of about 1e-100 square to
        # nothing or next to nothing in doubles; their hypot keeps them
        solution = synthesize_control(_modes_one_system(build_slice(nondegenerate_barotropic, 4), 1e-100))
        assert 0.0 < verify_terminal(solution, 4).in_truncation_residual <= 1e-6

    def test_round_trip_density_and_velocity(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 16)
        rng = np.random.default_rng(4)
        field = _random_mean_zero(rng, 2, 16, content=8)
        for channel in (ObservationChannel.DENSITY, ObservationChannel.VELOCITY):
            system = build_moment_system(field, channel, 8.0, slice_, 8)
            solution = synthesize_control(system)
            record = verify_terminal(solution, 16)
            assert solution.residual <= 1e-8
            assert record.in_truncation_residual <= 1e-6

    def test_parabolic_spillover_decays_past_spike_scale(self, nondegenerate_barotropic):
        # the synthesized control carries a terminal spike (last-moment action
        # on the fast parabolic modes), so the forced parabolic spill first
        # grows up to the spike's spectral scale and then decays with |n|
        slice_ = build_slice(nondegenerate_barotropic, 40)
        rng = np.random.default_rng(5)
        field = _random_mean_zero(rng, 2, 40, content=8)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 8)
        solution = synthesize_control(system)
        record = verify_terminal(solution, 40)
        parabolic = {n: record.per_row_residuals[(n, 1, 0)] for n in (28, 32, 36, 40)}
        assert parabolic[40] < parabolic[32] < parabolic[28]
        assert all(np.isfinite(v) for v in record.spillover.values())

    def test_perturbed_control_detected(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 8)
        rng = np.random.default_rng(6)
        field = _random_mean_zero(rng, 2, 8, content=4)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 4)
        solution = synthesize_control(system)
        solution = with_coefficients(solution, [1.1 * x for x in coefficients_mp(solution)])
        record = verify_terminal(solution, 8)
        assert record.in_truncation_residual >= 1e-2

    @pytest.mark.parametrize(
        "fixture,field_seed,N,N_verify",
        # the control-roundtrip benchmark configuration, and a system with
        # consistent duplicate rows (shared parabolic eigenvalue at modes +-1)
        [("nondegenerate_barotropic", 3, 8, 12), ("uc_failing_barotropic", None, 2, 4)],
        ids=["workhorse", "dropped-rows"],
    )
    def test_only_rows_outside_the_solved_gram_are_integrated(
        self, request, monkeypatch, fixture, field_seed, N, N_verify
    ):
        params = request.getfixturevalue(fixture)
        slice_ = build_slice(params, N_verify)
        if field_seed is None:
            field = single_mode_field(2, np.array([0.3, -0.1 + 0.2j]), N_verify)
        else:
            field = _random_mean_zero(np.random.default_rng(field_seed), 2, N_verify, content=N)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, N)
        solution = synthesize_control(system)
        assert all(len(row.kernel) == 1 for row in system.rows)
        if field_seed is None:
            assert len(solution.keep) < len(system.rows)
        # single-term kernels: a Gram of rows against columns integrates rows * columns term pairs
        pairs = []
        gram = fixedpoint._moment_gram
        monkeypatch.setattr(
            fixedpoint, "_moment_gram", lambda rows, columns, *args: pairs.extend([1] * len(rows) * len(columns))
            or gram(rows, columns, *args)
        )
        record = verify_terminal(solution, N_verify)
        kept = len(solution.keep)
        assert len(pairs) == (len(record.per_row_residuals) - kept) * kept
        assert record.in_truncation_residual <= 1e-6

    def test_rows_inside_the_truncation_are_not_rebuilt(self, nondegenerate_barotropic, monkeypatch):
        # the control-roundtrip configuration: N = 8, N_verify = 12; the
        # rows with |n| <= 8 come from the system, only the spill-over rows
        # are built
        slice_ = build_slice(nondegenerate_barotropic, 12)
        field = _random_mean_zero(np.random.default_rng(3), 2, 12, content=8)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 8)
        solution = synthesize_control(system)
        built = []
        chain_rows = control._chain_rows

        def spy(*args, **kwargs):
            for row in chain_rows(*args, **kwargs):
                built.append(row.n)
                yield row

        monkeypatch.setattr(control, "_chain_rows", spy)
        record = verify_terminal(solution, 12)
        assert sorted(set(map(abs, built))) == [9, 10, 11, 12]
        assert len(built) == 16 and len(record.per_row_residuals) == 48
        assert record.in_truncation_residual <= 1e-6

    def test_coefficients_not_aligned_with_the_kept_rows_are_refused(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 4)
        field = single_mode_field(2, np.array([0.3, -0.1 + 0.2j]), 4)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 2)
        solution = synthesize_control(system)
        assert len(solution.keep) < len(system.rows)
        xr, xi, exp = solution.x
        pad = [0] * (len(system.rows) - len(xr))
        # such a solution cannot be built, so neither its evaluation nor its
        # verification reads a truncated or padded coefficient list: one
        # coefficient per moment row (the dropped duplicate rows included),
        # one too few, parts of unequal lengths, one kernel column too few
        for changes in (
            {"x": ScaledVector(xr + pad, xi + pad, exp)},
            {"x": ScaledVector(xr[:-1], xi[:-1], exp)},
            {"x": ScaledVector(xr, xi[:-1], exp)},
            {"columns": solution.columns[:-1]},
        ):
            with pytest.raises(DomainError, match="align with the kept rows"):
                dataclasses.replace(solution, **changes)

    def test_slice_must_reproduce_the_system_rows(self, nondegenerate_barotropic):
        # the system records the datum and slice it was built from; the rows
        # rebuilt from them are the system's own, and verification keys its
        # in-truncation rows by them
        slice_ = build_slice(nondegenerate_barotropic, 8)
        field = _random_mean_zero(np.random.default_rng(6), 2, 8, content=4)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 4)
        assert system.slice_ is slice_ and system.datum is field
        rebuilt = list(control._chain_rows(system.datum, system.channel, system.horizon, system.slice_, 4))
        assert rebuilt == system.rows
        record = verify_terminal(synthesize_control(system), 8)
        inside = {key for key in record.per_row_residuals if abs(key[0]) <= 4}
        assert inside == {(row.n, row.cluster_index, row.position) for row in system.rows}

    def test_datum_must_be_the_systems_inside_the_truncation(self, nondegenerate_barotropic):
        # the datum has content at mode 6, beyond the truncation N = 4: the
        # rows inside it close, mode 6 is left as spill-over
        slice_ = build_slice(nondegenerate_barotropic, 8)
        field = _random_mean_zero(np.random.default_rng(6), 2, 8, content=4)
        beyond = field.coeffs.copy()
        beyond[8 + 6] = 1.0
        system = build_moment_system(SpectralField(2, 8, beyond), ObservationChannel.DENSITY, 8.0, slice_, 4)
        record = verify_terminal(synthesize_control(system), 8)
        assert record.spillover[6] > 1e-3 and record.in_truncation_residual <= 1e-6

    def test_hand_built_system_is_refused(self):
        # a system not built by build_moment_system carries no datum or slice to verify against
        rate = complex(-1.0, 2.0)
        rows = [MomentRow(1, 0, 0, rate, [KernelTerm(1.0 + 0j, rate, 0)], 1.0 + 0j)]
        solution = synthesize_control(MomentSystem(ObservationChannel.DENSITY, 8.0, 1, rows, False))
        with pytest.raises(DomainError, match="datum and slice"):
            verify_terminal(solution, 2)

    def test_window_must_cover_truncation(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 8)
        field = single_mode_field(1, np.array([1.0, 0.0]), 8)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 4)
        solution = synthesize_control(system)
        with pytest.raises(DomainError):
            verify_terminal(solution, 2)


class TestDualityExactness:
    def test_moment_integrals_match_energy_cross_terms(self, nondegenerate_barotropic):
        # the closed-form pairing used by the Gram equals the observation
        # energy of the matching signal, integrated by quadrature
        slice_ = build_slice(nondegenerate_barotropic, 4)
        rng = np.random.default_rng(7)
        coeffs = {n: rng.normal(size=2) + 1j * rng.normal(size=2) for n in slice_.modes}
        expansion = EigenExpansion(dim=2, coefficients=coeffs)
        T = 5.0
        signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
        # the diagonal entry of the production Gram, the integer one the
        # singular-value count reads in double precision: G = D H D
        gram, _ = fixedpoint.unit_gram(["signal"], [signal.terms], T, 40)
        energy = fixedpoint.float_gram(gram)[0, 0].real * 2.0 ** (2 * gram.exps[0])
        assert energy == pytest.approx(quadrature_energy(signal)[0], rel=1e-10)

    def test_minimum_norm_property(self, nondegenerate_barotropic):
        # grid oracle: any constraint-preserving perturbation (orthogonal to
        # every kernel) strictly increases the control's L2 norm
        slice_ = build_slice(nondegenerate_barotropic, 4)
        rng = np.random.default_rng(8)
        field = _random_mean_zero(rng, 2, 4, content=2)
        T = 8.0
        system = build_moment_system(field, ObservationChannel.DENSITY, T, slice_, 2)
        solution = synthesize_control(system)

        nodes, weights = np.polynomial.legendre.leggauss(400)
        ts = 0.5 * T * (nodes + 1.0)
        ws = 0.5 * T * weights
        p_vals = solution(ts)
        k_vals = np.array(
            [
                sum(
                    term.coef * (T - ts) ** term.degree * np.exp(term.rate * (T - ts))
                    for term in row.kernel
                )
                for row in system.rows
            ]
        )
        norm_p_sq = float(np.sum(ws * np.abs(p_vals) ** 2))
        assert math.sqrt(norm_p_sq) == pytest.approx(solution.control_norm, rel=1e-6)
        for _ in range(5):
            e_vals = rng.normal(size=ts.size) + 1j * rng.normal(size=ts.size)
            # enforce the constraints: integral h(t) k_l(t) dt = 0 for all l
            A = (k_vals * ws) @ k_vals.conj().T
            b = (k_vals * ws) @ e_vals
            coef = np.linalg.lstsq(A, b, rcond=None)[0]
            h_vals = e_vals - np.tensordot(coef, np.conj(k_vals), axes=1)
            scale_sq = float(np.sum(ws * np.abs(h_vals) ** 2))
            leak = np.max(np.abs((k_vals * ws) @ h_vals))
            assert leak <= 1e-7 * max(math.sqrt(scale_sq), 1.0)
            perturbed = float(np.sum(ws * np.abs(p_vals + h_vals) ** 2))
            # <p, h> = 0 because p lies in the conjugate-kernel span, so the
            # perturbation energy adds in full
            assert perturbed > norm_p_sq + 0.5 * scale_sq

    def test_truncation_zeroing(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 12)
        rng = np.random.default_rng(9)
        field = _random_mean_zero(rng, 2, 12, content=6)
        system = build_moment_system(field, ObservationChannel.DENSITY, 8.0, slice_, 6)
        solution = synthesize_control(system)
        record = verify_terminal(solution, 12)
        assert record.in_truncation_residual <= 1e-6


def _graded_rule(T: float, nodes: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, T]: unit-half panels up to T - 1, then panels halving toward t = T."""
    edges = np.concatenate([np.arange(0.0, T - 1.0, 0.5), T - 0.5 ** np.arange(31), [T]])
    x, w = np.polynomial.legendre.leggauss(nodes)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * x + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * w).ravel()


def _quadrature_terminal_residual(solution) -> float:
    """Relative in-truncation residual of the duality identity, by quadrature of the double-precision control.

    For each moment row, ``free + sum coef * integral_0^T p(t) (T-t)**degree
    e^{rate (T-t)} dt`` with ``free = -target``; no pair integral of the
    solve enters.
    """
    T = solution.system.horizon
    t, w = _graded_rule(T)
    wp = w * solution(t)
    s = T - t
    residual_sq = free_sq = 0.0
    for row in solution.system.rows:
        forced = sum(term.coef * np.sum(wp * s**term.degree * np.exp(term.rate * s)) for term in row.kernel)
        residual_sq += abs(forced - row.target) ** 2
        free_sq += abs(row.target) ** 2
    return math.sqrt(residual_sq / free_sq)


class TestIndependentTerminalCheck:
    def test_quadrature_route_closes_criterion_9(self, nondegenerate_barotropic):
        # criterion 9's setup, checked without the moment integrals of the solve
        slice_ = build_slice(nondegenerate_barotropic, 16)
        field = _random_mean_zero(np.random.default_rng(5), 2, 16, content=8)
        for channel in (ObservationChannel.DENSITY, ObservationChannel.VELOCITY):
            system = build_moment_system(field, channel, 8.0, slice_, 8)
            solution = synthesize_control(system)
            assert _quadrature_terminal_residual(solution) <= 1e-6
            if channel is ObservationChannel.DENSITY:
                scaled = with_coefficients(solution, [1.1 * x for x in coefficients_mp(solution)])
                assert _quadrature_terminal_residual(scaled) > 1e-6
