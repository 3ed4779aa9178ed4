import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import evolution_oracle
from conftest import single_mode_field
from cnslab import counterexamples, kernels
from cnslab.counterexamples import (
    BumpSpec,
    bump_coefficients,
    degenerate_uc_witness,
    regularity_gap_witness,
    small_time_witness,
)
from cnslab.errors import DomainError, NotDegenerate, SupportError
from cnslab.evolution import ObservationChannel
from cnslab.fields import NormSpec, SpectralField
from cnslab.model import NonBarotropicParams
from cnslab.observability import observability_quotients
from cnslab.spectrum import build_slice
from test_evolution_fastpaths import _witness_lift, record_witness_stages
from test_observability_stacked import _bits

TWO_PI = 2.0 * math.pi


class TestPnFilter:
    def test_annihilation_exact(self, nondegenerate_barotropic, monkeypatch):
        # the witness lifts each bump with its modes |n| <= N zeroed (the
        # zeros of P_N and the removed mean), every other coefficient as drawn
        seen = record_witness_stages(monkeypatch)
        spec = BumpSpec(x_left=3.2, x_right=5.8)
        cutoff = small_time_witness(nondegenerate_barotropic, 3.0, [6, 8], spec).metadata["cutoff"]
        ns = np.arange(-cutoff, cutoff + 1)
        captured = seen["profiles"]
        assert list(captured) == [6, 8]
        for N, filtered in captured.items():
            bump, _ = bump_coefficients(spec, cutoff, carrier=counterexamples._MODULATION_FACTOR * N)
            inside = np.abs(ns) <= N
            assert np.all(bump[inside & (ns != 0)] != 0.0)
            assert np.all(filtered[inside] == 0.0)
            assert np.array_equal(filtered[~inside], bump[~inside])


class TestBump:
    def test_support_and_smooth_tail(self):
        spec = BumpSpec(x_left=3.2, x_right=5.8)
        coeffs, tail = bump_coefficients(spec, cutoff=96)
        assert tail <= 1e-8
        # the stored series is mean-removed, so off the support window the
        # reconstruction sits at the constant removed mean, flat to spectral
        # accuracy
        field = SpectralField(dim=1, N=96, coeffs=coeffs.reshape(-1, 1))
        xs = np.linspace(0.2, 2.4, 40)
        vals = field.sample(xs)[:, 0]
        peak = np.max(np.abs(field.sample(np.linspace(3.3, 5.7, 100))[:, 0]))
        assert np.max(np.abs(vals - vals[0])) <= 1e-5 * peak
        assert np.max(np.abs(vals.imag)) <= 1e-10 * peak

    def test_seeded_windows_shift_center_only(self):
        base = BumpSpec(x_left=3.0, x_right=5.5, seed=None)
        jittered = BumpSpec(x_left=3.0, x_right=5.5, seed=3, jitter=0.1)
        l0, r0 = base.realized_window()
        l1, r1 = jittered.realized_window()
        assert (r1 - l1) == pytest.approx(r0 - l0, rel=1e-12)
        assert l1 != l0


#: the workhorse and the coincidence-free three-field set: the witness runs on both systems
BOTH_SYSTEMS = pytest.mark.parametrize("system", ["nondegenerate_barotropic", "generic_nonbarotropic"])


class TestSmallTimeWitness:
    @BOTH_SYSTEMS
    def test_quotient_decay_slope(self, request, system):
        report = small_time_witness(
            request.getfixturevalue(system), 3.0, [8, 12, 16, 24], BumpSpec(x_left=3.2, x_right=5.8)
        )
        assert report.slope <= -1.7
        quotients = [report.table[N][0] for N in (8, 12, 16, 24)]
        assert quotients[-1] < quotients[0]

    @BOTH_SYSTEMS
    def test_transport_gap_shrinks(self, request, system):
        report = small_time_witness(
            request.getfixturevalue(system), 3.0, [8, 16], BumpSpec(x_left=3.2, x_right=5.8)
        )
        assert report.transport_gap[16] < report.transport_gap[8]
        # the rate carries omega: at N = 16 the gap reads about 9e-9 (two
        # fields) and 3e-9 (three), and 8e-6 on both when omega is left out
        assert report.transport_gap[16] < 1e-7

    @pytest.mark.parametrize("system", [
        "nondegenerate_barotropic",
        "generic_nonbarotropic",
        # R*rho_bar = 3 is the pinned density component, not rho_bar
        NonBarotropicParams(rho_bar=1.5, u_bar=0.9, theta_bar=0.8, lambda0=1.0, kappa0=2.0, R=2.0, c0=1.2),
    ], ids=["barotropic", "three-field", "three-field-R=2"])
    def test_lift_reproduces_the_density_profile(self, request, monkeypatch, system):
        # the witness's eigen-coordinates, reconstructed, are the oracle's lift
        # within a few ulps and carry the filtered profile in the density slot
        params = request.getfixturevalue(system) if isinstance(system, str) else system
        seen = record_witness_stages(monkeypatch)
        report = small_time_witness(params, 3.0, [8, 12], BumpSpec(x_left=3.2, x_right=5.8))
        cutoff, slice_ = report.metadata["cutoff"], seen["slice"]
        lifts = _witness_lift(seen, params)
        assert lifts.shape == (2, 2 * cutoff + 1, params.dim)
        for filtered, lift in zip(seen["profiles"].values(), lifts):
            ref = evolution_oracle.hyperbolic_lift(params, filtered, cutoff, slice_).coeffs
            assert np.all(np.abs(lift - ref) <= 4 * np.finfo(float).eps * np.abs(ref))
            np.testing.assert_allclose(lift[:, 0], filtered, rtol=1e-13, atol=0.0)

    def test_support_error(self, nondegenerate_barotropic):
        with pytest.raises(SupportError):
            small_time_witness(
                nondegenerate_barotropic, 3.0, [4], BumpSpec(x_left=0.5, x_right=2.0)
            )

    @pytest.mark.parametrize("left,right", [(math.nan, 5.8), (3.2, math.nan), (5.0, 4.0)])
    def test_nan_or_reversed_support_error(self, nondegenerate_barotropic, left, right):
        with pytest.raises(SupportError):
            small_time_witness(nondegenerate_barotropic, 3.0, [6, 8], BumpSpec(x_left=left, x_right=right))

    @pytest.mark.parametrize("N_list", [[0], [-4, 8], [0, 8], [8]])
    def test_N_list_needs_two_entries_of_at_least_one(self, nondegenerate_barotropic, N_list):
        with pytest.raises(DomainError, match="N_list"):
            small_time_witness(nondegenerate_barotropic, 3.0, N_list, BumpSpec(x_left=3.2, x_right=5.8))

    def test_requires_small_time(self, nondegenerate_barotropic):
        with pytest.raises(DomainError):
            small_time_witness(
                nondegenerate_barotropic, 8.0, [4], BumpSpec(x_left=3.2, x_right=5.8)
            )

    def test_tails_per_N(self, nondegenerate_barotropic):
        spec = BumpSpec(x_left=3.2, x_right=5.8)
        report = small_time_witness(nondegenerate_barotropic, 3.0, [6, 8, 12], spec)
        cutoff = report.metadata["cutoff"]
        assert report.truncation_tails == {
            N: bump_coefficients(spec, cutoff, carrier=counterexamples._MODULATION_FACTOR * N)[1] for N in (6, 8, 12)
        }
        assert report.truncation_tail == report.truncation_tails[12]
        assert report.to_dict()["truncation_tails"] == {str(N): t for N, t in report.truncation_tails.items()}

    def test_heap_peak_at_the_benchmark_config(self, nondegenerate_barotropic, monkeypatch):
        # Measured at T = 3, N_list = 6,8,12,16 from an empty pair-table slot:
        # a 2.11 MB peak (2.00 MB while every signal built its own table), and
        # 29 kB kept beyond the slot's K and |K|.  A kept bump spectrum of
        # 8192 samples would add 131 kB; the warm-up uses another window, so
        # a spectrum kept across calls is made inside the traced call.
        small_time_witness(nondegenerate_barotropic, 3.0, [6, 8, 12, 16], BumpSpec(x_left=3.3, x_right=5.7))
        monkeypatch.setattr(kernels, "_pair_table", None)
        tracemalloc.start()
        try:
            small_time_witness(nondegenerate_barotropic, 3.0, [6, 8, 12, 16], BumpSpec(x_left=3.2, x_right=5.8))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = kernels._pair_table
        assert peak < 2.3e6
        assert kept - held.K.nbytes - held.abs_K.nbytes < 64e3

    @BOTH_SYSTEMS
    @pytest.mark.parametrize("N_list", [[6, 8, 12, 16], [8, 12, 16, 24]])
    def test_one_pair_table_per_call(self, request, monkeypatch, system, N_list):
        # each later signal's terms lead the first one's (outermost mode
        # first), so its energy reads the first table and none is built again;
        # on three fields too, since the parabolic coordinates are exact zeros
        pair_integrals = kernels.pair_integrals
        sizes = []

        def counted(rates, degrees, T):
            sizes.append(rates.size)
            return pair_integrals(rates, degrees, T)

        monkeypatch.setattr(kernels, "_pair_table", None)
        monkeypatch.setattr(kernels, "pair_integrals", counted)
        small_time_witness(request.getfixturevalue(system), 3.0, N_list, BumpSpec(x_left=3.2, x_right=5.8))
        assert len(sizes) == 1 and kernels._pair_table.K.shape == (sizes[0], sizes[0])

    def test_slope_stable_across_seeds(self, nondegenerate_barotropic):
        slopes = []
        for seed in (1, 2, 3):
            spec = BumpSpec(x_left=3.3, x_right=5.7, seed=seed, jitter=0.08)
            slopes.append(
                small_time_witness(nondegenerate_barotropic, 3.0, [8, 12, 16, 24], spec).slope
            )
        assert max(slopes) - min(slopes) < 0.2


class TestDegenerateWitness:
    def test_barotropic_coincidence(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 3)
        record = degenerate_uc_witness(ObservationChannel.DENSITY, slice_)
        assert record.max_observation <= 1e-10 * record.observation_scale
        assert record.min_state_norm > 1e-3 * (abs(record.C) + abs(record.D))

    def test_nonbarotropic_shared_eigenvalue(self, shared_eigenvalue_nonbarotropic):
        slice_ = build_slice(shared_eigenvalue_nonbarotropic, 2)
        record = degenerate_uc_witness(ObservationChannel.DENSITY, slice_)
        assert set(record.modes) == {-1, 1}
        assert record.value == pytest.approx(-1.0, abs=1e-10)
        assert record.max_observation <= 1e-9 * record.observation_scale
        assert record.min_state_norm > 0.0

    def test_params_must_be_the_slice_s_own(self, shared_eigenvalue_nonbarotropic):
        # the witness reads its parameters from the slice: with rho_bar = 3 the
        # density observation of mode -1 triples and the signal still vanishes
        base = degenerate_uc_witness(ObservationChannel.DENSITY, build_slice(shared_eigenvalue_nonbarotropic, 2))
        other = dataclasses.replace(shared_eigenvalue_nonbarotropic, rho_bar=3.0)
        record = degenerate_uc_witness(ObservationChannel.DENSITY, build_slice(other, 2))
        assert record.modes == base.modes
        assert record.D == pytest.approx(3.0 * base.D, abs=1e-10)
        assert record.max_observation <= 1e-9 * record.observation_scale

    def test_not_degenerate(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 6)
        with pytest.raises(NotDegenerate):
            degenerate_uc_witness(ObservationChannel.DENSITY, slice_)


class TestRegularityGap:
    def test_velocity_slopes(self, nondegenerate_barotropic):
        for s, target in ((0.0, -2.0), (0.5, -1.0)):
            record = regularity_gap_witness(
                nondegenerate_barotropic, ObservationChannel.VELOCITY, s, [4, 8, 16, 32]
            )
            assert abs(record.slope - target) <= 0.3
            assert max(record.scaled_table.values()) / min(record.scaled_table.values()) < 3.0

    def test_temperature_channel_three_field(self, generic_nonbarotropic):
        # the leading terms of the third eigenvector component cancel
        # (lambda0 * omega_bar = R * theta_bar), so the temperature
        # observation of hyperbolic modes decays like 1/n^2 and the gap
        # steepens to -(4 - 2s)
        record = regularity_gap_witness(
            generic_nonbarotropic, ObservationChannel.TEMPERATURE, 0.0, [4, 8, 16, 32]
        )
        assert abs(record.slope + 4.0) <= 0.4

    @pytest.mark.parametrize("system,channel", [
        ("nondegenerate_barotropic", ObservationChannel.VELOCITY),
        ("generic_nonbarotropic", ObservationChannel.VELOCITY),
        ("generic_nonbarotropic", ObservationChannel.TEMPERATURE),
    ])
    def test_reports_equal_those_of_the_eigenfunction_fields(self, request, monkeypatch, system, channel):
        # a 1 on the hyperbolic column reports, bit for bit, what the solved
        # single-mode field of the hyperbolic eigenvector reports
        params = request.getfixturevalue(system)
        seen = record_witness_stages(monkeypatch)
        n_list = [4, 8, 16]
        regularity_gap_witness(params, channel, 0.5, n_list)
        slice_ = seen["slice"]
        hyperbolic = slice_.basis.vectors[slice_.basis.rows(n_list), counterexamples._HYPERBOLIC]
        fields_ = [single_mode_field(n, vector, max(n_list)) for n, vector in zip(n_list, hyperbolic)]
        ref = observability_quotients(fields_, channel, 2.0, NormSpec.dual_order(params, 0.5), slice_)
        assert [_bits(r) for r in seen["reports"]] == [_bits(r) for r in ref]

    def test_order_one_rejected(self, nondegenerate_barotropic):
        with pytest.raises(DomainError):
            regularity_gap_witness(nondegenerate_barotropic, ObservationChannel.VELOCITY, 1.0, [4, 8])

    @pytest.mark.parametrize("n_list", [[0, 8], [-4, 8]])
    def test_n_list_entries_at_least_one(self, nondegenerate_barotropic, n_list):
        with pytest.raises(DomainError, match="n_list"):
            regularity_gap_witness(nondegenerate_barotropic, ObservationChannel.VELOCITY, 0.0, n_list)

    def test_density_channel_rejected(self, nondegenerate_barotropic):
        with pytest.raises(DomainError):
            regularity_gap_witness(nondegenerate_barotropic, ObservationChannel.DENSITY, 0.0, [4, 8])
