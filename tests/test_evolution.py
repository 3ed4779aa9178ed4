import math

import evolution_oracle
import numpy as np
import pytest
import scipy.linalg
from conftest import field_from_modes, random_barotropic, random_nonbarotropic, single_mode_field
from energy_oracle import quadrature_energy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnslab.control import build_moment_system
from cnslab.errors import DimMismatch, DomainError, IllConditioned
from cnslab.evolution import (
    ObservationChannel,
    adjoint_state,
    boundary_control_weight,
    forward_states,
    observation_signal,
    observation_value,
)
from cnslab.fields import EigenExpansion, NormSpec, SpectralField, expand_in_eigenbasis, sobolev_norm
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.observability import observability_quotient, observation_energy
from cnslab.spectrum import BranchLabel, build_slice, eigen_barotropic, mode_matrix


#: the named sets of tests/conftest.py whose slices carry a Jordan pair (n = 2) and a Jordan triple (n = 1)
JORDAN_PAIR = BarotropicParams(rho_bar=1.0, u_bar=1.0, mu0=1.0, b=1.0)
TRIPLE_ROOT = NonBarotropicParams(rho_bar=1.0, u_bar=1.0, theta_bar=0.5, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)


def _random_mean_zero(rng, dim, N):
    c = rng.normal(size=(2 * N + 1, dim)) + 1j * rng.normal(size=(2 * N + 1, dim))
    c[N] = 0.0
    return SpectralField(dim=dim, N=N, coeffs=c)


class TestObservationValue:
    def test_density_on_degenerate_hyperbolic_vector(self, unit_barotropic):
        h, _ = eigen_barotropic(unit_barotropic, 2)
        value = observation_value(ObservationChannel.DENSITY, h.vector, 2, unit_barotropic)
        assert value == pytest.approx(1 + 1j, rel=1e-12)
        # identity B*_rho Phi^h = nu_scaled * first component
        assert value == pytest.approx(h.nu_scaled * h.vector[0], rel=1e-12)

    def test_velocity_on_same_vector(self, unit_barotropic):
        h, _ = eigen_barotropic(unit_barotropic, 2)
        value = observation_value(ObservationChannel.VELOCITY, h.vector, 2, unit_barotropic)
        assert value == pytest.approx(-1 + 1j, rel=1e-12)
        assert value == pytest.approx(h.nu_scaled * h.vector[1], rel=1e-12)

    def test_zero_vector(self, unit_barotropic):
        assert observation_value(ObservationChannel.DENSITY, np.zeros(2), 1, unit_barotropic) == 0.0

    def test_closed_form_identities_randomized(self, nondegenerate_barotropic, generic_nonbarotropic):
        for n in (1, 4, -9, 33):
            h, p = eigen_barotropic(nondegenerate_barotropic, n)
            for pair in (h, p):
                bd = observation_value(ObservationChannel.DENSITY, pair.vector, n, nondegenerate_barotropic)
                bu = observation_value(ObservationChannel.VELOCITY, pair.vector, n, nondegenerate_barotropic)
                assert bd == pytest.approx(pair.nu_scaled * pair.vector[0], rel=1e-10)
                assert bu == pytest.approx(pair.nu_scaled * pair.vector[1], rel=1e-10)
        from cnslab.spectrum import eigen_nonbarotropic

        p3 = generic_nonbarotropic
        for n in (1, 5, -12):
            for pair in eigen_nonbarotropic(p3, n):
                bd = observation_value(ObservationChannel.DENSITY, pair.vector, n, p3)
                bu = observation_value(ObservationChannel.VELOCITY, pair.vector, n, p3)
                bt = observation_value(ObservationChannel.TEMPERATURE, pair.vector, n, p3)
                assert bd == pytest.approx(pair.nu_scaled * pair.vector[0], rel=1e-9, abs=1e-9)
                assert bu == pytest.approx(p3.rho_bar * pair.nu_scaled * pair.vector[1], rel=1e-9, abs=1e-9)
                assert bt == pytest.approx(
                    (p3.c0 / p3.theta_bar) * pair.nu_scaled * pair.vector[2], rel=1e-9, abs=1e-9
                )

    def test_temperature_needs_three_fields(self, nondegenerate_barotropic):
        # refused where the channel meets the system, whichever entry reaches it
        slice_ = build_slice(nondegenerate_barotropic, 2)
        field = field_from_modes(2, 2, {1: np.array([1.0, 0.5])})
        expansion = expand_in_eigenbasis(field, slice_)
        temperature = ObservationChannel.TEMPERATURE
        for call in (
            lambda: observation_value(temperature, np.zeros(2), 1, nondegenerate_barotropic),
            lambda: observation_signal(expansion, slice_, temperature, 1.0),
            lambda: observability_quotient(field, temperature, 1.0, None, slice_),
            lambda: build_moment_system(field, temperature, 1.0, slice_, 2),
            lambda: boundary_control_weight(temperature, nondegenerate_barotropic),
        ):
            with pytest.raises(DimMismatch, match="temperature channel requires the three-field system"):
                call()


class TestAdjointState:
    def test_terminal_condition(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 8)
        rng = np.random.default_rng(0)
        f = _random_mean_zero(rng, 2, 8)
        expansion = expand_in_eigenbasis(f, slice_)
        sample = adjoint_state(expansion, slice_, T=2.0, t=2.0)
        assert np.max(np.abs(sample.state.coeffs - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_single_mode_exponential_ratio(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 3)
        h, _ = eigen_barotropic(nondegenerate_barotropic, 2)
        f = single_mode_field(2, h.vector, 3)
        expansion = expand_in_eigenbasis(f, slice_)
        spec = NormSpec.weighted_l2(nondegenerate_barotropic)
        T, t = 3.0, 1.2
        n_t = sobolev_norm(adjoint_state(expansion, slice_, T, t).state, spec)
        n_T = sobolev_norm(adjoint_state(expansion, slice_, T, T).state, spec)
        assert n_t / n_T == pytest.approx(math.exp(h.value.real * (T - t)), rel=1e-12)

    def test_jordan_block_against_matrix_exponential(self, unit_barotropic):
        slice_ = build_slice(unit_barotropic, 2)
        M = mode_matrix(unit_barotropic, 2).entries
        rng = np.random.default_rng(1)
        c_T = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = field_from_modes(2, 2, {2: c_T})
        expansion = expand_in_eigenbasis(f, slice_)
        T = 1.5
        for t in (0.0, 0.4, 1.1):
            got = adjoint_state(expansion, slice_, T, t).state.coeff(2)
            want = scipy.linalg.expm(M * (T - t)) @ c_T
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_pure_chain_growth_factor(self, unit_barotropic):
        # chain datum evolves with an extra (T - t) factor against the base vector
        slice_ = build_slice(unit_barotropic, 2)
        cluster = slice_.mode(2).clusters[0]
        expansion = EigenExpansion(dim=2, coefficients={2: np.array([0.0, 1.0], dtype=complex)})
        T = 2.0
        spec = NormSpec.weighted_l2(unit_barotropic)
        M = mode_matrix(unit_barotropic, 2).entries
        for t in (0.0, 0.7, 1.6):
            state = adjoint_state(expansion, slice_, T, t).state.coeff(2)
            want = scipy.linalg.expm(M * (T - t)) @ cluster.vectors[1]
            assert np.linalg.norm(state - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)

    def test_triple_chain_against_matrix_exponential(self, triple_root_nonbarotropic):
        slice_ = build_slice(triple_root_nonbarotropic, 1)
        M = mode_matrix(triple_root_nonbarotropic, 1).entries
        rng = np.random.default_rng(2)
        c_T = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = field_from_modes(3, 1, {1: c_T})
        expansion = expand_in_eigenbasis(f, slice_)
        T = 1.0
        for t in (0.0, 0.5):
            got = adjoint_state(expansion, slice_, T, t).state.coeff(1)
            want = scipy.linalg.expm(M * (T - t)) @ c_T
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_semigroup_property(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 6)
        rng = np.random.default_rng(3)
        f = _random_mean_zero(rng, 2, 6)
        expansion = expand_in_eigenbasis(f, slice_)
        T, t1, t2 = 2.0, 0.3, 1.4
        direct = adjoint_state(expansion, slice_, T, t1).state
        mid = adjoint_state(expansion, slice_, T, t2).state
        re_expanded = expand_in_eigenbasis(mid, slice_)
        via = adjoint_state(re_expanded, slice_, t2, t1).state
        assert np.max(np.abs(direct.coeffs - via.coeffs)) <= 1e-10 * np.max(np.abs(direct.coeffs))

    def test_backward_uniqueness_spectral_form(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 4)
        zero = EigenExpansion(dim=2, coefficients={n: np.zeros(2, dtype=complex) for n in slice_.modes})
        spec = NormSpec.weighted_l2(nondegenerate_barotropic)
        for t in (0.0, 0.5, 1.0):
            assert sobolev_norm(adjoint_state(zero, slice_, 1.0, t).state, spec) == 0.0
        one = EigenExpansion(dim=2, coefficients={3: np.array([0.3, 0.0], dtype=complex)})
        for t in (0.0, 0.5, 1.0):
            assert sobolev_norm(adjoint_state(one, slice_, 1.0, t).state, spec) > 0.0


class TestForwardState:
    def test_identity_at_zero(self, nondegenerate_barotropic):
        rng = np.random.default_rng(4)
        f = _random_mean_zero(rng, 2, 8)
        sample = forward_states(f, nondegenerate_barotropic, [0.0])[0]
        assert np.allclose(sample.state.coeffs, f.coeffs)

    def test_zero_field(self, nondegenerate_barotropic):
        f = SpectralField.zeros(2, 4)
        sample = forward_states(f, nondegenerate_barotropic, [1.3])[0]
        assert np.all(sample.state.coeffs == 0.0)

    def test_contraction(self, nondegenerate_barotropic):
        rng = np.random.default_rng(5)
        f = _random_mean_zero(rng, 2, 16)
        spec = NormSpec.weighted_l2(nondegenerate_barotropic)
        norms = [
            sobolev_norm(sample.state, spec) for sample in forward_states(f, nondegenerate_barotropic, [0.0, 1.0, 2.0])
        ]
        assert norms[2] <= norms[1] * (1 + 1e-12)
        assert norms[1] <= norms[0] * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["nondegenerate_barotropic", "generic_nonbarotropic"])
    def test_many_times_share_one_flow(self, name, request):
        # each time's state is that of the time alone, bit for bit
        params = request.getfixturevalue(name)
        f = _random_mean_zero(np.random.default_rng(6), params.dim, 8)
        times = [0.0, 0.35, 1.0, 0.35]
        samples = forward_states(f, params, times)
        assert [s.time for s in samples] == times
        for t, sample in zip(times, samples):
            assert sample.state.coeffs.tobytes() == forward_states(f, params, [t])[0].state.coeffs.tobytes()
        with pytest.raises(DomainError, match="t >= 0"):
            forward_states(f, params, [0.5, -1e-9])

    @given(
        params=st.one_of(
            st.integers(0, 2**32 - 1).map(lambda seed: random_barotropic(np.random.default_rng(seed))),
            st.integers(0, 2**32 - 1).map(lambda seed: random_nonbarotropic(np.random.default_rng(seed))),
            st.just(JORDAN_PAIR),
            st.just(TRIPLE_ROOT),
        ),
        N=st.integers(1, 6),
        t=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_the_matrix_exponential(self, params, N, t, seed):
        # the eigen-flow's error is the expansion solve's, cond * eps relative
        # to the datum; the flow and the oracle's expm add a few eps each
        bound = 64 * np.finfo(float).eps * float(build_slice(params, N).conds.max())
        f = _random_mean_zero(np.random.default_rng(seed), params.dim, N)
        try:
            got = forward_states(f, params, [t])[0].state.coeffs
        except IllConditioned:
            assume(False)
        want = evolution_oracle.forward_state(f, params, t).coeffs
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(f.coeffs)


class TestObservationSignal:
    def test_single_hyperbolic_mode(self, unit_barotropic):
        slice_ = build_slice(unit_barotropic, 2)
        h, _ = eigen_barotropic(unit_barotropic, 2)
        # only the eigen-direction coefficient is set; the chain slot stays zero
        expansion = EigenExpansion(dim=2, coefficients={2: np.array([1.0, 0.0], dtype=complex)})
        T = 2.5
        signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
        assert len(signal.terms) == 1
        term = signal.terms[0]
        assert term.coef == pytest.approx(1 + 1j, rel=1e-12)
        assert term.rate == pytest.approx(-2 + 2j, rel=1e-12)
        assert term.degree == 0

    def test_zero_expansion(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 2)
        signal = observation_signal(EigenExpansion(dim=2, coefficients={}), slice_, ObservationChannel.DENSITY, 1.0)
        assert signal.terms == []
        assert np.all(signal(np.linspace(0, 1, 5)) == 0.0)

    def test_degenerate_witness_signal_vanishes(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 2)
        pa = next(p for p in slice_.mode(1).pairs if p.branch is BranchLabel.PARABOLIC)
        pb = next(p for p in slice_.mode(-1).pairs if p.branch is BranchLabel.PARABOLIC)
        C = -observation_value(ObservationChannel.DENSITY, pb.vector, -1, uc_failing_barotropic)
        D = observation_value(ObservationChannel.DENSITY, pa.vector, 1, uc_failing_barotropic)
        f = SpectralField.zeros(2, 2)
        f.coeffs[1 + 2] = C * pa.vector
        f.coeffs[-1 + 2] = D * pb.vector
        expansion = expand_in_eigenbasis(f, slice_)
        signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, 1.0)
        ts = np.linspace(0, 1, 64)
        scale = (abs(C) + abs(D)) * max(abs(C), abs(D))
        assert np.max(np.abs(signal(ts))) <= 1e-12 * scale
        spec = NormSpec.weighted_l2(uc_failing_barotropic)
        assert sobolev_norm(adjoint_state(expansion, slice_, 1.0, 0.0).state, spec) > 0.0

    def test_hidden_regularity_energy_finite(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 12)
        rng = np.random.default_rng(6)
        coeffs = {n: (rng.normal(size=2) + 1j * rng.normal(size=2)) / (1 + abs(n)) for n in slice_.modes}
        expansion = EigenExpansion(dim=2, coefficients=coeffs)
        signal = observation_signal(expansion, slice_, ObservationChannel.VELOCITY, 4.0)
        energy, err = observation_energy(signal)
        assert np.isfinite(energy)
        assert err <= 1e-3 * energy
        assert energy == pytest.approx(quadrature_energy(signal)[0], rel=1e-10)
