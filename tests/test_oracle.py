import csv
import dataclasses
import math

import numpy as np
import pytest

import spectrum_oracle
from conftest import field_from_modes
from cnslab import evolution, oracle
from cnslab.errors import CFLViolation, DomainError
from cnslab.fields import SpectralField
from cnslab.oracle import GridState, compare_spectral_fdm, fdm_evolve
from cnslab.spectrum import _symbol

TWO_PI = 2.0 * math.pi


def _smooth_real_field(rng, dim, N, decay=0.3):
    c = np.zeros((2 * N + 1, dim), dtype=complex)
    for n in range(1, N + 1):
        v = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * math.exp(-decay * n)
        c[n + N] = v
        c[-n + N] = np.conj(v)
    return SpectralField(dim=dim, N=N, coeffs=c)


class TestForwardOperator:
    @pytest.mark.parametrize("name", ["nondegenerate_barotropic", "generic_nonbarotropic"])
    def test_sampled_modes_see_the_symbol_at_modified_wavenumbers(self, name, request):
        # the per-system symbol of the test oracle is i*n*X - n**2*Y; central
        # differences turn i*n into i*sin(n*h)/h and -n**2 into -4*sin(n*h/2)**2/h**2
        params = request.getfixturevalue(name)
        M = 64
        h = TWO_PI / M
        x = h * np.arange(M)
        plus, minus = (spectrum_oracle._symbol(params, k, forward=True) for k in (1, -1))
        X, Y = (plus - minus) / 2j, -(plus + minus) / 2
        L = oracle._forward_operator(params, M)
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, -5, 31, 32):
            c = rng.normal(size=params.dim) + 1j * rng.normal(size=params.dim)
            symbol = (1j * math.sin(n * h) / h) * X + (-4.0 * math.sin(n * h / 2) ** 2 / h**2) * Y
            wave = np.exp(1j * n * x)
            got = L @ np.concatenate([cj * wave for cj in c])
            want = np.concatenate([sj * wave for sj in symbol @ c])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestFdmEvolve:
    def test_zero_state_stays_zero(self, nondegenerate_barotropic):
        state = GridState(M=128, components=np.zeros((2, 128)), time=0.0)
        traj = fdm_evolve(nondegenerate_barotropic, state, T=0.1, dt=1e-3)
        assert np.all(traj.final().components == 0.0)

    def test_mass_conserved_per_step(self, nondegenerate_barotropic):
        rng = np.random.default_rng(0)
        field = _smooth_real_field(rng, 2, 8)
        state = GridState.from_field(field, 256)
        traj = fdm_evolve(nondegenerate_barotropic, state, T=0.05, dt=5e-4, store_every=1)
        means = [s.mean(0) for s in traj.states]
        for m1, m2 in zip(means, means[1:]):
            assert abs(m2 - m1) <= 1e-12

    def test_three_field_integral_identities(self, generic_nonbarotropic):
        rng = np.random.default_rng(1)
        field = _smooth_real_field(rng, 3, 8)
        state = GridState.from_field(field, 256)
        traj = fdm_evolve(generic_nonbarotropic, state, T=0.05, dt=5e-4, store_every=1)
        for comp in (0,):
            means = [s.mean(comp) for s in traj.states]
            for m1, m2 in zip(means, means[1:]):
                assert abs(m2 - m1) <= 1e-12

    def test_energy_non_increasing(self, nondegenerate_barotropic):
        rng = np.random.default_rng(2)
        field = _smooth_real_field(rng, 2, 12)
        state = GridState.from_field(field, 256)
        traj = fdm_evolve(nondegenerate_barotropic, state, T=0.2, dt=5e-4, store_every=10)
        energies = [s.weighted_energy(nondegenerate_barotropic) for s in traj.states]
        for e1, e2 in zip(energies, energies[1:]):
            assert e2 <= e1 * (1 + 1e-10) + 1e-12

    def test_eigenfunction_decay_rate(self, nondegenerate_barotropic):
        # manufactured solution: real part of a forward parabolic mode; the
        # h^2 eigenvector mismatch seeds ~1e-5 of the slow branch, which caps
        # the achievable agreement once the main mode has decayed strongly
        M = _symbol(nondegenerate_barotropic, -4)
        vals, vecs = np.linalg.eig(M)
        k = int(np.argmin(vals.real))  # parabolic branch decays fastest
        nu, vec = vals[k], vecs[:, k]
        field = field_from_modes(2, 4, {4: vec, -4: np.conj(vec)})
        state = GridState.from_field(field, 1024)
        short = fdm_evolve(nondegenerate_barotropic, state, T=0.1, dt=1e-4)
        ratio = np.linalg.norm(short.final().components) / np.linalg.norm(state.components)
        assert ratio == pytest.approx(abs(np.exp(nu * 0.1)), rel=1e-3)
        long = fdm_evolve(nondegenerate_barotropic, state, T=0.5, dt=1e-4)
        ratio = np.linalg.norm(long.final().components) / np.linalg.norm(state.components)
        assert ratio == pytest.approx(abs(np.exp(nu * 0.5)), rel=1e-2)

    def test_spatial_order_of_accuracy(self, nondegenerate_barotropic):
        M_op = _symbol(nondegenerate_barotropic, -4)
        vals, vecs = np.linalg.eig(M_op)
        k = int(np.argmin(vals.real))
        field = field_from_modes(2, 4, {4: vecs[:, k], -4: np.conj(vecs[:, k])})
        t_end = 0.25
        errors = []
        from cnslab.evolution import forward_states

        for M in (128, 256, 512):
            state = GridState.from_field(field, M)
            traj = fdm_evolve(nondegenerate_barotropic, state, T=t_end, dt=5e-5)
            xs = TWO_PI * np.arange(M) / M
            exact = forward_states(field, nondegenerate_barotropic, [t_end])[0].state.sample(xs).real.T
            errors.append(np.linalg.norm(traj.final().components - exact) / np.linalg.norm(exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.8 <= o <= 2.2 for o in orders)

    def test_cfl_violation(self, nondegenerate_barotropic):
        state = GridState(M=128, components=np.zeros((2, 128)), time=0.0)
        with pytest.raises(CFLViolation):
            fdm_evolve(nondegenerate_barotropic, state, T=1.0, dt=0.5)

    def test_grid_minimum_size(self):
        with pytest.raises(DomainError):
            GridState(M=32, components=np.zeros((2, 32)), time=0.0)

    @pytest.mark.parametrize("dt", [0.0, math.nan, -1e-3])
    def test_step_must_be_finite_and_positive(self, nondegenerate_barotropic, dt):
        state = GridState(M=128, components=np.zeros((2, 128)), time=0.0)
        with pytest.raises(DomainError, match="dt"):
            fdm_evolve(nondegenerate_barotropic, state, T=0.1, dt=dt)

    def test_seam_jump_changes_solution(self, nondegenerate_barotropic):
        # a nonzero density trace must act on the solution (heuristic branch)
        state = GridState(M=128, components=np.zeros((2, 128)), time=0.0)
        traj = fdm_evolve(
            nondegenerate_barotropic,
            state,
            T=0.05,
            dt=1e-4,
            traces=lambda t: np.array([math.sin(8 * t), 0.0]),
        )
        assert traj.controlled
        assert np.max(np.abs(traj.final().components)) > 0.0


class TestCompare:
    def test_agreement_within_tolerance(self, nondegenerate_barotropic):
        rng = np.random.default_rng(3)
        field = _smooth_real_field(rng, 2, 16)
        record = compare_spectral_fdm(nondegenerate_barotropic, field, T=0.4, M=1024, dt=1e-4)
        assert record.max_error <= 1e-3
        assert record.mean_drift <= 1e-12
        assert record.energy_monotone

    def test_comparison_reads_the_eigenbasis(self, nondegenerate_barotropic, monkeypatch):
        # the spectral side is the slice's eigen-flow: a basis entry off by 1%
        # takes the comparison past criterion 10's bound.  Scaling a whole
        # column would not: the expansion divides by what the flow multiplies.
        rng = np.random.default_rng(3)
        field = _smooth_real_field(rng, 2, 16)
        build_slice = evolution.build_slice

        def perturbed(components):
            # build_slice with these components of every mode's hyperbolic column scaled by 1.01
            def build(params, N):
                slice_ = build_slice(params, N)
                basis = slice_.basis.basis.copy()
                basis[:, components, 0] *= 1.01
                return dataclasses.replace(slice_, basis=slice_.basis._replace(basis=basis))

            return build

        exact = evolution.forward_states(field, nondegenerate_barotropic, [0.4])[0].state.coeffs
        monkeypatch.setattr(evolution, "build_slice", perturbed(slice(None)))
        scaled = evolution.forward_states(field, nondegenerate_barotropic, [0.4])[0].state.coeffs
        assert np.linalg.norm(scaled - exact) <= 1e-13 * np.linalg.norm(exact)
        monkeypatch.setattr(evolution, "build_slice", perturbed(0))
        record = compare_spectral_fdm(nondegenerate_barotropic, field, T=0.4, M=1024, dt=1e-4)
        assert record.max_error > 1e-3

    def test_one_slice_per_comparison(self, nondegenerate_barotropic, monkeypatch):
        # the three checkpoints share one slice and one set of coordinates
        field = _smooth_real_field(np.random.default_rng(3), 2, 8)
        built = []
        build_slice = evolution.build_slice

        def counting(params, N):
            built.append(N)
            return build_slice(params, N)

        monkeypatch.setattr(evolution, "build_slice", counting)
        record = compare_spectral_fdm(nondegenerate_barotropic, field, T=0.1, M=128, dt=1e-3)
        assert built == [8] and len(record.checkpoints) == 3

    def test_second_order_trend(self, nondegenerate_barotropic):
        rng = np.random.default_rng(3)
        field = _smooth_real_field(rng, 2, 16)
        coarse = compare_spectral_fdm(nondegenerate_barotropic, field, T=0.4, M=1024, dt=2e-4)
        fine = compare_spectral_fdm(nondegenerate_barotropic, field, T=0.4, M=2048, dt=1e-4)
        assert coarse.max_error / fine.max_error >= 3.0

    @pytest.mark.parametrize(
        "N,M,dt", [(4, 128, 0.0), (4, 128, math.nan), (4, 128, -1e-3), (4, 0, 1e-3), (4, -5, 1e-3), (0, 128, 1e-3)]
    )
    def test_bad_inputs_are_domain_errors(self, nondegenerate_barotropic, N, M, dt):
        field = _smooth_real_field(np.random.default_rng(3), 2, N)
        with pytest.raises(DomainError):
            compare_spectral_fdm(nondegenerate_barotropic, field, T=0.1, M=M, dt=dt)

    def test_step_budget(self):
        # the budget counts round(T/dt) and sits above every run of the suite (5000 steps at most)
        assert oracle.MAX_FDM_STEPS >= 20 * 5000
        oracle.check_fdm_inputs(4, 128, 1e-3, oracle.MAX_FDM_STEPS * 1e-3)
        with pytest.raises(DomainError, match=f"asks for {oracle.MAX_FDM_STEPS + 1} time steps"):
            oracle.check_fdm_inputs(4, 128, 1e-3, (oracle.MAX_FDM_STEPS + 1) * 1e-3)
        with pytest.raises(DomainError, match="asks for inf time steps"):
            oracle.check_fdm_inputs(4, 128, 1e-300, 1e300)

    def test_zero_field(self, nondegenerate_barotropic):
        # the zero field evolves like any other: every checkpoint, the drift and the energy stay exactly zero
        record = compare_spectral_fdm(nondegenerate_barotropic, SpectralField.zeros(2, 4), T=0.4, M=128, dt=1e-3)
        assert record.checkpoints == {0.25 * 0.4: 0.0, 0.5 * 0.4: 0.0, 0.4: 0.0}
        assert record.mean_drift == 0.0 and record.energy_monotone

    def test_three_field_comparison(self, generic_nonbarotropic):
        rng = np.random.default_rng(4)
        field = _smooth_real_field(rng, 3, 8)
        record = compare_spectral_fdm(generic_nonbarotropic, field, T=0.2, M=512, dt=1e-4)
        assert record.max_error <= 2e-3
        assert record.energy_monotone


def _trajectory_csv_rows(traj, path) -> None:
    """``t,x,component,value`` rows of every stored state, written row by row through ``csv.writer``."""
    M = traj.states[0].M
    xs = TWO_PI * np.arange(M) / M
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "component", "value"])
        for state in traj.states:
            for j in range(state.dim):
                for i in range(M):
                    writer.writerow(
                        [format(state.time, ".17g"), format(xs[i], ".17g"), j, format(state.components[j, i], ".17g")]
                    )


@pytest.mark.parametrize("name", ["nondegenerate_barotropic", "generic_nonbarotropic"])
def test_trajectory_csv_bytes(name, request, tmp_path):
    # one buffered write, byte for byte the rows of csv.writer: stored
    # states of both systems, then a state of signed zeros, tiny and huge values
    params = request.getfixturevalue(name)
    grid0 = GridState.from_field(_smooth_real_field(np.random.default_rng(7), params.dim, 6), 64)
    traj = fdm_evolve(params, grid0, 0.05, 1e-3, store_every=10)
    special = np.resize([-0.0, 0.0, 5e-324, -1e-300, 1.7976931348623157e308, 0.1, -2.5], (params.dim, 64))
    traj.states.append(GridState(M=64, components=special, time=1e-17))
    for trajectory in (traj, dataclasses.replace(traj, states=traj.states[:1])):
        oracle.export_trajectory_csv(trajectory, tmp_path / "new.csv")
        _trajectory_csv_rows(trajectory, tmp_path / "rows.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
