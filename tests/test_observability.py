import dataclasses
import math

import mpmath
import numpy as np
import pytest
from conftest import single_mode_field
from energy_oracle import energy_mp, poly_exp_integral, poly_exp_integral_scalar, quadrature_energy
from evolution_oracle import signal_from_terms
from hypothesis import given, settings
from hypothesis import strategies as st

from cnslab import counterexamples, kernels, observability
from cnslab.errors import DomainError, QuadratureNotConverged, ZeroState
from cnslab.evolution import ObservationChannel, observation_signal
from cnslab.fields import EigenExpansion, NormSpec, SpectralField, sobolev_norm
from cnslab.kernels import (
    TAYLOR_RADIUS,
    KernelTerm,
    poly_exp_integral_mp,
    signal_energy_exact,
)
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.observability import (
    ingham_audit,
    observability_quotient,
    observation_energy,
)
from cnslab.spectrum import build_slice, eigen_barotropic

# |z|*T from 1e-3 to 1e2, so both the Taylor ball (|z|*T < 0.25) and the
# recurrence are drawn; exact zero is added explicitly.
_SCALED_RATES = st.one_of(
    st.just(0j),
    st.builds(
        lambda mag, angle: 10.0**mag * complex(math.cos(angle), math.sin(angle)),
        st.floats(-3.0, 2.0),
        st.floats(0.0, 2.0 * math.pi),
    ),
)


@st.composite
def _chain_signals(draw):
    """Signals on well-separated rates, each rate carrying a chain of degrees 0..m-1."""
    T = draw(st.floats(0.5, 6.0))
    cells = draw(st.lists(st.tuples(st.integers(0, 10), st.integers(-8, 8)), min_size=1, max_size=6, unique=True))
    coefficient = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    terms = []
    for i, (a, b) in enumerate(cells):
        rate = complex(-0.05 - 0.6 * a + draw(st.floats(0.0, 0.2)), 1.5 * b + draw(st.floats(0.0, 0.5)))
        chain = draw(st.integers(2 if i == 0 else 1, 3))
        terms += [KernelTerm(draw(coefficient), rate, j) for j in range(chain)]
    return signal_from_terms(terms, T)


class TestObservationEnergy:
    def test_single_term_closed_form(self):
        c, nu, T = 1.5 - 0.5j, -0.8 + 2.0j, 3.0
        signal = signal_from_terms([KernelTerm(c, nu, 0)], T)
        energy, err = observation_energy(signal)
        expected = abs(c) ** 2 * (math.exp(2 * nu.real * T) - 1) / (2 * nu.real)
        assert energy == pytest.approx(expected, rel=1e-10)
        assert err <= 1e-3 * energy

    def test_zero_signal(self):
        signal = signal_from_terms([], 1.0)
        assert observation_energy(signal) == (0.0, 0.0)

    def test_two_term_cross_terms(self):
        # rates i*u +- omega content: the closed form matches the quadrature oracle
        T = 2.0
        terms = [KernelTerm(1.0 + 0.3j, -1.0 + 4.0j, 0), KernelTerm(0.4 - 1.1j, -1.0 - 4.0j, 0)]
        signal = signal_from_terms(terms, T)
        energy, _ = observation_energy(signal)
        assert energy == pytest.approx(quadrature_energy(signal)[0], rel=1e-10)

    def test_many_term_bilinear_oracle(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 12)
        rng = np.random.default_rng(0)
        coeffs = {n: rng.normal(size=2) + 1j * rng.normal(size=2) for n in slice_.modes}
        expansion = EigenExpansion(dim=2, coefficients=coeffs)
        for T in (1.0, 7.5):
            signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
            assert len(signal.terms) <= 50
            energy, _ = observation_energy(signal)
            assert energy == pytest.approx(quadrature_energy(signal)[0], rel=1e-10)

    def test_poly_exp_integral_against_quadrature(self):
        from scipy.integrate import quad

        for m, z, T in [(0, -0.5 + 3j, 2.0), (2, -4.0 + 1j, 1.5), (1, 1e-9 + 0j, 2.0), (3, -80.0 + 5j, 0.7)]:
            got = poly_exp_integral(m, z, T)
            re, _ = quad(lambda s: (s**m * np.exp(z * s)).real, 0, T, limit=200)
            im, _ = quad(lambda s: (s**m * np.exp(z * s)).imag, 0, T, limit=200)
            assert got == pytest.approx(re + 1j * im, rel=1e-9, abs=1e-12)

    def test_panel_floor_validation(self):
        signal = signal_from_terms([KernelTerm(1.0, -1.0, 0)], 1.0)
        with pytest.raises(DomainError):
            quadrature_energy(signal, panels_per_period=2)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "term,T",
        [(KernelTerm(complex("nan+0j"), -1.0, 0), 1.0), (KernelTerm(1.0, 800.0 + 0j, 0), 1.0)],
        ids=["nan-coefficient", "overflowing-rate"],
    )
    def test_non_finite_energy_raises(self, term, T):
        signal = signal_from_terms([term, KernelTerm(1.0, -2.0 + 1j, 1)], T)
        with pytest.raises(QuadratureNotConverged):
            observation_energy(signal)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(st.tuples(st.integers(0, 3), _SCALED_RATES), min_size=1, max_size=24),
        T=st.floats(0.1, 10.0),
    )
    def test_broadcast_integral_matches_scalar_path(self, data, T):
        m = np.array([d for d, _ in data])
        z = np.array([r for _, r in data]) / T
        got = poly_exp_integral(m, z, T)
        assert got.shape == z.shape
        scalar = [poly_exp_integral(int(d), r, T) for d, r in zip(m, z)]
        assert all(type(v) is complex for v in scalar)
        np.testing.assert_array_equal(got, scalar)
        # the one-term loop adds its Taylor terms in Python complex arithmetic,
        # which rounds a division differently: a few ulps, never more
        reference = np.array([poly_exp_integral_scalar(int(d), r, T) for d, r in zip(m, z)])
        assert np.all(np.abs(got - reference) <= 2e-15 * np.abs(reference))
        # a scalar degree broadcasts over an array of rates
        np.testing.assert_array_equal(poly_exp_integral(int(m[0]), z, T), poly_exp_integral(np.full(z.shape, m[0]), z, T))

    @settings(max_examples=60, deadline=None)
    @given(signal=_chain_signals())
    def test_closed_form_matches_quadrature_on_chain_signals(self, signal):
        energy, bound = observation_energy(signal)
        assert energy == pytest.approx(quadrature_energy(signal)[0], rel=1e-10)
        assert 0.0 <= bound <= 1e-3 * energy

    @pytest.mark.parametrize(
        "params,N_list",
        [
            (BarotropicParams(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3), [8, 12, 16, 24]),
            # the smalltime-witness benchmark's configuration
            (BarotropicParams(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3), [6, 8, 12, 16]),
            # generic_nonbarotropic: three fields, no coincidences
            (NonBarotropicParams(rho_bar=1.0, u_bar=0.9, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0),
             [6, 8, 12, 16]),
        ],
        ids=["workhorse", "benchmark", "three-field"],
    )
    def test_criterion7_witness_signals_against_40_digits(self, monkeypatch, params, N_list):
        # the small-time witness signals cancel to ~1e-9 of sum |c|**2, the
        # hardest case for the double-precision Hermitian form; the witness
        # takes its energies through observability_quotients
        signals = []
        production = observability.observation_energy

        def recording(signal):
            signals.append(signal)
            return production(signal)

        monkeypatch.setattr(observability, "observation_energy", recording)
        counterexamples.small_time_witness(params, 3.0, N_list, counterexamples.BumpSpec(3.2, 5.8))
        assert len(signals) == 4
        for signal in signals:
            value, bound = observation_energy(signal)
            exact = energy_mp(signal)
            assert abs(value - exact) <= 1e-6 * exact
            assert bound >= abs(value - exact)


class TestPairTable:
    """``signal_energy`` keeps its last pair table and reads its leading block for every byte prefix of its terms at its T."""

    @staticmethod
    def _terms(seed, n=12):
        rng = np.random.default_rng(seed)
        # real parts from -1e-3 to -10, so small-rate pairs fall in the Taylor ball; degrees up to 2
        rates = (-10.0 ** rng.uniform(-3, 1, n)) + 1j * rng.uniform(-6.0, 6.0, n)
        degrees = rng.integers(0, 3, n)
        return rng.normal(size=n) + 1j * rng.normal(size=n), rates, degrees

    @staticmethod
    def _fresh(monkeypatch, c, rates, degrees, T):
        monkeypatch.setattr(kernels, "_pair_table", None)
        return kernels.signal_energy(c, rates, degrees, T)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.floats(0.1, 8.0))
    def test_repeated_call_equals_a_fresh_evaluation(self, seed, T):
        c, rates, degrees = self._terms(seed)
        with pytest.MonkeyPatch.context() as mp:
            first = self._fresh(mp, c, rates, degrees, T)
            np.testing.assert_array_equal(kernels._pair_table[1], kernels.pair_integrals(rates, degrees, T))
            # other coefficients on the same terms hit the table
            c2 = c[::-1].copy()
            hit = kernels.signal_energy(c2, rates.copy(), degrees.copy(), T)
            assert kernels.signal_energy(c, rates, degrees, T) == first
            assert hit == self._fresh(mp, c2, rates, degrees, T)

    def test_rates_mutated_in_place_are_not_served_a_stale_table(self, monkeypatch):
        c, rates, degrees = self._terms(1)
        monkeypatch.setattr(kernels, "_pair_table", None)
        before = kernels.signal_energy(c, rates, degrees, 2.0)
        rates[3] += 0.25
        after = kernels.signal_energy(c, rates, degrees, 2.0)
        assert after != before
        assert after == self._fresh(monkeypatch, c, rates, degrees, 2.0)

    def test_another_horizon_misses_and_drops_the_old_table_first(self, monkeypatch):
        c, rates, degrees = self._terms(2)
        pair_integrals = kernels.pair_integrals
        built = []

        def counted(*args):
            # the slot is empty while a new table is built: two tables never coexist
            built.append(kernels._pair_table)
            return pair_integrals(*args)

        monkeypatch.setattr(kernels, "_pair_table", None)
        monkeypatch.setattr(kernels, "pair_integrals", counted)
        kernels.signal_energy(c, rates, degrees, 2.0)
        kernels.signal_energy(c, rates, degrees, 2.0)
        other = kernels.signal_energy(c, rates, degrees, 2.5)
        assert built == [None, None]
        assert kernels._pair_table[0][2] == 2.5
        monkeypatch.setattr(kernels, "pair_integrals", pair_integrals)
        assert other == self._fresh(monkeypatch, c, rates, degrees, 2.5)

    def test_held_table_is_read_only(self, monkeypatch):
        c, rates, degrees = self._terms(3)
        monkeypatch.setattr(kernels, "_pair_table", None)
        kernels.signal_energy(c, rates, degrees, 1.0)
        held = kernels._pair_table
        np.testing.assert_array_equal(held.abs_K, np.abs(held.K))
        for table in (held.K, held.abs_K):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    def test_one_term_table_is_the_diagonal_entry(self):
        # numpy's lone 1 x 1 product rounds otherwise than a row's; a one-term
        # prefix reads the first entry of a larger table, so its fresh table must agree
        _, rates, degrees = self._terms(452615)
        K = kernels.pair_integrals(rates, degrees, 7.0)
        for i in range(rates.size):
            one = kernels.pair_integrals(rates[i : i + 1], degrees[i : i + 1], 7.0)
            assert one.shape == (1, 1) and one[0, 0].tobytes() == K[i, i].tobytes()

    @staticmethod
    def _counting(mp):
        """Patch ``pair_integrals`` to record the slot's content at each build; returns the record."""
        pair_integrals = kernels.pair_integrals
        built = []

        def counted(*args):
            built.append(kernels._pair_table)
            return pair_integrals(*args)

        mp.setattr(kernels, "pair_integrals", counted)
        return built

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.floats(0.1, 8.0), n=st.integers(1, 14))
    def test_every_prefix_reads_the_leading_block(self, seed, T, n):
        # every prefix length, 1 and n included, reads the held table's
        # leading block as views, and its value and bound equal those of a
        # call from an empty slot bit for bit
        c, rates, degrees = self._terms(seed, n)
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_pair_table", None)
            built = self._counting(mp)
            kernels.signal_energy(c, rates, degrees, T)
            held = kernels._pair_table
            K, abs_K = held.K.copy(), held.abs_K.copy()
            calls = []
            for k in range(1, n + 1):
                prefix = (rng.normal(size=k) + 1j * rng.normal(size=k), rates[:k].copy(), degrees[:k].copy())
                calls.append((prefix, kernels.signal_energy(*prefix, T)))
                assert kernels._pair_table is held
            assert built == [None]
            np.testing.assert_array_equal(held.K, K)
            np.testing.assert_array_equal(held.abs_K, abs_K)
            mp.undo()
            for prefix, got in calls:
                assert [x.hex() for x in got] == [x.hex() for x in self._fresh(mp, *prefix, T)]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.floats(0.1, 8.0), data=st.data())
    def test_subsets_of_the_held_terms_equal_fresh_evaluations(self, seed, T, data):
        # a subset that is not a prefix (a later start, a gap, a repeat, another
        # order) drops the held table and builds its own, equal to a cold call;
        # so do a prefix at another horizon and a call that extends the table
        c, rates, degrees = self._terms(seed)
        rng = np.random.default_rng(seed)
        not_prefix = st.lists(st.integers(0, rates.size - 1), min_size=1, max_size=rates.size + 4).filter(
            lambda rows: rows != list(range(len(rows)))
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_pair_table", None)
            built = self._counting(mp)
            calls = []
            for _ in range(3):
                rows = data.draw(not_prefix)
                sub = (rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows)), rates[rows], degrees[rows])
                kernels.signal_energy(c, rates, degrees, T)
                held = kernels._pair_table
                calls.append((sub, kernels.signal_energy(*sub, T)))
                assert kernels._pair_table is not held and kernels._pair_table.key[0] == sub[1].tobytes()
            kernels.signal_energy(c, rates, degrees, T)
            kernels.signal_energy(c[:4], rates[:4], degrees[:4], T + 0.5)
            kernels.signal_energy(np.append(c, 1.0), np.append(rates, -1.0 + 0.5j), np.append(degrees, 0), T)
            # every call built a table, each in an empty slot
            assert built == [None] * 9
            mp.undo()
            for sub, got in calls:
                assert [x.hex() for x in got] == [x.hex() for x in self._fresh(mp, *sub, T)]


class TestPairIntegrals:
    """``pair_integrals`` (one exponential per term) against the per-pair oracle and 40 digits."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), T=st.floats(0.1, 8.0))
    def test_every_entry_within_1e_10_of_40_digits(self, seed, n, T):
        rng = np.random.default_rng(seed)
        # real parts from -1e-3 to about -300, the first one small enough to put its
        # diagonal pair in the Taylor ball, and three parabolic rates whose
        # e^{nu T} underflows to zero
        real = -(10.0 ** rng.uniform(-3, 2.5, n))
        real[0] = -(10.0 ** rng.uniform(-3, -2))
        rates = np.concatenate([real, -rng.uniform(750, 2000, 3) / T])
        rates = rates + 1j * rng.uniform(-40.0, 40.0, rates.size)
        assert not np.exp(rates[-3:] * T).any()
        degrees = rng.integers(0, 3, rates.size)
        got = kernels.pair_integrals(rates, degrees, T)
        m = degrees[:, None] + degrees[None, :]
        z = rates[:, None] + rates.conj()[None, :]
        oracle = poly_exp_integral(m, z, T)
        with mpmath.workdps(40):
            nu = [mpmath.mpc(r) for r in rates]
            exact = np.array(
                [[complex(poly_exp_integral_mp(int(m[a, b]), nu[a] + mpmath.conj(nu[b]), T)) for b in range(rates.size)] for a in range(rates.size)]
            )
        near = np.abs(z) * T < TAYLOR_RADIUS
        assert near.any()
        # both paths take the same series in the ball
        np.testing.assert_array_equal(got[near], oracle[near])
        assert np.all(np.abs(got - exact) <= 1e-10 * np.abs(exact))
        assert np.all(np.abs(oracle - exact) <= 1e-10 * np.abs(exact))

    def test_near_diagonal_pair_with_a_large_phase(self):
        # |z| T = 0.34 and |Im nu| T = 70: the rounding of each nu*T, if kept
        # in the factors, costs 2.3e-10 on the degree-4 entry
        rates = np.array([-0.0069536008473846935 + 39.49982206593579j, -0.0013324866774667014 + 39.68830160363352j])
        T = 1.7850042840569629
        got = kernels.pair_integrals(rates, np.array([2, 2]), T)[0, 1]
        with mpmath.workdps(40):
            exact = complex(poly_exp_integral_mp(4, mpmath.mpc(rates[0]) + mpmath.conj(mpmath.mpc(rates[1])), T))
        assert abs(got - exact) <= 2e-11 * abs(exact)

    def test_terms_of_degree_zero_hold_two_complex_tables(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        n = 200
        rates = -(10.0 ** rng.uniform(-3, 2, n)) + 1j * rng.uniform(-40.0, 40.0, n)
        degrees = np.zeros(n, dtype=np.int64)
        kernels.pair_integrals(rates, degrees, 3.0)
        tracemalloc.start()
        try:
            K = kernels.pair_integrals(rates, degrees, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # z and K, plus one real table of |z| T and the mask: less than a third complex table
        assert K.nbytes * 2 < peak < K.nbytes * 3


class TestObservabilityQuotient:
    def test_single_mode_closed_form(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 4)
        h, _ = eigen_barotropic(nondegenerate_barotropic, 3)
        field = single_mode_field(3, h.vector, 4)
        T = 5.0
        report = observability_quotient(field, ObservationChannel.DENSITY, T, None, slice_)
        from cnslab.evolution import observation_value

        b_val = observation_value(ObservationChannel.DENSITY, h.vector, 3, nondegenerate_barotropic)
        spec = NormSpec.weighted_l2(nondegenerate_barotropic)
        phi_norm_sq = sobolev_norm(field, spec) ** 2
        nu = h.value
        expected = (
            abs(b_val) ** 2 * (math.exp(2 * nu.real * T) - 1) / (2 * nu.real)
        ) / (math.exp(2 * nu.real * T) * phi_norm_sq)
        assert report.quotient == pytest.approx(expected, rel=1e-8)

    def test_zero_state_raises(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 2)
        field = SpectralField.zeros(2, 2)
        with pytest.raises(ZeroState):
            observability_quotient(field, ObservationChannel.DENSITY, 1.0, None, slice_)

    def test_scale_invariance(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 6)
        rng = np.random.default_rng(1)
        c = rng.normal(size=(13, 2)) + 1j * rng.normal(size=(13, 2))
        c[6] = 0
        field = SpectralField(dim=2, N=6, coeffs=c)
        r1 = observability_quotient(field, ObservationChannel.DENSITY, 3.0, None, slice_)
        r2 = observability_quotient((2.7 - 0.4j) * field, ObservationChannel.DENSITY, 3.0, None, slice_)
        assert r2.quotient == pytest.approx(r1.quotient, rel=1e-12)

    def test_nonstandard_norm_watermark(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 3)
        field = single_mode_field(1, eigen_barotropic(nondegenerate_barotropic, 1)[0].vector, 3)
        custom = NormSpec(weights=(1.0, 1.0), orders=(0.0, 0.0))
        report = observability_quotient(field, ObservationChannel.DENSITY, 2.0, custom, slice_)
        assert report.metadata.get("watermark") == "nonstandard-norm"

    def test_positive_minimum_over_random_sweep(self, nondegenerate_barotropic):
        # desk-scale reflection of the positive observability bound for T
        # above the transport time
        slice_ = build_slice(nondegenerate_barotropic, 24)
        rng = np.random.default_rng(2)
        quotients = []
        for _ in range(25):
            c = rng.normal(size=(49, 2)) + 1j * rng.normal(size=(49, 2))
            c[24] = 0
            field = SpectralField(dim=2, N=24, coeffs=c)
            quotients.append(observability_quotient(field, ObservationChannel.DENSITY, 8.0, None, slice_).quotient)
        assert min(quotients) > 0.0


class TestInghamAudit:
    def test_barotropic_reference_constants(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 100)
        audit = ingham_audit(slice_)
        assert audit.p3.extra["r"] == 2.0
        assert audit.p3.value >= 0.5  # delta = mu0/2
        assert audit.h2.extra["tau"] == pytest.approx(0.9, abs=1e-2)
        assert audit.h2.extra["beta_re"] == pytest.approx(-1.3, abs=1e-2)
        assert abs(audit.h2.extra["beta_im"]) <= 1e-2
        assert audit.p2.value >= nondegenerate_barotropic.mu0 / (2 * nondegenerate_barotropic.u_bar)
        assert audit.all_pass

    def test_degenerate_p1_fails_with_witness(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 10)
        audit = ingham_audit(slice_)
        assert not audit.p1.passed
        assert set(audit.p1.witness) == {-1, 1}
        assert not audit.all_pass

    def test_params_must_be_the_slice_s_own(self, nondegenerate_barotropic):
        # the audit reads its parameters from the slice: a smaller mu0 moves
        # the hyperbolic fit threshold from 3 to 5
        other = dataclasses.replace(nondegenerate_barotropic, mu0=0.5)
        assert ingham_audit(build_slice(nondegenerate_barotropic, 4)).h2.extra["tau"] > 0.0
        with pytest.raises(DomainError, match=r"N >= 5 \(hyperbolic fit from \|n\| >= 5\)"):
            ingham_audit(build_slice(other, 4))
        assert ingham_audit(build_slice(other, 16)).h2.extra["tau"] > 0.0

    def test_nonbarotropic_merged_family(self, generic_nonbarotropic):
        slice_ = build_slice(generic_nonbarotropic, 30)
        audit = ingham_audit(slice_)
        # the merged-index P3 ratio collapses across branches while the
        # relaxed |n - m| gap and the cross-branch constants stay positive
        assert audit.p3.value < 0.1
        assert audit.relaxed.value > 0.0
        assert audit.relaxed.extra["c_hat"] > 0.0
        assert audit.cross_gaps["p1_p2_over_mixed"] > 0.0
        assert audit.cross_gaps["p1_p1_over_n2"] > 0.0

    def test_empirical_ingham_lower_bound(self, nondegenerate_barotropic):
        # energy >= c (sum |a_h|^2 + sum |a_p|^2 e^{2 Re nu_p T}) across trials
        slice_ = build_slice(nondegenerate_barotropic, 24)
        T = 8.0
        rng = np.random.default_rng(3)
        ratios = []
        for _ in range(200):
            coeffs = {}
            rhs = 0.0
            for n in slice_.modes:
                a = rng.normal(size=2) + 1j * rng.normal(size=2)
                coeffs[n] = a
                h, p = slice_.mode(n).pairs
                rhs += abs(a[0]) ** 2 + abs(a[1]) ** 2 * math.exp(2 * p.value.real * T)
            expansion = EigenExpansion(dim=2, coefficients=coeffs)
            signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
            energy = signal_energy_exact(signal.terms, T)
            ratios.append(energy / rhs)
        fitted_c = min(ratios)
        assert fitted_c > 0.0

    def test_hyperbolic_sandwich(self, nondegenerate_barotropic):
        # purely hyperbolic coefficients: energy comparable to the weighted
        # coefficient mass from both sides for T above the critical time
        slice_ = build_slice(nondegenerate_barotropic, 24)
        T = 8.0
        rng = np.random.default_rng(4)
        ratios = []
        for _ in range(100):
            coeffs = {}
            rhs = 0.0
            for n in slice_.modes:
                a = rng.normal() + 1j * rng.normal()
                coeffs[n] = np.array([a, 0.0], dtype=complex)
                h = slice_.mode(n).pairs[0]
                from cnslab.evolution import observation_value

                rhs += abs(a * observation_value(ObservationChannel.DENSITY, h.vector, n, nondegenerate_barotropic)) ** 2
            expansion = EigenExpansion(dim=2, coefficients=coeffs)
            signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
            ratios.append(signal_energy_exact(signal.terms, T) / rhs)
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) < 1e3
