import math

import mpmath
import numpy as np
import pytest
from energy_oracle import poly_exp_integral_scalar, quadrature_energy
from hypothesis import given, settings
from hypothesis import strategies as st

from cnslab import counterexamples
from cnslab.errors import DomainError, DuplicateRate, QuadratureNotConverged, ZeroState
from cnslab.evolution import ObservationChannel, ObservationSignal, SignalTerm, observation_signal
from cnslab.fields import EigenExpansion, NormSpec, SpectralField, sobolev_norm
from cnslab.kernels import poly_exp_integral, poly_exp_integral_mp, signal_energy_exact
from cnslab.model import BarotropicParams
from cnslab.observability import (
    biorthogonal_gram,
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
        terms += [SignalTerm(draw(coefficient), rate, j) for j in range(chain)]
    return ObservationSignal(terms=terms, horizon=T)


class TestObservationEnergy:
    def test_single_term_closed_form(self):
        c, nu, T = 1.5 - 0.5j, -0.8 + 2.0j, 3.0
        signal = ObservationSignal(terms=[SignalTerm(c, nu, 0)], horizon=T)
        energy, err = observation_energy(signal, T)
        expected = abs(c) ** 2 * (math.exp(2 * nu.real * T) - 1) / (2 * nu.real)
        assert energy == pytest.approx(expected, rel=1e-10)
        assert err <= 1e-3 * energy

    def test_zero_signal(self):
        signal = ObservationSignal(terms=[], horizon=1.0)
        assert observation_energy(signal, 1.0) == (0.0, 0.0)

    def test_two_term_cross_terms(self):
        # rates i*u +- omega content: the closed form matches the quadrature oracle
        T = 2.0
        terms = [SignalTerm(1.0 + 0.3j, -1.0 + 4.0j, 0), SignalTerm(0.4 - 1.1j, -1.0 - 4.0j, 0)]
        signal = ObservationSignal(terms=terms, horizon=T)
        energy, _ = observation_energy(signal, T)
        assert energy == pytest.approx(quadrature_energy(signal)[0], rel=1e-10)

    def test_many_term_bilinear_oracle(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 12)
        rng = np.random.default_rng(0)
        coeffs = {n: rng.normal(size=2) + 1j * rng.normal(size=2) for n in slice_.modes}
        expansion = EigenExpansion(dim=2, coefficients=coeffs)
        for T in (1.0, 7.5):
            signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
            assert len(signal.terms) <= 50
            energy, _ = observation_energy(signal, T)
            assert energy == pytest.approx(quadrature_energy(signal)[0], rel=1e-10)

    def test_poly_exp_integral_against_quadrature(self):
        from scipy.integrate import quad

        for m, z, T in [(0, -0.5 + 3j, 2.0), (2, -4.0 + 1j, 1.5), (1, 1e-9 + 0j, 2.0), (3, -80.0 + 5j, 0.7)]:
            got = poly_exp_integral(m, z, T)
            re, _ = quad(lambda s: (s**m * np.exp(z * s)).real, 0, T, limit=200)
            im, _ = quad(lambda s: (s**m * np.exp(z * s)).imag, 0, T, limit=200)
            assert got == pytest.approx(re + 1j * im, rel=1e-9, abs=1e-12)

    def test_panel_floor_validation(self):
        signal = ObservationSignal(terms=[SignalTerm(1.0, -1.0, 0)], horizon=1.0)
        with pytest.raises(DomainError):
            quadrature_energy(signal, panels_per_period=2)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "term,T",
        [(SignalTerm(complex("nan+0j"), -1.0, 0), 1.0), (SignalTerm(1.0, 800.0 + 0j, 0), 1.0)],
        ids=["nan-coefficient", "overflowing-rate"],
    )
    def test_non_finite_energy_raises(self, term, T):
        signal = ObservationSignal(terms=[term, SignalTerm(1.0, -2.0 + 1j, 1)], horizon=T)
        with pytest.raises(QuadratureNotConverged):
            observation_energy(signal, T)

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
        energy, bound = observation_energy(signal, signal.horizon)
        assert energy == pytest.approx(quadrature_energy(signal)[0], rel=1e-10)
        assert 0.0 <= bound <= 1e-3 * energy

    def test_criterion7_witness_signals_against_40_digits(self, monkeypatch):
        # the small-time witness signals cancel to ~1e-9 of sum |c|**2, the
        # hardest case for the double-precision Hermitian form
        signals = []
        production = counterexamples.observation_energy

        def recording(signal, T=None):
            signals.append(signal)
            return production(signal, T)

        monkeypatch.setattr(counterexamples, "observation_energy", recording)
        workhorse = BarotropicParams(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3)
        counterexamples.small_time_witness(workhorse, 3.0, [8, 12, 16, 24], counterexamples.BumpSpec(3.2, 5.8))
        assert len(signals) == 4
        for signal in signals:
            value, bound = observation_energy(signal, signal.horizon)
            terms = signal.terms
            with mpmath.workdps(40):
                c = [mpmath.mpc(t.coefficient) for t in terms]
                nu = [mpmath.mpc(t.rate) for t in terms]
                T = mpmath.mpf(signal.horizon)
                exact = mpmath.mpf(0)
                for a in range(len(terms)):
                    for b in range(a, len(terms)):
                        pair = c[a] * mpmath.conj(c[b]) * poly_exp_integral_mp(
                            terms[a].poly_degree + terms[b].poly_degree, nu[a] + mpmath.conj(nu[b]), T
                        )
                        exact += pair.real if a == b else 2 * pair.real
                exact = float(exact)
            assert abs(value - exact) <= 1e-6 * exact
            assert bound >= abs(value - exact)


class TestObservabilityQuotient:
    def test_single_mode_closed_form(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 4)
        h, _ = eigen_barotropic(nondegenerate_barotropic, 3)
        field = SpectralField.single_mode(3, h.vector, 4)
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
        field = SpectralField.single_mode(1, eigen_barotropic(nondegenerate_barotropic, 1)[0].vector, 3)
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
        audit = ingham_audit(slice_, nondegenerate_barotropic, T=8.0)
        assert audit.p3.extra["r"] == 2.0
        assert audit.p3.value >= 0.5  # delta = mu0/2
        assert audit.h2.extra["tau"] == pytest.approx(0.9, abs=1e-2)
        assert audit.h2.extra["beta_re"] == pytest.approx(-1.3, abs=1e-2)
        assert abs(audit.h2.extra["beta_im"]) <= 1e-2
        assert audit.p2.value >= nondegenerate_barotropic.mu0 / (2 * nondegenerate_barotropic.u_bar)
        assert audit.all_pass

    def test_degenerate_p1_fails_with_witness(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 10)
        audit = ingham_audit(slice_, uc_failing_barotropic, T=8.0)
        assert not audit.p1.passed
        assert set(audit.p1.witness) == {-1, 1}
        assert not audit.all_pass

    def test_nonbarotropic_merged_family(self, generic_nonbarotropic):
        slice_ = build_slice(generic_nonbarotropic, 30)
        audit = ingham_audit(slice_, generic_nonbarotropic, T=8.0)
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


class TestBiorthogonalGram:
    def test_two_real_rates_closed_form(self):
        diag = biorthogonal_gram([-1.0, -4.0], T=1.0)
        G = diag.gram
        assert G[0, 0] == pytest.approx((1 - math.exp(-2)) / 2, rel=1e-12)
        assert G[1, 1] == pytest.approx((1 - math.exp(-8)) / 8, rel=1e-12)
        assert G[0, 1] == pytest.approx((1 - math.exp(-5)) / 5, rel=1e-12)
        assert G[1, 0] == pytest.approx(G[0, 1].conjugate(), rel=1e-12)

    def test_duplicate_rate(self):
        with pytest.raises(DuplicateRate):
            biorthogonal_gram([-1.0, -1.0], T=1.0)

    def test_positive_real_part_rejected(self):
        with pytest.raises(DomainError):
            biorthogonal_gram([1.0 + 0j], T=1.0)

    def test_parabolic_branch_rank(self, nondegenerate_barotropic):
        # Condensation in action: the 20-member family loses five directions
        # below 1e-12 of the top singular value (verified against the SVD of
        # the closed-form Gram); the conditioning is reported, not hidden.
        slice_ = build_slice(nondegenerate_barotropic, 10)
        rates = [slice_.mode(n).pairs[1].value for n in sorted(slice_.modes)]
        diag = biorthogonal_gram(rates, T=8.0, svd_threshold=1e-12)
        assert diag.numerical_rank == 15
        assert diag.gram.shape == (20, 20)
        assert diag.condition() > 1e12
        assert np.all(diag.biorthogonal_norms > 0)
