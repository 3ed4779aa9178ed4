import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnslab.errors import DomainError
from cnslab.model import (
    BarotropicParams,
    DegeneracyVerdict,
    NonBarotropicParams,
    check_degeneracy_barotropic,
    check_s_membership,
)


class TestDeriveBarotropic:
    @pytest.mark.parametrize("field,value", [("rho_bar", 0.0), ("u_bar", -1.0), ("b", 0.0)])
    def test_sign_conditions_name_the_field(self, field, value):
        kwargs = dict(rho_bar=1.0, u_bar=1.0, mu0=1.0, b=1.0)
        kwargs[field] = value
        with pytest.raises(DomainError, match=field):
            BarotropicParams(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["rho_bar", "u_bar", "mu0", "b"])
    def test_non_finite_coefficients_rejected(self, field, value):
        kwargs = dict(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3)
        kwargs[field] = value
        with pytest.raises(DomainError, match=field):
            BarotropicParams(**kwargs)

    def test_non_finite_nonbarotropic_rejected(self):
        with pytest.raises(DomainError, match="kappa0"):
            NonBarotropicParams(rho_bar=1.0, u_bar=1.0, theta_bar=1.0, lambda0=1.0, kappa0=math.inf, R=1.0, c0=1.0)


class TestDegeneracy:
    def test_jordan_block_coefficients(self, unit_barotropic):
        # n0 = 2 natural; b*rho - u^2 = 0 so n1 = 0, which is not natural.
        report = check_degeneracy_barotropic(unit_barotropic)
        assert report.n0 == pytest.approx(2.0)
        assert report.n0_natural
        assert report.n1 == pytest.approx(0.0)
        assert not report.n1_natural
        assert report.verdict is DegeneracyVerdict.MULTIPLE_WITH_CHAIN

    def test_unique_continuation_failure(self, uc_failing_barotropic):
        report = check_degeneracy_barotropic(uc_failing_barotropic)
        assert report.n1 == pytest.approx(1.0)
        assert report.n1_natural
        assert report.verdict is DegeneracyVerdict.UNIQUE_CONTINUATION_FAILS

    def test_all_simple(self, nondegenerate_barotropic):
        report = check_degeneracy_barotropic(nondegenerate_barotropic)
        assert report.n0 == pytest.approx(2.0 * math.sqrt(1.3), rel=1e-12)
        assert report.n1 == pytest.approx(2.0 * math.sqrt(1.3 - 0.81), rel=1e-12)
        assert report.verdict is DegeneracyVerdict.ALL_SIMPLE

    def test_spec_closed_forms(self):
        p = BarotropicParams(rho_bar=1, u_bar=0.9, mu0=1, b=1.3)
        r = check_degeneracy_barotropic(p)
        assert r.n0 == pytest.approx(2.2803508502, rel=1e-9)
        assert r.n1 == pytest.approx(1.4, rel=1e-12)

    def test_tolerance_range_validated(self, unit_barotropic):
        with pytest.raises(DomainError):
            check_degeneracy_barotropic(unit_barotropic, integer_tolerance=0.7)

    @given(c=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_verdict_invariant_under_rescaling(self, c):
        # (b, rho, mu0, u) -> (c^2 b, rho, c mu0, c u) leaves n0 and n1 unchanged.
        base = BarotropicParams(rho_bar=1.0, u_bar=1.0, mu0=1.0, b=1.25)
        scaled = BarotropicParams(rho_bar=1.0, u_bar=c * 1.0, mu0=c * 1.0, b=c * c * 1.25)
        r0 = check_degeneracy_barotropic(base, integer_tolerance=1e-6)
        r1 = check_degeneracy_barotropic(scaled, integer_tolerance=1e-6)
        assert r0.verdict is r1.verdict
        assert r1.n0 == pytest.approx(r0.n0, rel=1e-9)
        assert r1.n1 == pytest.approx(r0.n1, rel=1e-9)


class TestSMembership:
    def test_sqrt_half_is_irrational(self):
        report = check_s_membership(1.0, 2.0)
        assert report.rational_hit is None
        assert report.in_s

    def test_perfect_square_ratio(self):
        report = check_s_membership(4.0, 1.0)
        assert report.rational_hit == (2, 1)
        assert not report.in_s

    def test_quadratic_irrational_exponent(self):
        report = check_s_membership(1.0, 2.0, max_denominator=10**6)
        assert 0 < report.fitted_M <= 2.5

    def test_convergent_errors_strictly_decrease(self):
        report = check_s_membership(1.0, 3.0, max_denominator=10**5)
        errors = [c.error for c in report.convergents]
        nonzero = [e for e in errors if e > 0]
        assert all(a > b for a, b in zip(nonzero, nonzero[1:]))

    def test_classical_convergent_bound(self):
        report = check_s_membership(2.0, 3.0, max_denominator=10**5)
        cs = report.convergents
        for a, b in zip(cs, cs[1:]):
            assert a.error < 1.0 / (a.b * b.b)

    def test_rational_nonsquare_ratio_detected_via_convergents(self):
        # lambda0/kappa0 = 9/4: sqrt = 3/2 rational.
        report = check_s_membership(2.25, 1.0)
        assert report.rational_hit == (3, 2)
        assert not report.in_s

    def test_preconditions(self):
        with pytest.raises(DomainError):
            check_s_membership(-1.0, 1.0)
        with pytest.raises(DomainError):
            check_s_membership(1.0, 1.0, max_denominator=1)
