import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_from_modes, random_barotropic, random_nonbarotropic, single_mode_field
from cnslab.errors import DomainError
from cnslab.fields import (
    NormSpec,
    SpectralField,
    eigen_coordinates,
    expand_in_eigenbasis,
    reconstruct,
    sobolev_norm,
)
from cnslab.spectrum import build_slice, eigen_barotropic

TWO_PI = 2.0 * math.pi


def _random_mean_zero(rng, dim, N):
    c = rng.normal(size=(2 * N + 1, dim)) + 1j * rng.normal(size=(2 * N + 1, dim))
    c[N] = 0.0
    return SpectralField(dim=dim, N=N, coeffs=c)


class TestSobolevNorm:
    def test_single_mode_l2(self):
        f = field_from_modes(2, 5, {5: np.array([1.0, 0.0])})
        spec = NormSpec(weights=(1.0, 1.0), orders=(0.0, 0.0))
        assert sobolev_norm(f, spec) == pytest.approx(math.sqrt(TWO_PI))

    def test_negative_order_weighting(self):
        f = field_from_modes(2, 3, {3: np.array([1.0, 0.0])})
        spec = NormSpec(weights=(1.0, 1.0), orders=(-1.0, 0.0))
        assert sobolev_norm(f, spec) == pytest.approx(math.sqrt(TWO_PI / 10.0))

    def test_mean_zero_required(self):
        # no field with a mean can be built, so no norm of one is taken: the
        # constructor refuses any nonzero n = 0 row, a NaN or a bare imaginary part too
        for mean in ([1.0, 0.0], [0.0, 1e-300j], [np.nan, 0.0]):
            coeffs = np.zeros((5, 2), dtype=complex)
            coeffs[2] = mean
            with pytest.raises(DomainError, match="mean zero"):
                SpectralField(dim=2, N=2, coeffs=coeffs)
        assert SpectralField(dim=2, N=2, coeffs=np.zeros((5, 2))).coeff(0).tolist() == [0j, 0j]

    def test_parseval_consistency(self, nondegenerate_barotropic):
        rng = np.random.default_rng(1)
        f = _random_mean_zero(rng, 2, 12)
        spec = NormSpec.weighted_l2(nondegenerate_barotropic)
        weighted_sum = TWO_PI * sum(w * np.sum(np.abs(f.coeffs[:, j]) ** 2) for j, w in enumerate(spec.weights))
        assert sobolev_norm(f, spec) ** 2 == pytest.approx(weighted_sum, rel=1e-12)

    def test_hyperbolic_eigenfunction_norm(self, unit_barotropic):
        h, _ = eigen_barotropic(unit_barotropic, 3)
        f = single_mode_field(3, h.vector, 3)
        spec = NormSpec.weighted_l2(unit_barotropic)
        value = sobolev_norm(f, spec) ** 2
        expected = TWO_PI * (1.0 * 1.0**2 + 1.0 * abs(h.nu_scaled - 1.0) ** 2)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(7.2000, abs=2e-4)


class TestExpansion:
    def test_basis_vector_expands_to_unit_coefficient(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 4)
        h, _ = eigen_barotropic(nondegenerate_barotropic, 1)
        f = single_mode_field(1, h.vector, 4)
        expansion = expand_in_eigenbasis(f, slice_)
        coeffs = expansion.coefficients[1]
        assert coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert abs(coeffs[1]) <= 1e-12
        for n in expansion.coefficients:
            if n != 1:
                assert np.all(np.abs(expansion.coefficients[n]) <= 1e-13)

    def test_two_by_two_solve_matches_closed_forms(self, unit_barotropic):
        slice_ = build_slice(unit_barotropic, 1)
        f = field_from_modes(2, 1, {1: np.array([1.0, 0.0])})
        expansion = expand_in_eigenbasis(f, slice_)
        h, p = eigen_barotropic(unit_barotropic, 1)
        V = np.column_stack([h.vector, p.vector])
        expected = np.linalg.solve(V, np.array([1.0, 0.0]))
        assert np.allclose(expansion.coefficients[1], expected, rtol=1e-12)

    def test_constant_field_rejected(self):
        # a constant is never expanded: the constructor refuses a field built with n = 0 content
        with pytest.raises(DomainError, match="mean zero"):
            field_from_modes(2, 2, {1: np.array([0.5, 1.0]), 0: np.array([1.0, 0.0])})
        with pytest.raises(DomainError, match="mean zero"):
            single_mode_field(0, np.array([1.0, 0.0]), 2)
        # a zero n = 0 entry is no mean
        f = field_from_modes(2, 2, {0: np.zeros(2), 1: np.array([0.5, 1.0])})
        assert np.all(f.coeff(0) == 0.0) and f.coeff(1).tolist() == [0.5, 1.0]

    def test_round_trip_random_field(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 16)
        rng = np.random.default_rng(2)
        f = _random_mean_zero(rng, 2, 16)
        rec = reconstruct(expand_in_eigenbasis(f, slice_), slice_)
        err = np.max(np.abs(rec.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert err <= 1e-10

    def test_round_trip_with_jordan_block(self, unit_barotropic):
        slice_ = build_slice(unit_barotropic, 4)
        rng = np.random.default_rng(3)
        f = _random_mean_zero(rng, 2, 4)
        rec = reconstruct(expand_in_eigenbasis(f, slice_), slice_)
        assert np.max(np.abs(rec.coeffs - f.coeffs)) <= 1e-10 * np.max(np.abs(f.coeffs))

    def test_round_trip_three_field(self, generic_nonbarotropic):
        slice_ = build_slice(generic_nonbarotropic, 8)
        rng = np.random.default_rng(4)
        f = _random_mean_zero(rng, 3, 8)
        rec = reconstruct(expand_in_eigenbasis(f, slice_), slice_)
        assert np.max(np.abs(rec.coeffs - f.coeffs)) <= 1e-10 * np.max(np.abs(f.coeffs))

    def test_linearity(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 6)
        rng = np.random.default_rng(5)
        f = _random_mean_zero(rng, 2, 6)
        g = _random_mean_zero(rng, 2, 6)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        lhs = expand_in_eigenbasis(a * f + b * g, slice_)
        ef = expand_in_eigenbasis(f, slice_)
        eg = expand_in_eigenbasis(g, slice_)
        for n in lhs.coefficients:
            combo = a * ef.coefficients[n] + b * eg.coefficients[n]
            assert np.allclose(lhs.coefficients[n], combo, rtol=1e-12, atol=1e-12)

    def test_empty_expansion_reconstructs_zero(self, nondegenerate_barotropic):
        from cnslab.fields import EigenExpansion

        slice_ = build_slice(nondegenerate_barotropic, 3)
        zero = reconstruct(EigenExpansion(dim=2, coefficients={}), slice_)
        assert np.all(zero.coeffs == 0.0)

    def test_riesz_frame_bounds(self, nondegenerate_barotropic):
        # reconstruct from random unit coefficient vectors; the energy ratio
        # stays inside a fixed positive interval (frame bounds at work)
        slice_ = build_slice(nondegenerate_barotropic, 64)
        spec = NormSpec.weighted_l2(nondegenerate_barotropic)
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(100):
            coeffs = {}
            total = 0.0
            for n in slice_.modes:
                a_n = rng.normal(size=2) + 1j * rng.normal(size=2)
                coeffs[n] = a_n
                total += float(np.sum(np.abs(a_n) ** 2))
            from cnslab.fields import EigenExpansion

            expansion = EigenExpansion(dim=2, coefficients={k: v / math.sqrt(total) for k, v in coeffs.items()})
            field = reconstruct(expansion, slice_)
            ratios.append(sobolev_norm(field, spec) ** 2)
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) < 50.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), three_field=st.booleans(), N=st.integers(1, 24), k=st.integers(1, 8))
def test_one_multi_column_solve_equals_the_one_column_solves(seed, three_field, N, k):
    # a stack of k fields of random cutoffs, some modes exactly zero, against one solve per field and mode
    rng = np.random.default_rng(seed)
    slice_ = build_slice((random_nonbarotropic if three_field else random_barotropic)(rng), N)
    fields = []
    for _ in range(k):
        field = _random_mean_zero(rng, slice_.dim, int(rng.integers(1, N + 1)))
        field.coeffs[rng.random(field.coeffs.shape) < 0.2] = 0.0
        fields.append(field)
    table = slice_.basis
    got = eigen_coordinates(fields, slice_)
    for coordinates, field in zip(got, fields):
        target = np.zeros((table.ns.size, slice_.dim), dtype=complex)
        inside = np.abs(table.ns) <= field.N
        target[inside] = field.coeffs[table.ns[inside] + field.N]
        assert coordinates.tobytes() == np.linalg.solve(table.basis, target[..., None])[..., 0].tobytes()
