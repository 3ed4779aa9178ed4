import csv
import math

import numpy as np
import pytest

import spectrum_oracle
from conftest import random_barotropic, random_nonbarotropic
from cnslab.errors import ChainError, DomainError
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.spectrum import (
    BranchLabel,
    _symbol,
    build_slice,
    classify_branch,
    eigen_barotropic,
    eigen_nonbarotropic,
    export_spectrum_csv,
    generalized_chain,
    mode_matrix,
    riesz_closeness,
)


class TestModeMatrix:
    def test_barotropic_adjoint_entries(self, unit_barotropic):
        M = mode_matrix(unit_barotropic, 1)
        expected = np.array([[1j, 1j], [1j, -1 + 1j]])
        assert np.allclose(M.entries, expected, atol=1e-15)

    def test_mode_zero_rejected(self, unit_barotropic):
        with pytest.raises(DomainError):
            mode_matrix(unit_barotropic, 0)

    def test_nonbarotropic_trace_matches_cubic_coefficient(self, triple_root_nonbarotropic):
        # trace(i*R_1) = i*(3*u + (lambda0+kappa0)*i) = -3 + 3i
        M = mode_matrix(triple_root_nonbarotropic, 1)
        assert np.trace(M.entries) == pytest.approx(-3 + 3j, rel=1e-14)

    def test_forward_flips_first_order_terms(self, nondegenerate_barotropic, generic_nonbarotropic):
        # the forward symbol at n is the adjoint one at -n: the coefficients are
        # real, so diffusion entries (real parts) agree and advection entries flip
        for params in (nondegenerate_barotropic, generic_nonbarotropic):
            for n in (-7, -1, 0, 1, 3):
                adj = _symbol(params, n)
                fwd = spectrum_oracle._symbol(params, n, forward=True)
                assert np.array_equal(_symbol(params, -n), fwd)
                assert np.array_equal(fwd.real, adj.real)
                assert np.array_equal(fwd.imag, -adj.imag)

    def test_mode_zero_symbol_is_zero(self, nondegenerate_barotropic, generic_nonbarotropic):
        for params in (nondegenerate_barotropic, generic_nonbarotropic):
            assert np.all(_symbol(params, 0) == 0.0)

    def test_trace_matches_char_poly_coefficient(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            params = random_nonbarotropic(rng)
            n = int(rng.integers(1, 30))
            M = mode_matrix(params, n).entries
            coeffs = np.poly(M)  # characteristic polynomial, leading 1
            assert abs(np.trace(M) + coeffs[1]) <= 1e-12 * max(1.0, abs(np.trace(M)))


class TestEigenBarotropic:
    def test_unit_mode_one(self, unit_barotropic):
        # quadratic formula: nu = -1/2 + i(1 +- sqrt(3)/2)
        h, p = eigen_barotropic(unit_barotropic, 1)
        assert h.value == pytest.approx(-0.5 + (1 + math.sqrt(3) / 2) * 1j, rel=1e-14)
        assert p.value == pytest.approx(-0.5 + (1 - math.sqrt(3) / 2) * 1j, rel=1e-14)

    def test_unit_mode_two_is_double(self, unit_barotropic):
        h, p = eigen_barotropic(unit_barotropic, 2)
        assert h.value == pytest.approx(-2 + 2j, abs=1e-13)
        assert p.value == pytest.approx(-2 + 2j, abs=1e-13)

    def test_unit_mode_three(self, unit_barotropic):
        h, p = eigen_barotropic(unit_barotropic, 3)
        root = math.sqrt(45.0)
        assert h.value == pytest.approx((-9 + root) / 2 + 3j, rel=1e-14)
        assert p.value == pytest.approx((-9 - root) / 2 + 3j, rel=1e-14)

    def test_degenerate_warning_attached(self, unit_barotropic):
        import warnings as w

        with w.catch_warnings(record=True) as caught:
            w.simplefilter("always")
            eigen_barotropic(unit_barotropic, 2)
        assert any("coincide" in str(c.message) for c in caught)

    def test_eigenvector_normalization_follows_closed_forms(self, nondegenerate_barotropic):
        h, p = eigen_barotropic(nondegenerate_barotropic, 5)
        assert h.vector[0] == pytest.approx(nondegenerate_barotropic.rho_bar)
        assert p.vector[1] == pytest.approx(1.0)

    def test_closed_form_vs_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            params = random_barotropic(rng)
            n = int(rng.integers(1, 200)) * int(rng.choice([-1, 1]))
            h, p = eigen_barotropic(params, n)
            dense = np.linalg.eigvals(mode_matrix(params, n).entries)
            for pair in (h, p):
                assert min(abs(pair.value - d) for d in dense) <= 1e-10 * (1 + abs(pair.value))

    def test_residuals_and_sign(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            params = random_barotropic(rng)
            for n in (1, 7, 50, -113, 200):
                h, p = eigen_barotropic(params, n)
                assert h.residual <= 1e-10
                assert p.residual <= 1e-10
                assert h.value.real < 0
                assert p.value.real < 0

    def test_conjugate_symmetry_above_threshold(self, nondegenerate_barotropic):
        n0 = nondegenerate_barotropic.n0
        for n in range(int(math.ceil(n0)), int(math.ceil(n0)) + 20):
            h_pos, p_pos = eigen_barotropic(nondegenerate_barotropic, n)
            h_neg, p_neg = eigen_barotropic(nondegenerate_barotropic, -n)
            assert h_neg.value == pytest.approx(h_pos.value.conjugate(), rel=1e-13)
            assert p_neg.value == pytest.approx(p_pos.value.conjugate(), rel=1e-13)

    def test_trace_det_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            params = random_barotropic(rng)
            n = int(rng.integers(1, 200))
            M = mode_matrix(params, n).entries
            h, p = eigen_barotropic(params, n)
            assert h.value + p.value == pytest.approx(np.trace(M), rel=1e-10)
            assert h.value * p.value == pytest.approx(np.linalg.det(M), rel=1e-10)

    def test_hyperbolic_asymptote(self, nondegenerate_barotropic):
        # |nu_h - (i*u*n - omega0)| <= C/n^2 with fit exponent in [1.7, 2.3]
        params = nondegenerate_barotropic
        ns = np.arange(20, 201)
        gaps = []
        for n in ns:
            h, _ = eigen_barotropic(params, int(n))
            gaps.append(abs(h.value - (1j * params.u_bar * n - params.omega0)))
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert -2.3 <= slope <= -1.7

    def test_parabolic_real_part_rate(self, nondegenerate_barotropic):
        params = nondegenerate_barotropic
        for n in (20, 60, 120, 200):
            _, p = eigen_barotropic(params, n)
            assert abs(p.value.real / n**2 + params.mu0) <= 3.0 * params.b * params.rho_bar / (params.mu0 * n)


class TestEigenNonBarotropic:
    def test_triple_root_instance(self, triple_root_nonbarotropic):
        pairs = eigen_nonbarotropic(triple_root_nonbarotropic, 1)
        for pair in pairs:
            assert pair.value == pytest.approx(-1 + 1j, abs=1e-8)
            assert pair.residual <= 1e-10
        labels = {p.branch for p in pairs}
        assert labels == {BranchLabel.HYPERBOLIC, BranchLabel.PARABOLIC_LAMBDA, BranchLabel.PARABOLIC_KAPPA}

    def test_shared_eigenvalue_across_modes(self, shared_eigenvalue_nonbarotropic):
        vals_pos = [p.value for p in eigen_nonbarotropic(shared_eigenvalue_nonbarotropic, 1)]
        vals_neg = [p.value for p in eigen_nonbarotropic(shared_eigenvalue_nonbarotropic, -1)]
        assert min(abs(v - (-1.0)) for v in vals_pos) <= 1e-10
        assert min(abs(v - (-1.0)) for v in vals_neg) <= 1e-10

    def test_large_mode_branch_anchors(self):
        params = NonBarotropicParams(rho_bar=1, u_bar=1, theta_bar=1, lambda0=1, kappa0=2, R=1, c0=1)
        pairs = eigen_nonbarotropic(params, 50)
        by_branch = {p.branch: p.value for p in pairs}
        assert abs(by_branch[BranchLabel.PARABOLIC_LAMBDA] - (-2500 + 50j)) < 10.0
        assert abs(by_branch[BranchLabel.PARABOLIC_KAPPA] - (-5000 + 50j)) < 10.0
        assert abs(by_branch[BranchLabel.HYPERBOLIC] - (50j - params.omega_bar)) < 1.0 / 50

    def test_residual_sign_tracedet_randomized(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            params = random_nonbarotropic(rng)
            for n in (1, 13, 100, -57, 200):
                pairs = eigen_nonbarotropic(params, n)
                M = mode_matrix(params, n).entries
                total = sum(p.value for p in pairs)
                prod = np.prod([p.value for p in pairs])
                assert all(p.residual <= 1e-10 for p in pairs)
                assert all(p.value.real < 0 for p in pairs)
                assert all(abs(p.value) > 0 for p in pairs)
                assert total == pytest.approx(np.trace(M), rel=1e-10)
                assert prod == pytest.approx(np.linalg.det(M), rel=1e-10)

    def test_equal_diffusions_flagged(self):
        params = NonBarotropicParams(rho_bar=1, u_bar=1, theta_bar=1, lambda0=1.5, kappa0=1.5, R=1, c0=1)
        pairs = eigen_nonbarotropic(params, 7)
        parabolic = [p for p in pairs if p.branch is not BranchLabel.HYPERBOLIC]
        assert len(parabolic) == 2
        assert all(p.unclassified_by_paper for p in parabolic)
        assert len({p.branch for p in parabolic}) == 2


class TestClassifyBranch:
    def test_hyperbolic_value(self, unit_barotropic):
        assert classify_branch(unit_barotropic, 3, -1.1459 + 3j) is BranchLabel.HYPERBOLIC

    def test_parabolic_value(self, unit_barotropic):
        assert classify_branch(unit_barotropic, 3, -7.8541 + 3j) is BranchLabel.PARABOLIC

    def test_tie_break_is_deterministic(self, unit_barotropic):
        # at n=1 the two anchors coincide; the tie goes to hyperbolic
        label = classify_branch(unit_barotropic, 1, -1 + 1j)
        assert label is BranchLabel.HYPERBOLIC


class TestGeneralizedChain:
    def test_barotropic_double_chain_satisfies_both_relations(self, unit_barotropic):
        M = mode_matrix(unit_barotropic, 2)
        h, _ = eigen_barotropic(unit_barotropic, 2)
        chain = generalized_chain(M, h.value, h.vector, multiplicity=2)
        assert chain.algebraic_multiplicity == 2
        assert len(chain.chain_vectors) == 1
        shifted = M.entries - h.value * np.eye(2)
        w = chain.chain_vectors[0]
        # the two scalar relations of the defining linear system
        resid = shifted @ w - h.vector
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(M.entries)

    def test_triple_root_chain_length_two(self, triple_root_nonbarotropic):
        M = mode_matrix(triple_root_nonbarotropic, 1)
        pairs = eigen_nonbarotropic(triple_root_nonbarotropic, 1)
        chain = generalized_chain(M, pairs[0].value, pairs[0].vector, multiplicity=3)
        assert len(chain.chain_vectors) == 2
        shifted = M.entries - pairs[0].value * np.eye(3)
        assert np.linalg.norm(shifted @ chain.chain_vectors[0] - pairs[0].vector) <= 1e-9
        assert np.linalg.norm(shifted @ chain.chain_vectors[1] - chain.chain_vectors[0]) <= 1e-9

    def test_simple_eigenvalue_has_no_chain(self, nondegenerate_barotropic):
        M = mode_matrix(nondegenerate_barotropic, 3)
        h, _ = eigen_barotropic(nondegenerate_barotropic, 3)
        with pytest.raises(ChainError):
            generalized_chain(M, h.value, h.vector, multiplicity=2)


class TestBuildSlice:
    def test_unit_coefficients_coincidences(self, unit_barotropic):
        slice_ = build_slice(unit_barotropic, 4)
        within = {(c.first[0], c.second[0]) for c in slice_.coincidences if not c.cross_mode}
        assert within == {(-2, -2), (2, 2)}
        assert all(not c.cross_mode for c in slice_.coincidences)
        for n in (-2, 2):
            clusters = slice_.mode(n).clusters
            assert len(clusters) == 1
            assert clusters[0].chain is not None

    def test_cross_mode_coincidence_has_no_chain(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 4)
        cross = [c for c in slice_.coincidences if c.cross_mode]
        assert len(cross) == 1
        (n1, b1), (n2, b2) = cross[0].first, cross[0].second
        assert {n1, n2} == {-1, 1}
        assert b1 is BranchLabel.PARABOLIC and b2 is BranchLabel.PARABOLIC
        for mode in slice_.modes.values():
            assert all(c.chain is None for c in mode.clusters)

    def test_nondegenerate_table_is_empty(self, nondegenerate_barotropic):
        slice_ = build_slice(nondegenerate_barotropic, 50)
        assert slice_.coincidences == []

    def test_eigenvalue_count_with_multiplicity(self, unit_barotropic):
        slice_ = build_slice(unit_barotropic, 4)
        for mode in slice_.modes.values():
            assert sum(len(c.vectors) for c in mode.clusters) == 2

    def test_coincidence_table_symmetric_pairs(self, uc_failing_barotropic):
        slice_ = build_slice(uc_failing_barotropic, 2)
        for c in slice_.coincidences:
            assert c.first != c.second
            assert c.distance <= slice_.clustering_tolerance * max(1.0, 1.0)


class TestRieszCloseness:
    def test_term_value_at_mode_three(self, unit_barotropic):
        # rho-weighted deficit of the hyperbolic pair at n = 3:
        # 2*pi*|nu_2^3 - u|^2 with |nu_2^3 - u| = (9 - sqrt(45))/6
        sums = riesz_closeness(unit_barotropic, 3, 3)
        h_term = 2 * math.pi * ((9 - math.sqrt(45)) / 6) ** 2
        _, p3 = eigen_barotropic(unit_barotropic, 3)
        p_term = 2 * math.pi * abs(p3.vector[0]) ** 2
        assert h_term == pytest.approx(0.9168, abs=2e-4)
        assert sums[0] == pytest.approx(2 * (h_term + p_term), rel=1e-12)

    def test_increment_decay_exponent(self, nondegenerate_barotropic):
        sums = riesz_closeness(nondegenerate_barotropic, 10, 120)
        increments = np.diff(sums)
        ns = np.arange(11, 121)
        slope = np.polyfit(np.log(ns), np.log(increments), 1)[0]
        assert -2.5 <= slope <= -1.7

    def test_converges_for_three_field_system(self, generic_nonbarotropic):
        sums = riesz_closeness(generic_nonbarotropic, 5, 60)
        increments = np.diff(sums)
        assert increments[-1] < increments[0]
        assert sums[-1] < 2.0 * sums[len(sums) // 2]

    def test_empty_window(self, nondegenerate_barotropic):
        assert riesz_closeness(nondegenerate_barotropic, 5, 4).size == 0

    def test_start_below_threshold_rejected(self, unit_barotropic):
        with pytest.raises(DomainError):
            riesz_closeness(unit_barotropic, 1, 10)


class TestExport:
    def test_csv_layout(self, unit_barotropic, tmp_path):
        slice_ = build_slice(unit_barotropic, 4)
        path = tmp_path / "spectrum.csv"
        export_spectrum_csv(slice_, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert [r["n"] for r in rows[:2]] == ["-4", "-4"]
        assert [r["branch"] for r in rows[:2]] == ["h", "p"]
        double = [r for r in rows if r["n"] == "2" and r["branch"] == "h"][0]
        assert float(double["re"]) == pytest.approx(-2.0)
        assert float(double["im"]) == pytest.approx(2.0)
        assert double["alg_mult"] == "2"
