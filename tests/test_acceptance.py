"""Acceptance suite: one test per exit criterion, each printing a pass line.

Tolerances are pinned here, not configurable.  The reference coefficient
sets: the exact three-field instances with a triple eigenvalue (A) and a
shared cross-mode eigenvalue (B), and the barotropic workhorse
(mu0=1, b=1.3, rho=1, u=0.9) whose spectrum is simple and whose critical
time is 2*pi/0.9 ~ 6.98.
"""

import math
import time

import numpy as np

from conftest import random_barotropic, random_nonbarotropic
from cnslab.control import build_moment_system, synthesize_control, verify_terminal
from cnslab.counterexamples import BumpSpec, degenerate_uc_witness, regularity_gap_witness, small_time_witness
from cnslab.evolution import ObservationChannel
from cnslab.fields import EigenExpansion, NormSpec, SpectralField, reconstruct, sobolev_norm
from cnslab.model import BarotropicParams, NonBarotropicParams
from cnslab.observability import ingham_audit, observability_quotient
from cnslab.oracle import compare_spectral_fdm
from cnslab.spectrum import (
    BranchLabel,
    build_slice,
    eigen_barotropic,
    eigen_nonbarotropic,
    mode_matrix,
    riesz_closeness,
)

WORKHORSE = BarotropicParams(rho_bar=1.0, u_bar=0.9, mu0=1.0, b=1.3)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_mean_zero(rng, dim, N, content=None):
    content = content or N
    c = np.zeros((2 * N + 1, dim), dtype=complex)
    for n in range(1, content + 1):
        c[n + N] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        c[-n + N] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return SpectralField(dim=dim, N=N, coeffs=c)


def test_criterion_1_triple_eigenvalue_instance():
    start = time.time()
    params = NonBarotropicParams(rho_bar=1, u_bar=1, theta_bar=0.5, lambda0=1, kappa0=2, R=1, c0=1)
    slice_ = build_slice(params, 1, clustering_tolerance=1e-8)
    mode = slice_.mode(1)
    cluster = mode.clusters[0]
    ok = (
        len(mode.clusters) == 1
        and abs(cluster.value - (-1 + 1j)) <= 1e-8
        and cluster.chain is not None
        and len(cluster.chain.chain_vectors) == 2
        and all(r <= 1e-9 for r in cluster.chain.residuals)
    )
    elapsed = time.time() - start
    _report(
        "criterion 1 (triple eigenvalue -1+i, chain length 2)",
        ok and elapsed < 1.0,
        f"value={cluster.value:.3e}, chain={len(cluster.chain.chain_vectors) if cluster.chain else 0}, {elapsed:.2f}s",
    )


def test_criterion_2_shared_eigenvalue_and_uc_witness():
    start = time.time()
    params = NonBarotropicParams(rho_bar=1, u_bar=1, theta_bar=1, lambda0=1, kappa0=2, R=1, c0=1)
    vals_pos = [p.value for p in eigen_nonbarotropic(params, 1)]
    vals_neg = [p.value for p in eigen_nonbarotropic(params, -1)]
    shared = (
        min(abs(v + 1.0) for v in vals_pos) <= 1e-10
        and min(abs(v + 1.0) for v in vals_neg) <= 1e-10
    )
    slice_ = build_slice(params, 2)
    witness = degenerate_uc_witness(ObservationChannel.DENSITY, slice_)
    ok = (
        shared
        and witness.max_observation <= 1e-9 * witness.observation_scale
        and witness.min_state_norm > 1e-3 * (abs(witness.C) + abs(witness.D))
    )
    elapsed = time.time() - start
    _report(
        "criterion 2 (shared eigenvalue -1 at n=+-1, vanishing observation)",
        ok and elapsed < 5.0,
        f"max|y|={witness.max_observation:.2e}, scale={witness.observation_scale:.2e}, "
        f"min norm={witness.min_state_norm:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_spectrum_validity_suite():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    worst_closed_dense = 0.0
    worst_tracedet = 0.0
    all_negative = True
    modes = [1, 2, 3, 5, 9, 17, 33, 65, 129, 200]
    for trial in range(25):
        if trial % 2 == 0:
            params = random_barotropic(rng)
            for n in modes:
                for sign in (1, -1):
                    h, p = eigen_barotropic(params, sign * n)
                    M = mode_matrix(params, sign * n).entries
                    dense = np.linalg.eigvals(M)
                    for pair in (h, p):
                        worst_residual = max(worst_residual, pair.residual)
                        all_negative &= pair.value.real < 0
                        worst_closed_dense = max(
                            worst_closed_dense,
                            min(abs(pair.value - d) for d in dense) / (1 + abs(pair.value)),
                        )
                    tr = abs(h.value + p.value - np.trace(M)) / max(1.0, abs(np.trace(M)))
                    dt = abs(h.value * p.value - np.linalg.det(M)) / max(1.0, abs(np.linalg.det(M)))
                    worst_tracedet = max(worst_tracedet, tr, dt)
        else:
            params = random_nonbarotropic(rng)
            for n in modes:
                pairs = eigen_nonbarotropic(params, n)
                M = mode_matrix(params, n).entries
                for pair in pairs:
                    worst_residual = max(worst_residual, pair.residual)
                    all_negative &= pair.value.real < 0
                tr = abs(sum(p.value for p in pairs) - np.trace(M)) / max(1.0, abs(np.trace(M)))
                dt = abs(np.prod([p.value for p in pairs]) - np.linalg.det(M)) / max(
                    1.0, abs(np.linalg.det(M))
                )
                worst_tracedet = max(worst_tracedet, tr, dt)
    elapsed = time.time() - start
    ok = (
        worst_residual <= 1e-10
        and all_negative
        and worst_tracedet <= 1e-10
        and worst_closed_dense <= 1e-10
        and elapsed < 30.0
    )
    _report(
        "criterion 3 (spectrum validity over 25 random parameter sets)",
        ok,
        f"residual={worst_residual:.2e}, closed-vs-dense={worst_closed_dense:.2e}, "
        f"trace/det={worst_tracedet:.2e}, Re<0={all_negative}, {elapsed:.1f}s",
    )


def test_criterion_4_asymptotics():
    start = time.time()
    params = WORKHORSE
    ns = np.arange(20, 201)
    gaps = []
    for n in ns:
        h, _ = eigen_barotropic(params, int(n))
        gaps.append(abs(h.value - (1j * params.u_bar * n - params.omega0)))
    slope = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
    hyper_ok = -2.3 <= slope <= -1.7

    nb = NonBarotropicParams(rho_bar=1, u_bar=1, theta_bar=1, lambda0=1, kappa0=2, R=1, c0=1)
    band_ok = True
    for n in (20, 50, 120, 200):
        by_branch = {p.branch: p.value for p in eigen_nonbarotropic(nb, n)}
        iun = 1j * nb.u_bar * n
        band_ok &= abs(by_branch[BranchLabel.PARABOLIC_LAMBDA] - (-nb.lambda0 * n**2 + iun)) <= 5.0
        band_ok &= abs(by_branch[BranchLabel.PARABOLIC_KAPPA] - (-nb.kappa0 * n**2 + iun)) <= 5.0
        band_ok &= abs(by_branch[BranchLabel.HYPERBOLIC] - (iun - nb.omega_bar)) <= 2.0 / n
    elapsed = time.time() - start
    ok = hyper_ok and band_ok and elapsed < 10.0
    _report(
        "criterion 4 (branch asymptotics)",
        ok,
        f"hyperbolic fit slope={slope:.3f}, three-field anchors within bands={band_ok}, {elapsed:.1f}s",
    )


def test_criterion_5_ingham_audit():
    start = time.time()
    slice_ = build_slice(WORKHORSE, 100)
    audit = ingham_audit(slice_)
    elapsed = time.time() - start
    ok = (
        audit.p3.value >= 0.5
        and audit.p3.extra["r"] == 2.0
        and abs(audit.h2.extra["beta_re"] + 1.3) <= 1e-2
        and abs(audit.h2.extra["beta_im"]) <= 1e-2
        and abs(audit.h2.extra["tau"] - 0.9) <= 1e-2
        and audit.disjoint.passed
        and audit.all_pass
        and elapsed < 10.0
    )
    _report(
        "criterion 5 (Ingham audit at N=100)",
        ok,
        f"P3 delta={audit.p3.value:.4f}, beta={audit.h2.extra['beta_re']:.4f}, "
        f"tau={audit.h2.extra['tau']:.4f}, all_pass={audit.all_pass}, {elapsed:.1f}s",
    )


def test_criterion_6_observability_positivity():
    start = time.time()
    T = 8.0
    assert T > 2 * math.pi / WORKHORSE.u_bar
    minima = {}
    for N in (24, 32):
        slice_ = build_slice(WORKHORSE, N)
        rng = np.random.default_rng(77)
        quotients = []
        for _ in range(200):
            c = rng.normal(size=(2 * N + 1, 2)) + 1j * rng.normal(size=(2 * N + 1, 2))
            c[N] = 0.0
            field = SpectralField(dim=2, N=N, coeffs=c)
            quotients.append(
                observability_quotient(field, ObservationChannel.DENSITY, T, None, slice_).quotient
            )
        minima[N] = min(quotients)
    drift = abs(minima[32] - minima[24]) / minima[24]
    elapsed = time.time() - start
    ok = minima[24] > 0.0 and drift < 0.20 and elapsed < 120.0
    _report(
        "criterion 6 (positive quotient, stable in N)",
        ok,
        f"min24={minima[24]:.4e}, min32={minima[32]:.4e}, drift={100 * drift:.1f}%, {elapsed:.1f}s",
    )


def test_criterion_7_small_time_blowup():
    start = time.time()
    T = 3.0
    assert T < 2 * math.pi / WORKHORSE.u_bar
    report = small_time_witness(WORKHORSE, T, [8, 12, 16, 24], BumpSpec(x_left=3.2, x_right=5.8))
    elapsed = time.time() - start
    ok = report.slope <= -1.7 and elapsed < 120.0
    _report(
        "criterion 7 (small-time quotient decay)",
        ok,
        f"slope={report.slope:.2f} (<= -1.7), quotients="
        + ", ".join(f"{N}:{report.table[N][0]:.2e}" for N in (8, 12, 16, 24))
        + f", {elapsed:.1f}s",
    )


def test_criterion_8_regularity_gap():
    start = time.time()
    slopes = {}
    for s in (0.0, 0.5):
        record = regularity_gap_witness(WORKHORSE, ObservationChannel.VELOCITY, s, [4, 8, 16, 32])
        slopes[s] = record.slope
    elapsed = time.time() - start
    ok = (
        abs(slopes[0.0] + 2.0) <= 0.3
        and abs(slopes[0.5] + 1.0) <= 0.3
        and elapsed < 60.0
    )
    _report(
        "criterion 8 (velocity regularity gap)",
        ok,
        f"slope(s=0)={slopes[0.0]:.3f} target -2, slope(s=0.5)={slopes[0.5]:.3f} target -1, {elapsed:.1f}s",
    )


def test_criterion_9_control_round_trip():
    start = time.time()
    slice_ = build_slice(WORKHORSE, 16)
    rng = np.random.default_rng(5)
    field = _random_mean_zero(rng, 2, 16, content=8)
    results = {}
    for channel in (ObservationChannel.DENSITY, ObservationChannel.VELOCITY):
        system = build_moment_system(field, channel, 8.0, slice_, 8)
        solution = synthesize_control(system)
        record = verify_terminal(solution, 16)
        results[channel.value] = (solution.residual, record.in_truncation_residual)
    elapsed = time.time() - start
    ok = all(r <= 1e-8 and v <= 1e-6 for r, v in results.values()) and elapsed < 60.0
    _report(
        "criterion 9 (moment synthesis round trip)",
        ok,
        ", ".join(f"{ch}: residual={r:.1e}, terminal={v:.1e}" for ch, (r, v) in results.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_10_fdm_oracle_agreement():
    start = time.time()
    rng = np.random.default_rng(3)
    N = 16
    c = np.zeros((2 * N + 1, 2), dtype=complex)
    for n in range(1, N + 1):
        v = (rng.normal(size=2) + 1j * rng.normal(size=2)) * math.exp(-0.3 * n)
        c[n + N] = v
        c[-n + N] = np.conj(v)
    field = SpectralField(dim=2, N=N, coeffs=c)
    record = compare_spectral_fdm(WORKHORSE, field, T=0.4, M=1024, dt=1e-4)
    elapsed = time.time() - start
    ok = (
        record.max_error <= 1e-3
        and record.mean_drift <= 1e-12
        and record.energy_monotone
        and elapsed < 180.0
    )
    _report(
        "criterion 10 (spectral vs FDM)",
        ok,
        f"max rel err={record.max_error:.2e}, mean drift={record.mean_drift:.1e}, "
        f"energy monotone={record.energy_monotone}, {elapsed:.1f}s",
    )


def test_criterion_11_riesz_diagnostics():
    start = time.time()
    sums = riesz_closeness(WORKHORSE, 10, 120)
    increments = np.diff(sums)
    ns = np.arange(11, 121)
    fit = float(np.polyfit(np.log(ns), np.log(increments), 1)[0])
    increments_ok = -2.5 <= fit <= -1.7

    slice_ = build_slice(WORKHORSE, 64)
    spec = NormSpec.weighted_l2(WORKHORSE)
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(100):
        coeffs = {}
        total = 0.0
        for n in slice_.modes:
            a_n = rng.normal(size=2) + 1j * rng.normal(size=2)
            coeffs[n] = a_n
            total += float(np.sum(np.abs(a_n) ** 2))
        expansion = EigenExpansion(
            dim=2, coefficients={k: v / math.sqrt(total) for k, v in coeffs.items()}
        )
        ratios.append(sobolev_norm(reconstruct(expansion, slice_), spec) ** 2)
    frame_ok = min(ratios) > 0.0 and max(ratios) / min(ratios) < 50.0
    elapsed = time.time() - start
    ok = increments_ok and frame_ok and elapsed < 30.0
    _report(
        "criterion 11 (Riesz diagnostics)",
        ok,
        f"increment fit={fit:.2f}, frame ratio interval=[{min(ratios):.3f}, {max(ratios):.3f}], {elapsed:.1f}s",
    )
