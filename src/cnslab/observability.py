"""Quantitative observability: energies, quotients, and the Ingham audit.

The observation energy ``integral_0^T |y(t)|**2 dt`` is the closed-form
Hermitian form of :func:`cnslab.kernels.signal_energy`, certified by its
rounding bound; composite Gauss-Legendre quadrature of the same integral
lives in the tests as the independent oracle.

The Ingham audit measures every hypothesis of the combined
parabolic-hyperbolic inequality on a finite spectrum window and reports
numeric witnesses (extremal pairs, fitted asymptotes, tail sums) instead of
bare booleans.  No observability constant is ever claimed: only quotient
values and hypothesis measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DomainError, DuplicateRate, QuadratureNotConverged, ZeroState
from .evolution import (
    ObservationChannel,
    ObservationSignal,
    adjoint_state,
    channel_dim_ok,
    observation_signal,
)
from .fields import NormSpec, SpectralField, expand_in_eigenbasis, sobolev_norm
from .kernels import poly_exp_integral, signal_energy
from .model import BarotropicParams, SystemParams
from .spectrum import BranchLabel, SpectrumSlice

def observation_energy(signal: ObservationSignal, T: float | None = None) -> tuple[float, float]:
    """Closed-form value and rounding bound of ``int_0^T |y|**2 dt``.

    Raises :class:`QuadratureNotConverged` when the value is not finite or
    the bound exceeds 1e-3 of it.
    """
    if T is None:
        T = signal.horizon
    if abs(T - signal.horizon) > 1e-12 * max(1.0, signal.horizon):
        raise DomainError("integration horizon must match the signal horizon")
    value, bound = signal_energy(signal.coefficients, signal.rates, signal.degrees, T)
    if not (math.isfinite(value) and bound <= 1e-3 * value):
        raise QuadratureNotConverged(
            f"energy integral did not certify: value {value:.6e}, rounding bound {bound:.3e}"
        )
    return value, bound


@dataclass
class ObservabilityReport:
    channel: ObservationChannel
    horizon: float
    energy: float
    energy_error: float
    initial_norm: float
    quotient: float
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "channel": self.channel.value,
            "T": self.horizon,
            "energy": self.energy,
            "energy_err": self.energy_error,
            "norm": self.initial_norm,
            "quotient": self.quotient,
            **{k: v for k, v in self.metadata.items()},
        }


def standard_norm_spec(channel: ObservationChannel, params: SystemParams) -> NormSpec:
    """The norm pairing in which each channel's observability is posed."""
    if channel is ObservationChannel.DENSITY:
        return NormSpec.weighted_l2(params)
    return NormSpec.dual_velocity(params)


def observability_quotient(
    terminal_field: SpectralField,
    channel: ObservationChannel,
    T: float,
    norm_spec: NormSpec | None,
    slice_: SpectrumSlice,
) -> ObservabilityReport:
    """Observation energy over squared initial-state norm for one terminal datum."""
    if not channel_dim_ok(channel, slice_.dim):
        raise DomainError("temperature channel requires the three-field system")
    standard = standard_norm_spec(channel, slice_.params)
    nonstandard = False
    if norm_spec is None:
        norm_spec = standard
    else:
        nonstandard = norm_spec != standard
    expansion = expand_in_eigenbasis(terminal_field, slice_)
    signal = observation_signal(expansion, slice_, channel, T)
    energy, err = observation_energy(signal, T)
    initial = adjoint_state(expansion, slice_, T, 0.0)
    norm0 = sobolev_norm(initial.state, norm_spec)
    if norm0 < 1e-150:
        raise ZeroState("initial adjoint state norm underflowed")
    metadata = {
        "N": slice_.N,
        "clustering_tolerance": slice_.clustering_tolerance,
    }
    if nonstandard:
        metadata["watermark"] = "nonstandard-norm"
    return ObservabilityReport(
        channel=channel,
        horizon=T,
        energy=energy,
        energy_error=err,
        initial_norm=norm0,
        quotient=energy / norm0**2,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Ingham hypothesis audit


@dataclass
class Verdict:
    passed: bool
    value: float
    witness: Any = None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"passed": self.passed, "value": self.value, "witness": self.witness, **self.extra}


@dataclass
class InghamHypothesisReport:
    h1: Verdict
    h2: Verdict
    p1: Verdict
    p2: Verdict
    p3: Verdict
    p4: Verdict
    disjoint: Verdict
    relaxed: Verdict
    window: int
    cross_gaps: dict[str, float] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in (self.h1, self.h2, self.p1, self.p2, self.p3, self.p4, self.disjoint))

    def to_dict(self) -> dict[str, Any]:
        out = {
            "H1": self.h1.to_dict(),
            "H2": self.h2.to_dict(),
            "P1": self.p1.to_dict(),
            "P2": self.p2.to_dict(),
            "P3": self.p3.to_dict(),
            "P4": self.p4.to_dict(),
            "disjoint": self.disjoint.to_dict(),
            "relaxed": self.relaxed.to_dict(),
            "window": self.window,
        }
        if self.cross_gaps:
            out["cross_gaps"] = self.cross_gaps
        return out


#: Entries of one row block of a pair table, 32 kB per float64 temporary:
#: 256 kB blocks raised the peak RSS of an N=96 audit by 1.6 MB and saved
#: no measurable time.
_PAIR_BLOCK = 1 << 12


def _first_minima(row_keys: list, col_keys: list, tables) -> list[tuple[float, tuple | None]]:
    """Minimum of each of a family of pair tables, with the keys of its first position in row-major order.

    ``tables(lo, hi)`` returns rows ``lo:hi`` of every table, one column per
    column key and excluded pairs set to inf; the tables are formed in row
    blocks of at most about ``_PAIR_BLOCK`` entries.  A table whose pairs are
    all excluded gives ``(inf, None)``.
    """
    best: list[tuple[float, tuple | None]] = []
    cols = len(col_keys)
    step = max(1, _PAIR_BLOCK // max(cols, 1))
    for lo in range(0, len(row_keys), step):
        for t, block in enumerate(tables(lo, min(len(row_keys), lo + step))):
            if t == len(best):
                best.append((np.inf, None))
            if block.size == 0:
                continue
            k = int(np.argmin(block))
            if block.flat[k] < best[t][0]:
                best[t] = (float(block.flat[k]), (row_keys[lo + k // cols], col_keys[k % cols]))
    return best


def _gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``abs(a_i - b_j)`` for every pair, as for scalar complex values."""
    return np.hypot(a.real[:, None] - b.real[None, :], a.imag[:, None] - b.imag[None, :])


def _later(lo: int, hi: int, cols: int) -> np.ndarray:
    """Mask of the pairs ``j > i`` in rows ``lo:hi``."""
    return np.arange(cols)[None, :] > np.arange(lo, hi)[:, None]


def _min_pairwise_gap(values: dict[int, complex]) -> tuple[float, tuple[int, int] | None]:
    """Smallest ``|v_n - v_l|`` over pairs ``n < l``, with the first such pair."""
    keys = sorted(values)
    v = np.array([values[k] for k in keys], dtype=complex)

    def table(lo, hi):
        return (np.where(_later(lo, hi, v.size), _gaps(v[lo:hi], v), np.inf),)

    return _first_minima(keys, keys, table)[0]


def _merged_parabolic(slice_: SpectrumSlice) -> dict[int, complex]:
    """Parabolic family with the interleaved index map of the three-field case."""
    if slice_.dim == 2:
        return slice_.branch_values(BranchLabel.PARABOLIC)
    p1 = slice_.branch_values(BranchLabel.PARABOLIC_LAMBDA)
    p2 = slice_.branch_values(BranchLabel.PARABOLIC_KAPPA)
    merged = {}
    for k, v in p1.items():
        merged[2 * k - 1 if k > 0 else 2 * k + 1] = v
    for k, v in p2.items():
        merged[2 * k] = v
    return merged


def ingham_audit(slice_: SpectrumSlice, params: SystemParams, T: float) -> InghamHypothesisReport:
    """Numeric audit of every hypothesis of the combined inequality.

    The hyperbolic fit window starts above the discriminant threshold where
    the asymptote ``beta + i*tau*n`` is meaningful.  All verdicts carry the
    extremal witness that produced them; a witness is the first extremal
    pair in the order of the modes (sorted, or slice order for the disjoint
    gap).  Raises :class:`DomainError` when the window holds no mode above
    the threshold or, for the three-field system, no two modes with
    distinct ``n**2``.
    """
    threshold = 1
    if isinstance(params, BarotropicParams):
        threshold = max(1, int(np.floor(params.n0)) + 1)
    needed = max(threshold, 2 if slice_.dim == 3 else 1)
    if slice_.N < needed:
        raise DomainError(
            f"the Ingham audit needs a window N >= {needed} (hyperbolic fit from |n| >= {threshold}"
            + (", cross gaps between distinct n**2" if slice_.dim == 3 else "")
            + f"), got N = {slice_.N}"
        )
    hyp = slice_.branch_values(BranchLabel.HYPERBOLIC)
    par = _merged_parabolic(slice_)
    scale = max(max(abs(v) for v in hyp.values()), 1.0)

    h1_gap, h1_wit = _min_pairwise_gap(hyp)
    h1 = Verdict(passed=h1_gap > 1e-10 * scale, value=h1_gap, witness=h1_wit)

    fit_ns = np.array(sorted(n for n in hyp if abs(n) >= threshold))
    fit_vals = np.array([hyp[n] for n in fit_ns])
    beta_re = float(np.mean(fit_vals.real))
    A = np.column_stack([np.ones(fit_ns.size), fit_ns.astype(float)])
    sol, *_ = np.linalg.lstsq(A, fit_vals.imag, rcond=None)
    beta = complex(beta_re, float(sol[0]))
    tau = float(sol[1])
    residuals = fit_vals - beta - 1j * tau * fit_ns
    abs_res = np.abs(residuals)
    order = np.argsort(np.abs(fit_ns))
    sorted_res = abs_res[order]
    # Partial sums of |e_n|^2 from the outside in; summability shows as a
    # vanishing outer tail.
    tail_partial = np.cumsum((sorted_res**2)[::-1])[::-1]
    inner = float(np.mean(sorted_res[: max(1, len(sorted_res) // 4)]))
    outer = float(np.mean(sorted_res[-max(1, len(sorted_res) // 4) :]))
    h2 = Verdict(
        passed=(tau > 0.0) and (outer <= inner + 1e-12),
        value=float(np.sqrt(tail_partial[0])),
        witness=None,
        extra={
            "beta_re": beta.real,
            "beta_im": beta.imag,
            "tau": tau,
            "tail_l2": float(np.sqrt(tail_partial[0])),
            "outer_tail_l2": float(np.sqrt(tail_partial[len(tail_partial) // 2])),
            "fit_threshold": threshold,
        },
    )

    r = 2.0
    par_keys = sorted(par)
    par_n = np.array(par_keys, dtype=float)
    par_v = np.array([par[n] for n in par_keys], dtype=complex)

    def parabolic_tables(lo, hi):
        """The P1 gaps, the P3 quotients by ``||n|**r - |l|**r|`` and the relaxed ones by ``|n - l|``."""
        gaps = _gaps(par_v[lo:hi], par_v)
        later = _later(lo, hi, par_n.size)
        n, l = par_n[lo:hi, None], par_n[None, :]
        denom = np.abs(np.abs(n) ** r - np.abs(l) ** r)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (
                np.where(later, gaps, np.inf),
                np.where(later & (denom != 0.0), gaps / denom, np.inf),
                np.where(later, gaps / np.abs(n - l), np.inf),
            )

    (p1_gap, p1_wit), (p3_best, p3_wit), (relaxed_gap, relaxed_wit) = _first_minima(
        par_keys, par_keys, parabolic_tables
    )
    p1 = Verdict(passed=p1_gap > 1e-10 * scale, value=p1_gap, witness=p1_wit)

    ratios = {}
    for n, v in par.items():
        ratios[n] = (-v.real / abs(v.imag)) if v.imag != 0.0 else np.inf
    c_hat_n = min(ratios, key=lambda n: ratios[n])
    p2 = Verdict(passed=ratios[c_hat_n] > 0.0, value=float(ratios[c_hat_n]), witness=c_hat_n)

    p3 = Verdict(passed=p3_best > 0.0 and np.isfinite(p3_best), value=float(p3_best),
                 witness=p3_wit, extra={"r": r})

    mags = {n: abs(v) / abs(n) ** r for n, v in par.items()}
    b0 = max(mags.values())
    n_max = max(mags, key=lambda n: mags[n])
    eps_emp = min(mags.values()) / b0
    n_min = min(mags, key=lambda n: mags[n])
    p4 = Verdict(passed=eps_emp > 0.0, value=float(eps_emp),
                 witness=(n_min, n_max), extra={"A0": 0.0, "B0": float(b0)})

    hyp_v = np.array(list(hyp.values()), dtype=complex)
    par_unsorted_v = np.array(list(par.values()), dtype=complex)
    ((cross_best, cross_wit),) = _first_minima(
        list(hyp), list(par), lambda lo, hi: (_gaps(hyp_v[lo:hi], par_unsorted_v),)
    )
    disjoint = Verdict(passed=cross_best > 1e-10 * scale, value=float(cross_best), witness=cross_wit)

    c_hat_rel = min((-v.real / abs(v)) for v in par.values())
    inv_sum = float(sum(1.0 / abs(v) for v in par.values()))
    relaxed = Verdict(
        passed=relaxed_gap > 0.0 and c_hat_rel > 0.0,
        value=float(relaxed_gap),
        witness=relaxed_wit,
        extra={"c_hat": float(c_hat_rel), "inv_abs_partial_sum": inv_sum,
               "window_size": len(par)},
    )

    cross_gaps: dict[str, float] = {}
    if slice_.dim == 3:
        p1v = slice_.branch_values(BranchLabel.PARABOLIC_LAMBDA)
        p2v = slice_.branch_values(BranchLabel.PARABOLIC_KAPPA)
        cross_gaps["p1_p1_over_n2"] = _min_squared_gap(p1v, p1v, 1.0, 1.0)
        cross_gaps["p2_p2_over_n2"] = _min_squared_gap(p2v, p2v, 1.0, 1.0)
        cross_gaps["p1_p2_over_mixed"] = _min_squared_gap(p1v, p2v, params.lambda0, params.kappa0)

    return InghamHypothesisReport(
        h1=h1, h2=h2, p1=p1, p2=p2, p3=p3, p4=p4,
        disjoint=disjoint, relaxed=relaxed,
        window=slice_.N, cross_gaps=cross_gaps,
    )


def _min_squared_gap(a: dict[int, complex], b: dict[int, complex], wa: float, wb: float) -> float:
    """Smallest ``|a_n - b_l| / |wa*n**2 - wb*l**2|`` over pairs with a nonzero denominator."""
    ka, kb = list(a), list(b)
    na, va = np.array(ka, dtype=float), np.array(list(a.values()), dtype=complex)
    nb, vb = np.array(kb, dtype=float), np.array(list(b.values()), dtype=complex)

    def table(lo, hi):
        denom = np.abs(wa * na[lo:hi, None] ** 2 - wb * nb[None, :] ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.where(denom > 0.0, _gaps(va[lo:hi], vb) / denom, np.inf),)

    return _first_minima(ka, kb, table)[0][0]


# ---------------------------------------------------------------------------
# biorthogonal diagnostics


@dataclass
class BiorthogonalDiagnostic:
    rates: tuple[complex, ...]
    horizon: float
    gram: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    svd_threshold: float
    biorthogonal_norms: np.ndarray

    def condition(self) -> float:
        sv = self.singular_values
        return float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


def biorthogonal_gram(parabolic_rates, T: float, svd_threshold: float = 1e-12) -> BiorthogonalDiagnostic:
    """Gram matrix of the exponential family with minimum-norm biorthogonal bounds.

    ``G[n, m] = integral_0^T exp(conj(nu_n)(T-t)) exp(nu_m (T-t)) dt`` in
    closed form; the reported ``biorthogonal_norms[n]`` is the L2 norm of the
    minimum-norm functional extracting coefficient n, i.e.
    ``sqrt(pinv(G)[n, n])``.
    """
    rates = [complex(r) for r in parabolic_rates]
    for r in rates:
        if r.real >= 0.0:
            raise DomainError(f"rate {r} must have negative real part")
    for i in range(len(rates)):
        for j in range(i + 1, len(rates)):
            if rates[i] == rates[j]:
                raise DuplicateRate(f"rates {i} and {j} coincide: {rates[i]}")
    nu = np.array(rates)
    G = poly_exp_integral(0, nu.conj()[:, None] + nu[None, :], T)
    svals = np.linalg.svd(G, compute_uv=False)
    thresh = svd_threshold * svals[0]
    rank = int(np.sum(svals > thresh))
    Ginv = np.linalg.pinv(G, rcond=svd_threshold)
    norms = np.sqrt(np.abs(np.diag(Ginv).real))
    return BiorthogonalDiagnostic(
        rates=tuple(rates),
        horizon=T,
        gram=G,
        singular_values=svals,
        numerical_rank=rank,
        svd_threshold=svd_threshold,
        biorthogonal_norms=norms,
    )
