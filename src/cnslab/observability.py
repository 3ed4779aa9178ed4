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

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DomainError, QuadratureNotConverged, ZeroState
from .evolution import (
    ObservationChannel,
    ObservationSignal,
    adjoint_state,  # noqa: F401  (perfbench/spans.py traces this name)
    adjoint_states,
    observation_signal,  # noqa: F401  (perfbench/spans.py traces this name)
    observation_signals,
)
from .fields import (
    NormSpec,
    SpectralField,
    eigen_coordinates,
    expand_in_eigenbasis,  # noqa: F401  (perfbench/spans.py traces this name)
    field_misfit,
    sobolev_norms,
)
from .kernels import signal_energy
from .model import SystemParams, hyperbolic_fit_threshold
from .spectrum import SpectrumSlice

def observation_energy(signal: ObservationSignal) -> tuple[float, float]:
    """Closed-form value and rounding bound of ``int_0^T |y|**2 dt`` over the signal's horizon ``T``.

    Raises :class:`QuadratureNotConverged` when the value is not finite or
    the bound exceeds 1e-3 of it.
    """
    value, bound = signal_energy(signal.coefficients, signal.rates, signal.degrees, signal.horizon)
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
    return NormSpec.dual_order(params, 1.0)


#: Fields per stacked pass of :func:`observability_quotients`.  A block's
#: largest arrays hold ``block * modes * dim`` complex entries (the
#: coordinates, the adjoint states) or that times the chain links (the signal
#: terms): under 50 kB each on the 64 modes of an N = 32 two-field slice.
_TRIAL_BLOCK = 16


def observability_quotients(
    fields: Iterable[SpectralField],
    channel: ObservationChannel,
    T: float,
    norm_spec: NormSpec | None,
    slice_: SpectrumSlice,
) -> list[ObservabilityReport]:
    """:func:`observability_quotient` of every terminal datum of ``fields``, in stacked passes.

    The fields are taken ``_TRIAL_BLOCK`` at a time, so memory does not grow
    with their number.  Per block, one pass expands every field
    (:func:`eigen_coordinates`), forms every signal's terms
    (:func:`observation_signals`) and every adjoint state at t = 0
    (:func:`adjoint_states`) and its norm; only the choice of terms, the
    energy and the zero-state check are made per field.  Each report equals
    that of the field alone, bit for bit, and the call fails as a loop of
    single calls does: at the first failing field, with its error.  The
    adjoint states and their norms are formed after the first field's
    energy, where a single call forms them, and the checks they make do not
    depend on the field.
    """
    standard = standard_norm_spec(channel, slice_.params)
    metadata = {"N": slice_.N, "clustering_tolerance": slice_.clustering_tolerance}
    if norm_spec is None:
        norm_spec = standard
    elif norm_spec != standard:
        metadata["watermark"] = "nonstandard-norm"
    reports = []
    fields = iter(fields)
    while block := list(itertools.islice(fields, _TRIAL_BLOCK)):
        fit = next((i for i, f in enumerate(block) if field_misfit(f, slice_)), len(block))
        if fit:
            coordinates = eigen_coordinates(block[:fit], slice_)
            signals = observation_signals(coordinates, slice_.basis.ns, slice_, channel, T)
            norms = None
            for i, signal in enumerate(signals):
                energy, err = observation_energy(signal)
                if norms is None:
                    states = adjoint_states(coordinates, slice_.basis.ns, slice_, T, 0.0)
                    norms = sobolev_norms(states, norm_spec)
                norm0 = float(norms[i])
                if norm0 < 1e-150:
                    raise ZeroState("initial adjoint state norm underflowed")
                reports.append(ObservabilityReport(
                    channel=channel,
                    horizon=T,
                    energy=energy,
                    energy_error=err,
                    initial_norm=norm0,
                    quotient=energy / norm0**2,
                    metadata=dict(metadata),
                ))
        if fit < len(block):
            raise field_misfit(block[fit], slice_)
    return reports


def observability_quotient(
    terminal_field: SpectralField,
    channel: ObservationChannel,
    T: float,
    norm_spec: NormSpec | None,
    slice_: SpectrumSlice,
) -> ObservabilityReport:
    """Observation energy over squared initial-state norm for one terminal datum.

    :func:`observability_quotients` of one field.
    """
    return observability_quotients([terminal_field], channel, T, norm_spec, slice_)[0]


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


#: Entries of one block of a pair table, 32 kB per float64 temporary:
#: 256 kB blocks raised the peak RSS of an N=96 audit by 1.6 MB and saved
#: no measurable time.  A block holds at least one row, so a row wider than
#: this is one block.
_PAIR_BLOCK = 1 << 12


def _first_minima(row_keys: list, col_keys: list, tables, triangle: bool = False) -> list[tuple[float, tuple | None]]:
    """Minimum of each of a family of pair tables, with the keys of its first position in row-major order.

    ``tables(lo, hi, c0)`` returns rows ``lo:hi`` of every table on columns
    ``c0:``, one column per column key and excluded pairs set to inf.  A
    rectangle takes every column.  A ``triangle`` compares a key set with
    itself and counts only pairs ``j > i``: rows ``lo:hi`` are formed on
    columns ``lo + 1:`` alone, because the columns left of those are all
    excluded.  Each block takes as many rows as fit ``_PAIR_BLOCK`` entries
    at its own width, so triangle blocks grow as the rows narrow.  NaN
    entries never count, so the blocks do not change the result.  A table
    with no entry below inf gives ``(inf, None)``.
    """
    best: list[tuple[float, tuple | None]] = []
    lo = 0
    while lo < len(row_keys):
        c0 = lo + 1 if triangle else 0
        width = len(col_keys) - c0
        hi = min(len(row_keys), lo + max(1, _PAIR_BLOCK // max(width, 1)))
        for t, block in enumerate(tables(lo, hi, c0)):
            if t == len(best):
                best.append((np.inf, None))
            if block.size == 0:
                continue
            k = int(np.argmin(block))
            if np.isnan(block.flat[k]):  # argmin stops at the first NaN
                k = int(np.argmin(np.where(np.isnan(block), np.inf, block)))
            if block.flat[k] < best[t][0]:
                best[t] = (float(block.flat[k]), (row_keys[lo + k // width], col_keys[c0 + k % width]))
        lo = hi
    return best


def _gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``abs(a_i - b_j)`` for every pair."""
    return np.abs(a[:, None] - b[None, :])


def _modulus(v: np.ndarray) -> np.ndarray:
    """``abs`` of each value, rounded as Python's complex ``abs`` (libm ``hypot``);
    numpy's complex ``abs`` differs from it in the last bit for about a
    quarter of all values."""
    return np.hypot(v.real, v.imag)


def _later(lo: int, hi: int, c0: int, cols: int) -> np.ndarray:
    """Mask of the pairs ``j > i`` in rows ``lo:hi`` and columns ``c0:cols``."""
    return np.arange(c0, cols)[None, :] > np.arange(lo, hi)[:, None]


def _sorted(keys: np.ndarray, values: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The keys ascending, as a list, and the values in their order."""
    order = np.argsort(keys)
    return keys[order].tolist(), values[order]


def _min_pairwise_gap(keys: np.ndarray, values: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """Smallest ``|v_n - v_l|`` over pairs of keys ``n < l``, with the first such pair."""
    keys, v = _sorted(keys, values)

    def table(lo, hi, c0):
        return (np.where(_later(lo, hi, c0, v.size), _gaps(v[lo:hi], v[c0:]), np.inf),)

    return _first_minima(keys, keys, table, triangle=True)[0]


def _parabolic_minima(keys: np.ndarray, values: np.ndarray, r: float) -> list[tuple[float, tuple[int, int] | None]]:
    """The P1 gaps ``|v_n - v_l|``, the P3 quotients by ``||n|**r - |l|**r|`` and the
    relaxed ones by ``|n - l|``, each minimized over pairs of keys ``n < l``."""
    keys, v = _sorted(keys, values)
    n = np.array(keys, dtype=float)
    powers = np.abs(n) ** r

    def tables(lo, hi, c0):
        gaps = _gaps(v[lo:hi], v[c0:])
        later = _later(lo, hi, c0, n.size)
        denom = np.abs(powers[lo:hi, None] - powers[None, c0:])
        return (
            np.where(later, gaps, np.inf),
            np.where(later & (denom != 0.0), gaps / denom, np.inf),
            np.where(later, gaps / np.abs(n[lo:hi, None] - n[None, c0:]), np.inf),
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        return _first_minima(keys, keys, tables, triangle=True)


def ingham_audit(slice_: SpectrumSlice, params: SystemParams, T: float) -> InghamHypothesisReport:
    """Numeric audit of every hypothesis of the combined inequality.

    The hyperbolic fit window starts above the discriminant threshold where
    the asymptote ``beta + i*tau*n`` is meaningful.  All verdicts carry the
    extremal witness that produced them; a witness is the first extremal
    pair in the order of the modes (sorted, or slice order for the disjoint
    gap).  For the three-field system the parabolic family is both branches
    under interleaved keys: branch 1 at mode ``k`` is ``2k - 1`` for
    ``k > 0`` and ``2k + 1`` for ``k < 0``, branch 2 at mode ``k`` is
    ``2k``, listed branch 1 first, each in slice order.  The P1, P2, P3, P4
    and relaxed witnesses and the second entry of the disjoint witness are
    these keys, not mode numbers, and the P3 and relaxed denominators
    ``||n|**r - |l|**r|`` and ``|n - l|`` are taken of them; the
    shared-eigenvalue set at ``N = 3`` reports the P3 witness ``(4, 5)``,
    branch 2 at mode 2 and branch 1 at mode 3.  ``T`` enters no verdict:
    the audit never reads it.  Raises :class:`DomainError` when the window
    holds no mode above the threshold or, for the three-field system, no
    two modes with distinct ``n**2``, and when ``params`` are not the
    slice's own.
    """
    if params != slice_.params:
        raise DomainError("the Ingham audit needs the parameters its slice was built from")
    threshold = hyperbolic_fit_threshold(params)
    needed = max(threshold, 2 if slice_.dim == 3 else 1)
    if slice_.N < needed:
        raise DomainError(
            f"the Ingham audit needs a window N >= {needed} (hyperbolic fit from |n| >= {threshold}"
            + (", cross gaps between distinct n**2" if slice_.dim == 3 else "")
            + f"), got N = {slice_.N}"
        )
    # the values of each branch by mode, in slice order -1, 1, -2, 2, ...
    table = slice_.basis
    order = np.argsort(np.abs(table.ns), kind="stable")
    ns, values = table.ns[order], table.values[order]
    hyp = values[:, 0]
    par_keys, par = ns, values[:, 1]
    if slice_.dim == 3:
        par_keys = np.concatenate([np.where(ns > 0, 2 * ns - 1, 2 * ns + 1), 2 * ns])
        par = np.concatenate([values[:, 1], values[:, 2]])
    scale = max(float(_modulus(hyp).max()), 1.0)

    h1_gap, h1_wit = _min_pairwise_gap(ns, hyp)
    h1 = Verdict(passed=h1_gap > 1e-10 * scale, value=h1_gap, witness=h1_wit)

    fit = np.abs(table.ns) >= threshold
    fit_ns, fit_vals = table.ns[fit], table.values[fit, 0]
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
    (p1_gap, p1_wit), (p3_best, p3_wit), (relaxed_gap, relaxed_wit) = _parabolic_minima(par_keys, par, r)
    p1 = Verdict(passed=p1_gap > 1e-10 * scale, value=p1_gap, witness=p1_wit)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(par.imag != 0.0, -par.real / np.abs(par.imag), np.inf)
    k = int(np.argmin(ratios))
    p2 = Verdict(passed=bool(ratios[k] > 0.0), value=float(ratios[k]), witness=int(par_keys[k]))

    p3 = Verdict(passed=p3_best > 0.0 and np.isfinite(p3_best), value=float(p3_best),
                 witness=p3_wit, extra={"r": r})

    mags = _modulus(par) / np.abs(par_keys) ** r
    least, most = int(np.argmin(mags)), int(np.argmax(mags))
    eps_emp = mags[least] / mags[most]
    p4 = Verdict(passed=bool(eps_emp > 0.0), value=float(eps_emp),
                 witness=(int(par_keys[least]), int(par_keys[most])), extra={"A0": 0.0, "B0": float(mags[most])})

    ((cross_best, cross_wit),) = _first_minima(
        ns.tolist(), par_keys.tolist(), lambda lo, hi, c0: (_gaps(hyp[lo:hi], par),)
    )
    disjoint = Verdict(passed=cross_best > 1e-10 * scale, value=float(cross_best), witness=cross_wit)

    c_hat_rel = float(np.min(-par.real / _modulus(par)))
    # summed left to right: numpy's pairwise sum rounds otherwise
    inv_sum = float(np.cumsum(1.0 / _modulus(par))[-1])
    relaxed = Verdict(
        passed=relaxed_gap > 0.0 and c_hat_rel > 0.0,
        value=float(relaxed_gap),
        witness=relaxed_wit,
        extra={"c_hat": c_hat_rel, "inv_abs_partial_sum": inv_sum, "window_size": par.size},
    )

    cross_gaps: dict[str, float] = {}
    if slice_.dim == 3:
        p1v, p2v = values[:, 1], values[:, 2]
        cross_gaps["p1_p1_over_n2"] = _min_squared_gap(ns, p1v, ns, p1v, 1.0, 1.0)
        cross_gaps["p2_p2_over_n2"] = _min_squared_gap(ns, p2v, ns, p2v, 1.0, 1.0)
        cross_gaps["p1_p2_over_mixed"] = _min_squared_gap(ns, p1v, ns, p2v, params.lambda0, params.kappa0)

    return InghamHypothesisReport(
        h1=h1, h2=h2, p1=p1, p2=p2, p3=p3, p4=p4,
        disjoint=disjoint, relaxed=relaxed,
        window=slice_.N, cross_gaps=cross_gaps,
    )


def _min_squared_gap(ka: np.ndarray, va: np.ndarray, kb: np.ndarray, vb: np.ndarray, wa: float, wb: float) -> float:
    """Smallest ``|a_n - b_l| / |wa*n**2 - wb*l**2|`` over pairs with a nonzero
    denominator, ``a`` the values ``va`` at keys ``ka`` and ``b`` those ``vb`` at ``kb``.

    A family against itself with equal weights is a symmetric table with a
    zero diagonal denominator, so its minimum is taken over the triangle.
    """
    sa = wa * ka.astype(float) ** 2
    sb = wb * kb.astype(float) ** 2

    def table(lo, hi, c0):
        denom = np.abs(sa[lo:hi, None] - sb[None, c0:])
        return (np.where(denom > 0.0, _gaps(va[lo:hi], vb[c0:]) / denom, np.inf),)

    triangle = ka is kb and va is vb and wa == wb
    with np.errstate(divide="ignore", invalid="ignore"):
        return _first_minima(ka.tolist(), kb.tolist(), table, triangle=triangle)[0][0]
