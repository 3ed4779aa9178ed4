"""Constructive realizations of the negative controllability results.

Three mechanisms, each measured rather than proved:

* **Small-time blow-up.**  Below the transport time ``2*pi/u_bar`` a smooth
  density bump supported ahead of the characteristic fan can be filtered by
  the annihilating polynomial ``P_N(x) = prod_{0<|l|<=N} (x - l)`` and lifted
  to hyperbolic-branch terminal data whose boundary observation shrinks like
  ``1/N**2`` relative to the state norm, so the observability quotient decays
  with fitted log-log slope near -2.

* **Unique-continuation failure.**  At coefficients where two distinct modes
  share an eigenvalue with independent eigenfunctions, the cross-observation
  swap ``C = -B*Phi_-, D = B*Phi_+`` produces a nonzero adjoint trajectory
  with identically vanishing observation.

* **Regularity gap.**  On the hyperbolic branch the velocity/temperature
  observation decays like ``1/n`` while the dual-norm state only decays like
  ``n**-s``, so the quotient falls like ``n**-(2-2s)`` for ``0 <= s < 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DomainError, NotDegenerate, SupportError
from .evolution import ObservationChannel, adjoint_state, observation_signal, observation_value
from .fields import NormSpec, SpectralField, expand_in_eigenbasis, sobolev_norm
from .model import BarotropicParams, SystemParams
from .observability import (
    observability_quotients,
    observation_energy,  # noqa: F401  (perfbench/spans.py traces this name)
)
from .spectrum import _BRANCH_ORDER, SpectrumSlice, build_slice

TWO_PI = 2.0 * np.pi
#: Branch column of the hyperbolic eigenpair in a basis table (first in either system).
_HYPERBOLIC = 0
#: Entries of one block of the witness's time-by-mode exponential tables, 128 kB per complex
#: table (a block holds at least one stride of times).
_TIME_BLOCK = 1 << 13
#: Time stride of the witness's product-form exponentials, about the square root of ``_TRANSPORT_TIMES``.
_TRANSPORT_STRIDE = 16
#: Small-time witness: the carrier of N sits at mode ``_MODULATION_FACTOR*N``, below the cutoff
#: ``_CUTOFF_FACTOR*max(N_list)`` plus a spectral margin, and the transport gap is sampled at
#: ``_TRANSPORT_TIMES`` points of [0, T].
_CUTOFF_FACTOR = 4
_MODULATION_FACTOR = 4
_TRANSPORT_TIMES = 257
#: Unique-continuation witness: horizon and number of times at which the observation is sampled.
_UC_HORIZON = 1.0
_UC_TIMES = 513


@dataclass(frozen=True)
class BumpSpec:
    """Smooth compactly supported density profile, sampled to Fourier modes.

    The profile is the classic ``exp(-1/(1-xi**2))`` mollifier on
    ``(x_left, x_right)``; ``seed`` jitters the window inside its allowed
    slack so slope-stability checks can rerandomize.
    """

    x_left: float
    x_right: float
    seed: int | None = None
    jitter: float = 0.0

    def realized_window(self) -> tuple[float, float]:
        """Window after seeding; re-randomization shifts the center only.

        The width is kept fixed because it controls the spectral decay rate
        of the profile; slope-stability checks compare runs that differ in
        phase content, not in decay class.
        """
        if self.seed is None or self.jitter == 0.0:
            return self.x_left, self.x_right
        rng = np.random.default_rng(self.seed)
        width = self.x_right - self.x_left
        shift = rng.uniform(-1, 1) * self.jitter * width
        c = 0.5 * (self.x_left + self.x_right) + shift
        return c - 0.5 * width, c + 0.5 * width


def bump_coefficients(
    spec: BumpSpec, cutoff: int, samples: int = 8192, carrier: int | np.ndarray = 0
) -> tuple[np.ndarray, float | np.ndarray]:
    """Fourier coefficients (mean removed) of the bump modulated to ``carrier``, and their tail.

    The profile ``exp(i*carrier*x) * psi(x)`` is periodic and smooth, so
    trapezoidal sampling converges super-algebraically; the reported tail is
    the coefficient energy beyond the cutoff relative to the total.  One FFT
    of the unmodulated profile serves every integer carrier: by the DFT shift
    theorem the modulated coefficient of mode ``n`` is the profile's of mode
    ``n - carrier``, so the coefficients are gathered from one spectrum, and
    an array of carriers gives one row of coefficients and one tail per
    carrier.
    """
    left, right = spec.realized_window()
    x = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    xi = (2.0 * x - (left + right)) / (right - left)
    inside = np.abs(xi) < 1.0
    profile = np.zeros_like(x)
    profile[inside] = np.exp(-1.0 / (1.0 - xi[inside] ** 2))
    spectrum = np.fft.fft(profile) / samples
    power = np.abs(spectrum) ** 2
    carrier = np.asarray(carrier)[..., None]
    coeffs = spectrum[(np.arange(-cutoff, cutoff + 1) - carrier) % samples]
    coeffs[..., cutoff] = 0.0
    # every coefficient but the modulated mean
    total = power.sum() - power[-carrier[..., 0] % samples]
    kept = np.sum(np.abs(coeffs) ** 2, axis=-1)
    tail = np.divide(total - kept, total, out=np.zeros_like(total), where=total > 0)
    return coeffs, (float(tail) if tail.ndim == 0 else tail)


@dataclass
class SmallTimeWitnessReport:
    horizon: float
    support: tuple[float, float]
    table: dict[int, tuple[float, float, float]]  # N -> (quotient, energy, norm)
    slope: float
    transport_gap: dict[int, float]
    truncation_tail: float  # the last N's
    truncation_tails: dict[int, float]
    seed: int | None
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "small-time",
            "channel": "density",
            "T": self.horizon,
            "support": list(self.support),
            "table": {str(k): list(v) for k, v in sorted(self.table.items())},
            "slope": self.slope,
            "transport_gap": {str(k): v for k, v in sorted(self.transport_gap.items())},
            "truncation_tail": self.truncation_tail,
            "truncation_tails": {str(k): v for k, v in sorted(self.truncation_tails.items())},
            "seed": self.seed,
            **self.metadata,
        }


def _hyperbolic_lift(params: BarotropicParams, filtered: np.ndarray, cutoff: int, slice_: SpectrumSlice) -> SpectralField:
    """Terminal datum with hyperbolic-branch content matching a density profile.

    The hyperbolic eigenvector has density component ``rho_bar``, so scaling
    its coefficient by ``a_n P_N(n)/rho_bar`` reproduces the filtered profile
    in the density slot.
    """
    table = slice_.basis
    ns = np.arange(-cutoff, cutoff + 1)
    live = (ns != 0) & (filtered != 0.0)
    hyperbolic = table.vectors[table.rows(ns[live]), _HYPERBOLIC]
    out = SpectralField.zeros(2, cutoff)
    out.coeffs[live] += (filtered[live] / params.rho_bar)[:, None] * hyperbolic
    return out


def small_time_witness(
    params: BarotropicParams,
    T: float,
    N_list: list[int],
    bump_spec: BumpSpec,
) -> SmallTimeWitnessReport:
    """Measure the observability-quotient decay of the annihilated bump family.

    For each N the terminal density profile is the bump modulated to a
    carrier at mode ``_MODULATION_FACTOR*N``: modulation preserves the compact
    support exactly (so the transport solution keeps a vanishing seam trace
    after truncation) while placing the annihilated modes ``|n| <= N`` in the
    profile's spectral tail.  The annihilating polynomial enters with its
    nonzero values divided back out (the ``normalized`` weighting), so the
    filter zeroes the modes ``|n| <= N`` and keeps every other coefficient:
    on a truncated series the raw polynomial weights grow like ``n**(2N)``
    and bury the seam cancellation under the cutoff edge.

    The observed quotients decay faster than the ``1/N**2`` envelope of the
    truncation-free bound -- the measured family is seam-invisible to
    spectral accuracy -- so the fitted slope certifies the one-sided blow-up
    statement rather than an exact rate.

    What does not depend on N is done once per call: one FFT of the bump,
    from which every carrier's coefficients are gathered; one stacked pass of
    :func:`observability_quotients` over the lifts of every N; one pair
    table, since N_list increases and each signal's terms are among the
    first's; and one set of transport exponentials for every N.
    """
    if not isinstance(params, BarotropicParams):
        raise DomainError("the small-time witness is built for the barotropic (two-field) system")
    if not 0.0 < T < TWO_PI / params.u_bar:
        raise DomainError(f"witness needs 0 < T < {TWO_PI / params.u_bar:.4f}, got {T}")
    left, right = bump_spec.realized_window()
    # NaN ends and reversed windows fail the chain too
    if not params.u_bar * T < left < right < TWO_PI:
        raise SupportError(
            f"bump support ({left:.4f}, {right:.4f}) must be an interval strictly inside "
            f"({params.u_bar * T:.4f}, {TWO_PI:.4f})"
        )
    if len(N_list) < 2 or N_list[0] < 1 or any(a >= b for a, b in zip(N_list, N_list[1:])):
        raise DomainError("N_list must be increasing with at least two entries, each >= 1")
    # spectral margin above the carrier: proportional for large windows, with
    # an absolute floor so the bump tail resolves at small N too
    margin = max(2 * max(N_list), 48)
    cutoff = _CUTOFF_FACTOR * max(N_list) + margin
    slice_ = build_slice(params, cutoff)

    profiles: dict[int, np.ndarray] = {}
    ns = np.arange(-cutoff, cutoff + 1)
    # one FFT for every carrier; each signal after the first gathers its
    # energy's pair table from the first one's
    bumps, tails = bump_coefficients(bump_spec, cutoff, carrier=_MODULATION_FACTOR * np.asarray(N_list))
    for N, filtered in zip(N_list, bumps):
        filtered[np.abs(ns) <= N] = 0.0  # the zeros of P_N and the removed mean
        profiles[N] = filtered
    reports = observability_quotients(
        [_hyperbolic_lift(params, filtered, cutoff, slice_) for filtered in profiles.values()],
        ObservationChannel.DENSITY, T, NormSpec.weighted_l2(params), slice_,
    )
    table = {N: (r.quotient, r.energy, r.initial_norm) for N, r in zip(N_list, reports)}

    # Transport comparison at the boundary: the pure transport solution
    # with rate i*u_bar*n - omega0 vanishes at the seam by construction.
    hyp = np.zeros(ns.size, dtype=complex)
    hyp[ns != 0] = slice_.basis.values[slice_.basis.rows(ns[ns != 0]), _HYPERBOLIC]
    gaps = _transport_gaps(profiles, hyp, 1j * params.u_bar * ns - params.omega0, T)

    logN = np.log([float(N) for N in N_list])
    logq = np.log([table[N][0] for N in N_list])
    slope = float(np.polyfit(logN, logq, 1)[0])
    return SmallTimeWitnessReport(
        horizon=T,
        support=(left, right),
        table=table,
        slope=slope,
        transport_gap={N: float(gap.max()) for N, gap in gaps.items()},
        truncation_tail=float(tails[-1]),
        truncation_tails=dict(zip(N_list, tails.tolist())),
        seed=bump_spec.seed,
        metadata={
            "cutoff": cutoff,
            "modulation_factor": _MODULATION_FACTOR,
            "weighting": "normalized",
            "params_n0": params.n0,
        },
    )


def _transport_gaps(
    profiles: dict[int, np.ndarray], hyp: np.ndarray, rates: np.ndarray, T: float
) -> dict[int, np.ndarray]:
    """``|sum amp * (e^{hyp s} - e^{rate s})|`` over the modes at ``s = T - t`` for each profile.

    ``t`` runs over ``_TRANSPORT_TIMES`` points of [0, T].  The difference
    is formed once per time, so no two sums of size ``sum|amp|`` are
    subtracted.  The exponential at ``t_{qB+r}`` (``B = _TRANSPORT_STRIDE``)
    is the product of one at ``t_{qB}`` and one at ``t_r``: the tables take
    ``_TRANSPORT_TIMES/B + B`` exponentials per rate, not ``_TRANSPORT_TIMES``.
    Blocks of whole strides bound the temporaries; each row's sum is the
    same in any block.
    """
    ts = np.linspace(0.0, T, _TRANSPORT_TIMES)
    both = np.stack((hyp, rates))[:, None, :]
    outer = np.exp(both * (T - ts[::_TRANSPORT_STRIDE, None]))
    inner = np.exp(both * -ts[:_TRANSPORT_STRIDE, None])
    gaps = {N: np.empty(ts.size) for N in profiles}
    groups = max(1, _TIME_BLOCK // (_TRANSPORT_STRIDE * hyp.size))
    block = np.empty((2, groups, _TRANSPORT_STRIDE, hyp.size), dtype=complex)
    for lo in range(0, outer.shape[1], groups):
        part = block[:, : outer.shape[1] - lo]  # the last block may hold fewer strides
        np.multiply(outer[:, lo : lo + groups, None, :], inner[:, None, :, :], out=part)
        first = lo * _TRANSPORT_STRIDE
        diff = part[0].reshape(-1, hyp.size)[: ts.size - first]
        diff -= part[1].reshape(-1, hyp.size)[: diff.shape[0]]
        for N, amp in profiles.items():
            gaps[N][first : first + diff.shape[0]] = np.abs((amp * diff).sum(axis=1))
    return gaps


@dataclass
class DegenerateWitnessRecord:
    channel: ObservationChannel
    value: complex
    modes: tuple[int, int]
    C: complex
    D: complex
    max_observation: float
    min_state_norm: float
    observation_scale: float
    horizon: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "degenerate-unique-continuation",
            "channel": self.channel.value,
            "eigenvalue": [self.value.real, self.value.imag],
            "modes": list(self.modes),
            "max_observation": self.max_observation,
            "min_state_norm": self.min_state_norm,
            "observation_scale": self.observation_scale,
            "T": self.horizon,
        }


def degenerate_uc_witness(
    params: SystemParams,
    channel: ObservationChannel,
    slice_: SpectrumSlice,
) -> DegenerateWitnessRecord:
    """Nonzero adjoint trajectory with vanishing observation at a coincidence.

    Requires a cross-mode coincidence (two modes sharing one eigenvalue with
    independent eigenfunctions); the terminal datum ``C*Phi_+ + D*Phi_-``
    with the swapped observations kills the signal identically.  Raises
    :class:`DomainError` when ``params`` are not the slice's own.
    """
    if params != slice_.params:
        raise DomainError("the degenerate witness needs the parameters its slice was built from")
    pair = None
    for c in slice_.coincidences:
        if c.cross_mode:
            pair = c
            break
    if pair is None:
        raise NotDegenerate("no cross-mode eigenvalue coincidence in this slice")
    (n_a, b_a), (n_b, b_b) = pair.first, pair.second
    table = slice_.basis
    rows, columns = table.rows([n_a, n_b]), [_BRANCH_ORDER[b_a], _BRANCH_ORDER[b_b]]
    vector_a, vector_b = table.vectors[rows, columns]
    obs_a = observation_value(channel, vector_a, n_a, params)
    obs_b = observation_value(channel, vector_b, n_b, params)
    C = -obs_b
    D = obs_a
    N = slice_.N
    terminal = SpectralField.zeros(params.dim, N)
    terminal.coeffs[n_a + N] += C * vector_a
    terminal.coeffs[n_b + N] += D * vector_b
    expansion = expand_in_eigenbasis(terminal, slice_)
    signal = observation_signal(expansion, slice_, channel, _UC_HORIZON)
    ts = np.linspace(0.0, _UC_HORIZON, _UC_TIMES)
    max_obs = float(np.max(np.abs(signal(ts))))
    norm_spec = NormSpec.weighted_l2(params)
    min_norm = min(
        sobolev_norm(adjoint_state(expansion, slice_, _UC_HORIZON, float(t)).state, norm_spec)
        for t in np.linspace(0.0, _UC_HORIZON, 9)
    )
    scale = (abs(C) + abs(D)) * max(abs(obs_a), abs(obs_b))
    return DegenerateWitnessRecord(
        channel=channel,
        value=complex(table.values[rows[0], columns[0]]),
        modes=(n_a, n_b),
        C=C,
        D=D,
        max_observation=max_obs,
        min_state_norm=min_norm,
        observation_scale=scale,
        horizon=_UC_HORIZON,
    )


@dataclass
class RegularityGapRecord:
    channel: ObservationChannel
    order: float
    table: dict[int, float]  # n -> quotient
    scaled_table: dict[int, float]  # n -> n**(2-2s) * quotient
    slope: float
    horizon: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "regularity-gap",
            "channel": self.channel.value,
            "s": self.order,
            "table": {str(k): v for k, v in sorted(self.table.items())},
            "scaled_table": {str(k): v for k, v in sorted(self.scaled_table.items())},
            "slope": self.slope,
            "T": self.horizon,
        }


def regularity_gap_witness(
    params: SystemParams,
    channel: ObservationChannel,
    s: float,
    n_list: list[int],
    T: float = 2.0,
) -> RegularityGapRecord:
    """Quotient decay of hyperbolic eigenfunctions in the dual norm of order s."""
    if channel is ObservationChannel.DENSITY:
        raise DomainError("the regularity gap concerns velocity/temperature observations")
    if not 0.0 <= s < 1.0:
        raise DomainError(f"order must satisfy 0 <= s < 1, got {s}")
    if len(n_list) < 2 or n_list[0] < 1 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise DomainError("n_list must be increasing with at least two entries, each >= 1")
    slice_ = build_slice(params, max(n_list))
    hyperbolic = slice_.basis.vectors[slice_.basis.rows(n_list), _HYPERBOLIC]
    reports = observability_quotients(
        [SpectralField.single_mode(n, vector, max(n_list)) for n, vector in zip(n_list, hyperbolic)],
        channel, T, NormSpec.dual_order(params, s), slice_,
    )
    table = {n: r.quotient for n, r in zip(n_list, reports)}
    logn = np.log([float(n) for n in n_list])
    logq = np.log([table[n] for n in n_list])
    slope = float(np.polyfit(logn, logq, 1)[0])
    scaled = {n: float(n) ** (2.0 - 2.0 * s) * q for n, q in table.items()}
    return RegularityGapRecord(
        channel=channel,
        order=s,
        table=table,
        scaled_table=scaled,
        slope=slope,
        horizon=T,
    )
