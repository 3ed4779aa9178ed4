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
from .observability import observation_energy
from .spectrum import BranchLabel, SpectrumSlice, build_slice

TWO_PI = 2.0 * np.pi
#: Branch column of the hyperbolic eigenpair in a basis table (first in either system).
_HYPERBOLIC = 0
#: Entries of one block of the witness's time-by-mode exponential tables, 128 kB per complex temporary.
_TIME_BLOCK = 1 << 13


def pn_value(N: int, x):
    """The annihilating polynomial ``prod_{0<|l|<=N} (x - l)`` at a point or an array of points."""
    out = np.ones(np.shape(x)) if isinstance(x, np.ndarray) else 1.0
    for l in range(1, N + 1):
        out *= (x - l) * (x + l)
    return out


def pn_filter(field_: SpectralField, N: int) -> SpectralField:
    """Coefficient-wise multiply by ``P_N(n)``; modes ``1 <= |n| <= N`` vanish."""
    if np.any(field_.coeffs[field_.N] != 0.0):
        raise DomainError("filter input must be mean-zero")
    ns = np.arange(-field_.N, field_.N + 1, dtype=float)
    out = field_.coeffs * pn_value(N, ns)[:, None]
    out[field_.N] = 0.0
    return SpectralField(dim=field_.dim, N=field_.N, coeffs=out)


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


def bump_coefficients(spec: BumpSpec, cutoff: int, samples: int = 8192, carrier: int = 0) -> tuple[np.ndarray, float]:
    """Fourier coefficients (mean removed) of the (modulated) bump.

    The profile ``exp(i*carrier*x) * psi(x)`` is periodic and smooth, so
    trapezoidal sampling converges super-algebraically; the reported tail is
    the coefficient energy beyond the cutoff relative to the total.
    """
    left, right = spec.realized_window()
    x = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    xi = (2.0 * x - (left + right)) / (right - left)
    inside = np.abs(xi) < 1.0
    profile = np.zeros_like(x)
    profile[inside] = np.exp(-1.0 / (1.0 - xi[inside] ** 2))
    modulated = profile * np.exp(1j * carrier * x)
    spectrum = np.fft.fft(modulated) / samples
    coeffs = spectrum[np.arange(-cutoff, cutoff + 1) % samples]
    coeffs[cutoff] = 0.0
    mask = np.ones(samples, dtype=bool)
    mask[0] = False
    total = float(np.sum(np.abs(spectrum[mask]) ** 2))
    kept = float(np.sum(np.abs(coeffs) ** 2))
    tail = (total - kept) / total if total > 0 else 0.0
    return coeffs, tail


@dataclass
class SmallTimeWitnessReport:
    horizon: float
    support: tuple[float, float]
    table: dict[int, tuple[float, float, float]]  # N -> (quotient, energy, norm)
    slope: float
    transport_gap: dict[int, float]
    truncation_tail: float
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
    cutoff_factor: int = 4,
    modulation_factor: int = 4,
    time_grid: int = 257,
    weighting: str = "normalized",
) -> SmallTimeWitnessReport:
    """Measure the observability-quotient decay of the annihilated bump family.

    For each N the terminal density profile is the bump modulated to a
    carrier at mode ``modulation_factor*N``: modulation preserves the compact
    support exactly (so the transport solution keeps a vanishing seam trace
    after truncation) while placing the annihilated modes ``|n| <= N`` in the
    profile's spectral tail.  The annihilating polynomial is applied
    literally and its nonzero values divided back out (``normalized``): on a
    truncated series the raw ``polynomial`` weights grow like ``n**(2N)`` and
    bury the seam cancellation under the cutoff edge, which the optional
    ``polynomial`` mode demonstrates side by side.

    The observed quotients decay faster than the ``1/N**2`` envelope of the
    truncation-free bound -- the measured family is seam-invisible to
    spectral accuracy -- so the fitted slope certifies the one-sided blow-up
    statement rather than an exact rate.
    """
    if not 0.0 < T < TWO_PI / params.u_bar:
        raise DomainError(f"witness needs 0 < T < {TWO_PI / params.u_bar:.4f}, got {T}")
    if weighting not in ("normalized", "polynomial"):
        raise DomainError("weighting must be 'normalized' or 'polynomial'")
    left, right = bump_spec.realized_window()
    if left <= params.u_bar * T or right >= TWO_PI:
        raise SupportError(
            f"bump support ({left:.4f}, {right:.4f}) must sit strictly inside "
            f"({params.u_bar * T:.4f}, {TWO_PI:.4f})"
        )
    if len(N_list) < 1 or sorted(N_list) != list(N_list):
        raise DomainError("N_list must be nonempty and increasing")
    if modulation_factor >= cutoff_factor + 1:
        raise DomainError("carrier must sit below the cutoff with spectral margin")
    # spectral margin above the carrier: proportional for large windows, with
    # an absolute floor so the bump tail resolves at small N too
    margin = max(2 * max(N_list), 48)
    cutoff = cutoff_factor * max(N_list) + margin
    slice_ = build_slice(params, cutoff)

    table: dict[int, tuple[float, float, float]] = {}
    profiles: dict[int, np.ndarray] = {}
    tail = 0.0
    for N in N_list:
        carrier = modulation_factor * N
        base_coeffs, tail = bump_coefficients(bump_spec, cutoff, carrier=carrier)
        base = SpectralField(dim=1, N=cutoff, coeffs=base_coeffs.reshape(-1, 1))
        annihilated = pn_filter(base, N).coeffs[:, 0]
        if weighting == "normalized":
            filtered = base_coeffs.copy()
            filtered[annihilated == 0.0] = 0.0
        else:
            filtered = annihilated
        terminal = _hyperbolic_lift(params, filtered, cutoff, slice_)
        expansion = expand_in_eigenbasis(terminal, slice_)
        signal = observation_signal(expansion, slice_, ObservationChannel.DENSITY, T)
        energy, _ = observation_energy(signal, T)
        state0 = adjoint_state(expansion, slice_, T, 0.0).state
        norm0 = sobolev_norm(state0, NormSpec.weighted_l2(params))
        table[N] = (energy / norm0**2, energy, norm0)
        profiles[N] = filtered

    # Transport comparison at the boundary: the pure transport solution
    # with rate i*u_bar*n - omega0 vanishes at the seam by construction.
    # Each block of times takes its two exponential tables once for every N.
    ts = np.linspace(0.0, T, time_grid)
    ns = np.arange(-cutoff, cutoff + 1)
    rates = 1j * params.u_bar * ns - params.omega0
    hyp = np.zeros(ns.size, dtype=complex)
    hyp[ns != 0] = slice_.basis.values[slice_.basis.rows(ns[ns != 0]), _HYPERBOLIC]
    gaps: dict[int, list] = {N: [] for N in profiles}
    step = max(1, _TIME_BLOCK // ns.size)
    for lo in range(0, ts.size, step):
        s = T - ts[lo : lo + step, None]
        full_exp = np.exp(hyp[None, :] * s)
        transport_exp = np.exp(rates[None, :] * s)
        for N, amp in profiles.items():
            sigma_full = (amp[None, :] * full_exp).sum(axis=1)
            sigma_transport = (amp[None, :] * transport_exp).sum(axis=1)
            gaps[N].append(np.max(np.abs(sigma_full - sigma_transport)))
    transport_gap = {N: float(np.max(g)) for N, g in gaps.items()}

    logN = np.log([float(N) for N in N_list])
    logq = np.log([table[N][0] for N in N_list])
    slope = float(np.polyfit(logN, logq, 1)[0]) if len(N_list) >= 2 else float("nan")
    return SmallTimeWitnessReport(
        horizon=T,
        support=(left, right),
        table=table,
        slope=slope,
        transport_gap=transport_gap,
        truncation_tail=tail,
        seed=bump_spec.seed,
        metadata={
            "cutoff": cutoff,
            "modulation_factor": modulation_factor,
            "weighting": weighting,
            "params_n0": params.n0,
        },
    )


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
    T: float = 1.0,
    time_grid: int = 513,
) -> DegenerateWitnessRecord:
    """Nonzero adjoint trajectory with vanishing observation at a coincidence.

    Requires a cross-mode coincidence (two modes sharing one eigenvalue with
    independent eigenfunctions); the terminal datum ``C*Phi_+ + D*Phi_-``
    with the swapped observations kills the signal identically.
    """
    pair = None
    for c in slice_.coincidences:
        if c.cross_mode:
            pair = c
            break
    if pair is None:
        raise NotDegenerate("no cross-mode eigenvalue coincidence in this slice")
    (n_a, b_a), (n_b, b_b) = pair.first, pair.second
    pa = next(p for p in slice_.mode(n_a).pairs if p.branch is b_a)
    pb = next(p for p in slice_.mode(n_b).pairs if p.branch is b_b)
    obs_a = observation_value(channel, pa.vector, n_a, params)
    obs_b = observation_value(channel, pb.vector, n_b, params)
    C = -obs_b
    D = obs_a
    N = slice_.N
    terminal = SpectralField.zeros(params.dim, N)
    terminal.coeffs[n_a + N] += C * pa.vector
    terminal.coeffs[n_b + N] += D * pb.vector
    expansion = expand_in_eigenbasis(terminal, slice_)
    signal = observation_signal(expansion, slice_, channel, T)
    ts = np.linspace(0.0, T, time_grid)
    max_obs = float(np.max(np.abs(signal(ts))))
    norm_spec = NormSpec.weighted_l2(params)
    min_norm = min(
        sobolev_norm(adjoint_state(expansion, slice_, T, float(t)).state, norm_spec)
        for t in np.linspace(0.0, T, 9)
    )
    scale = (abs(C) + abs(D)) * max(abs(obs_a), abs(obs_b))
    return DegenerateWitnessRecord(
        channel=channel,
        value=pa.value,
        modes=(n_a, n_b),
        C=C,
        D=D,
        max_observation=max_obs,
        min_state_norm=min_norm,
        observation_scale=scale,
        horizon=T,
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
    if sorted(n_list) != list(n_list) or len(n_list) < 2:
        raise DomainError("n_list must be increasing with at least two entries")
    slice_ = build_slice(params, max(n_list))
    norm_spec = NormSpec.dual_order(params, s)
    table: dict[int, float] = {}
    for n in n_list:
        pair = next(p for p in slice_.mode(n).pairs if p.branch is BranchLabel.HYPERBOLIC)
        terminal = SpectralField.single_mode(n, pair.vector, max(n_list))
        expansion = expand_in_eigenbasis(terminal, slice_)
        signal = observation_signal(expansion, slice_, channel, T)
        energy, _ = observation_energy(signal, T)
        state0 = adjoint_state(expansion, slice_, T, 0.0).state
        norm0 = sobolev_norm(state0, norm_spec)
        table[n] = energy / norm0**2
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
