"""Closed-form evolution of the adjoint and forward systems and the
boundary observation signals of the three control channels.

The adjoint solution with terminal datum expanded in the (generalized)
eigenbasis is a finite sum of ``exp(nu*(T-t))`` terms; a Jordan chain of
length m-1 contributes polynomial factors ``(T-t)**k / k!`` against the
lower chain vectors, which is exactly the action of the mode-matrix
exponential on the chain block.  Observation signals collect the boundary
functionals of those terms into a closed-form list of
``coefficient * (T-t)**j * exp(nu*(T-t))`` summands.

Forward trajectories are propagated by dense matrix exponentials of the
forward symbols, mode by mode; the weighted norm of a homogeneous forward
trajectory never increases (the generator is dissipative), which is checked
by the test suite rather than enforced here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import DimMismatch, DomainError
from .fields import EigenExpansion, NormSpec, SpectralField, sobolev_norm
from .model import BarotropicParams, SystemParams
from .spectrum import MatrixKind, SpectrumSlice, _cmul, _symbol


class ObservationChannel(Enum):
    DENSITY = "density"
    VELOCITY = "velocity"
    TEMPERATURE = "temperature"


def channel_dim_ok(channel: ObservationChannel, dim: int) -> bool:
    return not (channel is ObservationChannel.TEMPERATURE and dim == 2)


def observation_value(
    channel: ObservationChannel,
    vector: np.ndarray,
    n: int,
    params: SystemParams,
) -> complex:
    """Boundary observation functional applied to ``vector * exp(i*n*x)``.

    Evaluation happens at x = 2*pi where the exponential equals one, so only
    the derivative terms pick up the factor ``i*n``.
    """
    vector = np.asarray(vector, dtype=complex)
    if vector.size != params.dim:
        raise DimMismatch(f"vector has {vector.size} components, system has {params.dim}")
    if not channel_dim_ok(channel, params.dim):
        raise DimMismatch("temperature channel requires the three-field system")
    return complex(observation_values(channel, vector, n, params))


def observation_values(channel: ObservationChannel, vectors: np.ndarray, n, params: SystemParams) -> np.ndarray:
    """:func:`observation_value` of every vector of ``vectors`` (components on the last axis).

    ``n`` broadcasts against the leading axes.  Each complex product is
    formed by :func:`spectrum._cmul`, so every entry is the scalar
    arithmetic of one :func:`observation_value` call bit for bit.
    """
    v = [vectors[..., i] for i in range(params.dim)]
    inx = _cmul(1j, n)
    p = params
    if isinstance(params, BarotropicParams):
        if channel is ObservationChannel.DENSITY:
            return _cmul(p.u_bar, v[0]) + _cmul(p.rho_bar, v[1])
        return _cmul(p.b, v[0]) + _cmul(p.u_bar, v[1]) + _cmul(_cmul(p.mu0, inx), v[1])
    if channel is ObservationChannel.DENSITY:
        return _cmul(p.u_bar, v[0]) + _cmul(p.rho_bar, v[1])
    if channel is ObservationChannel.VELOCITY:
        return (
            _cmul(p.R * p.theta_bar, v[0])
            + _cmul(p.rho_bar * p.u_bar, v[1])
            + _cmul(_cmul(p.lambda0 * p.rho_bar, inx), v[1])
            + _cmul(p.R * p.rho_bar, v[2])
        )
    return (
        _cmul(p.R, v[1])
        + _cmul(p.c0 * p.u_bar / p.theta_bar, v[2])
        + _cmul(_cmul(p.c0 * p.kappa0 / p.theta_bar, inx), v[2])
    )


def boundary_control_weight(channel: ObservationChannel, params: SystemParams) -> float:
    """Weight multiplying the boundary pairing in the duality identity."""
    if isinstance(params, BarotropicParams):
        return params.b if channel is ObservationChannel.DENSITY else params.rho_bar
    if channel is ObservationChannel.DENSITY:
        return params.R * params.theta_bar
    if channel is ObservationChannel.VELOCITY:
        return params.rho_bar
    return params.rho_bar**2


@dataclass(frozen=True)
class SignalTerm:
    coefficient: complex
    rate: complex
    poly_degree: int


class ObservationSignal:
    """Closed-form boundary observation y(t) = sum c * (T-t)**j * exp(nu*(T-t)).

    The summands are held as aligned arrays ``coefficients``, ``rates`` and
    ``degrees``; ``terms`` lists them as :class:`SignalTerm` objects, and
    the constructor takes such a list.
    """

    def __init__(self, terms: list[SignalTerm], horizon: float):
        terms = list(terms)
        self.coefficients = np.array([t.coefficient for t in terms], dtype=complex)
        self.rates = np.array([t.rate for t in terms], dtype=complex)
        self.degrees = np.array([t.poly_degree for t in terms], dtype=np.int64)
        self.horizon = horizon

    @classmethod
    def from_arrays(cls, coefficients: np.ndarray, rates: np.ndarray, degrees: np.ndarray, horizon: float):
        signal = cls.__new__(cls)
        signal.coefficients, signal.rates, signal.degrees, signal.horizon = coefficients, rates, degrees, horizon
        return signal

    @property
    def terms(self) -> list[SignalTerm]:
        return [
            SignalTerm(c, r, d)
            for c, r, d in zip(self.coefficients.tolist(), self.rates.tolist(), self.degrees.tolist())
        ]

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = self.horizon - t
        out = np.zeros(s.shape, dtype=complex)
        for c, r, d in zip(self.coefficients.tolist(), self.rates.tolist(), self.degrees.tolist()):
            out = out + c * s**d * np.exp(r * s)
        return out

    def value_at_terminal(self) -> complex:
        return complex(sum(self.coefficients[self.degrees == 0].tolist()))


@dataclass
class TrajectorySample:
    time: float
    state: SpectralField
    norms: dict[str, float]


def chain_links(levels: np.ndarray) -> list[tuple[int, int, int, np.ndarray]]:
    """The Jordan-chain bookkeeping of basis columns, shared by every closed-form consumer.

    Under the adjoint flow a column at Jordan level ``L`` carries
    ``(T-t)**k / k!`` against the column ``k`` places before it, for
    ``k = 0..L``; a semisimple column has level 0 and carries only itself:
    ``exp(M s) w_j = e^{nu s} sum_k (s**k / k!) w_{j-k}``.  Lists
    ``(c, k, k!, linked)`` for every column ``c`` and ``k <= c`` in that
    order, ``linked`` marking where column ``c`` reaches level ``k``
    (``levels[..., c] >= k``).
    """
    return [
        (c, k, math.factorial(k), levels[..., c] >= k)
        for c in range(levels.shape[-1])
        for k in range(c + 1)
    ]


def adjoint_state(
    expansion: EigenExpansion,
    slice_: SpectrumSlice,
    T: float,
    t: float,
    norm_specs: dict[str, NormSpec] | None = None,
) -> TrajectorySample:
    """Adjoint solution at time t with terminal datum given by the expansion.

    Every mode of the expansion at once: the exponential of each basis
    column's rate, then one step per (column, chain level) of
    :func:`chain_links`.
    """
    if not 0.0 <= t <= T:
        raise DomainError(f"time {t} outside [0, {T}]")
    s = T - t
    table, ns, rows, coefficients = expansion.stacked(slice_)
    weights = _cmul(np.exp(_cmul(table.rates[rows], s)), coefficients)
    chained = table.chained[rows]
    basis = table.basis[rows]
    modes = np.zeros(coefficients.shape, dtype=complex)
    # chain columns take their factor even at k = 0, where "* 1.0" can flip a
    # signed zero or turn an infinity into NaN, and the other columns none
    for c, k, factorial, linked in chain_links(table.levels[rows]):
        weight = np.where(chained[:, c], _cmul(weights[:, c], s**k / factorial), weights[:, c])
        modes[linked] += weight[linked, None] * basis[linked, :, c - k]
    state = SpectralField.zeros(slice_.dim, slice_.N)
    state.coeffs[ns + slice_.N] = modes
    norms = {}
    for name, spec in (norm_specs or {}).items():
        norms[name] = sobolev_norm(state, spec)
    return TrajectorySample(time=t, state=state, norms=norms)


def forward_state(
    initial_field: SpectralField,
    params: SystemParams,
    t: float,
    norm_specs: dict[str, NormSpec] | None = None,
) -> TrajectorySample:
    """Homogeneous forward solution at time t >= 0.

    Controlled trajectories are deliberately not evolved here; control
    correctness is asserted through the per-mode duality identity instead.
    """
    if t < 0:
        raise DomainError("forward evolution requires t >= 0")
    if np.any(initial_field.coeffs[initial_field.N] != 0.0):
        raise DomainError("forward evolution requires a mean-zero field")
    if initial_field.dim != params.dim:
        raise DimMismatch("field and system component counts differ")
    state = SpectralField.zeros(initial_field.dim, initial_field.N)
    for n in range(-initial_field.N, initial_field.N + 1):
        if n == 0:
            continue
        c0 = initial_field.coeff(n)
        if not np.any(c0):
            continue
        M = _symbol(params, n, MatrixKind.FORWARD)
        state.coeffs[n + initial_field.N] = scipy.linalg.expm(M * t) @ c0
    # contraction post-check: the homogeneous semigroup never grows the
    # weighted norm; a violation signals a broken symbol
    weighted = NormSpec.weighted_l2(params)
    n0 = sobolev_norm(initial_field, weighted)
    nt = sobolev_norm(state, weighted)
    if nt > n0 * (1.0 + 1e-8) + 1e-12:
        warnings.warn(
            f"forward evolution grew the weighted norm: {n0:.6e} -> {nt:.6e}",
            RuntimeWarning,
            stacklevel=2,
        )
    norms = {}
    for name, spec in (norm_specs or {}).items():
        norms[name] = sobolev_norm(state, spec)
    return TrajectorySample(time=t, state=state, norms=norms)


def observation_signal(
    expansion: EigenExpansion,
    slice_: SpectrumSlice,
    channel: ObservationChannel,
    T: float,
) -> ObservationSignal:
    """Boundary observation of the adjoint solution as a closed-form signal.

    Terms run mode by mode in the expansion's order, then by (column, chain
    level) of :func:`chain_links`; a zero coefficient contributes none.
    """
    if not channel_dim_ok(channel, slice_.dim):
        raise DimMismatch("temperature channel requires the three-field system")
    table, ns, rows, coefficients = expansion.stacked(slice_)
    observed = observation_values(channel, table.basis[rows].swapaxes(1, 2), ns[:, None], slice_.params)
    chained = table.chained[rows]
    terms, rates, degrees, keep = [], [], [], []
    # as in adjoint_state, chain columns are divided by k! even at k = 0
    for c, k, factorial, linked in chain_links(table.levels[rows]):
        term = _cmul(coefficients[:, c], observed[:, c - k])
        terms.append(np.where(chained[:, c], term / factorial, term))
        rates.append(table.rates[rows, c])
        degrees.append(k)
        keep.append(linked & (coefficients[:, c] != 0.0))
    keep = np.stack(keep, axis=1)
    return ObservationSignal.from_arrays(
        coefficients=np.stack(terms, axis=1)[keep],
        rates=np.stack(rates, axis=1)[keep],
        degrees=np.broadcast_to(np.array(degrees, dtype=np.int64), keep.shape)[keep],
        horizon=T,
    )
