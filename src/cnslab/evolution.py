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

from .errors import DimMismatch, DomainError
from .fields import EigenExpansion, NormSpec, SpectralField, sobolev_norm
from .kernels import KernelTerm
from .model import SystemParams
from .spectrum import MatrixKind, SpectrumSlice, _symbol


class ObservationChannel(Enum):
    DENSITY = "density"
    VELOCITY = "velocity"
    TEMPERATURE = "temperature"


def channel_component(channel: ObservationChannel, params: SystemParams) -> int:
    """The component that ``channel`` observes and controls; channels are listed in component order.

    The one check of the channel against the system: temperature on two fields raises :class:`DimMismatch`."""
    component = list(ObservationChannel).index(channel)
    if component >= params.dim:
        raise DimMismatch("temperature channel requires the three-field system")
    return component


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
    return complex(observation_values(channel, vector, n, params))


def observation_values(channel: ObservationChannel, vectors: np.ndarray, n, params: SystemParams) -> np.ndarray:
    """:func:`observation_value` of every vector of ``vectors`` (components on the last axis).

    ``n`` broadcasts against the leading axes.  Plain array arithmetic:
    an entry agrees with the scalar arithmetic of a per-vector evaluation
    to rounding, not necessarily bit for bit.  The terms of the channel's
    observed flux are summed left to right over the components, the
    diffusive term ``d*i*n*v_c`` right after the channel's own component.
    """
    c = channel_component(channel, params)
    row, d = params.coefficients.observed[c]
    terms = []
    for j, a in enumerate(row):
        if a:
            terms.append(a * vectors[..., j])
        if j == c and d:
            terms.append(d * (1j * n) * vectors[..., j])
    return sum(terms[1:], terms[0])


def boundary_control_weight(channel: ObservationChannel, params: SystemParams) -> float:
    """Weight multiplying the boundary pairing in the duality identity."""
    return params.coefficients.control[channel_component(channel, params)]


@dataclass
class ObservationSignal:
    """Closed-form boundary observation y(t) = sum c * (T-t)**j * exp(nu*(T-t)).

    The summands are held as aligned arrays ``coefficients``, ``rates`` and
    ``degrees``; ``terms`` lists them as :class:`KernelTerm` records.
    """

    coefficients: np.ndarray
    rates: np.ndarray
    degrees: np.ndarray
    horizon: float

    @property
    def terms(self) -> list[KernelTerm]:
        return [
            KernelTerm(c, r, d)
            for c, r, d in zip(self.coefficients.tolist(), self.rates.tolist(), self.degrees.tolist())
        ]

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = self.horizon - t
        out = np.zeros(s.shape, dtype=complex)
        for c, r, d in zip(self.coefficients.tolist(), self.rates.tolist(), self.degrees.tolist()):
            out = out + c * s**d * np.exp(r * s)
        return out


@dataclass
class TrajectorySample:
    time: float
    state: SpectralField


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


def adjoint_states(coefficients: np.ndarray, ns: np.ndarray, slice_: SpectrumSlice, T: float, t: float) -> np.ndarray:
    """Adjoint solutions at time t of ``k`` terminal data, as coefficient tables ``(k, 2N + 1, dim)``.

    The data are eigen-coordinates stacked as ``(k, modes, dim)`` on the
    modes ``ns`` of the slice, in any order.  Every mode of every datum at
    once: the exponential of each basis column's rate, then one step per
    (column, chain level) of :func:`chain_links`.  Each datum's table equals
    that of a stack of it alone, bit for bit.
    """
    if not 0.0 <= t <= T:
        raise DomainError(f"time {t} outside [0, {T}]")
    s = T - t
    table = slice_.basis
    rows = table.rows(ns)
    weights = np.exp(table.rates[rows] * s) * coefficients
    basis = table.basis[rows]
    modes = np.zeros(coefficients.shape, dtype=complex)
    for c, k, factorial, linked in chain_links(table.levels[rows]):
        weight = weights[..., c] * (s**k / factorial) if k else weights[..., c]
        if linked.all():  # the same sums as through the mask, without its copies
            modes += weight[..., None] * basis[:, :, c - k]
        elif linked.any():
            modes[:, linked] += weight[:, linked, None] * basis[linked, :, c - k]
    states = np.zeros((coefficients.shape[0], 2 * slice_.N + 1, slice_.dim), dtype=complex)
    states[:, ns + slice_.N] = modes
    return states


def adjoint_state(
    expansion: EigenExpansion,
    slice_: SpectrumSlice,
    T: float,
    t: float,
) -> TrajectorySample:
    """Adjoint solution at time t with terminal datum given by the expansion (:func:`adjoint_states` of one)."""
    ns, coefficients = expansion.stacked()
    state = adjoint_states(coefficients[None], ns, slice_, T, t)[0]
    return TrajectorySample(time=t, state=SpectralField(dim=slice_.dim, N=slice_.N, coeffs=state))


def forward_state(
    initial_field: SpectralField,
    params: SystemParams,
    t: float,
) -> TrajectorySample:
    """Homogeneous forward solution at time t >= 0.

    Controlled trajectories are deliberately not evolved here; control
    correctness is asserted through the per-mode duality identity instead.
    """
    import scipy.linalg  # only the FDM validation evolves forward; keep scipy off every other command's start

    if t < 0:
        raise DomainError("forward evolution requires t >= 0")
    if initial_field.dim != params.dim:
        raise DimMismatch("field and system component counts differ")
    state = SpectralField.zeros(initial_field.dim, initial_field.N)
    for n in range(-initial_field.N, initial_field.N + 1):
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
    return TrajectorySample(time=t, state=state)


def observation_signals(
    coefficients: np.ndarray,
    ns: np.ndarray,
    slice_: SpectrumSlice,
    channel: ObservationChannel,
    T: float,
) -> list[ObservationSignal]:
    """Boundary observation of the adjoint solution of each of ``k`` terminal data, as closed-form signals.

    The data are eigen-coordinates stacked as ``(k, modes, dim)`` on the
    modes ``ns`` of the slice.  The observed basis vectors and every datum's
    terms are formed at once; only the choice of terms is made per datum.
    Terms run mode by mode in the order of ``ns``, then by (column, chain
    level) of :func:`chain_links`; a zero coefficient contributes none.
    Each datum's signal equals that of a stack of it alone, bit for bit.
    """
    table = slice_.basis
    rows = table.rows(ns)
    observed = observation_values(channel, table.basis[rows].swapaxes(1, 2), ns[:, None], slice_.params)
    terms, rates, degrees, keep = [], [], [], []
    for c, k, factorial, linked in chain_links(table.levels[rows]):
        term = coefficients[..., c] * observed[:, c - k]
        terms.append(term / factorial if k else term)
        rates.append(table.rates[rows, c])
        degrees.append(k)
        keep.append(linked & (coefficients[..., c] != 0.0))
    terms, rates, keep = np.stack(terms, axis=-1), np.stack(rates, axis=-1), np.stack(keep, axis=-1)
    degrees = np.broadcast_to(np.array(degrees, dtype=np.int64), rates.shape)
    return [
        ObservationSignal(coefficients=terms_i[keep_i], rates=rates[keep_i], degrees=degrees[keep_i], horizon=T)
        for terms_i, keep_i in zip(terms, keep)
    ]


def observation_signal(
    expansion: EigenExpansion,
    slice_: SpectrumSlice,
    channel: ObservationChannel,
    T: float,
) -> ObservationSignal:
    """Boundary observation of the adjoint solution as a closed-form signal (:func:`observation_signals` of one).

    Terms run mode by mode in the expansion's order.
    """
    ns, coefficients = expansion.stacked()
    return observation_signals(coefficients[None], ns, slice_, channel, T)[0]
