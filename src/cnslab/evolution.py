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
from .spectrum import MatrixKind, SpectrumSlice, _symbol


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
    inx = 1j * n
    if isinstance(params, BarotropicParams):
        p = params
        if channel is ObservationChannel.DENSITY:
            return complex(p.u_bar * vector[0] + p.rho_bar * vector[1])
        return complex(p.b * vector[0] + p.u_bar * vector[1] + p.mu0 * inx * vector[1])
    p = params
    if channel is ObservationChannel.DENSITY:
        return complex(p.u_bar * vector[0] + p.rho_bar * vector[1])
    if channel is ObservationChannel.VELOCITY:
        return complex(
            p.R * p.theta_bar * vector[0]
            + p.rho_bar * p.u_bar * vector[1]
            + p.lambda0 * p.rho_bar * inx * vector[1]
            + p.R * p.rho_bar * vector[2]
        )
    return complex(
        p.R * vector[1]
        + (p.c0 * p.u_bar / p.theta_bar) * vector[2]
        + (p.c0 * p.kappa0 / p.theta_bar) * inx * vector[2]
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


@dataclass
class ObservationSignal:
    """Closed-form boundary observation y(t) = sum c * (T-t)**j * exp(nu*(T-t))."""

    terms: list[SignalTerm]
    horizon: float

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = self.horizon - t
        out = np.zeros(s.shape, dtype=complex)
        for term in self.terms:
            out = out + term.coefficient * s**term.poly_degree * np.exp(term.rate * s)
        return out

    def value_at_terminal(self) -> complex:
        return complex(sum(t.coefficient for t in self.terms if t.poly_degree == 0))


@dataclass
class TrajectorySample:
    time: float
    state: SpectralField
    norms: dict[str, float]


def _cluster_blocks(slice_: SpectrumSlice, n: int):
    """Yield (value, vectors) blocks aligned with the expansion layout."""
    for cluster in slice_.mode(n).clusters:
        yield cluster.value, cluster.vectors, cluster.chain is not None


def _evolve_mode(slice_: SpectrumSlice, n: int, a_n: np.ndarray, s: float) -> np.ndarray:
    """Coefficient vector of mode n after time s under the adjoint flow.

    Within a chain block the exponential acts lower-triangularly:
    ``exp(M s) w_j = e^{nu s} sum_k (s**k / k!) w_{j-k}``.
    """
    out = np.zeros(slice_.dim, dtype=complex)
    offset = 0
    for value, vectors, is_chain in _cluster_blocks(slice_, n):
        m = len(vectors)
        block = a_n[offset : offset + m]
        phase = np.exp(value * s)
        if not is_chain:
            for j in range(m):
                out += phase * block[j] * vectors[j]
        else:
            for j in range(m):
                for k in range(j + 1):
                    out += phase * block[j] * (s**k / math.factorial(k)) * vectors[j - k]
        offset += m
    return out


def adjoint_state(
    expansion: EigenExpansion,
    slice_: SpectrumSlice,
    T: float,
    t: float,
    norm_specs: dict[str, NormSpec] | None = None,
) -> TrajectorySample:
    """Adjoint solution at time t with terminal datum given by the expansion."""
    if not 0.0 <= t <= T:
        raise DomainError(f"time {t} outside [0, {T}]")
    s = T - t
    state = SpectralField.zeros(slice_.dim, slice_.N)
    for n, a_n in expansion.coefficients.items():
        state.coeffs[n + slice_.N] = _evolve_mode(slice_, n, a_n, s)
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
    """Boundary observation of the adjoint solution as a closed-form signal."""
    if not channel_dim_ok(channel, slice_.dim):
        raise DimMismatch("temperature channel requires the three-field system")
    terms: list[SignalTerm] = []
    for n, a_n in expansion.coefficients.items():
        offset = 0
        for value, vectors, is_chain in _cluster_blocks(slice_, n):
            m = len(vectors)
            block = a_n[offset : offset + m]
            obs = [observation_value(channel, v, n, slice_.params) for v in vectors]
            if not is_chain:
                for j in range(m):
                    if block[j] != 0.0:
                        terms.append(SignalTerm(coefficient=block[j] * obs[j], rate=value, poly_degree=0))
            else:
                for j in range(m):
                    if block[j] == 0.0:
                        continue
                    for k in range(j + 1):
                        terms.append(
                            SignalTerm(
                                coefficient=block[j] * obs[j - k] / math.factorial(k),
                                rate=value,
                                poly_degree=k,
                            )
                        )
            offset += m
    return ObservationSignal(terms=terms, horizon=T)

