"""Independent reference paths for the stacked eigenbasis consumers.

The per-mode and per-term code that production no longer runs:

* the scalar boundary observation of one vector;
* the eigen-expansion as one condition number and one dense solve per mode;
* the adjoint state and the observation signal read cluster by cluster
  from the per-mode ``ModeSpectrum`` objects, one ``SignalTerm`` per term;
* the term-by-term evaluation of a signal;
* the moment rows of ``control`` built from the clusters;
* the small-time witness's loops over modes: the annihilating filter, the
  Fourier gather of the bump and the hyperbolic lift.

Each takes the same arguments as production, so a test can compare the two
value by value.
"""

from __future__ import annotations

import math

import numpy as np

from cnslab import fields
from cnslab.control import MomentRow, _mode_inner_products
from cnslab.errors import DimMismatch, DomainError, IllConditioned
from cnslab.evolution import (
    ObservationChannel,
    ObservationSignal,
    SignalTerm,
    boundary_control_weight,
    channel_dim_ok,
)
from cnslab.fields import EigenExpansion, NormSpec, SpectralField
from cnslab.kernels import KernelTerm
from cnslab.model import BarotropicParams, SystemParams
from cnslab.spectrum import BranchLabel, SpectrumSlice


def observation_value(channel: ObservationChannel, vector: np.ndarray, n: int, params: SystemParams) -> complex:
    """Boundary observation functional applied to ``vector * exp(i*n*x)``, in scalar arithmetic."""
    vector = np.asarray(vector, dtype=complex)
    if vector.size != params.dim:
        raise DimMismatch(f"vector has {vector.size} components, system has {params.dim}")
    if not channel_dim_ok(channel, params.dim):
        raise DimMismatch("temperature channel requires the three-field system")
    inx = 1j * n
    p = params
    if isinstance(params, BarotropicParams):
        if channel is ObservationChannel.DENSITY:
            return complex(p.u_bar * vector[0] + p.rho_bar * vector[1])
        return complex(p.b * vector[0] + p.u_bar * vector[1] + p.mu0 * inx * vector[1])
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


def expand_in_eigenbasis(field_: SpectralField, slice_: SpectrumSlice) -> EigenExpansion:
    """Solve the per-mode basis systems expressing the field in eigen-coordinates."""
    if field_.dim != slice_.dim:
        raise DimMismatch("field and slice component counts differ")
    if np.any(field_.coeffs[field_.N] != 0.0):
        raise DomainError("expansion requires a mean-zero field")
    if field_.N > slice_.N:
        raise DomainError(f"slice covers |n| <= {slice_.N} but field has cutoff {field_.N}")
    if any(len(m.basis_vectors()) < slice_.dim for m in slice_.modes.values()):
        raise DomainError("slice has an unresolved coincidence without a chain block")
    coefficients: dict[int, np.ndarray] = {}
    conds: dict[int, float] = {}
    for n in sorted(slice_.modes):
        if abs(n) > field_.N:
            c_n = np.zeros(field_.dim, dtype=complex)
        else:
            c_n = field_.coeff(n)
        basis = np.column_stack(slice_.mode(n).basis_vectors())
        cond = float(np.linalg.cond(basis))
        if cond > fields.EXPANSION_COND_LIMIT:
            raise IllConditioned(n, cond)
        coefficients[n] = np.linalg.solve(basis, c_n)
        conds[n] = cond
    return EigenExpansion(dim=field_.dim, coefficients=coefficients, condition_numbers=conds)


def _cluster_blocks(slice_: SpectrumSlice, n: int):
    """Yield (value, vectors, is_chain) blocks aligned with the expansion layout."""
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


def adjoint_state(expansion: EigenExpansion, slice_: SpectrumSlice, T: float, t: float) -> SpectralField:
    """Adjoint state at time t with terminal datum given by the expansion, mode by mode."""
    if not 0.0 <= t <= T:
        raise DomainError(f"time {t} outside [0, {T}]")
    state = SpectralField.zeros(slice_.dim, slice_.N)
    for n, a_n in expansion.coefficients.items():
        state.coeffs[n + slice_.N] = _evolve_mode(slice_, n, a_n, T - t)
    return state


def observation_terms(
    expansion: EigenExpansion, slice_: SpectrumSlice, channel: ObservationChannel
) -> list[SignalTerm]:
    """Boundary observation of the adjoint solution, one ``SignalTerm`` per term."""
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
    return terms


def signal_values(terms: list[SignalTerm], horizon: float, t) -> np.ndarray:
    """y(t) = sum c * (T-t)**j * exp(nu*(T-t)), one term at a time."""
    t = np.asarray(t, dtype=float)
    s = horizon - t
    out = np.zeros(s.shape, dtype=complex)
    for term in terms:
        out = out + term.coefficient * s**term.poly_degree * np.exp(term.rate * s)
    return out


def value_at_terminal(terms: list[SignalTerm]) -> complex:
    return complex(sum(t.coefficient for t in terms if t.poly_degree == 0))


def chain_rows(U0: SpectralField, channel: ObservationChannel, T: float, slice_: SpectrumSlice, N: int):
    """``(j, MomentRow)`` of every basis element of the modes ``1 <= |n| <= N``, cluster by cluster."""
    params = slice_.params
    w_ch = boundary_control_weight(channel, params)
    norm_spec = NormSpec.weighted_l2(params)
    for n in sorted(k for k in slice_.modes if abs(k) <= N):
        for ci, cluster in enumerate(slice_.mode(n).clusters):
            vectors = cluster.vectors
            is_chain = cluster.chain is not None
            inner = _mode_inner_products(U0, vectors, n, norm_spec)
            obs = [observation_value(channel, v, n, params) for v in vectors]
            nu_bar = np.conj(cluster.value)
            phase = np.exp(nu_bar * T)
            for j in range(len(vectors)):
                levels = range(j + 1) if is_chain else (0,)
                kernel = [
                    KernelTerm(coef=w_ch * np.conj(obs[j - k]) / math.factorial(k), rate=nu_bar, degree=k)
                    for k in levels
                ]
                free = phase * sum((T**k / math.factorial(k)) * inner[j - k] for k in levels)
                yield j, MomentRow(
                    n=n,
                    cluster_index=ci,
                    level=j if is_chain else 0,
                    rate=nu_bar,
                    kernel=kernel,
                    target=complex(-free),
                    observation=obs[j],
                )


def pn_value(N: int, x: float) -> float:
    """The annihilating polynomial ``prod_{0<|l|<=N} (x - l)`` at a point."""
    out = 1.0
    for l in range(1, N + 1):
        out *= (x - l) * (x + l)
    return out


def pn_filter(field_: SpectralField, N: int) -> SpectralField:
    """Coefficient-wise multiply by ``P_N(n)``, one mode at a time."""
    out = field_.coeffs.copy()
    for n in range(-field_.N, field_.N + 1):
        out[n + field_.N] = out[n + field_.N] * pn_value(N, float(n))
    out[field_.N] = 0.0
    return SpectralField(dim=field_.dim, N=field_.N, coeffs=out)


def bump_coefficients(spec, cutoff: int, samples: int = 8192, carrier: int = 0) -> tuple[np.ndarray, float]:
    """Fourier coefficients (mean removed) of the (modulated) bump, gathered mode by mode."""
    left, right = spec.realized_window()
    x = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    xi = (2.0 * x - (left + right)) / (right - left)
    inside = np.abs(xi) < 1.0
    profile = np.zeros_like(x)
    profile[inside] = np.exp(-1.0 / (1.0 - xi[inside] ** 2))
    modulated = profile * np.exp(1j * carrier * x)
    spectrum = np.fft.fft(modulated) / samples
    coeffs = np.zeros(2 * cutoff + 1, dtype=complex)
    for n in range(-cutoff, cutoff + 1):
        if n == 0:
            continue
        coeffs[n + cutoff] = spectrum[n % samples]
    mask = np.ones(samples, dtype=bool)
    mask[0] = False
    total = float(np.sum(np.abs(spectrum[mask]) ** 2))
    kept = float(np.sum(np.abs(coeffs) ** 2))
    tail = (total - kept) / total if total > 0 else 0.0
    return coeffs, tail


def hyperbolic_pair(slice_: SpectrumSlice, n: int):
    return next(p for p in slice_.mode(n).pairs if p.branch is BranchLabel.HYPERBOLIC)


def hyperbolic_lift(params: BarotropicParams, filtered: np.ndarray, cutoff: int, slice_: SpectrumSlice) -> SpectralField:
    """Terminal datum with the filtered profile on the hyperbolic branch, mode by mode."""
    out = SpectralField.zeros(2, cutoff)
    for n in range(-cutoff, cutoff + 1):
        if n == 0 or filtered[n + cutoff] == 0.0:
            continue
        out.coeffs[n + cutoff] += (filtered[n + cutoff] / params.rho_bar) * hyperbolic_pair(slice_, n).vector
    return out


def hyperbolic_values(slice_: SpectrumSlice, cutoff: int) -> np.ndarray:
    """Hyperbolic eigenvalue of every mode ``|n| <= cutoff``, 0 at ``n = 0``."""
    return np.array([hyperbolic_pair(slice_, n).value if n != 0 else 0.0 for n in range(-cutoff, cutoff + 1)])


def signal(expansion: EigenExpansion, slice_: SpectrumSlice, channel: ObservationChannel, T: float) -> ObservationSignal:
    return ObservationSignal(terms=observation_terms(expansion, slice_, channel), horizon=T)
