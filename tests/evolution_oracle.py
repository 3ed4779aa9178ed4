"""Independent reference paths for the stacked eigenbasis consumers.

The per-mode and per-term code that production no longer runs:

* the per-system boundary observation, written out system by system where
  production reads one coefficient table: in scalar arithmetic for one
  vector and in array arithmetic for stacked vectors, with the channel
  check and the boundary control weight;
* the eigen-expansion as one condition number and one dense solve per mode;
* the adjoint state and the observation signal read cluster by cluster
  from the per-mode ``ModeSpectrum`` objects, one ``KernelTerm`` per term;
* the term-by-term evaluation of a signal;
* the moment rows of ``control`` built from the clusters;
* the small-time witness's loops over modes: the Fourier gather of the bump
  and the hyperbolic lift;
* one observability quotient in unstacked array arithmetic, the per-field
  path that the stacked passes of ``observability_quotients`` replaced, as
  their bit-for-bit reference.

Each takes the same arguments as production, so a test can compare the two
value by value.
"""

from __future__ import annotations

import math

import numpy as np

from cnslab import evolution, fields
from cnslab.control import MomentRow, _mode_inner_products
from cnslab.errors import DimMismatch, DomainError, IllConditioned
from cnslab.evolution import ObservationChannel, ObservationSignal
from cnslab.fields import EigenExpansion, NormSpec, SpectralField
from cnslab.kernels import KernelTerm, signal_energy
from cnslab.model import BarotropicParams, SystemParams
from cnslab.spectrum import BranchLabel, SpectrumSlice


def channel_dim_ok(channel: ObservationChannel, dim: int) -> bool:
    return not (channel is ObservationChannel.TEMPERATURE and dim == 2)


def boundary_control_weight(channel: ObservationChannel, params: SystemParams) -> float:
    """Weight multiplying the boundary pairing in the duality identity."""
    if not channel_dim_ok(channel, params.dim):
        raise DimMismatch("temperature channel requires the three-field system")
    if isinstance(params, BarotropicParams):
        return params.b if channel is ObservationChannel.DENSITY else params.rho_bar
    if channel is ObservationChannel.DENSITY:
        return params.R * params.theta_bar
    if channel is ObservationChannel.VELOCITY:
        return params.rho_bar
    return params.rho_bar**2


def observation_values(channel: ObservationChannel, vectors: np.ndarray, n, params: SystemParams) -> np.ndarray:
    """:func:`observation_value` of every vector of ``vectors`` (components on the last axis), in array arithmetic."""
    if not channel_dim_ok(channel, params.dim):
        raise DimMismatch("temperature channel requires the three-field system")
    v = [vectors[..., i] for i in range(params.dim)]
    inx = 1j * n
    p = params
    if isinstance(params, BarotropicParams):
        if channel is ObservationChannel.DENSITY:
            return p.u_bar * v[0] + p.rho_bar * v[1]
        return p.b * v[0] + p.u_bar * v[1] + p.mu0 * inx * v[1]
    if channel is ObservationChannel.DENSITY:
        return p.u_bar * v[0] + p.rho_bar * v[1]
    if channel is ObservationChannel.VELOCITY:
        return (
            p.R * p.theta_bar * v[0]
            + p.rho_bar * p.u_bar * v[1]
            + p.lambda0 * p.rho_bar * inx * v[1]
            + p.R * p.rho_bar * v[2]
        )
    return p.R * v[1] + (p.c0 * p.u_bar / p.theta_bar) * v[2] + (p.c0 * p.kappa0 / p.theta_bar) * inx * v[2]


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
    if field_.N > slice_.N:
        raise DomainError(f"slice covers |n| <= {slice_.N} but field has cutoff {field_.N}")
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
) -> list[KernelTerm]:
    """Boundary observation of the adjoint solution, one ``KernelTerm`` per term."""
    if not channel_dim_ok(channel, slice_.dim):
        raise DimMismatch("temperature channel requires the three-field system")
    terms: list[KernelTerm] = []
    for n, a_n in expansion.coefficients.items():
        offset = 0
        for value, vectors, is_chain in _cluster_blocks(slice_, n):
            m = len(vectors)
            block = a_n[offset : offset + m]
            obs = [observation_value(channel, v, n, slice_.params) for v in vectors]
            if not is_chain:
                for j in range(m):
                    if block[j] != 0.0:
                        terms.append(KernelTerm(coef=block[j] * obs[j], rate=value, degree=0))
            else:
                for j in range(m):
                    if block[j] == 0.0:
                        continue
                    for k in range(j + 1):
                        terms.append(
                            KernelTerm(coef=block[j] * obs[j - k] / math.factorial(k), rate=value, degree=k)
                        )
            offset += m
    return terms


def signal_from_terms(terms: list[KernelTerm], horizon: float) -> ObservationSignal:
    """The signal whose aligned term arrays hold ``terms`` in order."""
    return ObservationSignal(
        coefficients=np.array([t.coef for t in terms], dtype=complex),
        rates=np.array([t.rate for t in terms], dtype=complex),
        degrees=np.array([t.degree for t in terms], dtype=np.int64),
        horizon=horizon,
    )


def signal_values(terms: list[KernelTerm], horizon: float, t) -> np.ndarray:
    """y(t) = sum c * (T-t)**j * exp(nu*(T-t)), one term at a time."""
    t = np.asarray(t, dtype=float)
    s = horizon - t
    out = np.zeros(s.shape, dtype=complex)
    for term in terms:
        out = out + term.coef * s**term.degree * np.exp(term.rate * s)
    return out


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


def transport_gaps(params: BarotropicParams, slice_: SpectrumSlice, profiles: dict, T: float, cutoff: int,
                   times: int = 257) -> dict:
    """``|sum amp (e^{hyp s} - e^{rate s})|`` at ``times`` points, one exponential per (time, mode).

    ``rate = i*u_bar*n - omega0`` is the pure transport rate; the two sums are
    taken separately and subtracted, as the witness did before its
    product-form tables.
    """
    ns = np.arange(-cutoff, cutoff + 1)
    s = T - np.linspace(0.0, T, times)[:, None]
    full_exp = np.exp(hyperbolic_values(slice_, cutoff)[None, :] * s)
    transport_exp = np.exp((1j * params.u_bar * ns - params.omega0)[None, :] * s)
    return {
        N: np.abs((amp[None, :] * full_exp).sum(axis=1) - (amp[None, :] * transport_exp).sum(axis=1))
        for N, amp in profiles.items()
    }


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
    return signal_from_terms(observation_terms(expansion, slice_, channel), T)


def quotient_alone(
    field_: SpectralField, channel: ObservationChannel, T: float, norm_spec: NormSpec, slice_: SpectrumSlice
) -> tuple[float, float, float, float]:
    """``(energy, energy bound, initial norm, quotient)`` of one terminal datum, on arrays of that datum alone.

    The expansion, the signal terms, the adjoint state at t = 0 and the norm
    as production formed them one field at a time: the same expressions on
    ``(modes, dim)`` arrays and the norm summed in Python floats.  Numpy
    rounds some operations by the shape of their operands, so a stacked
    pass that equals this bit for bit rounds each field as it would alone.
    No check is made: the caller passes a field and slice that fit.
    """
    table = slice_.basis
    targets = np.zeros((table.ns.size, field_.dim), dtype=complex)
    inside = np.abs(table.ns) <= field_.N
    targets[inside] = field_.coeffs[table.ns[inside] + field_.N]
    coefficients = np.linalg.solve(table.basis, targets[..., None])[..., 0]
    observed = evolution.observation_values(channel, table.basis.swapaxes(1, 2), table.ns[:, None], slice_.params)
    weights = np.exp(table.rates * T) * coefficients
    modes = np.zeros(coefficients.shape, dtype=complex)
    terms, rates, degrees, keep = [], [], [], []
    for c, k, factorial, linked in evolution.chain_links(table.levels):
        term = coefficients[:, c] * observed[:, c - k]
        terms.append(term / factorial if k else term)
        rates.append(table.rates[:, c])
        degrees.append(k)
        keep.append(linked & (coefficients[:, c] != 0.0))
        weight = weights[:, c] * (T**k / factorial) if k else weights[:, c]
        modes[linked] += weight[linked, None] * table.basis[linked, :, c - k]
    keep = np.stack(keep, axis=1)
    degrees = np.broadcast_to(np.array(degrees, dtype=np.int64), keep.shape)
    energy, bound = signal_energy(np.stack(terms, axis=1)[keep], np.stack(rates, axis=1)[keep], degrees[keep], T)
    state = np.zeros((2 * slice_.N + 1, slice_.dim), dtype=complex)
    state[table.ns + slice_.N] = modes
    ns = np.arange(-slice_.N, slice_.N + 1)
    total = 0.0
    for j, (w, s) in enumerate(zip(norm_spec.weights, norm_spec.orders)):
        factors = (1.0 + ns.astype(float) ** 2) ** s
        total += w * fields.TWO_PI * float(np.sum(factors * np.abs(state[:, j]) ** 2))
    norm0 = float(np.sqrt(total))
    return energy, bound, norm0, energy / norm0**2
