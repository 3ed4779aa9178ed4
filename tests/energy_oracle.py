"""Independent reference paths for the closed-form observation energy.

Two slow implementations that production code no longer uses:

* composite Gauss-Legendre quadrature of ``integral_0^T |y(t)|**2 dt`` with
  panels capped by the fastest oscillation and graded geometrically toward
  the terminal time where parabolic terms spike; a Richardson comparison
  against the doubled resolution estimates its error;
* the scalar loop for ``integral_0^T s**m exp(z*s) ds`` that the broadcast
  :func:`cnslab.kernels.poly_exp_integral` replaced.
"""

from __future__ import annotations

import math

import numpy as np

from cnslab.errors import DomainError, QuadratureNotConverged

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _panel_edges(T: float, max_imag: float, max_real: float, panels_per_period: int) -> np.ndarray:
    """Panel edges in s = T - t, graded near s = 0 and capped by oscillation."""
    h_osc = T
    if max_imag > 0.0:
        h_osc = min(h_osc, 2.0 * np.pi / (panels_per_period * max_imag))
    h0 = min(h_osc, T)
    if max_real > 0.0:
        h0 = min(h0, 1.0 / max_real)
    edges = [0.0]
    h = h0
    while edges[-1] < T:
        edges.append(min(edges[-1] + h, T))
        h = min(2.0 * h, h_osc)
    return np.array(edges)


def _integrate_panels(signal, edges: np.ndarray) -> float:
    T = signal.horizon
    lefts = edges[:-1]
    rights = edges[1:]
    mids = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    # nodes in s, then evaluate |y|^2 at t = T - s
    s_nodes = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
    y = signal(T - s_nodes.ravel()).reshape(s_nodes.shape)
    panel_vals = (np.abs(y) ** 2 * _GL_WEIGHTS[None, :]).sum(axis=1) * halves
    return float(panel_vals.sum())


def _halve(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate([edges, mids]))


def quadrature_energy(signal, panels_per_period: int = 8) -> tuple[float, float]:
    """Quadrature value and Richardson error estimate of ``int_0^T |y|**2 dt``."""
    if panels_per_period < 4:
        raise DomainError("panels_per_period must be >= 4")
    if not signal.terms:
        return 0.0, 0.0
    max_imag = max(abs(t.rate.imag) for t in signal.terms)
    max_real = max(abs(t.rate.real) for t in signal.terms)
    edges = _panel_edges(signal.horizon, max_imag, max_real, panels_per_period)
    coarse = _integrate_panels(signal, edges)
    edges = _halve(edges)
    value = _integrate_panels(signal, edges)
    err = abs(value - coarse)
    if err > 1e-3 * max(abs(value), 1e-300):
        edges = _halve(edges)
        finer = _integrate_panels(signal, edges)
        err = abs(finer - value)
        value = finer
        if err > 1e-3 * max(abs(value), 1e-300):
            raise QuadratureNotConverged(
                f"energy integral did not certify: value {value:.6e}, estimate {err:.3e}"
            )
    return value, err


def poly_exp_integral_scalar(m: int, z: complex, T: float) -> complex:
    """integral_0^T s**m exp(z*s) ds for one integer m >= 0, one term at a time."""
    if m < 0:
        raise ValueError("polynomial degree must be nonnegative")
    if abs(z) * T < 0.25:
        total = 0.0 + 0.0j
        term_pow = 1.0 + 0.0j
        for k in range(60):
            total += term_pow * T ** (m + k + 1) / (math.factorial(k) * (m + k + 1))
            term_pow *= z
            if abs(term_pow) * T ** (m + k + 2) / math.factorial(k + 1) < 1e-18 * max(abs(total), 1e-300):
                break
        return complex(total)
    ezt = np.exp(z * T)
    val = (ezt - 1.0) / z
    for k in range(1, m + 1):
        val = (T**k * ezt - k * val) / z
    return complex(val)
