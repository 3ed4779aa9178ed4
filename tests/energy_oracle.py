"""Independent reference paths for the closed-form observation energy.

Slow implementations that production code no longer uses:

* composite Gauss-Legendre quadrature of ``integral_0^T |y(t)|**2 dt`` with
  panels capped by the fastest oscillation and graded geometrically toward
  the terminal time where parabolic terms spike; a Richardson comparison
  against the doubled resolution estimates its error;
* the per-pair broadcast :func:`poly_exp_integral`, one exponential per
  pair of terms, which :func:`cnslab.kernels.pair_integrals` replaced with
  one exponential per term;
* the scalar loop for ``integral_0^T s**m exp(z*s) ds`` that the broadcast
  path replaced in turn;
* the Hermitian form at extended precision, :func:`energy_mp`, for the
  long cancelling signals where the double-precision form loses digits.
"""

from __future__ import annotations

import math

import numpy as np

from cnslab.errors import DomainError, QuadratureNotConverged
from cnslab.kernels import TAYLOR_RADIUS, _taylor, exp_recurrence_mp, poly_exp_integral_mp

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


def poly_exp_integral(m, z, T: float):
    """integral_0^T s**m exp(z*s) ds for integer m >= 0, one exponential per entry.

    ``m`` and ``z`` broadcast against each other: scalar arguments give a
    Python complex, array arguments a complex array of the broadcast shape.
    """
    scalar = np.ndim(m) == 0 and np.ndim(z) == 0
    m, z = np.broadcast_arrays(
        np.atleast_1d(np.asarray(m, dtype=np.int64)), np.atleast_1d(np.asarray(z, dtype=complex))
    )
    if np.any(m < 0):
        raise ValueError("polynomial degree must be nonnegative")
    near = np.abs(z) * T < TAYLOR_RADIUS
    if near.any():
        out = np.empty(z.shape, dtype=complex)
        out[~near] = _recurrence(m[~near], z[~near], T)
        out[near] = _taylor(m[near], z[near], T)
    else:
        out = _recurrence(m, z, T)
    return complex(out[0]) if scalar else out


def _recurrence(m: np.ndarray, z: np.ndarray, T: float) -> np.ndarray:
    """Upward recurrence away from z = 0, run only up to the largest degree present."""
    ezt = np.multiply(z, T)
    np.exp(ezt, out=ezt)
    val = ezt - 1.0
    val /= z
    for k in range(1, int(m.max(initial=0)) + 1):
        up = m >= k
        val[up] = (T**k * ezt[up] - k * val[up]) / z[up]
    return val


def energy_mp(signal, dps: int = 40) -> float:
    """``sum_ab c_a conj(c_b) I_ab`` of the signal's terms at ``dps`` digits, rounded to a float.

    One ``exp(rate*T)`` per term: a pair's exponential is the product
    ``e^{a T} conj(e^{b T})``, away from the Taylor ball around ``z = 0``.
    The order of the terms does not matter at this precision.
    """
    import mpmath

    terms = signal.terms
    with mpmath.workdps(dps):
        c = [mpmath.mpc(t.coef) for t in terms]
        nu = [mpmath.mpc(t.rate) for t in terms]
        T = mpmath.mpf(signal.horizon)
        ezt = [mpmath.exp(r * T) for r in nu]
        c_conj, nu_conj, ezt_conj = ([mpmath.conj(x) for x in xs] for xs in (c, nu, ezt))
        exact = mpmath.mpf(0)
        for a in range(len(terms)):
            row = []
            for b in range(a, len(terms)):
                m = terms[a].degree + terms[b].degree
                z = nu[a] + nu_conj[b]
                if abs(terms[a].rate + terms[b].rate.conjugate()) * signal.horizon < TAYLOR_RADIUS:
                    integral = poly_exp_integral_mp(m, z, T)
                else:
                    integral = exp_recurrence_mp(m, z, T, ezt[a] * ezt_conj[b])
                row.append((c_conj[b], integral))
            # sum over b >= a of c_a conj(c_b) I_ab, off-diagonal pairs twice
            exact += (c[a] * (2 * mpmath.fdot(row) - row[0][0] * row[0][1])).real
        return float(exact)
