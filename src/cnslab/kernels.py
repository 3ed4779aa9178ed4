"""Closed-form integrals of polynomial-times-exponential kernels.

Everything the moment method and the observation energy need reduces to

    I_m(z, T) = integral_0^T s**m exp(z*s) ds,

computed by the stable upward recurrence ``I_m = (T**m e^{zT} - m I_{m-1})/z``
away from z = 0 and by the Taylor series near it.  Degrees stay tiny (chain
lengths), so the recurrence is benign.  An arbitrary-precision twin backs the
moment solver, whose Gram matrices are exponentially ill conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

#: below this ``|z| T`` the integrals use the Taylor series in ``zT``
TAYLOR_RADIUS = 0.25


def poly_exp_integral(m, z, T: float):
    """integral_0^T s**m exp(z*s) ds for integer m >= 0.

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


def _taylor(m: np.ndarray, z: np.ndarray, T: float) -> np.ndarray:
    """Taylor series in z*T on the ball |z|*T < TAYLOR_RADIUS; each entry stops at its own convergence."""
    total = np.zeros(z.shape, dtype=complex)
    term_pow = np.ones(z.shape, dtype=complex)
    live = np.arange(z.size)
    for k in range(60):
        if live.size == 0:
            break
        p = m[live] + k + 1
        total[live] += term_pow[live] * T**p / (math.factorial(k) * p.astype(float))
        term_pow[live] *= z[live]
        done = np.abs(term_pow[live]) * T ** (p + 1) / math.factorial(k + 1) < 1e-18 * np.maximum(
            np.abs(total[live]), 1e-300
        )
        live = live[~done]
    return total


def poly_exp_integral_mp(m: int, z, T) -> "mpmath.mpc":
    """Arbitrary-precision twin of :func:`poly_exp_integral`.

    Operates at the caller's working precision; ``z`` and ``T`` are converted
    to the active mpmath context.
    """
    z = mpmath.mpc(z)
    T = mpmath.mpf(T)
    if abs(z) * T < TAYLOR_RADIUS:
        total = mpmath.mpc(0)
        term_pow = mpmath.mpc(1)
        tol = mpmath.mpf(10) ** (-mpmath.mp.dps - 5)
        for k in range(200):
            total += term_pow * T ** (m + k + 1) / (mpmath.factorial(k) * (m + k + 1))
            term_pow *= z
            if abs(term_pow) * T ** (m + k + 2) / mpmath.factorial(k + 1) < tol * max(abs(total), mpmath.mpf("1e-300")):
                break
        return total
    return exp_recurrence_mp(m, z, T, mpmath.exp(z * T))


def exp_recurrence_mp(m: int, z, T, ezt) -> "mpmath.mpc":
    """``I_m(z, T)`` at working precision from a precomputed ``ezt = e^{zT}``.

    The upward recurrence of :func:`poly_exp_integral_mp`, valid away from
    z = 0 (``|z| T >= TAYLOR_RADIUS``).  Callers that pair many rates pass
    ``ezt`` as a product of per-rate exponentials, one ``exp`` per rate.
    """
    val = (ezt - 1) / z
    for k in range(1, m + 1):
        val = (T**k * ezt - k * val) / z
    return val


@dataclass(frozen=True)
class KernelTerm:
    """One summand ``coef * (T-t)**degree * exp(rate*(T-t))`` of a kernel."""

    coef: complex
    rate: complex
    degree: int


def pair_integrals(rates: np.ndarray, degrees: np.ndarray, T: float) -> np.ndarray:
    """``K[a, b] = I_{j_a + j_b}(nu_a + conj(nu_b), T)`` for every pair of terms, in one broadcast call."""
    return poly_exp_integral(degrees[:, None] + degrees[None, :], rates[:, None] + rates.conj()[None, :], T)


def signal_energy(terms, T: float) -> tuple[float, float]:
    """Closed-form ``integral_0^T |y(t)|**2 dt`` and a bound on its rounding error.

    ``terms`` iterates objects carrying ``coefficient``, ``rate`` and
    ``poly_degree`` fields, ``y(t) = sum c * (T-t)**j * exp(nu*(T-t))``.  The
    energy is the Hermitian form ``sum_ab c_a conj(c_b) K[a, b]`` with
    ``K[a, b] = I_{j_a + j_b}(nu_a + conj(nu_b), T)``, assembled in one
    broadcast call.  The bound ``eps * n_terms * |c|^T |K| |c|`` covers the
    rounding of that sum, so relative to the value it grows with the
    cancellation ``|c|^T |K| |c| / value`` of the signal.
    """
    term_list = list(terms)
    c = np.array([t.coefficient for t in term_list], dtype=complex)
    rates = np.array([t.rate for t in term_list], dtype=complex)
    degrees = np.array([t.poly_degree for t in term_list], dtype=np.int64)
    K = pair_integrals(rates, degrees, T)
    value = float((c @ K @ c.conj()).real)
    abs_c = np.abs(c)
    bound = float(np.finfo(float).eps * c.size * (abs_c @ np.abs(K) @ abs_c))
    return value, bound


def signal_energy_exact(terms, T: float) -> float:
    """Value of :func:`signal_energy` without its rounding bound."""
    return signal_energy(terms, T)[0]
