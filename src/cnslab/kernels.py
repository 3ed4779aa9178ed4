"""Closed-form integrals of polynomial-times-exponential kernels.

Everything the moment method and the observation energy need reduces to

    I_m(z, T) = integral_0^T s**m exp(z*s) ds,

computed by the stable upward recurrence ``I_m = (T**m e^{zT} - m I_{m-1})/z``
away from z = 0 and by the Taylor series near it.  Degrees stay tiny (chain
lengths), so the recurrence is benign.  The moment solver, whose Gram
matrices are exponentially ill conditioned, uses the extended-precision
twin on complex pairs of ``decimal.Decimal``; the mpmath twin is its
reference.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal

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


def poly_exp_integral_dec(m: int, z: tuple, ezt: tuple, T: Decimal, near: bool) -> tuple:
    """``I_m(z, T)`` on complex pairs ``(re, im)`` of Decimals, in the active decimal context.

    ``ezt = e^{zT}`` comes precomputed, so callers pairing many rates form it
    as a product of per-rate exponentials.  ``near`` selects the Taylor
    series in ``zT`` (``|z| T < TAYLOR_RADIUS``, decided in double precision
    by the caller), which works from ``z`` alone.
    """
    zr, zi = z
    if near:
        return _taylor_dec(m, zr, zi, T)
    # 1/z, then the upward recurrence as products
    den = zr * zr + zi * zi
    ir, ii = zr / den, -zi / den
    ar, ai = ezt[0] - 1, ezt[1]
    vr, vi = ar * ir - ai * ii, ar * ii + ai * ir
    er, ei = ezt
    Tk = Decimal(1)
    for k in range(1, m + 1):
        Tk *= T
        ar, ai = Tk * er - k * vr, Tk * ei - k * vi
        vr, vi = ar * ir - ai * ii, ar * ii + ai * ir
    return vr, vi


def _taylor_dec(m: int, zr: Decimal, zi: Decimal, T: Decimal) -> tuple:
    """Taylor series of ``I_m(z, T)`` in ``zT``, to ``10**-(digits + 5)`` of the sum."""
    tol_sq = Decimal(10) ** (-2 * (decimal.getcontext().prec + 5))
    total_r = total_i = Decimal(0)
    pr, pi = Decimal(1), Decimal(0)  # z**k / k!
    for k in range(200):
        p = m + k + 1
        c = T**p / p
        total_r += pr * c
        total_i += pi * c
        pr, pi = (pr * zr - pi * zi) / (k + 1), (pr * zi + pi * zr) / (k + 1)
        if (pr * pr + pi * pi) * T ** (2 * p + 2) < tol_sq * (total_r * total_r + total_i * total_i):
            break
    return total_r, total_i


@dataclass(frozen=True)
class KernelTerm:
    """One summand ``coef * (T-t)**degree * exp(rate*(T-t))`` of a moment kernel or an observation signal."""

    coef: complex
    rate: complex
    degree: int


def pair_integrals(rates: np.ndarray, degrees: np.ndarray, T: float) -> np.ndarray:
    """``K[a, b] = I_{j_a + j_b}(nu_a + conj(nu_b), T)`` for every pair of terms, in one broadcast call."""
    return poly_exp_integral(degrees[:, None] + degrees[None, :], rates[:, None] + rates.conj()[None, :], T)


#: the last table :func:`signal_energy` built, as ``(key, K)``; one slot, so at most one table is held
_pair_table: tuple | None = None


def signal_energy(coefficients: np.ndarray, rates: np.ndarray, degrees: np.ndarray, T: float) -> tuple[float, float]:
    """Closed-form ``integral_0^T |y(t)|**2 dt`` and a bound on its rounding error.

    ``y(t) = sum c * (T-t)**j * exp(nu*(T-t))`` with the terms' coefficients,
    rates and polynomial degrees given as aligned arrays.  The energy is the
    Hermitian form ``sum_ab c_a conj(c_b) K[a, b]`` with
    ``K[a, b] = I_{j_a + j_b}(nu_a + conj(nu_b), T)``, assembled in one
    broadcast call.  The bound ``eps * n_terms * |c|^T |K| |c|`` covers the
    rounding of that sum, so relative to the value it grows with the
    cancellation ``|c|^T |K| |c| / value`` of the signal.

    ``K`` depends on the terms' rates, degrees and ``T`` only, not on the
    coefficients: a call whose rates, degrees and ``T`` are byte-equal to
    the last table's reuses it.  The old table is dropped before a new one
    is built, so two never coexist, and the held table is read-only.
    """
    global _pair_table
    c = np.asarray(coefficients, dtype=complex)
    rates = np.asarray(rates, dtype=complex)
    degrees = np.asarray(degrees, dtype=np.int64)
    key = (rates.tobytes(), degrees.tobytes(), float(T))
    held = _pair_table
    if held is None or held[0] != key:
        held = _pair_table = None  # no reference keeps the old table alive while the new one is built
        K = pair_integrals(rates, degrees, T)
        K.flags.writeable = False
        held = _pair_table = (key, K)
    K = held[1]
    value = float((c @ K @ c.conj()).real)
    abs_c = np.abs(c)
    bound = float(np.finfo(float).eps * c.size * (abs_c @ np.abs(K) @ abs_c))
    return value, bound


def signal_energy_exact(terms, T: float) -> float:
    """Value of :func:`signal_energy` for an iterable of :class:`KernelTerm`."""
    term_list = list(terms)
    return signal_energy(
        [t.coef for t in term_list],
        [t.rate for t in term_list],
        [t.degree for t in term_list],
        T,
    )[0]
