"""Closed-form integrals of polynomial-times-exponential kernels.

Everything the moment method and the observation energy need reduces to

    I_m(z, T) = integral_0^T s**m exp(z*s) ds,

computed by the stable upward recurrence ``I_m = (T**m e^{zT} - m I_{m-1})/z``
away from z = 0 and by the Taylor series near it.  Degrees stay tiny (chain
lengths), so the recurrence is benign.  The integrals come in pairs of
terms, ``z = nu_a + conj(nu_b)``, so the production paths take one
exponential per term and form a pair's ``e^{zT}`` as the product
``e^{nu_a T} conj(e^{nu_b T})``.  Here that is :func:`pair_integrals`, an
outer product in double precision.  The moment solver, whose Gram matrices
are exponentially ill conditioned, does the same on scaled Python integers
in ``fixedpoint.py``.  The mpmath twins are the tests' extended-precision
reference and import mpmath only when called, so no command loads it; the
one-exponential-per-pair double-precision path is the oracle in
``tests/energy_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: below this ``|z| T`` the integrals use the Taylor series in ``zT`` (times ``1 + m`` in :func:`pair_integrals`)
TAYLOR_RADIUS = 0.25


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
        # not in place: numpy rounds an in-place product on one element otherwise than on several
        term_pow[live] = term_pow[live] * z[live]
        done = np.abs(term_pow[live]) * T ** (p + 1) / math.factorial(k + 1) < 1e-18 * np.maximum(
            np.abs(total[live]), 1e-300
        )
        live = live[~done]
    return total


def poly_exp_integral_mp(m: int, z, T) -> "mpmath.mpc":
    """Arbitrary-precision twin of ``poly_exp_integral`` in ``tests/energy_oracle.py``.

    Operates at the caller's working precision; ``z`` and ``T`` are converted
    to the active mpmath context.  Only tests call it, so mpmath is imported
    here and no command loads it.
    """
    import mpmath

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
    """One summand ``coef * (T-t)**degree * exp(rate*(T-t))`` of a moment kernel or an observation signal."""

    coef: complex
    rate: complex
    degree: int


def pair_integrals(rates: np.ndarray, degrees: np.ndarray, T: float) -> np.ndarray:
    """``K[a, b] = I_{j_a + j_b}(nu_a + conj(nu_b), T)`` for every pair of terms.

    One exponential per term: a pair's ``e^{zT}`` is the outer product
    ``e^{nu_a T} conj(e^{nu_b T})``, and ``(e^{zT} - 1) / z`` is formed in place.
    The upward recurrence runs only on the pairs of positive degree, and the
    Taylor series only on the pairs inside ``|z| T < TAYLOR_RADIUS * (1 + m)``,
    so on terms of degree 0 ``z`` and ``K`` are the only ``(n, n)`` complex
    arrays.  The ball grows with the degree ``m`` because each recurrence step
    multiplies the error by about ``k / |zT|``: at ``|zT| = 0.29`` that cost a
    degree-2 entry 4e-14 relative.
    The factors come from :func:`_term_exponentials`, which restores the
    rounding of ``nu T``; without it the product would lose about
    ``eps |Im nu| T`` against ``|e^{zT} - 1|``, largest on near-diagonal
    pairs (2e-10 relative on degree-4 pairs with ``|Im nu| T`` near 70).  A
    term whose exponential underflows contributes an exact zero product.
    """
    e = _term_exponentials(rates, T)
    z = np.add.outer(rates, rates.conj())
    # numpy rounds a lone 1 x 1 product otherwise than the same product inside a row
    K = (e * e.conj())[:, None] if e.size == 1 else e[:, None] * e.conj()
    K -= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # z = 0 lies in the Taylor ball, overwritten below
        K /= z
    zT = np.abs(z)
    zT *= T
    m = np.add.outer(degrees, degrees) if degrees.any() else 0
    near = zT < TAYLOR_RADIUS * (1 + m)
    if degrees.any():
        a, b = np.nonzero((m > 0) & ~near)
        m, zab, ezt, val = m[a, b], z[a, b], e[a] * e[b].conj(), K[a, b]
        for k in range(1, int(m.max(initial=0)) + 1):
            up = m >= k
            val[up] = (T**k * ezt[up] - k * val[up]) / zab[up]
        K[a, b] = val
    if near.any():
        a, b = np.nonzero(near)
        K[a, b] = _taylor(degrees[a] + degrees[b], z[a, b], T)
    return K


def _term_exponentials(rates: np.ndarray, T: float) -> np.ndarray:
    """``e^{nu T}`` per rate, with the rounding of ``nu * T`` put back.

    ``nu T`` is rounded to ``eps |nu T|``, a phase error that a pair's
    product ``e^{nu_a T} conj(e^{nu_b T})`` would keep even where ``z T`` is
    small.  Each part's rounding error ``r`` is exact (Dekker's product), so
    ``e^{nu T} = e^{fl(nu T)} e^{r}`` to the accuracy of ``exp``.
    """
    re, im = rates.real * T, rates.imag * T
    r = _product_error(rates.real, T, re) + 1j * _product_error(rates.imag, T, im)
    return np.exp(re + 1j * im) * np.exp(r)


def _product_error(a, b, p):
    """``a * b - p`` exactly for ``p = fl(a * b)`` (Dekker), for finite ``|a|, |b|`` below ~1e300."""
    ah, al = _split(a)
    bh, bl = _split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _split(x):
    """``x = hi + lo`` with each half of at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


class _PairTable(NamedTuple):
    """A pair table with its key and ``|K|``."""

    key: tuple
    K: np.ndarray
    abs_K: np.ndarray


#: the last table :func:`signal_energy` built; one slot, so at most one table is held
_pair_table: _PairTable | None = None


def signal_energy(coefficients: np.ndarray, rates: np.ndarray, degrees: np.ndarray, T: float) -> tuple[float, float]:
    """Closed-form ``integral_0^T |y(t)|**2 dt`` and a bound on its rounding error.

    ``y(t) = sum c * (T-t)**j * exp(nu*(T-t))`` with the terms' coefficients,
    rates and polynomial degrees given as aligned arrays.  The energy is the
    Hermitian form ``sum_ab c_a conj(c_b) K[a, b]`` with
    ``K[a, b] = I_{j_a + j_b}(nu_a + conj(nu_b), T)`` from
    :func:`pair_integrals`.  The bound ``eps * n_terms * |c|^T |K| |c|`` covers the
    rounding of that sum, so relative to the value it grows with the
    cancellation ``|c|^T |K| |c| / value`` of the signal.

    ``K`` depends on the terms' rates, degrees and ``T`` only, not on the
    coefficients, and each entry on its own pair of terms only.  So the last
    table is held with ``|K|`` in one slot.  A call at the same ``T`` whose
    ``k`` rates and degrees are, byte for byte, the first ``k`` of the held
    table's reads the leading ``(k, k)`` blocks of both as views and leaves
    the table in the slot; a byte-equal call is the case of all of them.
    Any other call drops the old table before it builds its own, so two
    never coexist.  The held tables are read-only.
    """
    global _pair_table
    c = np.asarray(coefficients, dtype=complex)
    rates = np.ascontiguousarray(rates, dtype=complex)
    degrees = np.ascontiguousarray(degrees, dtype=np.int64)
    key = (rates.tobytes(), degrees.tobytes(), float(T))
    held = _pair_table
    # the held table serves every call at its T whose rates and degrees lead its own
    if held is None or held.key[2] != key[2] or not all(map(bytes.startswith, held.key[:2], key[:2])):
        held = _pair_table = None  # no reference keeps the old table alive while the new one is built
        K = pair_integrals(rates, degrees, T)
        abs_K = np.abs(K)
        K.flags.writeable = abs_K.flags.writeable = False
        held = _pair_table = _PairTable(key, K, abs_K)
    lead = slice(rates.size)
    value = float((c @ held.K[lead, lead] @ c.conj()).real)
    abs_c = np.abs(c)
    bound = float(np.finfo(float).eps * c.size * (abs_c @ held.abs_K[lead, lead] @ abs_c))
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
