"""Independent reference paths for the extended-precision moment pipeline.

Slow implementations that production code no longer uses, all in mpmath
numbers where production works on complex pairs of ``decimal.Decimal``:

* the per-pair Gram, one ``mpmath.exp`` per entry, solved by
  ``mpmath.lu_solve`` on an ``mpmath.matrix``;
* the precision ladder on that Gram, solved by Cholesky on lists of mpmath
  numbers (:func:`ladder_solve`), which picks the rung production must pick;
* the per-pair double-precision Gram built from scalar kernel pairings;
* moment integrals ``integral_0^T p(t) (T-t)**k e^{rate (T-t)} dt`` with one
  exponential per (solution term, rate) pair;
* control evaluation with one exponential per (point, term).

Each takes the same rows and coefficients as the production path, so a test
can compare the two entry by entry.
"""

from __future__ import annotations

import mpmath
import numpy as np

from cnslab.control import _DPS_LADDER, _RESIDUAL_TOL, _duplicate_row_structure
from cnslab.kernels import poly_exp_integral, poly_exp_integral_mp


def gram_mp(rows, T) -> "mpmath.matrix":
    """Hermitian Gram ``integral k_i conj(k_j)`` at working precision, one exp per pair."""
    m = len(rows)
    G = mpmath.matrix(m, m)
    for i in range(m):
        for j in range(i, m):
            total = mpmath.mpc(0)
            for a in rows[i].kernel:
                for b in rows[j].kernel:
                    z = mpmath.mpc(a.rate) + mpmath.conj(mpmath.mpc(b.rate))
                    total += mpmath.mpc(a.coef) * mpmath.conj(mpmath.mpc(b.coef)) * poly_exp_integral_mp(
                        a.degree + b.degree, z, T
                    )
            G[i, j] = total
            if j != i:
                G[j, i] = mpmath.conj(total)
    return G


def targets_mp(rows) -> "mpmath.matrix":
    """Double targets promoted as exact inputs of the extended solve."""
    return mpmath.matrix([mpmath.mpc(row.target) for row in rows])


def lu_coefficients(rows, T) -> list:
    """Gram coefficients of ``rows`` by LU at the working precision."""
    return [mpmath.mpc(v) for v in mpmath.lu_solve(gram_mp(rows, T), targets_mp(rows))]


def cholesky_solve(G, b) -> list | None:
    """Solve ``G x = b`` by Cholesky ``G = L L^H`` at the working precision; None at a pivot that is not positive."""
    m = len(b)
    L: list[list] = []
    for i in range(m):
        Li: list = []
        for j in range(i):
            Li.append((G[i, j] - mpmath.fdot(Li, L[j][:j], conjugate=True)) / L[j][j])
        pivot = mpmath.re(G[i, i] - mpmath.fdot(Li, Li, conjugate=True))
        if not pivot > 0:
            return None
        Li.append(mpmath.sqrt(pivot))
        L.append(Li)
    y: list = []
    for i in range(m):
        y.append((b[i] - mpmath.fdot(L[i][:i], y)) / L[i][i])
    x: list = [None] * m
    for i in reversed(range(m)):
        column = [L[k][i] for k in range(i + 1, m)]
        x[i] = (y[i] - mpmath.fdot(x[i + 1 :], column, conjugate=True)) / L[i][i]
    return x


def ladder_solve(system) -> tuple[int, list, float]:
    """Rung, kept-row coefficients and control norm of the precision ladder on the per-pair Gram.

    The rungs and the residual gate are production's; the first rung whose
    Cholesky solve meets the gate wins.  Raises ValueError when none does.
    """
    keep = _duplicate_row_structure(system)[0]
    rows = [system.rows[i] for i in keep]
    for dps in _DPS_LADDER:
        with mpmath.workdps(dps):
            G = gram_mp(rows, system.horizon)
            rhs = [mpmath.mpc(row.target) for row in rows]
            x = cholesky_solve(G, rhs)
            if x is None:
                continue
            Gx = [mpmath.fdot((G[i, j], x[j]) for j in range(len(rows))) for i in range(len(rows))]
            if mpmath.norm([g - b for g, b in zip(Gx, rhs)]) / mpmath.norm(rhs) <= _RESIDUAL_TOL:
                return dps, x, float(mpmath.sqrt(abs(mpmath.re(mpmath.fdot(Gx, x, conjugate=True)))))
    raise ValueError("precision ladder exhausted")


def kernel_inner(row_a, row_b, T: float) -> complex:
    """Double-precision L2(0,T) pairing ``integral k_a(t) * conj(k_b(t)) dt``, one pair at a time."""
    total = 0.0 + 0.0j
    for a in row_a:
        for b in row_b:
            z = a.rate + np.conj(b.rate)
            total += a.coef * np.conj(b.coef) * poly_exp_integral(a.degree + b.degree, z, T)
    return complex(total)


def gram_matrix_pairs(rows, T: float) -> np.ndarray:
    """Double-precision Gram of the moment kernels, entry by entry."""
    m = len(rows)
    G = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i, m):
            G[i, j] = kernel_inner(rows[i].kernel, rows[j].kernel, T)
            if j != i:
                G[j, i] = np.conj(G[i, j])
    return G


def moment_integral(solution, degree: int, rate):
    """integral_0^T p(t) (T-t)**degree e^{rate (T-t)} dt at the working precision, one exp per pair."""
    total = mpmath.mpc(0)
    T = solution.system.horizon
    for x, row in zip(solution.coefficients_mp, solution.system.rows):
        if x == 0:
            continue
        row_total = mpmath.mpc(0)
        for term in row.kernel:
            z = mpmath.conj(mpmath.mpc(term.rate)) + mpmath.mpc(rate)
            row_total += mpmath.conj(mpmath.mpc(term.coef)) * poly_exp_integral_mp(term.degree + degree, z, T)
        total += x * row_total
    return total


def evaluate_control(solution, t) -> np.ndarray:
    """p(t) = sum_j x_j conj(k_j(t)) with one exponential per point and term."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros(t.shape, dtype=complex)
    with mpmath.workdps(solution.solve_dps):
        for i, ti in enumerate(t):
            s = mpmath.mpf(solution.system.horizon) - mpmath.mpf(float(ti))
            acc = mpmath.mpc(0)
            for x, row in zip(solution.coefficients_mp, solution.system.rows):
                if x == 0:
                    continue
                for term in row.kernel:
                    acc += x * mpmath.conj(mpmath.mpc(term.coef)) * s**term.degree * mpmath.exp(
                        mpmath.conj(mpmath.mpc(term.rate)) * s
                    )
            out[i] = complex(acc)
    return out
