"""Independent reference paths for the extended-precision moment pipeline.

Slow implementations that production code no longer uses, all in mpmath
numbers where production works on Python integers with power-of-two scales:

* the per-pair Gram, one ``mpmath.exp`` per entry, solved by
  ``mpmath.lu_solve`` on an ``mpmath.matrix``;
* the precision ladder on that Gram, solved by Cholesky on lists of mpmath
  numbers (:func:`ladder_solve`), which picks the rung production must pick;
* the per-pair double-precision Gram built from scalar kernel pairings, and
  the double-precision Gram from one pair-integral table
  (:func:`gram_matrix`), the reference of the discarded-singular-value
  count;
* moment integrals ``integral_0^T p(t) (T-t)**k e^{rate (T-t)} dt`` with one
  exponential per (solution term, rate) pair;
* control evaluation with one exponential per (point, term);
* the four-product integer kernels that production's three-product ones
  replace (:func:`factor_four`, :func:`forward_four`,
  :func:`cholesky_solve_four`, :func:`gram_times_four`), integer for
  integer the same results, and the evaluation walk of unit exponentials
  that four dot products with the weights ``x conj(coef)`` read per point
  (:func:`unit_walk`);
* the pair loop of the moment Gram on the full-width integers of the
  kernels (:func:`moment_gram`, :func:`pair_integral`), and the step
  series summed for all rates at once (:func:`shifted_factors`), which
  production's odd-part Gram and rate-by-rate series match integer for
  integer;
* the integer exponential that reduces every rate as it is
  (:func:`exp_direct`), which production's conjugation-equivariant
  ``fixedpoint._exp`` matches integer for integer on rates with a
  nonnegative imaginary part;
* the proportional-row scans over every pair of moment rows;
* the control export written row by row through ``csv.writer``.

Each takes the same rows and coefficients as the production path, so a test
can compare the two entry by entry.  :func:`coefficients_mp` and
:func:`with_coefficients` translate, exactly, between the solution's
coefficients (a ``ScaledVector`` of integers ``(re + 1j * im) * 2**exp``)
and mpmath numbers, one per moment row.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import operator

import mpmath
import numpy as np
from energy_oracle import poly_exp_integral

from cnslab import fixedpoint
from cnslab.control import _DPS_LADDER, _RESIDUAL_TOL, _SVD_THRESHOLD, _duplicate_row_structure, _proportional_rows
from cnslab.fixedpoint import ScaledVector
from cnslab.kernels import TAYLOR_RADIUS, pair_integrals, poly_exp_integral_mp


def mp_complex(re: int, im: int, exp: int):
    """``(re + 1j * im) * 2**exp`` as an mpmath complex, exactly."""
    with mpmath.workprec(max(re.bit_length(), im.bit_length(), 1)):
        return mpmath.mpc(mpmath.ldexp(re, exp), mpmath.ldexp(im, exp))


def mpf_fixed(x, bits: int) -> int:
    """An mpmath real times ``2**bits`` as an integer, rounded toward zero."""
    return int(mpmath.ldexp(x, bits))


def coefficients_mp(solution) -> list:
    """The solution's coefficients as exact mpmath complexes, one per moment row.

    Rows outside ``solution.keep`` read zero.
    """
    out = [mpmath.mpc(0)] * len(solution.system.rows)
    for i, re, im in zip(solution.keep, solution.x.re, solution.x.im):
        out[i] = mp_complex(re, im, solution.x.exp)
    return out


def with_coefficients(solution, values):
    """``solution`` with the mpmath ``values``, one per moment row, as its coefficients.

    The control lies in the span of the kept kernels, so values on rows
    outside ``solution.keep`` must be zero.  Each kept value is taken exactly
    as it is, not rounded to the working precision: its parts' mantissas are
    shifted to the smallest of their exponents.
    """
    kept = set(solution.keep)
    if any(v != 0 for i, v in enumerate(values) if i not in kept):
        raise ValueError("coefficients outside the kept rows must be zero")
    kept_values = [mpmath.mpmathify(values[i]) for i in solution.keep]
    parts = [p._mpf_ for v in kept_values for p in (v.real, v.imag)]
    exp = min((e for _, man, e, _ in parts if man), default=0)
    ints = [(-man if sign else man) << (e - exp) if man else 0 for sign, man, e, _ in parts]
    return dataclasses.replace(solution, x=ScaledVector(ints[0::2], ints[1::2], exp))


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


def gram_matrix(system) -> np.ndarray:
    """Double-precision Gram of the moment kernels.

    All term pairings ``c_a conj(c_b) K[a, b]`` come from one
    :func:`~cnslab.kernels.pair_integrals` table and are summed into their rows by a 0/1 incidence matrix.
    """
    terms = [t for row in system.rows for t in row.kernel]
    c = np.array([t.coef for t in terms], dtype=complex)
    rates = np.array([t.rate for t in terms], dtype=complex)
    K = pair_integrals(rates, np.array([t.degree for t in terms], dtype=np.int64), system.horizon)
    incidence = np.zeros((len(system.rows), len(terms)))
    incidence[np.repeat(np.arange(len(system.rows)), [len(r.kernel) for r in system.rows]), np.arange(len(terms))] = 1.0
    return incidence @ ((c[:, None] * c.conj()[None, :]) * K) @ incidence.T


def discarded_singular_values(system) -> int:
    """Singular values of the kept rows' normalized :func:`gram_matrix` at most the production threshold of the largest.

    Dropped duplicate rows count as discarded, as in production.
    """
    keep, _, dropped = _duplicate_row_structure(system)
    if not keep:
        return len(dropped)
    G = gram_matrix(system)[np.ix_(keep, keep)]
    diag = np.sqrt(np.maximum(np.real(np.diag(G)), 1e-300))
    svals = np.linalg.svd(G / np.outer(diag, diag), compute_uv=False)
    return int(np.sum(svals <= _SVD_THRESHOLD * svals[0])) + len(dropped)


def moment_integral(solution, degree: int, rate):
    """integral_0^T p(t) (T-t)**degree e^{rate (T-t)} dt at the working precision, one exp per pair."""
    total = mpmath.mpc(0)
    T = solution.system.horizon
    for x, row in zip(coefficients_mp(solution), solution.system.rows):
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
        coefficients = coefficients_mp(solution)
        for i, ti in enumerate(t):
            s = mpmath.mpf(solution.system.horizon) - mpmath.mpf(float(ti))
            acc = mpmath.mpc(0)
            for x, row in zip(coefficients, solution.system.rows):
                if x == 0:
                    continue
                for term in row.kernel:
                    acc += x * mpmath.conj(mpmath.mpc(term.coef)) * s**term.degree * mpmath.exp(
                        mpmath.conj(mpmath.mpc(term.rate)) * s
                    )
            out[i] = complex(acc)
    return out


def _dot(a: list, b: list) -> int:
    return sum(map(operator.mul, a, b))


def factor_four(gram, dps: int) -> tuple | None:
    """``fixedpoint.factor`` without the row sums, each entry's inner product two dot products of twice the length.

    An earlier row ``j`` is kept as ``Lr + Li`` and ``-Li + Lr`` concatenated,
    against the row being built as ``ri + ii``: four products per term.
    """
    bits = fixedpoint._dps_bits(dps)
    Lr: list[list] = []
    Li: list[list] = []
    d: list = []
    rows_re: list[list] = []
    rows_im: list[list] = []
    scale = 2 * bits - gram.bits
    for i in range(len(gram.re)):
        gr = fixedpoint._shift_all(gram.re[i][: i + 1], scale)
        gi = fixedpoint._shift_all(gram.im[i][:i], scale)
        ri: list = []
        ii: list = []
        for j in range(i):
            row = ri + ii
            ri.append((gr[j] - _dot(row, rows_re[j])) // d[j])
            ii.append((gi[j] - _dot(row, rows_im[j])) // d[j])
        pivot = gr[i] - _dot(ri, ri) - _dot(ii, ii)
        if pivot <= 0:
            return None
        d.append(math.isqrt(pivot))
        Lr.append(ri)
        Li.append(ii)
        rows_re.append(ri + ii)
        rows_im.append([-v for v in ii] + ri)
    Ur = [[row[i] for row in Lr[:i:-1]] for i in reversed(range(len(d)))]
    Ui = [[-row[i] for row in Li[:i:-1]] for i in reversed(range(len(d)))]
    return bits, Lr, Li, d, Ur, Ui


def substitute_four(Lr, Li, d, br, bi) -> tuple[list, list]:
    """``L y = b`` on integers as ``fixedpoint._substitute`` solves it, with four dot products per row."""
    yr: list = []
    yi: list = []
    for lr, li, di, vr, vi in zip(Lr, Li, d, br, bi):
        sr = vr - _dot(lr, yr) + _dot(li, yi)
        si = vi - _dot(lr, yi) - _dot(li, yr)
        yr.append(sr // di)
        yi.append(si // di)
    return yr, yi


def forward_four(factor: tuple, b: ScaledVector) -> ScaledVector:
    """``fixedpoint.forward`` on a :func:`factor_four`."""
    bits, Lr, Li, d = factor[:4]
    shift = bits - max(v.bit_length() for v in b.re + b.im)
    parts = (fixedpoint._shift_all(p, shift + bits) for p in (b.re, b.im))
    return ScaledVector(*substitute_four(Lr, Li, d, *parts), b.exp - shift)


def cholesky_solve_four(factor: tuple, b: ScaledVector) -> ScaledVector:
    """``fixedpoint._cholesky_solve`` on a :func:`factor_four`: :func:`forward_four`, then the back substitution."""
    bits, _, _, d, Ur, Ui = factor
    y = forward_four(factor, b)
    parts = (fixedpoint._shift_all(p[::-1], bits) for p in (y.re, y.im))
    xr, xi = substitute_four(Ur, Ui, d[::-1], *parts)
    return ScaledVector(xr[::-1], xi[::-1], y.exp)


def gram_times_four(re, im, xr, xi) -> tuple[list, list]:
    """Real and imaginary parts of ``G x`` on integers with four dot products per row."""
    return [_dot(g, xr) - _dot(h, xi) for g, h in zip(re, im)], [_dot(g, xi) + _dot(h, xr) for g, h in zip(re, im)]


def weights(x: ScaledVector, columns) -> tuple[list, list, int, list, list, list, list]:
    """``(wr, wi, exp, rates, rate_re, rate_im, degrees)`` of the control's terms, the zero coefficients left out.

    ``w = x conj(coef) = (wr + 1j * wi) * 2**exp`` exactly; the rates come
    conjugated, as complexes and as integer parts at the columns' bits.
    """
    live = [(a, b, column) for a, b, column in zip(x.re, x.im, columns) if a or b]
    if not live:
        return [], [], 0, [], [], [], []
    bits = live[0][2].bits
    low = min(column.exp for _, _, column in live)
    terms = [
        (a * cr + b * ci << column.exp - low, b * cr - a * ci << column.exp - low, rate.conjugate(), ar, -ai, degree)
        for a, b, column in live
        for cr, ci, ar, ai, rate, degree, _, _ in column.terms
    ]
    wr, wi, rates, rate_re, rate_im, degrees = (list(v) for v in zip(*terms))
    return wr, wi, x.exp + low - bits, rates, rate_re, rate_im, degrees


def unit_walk(x: ScaledVector, columns, T: float, times: list[float]):
    """``(i, re, im, exp)`` of ``fixedpoint._weighted_walk`` from unit exponentials.

    The walk of ``fixedpoint._walk`` carries ``e^{conj(rate) s}`` from 1 at
    ``bits`` fraction bits, and each point takes four dot products of the
    weights (times ``s**degree``) with it.
    """
    wr, wi, w_exp, rates, rate_re, rate_im, degrees = weights(x, columns)
    if not rates:
        return
    bits = columns[0].bits
    T_int = fixedpoint._fixed(T, bits)
    s_all = [T_int - fixedpoint._fixed(t, bits) for t in times]
    units = [1 << bits] * len(rates), [0] * len(rates)
    for i, cur_r, cur_i in fixedpoint._walk(*units, rates, (rate_re, rate_im), s_all, bits):
        powers = [fixedpoint._shift(s_all[i] ** d, (1 - d) * bits) for d in degrees]
        ur, ui = list(map(operator.mul, wr, powers)), list(map(operator.mul, wi, powers))
        yield i, _dot(ur, cur_r) - _dot(ui, cur_i), _dot(ur, cur_i) + _dot(ui, cur_r), w_exp - 2 * bits


def exp_direct(rate: complex, n: int, e: int, bits: int) -> tuple[int, int]:
    """``fixedpoint._exp`` with every rate reduced as it is, a negative imaginary part included.

    ``e^z`` for ``z = rate * n * 2**e`` at ``bits`` fraction bits, within
    about one unit: ``z`` formed exactly, reduced by ln 2 and pi/2, and
    summed as two odd Taylor series (see ``fixedpoint._exp``).
    """
    (ar, er), (ai, ei) = fixedpoint._ratio(rate.real), fixedpoint._ratio(rate.imag)
    low = min(er, ei)
    zr, zi, exp = (ar << er - low) * n, (ai << ei - low) * n, low + e
    x = fixedpoint._float(zr, exp)
    if x < -(bits + 2) * fixedpoint._LN2:
        return 0, 0
    k, q = round(x / fixedpoint._LN2), round(fixedpoint._float(zi, exp) / (math.pi / 2))
    w = bits + fixedpoint._EXP_GUARD + max(k, 0)
    c = -(-(w + max(abs(k), abs(q), 1).bit_length() + 2) // 64) * 64
    ln2, half_pi = fixedpoint._ln2_half_pi(c)
    r = fixedpoint._shift(fixedpoint._shift(zr, exp + c) - k * ln2, w - c)
    s = fixedpoint._shift(fixedpoint._shift(zi, exp + c) - q * half_pi, w - c)
    one = 1 << 2 * w
    sinh = sum(fixedpoint._odd_terms(abs(r), w))
    modulus = sinh + math.isqrt(one + sinh * sinh)
    if r < 0:
        modulus = one // modulus
    terms = fixedpoint._odd_terms(abs(s), w)
    sin = sum(terms[::2]) - sum(terms[1::2])
    re, im = modulus * math.isqrt(one - sin * sin), modulus * sin if s >= 0 else -modulus * sin
    for _ in range(q % 4):
        re, im = -im, re
    return fixedpoint._shift(re, k + bits - 2 * w), fixedpoint._shift(im, k + bits - 2 * w)


def pair_integral(m: int, zr: int, zi: int, ezt: tuple[int, int], T: int, bits: int, near: bool) -> tuple[int, int]:
    """``I_m(z, T)`` on integers at ``bits`` fraction bits, from the full-width ``z``.

    ``z``, ``ezt = e^{zT}`` and ``T`` come at ``bits`` fraction bits.
    ``near`` selects ``fixedpoint._taylor``; away from it ``1/z`` enters as
    ``conj(z) / |z|**2``, one division per part and step.
    """
    if near:
        return fixedpoint._taylor(m, zr, zi, T, bits)
    den = zr * zr + zi * zi
    er, ei = ezt
    ar, ai = er - (1 << bits), ei
    vr, vi = ((ar * zr + ai * zi) << bits) // den, ((ai * zr - ar * zi) << bits) // den
    Tk = 1 << bits
    for k in range(1, m + 1):
        Tk = (Tk * T) >> bits
        ar, ai = ((Tk * er) >> bits) - k * vr, ((Tk * ei) >> bits) - k * vi
        vr, vi = ((ar * zr + ai * zi) << bits) // den, ((ai * zr - ar * zi) << bits) // den
    return vr, vi


def moment_gram(rows, columns, T: float, bits: int) -> tuple[list[list], list[list]]:
    """``fixedpoint._moment_gram`` with every term pair's :func:`pair_integral` on the kernels' full-width integers."""
    hermitian = rows is columns
    T_int = fixedpoint._fixed(T, bits)
    re = [[0] * len(columns) for _ in rows]
    im = [[0] * len(columns) for _ in rows]
    for i, row in enumerate(rows):
        for j in range(i if hermitian else 0, len(columns)):
            sr = si = 0
            for car, cai, ar, ai, a, da, ear, eai in row.terms:
                for cbr, cbi, br, bi, b, db, ebr, ebi in columns[j].terms:
                    Ir, Ii = pair_integral(
                        da + db,
                        ar + br,
                        ai - bi,
                        ((ear * ebr + eai * ebi) >> bits, (eai * ebr - ear * ebi) >> bits),
                        T_int,
                        bits,
                        abs(a + b.conjugate()) * T < TAYLOR_RADIUS,
                    )
                    wr, wi = car * cbr + cai * cbi, cai * cbr - car * cbi
                    sr += wr * Ir - wi * Ii
                    si += wr * Ii + wi * Ir
            re[i][j], im[i][j] = sr >> 2 * bits, si >> 2 * bits
            if hermitian and j != i:
                re[j][i], im[j][i] = re[i][j], -im[i][j]
    return re, im


def shifted_factors(factors: tuple[list, list], rates: tuple[list, list], d: int, bits: int) -> tuple[list, list]:
    """``fixedpoint._shifted_factors`` with the series of all rates summed at once, until every term is at most 1."""
    fr, fi = factors
    wr, wi = ([v * d >> bits for v in part] for part in rates)
    sr, si = [1 << bits] * len(fr), [0] * len(fr)
    tr, ti = sr, si
    k = 0
    while max(map(abs, tr + ti)) > 1:
        k += 1
        tr, ti = (list(map(operator.floordiv, part, itertools.repeat(k)))
                  for part in fixedpoint._complex_products(tr, ti, wr, wi, bits))
        sr, si = list(map(operator.add, sr, tr)), list(map(operator.add, si, ti))
    return fixedpoint._complex_products(fr, fi, sr, si, bits)


def export_control_csv(solution, grid, path) -> None:
    """``t,p`` rows (``t,re_p,im_p`` for a complex control) through ``csv.writer``."""
    values = solution(grid)
    imag_scale = float(np.max(np.abs(values.imag))) if len(grid) else 0.0
    real_scale = max(float(np.max(np.abs(values.real))) if len(grid) else 0.0, 1e-300)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if imag_scale <= 1e-12 * real_scale:
            writer.writerow(["t", "p"])
            for t, v in zip(grid, values):
                writer.writerow([format(float(t), ".17g"), format(v.real, ".17g")])
        else:
            writer.writerow(["t", "re_p", "im_p"])
            for t, v in zip(grid, values):
                writer.writerow([format(float(t), ".17g"), format(v.real, ".17g"), format(v.imag, ".17g")])


def rank_deficiency_groups(rows) -> list[tuple[int, int]]:
    """Pairs of rows from distinct modes with proportional kernels, from every pair of rows."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(rows)), 2)
        if rows[i].n != rows[j].n and _proportional_rows(rows[i], rows[j])
    ]


def duplicate_row_structure(system):
    """``(keep, inconsistent, dropped)``, each row checked against every kept row before it."""
    keep, inconsistent, dropped = [], [], []
    for j, row in enumerate(system.rows):
        duplicate_of = next((i for i in keep if _proportional_rows(system.rows[i], row)), None)
        if duplicate_of is None:
            keep.append(j)
            continue
        base = system.rows[duplicate_of]
        c = row.kernel[0].coef / base.kernel[0].coef
        scale = max(abs(row.target), abs(base.target), 1e-300)
        if abs(row.target - c * base.target) <= 1e-8 * scale:
            dropped.append((j, duplicate_of, c))
        else:
            inconsistent.append((duplicate_of, j))
    return keep, inconsistent, dropped
