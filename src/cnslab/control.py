"""Moment-method synthesis of boundary controls with duality verification.

Null control of the truncated dynamics reduces to the moment equations

    w_ch * conj(B* Phi_n) * integral_0^T p(t) e^{conj(nu_n)(T-t)} dt
        = -e^{conj(nu_n) T} <U0, Phi_n>_w

one per (mode, branch) in the truncation, with ``(T-t)**j`` kernels added by
generalized chains.  The synthesized control is the minimum-L2-norm element
of the span of the conjugate kernels: writing ``p = sum_j x_j conj(k_j)``
turns the constraints into the Hermitian Gram system ``G x = m``.  The Gram
of an exponential family is exponentially ill conditioned, so the system is
solved by Cholesky in extended precision, and the parabolic ill-conditioning
is reported as the discarded singular values of the normalized Gram rather
than hidden in a black-box solver.

The extended-precision arithmetic runs on Python integers that carry an
explicit power-of-two scale: a number is ``n * 2**e``, in fixed point at
``bits`` fraction bits within one kernel, Gram or vector.  A rung of
``dps`` digits works at mpmath's ``dps_to_prec(dps)`` bits, and the Gram,
its exponentials and the residual carry :data:`_GUARD_BITS` more.  Every
inner product is one C-level ``sum(map(mul, ...))`` of integers, exact, and
shifted once.  The Gram's rows and columns are scaled by powers of two to a
unit diagonal; the shifts are exact, and Cholesky's rounding error depends
only on that diagonally scaled matrix (van der Sluis).  mpmath supplies one
exponential ``e^{rate T}`` per kernel term, and terms are paired by
products.

Verification replays the duality identity mode by mode in closed form,
inside and beyond the synthesis truncation (terminal spill-over), reading
the solve's Gram for the rows it already holds.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, floordiv, lshift, mul, neg, rshift, sub
from typing import Any, NamedTuple

import mpmath
import numpy as np

from .errors import ArithmeticFailure, DomainError, InfeasibleRow, RankDeficient
from .evolution import ObservationChannel, boundary_control_weight, chain_links, observation_values
from .fields import NormSpec, SpectralField
from .kernels import TAYLOR_RADIUS, KernelTerm, pair_integrals
from .kernels import poly_exp_integral_mp  # noqa: F401  (perfbench/spans.py traces this name)
from .spectrum import SpectrumSlice

#: working precisions (significant digits) tried in turn until the moment residual is met
_DPS_LADDER = (40, 80, 160, 320)
_RESIDUAL_TOL = 1e-12
#: fraction of the largest singular value of the normalized Gram at or below which one counts as discarded
_SVD_THRESHOLD = 1e-12
#: extra bits (ten digits) of the Gram, its exponentials and the residual that refines the solution
_GUARD_BITS = 34
#: largest ``max|rate| * |h - h0|`` at which the control evaluation derives a step's factors from step ``h0``'s
_STEP_SERIES_RADIUS = 1e-6


@dataclass
class MomentRow:
    """One moment equation: kernel terms, target, and provenance."""

    n: int
    cluster_index: int
    level: int
    rate: complex  # conj of the eigenvalue
    kernel: list[KernelTerm]
    target: complex
    observation: complex  # B* applied to the level's vector

    def kernel_scale(self) -> float:
        return max(abs(t.coef) for t in self.kernel) if self.kernel else 0.0


@dataclass
class MomentSystem:
    channel: ObservationChannel
    horizon: float
    truncation: int
    rows: list[MomentRow]
    below_critical_time: bool
    rank_deficiency_groups: list[tuple[int, int]] = field(default_factory=list)

    @property
    def targets(self) -> np.ndarray:
        return np.array([r.target for r in self.rows])


def _proportional_rows(a: MomentRow, b: MomentRow) -> bool:
    """Whether two rows have proportional kernels: single terms with rates equal to 1e-12 relative."""
    return (
        len(a.kernel) == 1
        and len(b.kernel) == 1
        and abs(a.rate - b.rate) <= 1e-12 * max(1.0, abs(a.rate), abs(b.rate))
    )


def _mode_inner_products(U0: SpectralField, vectors, n: int, norm_spec: NormSpec) -> list[complex]:
    """<U0, v e^{inx}>_w for each basis vector v of mode n."""
    c_n = U0.coeff(n)
    w = np.asarray(norm_spec.weights)
    return [complex(2.0 * np.pi * np.sum(w * c_n * np.conj(v))) for v in vectors]


def _chain_rows(
    U0: SpectralField, channel: ObservationChannel, T: float, slice_: SpectrumSlice, N: int
) -> Iterator[tuple[int, MomentRow]]:
    """Moment row of every basis element of the modes ``1 <= |n| <= N``.

    Yields ``(j, row)`` with ``j`` the element's index in its cluster.  The
    element in basis column ``c`` pairs ``(T-t)**k / k!`` with column
    ``c - k`` for the chain levels ``k`` of :func:`chain_links` (``k = 0``
    alone outside a Jordan chain).  The target is minus the free terminal
    pairing ``e^{conj(nu) T} sum_k T**k / k! <U0, Phi_{c-k}>_w``.
    """
    params = slice_.params
    w_ch = boundary_control_weight(channel, params)
    norm_spec = NormSpec.weighted_l2(params)
    table = slice_.basis
    rows = np.flatnonzero(np.abs(table.ns) <= N)
    observed = observation_values(channel, table.basis[rows].swapaxes(1, 2), table.ns[rows, None], params).tolist()
    for r, obs in zip(rows.tolist(), observed):
        n = int(table.ns[r])
        vectors = list(table.basis[r].T)
        inner = _mode_inner_products(U0, vectors, n, norm_spec)
        links: list[list[tuple[int, int]]] = [[] for _ in vectors]
        for c, k, factorial, linked in chain_links(table.levels[r]):
            if linked:
                links[c].append((k, factorial))
        clusters = table.clusters[r].tolist()
        for c, column_links in enumerate(links):
            nu_bar = np.conj(table.rates[r, c])
            kernel = [
                KernelTerm(coef=w_ch * np.conj(obs[c - k]) / factorial, rate=nu_bar, degree=k)
                for k, factorial in column_links
            ]
            free = np.exp(nu_bar * T) * sum((T**k / factorial) * inner[c - k] for k, factorial in column_links)
            yield c - clusters.index(clusters[c]), MomentRow(
                n=n,
                cluster_index=clusters[c],
                level=int(table.levels[r, c]),
                rate=nu_bar,
                kernel=kernel,
                target=complex(-free),
                observation=obs[c],
            )


def build_moment_system(
    U0: SpectralField,
    channel: ObservationChannel,
    T: float,
    slice_: SpectrumSlice,
    N: int,
) -> MomentSystem:
    """Assemble the moment equations for all modes ``1 <= |n| <= N``.

    Rows with a vanishing observation are infeasible when their target is
    nonzero (the constructive face of a unique-continuation failure) and are
    rejected; proportional kernels across distinct rows (coincident
    eigenvalues across modes) are recorded as rank-deficiency groups.
    """
    if T <= 0:
        raise DomainError("horizon must be positive")
    if N > slice_.N:
        raise DomainError(f"slice covers |n| <= {slice_.N} < requested truncation {N}")
    rows: list[MomentRow] = []
    for _, row in _chain_rows(U0, channel, T, slice_, N):
        if row.kernel_scale() == 0.0 and abs(row.target) > 0.0:
            raise InfeasibleRow(
                f"mode {row.n}: zero observation with nonzero target "
                "(unique continuation fails on this datum)"
            )
        rows.append(row)
    return MomentSystem(
        channel=channel,
        horizon=T,
        truncation=N,
        rows=rows,
        below_critical_time=(T <= 2.0 * np.pi / slice_.params.u_bar),
        rank_deficiency_groups=_rank_deficiency_groups(rows),
    )


def _proportional_pairs(rows: list[MomentRow]) -> list[tuple[int, int]]:
    """Every pair ``i < j`` of proportional rows (:func:`_proportional_rows`), in lexicographic order.

    Proportional rates lie within 1e-12 relative of each other, and so do
    their moduli, so the candidates of a single-term row are the rows after
    it in a sort by modulus up to twice that radius; the predicate decides.
    Rates are finite (conjugate eigenvalues of the slice).
    """
    single = sorted((abs(row.rate), i) for i, row in enumerate(rows) if len(row.kernel) == 1)
    moduli = [modulus for modulus, _ in single]
    pairs = []
    for a, (modulus, i) in enumerate(single):
        end = bisect.bisect_right(moduli, modulus + 2e-12 * max(1.0, modulus), lo=a + 1)
        pairs += [(min(i, j), max(i, j)) for _, j in single[a + 1 : end] if _proportional_rows(rows[i], rows[j])]
    return sorted(pairs)


def _rank_deficiency_groups(rows: list[MomentRow]) -> list[tuple[int, int]]:
    """Pairs of rows from distinct modes with proportional kernels."""
    return [(i, j) for i, j in _proportional_pairs(rows) if rows[i].n != rows[j].n]


class ScaledVector(NamedTuple):
    """Complex numbers ``(re[k] + 1j * im[k]) * 2**exp`` on Python ints, with one power-of-two scale."""

    re: list[int]
    im: list[int]
    exp: int


class _Kernel(NamedTuple):
    """A moment kernel on integers at ``bits`` fraction bits.

    Each term is ``(cr, ci, ar, ai, rate, degree, er, ei)``: the coefficient
    ``(cr + 1j * ci) * 2**(exp - bits)``, the rate ``(ar + 1j * ai) * 2**-bits``
    (also kept as the complex ``rate``), the degree, and ``e^{rate T}`` as
    ``(er + 1j * ei) * 2**-bits``.  ``exp`` brings the row's coefficients
    below 1 in modulus.
    """

    exp: int
    bits: int
    terms: list[tuple]


class _Gram(NamedTuple):
    """A Hermitian Gram with its rows and columns scaled by powers of two.

    ``G[i][j] = (re + 1j * im)[i][j] * 2**(exps[i] + exps[j] - bits)``, and
    ``re[i][i] * 2**-bits`` lies in ``[1, 4)``: the scaled matrix has a unit
    diagonal up to a factor below 4.
    """

    re: list[list[int]]
    im: list[list[int]]
    exps: list[int]
    bits: int


def _shift(n: int, k: int) -> int:
    """``n * 2**k``, rounded down when ``k < 0``."""
    return n << k if k >= 0 else n >> -k


def _fixed(x: float, bits: int) -> int:
    """``floor(x * 2**bits)`` for a finite float ``x``."""
    n, d = x.as_integer_ratio()
    return _shift(n, bits) // d


def _mpf_fixed(x, bits: int) -> int:
    """An mpmath real times ``2**bits``, its mantissa shifted and rounded toward zero."""
    sign, man, exp, _ = x._mpf_
    n = _shift(man, exp + bits)
    return -n if sign else n


def _float(n: int, exp: int) -> float:
    """``n * 2**exp`` correctly rounded to a float."""
    return n / (1 << -exp) if exp < 0 else float(n << exp)


def _require_finite(label: str, what: str, values) -> None:
    """Refuse non-finite complex ``values`` with :class:`ArithmeticFailure` naming the row and the input."""
    for v in values:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ArithmeticFailure(f"{label}: non-finite {what} {v!r}")


def _range_bits(rows: list[MomentRow], T: float) -> int:
    """Bits by which the smallest ``integral_0^T |(T-t)**j e^{rate (T-t)}|**2 dt`` of the rows' terms falls below 1.

    That integral is ``I_{2j}(2 Re rate, T)``, about ``T**(2j+1) / (2j+1)``
    and, for a decaying rate, at most ``(2j)! / |2 Re rate|**(2j+1)``; the
    smaller of the two is taken.  Pair integrals carry these bits on top of
    the working ones, so rescaling the Gram to a unit diagonal keeps every
    working bit.  Non-finite rates are skipped here and refused by
    :func:`_kernel`.
    """
    smallest = 0.0
    for row in rows:
        for t in row.kernel:
            m = 2 * t.degree
            size = (m + 1) * math.log2(T) - math.log2(m + 1)
            decay = -2.0 * complex(t.rate).real
            if 0.0 < decay < math.inf:
                size = min(size, math.log2(math.factorial(m)) - (m + 1) * math.log2(decay))
            smallest = min(smallest, size)
    return math.ceil(-smallest)


def _kernel(label: str, kernel: list[KernelTerm], T: float, bits: int) -> _Kernel:
    """The terms of one kernel as integers at ``bits`` fraction bits (see :class:`_Kernel`).

    Each term costs one mpmath exponential at ``bits`` bits of precision.
    Non-finite coefficients and rates are refused here, where they would
    enter the integer arithmetic.
    """
    coefs = [complex(t.coef) for t in kernel]
    rates = [complex(t.rate) for t in kernel]
    _require_finite(label, "kernel coefficient", coefs)
    _require_finite(label, "kernel rate", rates)
    exp = max((math.frexp(v)[1] for c in coefs for v in (c.real, c.imag)), default=0)
    terms = []
    with mpmath.workprec(bits):
        T_mp = mpmath.mpf(T)
        for t, c, rate in zip(kernel, coefs, rates):
            e = mpmath.exp(mpmath.mpc(rate) * T_mp)
            coef = _fixed(c.real, bits - exp), _fixed(c.imag, bits - exp)
            terms.append((*coef, _fixed(rate.real, bits), _fixed(rate.imag, bits), rate, t.degree,
                          _mpf_fixed(e.real, bits), _mpf_fixed(e.imag, bits)))
    return _Kernel(exp, bits, terms)


@dataclass
class ControlSolution:
    """Minimum-norm control in the span of the conjugate moment kernels.

    Coefficients are carried in extended precision: the Gram matrix of an
    exponential family is exponentially ill conditioned (the condensation
    phenomenon), so the minimum-norm representation has large, delicately
    cancelling coefficients even though the control function itself is tame.
    ``x`` holds them exactly, one per kept row ``keep``, as a
    :class:`ScaledVector` (the other rows' constraints are implied); every
    closed-form identity downstream reads its current values.  ``gram`` keeps
    the scaled Hermitian Gram of the kept rows (:class:`_Gram`), with the
    kernels ``columns`` on the integers of the solve, so the verification
    reuses the solve's pair integrals.  The constructor refuses ``x`` parts
    or ``columns`` without one entry per kept row.
    """

    system: MomentSystem
    x: ScaledVector
    residual: float
    control_norm: float
    discarded_singular_values: int
    solve_dps: int
    keep: list[int] = field(default_factory=list)
    gram: _Gram | None = field(default=None, repr=False, compare=False)
    columns: list[_Kernel] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.x.re) == len(self.x.im) == len(self.columns) == len(self.keep):
            raise DomainError("the coefficients and kernel columns must align with the kept rows")

    def __call__(self, t) -> np.ndarray:
        """Evaluate p(t) = sum_j x_j conj(k_j(t)).

        Each term ``x conj(coef) (T-t)**degree e^{conj(rate) (T-t)}`` takes its
        exponential from :func:`_exponential_walk`; the products
        ``x conj(coef)`` are exact integers at one scale, and each point's sum
        is exact and rounded once.  Times must be finite.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.isfinite(t).all():
            raise DomainError("control evaluation times must be finite")
        out = np.zeros(t.size, dtype=complex)
        x = self.x
        live = [(a, b, column) for a, b, column in zip(x.re, x.im, self.columns) if a or b]
        if live:
            bits = live[0][2].bits
            low = min(column.exp for _, _, column in live)
            terms = [
                (a * cr + b * ci << k, b * cr - a * ci << k, rate.conjugate(), ar, -ai, degree)
                for a, b, column in live
                for k in (column.exp - low,)
                for cr, ci, ar, ai, rate, degree, _, _ in column.terms
            ]
            wr, wi, rates, rate_re, rate_im, degrees = (list(v) for v in zip(*terms))
            w_exp = x.exp + low - 2 * bits  # of a product w * e^{conj(rate) s}
            T = _fixed(self.system.horizon, bits)
            s_all = [T - _fixed(ti, bits) for ti in t.ravel().tolist()]
            for i, cur_r, cur_i in _exponential_walk(rates, (rate_re, rate_im), s_all, bits):
                ur, ui, exp = wr, wi, w_exp
                if any(degrees):
                    powers = [_shift(s_all[i] ** d, (1 - d) * bits) for d in degrees]  # s**d at bits fraction bits
                    ur, ui, exp = list(map(mul, wr, powers)), list(map(mul, wi, powers)), w_exp - bits
                out[i] = complex(
                    _float(sum(map(mul, ur, cur_r)) - sum(map(mul, ui, cur_i)), exp),
                    _float(sum(map(mul, ur, cur_i)) + sum(map(mul, ui, cur_r)), exp),
                )
        return out.reshape(t.shape)


def _exponential_walk(rates: list[complex], rate_ints: tuple[list, list], s_all: list[int], bits: int) -> Iterator:
    """``(i, re, im)`` of ``e^{rate s_all[i]}`` per rate, for every ``i`` in increasing ``s_all[i]``.

    Rates come as complexes and as integers ``rate_ints`` (real parts,
    imaginary parts), ``s_all`` and the exponentials at ``bits`` fraction
    bits.  The walk starts at ``s = 0`` and carries the exponentials from
    point to point by the step factors ``e^{rate h}``, computed once per
    distinct step ``h``.  The steps of a uniform float grid differ only in
    their last bits, so one exponential per rate is taken, at the first step
    ``h0``, and a step within :data:`_STEP_SERIES_RADIUS` of it gets its
    factors as ``e^{rate h0}`` times the short Taylor series of
    ``e^{rate (h - h0)}``.  Any other step takes its own exponentials and
    becomes the new ``h0``, so scattered points go through the same
    recurrence.  Stepping toward larger ``s`` multiplies by factors of
    modulus at most 1 for decaying rates, so the fixed-point rounding of each
    step is never amplified.
    """
    rate_max = max(map(abs, rates))
    cur_r, cur_i = [1 << bits] * len(rates), [0] * len(rates)
    s_prev = 0
    steps: dict = {}
    base = None  # (h0, factors of h0) of the last step that took exponentials
    with mpmath.workprec(bits):
        rates = [mpmath.mpc(rate) for rate in rates]
        for i in sorted(range(len(s_all)), key=s_all.__getitem__):
            h = s_all[i] - s_prev
            if h:
                factors = steps.get(h)
                if factors is None:
                    if base is not None and rate_max * abs(_float(h - base[0], -bits)) <= _STEP_SERIES_RADIUS:
                        factors = _shifted_factors(base[1], rate_ints, h - base[0], bits)
                    else:
                        h_mp = mpmath.mpf((h, -bits))
                        exps = [mpmath.exp(rate * h_mp) for rate in rates]
                        factors = [_mpf_fixed(e.real, bits) for e in exps], [_mpf_fixed(e.imag, bits) for e in exps]
                        base = (h, factors)
                    steps[h] = factors
                cur_r, cur_i = _complex_products(cur_r, cur_i, *factors, bits)
                s_prev = s_all[i]
            yield i, cur_r, cur_i


def _shifted_factors(factors: tuple[list, list], rates: tuple[list, list], d: int, bits: int) -> tuple[list, list]:
    """``f * e^{rate d}`` per rate, for the factors ``f`` of a step and a small shift ``d`` of it.

    Factors, the real and imaginary parts of the rates and ``d`` are integers
    at ``bits`` fraction bits.  ``e^{rate d}`` is its Taylor series, summed for
    all rates at once until every term falls to one unit of ``2**-bits``; with
    ``|rate d|`` at most :data:`_STEP_SERIES_RADIUS` every term is smaller
    than the last and the sum is near 1, so a few terms suffice and nothing
    cancels.
    """
    fr, fi = factors
    wr, wi = (list(map(rshift, map(mul, part, repeat(d)), repeat(bits))) for part in rates)
    sr, si = [1 << bits] * len(fr), [0] * len(fr)
    tr, ti = sr, si  # (rate d)**k / k!
    k = 0
    while max(map(abs, tr + ti)) > 1:
        k += 1
        tr, ti = (list(map(floordiv, part, repeat(k))) for part in _complex_products(tr, ti, wr, wi, bits))
        sr, si = list(map(add, sr, tr)), list(map(add, si, ti))
    return _complex_products(fr, fi, sr, si, bits)


def _complex_products(ar: list, ai: list, br: list, bi: list, bits: int) -> tuple[list, list]:
    """Real and imaginary parts of ``a[k] * b[k]`` for integers at ``bits`` fraction bits, at ``bits`` again."""
    return (
        list(map(rshift, map(sub, map(mul, ar, br), map(mul, ai, bi)), repeat(bits))),
        list(map(rshift, map(add, map(mul, ar, bi), map(mul, ai, br)), repeat(bits))),
    )


def gram_matrix(system: MomentSystem) -> np.ndarray:
    """Double-precision Gram of the moment kernels (diagnostic view).

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


def _pair_integral(m: int, zr: int, zi: int, ezt: tuple[int, int], T: int, bits: int, near: bool) -> tuple[int, int]:
    """``I_m(z, T)`` (see :mod:`~cnslab.kernels`) on integers at ``bits`` fraction bits.

    ``z``, ``ezt = e^{zT}`` and ``T`` come at ``bits`` fraction bits, so
    callers pairing many rates form ``ezt`` as a product of per-rate
    exponentials.  ``near`` selects the Taylor series in ``zT``
    (``|z| T < TAYLOR_RADIUS``, decided in double precision by the caller),
    which works from ``z`` alone; away from it ``1/z`` enters as
    ``conj(z) / |z|**2``, one division per part and step.
    """
    if near:
        return _taylor(m, zr, zi, T, bits)
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


def _taylor(m: int, zr: int, zi: int, T: int, bits: int) -> tuple[int, int]:
    """Taylor series of ``I_m(z, T)`` in ``zT`` at ``bits`` fraction bits, summed until a term is below ``2**-bits``."""
    total_r = total_i = 0
    pr, pi = 1 << bits, 0  # z**k / k!
    Tp = _shift(T ** (m + 1), -m * bits)  # T**(m + k + 1)
    k = 0
    while True:
        c = Tp // (m + k + 1)
        tr, ti = pr * c, pi * c
        total_r += tr
        total_i += ti
        if abs(tr) + abs(ti) < 1 << bits:
            return total_r >> bits, total_i >> bits
        k += 1
        pr, pi = ((pr * zr - pi * zi) >> bits) // k, ((pr * zi + pi * zr) >> bits) // k
        Tp = (Tp * T) >> bits


def _moment_gram(rows: list[_Kernel], columns: list[_Kernel], T: float, bits: int) -> tuple[list[list], list[list]]:
    """``integral_0^T k_r conj(k_s) dt`` of row kernels against column kernels.

    Kernels come as :func:`_kernel` made them at ``bits`` fraction bits; the
    entries come back as their real and their imaginary parts, two lists of
    lists of integers: entry ``[r][s]`` is ``(re + 1j * im)[r][s] *
    2**(rows[r].exp + columns[s].exp - bits)``.  A term pair's
    ``e^{(a + conj(b)) T}`` is the product ``e^{aT} conj(e^{bT})``.  The
    products of an entry are summed exactly and shifted once.  When ``rows``
    is ``columns`` the Gram is Hermitian: only the upper triangle is
    integrated, and the lower one mirrors it.
    """
    hermitian = rows is columns
    T_int = _fixed(T, bits)
    re = [[0] * len(columns) for _ in rows]
    im = [[0] * len(columns) for _ in rows]
    for i, row in enumerate(rows):
        for j in range(i if hermitian else 0, len(columns)):
            sr = si = 0
            for car, cai, ar, ai, a, da, ear, eai in row.terms:
                for cbr, cbi, br, bi, b, db, ebr, ebi in columns[j].terms:
                    Ir, Ii = _pair_integral(
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


def _unit_diagonal(re: list[list], im: list[list], exps: list[int], bits: int) -> _Gram:
    """The Hermitian Gram of :func:`_moment_gram` with rows and columns scaled to a unit diagonal (:class:`_Gram`).

    Row and column ``i`` are multiplied by the power of two ``2**s[i]`` that
    brings the diagonal entry into ``[1, 4)``, an exact shift that leaves
    Cholesky's rounding errors as they were relative to the diagonal.  The
    entries gain ``-2 * min(s)`` fraction bits, so every shift is to the left.
    """
    s = [(bits + 2 - re[i][i].bit_length()) // 2 if re[i][i] > 0 else 0 for i in range(len(re))]
    low = min(s, default=0)
    u = [v - low for v in s]
    return _Gram(
        [list(map(lshift, map(lshift, row, u), repeat(ui))) for row, ui in zip(re, u)],
        [list(map(lshift, map(lshift, row, u), repeat(ui))) for row, ui in zip(im, u)],
        [e - v for e, v in zip(exps, s)],
        bits - 2 * low,
    )


def _shift_all(values: list[int], k: int) -> list[int]:
    """:func:`_shift` of every value by ``k``."""
    return list(map(lshift, values, repeat(k))) if k >= 0 else list(map(rshift, values, repeat(-k)))


def _cholesky(gram: _Gram, bits: int) -> tuple[list, list, list] | None:
    """``H = L L^H`` for the scaled Hermitian positive definite ``H`` of ``gram``, at ``bits`` fraction bits.

    ``L`` is kept row by row as the real parts, the imaginary parts and the
    diagonal.  Each entry's inner product with an earlier row is one C-level
    ``sum(map(mul, ...))`` of integers per part, exact, over the row's real
    and imaginary parts side by side, and the entry is rounded once, by its
    division.  Returns None at the first pivot that is not positive: ``H`` is
    not numerically definite at this precision.
    """
    Lr: list[list] = []
    Li: list[list] = []
    d: list = []
    # earlier rows j as [re, im] and [-im, re]: the real and the imaginary part of L[i] . conj(L[j])
    rows_re: list[list] = []
    rows_im: list[list] = []
    scale = 2 * bits - gram.bits  # the entries of H at 2 * bits fraction bits, like the products of L
    for i in range(len(gram.re)):
        gr = _shift_all(gram.re[i][: i + 1], scale)
        gi = _shift_all(gram.im[i][:i], scale)
        ri: list = []
        ii: list = []
        for j in range(i):
            row = ri + ii
            ri.append((gr[j] - sum(map(mul, row, rows_re[j]))) // d[j])
            ii.append((gi[j] - sum(map(mul, row, rows_im[j]))) // d[j])
        pivot = gr[i] - sum(map(mul, ri, ri)) - sum(map(mul, ii, ii))
        if pivot <= 0:
            return None
        d.append(math.isqrt(pivot))
        Lr.append(ri)
        Li.append(ii)
        rows_re.append(ri + ii)
        rows_im.append(list(map(neg, ii)) + ri)
    return Lr, Li, d


def _cholesky_solve(factor: tuple[list, list, list], b: ScaledVector, bits: int) -> ScaledVector:
    """``x`` with ``L L^H x = b`` for the factor of :func:`_cholesky` at ``bits`` fraction bits.

    ``b`` is first shifted so that its largest part lies just below 1, so
    both substitutions work at ``bits`` bits relative to ``b``.
    """
    Lr, Li, d = factor
    m = len(d)
    shift = bits - max(v.bit_length() for v in b.re + b.im)
    yr, yi = _substitute(Lr, Li, d, _shift_all(b.re, shift + bits), _shift_all(b.im, shift + bits))
    # L^H x = y from the last row up: row i of L^H holds conj(L[k][i]) for k > i
    rows = range(m - 1, -1, -1)
    xr, xi = _substitute(
        [[Lr[k][i] for k in range(m - 1, i, -1)] for i in rows],
        [[-Li[k][i] for k in range(m - 1, i, -1)] for i in rows],
        d[::-1],
        _shift_all(yr[::-1], bits),
        _shift_all(yi[::-1], bits),
    )
    return ScaledVector(xr[::-1], xi[::-1], b.exp - shift)


def _substitute(Lr: list[list], Li: list[list], d: list, br: list, bi: list) -> tuple[list, list]:
    """Forward substitution ``L y = b`` on integers: row ``i`` of ``L`` is ``Lr[i] + 1j * Li[i]`` left of ``d[i]``.

    ``L`` and ``y`` share one count of fraction bits, and ``b`` has twice it.
    """
    yr: list = []
    yi: list = []
    for lr, li, di, vr, vi in zip(Lr, Li, d, br, bi):
        sr = vr - sum(map(mul, lr, yr)) + sum(map(mul, li, yi))
        si = vi - sum(map(mul, lr, yi)) - sum(map(mul, li, yr))
        yr.append(sr // di)
        yi.append(si // di)
    return yr, yi


def _combine(op, a: ScaledVector, b: ScaledVector) -> ScaledVector:
    """``a + b`` (``op`` is ``add``) or ``a - b`` (``sub``), exactly, at the smaller of their two scales."""
    exp = min(a.exp, b.exp)
    parts = ((a.re, b.re), (a.im, b.im))
    return ScaledVector(*(list(map(op, _shift_all(p, a.exp - exp), _shift_all(q, b.exp - exp))) for p, q in parts), exp)


def _gram_times(re: list[list], im: list[list], xr: list, xi: list) -> tuple[list, list]:
    """Real and imaginary parts of ``G x`` on integers, row by row, exactly."""
    return (
        [sum(map(mul, g, xr)) - sum(map(mul, h, xi)) for g, h in zip(re, im)],
        [sum(map(mul, g, xi)) + sum(map(mul, h, xr)) for g, h in zip(re, im)],
    )


def _residual(gram: _Gram, y: ScaledVector, b: ScaledVector) -> ScaledVector:
    """``b - H y`` for the scaled Gram ``H`` of ``gram``, exactly."""
    return _combine(sub, b, ScaledVector(*_gram_times(gram.re, gram.im, y.re, y.im), y.exp - gram.bits))


def _rescaled(v: ScaledVector, exps: list[int]) -> ScaledVector:
    """``v[k] * 2**exps[k]`` per entry, exactly, at one scale."""
    low = min(exps)
    shifts = [e - low for e in exps]
    return ScaledVector(list(map(lshift, v.re, shifts)), list(map(lshift, v.im, shifts)), v.exp + low)


def _norm(v: ScaledVector) -> float:
    """Euclidean norm of ``v`` as a float."""
    return math.hypot(*(_float(p, v.exp) for p in v.re + v.im))


def _scaled_targets(targets: list[complex], exps: list[int], bits: int) -> ScaledVector:
    """The finite targets times ``2**-exps[k]``, each to ``bits`` bits below the largest of them."""
    top = max((math.frexp(p)[1] - e for v, e in zip(targets, exps) for p in (v.real, v.imag) if p), default=0)
    exp = top - bits
    re = [_fixed(v.real, -exp - e) for v, e in zip(targets, exps)]
    return ScaledVector(re, [_fixed(v.imag, -exp - e) for v, e in zip(targets, exps)], exp)


def _sqrt_float(n: int, exp: int) -> float:
    """``sqrt(n * 2**exp)`` for ``n >= 0``, rounded to a float from an integer square root of at least 64 bits."""
    k = max(0, 130 - n.bit_length())
    k += (exp - k) % 2
    return _float(math.isqrt(n << k), (exp - k) // 2)


def _duplicate_row_structure(system: MomentSystem) -> tuple[list[int], list[tuple[int, int]], list[tuple[int, int, complex]]]:
    """Split rows into kept and dropped-by-proportionality, with constants.

    A row proportional to an earlier kept one (:func:`_proportional_rows`;
    the first such row is its base) is redundant when its target matches the
    proportionality constant and contradictory otherwise.
    """
    rows = system.rows
    base: dict[int, int] = {}
    # by later row, then earlier row: a row's own base is settled before any pair naming it as the earlier one
    for i, j in sorted(_proportional_pairs(rows), key=lambda pair: pair[::-1]):
        if i not in base:
            base.setdefault(j, i)
    inconsistent: list[tuple[int, int]] = []
    dropped: list[tuple[int, int, complex]] = []
    for j, i in sorted(base.items()):
        c = rows[j].kernel[0].coef / rows[i].kernel[0].coef
        scale = max(abs(rows[j].target), abs(rows[i].target), 1e-300)
        if abs(rows[j].target - c * rows[i].target) <= 1e-8 * scale:
            dropped.append((j, i, c))
        else:
            inconsistent.append((i, j))
    return [j for j in range(len(rows)) if j not in base], inconsistent, dropped


def _discarded_singular_values(system: MomentSystem, keep: list[int]) -> int:
    """The number of singular values of the kept rows' normalized double-precision Gram.

    Counted are those at most :data:`_SVD_THRESHOLD` of the largest.
    """
    if not keep:
        return 0
    G_keep = gram_matrix(system)[np.ix_(keep, keep)]
    if not np.all(np.isfinite(G_keep)):
        raise ArithmeticFailure("the double-precision moment Gram is not finite")
    diag = np.sqrt(np.maximum(np.real(np.diag(G_keep)), 1e-300))
    svals = np.linalg.svd(G_keep / np.outer(diag, diag), compute_uv=False)
    return int(np.sum(svals <= _SVD_THRESHOLD * svals[0]))


def synthesize_control(system: MomentSystem) -> ControlSolution:
    """Minimum-norm solve of the Gram-projected moment system.

    Structurally proportional rows are deduplicated first: contradictory
    targets on a shared kernel direction are exactly the unique-continuation
    obstruction and raise :class:`RankDeficient`.  The remaining Hermitian
    positive definite system is solved by Cholesky on scaled integers at
    40, 80, 160 and then 320 digits (see :func:`_ladder_solve`) until the
    moment residual is at most 1e-12; a non-positive pivot moves to the next
    precision, and running out of precisions raises :class:`RankDeficient`
    with the best residual reached.  A non-finite target, kernel coefficient
    or rate raises :class:`ArithmeticFailure` naming its row; targets are
    checked first, those of duplicate rows included.
    Singular values below :data:`_SVD_THRESHOLD` of the largest are
    reported, never silently inverted in double precision.  Zero targets
    (or no rows) give the zero control without a solve.
    """
    for i, row in enumerate(system.rows):
        _require_finite(f"moment row {i} (mode {row.n})", "target", [row.target])
    keep, inconsistent, dropped = _duplicate_row_structure(system)
    if inconsistent:
        raise RankDeficient(
            "proportional moment kernels with contradictory targets "
            f"(unique continuation obstruction): row pairs {inconsistent}",
            rows=inconsistent,
        )
    solve_dps, residual, control_norm, solved, x, gram, columns = 15, 0.0, 0.0, [], ScaledVector([], [], 0), None, []
    if float(np.linalg.norm(system.targets)) != 0.0:
        solve_dps, residual, control_norm, x, gram, columns = _ladder_solve(system, keep)
        solved = keep
    return ControlSolution(
        system=system,
        x=x,
        residual=residual,
        control_norm=control_norm,
        discarded_singular_values=_discarded_singular_values(system, keep) + len(dropped),
        solve_dps=solve_dps,
        keep=solved,
        gram=gram,
        columns=columns,
    )


def _ladder_solve(system: MomentSystem, keep: list[int]) -> tuple:
    """``(digits, residual, control norm, x, Gram, columns)`` of the kept rows' Cholesky solve.

    Precisions of :data:`_DPS_LADDER` are tried in turn, as
    :func:`synthesize_control` describes.  At a rung of ``dps`` digits the
    factorization and the substitutions work at mpmath's
    ``dps_to_prec(dps)`` bits; the Gram, its exponentials and the residual
    carry :data:`_GUARD_BITS` more, and :func:`_range_bits` more again.  The
    scaled system ``H y = D b`` with ``H = D G D`` (``D`` the powers of two
    of :func:`_unit_diagonal`) is solved, and ``x = D y``.
    """
    rows = [system.rows[i] for i in keep]
    targets = [complex(row.target) for row in rows]
    b_norm = math.hypot(*(p for v in targets for p in (v.real, v.imag)))
    extra = _GUARD_BITS + _range_bits(rows, system.horizon)
    best_residual = math.inf
    for dps in _DPS_LADDER:
        prec = mpmath.libmp.dps_to_prec(dps)
        bits = prec + extra
        columns = [_kernel(f"moment row {i} (mode {r.n})", r.kernel, system.horizon, bits) for i, r in zip(keep, rows)]
        gram = _unit_diagonal(*_moment_gram(columns, columns, system.horizon, bits), [c.exp for c in columns], bits)
        b = _scaled_targets(targets, gram.exps, bits)
        factor = _cholesky(gram, prec)
        if factor is None:
            continue
        y = _cholesky_solve(factor, b, prec)
        r = _residual(gram, y, b)
        # b - G x = D^-1 (D b - H y)
        residual = _norm(_rescaled(r, gram.exps)) / b_norm
        best_residual = min(best_residual, residual)
        if residual <= _RESIDUAL_TOL:
            # one step of refinement: the rung's arithmetic leaves an error of
            # about cond(H) 2**-prec in y, the guard-bit residual and Gram
            # bring it to about cond(H) 2**-(prec + guard)
            y = _combine(add, y, _cholesky_solve(factor, r, prec))
            r = _residual(gram, y, b)
            residual = _norm(_rescaled(r, gram.exps)) / b_norm
            # x^H G x = y^H H y with H y = D b - r
            hy = _combine(sub, b, r)
            energy = sum(map(mul, y.re, hy.re)) + sum(map(mul, y.im, hy.im))
            x = _rescaled(y, [-e for e in gram.exps])
            return dps, residual, _sqrt_float(abs(energy), y.exp + hy.exp), x, gram, columns
    reached = (
        f"best moment residual {best_residual:.3e} > {_RESIDUAL_TOL:g}"
        if best_residual < math.inf
        else "Gram matrix not positive definite"
    )
    raise RankDeficient(
        f"Gram system unsolvable at {_DPS_LADDER[-1]} digits: {reached}; "
        f"{_discarded_singular_values(system, keep)} singular values below {_SVD_THRESHOLD:g} of the largest",
        rows=system.rank_deficiency_groups,
    )


@dataclass
class VerificationRecord:
    in_truncation_residual: float
    spillover: dict[int, float]
    per_row_residuals: dict[tuple[int, int, int], float]
    control_norm: float
    rank: int
    discarded_singular_values: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "in_trunc_residual": self.in_truncation_residual,
            "spillover": {str(k): v for k, v in sorted(self.spillover.items())},
            "control_norm": self.control_norm,
            "rank": self.rank,
            "discarded_svals": self.discarded_singular_values,
        }


def _row_key(row: MomentRow) -> tuple:
    return row.n, row.cluster_index, row.level, row.kernel


def verify_terminal(
    U0: SpectralField,
    solution: ControlSolution,
    system: MomentSystem,
    slice_: SpectrumSlice,
    N_verify: int,
) -> VerificationRecord:
    """Replay the duality identity on a strict superset of the truncation.

    For every basis element of every mode ``|n| <= N_verify`` the terminal
    pairing ``<U(T), Psi> = -target + sum_s G[r][s] x_s`` is evaluated in
    closed form from the solution's current coefficients; rows inside the
    truncation contribute to the (relative) in-truncation residual, rows
    beyond it are reported as spill-over magnitudes.  The cross-Gram rows
    ``G[r]`` of the kept rows are those of the solve; only the spill-over
    rows and the dropped duplicate rows are integrated here.  The slice must
    reproduce the rows of ``system`` inside the truncation.
    """
    if N_verify < system.truncation:
        raise DomainError("verification window must cover the synthesis truncation")
    if N_verify > slice_.N:
        raise DomainError(f"slice covers |n| <= {slice_.N} < requested window {N_verify}")
    if solution.system is not system:
        raise DomainError("the solution was synthesized for another moment system")
    rows = list(_chain_rows(U0, system.channel, system.horizon, slice_, N_verify))
    inside = [abs(row.n) <= system.truncation for _, row in rows]
    if [_row_key(row) for (_, row), i in zip(rows, inside) if i] != [_row_key(row) for row in system.rows]:
        raise DomainError("the verification slice does not reproduce the moment rows of the system")
    # each verification row's row of the solve's Gram: kept rows inside the
    # truncation have one, spill-over and dropped duplicate rows have None
    kept_position = {row: k for k, row in enumerate(solution.keep)}
    system_index = itertools.count()
    gram_rows = [kept_position.get(next(system_index)) if i else None for i in inside]

    per_row: dict[tuple[int, int, int], float] = {}
    spill: dict[int, float] = {}
    in_trunc_sq = 0.0
    target_sq = 0.0
    forced = _forced_pairings(solution, [row for _, row in rows], gram_rows)
    for (j, row), (fr, fi, exp) in zip(rows, forced):
        free = -complex(row.target)
        _require_finite(f"verification row, mode {row.n}", "target", [free])
        # free + G[r] x, summed exactly and rounded once
        terminal_pairing = complex(_float(_fixed(free.real, -exp) + fr, exp), _float(_fixed(free.imag, -exp) + fi, exp))
        per_row[(row.n, row.cluster_index, j)] = abs(terminal_pairing)
        if abs(row.n) <= system.truncation:
            in_trunc_sq += abs(terminal_pairing) ** 2
            target_sq += abs(free) ** 2
        else:
            spill[row.n] = max(spill.get(row.n, 0.0), abs(terminal_pairing))

    scale = math.sqrt(target_sq) if target_sq > 0 else 1.0
    return VerificationRecord(
        in_truncation_residual=math.sqrt(in_trunc_sq) / scale,
        spillover=spill,
        per_row_residuals=per_row,
        control_norm=solution.control_norm,
        rank=len(system.rows) - solution.discarded_singular_values,
        discarded_singular_values=solution.discarded_singular_values,
    )


def _forced_pairings(solution: ControlSolution, rows: list[MomentRow], gram_rows: list[int | None]) -> list[tuple]:
    """``G[r] x`` per row as ``(re, im, exp)``, the pairing ``(re + 1j * im) * 2**exp`` exact.

    A row with a row ``g`` of the solve's Gram reads it; a row with None
    (spill-over and dropped duplicate rows) is integrated against the kept
    columns here.
    """
    gram = solution.gram
    if gram is None:
        return [(0, 0, -1074)] * len(rows)  # no kept rows: the zero control; 2**-1074 holds every float exactly
    T, bits = solution.system.horizon, solution.columns[0].bits
    fresh = [_kernel(f"verification row, mode {r.n}", r.kernel, T, bits) for r, g in zip(rows, gram_rows) if g is None]
    # x times the column scales of the solve's Gram and of the cross rows integrated here
    kept_x = _rescaled(solution.x, gram.exps)
    fresh_x = _rescaled(solution.x, [column.exp for column in solution.columns])
    kept_re, kept_im = _gram_times(gram.re, gram.im, kept_x.re, kept_x.im)
    fresh_rows = zip(
        *_gram_times(*_moment_gram(fresh, solution.columns, T, bits), fresh_x.re, fresh_x.im),
        [kernel.exp - bits + fresh_x.exp for kernel in fresh],
    )
    return [
        next(fresh_rows) if g is None else (kept_re[g], kept_im[g], gram.exps[g] - gram.bits + kept_x.exp)
        for g in gram_rows
    ]


def export_control_csv(solution: ControlSolution, grid: np.ndarray, path) -> None:
    """Write ``t,p`` on a uniform grid; complex controls carry both parts."""
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
