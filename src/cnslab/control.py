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
than hidden in a black-box solver.  The extended-precision arithmetic runs
on complex pairs of ``decimal.Decimal``; mpmath supplies one exponential
``e^{rate T}`` per kernel term, and terms are paired by products.

Verification replays the duality identity mode by mode in closed form,
inside and beyond the synthesis truncation (terminal spill-over), reading
the solve's Gram for the rows it already holds.
"""

from __future__ import annotations

import csv
import decimal
import itertools
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import Decimal
from operator import add, mul, sub
from typing import Any

import mpmath
import numpy as np

from .errors import ArithmeticFailure, DomainError, InfeasibleRow, RankDeficient
from .evolution import ObservationChannel, boundary_control_weight, chain_links, channel_dim_ok, observation_values
from .fields import NormSpec, SpectralField, _complete_basis
from .kernels import TAYLOR_RADIUS, KernelTerm, pair_integrals, poly_exp_integral_dec
from .kernels import poly_exp_integral_mp  # noqa: F401  (perfbench/spans.py traces this name)
from .spectrum import SpectrumSlice

#: working precisions (decimal digits) tried in turn until the moment residual is met
_DPS_LADDER = (40, 80, 160, 320)
_RESIDUAL_TOL = 1e-12
#: decimal signals that end the extended-precision arithmetic with ArithmeticFailure
_TRAPS = (decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow)
#: extra digits of the Gram, its exponentials and the residual that refines the solution
_GUARD_DIGITS = 10
_ZERO = Decimal(0)
_TWO = Decimal(2)


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
    weight: float
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
    pairing ``e^{conj(nu) T} sum_k T**k / k! <U0, Phi_{c-k}>_w``.  A mode
    without a full basis block is refused, as in the expansion.
    """
    params = slice_.params
    w_ch = boundary_control_weight(channel, params)
    norm_spec = NormSpec.weighted_l2(params)
    table = _complete_basis(slice_)
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
    if not channel_dim_ok(channel, slice_.dim):
        raise DomainError("temperature channel requires the three-field system")
    if np.any(U0.coeffs[U0.N] != 0.0):
        raise DomainError("moment targets require a mean-zero initial state")
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
        weight=boundary_control_weight(channel, slice_.params),
        below_critical_time=(T <= 2.0 * np.pi / slice_.params.u_bar),
        rank_deficiency_groups=_rank_deficiency_groups(rows),
    )


def _rank_deficiency_groups(rows: list[MomentRow]) -> list[tuple[int, int]]:
    """Pairs of rows from distinct modes with proportional kernels."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(rows)), 2)
        if rows[i].n != rows[j].n and _proportional_rows(rows[i], rows[j])
    ]


@contextmanager
def _working_digits(dps: int) -> Iterator[None]:
    """mpmath at ``dps`` digits and a decimal context at least as precise.

    The decimal context keeps the fewest digits whose unit roundoff
    ``10**(1 - digits) / 2`` is at most mpmath's ``2**-prec`` at ``dps``
    (42 digits at the 40-digit rung), so a rung rounds no coarser than its
    mpmath exponentials.  Invalid operations, division by zero and overflow
    trap, and a trapped signal becomes :class:`ArithmeticFailure`.
    """
    digits = math.ceil(1 + (mpmath.libmp.dps_to_prec(dps) - 1) * math.log10(2))
    try:
        with decimal.localcontext(decimal.Context(prec=digits, traps=list(_TRAPS))), mpmath.workdps(dps):
            yield
    except _TRAPS as exc:
        raise ArithmeticFailure(f"{type(exc).__name__} in the {dps}-digit moment arithmetic") from exc


@contextmanager
def _guard_digits() -> Iterator[None]:
    """The active decimal and mpmath precisions raised by :data:`_GUARD_DIGITS` digits."""
    with decimal.localcontext() as context, mpmath.workdps(mpmath.mp.dps + _GUARD_DIGITS):
        context.prec += _GUARD_DIGITS
        yield


def _decimal(x) -> Decimal:
    """An mpmath real as a Decimal of the active context; infinities and NaN map to their Decimal forms."""
    sign, man, exp, _ = x._mpf_
    if not man:
        return Decimal(float(x))
    value = man * _TWO**exp
    return -value if sign else value


def _pair(z) -> tuple[Decimal, Decimal]:
    """An mpmath complex as a pair of Decimals."""
    return _decimal(z.real), _decimal(z.imag)


def _mpc(re: Decimal, im: Decimal):
    """A pair of Decimals as an mpmath complex at the working precision."""
    return mpmath.mpc(mpmath.mpf(str(re)), mpmath.mpf(str(im)))


def _decimal_terms(kernel: list[KernelTerm], T: float) -> list[tuple]:
    """``(coef, rate, rate as complex, degree, e^{rate T})`` per kernel term.

    Complex values are pairs of Decimals.  Each term costs one mpmath
    exponential, taken with guard digits like the Gram it enters.
    """
    terms = []
    with _guard_digits():
        T_mp = mpmath.mpf(T)
        for t in kernel:
            coef, rate = complex(t.coef), complex(t.rate)
            e = _pair(mpmath.exp(mpmath.mpc(rate) * T_mp))
            pair = (Decimal(coef.real), Decimal(coef.imag)), (Decimal(rate.real), Decimal(rate.imag))
            terms.append((*pair, rate, t.degree, e))
    return terms


@dataclass
class ControlSolution:
    """Minimum-norm control in the span of the conjugate moment kernels.

    Coefficients are carried in extended precision: the Gram matrix of an
    exponential family is exponentially ill conditioned (the condensation
    phenomenon), so the minimum-norm representation has large, delicately
    cancelling coefficients even though the control function itself is tame.
    ``coefficients_mp`` is the public view of them, one per row (zero on
    dropped rows); every closed-form identity downstream reads its current
    values.  ``gram`` keeps the Hermitian Gram of the kept rows ``keep`` at
    the solve precision, with the prepared terms ``columns`` of their
    kernels, so the verification reuses the solve's pair integrals.
    """

    system: MomentSystem
    coefficients: np.ndarray
    coefficients_mp: list
    residual: float
    control_norm: float
    svd_threshold: float
    discarded_singular_values: int
    singular_values: np.ndarray
    below_critical_time: bool
    solve_dps: int
    keep: list[int] = field(default_factory=list)
    gram: tuple[list, list] = field(default=((), ()), repr=False, compare=False)
    columns: list = field(default_factory=list, repr=False, compare=False)

    def _kept_coefficients(self) -> tuple[list[Decimal], list[Decimal]]:
        """Real and imaginary parts of the kept rows' current coefficients.

        The control lies in the span of the kept kernels, so a nonzero
        coefficient on any other row is refused.
        """
        kept = set(self.keep)
        if any(x != 0 for i, x in enumerate(self.coefficients_mp) if i not in kept):
            raise DomainError("coefficients outside the rows of the solved Gram must be zero")
        pairs = [_pair(mpmath.mpc(self.coefficients_mp[i])) for i in self.keep]
        return [re for re, _ in pairs], [im for _, im in pairs]

    def __call__(self, t) -> np.ndarray:
        """Evaluate p(t) = sum_j x_j conj(k_j(t)).

        With ``s = T - t``, each term's ``e^{rate s}`` is carried from point to
        point by the step factor ``e^{rate h}``, computed once per distinct
        step ``h``: a uniform grid has a handful of distinct steps, and any
        other set of points goes through the same recurrence.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t.size, dtype=complex)
        with _working_digits(self.solve_dps):
            xr, xi = self._kept_coefficients()
            # x conj(coef) (T-t)**degree e^{conj(rate) (T-t)} per term of a kept row with x != 0
            terms = [
                (a * cr + b * ci, b * cr - a * ci, mpmath.mpc(rate.conjugate()), degree, er, -ei)
                for a, b, column in zip(xr, xi, self.columns)
                if a or b
                for (cr, ci), _, rate, degree, (er, ei) in column
            ]
            if terms:
                wr, wi, rates, degrees, cur_r, cur_i = (list(v) for v in zip(*terms))
                T = mpmath.mpf(self.system.horizon)
                s_prev = T
                steps: dict = {}
                for i, ti in enumerate(t.ravel()):
                    s = T - mpmath.mpf(float(ti))
                    h = s - s_prev
                    if h != 0:
                        factors = steps.get(h)
                        if factors is None:
                            pairs = [_pair(mpmath.exp(rate * h)) for rate in rates]
                            factors = steps[h] = ([re for re, _ in pairs], [im for _, im in pairs])
                        fr, fi = factors
                        cur_r, cur_i = (
                            list(map(sub, map(mul, cur_r, fr), map(mul, cur_i, fi))),
                            list(map(add, map(mul, cur_r, fi), map(mul, cur_i, fr))),
                        )
                        s_prev = s
                    ur, ui = wr, wi
                    if any(degrees):
                        sd = _decimal(s)
                        powers = [sd**d if d else 1 for d in degrees]  # decimal refuses 0 ** 0
                        ur, ui = list(map(mul, wr, powers)), list(map(mul, wi, powers))
                    out[i] = complex(
                        float(sum(map(mul, ur, cur_r)) - sum(map(mul, ui, cur_i))),
                        float(sum(map(mul, ur, cur_i)) + sum(map(mul, ui, cur_r))),
                    )
        return out.reshape(t.shape)


def gram_matrix(system: MomentSystem) -> np.ndarray:
    """Double-precision Gram of the moment kernels (diagnostic view).

    All term pairings ``c_a conj(c_b) K[a, b]`` come from one broadcast call
    and are summed into their rows by a 0/1 incidence matrix.
    """
    terms = [t for row in system.rows for t in row.kernel]
    c = np.array([t.coef for t in terms], dtype=complex)
    rates = np.array([t.rate for t in terms], dtype=complex)
    K = pair_integrals(rates, np.array([t.degree for t in terms], dtype=np.int64), system.horizon)
    incidence = np.zeros((len(system.rows), len(terms)))
    incidence[np.repeat(np.arange(len(system.rows)), [len(r.kernel) for r in system.rows]), np.arange(len(terms))] = 1.0
    return incidence @ ((c[:, None] * c.conj()[None, :]) * K) @ incidence.T


def _moment_gram(rows: list[list[tuple]], columns: list[list[tuple]], T: float) -> tuple[list[list], list[list]]:
    """``integral_0^T k_r conj(k_s) dt`` of row kernels against column kernels.

    Kernels come as :func:`_decimal_terms`; the entries come back as their
    real and their imaginary parts, two lists of lists of Decimals.  A term
    pair's ``e^{(a + conj(b)) T}`` is the product ``e^{aT} conj(e^{bT})``.
    When ``rows`` is ``columns`` the Gram is Hermitian: only the upper
    triangle is integrated, and the lower one mirrors it.  Entries are
    summed with guard digits: the terms of chain rows cancel, and the
    refinement of the solve needs a Gram more accurate than its arithmetic.
    """
    hermitian = rows is columns
    T_dec = Decimal(T)
    re = [[_ZERO] * len(columns) for _ in rows]
    im = [[_ZERO] * len(columns) for _ in rows]
    with _guard_digits():
        for i, row in enumerate(rows):
            for j in range(i if hermitian else 0, len(columns)):
                sr = si = _ZERO
                for (car, cai), (ar, ai), a, da, (ear, eai) in row:
                    for (cbr, cbi), (br, bi), b, db, (ebr, ebi) in columns[j]:
                        Ir, Ii = poly_exp_integral_dec(
                            da + db,
                            (ar + br, ai - bi),
                            (ear * ebr + eai * ebi, eai * ebr - ear * ebi),
                            T_dec,
                            abs(a + b.conjugate()) * T < TAYLOR_RADIUS,
                        )
                        wr, wi = car * cbr + cai * cbi, cai * cbr - car * cbi
                        sr += wr * Ir - wi * Ii
                        si += wr * Ii + wi * Ir
                re[i][j], im[i][j] = sr, si
                if hermitian and j != i:
                    re[j][i], im[j][i] = sr, -si
    return re, im


def _cholesky(Gr: list[list], Gi: list[list]) -> tuple[list, list, list] | None:
    """``G = L L^H`` for Hermitian positive definite ``G`` in the active decimal context.

    ``L`` is kept row by row as the real parts, the imaginary parts and the
    diagonal, so that every inner product is a C-level ``sum(map(mul, ...))``.
    Returns None at the first pivot that is not positive: ``G`` is not
    numerically definite at this precision.
    """
    Lr: list[list] = []
    Li: list[list] = []
    d: list = []
    for i in range(len(Gr)):
        ri: list = []
        ii: list = []
        for j in range(i):
            # G[i][j] - sum_k L[i][k] conj(L[j][k])
            sr = Gr[i][j] - sum(map(mul, ri, Lr[j])) - sum(map(mul, ii, Li[j]))
            si = Gi[i][j] - sum(map(mul, ii, Lr[j])) + sum(map(mul, ri, Li[j]))
            ri.append(sr / d[j])
            ii.append(si / d[j])
        pivot = Gr[i][i] - sum(map(mul, ri, ri)) - sum(map(mul, ii, ii))
        if not pivot > 0:
            return None
        d.append(pivot.sqrt())
        Lr.append(ri)
        Li.append(ii)
    return Lr, Li, d


def _cholesky_solve(factor: tuple[list, list, list], br: list, bi: list) -> tuple[list, list]:
    """Real and imaginary parts of ``x`` with ``L L^H x = b`` for the factor of :func:`_cholesky`."""
    Lr, Li, d = factor
    m = len(d)
    # L y = b
    yr: list = []
    yi: list = []
    for i in range(m):
        sr = br[i] - sum(map(mul, Lr[i], yr)) + sum(map(mul, Li[i], yi))
        si = bi[i] - sum(map(mul, Lr[i], yi)) - sum(map(mul, Li[i], yr))
        yr.append(sr / d[i])
        yi.append(si / d[i])
    # L^H x = y
    xr: list = [_ZERO] * m
    xi: list = [_ZERO] * m
    for i in reversed(range(m)):
        cr = [Lr[k][i] for k in range(i + 1, m)]
        ci = [Li[k][i] for k in range(i + 1, m)]
        sr = yr[i] - sum(map(mul, cr, xr[i + 1 :])) - sum(map(mul, ci, xi[i + 1 :]))
        si = yi[i] - sum(map(mul, cr, xi[i + 1 :])) + sum(map(mul, ci, xr[i + 1 :]))
        xr[i] = sr / d[i]
        xi[i] = si / d[i]
    return xr, xi


def _norm(re: list, im: list) -> Decimal:
    """Euclidean norm of the complex vector with real parts ``re`` and imaginary parts ``im``."""
    return (sum(map(mul, re, re)) + sum(map(mul, im, im))).sqrt()


def _residual(Gr: list[list], Gi: list[list], xr: list, xi: list, br: list, bi: list) -> tuple[list, list]:
    """Real and imaginary parts of ``b - G x``, formed with guard digits."""
    with _guard_digits():
        gx_r, gx_i = _gram_times(Gr, Gi, xr, xi)
        return list(map(sub, br, gx_r)), list(map(sub, bi, gx_i))


def _gram_times(Gr: list[list], Gi: list[list], xr: list, xi: list) -> tuple[list, list]:
    """Real and imaginary parts of ``G x``, row by row."""
    return (
        [sum(map(mul, g, xr)) - sum(map(mul, h, xi)) for g, h in zip(Gr, Gi)],
        [sum(map(mul, g, xi)) + sum(map(mul, h, xr)) for g, h in zip(Gr, Gi)],
    )


def _duplicate_row_structure(system: MomentSystem) -> tuple[list[int], list[tuple[int, int]], list[tuple[int, int, complex]]]:
    """Split rows into kept and dropped-by-proportionality, with constants.

    A row proportional to an earlier kept one (:func:`_proportional_rows`) is
    redundant when its target matches the proportionality constant and
    contradictory otherwise.
    """
    keep: list[int] = []
    inconsistent: list[tuple[int, int]] = []
    dropped: list[tuple[int, int, complex]] = []
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


def _singular_values(system: MomentSystem, keep: list[int], svd_threshold: float) -> tuple[np.ndarray, int]:
    """Singular values of the kept rows' normalized double-precision Gram.

    Returned with the number of them at most ``svd_threshold`` of the largest.
    """
    G_keep = gram_matrix(system)[np.ix_(keep, keep)]
    if not np.all(np.isfinite(G_keep)):
        raise ArithmeticFailure("the double-precision moment Gram is not finite")
    diag = np.sqrt(np.maximum(np.real(np.diag(G_keep)), 1e-300))
    svals = np.linalg.svd(G_keep / np.outer(diag, diag), compute_uv=False)
    return svals, int(np.sum(svals <= svd_threshold * svals[0]))


def synthesize_control(system: MomentSystem, svd_threshold: float = 1e-12) -> ControlSolution:
    """Minimum-norm solve of the Gram-projected moment system.

    Structurally proportional rows are deduplicated first: contradictory
    targets on a shared kernel direction are exactly the unique-continuation
    obstruction and raise :class:`RankDeficient`.  The remaining Hermitian
    positive definite system is solved by Cholesky on complex pairs of
    Decimals at 40, 80, 160 and then 320 digits (see
    :func:`_working_digits`) until the moment residual is at most 1e-12; a
    non-positive pivot moves to the next precision, and running out of
    precisions raises :class:`RankDeficient` with the best residual reached.
    Singular values below ``svd_threshold`` of the largest are reported,
    never silently inverted in double precision.
    """
    if len(system.rows) == 0:
        return ControlSolution(
            system=system,
            coefficients=np.zeros(0, dtype=complex),
            coefficients_mp=[],
            residual=0.0,
            control_norm=0.0,
            svd_threshold=svd_threshold,
            discarded_singular_values=0,
            singular_values=np.zeros(0),
            below_critical_time=system.below_critical_time,
            solve_dps=15,
        )
    keep, inconsistent, dropped = _duplicate_row_structure(system)
    if inconsistent:
        raise RankDeficient(
            "proportional moment kernels with contradictory targets "
            f"(unique continuation obstruction): row pairs {inconsistent}",
            rows=inconsistent,
        )

    if float(np.linalg.norm(system.targets)) == 0.0:
        svals, n_below = _singular_values(system, keep, svd_threshold)
        return ControlSolution(
            system=system,
            coefficients=np.zeros(len(system.rows), dtype=complex),
            coefficients_mp=[mpmath.mpc(0)] * len(system.rows),
            residual=0.0,
            control_norm=0.0,
            svd_threshold=svd_threshold,
            discarded_singular_values=n_below,
            singular_values=svals,
            below_critical_time=system.below_critical_time,
            solve_dps=15,
        )

    targets = [complex(system.rows[i].target) for i in keep]
    br = [Decimal(v.real) for v in targets]
    bi = [Decimal(v.imag) for v in targets]
    best_residual = math.inf
    for dps in _DPS_LADDER:
        with _working_digits(dps):
            columns = [_decimal_terms(system.rows[i].kernel, system.horizon) for i in keep]
            Gr, Gi = _moment_gram(columns, columns, system.horizon)
            factor = _cholesky(Gr, Gi)
            if factor is None:
                continue
            xr, xi = _cholesky_solve(factor, br, bi)
            rr, ri = _residual(Gr, Gi, xr, xi, br, bi)
            residual = float(_norm(rr, ri) / _norm(br, bi))
            best_residual = min(best_residual, residual)
            if residual <= _RESIDUAL_TOL:
                # one step of refinement: the rung's arithmetic leaves an error
                # of about cond(G) 10**-digits in x, the guard-digit residual
                # and Gram bring it to about cond(G) 10**-(digits + guard)
                dr, di = _cholesky_solve(factor, rr, ri)
                with _guard_digits():
                    xr, xi = list(map(add, xr, dr)), list(map(add, xi, di))
                rr, ri = _residual(Gr, Gi, xr, xi, br, bi)
                residual = float(_norm(rr, ri) / _norm(br, bi))
                # x^H G x with G x = b - r
                energy = sum(map(mul, xr, map(sub, br, rr))) + sum(map(mul, xi, map(sub, bi, ri)))
                control_norm = float(abs(energy).sqrt())
                x_keep_mp = [_mpc(a, b) for a, b in zip(xr, xi)]
                break
    else:
        reached = (
            f"best moment residual {best_residual:.3e} > {_RESIDUAL_TOL:g}"
            if best_residual < math.inf
            else "Gram matrix not positive definite"
        )
        n_below = _singular_values(system, keep, svd_threshold)[1]
        raise RankDeficient(
            f"Gram system unsolvable at {_DPS_LADDER[-1]} digits: {reached}; {n_below} singular values "
            f"below {svd_threshold:g} of the largest",
            rows=system.rank_deficiency_groups,
        )

    svals, n_below = _singular_values(system, keep, svd_threshold)
    x_mp_full = [mpmath.mpc(0)] * len(system.rows)
    for idx, i in enumerate(keep):
        x_mp_full[i] = x_keep_mp[idx]
    # Redundant rows keep zero coefficients; their constraints are implied.
    return ControlSolution(
        system=system,
        coefficients=np.array([complex(v) for v in x_mp_full]),
        coefficients_mp=x_mp_full,
        residual=residual,
        control_norm=control_norm,
        svd_threshold=svd_threshold,
        discarded_singular_values=n_below + len(dropped),
        singular_values=svals,
        below_critical_time=system.below_critical_time,
        solve_dps=dps,
        keep=keep,
        gram=(Gr, Gi),
        columns=columns,
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
    with _working_digits(solution.solve_dps):
        xr, xi = solution._kept_coefficients()
        fresh = [_decimal_terms(row.kernel, system.horizon) for (_, row), g in zip(rows, gram_rows) if g is None]
        fresh_r, fresh_i = (iter(part) for part in _moment_gram(fresh, solution.columns, system.horizon))
        kept_r, kept_i = solution.gram
        forced_r, forced_i = _gram_times(
            [next(fresh_r) if g is None else kept_r[g] for g in gram_rows],
            [next(fresh_i) if g is None else kept_i[g] for g in gram_rows],
            xr,
            xi,
        )
        for (j, row), fr, fi in zip(rows, forced_r, forced_i):
            free = -row.target
            terminal_pairing = complex(float(Decimal(free.real) + fr), float(Decimal(free.imag) + fi))
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
