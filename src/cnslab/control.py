"""Moment-method synthesis of boundary controls with duality verification.

Null control of the truncated dynamics reduces to the moment equations

    w_ch * conj(B* Phi_n) * integral_0^T p(t) e^{conj(nu_n)(T-t)} dt
        = -e^{conj(nu_n) T} <U0, Phi_n>_w

one per (mode, branch) in the truncation, with ``(T-t)**j`` kernels added by
generalized chains.  Each row is the observation and the free flow of one
unit eigen-coordinate: with ``Phi(t)`` the adjoint solution of that terminal
datum, its kernel is ``w_ch * conj(B* Phi)`` and its target minus the free
terminal pairing ``<U0, Phi(0)>_w``, both read from :mod:`~cnslab.evolution`.
The synthesized control is the minimum-L2-norm element of the span of the
conjugate kernels: writing ``p = sum_j x_j conj(k_j)``
turns the constraints into the Hermitian Gram system ``G x = m``.  The Gram
of an exponential family is exponentially ill conditioned, so the system is
solved by Cholesky in extended precision, on the scaled integers of
:mod:`~cnslab.fixedpoint`, climbing a ladder of precisions.  The parabolic
ill-conditioning is reported as the discarded singular values of the
normalized Gram of the first rung rather than hidden in a black-box solver.

Verification replays the duality identity mode by mode in closed form,
inside and beyond the synthesis truncation (terminal spill-over).  It reads
the rows inside the truncation from the moment system and their Gram rows
from the solve, and builds and integrates only the rows beyond it.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import fixedpoint, walk
from .errors import DomainError, InfeasibleRow, RankDeficient
from .evolution import ObservationChannel, adjoint_states, boundary_control_weight, observation_signals
from .fields import SpectralField
from .fixedpoint import Gram, Kernel, ScaledVector, require_finite
from .kernels import KernelTerm
from .kernels import poly_exp_integral_mp  # noqa: F401  (perfbench/spans.py traces this name)
from .spectrum import SpectrumSlice

#: working precisions (significant digits) tried in turn until the moment residual is met
_DPS_LADDER = (40, 80, 160, 320)
_RESIDUAL_TOL = 1e-12
#: fraction of the largest singular value of the normalized Gram at or below which one counts as discarded
_SVD_THRESHOLD = 1e-12


@dataclass
class MomentRow:
    """One moment equation: kernel terms, target, and provenance."""

    n: int
    cluster_index: int
    level: int
    rate: complex  # conj of the eigenvalue
    kernel: list[KernelTerm]
    target: complex
    position: int = 0  # index of the row's basis element in its cluster

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
    datum: SpectralField | None = field(default=None, repr=False, compare=False)  # the U0 of the targets
    slice_: SpectrumSlice | None = field(default=None, repr=False, compare=False)  # the slice of the rows


def _proportional_rows(a: MomentRow, b: MomentRow) -> bool:
    """Whether two rows have proportional kernels: single terms with rates equal to 1e-12 relative."""
    return (
        len(a.kernel) == 1
        and len(b.kernel) == 1
        and abs(a.rate - b.rate) <= 1e-12 * max(1.0, abs(a.rate), abs(b.rate))
    )


def _chain_rows(
    U0: SpectralField, channel: ObservationChannel, T: float, slice_: SpectrumSlice, N: int, above: int = 0
) -> Iterator[MomentRow]:
    """Moment row of every basis element of the modes ``above < |n| <= N``, read from its unit eigen-coordinate.

    The kernel is ``w_ch * conj`` of the coordinate's :func:`observation_signals` terms, at rate ``conj(nu)``.
    The target is minus the free terminal pairing: the weighted pairing of ``U0`` with the coordinate's
    :func:`adjoint_states` at ``t = 0``, at its mode.
    """
    params, table, dim = slice_.params, slice_.basis, slice_.dim
    w_ch = boundary_control_weight(channel, params)
    rows = np.flatnonzero((np.abs(table.ns) > above) & (np.abs(table.ns) <= N))
    ns, own = table.ns[rows], np.repeat(table.ns[rows], dim)  # the mode of each row, of each coordinate
    units = np.eye(own.size, dtype=complex).reshape(own.size, ns.size, dim)
    flowed = adjoint_states(units, ns, slice_, T, 0.0)[np.arange(own.size), own + slice_.N]
    datum = np.array([U0.coeff(n) for n in own.tolist()]).reshape(flowed.shape)
    free = 2.0 * np.pi * np.sum(np.array(params.coefficients.weights) * datum * np.conj(flowed), axis=-1)
    for j, (signal, target) in enumerate(zip(observation_signals(units, ns, slice_, channel, T), free.tolist())):
        r, c = rows[j // dim], j % dim
        nu_bar, clusters = np.conj(table.rates[r, c]), table.clusters[r].tolist()
        kernel = [KernelTerm(coef=w_ch * np.conj(coef), rate=nu_bar, degree=degree)
                  for coef, degree in zip(signal.coefficients.tolist(), signal.degrees.tolist())]
        yield MomentRow(n=int(table.ns[r]), cluster_index=clusters[c], level=int(table.levels[r, c]), rate=nu_bar,
                        kernel=kernel, target=-target, position=c - clusters.index(clusters[c]))


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
    for row in _chain_rows(U0, channel, T, slice_, N):
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
        datum=U0,
        slice_=slice_,
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


@dataclass
class ControlSolution:
    """Minimum-norm control in the span of the conjugate moment kernels.

    Coefficients are carried in extended precision: the Gram matrix of an
    exponential family is exponentially ill conditioned (the condensation
    phenomenon), so the minimum-norm representation has large, delicately
    cancelling coefficients even though the control function itself is tame.
    ``x`` holds them exactly, one per kept row ``keep`` (the other rows'
    constraints are implied); every closed-form identity downstream reads
    its current values.  ``gram``, ``columns`` and ``hy`` keep the solve's
    Gram (with the columns' partners), kernels and product ``H y`` of the
    scaled Gram with ``x``, which the verification and the evaluation reuse; only the solve sets ``hy``, so a solution
    replaced with other coefficients has none.  The constructor refuses
    ``x`` parts or ``columns`` without one entry per kept row.
    """

    system: MomentSystem
    x: ScaledVector
    residual: float
    control_norm: float
    discarded_singular_values: int
    solve_dps: int
    keep: list[int] = field(default_factory=list)
    gram: Gram | None = field(default=None, repr=False, compare=False)
    columns: list[Kernel] = field(default_factory=list, repr=False, compare=False)
    hy: ScaledVector | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.x.re) == len(self.x.im) == len(self.columns) == len(self.keep):
            raise DomainError("the coefficients and kernel columns must align with the kept rows")

    def __call__(self, t) -> np.ndarray:
        """Evaluate p(t) = sum_j x_j conj(k_j(t)) (see :func:`~cnslab.walk.evaluate`); times must be finite."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.isfinite(t).all():
            raise DomainError("control evaluation times must be finite")
        mates = self.gram.mates if self.gram else []
        values = walk.evaluate(self.x, self.columns, self.system.horizon, t.ravel().tolist(), mates)
        return np.array(values, dtype=complex).reshape(t.shape)


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


def _discarded_singular_values(gram: Gram) -> int:
    """Singular values at most :data:`_SVD_THRESHOLD` of the largest of a rung's normalized Gram, in doubles."""
    if not gram.re:
        return 0
    H = fixedpoint.float_gram(gram)
    diag = np.sqrt(np.maximum(np.real(np.diag(H)), 1e-300))
    svals = np.linalg.svd(H / np.outer(diag, diag), compute_uv=False)
    return int(np.sum(svals <= _SVD_THRESHOLD * svals[0]))


def synthesize_control(system: MomentSystem) -> ControlSolution:
    """Minimum-norm solve of the Gram-projected moment system.

    Structurally proportional rows are deduplicated first: contradictory
    targets on a shared kernel direction are exactly the unique-continuation
    obstruction and raise :class:`RankDeficient`.  Each precision of
    :data:`_DPS_LADDER` in turn builds its Gram and factors it
    (:func:`~cnslab.fixedpoint.factor`; a pivot that is not positive moves
    on) until the unrefined moment residual of :func:`~cnslab.fixedpoint.solve`
    is at most :data:`_RESIDUAL_TOL`; running out of
    precisions raises :class:`RankDeficient` with the best residual reached.
    A non-finite target, kernel coefficient or rate raises
    :class:`ArithmeticFailure` naming its row; targets are checked first,
    those of duplicate rows included.  The first rung's Gram is built even
    for zero targets: its singular values at most :data:`_SVD_THRESHOLD` of
    the largest are reported, never silently inverted in double precision.
    Exactly zero kept targets (or no rows) give the zero control unfactored.
    """
    for i, row in enumerate(system.rows):
        require_finite(f"moment row {i} (mode {row.n})", "target", [row.target])
    keep, inconsistent, dropped = _duplicate_row_structure(system)
    if inconsistent:
        raise RankDeficient(
            "proportional moment kernels with contradictory targets "
            f"(unique continuation obstruction): row pairs {inconsistent}",
            rows=inconsistent,
        )
    labels = [f"moment row {i} (mode {system.rows[i].n})" for i in keep]
    kernels = [system.rows[i].kernel for i in keep]
    targets = [complex(system.rows[i].target) for i in keep]
    best_residual = math.inf
    for dps in _DPS_LADDER:
        gram, columns = fixedpoint.unit_gram(labels, kernels, system.horizon, dps)
        if dps == _DPS_LADDER[0]:
            discarded = _discarded_singular_values(gram)
            if not any(targets):
                return ControlSolution(system, ScaledVector([], [], 0), 0.0, 0.0, discarded + len(dropped), 15)
        form = fixedpoint.real_form(gram)
        factor = fixedpoint.factor(form, dps)
        if factor is None:
            continue
        residual, x, control_norm, hy = fixedpoint.solve(gram, form, factor, columns, targets, _RESIDUAL_TOL)
        if x is not None:
            discarded += len(dropped)
            solution = ControlSolution(system, x, residual, control_norm, discarded, dps, keep, gram, columns)
            solution.hy = hy
            return solution
        best_residual = min(best_residual, residual)
    reached = (f"best moment residual {best_residual:.3e} > {_RESIDUAL_TOL:g}" if best_residual < math.inf
               else "Gram matrix not positive definite")
    raise RankDeficient(
        f"Gram system unsolvable at {_DPS_LADDER[-1]} digits: {reached}; "
        f"{discarded} singular values below {_SVD_THRESHOLD:g} of the largest",
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


def verify_terminal(solution: ControlSolution, N_verify: int) -> VerificationRecord:
    """Replay the duality identity on a strict superset of the truncation.

    For every basis element of every mode ``|n| <= N_verify`` the terminal
    pairing ``<U(T), Psi> = -target + sum_s G[r][s] x_s`` is evaluated in
    closed form from the solution's current coefficients; rows inside the
    truncation contribute to the (relative) in-truncation residual, rows
    beyond it are reported as spill-over magnitudes.  The rows inside the
    truncation, targets included, are those of the solution's moment system;
    the spill-over rows are built from the system's datum and slice.  The
    cross-Gram rows ``G[r]`` of the kept rows are those of the solve, and so
    are their products ``G[r] x`` when the solution carries them; the
    spill-over rows and the dropped duplicate rows are integrated here.  A
    system without a datum or slice (not built by :func:`build_moment_system`)
    raises :class:`DomainError`.
    """
    system = solution.system
    U0, slice_ = system.datum, system.slice_
    if U0 is None or slice_ is None:
        raise DomainError("verification needs the datum and slice that build_moment_system records on the system")
    if N_verify < system.truncation:
        raise DomainError("verification window must cover the synthesis truncation")
    if N_verify > slice_.N:
        raise DomainError(f"slice covers |n| <= {slice_.N} < requested window {N_verify}")
    # (row, row of the solve's Gram): kept rows inside the truncation have
    # one, dropped duplicate rows and spill-over rows have None
    kept = {row: k for k, row in enumerate(solution.keep)}
    rows = [(row, kept.get(i)) for i, row in enumerate(system.rows)]
    spill_rows = _chain_rows(U0, system.channel, system.horizon, slice_, N_verify, system.truncation)
    rows += [(row, None) for row in spill_rows]
    free = [-complex(row.target) for row, _ in rows]
    for (row, _), f in zip(rows, free):
        require_finite(f"verification row, mode {row.n}", "target", [f])
    fresh = [(f"verification row, mode {row.n}", row.kernel) for row, g in rows if g is None]
    # pairings and targets at the targets' scale: a tiny datum's relative residual does not underflow
    shift = -fixedpoint.top_exponent(free)
    pairings = fixedpoint.terminal_pairings(free, [g for _, g in rows], fresh, system.horizon,
                                            solution.gram, solution.columns, solution.x, solution.hy, shift)

    per_row: dict[tuple[int, int, int], float] = {}
    spill: dict[int, float] = {}
    in_trunc: list[float] = []
    target_sizes: list[float] = []
    for (row, _), f, terminal_pairing in zip(rows, free, pairings):
        size = math.ldexp(abs(terminal_pairing), -shift)
        per_row[(row.n, row.cluster_index, row.position)] = size
        if abs(row.n) <= system.truncation:
            in_trunc.append(abs(terminal_pairing))
            target_sizes.append(math.ldexp(abs(f), shift))
        else:
            spill[row.n] = max(spill.get(row.n, 0.0), size)

    return VerificationRecord(
        in_truncation_residual=math.hypot(*in_trunc) / (math.hypot(*target_sizes) or 1.0),
        spillover=spill,
        per_row_residuals=per_row,
        control_norm=solution.control_norm,
        rank=len(system.rows) - solution.discarded_singular_values,
        discarded_singular_values=solution.discarded_singular_values,
    )


def export_control_csv(solution: ControlSolution, grid: np.ndarray, path) -> None:
    """Write ``t,p`` on a uniform grid in one write; complex controls carry
    both parts.  The bytes are those of ``csv.writer``, lines ending in ``\\r\\n``."""
    values = solution(grid)
    imag_scale = float(np.max(np.abs(values.imag))) if len(grid) else 0.0
    real_scale = max(float(np.max(np.abs(values.real))) if len(grid) else 0.0, 1e-300)
    times, re, im = np.asarray(grid, dtype=float).tolist(), values.real.tolist(), values.imag.tolist()
    if imag_scale <= 1e-12 * real_scale:
        text = "t,p\r\n" + "".join(f"{t:.17g},{x:.17g}\r\n" for t, x in zip(times, re))
    else:
        text = "t,re_p,im_p\r\n" + "".join(f"{t:.17g},{x:.17g},{y:.17g}\r\n" for t, x, y in zip(times, re, im))
    with open(path, "w", newline="") as fh:
        fh.write(text)
