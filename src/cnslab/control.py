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
than hidden in a black-box solver.  Every extended-precision stage computes
one exponential ``e^{rate T}`` per kernel term and pairs terms by products.

Verification replays the duality identity mode by mode in closed form,
inside and beyond the synthesis truncation (terminal spill-over).
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

import mpmath
import numpy as np

from .errors import DomainError, InfeasibleRow, RankDeficient
from .evolution import ObservationChannel, boundary_control_weight, chain_links, channel_dim_ok, observation_values
from .fields import NormSpec, SpectralField, _complete_basis
from .kernels import TAYLOR_RADIUS, KernelTerm, exp_recurrence_mp, pair_integrals, poly_exp_integral_mp
from .spectrum import SpectrumSlice

#: working precisions (decimal digits) tried in turn until the moment residual is met
_DPS_LADDER = (40, 80, 160, 320)
_RESIDUAL_TOL = 1e-12


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


def _exp_term(coef, rate: complex, degree: int, T) -> tuple:
    """``(coef, rate, degree, e^{rate T}, rate as complex)`` at working precision."""
    rate_mp = mpmath.mpc(rate)
    return coef, rate_mp, degree, mpmath.exp(rate_mp * T), rate


def _pair_integral(m: int, z, z_d: complex, ezt, T):
    """``I_m(z, T)`` at working precision from ``ezt = e^{zT}``.

    ``z_d`` is ``z`` in double precision and picks the branch; the Taylor
    branch near z = 0 works from ``z`` alone.
    """
    if abs(z_d) * T < TAYLOR_RADIUS:
        return poly_exp_integral_mp(m, z, T)
    return exp_recurrence_mp(m, z, T, ezt)


@dataclass
class ControlSolution:
    """Minimum-norm control in the span of the conjugate moment kernels.

    Coefficients are carried in extended precision: the Gram matrix of an
    exponential family is exponentially ill conditioned (the condensation
    phenomenon), so the minimum-norm representation has large, delicately
    cancelling coefficients even though the control function itself is tame.
    All closed-form identities downstream consume the extended coefficients.
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
    _terms_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _terms(self) -> list[tuple]:
        """``(x conj(coef), conj(rate), degree, e^{conj(rate) T}, conj(rate) as complex)`` per term.

        One entry per kernel term of every row with a nonzero coefficient,
        at the working precision.  Cached per precision and coefficient list,
        so every moment integral and control evaluation reuses the one
        exponential of each term.
        """
        prec = mpmath.mp.prec
        cache = self._terms_cache
        if cache is None or cache[0] != prec or cache[1] is not self.coefficients_mp:
            T = mpmath.mpf(self.system.horizon)
            terms = [
                _exp_term(x * mpmath.conj(mpmath.mpc(t.coef)), complex(t.rate).conjugate(), t.degree, T)
                for x, row in zip(self.coefficients_mp, self.system.rows)
                if x != 0
                for t in row.kernel
            ]
            cache = self._terms_cache = (prec, self.coefficients_mp, terms)
        return cache[2]

    def __call__(self, t) -> np.ndarray:
        """Evaluate p(t) = sum_j x_j conj(k_j(t)).

        With ``s = T - t``, each term's ``e^{rate s}`` is carried from point to
        point by the step factor ``e^{rate h}``, computed once per distinct
        step ``h``: a uniform grid has a handful of distinct steps, and any
        other set of points goes through the same recurrence.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t.size, dtype=complex)
        with mpmath.workdps(self.solve_dps):
            terms = self._terms()
            T = mpmath.mpf(self.system.horizon)
            s_prev = T
            current = [e for _, _, _, e, _ in terms]
            step_factors: dict = {}
            for i, ti in enumerate(t.ravel()):
                s = T - mpmath.mpf(float(ti))
                h = s - s_prev
                if h != 0:
                    factors = step_factors.get(h)
                    if factors is None:
                        factors = step_factors[h] = [mpmath.exp(rate * h) for _, rate, _, _, _ in terms]
                    current = [c * f for c, f in zip(current, factors)]
                    s_prev = s
                out[i] = complex(
                    mpmath.fdot((w * s**degree if degree else w, c) for (w, _, degree, _, _), c in zip(terms, current))
                )
        return out.reshape(t.shape)

    def moment_integral(self, degree: int, rate):
        """integral_0^T p(t) (T-t)**degree e^{rate (T-t)} dt at solver precision.

        One exponential ``e^{rate T}``, paired with each cached term's own.
        Returns an mpmath complex; callers combine it with other closed-form
        quantities before casting down.
        """
        T = mpmath.mpf(self.system.horizon)
        rate_d = complex(rate)
        rate = mpmath.mpc(rate)
        e_rate = mpmath.exp(rate * T)
        return mpmath.fdot(
            (w, _pair_integral(d + degree, r + rate, r_d + rate_d, e * e_rate, T))
            for w, r, d, e, r_d in self._terms()
        )


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


def _moment_gram(kernels: list[list[KernelTerm]], T: float) -> list[list]:
    """Hermitian Gram ``integral k_i conj(k_j)`` at working precision, as a list of lists.

    Each term contributes one exponential ``e^{rate T}``; a pair's
    ``e^{(a + conj(b)) T}`` is the product ``e^{aT} conj(e^{bT})``.
    """
    T_mp = mpmath.mpf(T)
    terms = [[_exp_term(mpmath.mpc(t.coef), complex(t.rate), t.degree, T_mp) for t in kernel] for kernel in kernels]
    m = len(terms)
    G = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            pairs = []
            for ca, ra, da, ea, ra_d in terms[i]:
                for cb, rb, db, eb, rb_d in terms[j]:
                    I = _pair_integral(da + db, ra + mpmath.conj(rb), ra_d + rb_d.conjugate(), ea * mpmath.conj(eb), T_mp)
                    pairs.append((ca * mpmath.conj(cb), I))
            G[i][j] = mpmath.fdot(pairs)
            G[j][i] = mpmath.conj(G[i][j])
    return G


def _cholesky_solve(G: list[list], b: list) -> list | None:
    """Solve ``G x = b`` for Hermitian positive definite ``G`` at the working precision.

    ``G = L L^H`` with ``L`` kept row by row.  Returns None at the first
    pivot that is not positive: ``G`` is not numerically definite at this
    precision.
    """
    m = len(G)
    L: list[list] = []
    for i in range(m):
        Li: list = []
        for j in range(i):
            Li.append((G[i][j] - mpmath.fdot(Li, L[j][:j], conjugate=True)) / L[j][j])
        pivot = mpmath.re(G[i][i] - mpmath.fdot(Li, Li, conjugate=True))
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


def synthesize_control(system: MomentSystem, svd_threshold: float = 1e-12) -> ControlSolution:
    """Minimum-norm solve of the Gram-projected moment system.

    Structurally proportional rows are deduplicated first: contradictory
    targets on a shared kernel direction are exactly the unique-continuation
    obstruction and raise :class:`RankDeficient`.  The remaining Hermitian
    positive definite system is solved by Cholesky at 40, 80, 160 and then
    320 digits until the moment residual is at most 1e-12; a non-positive
    pivot moves to the next precision, and running out of precisions raises
    :class:`RankDeficient` with the best residual reached.  Singular values
    below ``svd_threshold`` of the largest are reported, never silently
    inverted in double precision.
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

    G_keep = gram_matrix(system)[np.ix_(keep, keep)]
    diag = np.sqrt(np.maximum(np.real(np.diag(G_keep)), 1e-300))
    svals = np.linalg.svd(G_keep / np.outer(diag, diag), compute_uv=False)
    n_below = int(np.sum(svals <= svd_threshold * svals[0]))

    m_all = system.targets
    target_norm = float(np.linalg.norm(m_all))
    if target_norm == 0.0:
        x = np.zeros(len(system.rows), dtype=complex)
        return ControlSolution(
            system=system,
            coefficients=x,
            coefficients_mp=[mpmath.mpc(0)] * len(system.rows),
            residual=0.0,
            control_norm=0.0,
            svd_threshold=svd_threshold,
            discarded_singular_values=n_below,
            singular_values=svals,
            below_critical_time=system.below_critical_time,
            solve_dps=15,
        )

    kernels = [system.rows[i].kernel for i in keep]
    best_residual = math.inf
    for dps in _DPS_LADDER:
        with mpmath.workdps(dps):
            G = _moment_gram(kernels, system.horizon)
            rhs = [mpmath.mpc(system.rows[i].target) for i in keep]
            x_keep_mp = _cholesky_solve(G, rhs)
            if x_keep_mp is None:
                continue
            Gx = [mpmath.fdot(row, x_keep_mp) for row in G]
            r_norm = mpmath.norm([g - v for g, v in zip(Gx, rhs)])
            rhs_norm = mpmath.norm(rhs)
            residual = float(r_norm / rhs_norm) if rhs_norm > 0 else float(r_norm)
            best_residual = min(best_residual, residual)
            if residual <= _RESIDUAL_TOL:
                control_norm = float(mpmath.sqrt(abs(mpmath.re(mpmath.fdot(Gx, x_keep_mp, conjugate=True)))))
                break
    else:
        reached = (
            f"best moment residual {best_residual:.3e} > {_RESIDUAL_TOL:g}"
            if best_residual < math.inf
            else "Gram matrix not positive definite"
        )
        raise RankDeficient(
            f"Gram system unsolvable at {_DPS_LADDER[-1]} digits: {reached}; {n_below} singular values "
            f"below {svd_threshold:g} of the largest",
            rows=system.rank_deficiency_groups,
        )

    x_mp_full = [mpmath.mpc(0)] * len(system.rows)
    for idx, i in enumerate(keep):
        x_mp_full[i] = x_keep_mp[idx]
    # Redundant rows keep zero coefficients; their constraints are implied.
    x = np.array([complex(v) for v in x_mp_full])
    return ControlSolution(
        system=system,
        coefficients=x,
        coefficients_mp=x_mp_full,
        residual=residual,
        control_norm=control_norm,
        svd_threshold=svd_threshold,
        discarded_singular_values=n_below + len(dropped),
        singular_values=svals,
        below_critical_time=system.below_critical_time,
        solve_dps=dps,
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


def verify_terminal(
    U0: SpectralField,
    solution: ControlSolution,
    system: MomentSystem,
    slice_: SpectrumSlice,
    N_verify: int,
) -> VerificationRecord:
    """Replay the duality identity on a strict superset of the truncation.

    For every basis element of every mode ``|n| <= N_verify`` the terminal
    pairing ``<U(T), Psi>`` is evaluated in closed form; rows inside the
    truncation contribute to the (relative) in-truncation residual, rows
    beyond it are reported as spill-over magnitudes.
    """
    if N_verify < system.truncation:
        raise DomainError("verification window must cover the synthesis truncation")
    if N_verify > slice_.N:
        raise DomainError(f"slice covers |n| <= {slice_.N} < requested window {N_verify}")
    per_row: dict[tuple[int, int, int], float] = {}
    spill: dict[int, float] = {}
    in_trunc_sq = 0.0
    target_sq = 0.0
    with mpmath.workdps(solution.solve_dps):
        for j, row in _chain_rows(U0, system.channel, system.horizon, slice_, N_verify):
            free = -row.target
            forced = mpmath.fsum(mpmath.mpc(t.coef) * solution.moment_integral(t.degree, t.rate) for t in row.kernel)
            terminal_pairing = complex(mpmath.mpc(free) + forced)
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
