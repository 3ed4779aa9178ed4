"""Finite-difference validator for the spectral evolution.

A deliberately independent discretization: second-order central differences
on the periodic grid and implicit-midpoint (trapezoidal) time stepping.  It
reads the coefficient table the spectral code reads, so its independence lies
in the discretization; a test checks the grid operator against the test
oracle's per-system symbol.  It is compared with the slice's eigen-flow
(eigenpairs, Jordan chains, expansion), on which every spectral result
rests.  The advection stencil is exactly skew-symmetric and the diffusion
stencil symmetric negative, so the weighted discrete energy is
non-increasing and the density mean is conserved to roundoff -- the
discrete shadows of the contraction property of the continuous generator.

Boundary-jump traces enter through the periodic wrap: a fetch across the
seam adds the supplied jump to the wrapped value, realizing the control as
the difference of the boundary values.  Controlled comparisons are labeled
heuristic; the homogeneous runs are the oracle of record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import CFLViolation, DomainError, SolverSingular
from .fields import SpectralField
from .model import SystemParams

TWO_PI = 2.0 * np.pi
#: Fewest points of a periodic FDM grid.
MIN_GRID_POINTS = 64
#: Most time steps ``round(T/dt)`` that a checked run may ask for: 20 times
#: the longest run of the test suite, about 45 s at the default M = 1024.
MAX_FDM_STEPS = 100_000


def _check_step(dt: float) -> None:
    if not (np.isfinite(dt) and dt > 0.0):
        raise DomainError(f"the time step dt must be finite and > 0, got {dt}")


def check_fdm_inputs(N: int, M: int, dt: float, T: float) -> None:
    """Raise DomainError unless the field has a mode (``N >= 1``), the grid
    enough points, ``dt`` is positive and ``round(T/dt)`` is at most
    :data:`MAX_FDM_STEPS`."""
    if N < 1:
        raise DomainError(f"the field needs N >= 1, got N = {N}")
    if M < MIN_GRID_POINTS:
        raise DomainError(f"grid must have at least {MIN_GRID_POINTS} points, got M = {M}")
    _check_step(dt)
    steps = T / dt
    if not (np.isfinite(steps) and round(steps) <= MAX_FDM_STEPS):
        raise DomainError(f"T = {T:g} with dt = {dt:g} asks for {steps:.0f} time steps, more than {MAX_FDM_STEPS}")


@dataclass
class GridState:
    """Nodal values of the dim components on the periodic grid."""

    M: int
    components: np.ndarray  # shape (dim, M), real
    time: float

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        if self.M < MIN_GRID_POINTS:
            raise DomainError(f"grid must have at least {MIN_GRID_POINTS} points")
        if self.components.shape[1] != self.M:
            raise DomainError("component arrays must match the grid size")
        if not np.all(np.isfinite(self.components)):
            raise DomainError("grid state must be finite")

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    @classmethod
    def from_field(cls, field_: SpectralField, M: int, time: float = 0.0) -> "GridState":
        x = TWO_PI * np.arange(M) / M
        values = field_.sample(x)
        if np.max(np.abs(values.imag)) > 1e-10 * max(np.max(np.abs(values.real)), 1e-300):
            raise DomainError("grid sampling requires a real-valued field")
        return cls(M=M, components=values.real.T.copy(), time=time)

    def weighted_energy(self, params: SystemParams) -> float:
        h = TWO_PI / self.M
        w = params.coefficients.weights
        return float(h * sum(wj * np.sum(self.components[j] ** 2) for j, wj in enumerate(w)))

    def mean(self, component: int = 0) -> float:
        return float(np.mean(self.components[component]))


def _difference_operators(M: int) -> tuple[scipy.sparse.spmatrix, scipy.sparse.spmatrix]:
    h = TWO_PI / M
    e = np.ones(M)
    D1 = scipy.sparse.diags([e, -e], [1, -1], shape=(M, M), format="lil")
    D1[0, M - 1] = -1.0
    D1[M - 1, 0] = 1.0
    D2 = scipy.sparse.diags([e, -2 * e, e], [1, 0, -1], shape=(M, M), format="lil")
    D2[0, M - 1] = 1.0
    D2[M - 1, 0] = 1.0
    return (D1 / (2 * h)).tocsr(), (D2 / h**2).tocsr()


def _forward_operator(params: SystemParams, M: int) -> scipy.sparse.spmatrix:
    """``-A D1 + D D2`` block by block, a zero coefficient an empty block."""
    D1, D2 = _difference_operators(M)
    coefficients = params.coefficients
    rows = [[-a * D1 if a else scipy.sparse.csr_matrix((M, M)) for a in row] for row in coefficients.advection]
    for i, d in enumerate(coefficients.diffusion):
        if d:
            rows[i][i] = d * D2 - coefficients.advection[i][i] * D1
    return scipy.sparse.bmat(rows, format="csc")


def _seam_jump_source(params: SystemParams, M: int, jumps: np.ndarray) -> np.ndarray:
    """Correction vector so that cross-seam fetches see the boundary jump.

    Component c with jump J has values satisfying v(0) = v(2pi) + J; the
    periodic wrap fetches v(0) where v(2pi) belongs and vice versa, so the
    stencil entries crossing the seam are corrected by -+J.
    """
    h = TWO_PI / M
    dim = params.dim
    correction = np.zeros(dim * M)
    adv, diff = np.array(params.coefficients.advection), params.coefficients.diffusion
    for c in range(dim):
        J = jumps[c]
        if J == 0.0:
            continue
        # d/dx fetches: node M-1 reaches node 0 (which stores v(0) = v(2pi)+J,
        # but the transported neighbor should be v(2pi)+J itself: no fix) --
        # the convention stores the branch continuous at 0, so node M-1's
        # right neighbor gains +J and node 0's left neighbor loses it.
        for r in range(dim):
            a = -adv[r, c]  # forward operator carries -adv * D1
            correction[r * M + (M - 1)] += a * (+J) / (2 * h)
            correction[r * M + 0] += a * (-J) / (2 * h)
        if diff[c] != 0.0:
            correction[c * M + (M - 1)] += diff[c] * (+J) / h**2
            correction[c * M + 0] += diff[c] * (-J) / h**2
    return correction


@dataclass
class FdmTrajectory:
    params: SystemParams
    states: list[GridState]
    dt: float
    controlled: bool

    def final(self) -> GridState:
        return self.states[-1]


def fdm_evolve(
    params: SystemParams,
    initial: GridState,
    T: float,
    dt: float,
    traces: Callable[[float], np.ndarray] | None = None,
    store_every: int = 0,
) -> FdmTrajectory:
    """Implicit-midpoint evolution up to time T.

    ``traces(t)`` returns the per-component boundary jumps at time t; with
    zero traces the scheme is exactly periodic, conserves the density mean,
    and dissipates the weighted energy.  ``store_every`` keeps every k-th
    state (0 stores endpoints only).
    """
    _check_step(dt)
    if initial.dim != params.dim:
        raise DomainError("state and system component counts differ")
    h = TWO_PI / initial.M
    if dt > 0.5 * h / params.u_bar:
        raise CFLViolation(
            f"dt = {dt:g} exceeds the advective limit {0.5 * h / params.u_bar:g}"
        )
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-12 * max(T, 1.0):
        raise DomainError("T must be an integer number of steps")
    A = _forward_operator(params, initial.M)
    n = A.shape[0]
    identity = scipy.sparse.identity(n, format="csc")
    try:
        solve = scipy.sparse.linalg.factorized((identity - 0.5 * dt * A).tocsc())
    except RuntimeError as exc:
        raise SolverSingular(str(exc)) from exc
    forward_half = identity + 0.5 * dt * A

    u = initial.components.reshape(-1).copy()
    states = [GridState(M=initial.M, components=u.reshape(params.dim, -1).copy(), time=initial.time)]
    t = initial.time
    for k in range(steps):
        rhs = forward_half @ u
        if traces is not None:
            j_now = np.asarray(traces(t), dtype=float)
            j_next = np.asarray(traces(t + dt), dtype=float)
            rhs = rhs + 0.5 * dt * (
                _seam_jump_source(params, initial.M, j_now)
                + _seam_jump_source(params, initial.M, j_next)
            )
        u = solve(rhs)
        t += dt
        if store_every and (k + 1) % store_every == 0 and k + 1 < steps:
            states.append(GridState(M=initial.M, components=u.reshape(params.dim, -1).copy(), time=t))
    states.append(GridState(M=initial.M, components=u.reshape(params.dim, -1).copy(), time=t))
    return FdmTrajectory(params=params, states=states, dt=dt, controlled=traces is not None)


@dataclass
class ComparisonRecord:
    checkpoints: dict[float, float]  # t -> relative L2 error
    mean_drift: float
    energy_monotone: bool
    trajectory: FdmTrajectory = field(repr=False, compare=False)  # the states compared

    @property
    def max_error(self) -> float:
        return max(self.checkpoints.values())


def compare_spectral_fdm(
    params: SystemParams,
    initial: SpectralField,
    T: float,
    M: int,
    dt: float,
) -> ComparisonRecord:
    """Relative nodal L2 error between the slice's eigen-flow and FDM homogeneous evolution.

    Checkpoints at T/4, T/2 and T; also reports the density-mean drift and
    whether the discrete weighted energy was non-increasing along the run,
    and keeps the FDM trajectory it compared.  Inputs are checked by
    :func:`check_fdm_inputs` before any array is built.  A set past the basis
    condition budget raises IllConditioned: its eigen-flow cannot be trusted.
    """
    from .evolution import forward_states

    check_fdm_inputs(initial.N, M, dt, T)
    if not initial.is_real():
        raise DomainError("comparison requires a real-valued initial field")
    grid0 = GridState.from_field(initial, M)
    steps = int(round(T / dt))
    quarter = max(1, steps // 4)
    traj = fdm_evolve(params, grid0, T, dt, store_every=quarter)
    x = TWO_PI * np.arange(M) / M
    targets = (0.25 * T, 0.5 * T, T)
    states = [min(traj.states, key=lambda s: abs(s.time - target)) for target in targets]
    samples = forward_states(initial, params, [s.time for s in states])
    checkpoints = {}
    for target, state, sample in zip(targets, states, samples):
        exact = sample.state.sample(x).real.T
        err = np.linalg.norm(state.components - exact) / max(np.linalg.norm(exact), 1e-300)
        checkpoints[target] = float(err)
    means = [s.mean(0) for s in traj.states]
    drift = max(abs(m - means[0]) for m in means)
    energies = [s.weighted_energy(params) for s in traj.states]
    monotone = all(e2 <= e1 * (1 + 1e-10) + 1e-12 for e1, e2 in zip(energies, energies[1:]))
    return ComparisonRecord(checkpoints=checkpoints, mean_drift=float(drift), energy_monotone=monotone, trajectory=traj)


def export_trajectory_csv(traj: FdmTrajectory, path) -> None:
    """Write ``t,x,component,value`` rows for every stored state in one write.
    The bytes are those of ``csv.writer``: no field needs quoting, lines end in ``\r\n``."""
    M = traj.states[0].M
    xs = [format(x, ".17g") for x in (TWO_PI * np.arange(M) / M).tolist()]
    rows = ["t,x,component,value\r\n"]
    for state in traj.states:
        t = format(state.time, ".17g")
        for j, values in enumerate(state.components.tolist()):
            rows.extend(f"{t},{x},{j},{value:.17g}\r\n" for x, value in zip(xs, values))
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))
