"""Independent reference paths for the batched spectrum slice and the Ingham audit.

The per-mode code that production no longer runs:

* the scalar symbol, the closed-form barotropic roots and the dense
  three-field eigensolve, one mode at a time, with Newton polish, label
  assignment, eigenvectors (the two-field closed forms, the rescaled dense
  three-field eigenvectors) and residuals computed per pair;
* the three-field closed-form eigenvectors (:func:`_vector_nonbarotropic`),
  which production does not use: a test checks them against the dense
  eigenvectors as an independent identity;
* the per-mode clustering and the brute-force coincidence scan over every
  pair of (mode, branch) slots;
* the spectrum export read from the per-mode objects;
* a slice stored as its per-mode objects (:class:`ModeSlice`), whose basis
  table is stacked from them (:func:`table_from_modes`), so that a test can
  also hand production a hand-built slice with complete basis blocks;
* the quadratic-closeness deficits, two per-mode solves per ``n``;
* the Ingham audit with its loops over every pair of modes;
* the full-table pair scan (:func:`first_minima`) that production's row
  blocks replace, and the whole pair tables of H1, P1, P3, relaxed and the
  disjoint gap (:func:`min_pairwise_gap`, :func:`parabolic_minima`,
  :func:`min_cross_gap`) that production reads on sorted windows;
* the singular values of small blocks at 40 digits (:func:`singular_values`,
  :func:`condition_numbers`), the reference of production's closed forms.

Each takes the same parameters as production, so a test can compare the two
value by value.  Only the defect logic that production still runs per mode
(``generalized_chain``) and the result types are imported.
"""

from __future__ import annotations

import cmath
import csv
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import mpmath
import numpy as np

from cnslab.errors import ConditioningError, DegenerateWarning, DomainError
from cnslab.model import BarotropicParams, NonBarotropicParams, SystemParams
from cnslab.observability import InghamHypothesisReport, Verdict
from cnslab.spectrum import (
    _BRANCH_ORDER,
    DEFAULT_CLUSTERING_TOL,
    EIGEN_RESIDUAL_TOL,
    BasisTable,
    BranchLabel,
    Cluster,
    Coincidence,
    EigenPair,
    ModeMatrix,
    ModeSpectrum,
    SpectrumSlice,
    generalized_chain,
)

def _symbol(params: SystemParams, n: int, forward: bool = False) -> np.ndarray:
    """Raw adjoint symbol matrix, or with ``forward`` the forward one (first-order terms negated); any integer mode."""
    s = -1.0 if forward else 1.0
    inx = 1j * n
    if isinstance(params, BarotropicParams):
        p = params
        return np.array(
            [
                [s * p.u_bar * inx, s * p.rho_bar * inx],
                [s * p.b * inx, -p.mu0 * n**2 + s * p.u_bar * inx],
            ],
            dtype=complex,
        )
    p = params
    return np.array(
        [
            [s * p.u_bar * inx, s * p.rho_bar * inx, 0.0],
            [
                s * (p.R * p.theta_bar / p.rho_bar) * inx,
                -p.lambda0 * n**2 + s * p.u_bar * inx,
                s * p.R * inx,
            ],
            [
                0.0,
                s * (p.R * p.theta_bar / p.c0) * inx,
                -p.kappa0 * n**2 + s * p.u_bar * inx,
            ],
        ],
        dtype=complex,
    )


def _anchors(params: SystemParams, n: int) -> list[tuple[BranchLabel, complex]]:
    iun = 1j * params.u_bar * n
    if isinstance(params, BarotropicParams):
        return [
            (BranchLabel.HYPERBOLIC, iun - params.omega0),
            (BranchLabel.PARABOLIC, -params.mu0 * n**2 + iun),
        ]
    return [
        (BranchLabel.HYPERBOLIC, iun - params.omega_bar),
        (BranchLabel.PARABOLIC_LAMBDA, -params.lambda0 * n**2 + iun),
        (BranchLabel.PARABOLIC_KAPPA, -params.kappa0 * n**2 + iun),
    ]


def classify_branch(params: SystemParams, n: int, value: complex) -> BranchLabel:
    """Nearest-anchor branch label with a deterministic tie-break.

    Ties resolve toward hyperbolic first, then the momentum-diffusion
    parabolic branch.
    """
    anchors = _anchors(params, n)
    dists = [abs(value - a) for _, a in anchors]
    best = min(dists)
    for (label, _), d in zip(anchors, dists):
        if d <= best:
            return label
    return anchors[0][0]


def _residual(M: np.ndarray, value: complex, vector: np.ndarray) -> float:
    scale = np.linalg.norm(M, 2) * np.linalg.norm(vector)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(M @ vector - value * vector) / scale)


def _kernel_vector(M: np.ndarray, value: complex) -> np.ndarray:
    """Unit vector spanning the (numerical) kernel of ``M - value*I``."""
    _, _, vh = np.linalg.svd(M - value * np.eye(M.shape[0]))
    return vh[-1].conj()


def _vector_barotropic(params: BarotropicParams, n: int, branch: BranchLabel, nu_scaled: complex) -> np.ndarray:
    if branch is BranchLabel.HYPERBOLIC:
        return np.array([params.rho_bar, nu_scaled - params.u_bar], dtype=complex)
    return np.array([params.rho_bar / (nu_scaled - params.u_bar), 1.0], dtype=complex)


def _vector_nonbarotropic(params: NonBarotropicParams, n: int, branch: BranchLabel, nu: complex) -> np.ndarray:
    """Closed-form eigenvector of branch ``branch`` at ``nu = value/(i*n)``, in the pinned-component convention."""
    p = params
    lam = p.lambda0 * 1j * n + p.u_bar - nu
    kap = p.kappa0 * 1j * n + p.u_bar - nu
    if branch is BranchLabel.HYPERBOLIC:
        return np.array(
            [
                p.R * p.rho_bar,
                -p.R * (p.u_bar - nu),
                lam * (p.u_bar - nu) - p.R * p.theta_bar,
            ],
            dtype=complex,
        )
    if branch is BranchLabel.PARABOLIC_LAMBDA:
        d = p.u_bar - nu
        return np.array(
            [
                -p.R * p.rho_bar / d,
                p.R,
                (p.R * p.theta_bar - lam * d) / d,
            ],
            dtype=complex,
        )
    return np.array(
        [
            lam * kap - p.R**2 * p.theta_bar / p.c0,
            -(p.R * p.theta_bar / p.rho_bar) * kap,
            p.R**2 * p.theta_bar**2 / (p.rho_bar * p.c0),
        ],
        dtype=complex,
    )


def _pinned_component(dim: int, branch: BranchLabel) -> int:
    """Index of the eigenvector component pinned by the closed-form normalization."""
    if dim == 2:
        return 0 if branch is BranchLabel.HYPERBOLIC else 1
    return {
        BranchLabel.HYPERBOLIC: 0,
        BranchLabel.PARABOLIC_LAMBDA: 1,
        BranchLabel.PARABOLIC_KAPPA: 2,
    }[branch]


def _pinned_value(params: SystemParams, branch: BranchLabel) -> complex:
    if isinstance(params, BarotropicParams):
        return params.rho_bar if branch is BranchLabel.HYPERBOLIC else 1.0
    return {
        BranchLabel.HYPERBOLIC: params.R * params.rho_bar,
        BranchLabel.PARABOLIC_LAMBDA: params.R,
        BranchLabel.PARABOLIC_KAPPA: params.R**2 * params.theta_bar**2 / (params.rho_bar * params.c0),
    }[branch]


def _rescale_to_convention(params: SystemParams, branch: BranchLabel, vector: np.ndarray) -> np.ndarray:
    comp = _pinned_component(params.dim, branch)
    pivot = vector[comp]
    if abs(pivot) < 1e-300:
        return vector
    return vector * (_pinned_value(params, branch) / pivot)



def eigen_barotropic(
    params: BarotropicParams,
    n: int,
    clustering_tolerance: float = DEFAULT_CLUSTERING_TOL,
) -> tuple[EigenPair, EigenPair]:
    """Closed-form eigenpairs of the adjoint symbol at mode ``n``.

    Emits :class:`DegenerateWarning` (without failing) when the two values
    coincide within the clustering tolerance.
    """
    if n == 0:
        raise DomainError("mode n = 0 is excluded")
    M = _symbol(params, n)
    mu0, b, rho, u = params.mu0, params.b, params.rho_bar, params.u_bar
    disc = cmath.sqrt(complex(mu0**2 * n**4 - 4.0 * b * rho * n**2))
    # Principal square root throughout.  Below the threshold (imaginary
    # discriminant) the hyperbolic label follows conjugate symmetry in n, so
    # that the branch identity n -> -n pairs p with p; above the threshold
    # the principal root already realizes that symmetry.
    sign = 1.0 if (disc.imag == 0.0 or n > 0) else -1.0
    nu_h = 0.5 * (-mu0 * n**2 + 2j * u * n + sign * disc)
    nu_p = 0.5 * (-mu0 * n**2 + 2j * u * n - sign * disc)
    refined = _refine_multiplets(M, np.array([nu_h, nu_p]), clustering_tolerance)
    nu_h, nu_p = complex(refined[0]), complex(refined[1])
    out = []
    for branch, value in ((BranchLabel.HYPERBOLIC, nu_h), (BranchLabel.PARABOLIC, nu_p)):
        nu_scaled = value / (1j * n)
        vec = _vector_barotropic(params, n, branch, nu_scaled)
        res = _residual(M, value, vec)
        if res > EIGEN_RESIDUAL_TOL:
            vec = _rescale_to_convention(params, branch, _kernel_vector(M, value))
            res = _residual(M, value, vec)
        out.append(EigenPair(n=n, branch=branch, value=value, vector=vec, nu_scaled=nu_scaled, residual=res))
    if abs(nu_h - nu_p) <= clustering_tolerance * max(1.0, abs(nu_h)):
        warnings.warn(
            f"mode {n}: hyperbolic and parabolic eigenvalues coincide ({nu_h:.6g})",
            DegenerateWarning,
            stacklevel=2,
        )
    return out[0], out[1]


def _charpoly_coeffs(M: np.ndarray) -> np.ndarray:
    """Coefficients of det(x I - M), highest power first, for dim <= 3."""
    d = M.shape[0]
    tr = np.trace(M)
    det = np.linalg.det(M)
    if d == 2:
        return np.array([1.0, -tr, det], dtype=complex)
    minors = (
        M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
        + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
        + M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    )
    return np.array([1.0, -tr, minors, -det], dtype=complex)


def _newton_polish(coeffs: np.ndarray, z: complex, scale: float) -> complex:
    p = np.polyval(coeffs, z)
    dp = np.polyval(np.polyder(coeffs), z)
    if abs(dp) < 1e-8 * max(1.0, abs(p)) / max(scale, 1e-300):
        return z  # multiple root; Newton is ill-posed there
    step = p / dp
    if abs(step) < 0.5 * max(1.0, abs(z)):
        return z - step
    return z


def _resolution_radius(m: int, magnitude: float) -> float:
    """Attainable eigenvalue resolution for an m-fold defective value.

    A backward perturbation of size ``eps`` splits a Jordan-block eigenvalue
    into a cluster of radius ``~eps**(1/m)``; values closer than this are
    numerically indistinguishable from an exact multiple root.
    """
    return 50.0 * float(np.finfo(float).eps) ** (1.0 / m) * max(1.0, magnitude)


def _refine_multiplets(M: np.ndarray, values: np.ndarray, clustering_tolerance: float) -> np.ndarray:
    """Collapse within-resolution clusters onto the polished multiple root.

    For a candidate m-cluster the (m-1)-th derivative of the characteristic
    polynomial has a *simple* root at the multiple eigenvalue, so one Newton
    run there recovers it to machine accuracy (the dense solve only locates
    the individual copies to ``eps**(1/m)``).  The refined value replaces all
    cluster members; non-confirming clusters are left untouched.
    """
    d = len(values)
    coeffs = _charpoly_coeffs(M)
    out = values.copy()

    def try_merge(idx: list[int]) -> bool:
        m = len(idx)
        center = np.mean(out[idx])
        tol = max(clustering_tolerance * max(1.0, abs(center)), _resolution_radius(m, abs(center)))
        if any(abs(out[k] - center) > tol for k in idx):
            return False
        dcoeffs = coeffs
        for _ in range(m - 1):
            dcoeffs = np.polyder(dcoeffs)
        z = center
        for _ in range(40):
            p = np.polyval(dcoeffs, z)
            dp = np.polyval(np.polyder(dcoeffs), z)
            if abs(dp) == 0.0:
                break
            step = p / dp
            z = z - step
            if abs(step) <= 1e-16 * max(1.0, abs(z)):
                break
        if any(abs(out[k] - z) > tol for k in idx):
            return False
        out[idx] = z
        return True

    if d >= 3 and try_merge(list(range(d))):
        return out
    merged: set[int] = set()
    order = sorted(range(d), key=lambda k: (out[k].real, out[k].imag))
    for a in range(d):
        for b_ in range(a + 1, d):
            i, j = order[a], order[b_]
            if i in merged or j in merged:
                continue
            if try_merge([i, j]):
                merged.update((i, j))
    return out


def eigen_nonbarotropic(
    params: NonBarotropicParams,
    n: int,
    clustering_tolerance: float = DEFAULT_CLUSTERING_TOL,
) -> tuple[EigenPair, EigenPair, EigenPair]:
    """Dense eigenpairs of the three-field adjoint symbol at mode ``n``.

    The 3x3 QR eigensolve is polished with one Newton step on the
    characteristic polynomial (skipped near multiple roots).  Branch labels
    come from nearest-anchor classification; when the two diffusions
    coincide the parabolic anchors merge and the two parabolic labels are
    assigned by dominant eigenvector component instead, with the pairs
    flagged ``unclassified_by_paper``.
    """
    if n == 0:
        raise DomainError("mode n = 0 is excluded")
    M = _symbol(params, n)
    values, vectors = np.linalg.eig(M)
    scale = float(np.linalg.norm(M, 2))

    backward = max(
        float(np.linalg.norm(M @ vectors[:, k] - values[k] * vectors[:, k]))
        for k in range(3)
    )
    if backward > 1e-8 * max(scale, 1.0):
        raise ConditioningError(
            f"mode {n}: dense eigensolve backward error {backward:.3e} exceeds 1e-8*|M|"
        )

    coeffs = _charpoly_coeffs(M)
    values = np.array([_newton_polish(coeffs, z, scale) for z in values])
    values = _refine_multiplets(M, values, clustering_tolerance)

    degenerate_diffusions = (
        abs(params.lambda0 - params.kappa0)
        <= 1e-12 * max(params.lambda0, params.kappa0)
    )
    labels = _assign_labels(params, n, values, vectors, degenerate_diffusions)

    pairs = []
    for k in range(3):
        value = values[k]
        branch = labels[k]
        nu_scaled = value / (1j * n)
        vec = _rescale_to_convention(params, branch, vectors[:, k].copy())
        res = _residual(M, value, vec)
        if res > EIGEN_RESIDUAL_TOL:
            # Defective value: the dense eigenvector is only eps**(1/m)
            # accurate, but the kernel of the shifted matrix is well posed.
            vec = _rescale_to_convention(params, branch, _kernel_vector(M, value))
            res = _residual(M, value, vec)
        pairs.append(
            EigenPair(
                n=n,
                branch=branch,
                value=value,
                vector=vec,
                nu_scaled=nu_scaled,
                residual=res,
                unclassified_by_paper=degenerate_diffusions and branch is not BranchLabel.HYPERBOLIC,
            )
        )
    pairs.sort(key=lambda p: _BRANCH_ORDER[p.branch])

    vals = [p.value for p in pairs]
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(vals[i] - vals[j]) <= clustering_tolerance * max(1.0, abs(vals[i])):
                warnings.warn(
                    f"mode {n}: eigenvalues {vals[i]:.6g} and {vals[j]:.6g} coincide",
                    DegenerateWarning,
                    stacklevel=2,
                )
    return pairs[0], pairs[1], pairs[2]


def _assign_labels(params, n, values, vectors, degenerate_diffusions):
    """One label per eigenvalue; greedy nearest-anchor with branch tie-break."""
    anchors = _anchors(params, n)
    if degenerate_diffusions:
        # The two parabolic anchors coincide; keep the hyperbolic assignment by
        # distance and split the parabolic pair by dominant component (velocity
        # vs temperature), which tracks eigenvector continuity in n.
        hyp_anchor = anchors[0][1]
        order = np.argsort([abs(v - hyp_anchor) for v in values])
        labels = [None, None, None]
        labels[order[0]] = BranchLabel.HYPERBOLIC
        rest = [k for k in range(3) if labels[k] is None]
        dominant = [abs(vectors[1, k]) >= abs(vectors[2, k]) for k in rest]
        if dominant[0] == dominant[1]:
            rest.sort(key=lambda k: -abs(vectors[1, k]) / max(abs(vectors[2, k]), 1e-300))
            labels[rest[0]] = BranchLabel.PARABOLIC_LAMBDA
            labels[rest[1]] = BranchLabel.PARABOLIC_KAPPA
        else:
            for k, is_lambda in zip(rest, dominant):
                labels[k] = BranchLabel.PARABOLIC_LAMBDA if is_lambda else BranchLabel.PARABOLIC_KAPPA
        return labels

    # Cost matrix assignment: try all 6 permutations (dim 3), pick minimal
    # total distance; ties fall to the branch-order preference.
    dists = np.array([[abs(v - a) for _, a in anchors] for v in values])
    best_perm = None
    best_cost = None
    for perm in itertools.permutations(range(3)):
        cost = sum(dists[k, perm[k]] for k in range(3))
        if best_cost is None or cost < best_cost - 1e-15 * max(1.0, abs(best_cost)):
            best_cost = cost
            best_perm = perm
    return [anchors[best_perm[k]][0] for k in range(3)]


def _mode_pairs(params: SystemParams, n: int, tol: float) -> tuple[EigenPair, ...]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWarning)
        if isinstance(params, BarotropicParams):
            return tuple(eigen_barotropic(params, n, tol))
        return tuple(eigen_nonbarotropic(params, n, tol))


def _cluster_mode(params: SystemParams, n: int, pairs: tuple[EigenPair, ...], tol: float) -> ModeSpectrum:
    """Group coincident values of one mode and attach chains where defective."""
    M = ModeMatrix(n=n, dim=params.dim, entries=_symbol(params, n))
    unused = list(range(len(pairs)))
    groups: list[list[int]] = []
    while unused:
        k = unused.pop(0)
        group = [k]
        for j in list(unused):
            if abs(pairs[j].value - pairs[k].value) <= tol * max(1.0, abs(pairs[k].value)):
                group.append(j)
                unused.remove(j)
        groups.append(group)

    clusters = []
    for group in sorted(groups, key=lambda g: min(_BRANCH_ORDER[pairs[k].branch] for k in g)):
        members = sorted(group, key=lambda k: _BRANCH_ORDER[pairs[k].branch])
        branches = tuple(pairs[k].branch for k in members)
        if len(members) == 1:
            p = pairs[members[0]]
            clusters.append(Cluster(value=p.value, branches=branches, vectors=(p.vector,), chain=None))
            continue
        value = np.mean([pairs[k].value for k in members])
        base = pairs[members[0]].vector
        # Geometric multiplicity from the shifted matrix: a full eigenspace
        # (cross-style repeat inside one mode) admits no chain.
        shifted = M.entries - value * np.eye(M.dim)
        svals = np.linalg.svd(shifted, compute_uv=False)
        geo = int(np.sum(svals <= 1e-10 * max(svals[0], 1e-300)))
        if geo >= len(members):
            vecs = tuple(pairs[k].vector for k in members)
            clusters.append(Cluster(value=value, branches=branches, vectors=vecs, chain=None))
            continue
        chain = generalized_chain(M, value, base, multiplicity=len(members))
        clusters.append(
            Cluster(
                value=value,
                branches=branches,
                vectors=(base, *chain.chain_vectors),
                chain=chain,
            )
        )
    return ModeSpectrum(n=n, pairs=pairs, clusters=tuple(clusters))


def build_slice(
    params: SystemParams,
    N: int,
    clustering_tolerance: float = DEFAULT_CLUSTERING_TOL,
) -> ModeSlice:
    """Eigenstructure over the window ``1 <= |n| <= N`` plus coincidence table.

    Chains are attached only inside a single mode matrix; coincidences across
    modes (distinct eigenfunctions) are recorded in the table but never
    chained.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    modes = {}
    for n in [k for a in range(1, N + 1) for k in (-a, a)]:
        pairs = _mode_pairs(params, n, clustering_tolerance)
        modes[n] = _cluster_mode(params, n, pairs, clustering_tolerance)

    slots = [(p.n, p.branch, p.value) for n in sorted(modes) for p in modes[n].pairs]
    return ModeSlice(
        params=params,
        N=N,
        clustering_tolerance=clustering_tolerance,
        modes=modes,
        coincidences=coincidence_table(slots, clustering_tolerance),
    )


@dataclass
class ModeSlice:
    """A slice stored as its per-mode objects, the basis table stacked from them.

    It has the attributes the consumers of :class:`cnslab.spectrum.SpectrumSlice`
    read, so a test can hand one to production; its ``modes`` may be built
    by hand.
    """

    params: SystemParams
    N: int
    clustering_tolerance: float
    modes: dict[int, ModeSpectrum]
    coincidences: list[Coincidence]

    @property
    def dim(self) -> int:
        return self.params.dim

    def mode(self, n: int) -> ModeSpectrum:
        return self.modes[n]

    def pairs(self) -> Iterable[EigenPair]:
        for n in sorted(self.modes):
            yield from self.modes[n].pairs

    @cached_property
    def basis(self) -> BasisTable:
        return table_from_modes(self.modes, self.dim)

    @cached_property
    def conds(self) -> np.ndarray:
        return np.linalg.cond(self.basis.basis)


def singular_values(block) -> tuple[float, float]:
    """The largest and smallest singular value of one block, from
    ``mpmath.svd_c`` at 40 digits, each rounded once to double."""
    with mpmath.workdps(40):
        s = mpmath.svd_c(mpmath.matrix(np.asarray(block, dtype=complex).tolist()), compute_uv=False)
        return float(max(s)), float(min(s))


def condition_numbers(blocks) -> np.ndarray:
    """The 2-norm condition number of every block of a stack of 2x2 blocks:
    ``sigma_max**2/|det|`` at 40 digits (``sigma_max`` from ``mpmath.svd_c``,
    the determinant of the double entries exact to 40 digits), rounded once
    to double; inf where the determinant is 0."""
    out = []
    with mpmath.workdps(40):
        for block in np.asarray(blocks, dtype=complex):
            m = mpmath.matrix(block.tolist())
            det = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
            out.append(float(max(mpmath.svd_c(m, compute_uv=False)) ** 2 / det) if det else np.inf)
    return np.array(out)


def with_modes(slice_, modes: dict[int, ModeSpectrum]) -> ModeSlice:
    """The slice with its per-mode objects replaced by ``modes``."""
    return ModeSlice(slice_.params, slice_.N, slice_.clustering_tolerance, modes, slice_.coincidences)


def table_from_modes(modes: dict[int, ModeSpectrum], dim: int) -> BasisTable:
    """Stack the eigenpairs of the modes with the size of each pair's cluster,
    and the basis vectors of their clusters; every mode must have ``dim``
    basis vectors."""
    ns = sorted(modes)
    values, nu_scaled, vectors, residuals, columns, rates, clusters, levels, mult = ([] for _ in range(9))
    for n in ns:
        mode = modes[n]
        sizes = {b: len(c.branches) for c in mode.clusters for b in c.branches}
        for p in mode.pairs:
            values.append(p.value)
            nu_scaled.append(p.nu_scaled)
            vectors.append(p.vector)
            residuals.append(p.residual)
            mult.append(sizes.get(p.branch, 1))
        for ci, cluster in enumerate(mode.clusters):
            is_chain = cluster.chain is not None
            for level, vector in enumerate(cluster.vectors):
                columns.append(vector)
                rates.append(cluster.value)
                clusters.append(ci)
                levels.append(level if is_chain else 0)
    shape = (len(ns), dim)
    basis = np.array(columns, dtype=complex).reshape(*shape, dim).swapaxes(1, 2)
    return BasisTable(
        ns=np.array(ns, dtype=np.int64),
        values=np.array(values, dtype=complex).reshape(shape),
        nu_scaled=np.array(nu_scaled, dtype=complex).reshape(shape),
        vectors=np.array(vectors, dtype=complex).reshape(*shape, dim),
        residuals=np.array(residuals, dtype=float).reshape(shape),
        basis=basis,
        rates=np.array(rates, dtype=complex).reshape(shape),
        clusters=np.array(clusters, dtype=np.int64).reshape(shape),
        levels=np.array(levels, dtype=np.int64).reshape(shape),
        mult=np.array(mult, dtype=np.int64).reshape(shape),
    )


def export_spectrum_csv(slice_, path) -> None:
    """Write ``n,branch,re,im,alg_mult,residual`` rows from the per-mode objects, modes ascending."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "branch", "re", "im", "alg_mult", "residual"])
        for n in sorted(slice_.modes):
            mode = slice_.modes[n]
            mult = {b: len(c.branches) for c in mode.clusters for b in c.branches}
            for p in sorted(mode.pairs, key=lambda q: _BRANCH_ORDER[q.branch]):
                writer.writerow(
                    [
                        n,
                        p.branch.value,
                        format(p.value.real, ".17g"),
                        format(p.value.imag, ".17g"),
                        mult.get(p.branch, 1),
                        format(p.residual, ".17g"),
                    ]
                )


def branch_values(slice_, branch: BranchLabel) -> dict[int, complex]:
    """The values of one branch by mode, in the order of ``slice_.modes``."""
    return {n: p.value for n, mode in slice_.modes.items() for p in mode.pairs if p.branch is branch}


def coincidence_table(slots, clustering_tolerance: float) -> list[Coincidence]:
    """All-pairs scan of ``(n, branch, value)`` slots in slice order."""
    coincidences = []
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            ni, bi, vi = slots[i]
            nj, bj, vj = slots[j]
            if abs(vi - vj) <= clustering_tolerance * max(1.0, abs(vi)):
                coincidences.append(
                    Coincidence(
                        first=(ni, bi),
                        second=(nj, bj),
                        distance=abs(vi - vj),
                        cross_mode=(ni != nj),
                    )
                )
    return coincidences


def _comparison_deficit(params: SystemParams, n: int) -> float:
    """Weighted squared distance of the mode-n eigenvectors to the comparison basis.

    The comparison basis pins the dominating component of each branch
    (density for hyperbolic, velocity/temperature for parabolic); only the
    non-pinned components contribute.
    """
    two_pi = 2.0 * np.pi
    pairs = _mode_pairs(params, n, DEFAULT_CLUSTERING_TOL)
    if isinstance(params, BarotropicParams):
        weights = np.array([params.b, params.rho_bar])
        targets = {
            BranchLabel.HYPERBOLIC: np.array([params.rho_bar, 0.0], dtype=complex),
            BranchLabel.PARABOLIC: np.array([0.0, 1.0], dtype=complex),
        }
    else:
        weights = np.array(
            [
                params.R * params.theta_bar,
                params.rho_bar**2,
                params.rho_bar**2 * params.c0 / params.theta_bar,
            ]
        )
        targets = {
            BranchLabel.HYPERBOLIC: np.array([params.R * params.rho_bar, 0.0, 0.0], dtype=complex),
            BranchLabel.PARABOLIC_LAMBDA: np.array([0.0, params.R, 0.0], dtype=complex),
            BranchLabel.PARABOLIC_KAPPA: np.array(
                [0.0, 0.0, params.R**2 * params.theta_bar**2 / (params.rho_bar * params.c0)],
                dtype=complex,
            ),
        }
    total = 0.0
    for p in pairs:
        diff = p.vector - targets[p.branch]
        total += float(two_pi * np.sum(weights * np.abs(diff) ** 2))
    return total


def riesz_closeness(params: SystemParams, N_start: int, N_end: int) -> np.ndarray:
    """Partial sums of the quadratic-closeness series over growing windows.

    Entry ``k`` holds the sum over ``N_start <= |n| <= N_start + k`` of the
    weighted squared distances between the eigenvectors and the orthogonal
    comparison basis.  The increments decay like ``1/n**2``, which is the
    numerical content of the Riesz-basis property.
    """
    threshold = 1
    if isinstance(params, BarotropicParams):
        threshold = max(1, int(np.floor(params.n0)) + 1)
    if N_start < threshold:
        raise DomainError(
            f"N_start must be >= {threshold} (above the discriminant threshold)"
        )
    if N_end < N_start:
        return np.zeros(0)
    sums = []
    total = 0.0
    for n in range(N_start, N_end + 1):
        total += _comparison_deficit(params, n) + _comparison_deficit(params, -n)
        sums.append(total)
    return np.array(sums)


def first_minima(row_keys: list, col_keys: list, tables, triangle: bool = False) -> list[tuple[float, tuple | None]]:
    """:func:`cnslab.observability._first_minima` on whole tables: every table
    formed on all rows and columns, triangle or not, NaN entries skipped, the
    first minimum in row-major order kept."""
    best = []
    for table in tables(0, len(row_keys), 0):
        table = np.where(np.isnan(table), np.inf, table)
        k = int(np.argmin(table)) if table.size else 0
        if table.size and table.flat[k] < np.inf:
            best.append((float(table.flat[k]), (row_keys[k // len(col_keys)], col_keys[k % len(col_keys)])))
        else:
            best.append((np.inf, None))
    return best


def _later(size: int) -> np.ndarray:
    """Mask of the pairs ``j > i`` of a square table."""
    return np.arange(size)[None, :] > np.arange(size)[:, None]


def _sorted(keys: np.ndarray, values: np.ndarray) -> tuple[list[int], np.ndarray]:
    order = np.argsort(keys)
    return keys[order].tolist(), values[order]


def min_pairwise_gap(keys: np.ndarray, values: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """:func:`cnslab.observability._min_pairwise_gap` on the whole table:
    ``|v_n - v_l|`` over every pair of keys ``n < l``."""
    keys, v = _sorted(keys, values)
    table = np.where(_later(v.size), np.abs(v[:, None] - v[None, :]), np.inf)
    return first_minima(keys, keys, lambda *_: (table,))[0]


def parabolic_minima(keys: np.ndarray, values: np.ndarray, r: float) -> list[tuple[float, tuple[int, int] | None]]:
    """:func:`cnslab.observability._parabolic_minima` on the whole tables: the
    P1 gaps, the P3 quotients by ``||n|**r - |l|**r|`` (zero denominators
    excluded) and the relaxed ones by ``|n - l|``, over pairs ``n < l``."""
    keys, v = _sorted(keys, values)
    n = np.array(keys, dtype=float)
    powers = np.abs(n) ** r
    gaps = np.abs(v[:, None] - v[None, :])
    later = _later(n.size)
    denom = np.abs(powers[:, None] - powers[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = (
            np.where(later, gaps, np.inf),
            np.where(later & (denom != 0.0), gaps / denom, np.inf),
            np.where(later, gaps / np.abs(n[:, None] - n[None, :]), np.inf),
        )
    return first_minima(keys, keys, lambda *_: tables)


def min_cross_gap(row_keys: np.ndarray, rows: np.ndarray, col_keys: np.ndarray, cols: np.ndarray):
    """:func:`cnslab.observability._min_cross_gap` on the whole table:
    ``|a_n - b_l|`` over every row value and column value."""
    table = np.abs(rows[:, None] - cols[None, :])
    return first_minima(row_keys.tolist(), col_keys.tolist(), lambda *_: (table,))[0]


def _min_pairwise_gap(values: dict[int, complex]) -> tuple[float, tuple[int, int] | None]:
    items = sorted(values.items())
    best = np.inf
    witness = None
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            d = abs(items[i][1] - items[j][1])
            if d < best:
                best = d
                witness = (items[i][0], items[j][0])
    return float(best), witness


def _merged_parabolic(slice_: SpectrumSlice) -> dict[int, complex]:
    """Parabolic family with the interleaved index map of the three-field case."""
    if slice_.dim == 2:
        return branch_values(slice_, BranchLabel.PARABOLIC)
    p1 = branch_values(slice_, BranchLabel.PARABOLIC_LAMBDA)
    p2 = branch_values(slice_, BranchLabel.PARABOLIC_KAPPA)
    merged = {}
    for k, v in p1.items():
        merged[2 * k - 1 if k > 0 else 2 * k + 1] = v
    for k, v in p2.items():
        merged[2 * k] = v
    return merged


def ingham_audit(slice_: SpectrumSlice, params: SystemParams, T: float) -> InghamHypothesisReport:
    """Numeric audit of every hypothesis of the combined inequality.

    The hyperbolic fit window starts above the discriminant threshold where
    the asymptote ``beta + i*tau*n`` is meaningful.  All verdicts carry the
    extremal witness that produced them.
    """
    hyp = branch_values(slice_, BranchLabel.HYPERBOLIC)
    par = _merged_parabolic(slice_)
    scale = max(max(abs(v) for v in hyp.values()), 1.0)

    h1_gap, h1_wit = _min_pairwise_gap(hyp)
    h1 = Verdict(passed=h1_gap > 1e-10 * scale, value=h1_gap, witness=h1_wit)

    threshold = 1
    if isinstance(params, BarotropicParams):
        threshold = max(1, int(np.floor(params.n0)) + 1)
    fit_ns = np.array(sorted(n for n in hyp if abs(n) >= threshold))
    fit_vals = np.array([hyp[n] for n in fit_ns])
    beta_re = float(np.mean(fit_vals.real))
    A = np.column_stack([np.ones(fit_ns.size), fit_ns.astype(float)])
    sol, *_ = np.linalg.lstsq(A, fit_vals.imag, rcond=None)
    beta = complex(beta_re, float(sol[0]))
    tau = float(sol[1])
    residuals = fit_vals - beta - 1j * tau * fit_ns
    abs_res = np.abs(residuals)
    order = np.argsort(np.abs(fit_ns))
    sorted_res = abs_res[order]
    # Partial sums of |e_n|^2 from the outside in; summability shows as a
    # vanishing outer tail.
    tail_partial = np.cumsum((sorted_res**2)[::-1])[::-1]
    inner = float(np.mean(sorted_res[: max(1, len(sorted_res) // 4)]))
    outer = float(np.mean(sorted_res[-max(1, len(sorted_res) // 4) :]))
    h2 = Verdict(
        passed=(tau > 0.0) and (outer <= inner + 1e-12),
        value=float(np.sqrt(tail_partial[0])),
        witness=None,
        extra={
            "beta_re": beta.real,
            "beta_im": beta.imag,
            "tau": tau,
            "tail_l2": float(np.sqrt(tail_partial[0])),
            "outer_tail_l2": float(np.sqrt(tail_partial[len(tail_partial) // 2])),
            "fit_threshold": threshold,
        },
    )

    p1_gap, p1_wit = _min_pairwise_gap(par)
    p1 = Verdict(passed=p1_gap > 1e-10 * scale, value=p1_gap, witness=p1_wit)

    ratios = {}
    for n, v in par.items():
        ratios[n] = (-v.real / abs(v.imag)) if v.imag != 0.0 else np.inf
    c_hat_n = min(ratios, key=lambda n: ratios[n])
    p2 = Verdict(passed=ratios[c_hat_n] > 0.0, value=float(ratios[c_hat_n]), witness=c_hat_n)

    r = 2.0
    p3_best, p3_wit = np.inf, None
    par_items = sorted(par.items())
    for i in range(len(par_items)):
        for j in range(i + 1, len(par_items)):
            n, vn = par_items[i]
            l, vl = par_items[j]
            denom = abs(abs(n) ** r - abs(l) ** r)
            if denom == 0.0:
                continue
            q = abs(vn - vl) / denom
            if q < p3_best:
                p3_best, p3_wit = q, (n, l)
    p3 = Verdict(passed=p3_best > 0.0 and np.isfinite(p3_best), value=float(p3_best),
                 witness=p3_wit, extra={"r": r})

    mags = {n: abs(v) / abs(n) ** r for n, v in par.items()}
    b0 = max(mags.values())
    n_max = max(mags, key=lambda n: mags[n])
    eps_emp = min(mags.values()) / b0
    n_min = min(mags, key=lambda n: mags[n])
    p4 = Verdict(passed=eps_emp > 0.0, value=float(eps_emp),
                 witness=(n_min, n_max), extra={"A0": 0.0, "B0": float(b0)})

    cross_best, cross_wit = np.inf, None
    for n, vh in hyp.items():
        for m, vp in par.items():
            d = abs(vh - vp)
            if d < cross_best:
                cross_best, cross_wit = d, (n, m)
    disjoint = Verdict(passed=cross_best > 1e-10 * scale, value=float(cross_best), witness=cross_wit)

    relaxed_gap, relaxed_wit = np.inf, None
    for i in range(len(par_items)):
        for j in range(i + 1, len(par_items)):
            n, vn = par_items[i]
            l, vl = par_items[j]
            q = abs(vn - vl) / abs(n - l)
            if q < relaxed_gap:
                relaxed_gap, relaxed_wit = q, (n, l)
    c_hat_rel = min((-v.real / abs(v)) for v in par.values())
    inv_sum = float(sum(1.0 / abs(v) for v in par.values()))
    relaxed = Verdict(
        passed=relaxed_gap > 0.0 and c_hat_rel > 0.0,
        value=float(relaxed_gap),
        witness=relaxed_wit,
        extra={"c_hat": float(c_hat_rel), "inv_abs_partial_sum": inv_sum,
               "window_size": len(par)},
    )

    cross_gaps: dict[str, float] = {}
    if slice_.dim == 3:
        p1v = branch_values(slice_, BranchLabel.PARABOLIC_LAMBDA)
        p2v = branch_values(slice_, BranchLabel.PARABOLIC_KAPPA)
        lam = params.lambda0
        kap = params.kappa0
        cross_gaps["p1_p1_over_n2"] = min(
            abs(p1v[n] - p1v[l]) / abs(n**2 - l**2)
            for n in p1v for l in p1v if n != l and n**2 != l**2
        )
        cross_gaps["p2_p2_over_n2"] = min(
            abs(p2v[n] - p2v[l]) / abs(n**2 - l**2)
            for n in p2v for l in p2v if n != l and n**2 != l**2
        )
        cross_gaps["p1_p2_over_mixed"] = min(
            abs(p1v[n] - p2v[j]) / abs(lam * n**2 - kap * j**2)
            for n in p1v for j in p2v
            if abs(lam * n**2 - kap * j**2) > 0.0
        )

    return InghamHypothesisReport(
        h1=h1, h2=h2, p1=p1, p2=p2, p3=p3, p4=p4,
        disjoint=disjoint, relaxed=relaxed,
        window=slice_.N, cross_gaps=cross_gaps,
    )

