"""Mode-by-mode eigenstructure of the adjoint generator, and so of the forward one at ``-n``.

Both systems diagonalize over the Fourier modes ``exp(i*n*x)``: the action of
the generator on mode ``n`` is a small dense matrix (2x2 or 3x3).  For the
two-field system the eigenvalues have closed forms

    nu_h(n) = (-mu0*n**2 + 2i*u_bar*n + sqrt(mu0**2*n**4 - 4*b*rho_bar*n**2)) / 2
    nu_p(n) = (-mu0*n**2 + 2i*u_bar*n - sqrt(mu0**2*n**4 - 4*b*rho_bar*n**2)) / 2

with the principal complex square root; for the three-field system the three
eigenvalues come from a cubic and are computed by a dense QR eigensolve with
one Newton polish on the characteristic polynomial.  Branches are labelled by
proximity to their asymptote anchors:

    hyperbolic        ->  i*u_bar*n - omega   (bounded real part)
    parabolic(-like)  -> -d*n**2 + i*u_bar*n  (d the relevant diffusion)

Eigenvectors follow a pinned-component convention: the vector of branch
``b`` has its component ``b`` at a fixed closed-form value (``rho_bar`` or
``R*rho_bar`` on the hyperbolic branch), so that the boundary observation
identities stay literal downstream.  The two-field vectors are closed forms
with that normalization; the three-field vectors are the dense eigenvectors
rescaled to it.

All modes of a window are solved in one batched pass over stacked
``(modes, dim, dim)`` symbols; only modes whose values come close enough to
coincide run the per-mode defect logic (multiplet refinement, Jordan
chains).  The batched arithmetic is plain numpy arithmetic: it agrees with a
per-mode solve to rounding, and so do the discrete outputs (branch labels,
clusters, Jordan levels, coincidences) wherever the rule that decides them
is not tied within rounding.

A slice stores its eigenstructure once, as the stacked arrays of a
:class:`BasisTable`; the per-mode :class:`ModeSpectrum` objects are views
built from it on request.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ChainError, ConditioningError, DegenerateWarning, DomainError
from .model import BarotropicParams, NonBarotropicParams, SystemParams, hyperbolic_fit_threshold

#: Relative clustering tolerance used to declare two eigenvalues coincident.
DEFAULT_CLUSTERING_TOL = 1e-8
#: Acceptable relative residual for a computed eigenpair.
EIGEN_RESIDUAL_TOL = 1e-10
#: Acceptable relative residual for each Jordan-chain relation.
CHAIN_RESIDUAL_TOL = 1e-9


class BranchLabel(Enum):
    HYPERBOLIC = "h"
    PARABOLIC = "p"
    PARABOLIC_LAMBDA = "pl"
    PARABOLIC_KAPPA = "pk"


#: Column of each branch in the batched arrays and the basis table; also the order of ties and exports.
_BRANCH_ORDER = {
    BranchLabel.HYPERBOLIC: 0,
    BranchLabel.PARABOLIC: 1,
    BranchLabel.PARABOLIC_LAMBDA: 1,
    BranchLabel.PARABOLIC_KAPPA: 2,
}

#: Column ``b`` of every batched array holds branch ``_BRANCHES[dim][b]``.
_BRANCHES = {
    2: (BranchLabel.HYPERBOLIC, BranchLabel.PARABOLIC),
    3: (BranchLabel.HYPERBOLIC, BranchLabel.PARABOLIC_LAMBDA, BranchLabel.PARABOLIC_KAPPA),
}

_PERMUTATIONS_3 = np.array(list(itertools.permutations(range(3))))
#: Row pairs ``(i, j)``, ``i < j``, of a 2x2 and a 3x3 block.
_UPPER = {2: ([0], [1]), 3: ([0, 0, 1], [1, 2, 2])}


@dataclass(frozen=True)
class ModeMatrix:
    """Fourier symbol of the adjoint generator at one mode."""

    n: int
    dim: int
    entries: np.ndarray


# ---------------------------------------------------------------------------
# stacked symbols and branch anchors


def _symbols(params: SystemParams, ns) -> np.ndarray:
    """Adjoint symbol matrices of the modes ``ns`` stacked as ``(len(ns), dim, dim)``; any integer mode, zero included.

    Entry ``(i, j)`` is ``A[i, j]*i*n - D[i]*n**2*[i == j]``; ``A``, ``D`` are real: the forward one is at ``-n``.
    """
    nf = np.asarray(ns, dtype=float)
    n2 = nf * nf
    inx = 1j * nf
    coefficients = params.coefficients
    M = np.zeros((nf.size, params.dim, params.dim), dtype=complex)
    for i, row in enumerate(coefficients.advection):
        for j, a in enumerate(row):
            if a:
                M[:, i, j] = a * inx
    for i, d in enumerate(coefficients.diffusion):
        if d:
            M[:, i, i] = -d * n2 + M[:, i, i]
    return M


def _symbol(params: SystemParams, n: int) -> np.ndarray:
    """Raw adjoint symbol matrix, valid for any integer mode including zero."""
    return _symbols(params, [n])[0]


def mode_matrix(params: SystemParams, n: int) -> ModeMatrix:
    """Symbol matrix of the adjoint generator at mode ``n != 0``."""
    if n == 0:
        raise DomainError("mode n = 0 is excluded (constant kernel)")
    return ModeMatrix(n=n, dim=params.dim, entries=_symbol(params, n))


def _anchors(params: SystemParams, nf: np.ndarray) -> np.ndarray:
    """Asymptote anchor of every branch, ``(len(nf), dim)`` in branch order."""
    iun = 1j * params.u_bar * nf
    coefficients = params.coefficients
    return np.stack([iun - coefficients.omega] + [-d * nf**2 + iun for d in coefficients.diffusion[1:]], axis=1)


def classify_branch(params: SystemParams, n: int, value: complex) -> BranchLabel:
    """Nearest-anchor branch label with a deterministic tie-break.

    Ties resolve toward hyperbolic first, then the momentum-diffusion
    parabolic branch.
    """
    dists = np.abs(value - _anchors(params, np.array([float(n)]))[0])
    return _BRANCHES[params.dim][int(np.argmin(dists))]


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue of the mode matrix with its normalized eigenvector.

    ``nu_scaled = value/(i*n)`` is the root of the scaled characteristic
    polynomial; the two-field closed-form eigenvectors are written in terms
    of it.  ``residual`` is ``|(M - value*I) v| / (|M| |v|)``.
    """

    n: int
    branch: BranchLabel
    value: complex
    vector: np.ndarray
    nu_scaled: complex
    residual: float
    unclassified_by_paper: bool = False


@dataclass(frozen=True)
class GeneralizedChain:
    """Jordan chain above a defective eigenvalue of one mode matrix.

    ``chain_vectors[0]`` solves ``(M - value*I) w = base_vector`` and each
    later vector maps to its predecessor; the chain length equals the
    algebraic multiplicity minus one (geometric multiplicity one).
    """

    n: int
    value: complex
    base_vector: np.ndarray
    chain_vectors: tuple[np.ndarray, ...]
    algebraic_multiplicity: int
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class Cluster:
    """A group of coincident eigenvalues of one mode with its basis block.

    ``vectors`` lists the eigenvector followed by any chain vectors; for a
    diagonalizable repeated eigenvalue it lists the independent eigenvectors
    instead and ``chain`` is ``None``.
    """

    value: complex
    branches: tuple[BranchLabel, ...]
    vectors: tuple[np.ndarray, ...]
    chain: GeneralizedChain | None


@dataclass(frozen=True)
class ModeSpectrum:
    """The eigenpairs of one mode, in branch order, and its clusters."""

    n: int
    pairs: tuple[EigenPair, ...]
    clusters: tuple[Cluster, ...]

    def basis_vectors(self) -> list[np.ndarray]:
        return [v for c in self.clusters for v in c.vectors]


@dataclass(frozen=True)
class Coincidence:
    """Two (mode, branch) slots sharing an eigenvalue within tolerance."""

    first: tuple[int, BranchLabel]
    second: tuple[int, BranchLabel]
    distance: float
    cross_mode: bool


class BasisTable(NamedTuple):
    """The eigenstructure of a slice as stacked arrays, modes ascending.

    Row ``r`` belongs to mode ``ns[r]``.  ``values``, ``nu_scaled``,
    ``vectors`` and ``residuals`` hold the eigenpairs in branch order
    (``vectors[r, b]`` the eigenvector of branch ``b``, see
    :class:`EigenPair`).  Column ``j`` of ``basis[r]`` is the mode's j-th
    basis vector, cluster by cluster as in :meth:`ModeSpectrum.basis_vectors`,
    with its cluster's eigenvalue in ``rates``, its cluster index in
    ``clusters`` and its Jordan level in ``levels`` (0 outside a chain).
    ``mult[r, b]`` is the size of the cluster that holds the eigenpair of
    branch ``b``.  The condition numbers of the ``basis`` matrices are not
    part of the table: :attr:`SpectrumSlice.conds` computes them on first
    read.
    Every basis block is complete: a cluster of ``m`` values contributes
    ``m`` columns (its eigenvectors, or an eigenvector and its Jordan chain),
    or :func:`build_slice` raises :class:`ChainError`.
    """

    ns: np.ndarray  # (K,)
    values: np.ndarray  # (K, dim)
    nu_scaled: np.ndarray  # (K, dim)
    vectors: np.ndarray  # (K, dim, dim)
    residuals: np.ndarray  # (K, dim)
    basis: np.ndarray  # (K, dim, dim)
    rates: np.ndarray  # (K, dim)
    clusters: np.ndarray  # (K, dim)
    levels: np.ndarray  # (K, dim)
    mult: np.ndarray  # (K, dim)

    def rows(self, ns) -> np.ndarray:
        """Row of every mode of ``ns``; a mode outside the slice is a DomainError."""
        ns = np.asarray(ns, dtype=np.int64)
        rows = np.minimum(np.searchsorted(self.ns, ns), self.ns.size - 1)
        outside = self.ns[rows] != ns
        if outside.any():
            raise DomainError(f"mode {ns[outside][0]} outside the slice")
        return rows


@dataclass
class SpectrumSlice:
    """Eigenstructure of all modes ``1 <= |n| <= N``, with coincidence data.

    :attr:`basis` is the one store.  :attr:`modes` holds per-mode
    :class:`ModeSpectrum` views of it, :attr:`conds` the condition numbers
    of its basis matrices and :attr:`coincidences` its shared eigenvalues,
    each built on first use and cached.
    Treated as immutable once built; the arrays of :attr:`basis` are read-only.
    """

    params: SystemParams
    N: int
    clustering_tolerance: float
    basis: BasisTable

    @property
    def dim(self) -> int:
        return self.params.dim

    @cached_property
    def modes(self) -> dict[int, ModeSpectrum]:
        """The modes in slice order ``-1, 1, -2, 2, ...``."""
        rows = np.argsort(np.abs(self.basis.ns), kind="stable")
        return {view.n: view for view in _clustered_modes(self.params, self.basis, rows, self.clustering_tolerance)}

    @cached_property
    def conds(self) -> np.ndarray:
        """The 2-norm condition numbers of the ``basis.basis`` matrices: closed
        forms for 2x2 blocks (:func:`_closed_form_svd`), ``np.linalg.cond``
        for 3x3 blocks, whose smallest singular value the cubic gives
        without relative accuracy."""
        if self.dim == 2:
            return _closed_form_svd(self.basis.basis, condition=True)
        return np.linalg.cond(self.basis.basis)

    @cached_property
    def coincidences(self) -> list[Coincidence]:
        """Every pair of (mode, branch) slots whose values agree within the clustering tolerance."""
        return _coincidences(self.basis, _BRANCHES[self.dim], self.clustering_tolerance)

    def mode(self, n: int) -> ModeSpectrum:
        return self.modes[n]


# ---------------------------------------------------------------------------
# characteristic polynomial and multiplets


def _charpoly(M: np.ndarray) -> np.ndarray:
    """Coefficients of det(x I - M), highest power first, for stacked symbols of dim <= 3."""
    tr = np.trace(M, axis1=1, axis2=2)
    det = np.linalg.det(M)
    one = np.ones_like(tr)
    if M.shape[1] == 2:
        return np.stack([one, -tr, det], axis=1)
    minors = (
        M[:, 1, 1] * M[:, 2, 2] - M[:, 1, 2] * M[:, 2, 1]
        + M[:, 0, 0] * M[:, 2, 2] - M[:, 0, 2] * M[:, 2, 0]
        + M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    )
    return np.stack([one, -tr, minors, -det], axis=1)


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``np.polyval`` of each mode's coefficient row at that mode's values
    (``np.polyval`` takes one coefficient row for all values)."""
    y = np.zeros_like(z)
    for c in coeffs.T:
        y = y * z + c[:, None]
    return y


def _newton_polish(coeffs: np.ndarray, z: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """One Newton step per value on its mode's characteristic polynomial.

    Skipped near a multiple root, where Newton is ill-posed, and when the
    step is not small against the value.
    """
    p = _horner(coeffs, z)
    dp = _horner(coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1), z)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = p / dp
    multiple = np.abs(dp) < 1e-8 * np.fmax(1.0, np.abs(p)) / np.maximum(scale, 1e-300)[:, None]
    take = ~multiple & (np.abs(step) < 0.5 * np.fmax(1.0, np.abs(z)))
    return np.where(take, z - step, z)


def _resolution_radius(m: int, magnitude: float) -> float:
    """Attainable eigenvalue resolution for an m-fold defective value.

    A backward perturbation of size ``eps`` splits a Jordan-block eigenvalue
    into a cluster of radius ``~eps**(1/m)``; values closer than this are
    numerically indistinguishable from an exact multiple root.
    """
    return 50.0 * float(np.finfo(float).eps) ** (1.0 / m) * max(1.0, magnitude)


def _within_reach(values: np.ndarray, clustering_tolerance: float) -> np.ndarray:
    """Modes whose values come close enough for refinement or clustering to act.

    :func:`_refine_multiplets` merges values lying within the resolution
    radius (or the tolerance) of their mean, and clustering groups values
    within the tolerance, so a mode none of whose pairs is within twice that
    reach is left untouched by both.  The factor 4 keeps the test a superset.
    """
    dim = values.shape[1]
    i, j = np.triu_indices(dim, 1)
    gap = np.abs(values[:, i] - values[:, j]).min(axis=1)
    scale = max(clustering_tolerance, _resolution_radius(dim, 0.0))
    return gap <= 4.0 * scale * np.fmax(1.0, np.abs(values).max(axis=1))


def _refine_multiplets(coeffs: np.ndarray, values: np.ndarray, clustering_tolerance: float) -> np.ndarray:
    """Collapse within-resolution clusters of one mode onto the polished multiple root.

    For a candidate m-cluster the (m-1)-th derivative of the characteristic
    polynomial (coefficients ``coeffs``) has a *simple* root at the multiple
    eigenvalue, so one Newton run there recovers it to machine accuracy (the
    dense solve only locates the individual copies to ``eps**(1/m)``).  The
    refined value replaces all cluster members; non-confirming clusters are
    left untouched.
    """
    d = len(values)
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


# ---------------------------------------------------------------------------
# batched eigensolve


def _barotropic_roots(params: BarotropicParams, nf: np.ndarray, M: np.ndarray, tol: float):
    """Closed-form eigenvalues, ``nu_scaled`` and eigenvectors of the two-field symbols."""
    p = params
    n2 = nf * nf
    # a numpy power overflows to inf, which _solve_modes refuses by mode, where a float's power raises
    disc = np.sqrt((np.float64(p.mu0) ** 2 * (n2 * n2) - 4.0 * p.b * p.rho_bar * n2).astype(complex))
    # Principal square root throughout.  Below the threshold (imaginary
    # discriminant) the hyperbolic label follows conjugate symmetry in n, so
    # that the branch identity n -> -n pairs p with p; above the threshold
    # the principal root already realizes that symmetry.
    sign = np.where((disc.imag == 0.0) | (nf > 0), 1.0, -1.0)
    base = -p.mu0 * n2 + 2j * p.u_bar * nf
    shift = sign * disc
    values = np.stack([0.5 * (base + shift), 0.5 * (base - shift)], axis=1)
    near = _within_reach(values, tol)
    if near.any():
        coeffs = _charpoly(M[near])
        values[near] = [_refine_multiplets(c, v, tol) for c, v in zip(coeffs, values[near])]
    nu_scaled = values / (1j * nf)[:, None]
    d = nu_scaled - p.u_bar
    vectors = np.empty(M.shape, dtype=complex)
    vectors[:, 0, 0] = p.rho_bar
    vectors[:, 0, 1] = d[:, 0]
    vectors[:, 1, 0] = p.rho_bar / d[:, 1]
    vectors[:, 1, 1] = 1.0
    return values, nu_scaled, vectors, near


def _dense_nonbarotropic(params: NonBarotropicParams, ns: np.ndarray, M: np.ndarray, scale: np.ndarray, tol: float):
    """Dense eigenpairs of the three-field symbols, polished, labelled and put in branch order.

    Returns the values, ``nu_scaled``, the dense eigenvectors rescaled to
    the pinned-component convention and the mask of modes near a multiplet.
    """
    nf = ns.astype(float)
    values, dense = np.linalg.eig(M)
    backward = np.linalg.norm(M @ dense - dense * values[:, None, :], axis=1).max(axis=1)
    bad = np.flatnonzero(backward > 1e-8 * np.maximum(scale, 1.0))
    if bad.size:
        k = bad[0]
        raise ConditioningError(
            f"mode {ns[k]}: dense eigensolve backward error {backward[k]:.3e} exceeds 1e-8*|M|"
        )
    coeffs = _charpoly(M)
    values = _newton_polish(coeffs, values, scale)
    near = _within_reach(values, tol)
    if near.any():
        values[near] = [_refine_multiplets(c, v, tol) for c, v in zip(coeffs[near], values[near])]

    columns = _label_columns(params, nf, values, dense)
    values = np.take_along_axis(values, columns, axis=1)
    dense = np.take_along_axis(dense, columns[:, None, :], axis=2).swapaxes(1, 2)
    vectors = _rescale_to_convention(np.array(params.coefficients.pinned), np.arange(3), dense)
    return values, values / (1j * nf)[:, None], vectors, near


def _degenerate_diffusions(params: SystemParams) -> bool:
    d = params.coefficients.diffusion[1:]
    return len(d) == 2 and abs(d[0] - d[1]) <= 1e-12 * max(d)


def _label_columns(params: NonBarotropicParams, nf: np.ndarray, values: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """``columns[k, b]``: the column of ``values[k]`` that carries branch ``b``.

    Minimal total anchor distance over the 6 assignments, the first in
    permutation order winning unless another is smaller by more than
    1e-15 relative.  When the two diffusions coincide the parabolic anchors
    merge: the value nearest the hyperbolic anchor is hyperbolic and the
    other two split by dominant eigenvector component (velocity vs
    temperature), which tracks eigenvector continuity in n.
    """
    dists = np.abs(values[:, :, None] - _anchors(params, nf)[:, None, :])
    rows = np.arange(values.shape[0])
    if _degenerate_diffusions(params):
        labels = np.empty(values.shape, dtype=int)
        hyp = np.argsort(dists[:, :, 0], axis=1)[:, 0]
        rest = np.array([[1, 2], [0, 2], [0, 1]])[hyp]
        vel = np.abs(dense[rows[:, None], 1, rest])
        temp = np.abs(dense[rows[:, None], 2, rest])
        dominant = vel >= temp
        key = -vel / np.fmax(temp, 1e-300)
        first_lambda = np.where(dominant[:, 0] == dominant[:, 1], ~(key[:, 1] < key[:, 0]), dominant[:, 0])
        labels[rows, hyp] = 0
        labels[rows, rest[:, 0]] = np.where(first_lambda, 1, 2)
        labels[rows, rest[:, 1]] = np.where(first_lambda, 2, 1)
    else:
        P = _PERMUTATIONS_3
        costs = dists[:, 0, P[:, 0]] + dists[:, 1, P[:, 1]] + dists[:, 2, P[:, 2]]
        best = np.zeros(values.shape[0], dtype=int)
        best_cost = costs[:, 0]
        for q in range(1, len(P)):
            better = costs[:, q] < best_cost - 1e-15 * np.fmax(1.0, np.abs(best_cost))
            best = np.where(better, q, best)
            best_cost = np.where(better, costs[:, q], best_cost)
        labels = P[best]
    return np.argsort(labels, axis=1)


def _rescale_to_convention(pinned: np.ndarray, component: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Scale each vector so that its ``component`` takes the value ``pinned``; a vanishing pivot leaves it as is.

    ``pinned`` and ``component`` broadcast against the leading axes of ``vectors``.
    """
    index = np.broadcast_to(component, vectors.shape[:-1])[..., None]
    pivot = np.take_along_axis(vectors, index, axis=-1)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = vectors * (pinned / pivot)[..., None]
    return np.where((np.abs(pivot) < 1e-300)[..., None], vectors, scaled)


def _residuals(M: np.ndarray, M_norm: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``|(M - value I) v| / (|M|_2 |v|)`` per eigenpair, 0 where the scale vanishes.

    ``M`` and its 2-norms ``M_norm`` (from :func:`_closed_form_svd`)
    broadcast against the leading axes of ``values``.
    """
    Mv = np.matmul(M, vectors[..., None])[..., 0]
    scale = M_norm * np.linalg.norm(vectors, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.linalg.norm(Mv - values[..., None] * vectors, axis=-1) / scale
    return np.where(scale == 0.0, 0.0, res)


def _closed_form_svd(M: np.ndarray, condition: bool = False) -> np.ndarray:
    """The largest singular value of each block of a stack of 2x2 or 3x3
    matrices; with ``condition``, the 2-norm condition number of each 2x2
    block instead (inf where the determinant vanishes).

    Each block is first scaled by the power of two of its largest entry.
    That is exact: the result has the bits of an unscaled evaluation
    wherever that neither overflows nor underflows.  ``sigma_max**2`` is the
    largest eigenvalue of the Hermitian ``H = M M^H``.  For a 2x2 block it is
    ``(h11 + h22 + hypot(h11 - h22, 2|h12|))/2``, a sum of nonnegative
    terms, and ``cond = sigma_max**2/|det M|``.  For a 3x3 block it is the
    trigonometric root ``q + 2p cos(arccos(r)/3)`` of the characteristic
    cubic (Smith, CACM 4(4), 1961), which loses half the digits as the two
    largest roots meet (``r -> -1``).  Where ``r < -1/2`` the smallest root
    lies at least ``2p`` below the other two, and the 2x2 formula takes the
    largest from ``H`` restricted to the complement of that root's
    eigenvector, a cross product of two rows of ``H - lambda_3 I`` (unless
    ``p < eps q``, where the cubic's root is exact anyway).
    """
    k, dim = M.shape[:2]
    E = np.ascontiguousarray(M.reshape(k, dim * dim).T)  # E[dim*r + c] = M[:, r, c]
    e = np.maximum(np.frexp(np.abs(E).max(axis=0))[1], -1021)  # 2**-e stays finite on subnormal blocks
    S = (E * np.ldexp(1.0, -e)).reshape(dim, dim, k)
    h = (S.real**2 + S.imag**2).sum(axis=1)  # h[r] = H[r, r]
    i, j = _UPPER[dim]
    off = (S[i] * S[j].conj()).sum(axis=1)  # off[m] = H[i[m], j[m]]
    if dim == 2:
        lam = 0.5 * (h[0] + h[1] + np.hypot(h[0] - h[1], 2.0 * np.abs(off[0])))
        if condition:
            det = np.abs(S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0])
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(det == 0.0, np.inf, lam / det)
        return np.ldexp(np.sqrt(lam), e)
    q = h.sum(axis=0) / 3.0
    dev = h - q
    off2 = off.real**2 + off.imag**2
    p = np.sqrt(((dev**2).sum(axis=0) + 2.0 * off2.sum(axis=0)) / 6.0)
    det = dev[0] * dev[1] * dev[2] + 2.0 * (off[0] * off[2] * off[1].conj()).real - (dev * off2[::-1]).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.minimum(np.maximum(np.where(p > 0.0, 0.5 * det / p / p / p, 0.0), -1.0), 1.0)
    phi = np.arccos(r) / 3.0
    lam = q + 2.0 * p * np.cos(phi)
    far = np.flatnonzero((r < -0.5) & (p > np.finfo(float).eps * q))
    if far.size:
        # v: the unit eigenvector of lambda_3, the largest cross product of two rows of R = H - lambda_3 I
        diag = [0, 1, 2]
        H = np.empty((3, 3, far.size), dtype=complex)
        H[i, j], H[j, i], H[diag, diag] = off[:, far], off[:, far].conj(), h[:, far]
        R = H.copy()
        R[diag, diag] -= q[far] + 2.0 * p[far] * np.cos(phi[far] + 2.0 * np.pi / 3.0)
        a, b = R[i], R[j]
        cross = a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]
        size = (cross.real**2 + cross.imag**2).sum(axis=1)
        best = size.argmax(axis=0)[None]
        v = np.take_along_axis(cross, best[None], axis=0)[0] / np.sqrt(np.take_along_axis(size, best, axis=0))
        # H on the complement of v, P H P with P = I - v v^H, has the roots half +- |D|_F/sqrt(2), where
        # D = P H P - half P is its traceless part: a sum of squares, no cancellation as the roots meet
        w = (H * v).sum(axis=1)
        rho = (v.conj() * w).sum(axis=0).real
        half = 0.5 * (3.0 * q[far] - rho)
        D = H - w[:, None] * v.conj() - v[:, None] * w.conj() + (rho + half) * v[:, None] * v.conj()
        D[diag, diag] -= half
        lam[far] = half + np.sqrt(0.5 * (D.real**2 + D.imag**2).sum(axis=(0, 1)))
    return np.ldexp(np.sqrt(lam), e)


def _kernel_vectors(M: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unit vectors spanning the (numerical) kernel of each ``M - value*I``."""
    _, _, vh = np.linalg.svd(M - values[:, None, None] * np.eye(M.shape[-1]))
    return vh[:, -1].conj()


def _refuse_non_finite(ns: np.ndarray, what: str, *arrays: np.ndarray) -> None:
    """DomainError naming the mode of least ``|n|`` at which an entry of ``arrays`` (one row per mode) is not finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        bad = ~np.all([np.isfinite(a).reshape(ns.size, -1).all(axis=1) for a in arrays], axis=0)
        n = ns[bad][np.argmin(np.abs(ns[bad]))]
        raise DomainError(f"mode {n}: {what} not finite, the coefficients overflow there")


def _solve_modes(params: SystemParams, ns, clustering_tolerance: float) -> tuple[BasisTable, np.ndarray]:
    """Eigenpairs of the adjoint symbols of all modes ``ns`` in one batched pass.

    Each eigenvector is the closed form (two-field) or the rescaled dense
    eigenvector (three-field).  One whose residual fails, the signature of a
    defective value whose eigenvector is only ``eps**(1/m)`` accurate, is
    replaced by the rescaled kernel vector of the shifted matrix.  The
    residual scales are the symbols' 2-norms in closed form
    (:func:`_closed_form_svd`).  Returns
    the table with every eigenpair its own cluster (the eigenvectors as basis
    columns in branch order, level 0) and the mask of the modes within
    clustering reach (see :func:`_within_reach`).  A symbol, eigenvalue or
    eigen-residual that is not finite raises :class:`DomainError` naming
    its mode: finite coefficients can still overflow at large ``|n|``.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if np.any(ns == 0):
        raise DomainError("mode n = 0 is excluded")
    tol = clustering_tolerance
    # an entry that overflows is refused below, naming its mode, instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        M = _symbols(params, ns)
        _refuse_non_finite(ns, "symbol", M)
        M_norm = _closed_form_svd(M)
        if isinstance(params, BarotropicParams):
            values, nu_scaled, vectors, near = _barotropic_roots(params, ns.astype(float), M, tol)
        else:
            values, nu_scaled, vectors, near = _dense_nonbarotropic(params, ns, M, M_norm, tol)
        residuals = _residuals(M[:, None], M_norm[:, None], values, vectors)
    _refuse_non_finite(ns, "eigenvalue or eigen-residual", values, residuals)
    k, b = np.nonzero(residuals > EIGEN_RESIDUAL_TOL)
    if k.size:
        vectors[k, b] = _rescale_to_convention(np.array(params.coefficients.pinned)[b], b, _kernel_vectors(M[k], values[k, b]))
        residuals[k, b] = _residuals(M[k], M_norm[k], values[k, b], vectors[k, b])
    clusters = np.tile(np.arange(params.dim), (ns.size, 1))
    table = BasisTable(
        ns, values, nu_scaled, vectors, residuals, basis=vectors.copy().swapaxes(1, 2), rates=values.copy(),
        clusters=clusters, levels=np.zeros_like(clusters), mult=np.ones_like(clusters),
    )
    return table, near


def _mode_pairs(params: SystemParams, table: BasisTable, rows) -> list[tuple[EigenPair, ...]]:
    """The eigenpairs of the given rows of a basis table, each mode's in branch order."""
    rows = np.asarray(rows, dtype=np.int64)
    values, nu_scaled, residuals = (a[rows].tolist() for a in (table.values, table.nu_scaled, table.residuals))
    branches = _BRANCHES[params.dim]
    unclassified = [_degenerate_diffusions(params) and b is not BranchLabel.HYPERBOLIC for b in branches]
    return [
        tuple(
            EigenPair(
                n=n,
                branch=branch,
                value=values[k][b],
                vector=table.vectors[r, b],
                nu_scaled=nu_scaled[k][b],
                residual=residuals[k][b],
                unclassified_by_paper=unclassified[b],
            )
            for b, branch in enumerate(branches)
        )
        for k, (r, n) in enumerate(zip(rows.tolist(), table.ns[rows].tolist()))
    ]


def eigen_barotropic(
    params: BarotropicParams,
    n: int,
    clustering_tolerance: float = DEFAULT_CLUSTERING_TOL,
) -> tuple[EigenPair, EigenPair]:
    """Closed-form eigenpairs of the adjoint symbol at mode ``n``.

    Emits :class:`DegenerateWarning` (without failing) when the two values
    coincide within the clustering tolerance.
    """
    ((h, p),) = _mode_pairs(params, _solve_modes(params, [n], clustering_tolerance)[0], [0])
    if abs(h.value - p.value) <= clustering_tolerance * max(1.0, abs(h.value)):
        warnings.warn(
            f"mode {n}: hyperbolic and parabolic eigenvalues coincide ({h.value:.6g})",
            DegenerateWarning,
            stacklevel=2,
        )
    return h, p


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
    (pairs,) = _mode_pairs(params, _solve_modes(params, [n], clustering_tolerance)[0], [0])
    vals = [p.value for p in pairs]
    for i, j in itertools.combinations(range(3), 2):
        if abs(vals[i] - vals[j]) <= clustering_tolerance * max(1.0, abs(vals[i])):
            warnings.warn(
                f"mode {n}: eigenvalues {vals[i]:.6g} and {vals[j]:.6g} coincide",
                DegenerateWarning,
                stacklevel=2,
            )
    return pairs[0], pairs[1], pairs[2]


# ---------------------------------------------------------------------------
# Jordan chains


def generalized_chain(
    matrix: ModeMatrix,
    value: complex,
    base_vector: np.ndarray,
    multiplicity: int,
) -> GeneralizedChain:
    """Minimum-norm Jordan chain above ``value`` with the given multiplicity.

    Each chain relation ``(M - value*I) w_j = w_{j-1}`` is solved by
    least squares on the rank-deficient shifted matrix; an unresolvable
    relation (residual above tolerance) raises :class:`ChainError`, which is
    the signature of a misdetected multiplicity or a diagonalizable repeat.
    """
    if multiplicity < 2:
        raise ChainError("a Jordan chain requires algebraic multiplicity >= 2")
    M = matrix.entries
    shifted = M - value * np.eye(matrix.dim)
    scale = max(np.linalg.norm(M, 2), 1.0)
    rhs = np.asarray(base_vector, dtype=complex)
    chain = []
    residuals = []
    for _ in range(multiplicity - 1):
        w, *_ = np.linalg.lstsq(shifted, rhs, rcond=None)
        res = float(np.linalg.norm(shifted @ w - rhs) / (scale * max(np.linalg.norm(rhs), 1e-300)))
        if res > CHAIN_RESIDUAL_TOL:
            raise ChainError(
                f"chain relation unresolvable at mode {matrix.n}: residual {res:.3e}"
            )
        chain.append(w)
        residuals.append(res)
        rhs = w
    return GeneralizedChain(
        n=matrix.n,
        value=value,
        base_vector=np.asarray(base_vector, dtype=complex),
        chain_vectors=tuple(chain),
        algebraic_multiplicity=multiplicity,
        residuals=tuple(residuals),
    )


# ---------------------------------------------------------------------------
# slice assembly


def _cluster_mode(M: ModeMatrix, pairs: tuple[EigenPair, ...], tol: float) -> ModeSpectrum:
    """Group coincident values of one mode and attach chains where defective.

    ``pairs`` are in branch order, so the clusters come out ordered by their
    first branch, each with its branches in order.
    """
    unused = list(range(len(pairs)))
    clusters = []
    while unused:
        k = unused.pop(0)
        members = [k] + [j for j in unused if abs(pairs[j].value - pairs[k].value) <= tol * max(1.0, abs(pairs[k].value))]
        unused = [j for j in unused if j not in members]
        branches = tuple(pairs[j].branch for j in members)
        if len(members) == 1:
            clusters.append(Cluster(value=pairs[k].value, branches=branches, vectors=(pairs[k].vector,), chain=None))
            continue
        value = np.mean([pairs[j].value for j in members])
        base = pairs[k].vector
        # Geometric multiplicity from the shifted matrix: a full eigenspace
        # (cross-style repeat inside one mode) admits no chain.
        shifted = M.entries - value * np.eye(M.dim)
        svals = np.linalg.svd(shifted, compute_uv=False)
        geo = int(np.sum(svals <= 1e-10 * max(svals[0], 1e-300)))
        if geo >= len(members):
            vecs = tuple(pairs[j].vector for j in members)
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
    return ModeSpectrum(n=M.n, pairs=pairs, clusters=tuple(clusters))


def _clustered_modes(params: SystemParams, table: BasisTable, rows, tol: float) -> list[ModeSpectrum]:
    """The modes of the given rows of a basis table, each from
    :func:`_cluster_mode` on its eigenpairs and its symbol (recomputed for
    these rows only): the clusters and chains a table row is filled from."""
    rows = np.asarray(rows, dtype=np.int64)
    symbols = _symbols(params, table.ns[rows])
    return [
        _cluster_mode(ModeMatrix(pairs[0].n, params.dim, M), pairs, tol)
        for M, pairs in zip(symbols, _mode_pairs(params, table, rows))
    ]


def axis_sorts(values: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Stable sort order and sorted coordinates of complex values, along the real then the imaginary axis."""
    sorts = []
    for coord in (values.real, values.imag):
        order = np.argsort(coord, kind="stable")
        sorts.append((order, coord[order]))
    return tuple(sorts)


def window_pairs(rows: np.ndarray, radius, sorts, block: int | None = None):
    """The (row, column) index pairs whose coordinates lie within ``radius`` along one axis, in row chunks.

    The columns are the values that :func:`axis_sorts` sorted into
    ``sorts``.  Column ``j`` is in row ``i``'s window when its real part lies
    within ``radius*(1 + 1e-12) + 1e-15*|Re rows_i|`` of ``Re rows_i`` (an
    array ``radius`` gives one radius per row), and likewise on the
    imaginary axis; of the two axes the one with fewer pairs in total is
    searched.  The factor ``1 + 1e-12`` covers the rounding of a radius
    computed from rounded values; the window's ends round monotonically, so
    they lose no column within the widened radius, and the few rounding
    units of ``|x_i|`` are a further margin.  Rows and columns must be
    finite.  Yields ``(i, j)`` arrays, row by row ascending and, within a
    row, in the column sort: one chunk of every row, or, with a ``block``,
    chunks of consecutive rows of at most ``block`` pairs each unless the
    chunk is one row.
    """
    windows = []
    for coord, (by_coord, sorted_coord) in zip((rows.real, rows.imag), sorts):
        reach = radius * (1.0 + 1e-12) + 1e-15 * np.abs(coord)
        lo = np.searchsorted(sorted_coord, coord - reach, side="left")
        hi = np.searchsorted(sorted_coord, coord + reach, side="right")
        windows.append((int((hi - lo).sum()), by_coord, lo, hi - lo))
    _, by_coord, lo, counts = min(windows, key=lambda w: w[0])
    ends = np.cumsum(counts)
    start = 0
    while start < rows.size:
        stop = rows.size
        if block is not None:
            stop = max(start + 1, int(np.searchsorted(ends, ends[start] - counts[start] + block, side="right")))
        c = counts[start:stop]
        i = np.repeat(np.arange(start, stop), c)
        yield i, by_coord[np.repeat(lo[start:stop] - np.cumsum(c) + c, c) + np.arange(int(c.sum()))]
        start = stop


def _coincidences(table: BasisTable, branches: tuple[BranchLabel, ...], tol: float) -> list[Coincidence]:
    """Every pair of (mode, branch) slots whose values agree within ``tol``.

    Slots run over modes ascending, branches in order; a pair ``i < j`` is
    recorded when ``|v_i - v_j| <= tol*max(1, |v_i|)``.  Slot ``j`` can
    only match ``i`` when its real part, and its imaginary part, lies within
    that radius of ``v_i``'s, so the candidates come from a sort along one
    axis and a window search (:func:`window_pairs`).  The axis is the one
    with fewer candidates: the real parts of a hyperbolic branch all crowd
    around ``-omega`` and would make every pair of its slots a candidate at
    large N.
    """
    order = np.argsort(table.ns, kind="stable")
    values = table.values[order].ravel()
    radius = tol * np.fmax(1.0, np.abs(values))
    ((i, j),) = window_pairs(values, radius, axis_sorts(values))
    later = j > i
    i, j = i[later], j[later]
    distance = np.abs(values[i] - values[j])
    hit = distance <= radius[i]
    pick = np.lexsort((j[hit], i[hit]))
    i, j, distance = i[hit][pick], j[hit][pick], distance[hit][pick]
    dim = len(branches)
    modes = table.ns[order].tolist()
    out = []
    for a, b, dist in zip(i.tolist(), j.tolist(), distance.tolist()):
        na, nb = modes[a // dim], modes[b // dim]
        out.append(
            Coincidence(
                first=(na, branches[a % dim]),
                second=(nb, branches[b % dim]),
                distance=dist,
                cross_mode=(na != nb),
            )
        )
    return out


def build_slice(
    params: SystemParams,
    N: int,
    clustering_tolerance: float = DEFAULT_CLUSTERING_TOL,
) -> SpectrumSlice:
    """Eigenstructure over the window ``1 <= |n| <= N``; the coincidence table is built on first read.

    A mode outside clustering reach (see :func:`_within_reach`) keeps the
    eigenvectors in branch order as its basis; the row of a mode within reach
    is overwritten with the columns of :func:`_cluster_mode`.  Every array of
    the table is read-only once filled.  Chains are attached only inside a
    single mode matrix; coincidences across modes (distinct eigenfunctions)
    are recorded in :attr:`SpectrumSlice.coincidences` but never chained.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    table, near = _solve_modes(params, np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)]), clustering_tolerance)
    near = np.flatnonzero(near)
    for r, mode in zip(near.tolist(), _clustered_modes(params, table, near, clustering_tolerance)):
        j = 0
        for ci, cluster in enumerate(mode.clusters):
            table.mult[r, [_BRANCH_ORDER[b] for b in cluster.branches]] = len(cluster.branches)
            for level, vector in enumerate(cluster.vectors):
                table.basis[r, :, j], table.rates[r, j], table.clusters[r, j] = vector, cluster.value, ci
                table.levels[r, j] = level if cluster.chain is not None else 0
                j += 1
    for array in table:
        array.flags.writeable = False
    return SpectrumSlice(
        params=params,
        N=N,
        clustering_tolerance=clustering_tolerance,
        basis=table,
    )


# ---------------------------------------------------------------------------
# quadratic closeness to the comparison basis


def riesz_closeness(params: SystemParams, N_start: int, N_end: int) -> np.ndarray:
    """Partial sums of the quadratic-closeness series over growing windows.

    Entry ``k`` holds the sum over ``N_start <= |n| <= N_start + k`` of the
    weighted squared distances between the eigenvectors and the orthogonal
    comparison basis.  The comparison basis pins the dominating component
    of each branch (density for hyperbolic, velocity/temperature for
    parabolic) at its closed-form value; only the other components
    contribute.  The increments decay like ``1/n**2``, which is the
    numerical content of the Riesz-basis property.
    """
    threshold = hyperbolic_fit_threshold(params)
    if N_start < threshold:
        raise DomainError(
            f"N_start must be >= {threshold} (above the discriminant threshold)"
        )
    if N_end < N_start:
        return np.zeros(0)
    ns = np.arange(N_start, N_end + 1)
    table, _ = _solve_modes(params, np.concatenate([ns, -ns]), DEFAULT_CLUSTERING_TOL)
    coefficients = params.coefficients
    diff = table.vectors - np.diag(coefficients.pinned).astype(complex)
    per_pair = 2.0 * np.pi * np.sum(np.array(coefficients.weights) * np.abs(diff) ** 2, axis=-1)
    deficit = per_pair.sum(axis=-1)
    return np.cumsum(deficit[: ns.size] + deficit[ns.size :])


# ---------------------------------------------------------------------------
# export


def export_spectrum_csv(slice_: SpectrumSlice, path) -> None:
    """Write ``n,branch,re,im,alg_mult,residual`` rows, modes ascending, in
    one write; ``alg_mult`` is the size of the pair's cluster.  The bytes are
    those of ``csv.writer``: no field needs quoting, lines end in ``\\r\\n``."""
    table = slice_.basis
    labels = [branch.value for branch in _BRANCHES[slice_.dim]]
    rows = [
        f"{n},{label},{value.real:.17g},{value.imag:.17g},{m},{residual:.17g}\r\n"
        for n, values, mults, residuals in zip(
            table.ns.tolist(), table.values.tolist(), table.mult.tolist(), table.residuals.tolist()
        )
        for label, value, m, residual in zip(labels, values, mults, residuals)
    ]
    with open(path, "w", newline="") as fh:
        fh.write("n,branch,re,im,alg_mult,residual\r\n" + "".join(rows))
