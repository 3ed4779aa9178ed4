"""Mode-by-mode eigenstructure of the adjoint and forward generators.

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

Eigenvector normalization follows fixed closed forms (leading entries
``rho_bar`` or ``R*rho_bar`` on the hyperbolic branch) so that the boundary
observation identities stay literal downstream.

All modes of a window are solved in one batched pass over stacked
``(modes, dim, dim)`` symbols; only modes whose values come close enough to
coincide run the per-mode defect logic (multiplet refinement, Jordan
chains).  The batched arithmetic reproduces the per-mode scalar arithmetic
bit for bit, see :func:`_cmul`.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ChainError, ConditioningError, DegenerateWarning, DomainError
from .model import BarotropicParams, NonBarotropicParams, SystemParams

#: Relative clustering tolerance used to declare two eigenvalues coincident.
DEFAULT_CLUSTERING_TOL = 1e-8
#: Acceptable relative residual for a computed eigenpair.
EIGEN_RESIDUAL_TOL = 1e-10
#: Acceptable relative residual for each Jordan-chain relation.
CHAIN_RESIDUAL_TOL = 1e-9


class MatrixKind(Enum):
    ADJOINT = "adjoint"
    FORWARD = "forward"


class BranchLabel(Enum):
    HYPERBOLIC = "h"
    PARABOLIC = "p"
    PARABOLIC_LAMBDA = "pl"
    PARABOLIC_KAPPA = "pk"


#: Deterministic branch ordering used for tie-breaks and exports.
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


@dataclass(frozen=True)
class ModeMatrix:
    """Fourier symbol of the generator at one mode."""

    n: int
    dim: int
    entries: np.ndarray
    kind: MatrixKind


# ---------------------------------------------------------------------------
# scalar-exact array arithmetic
#
# numpy's vectorized complex multiply and absolute value may fuse
# multiply-adds and use their own hypot, so they can differ in the last bit
# from the same operation on Python or numpy scalars.  The batched solve
# forms complex products from rounded real products and moduli with
# np.hypot, and Python-style quotients where Python complex division was
# used, so every mode gets exactly the values a per-mode solve gives.


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cmul(a, b) -> np.ndarray:
    """``a*b`` with each real product rounded on its own, as a scalar complex product is."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cabs(z: np.ndarray) -> np.ndarray:
    """``abs(z)`` as for a scalar complex."""
    return np.hypot(z.real, z.imag)


def _pydiv(a, b) -> np.ndarray:
    """``a/b`` as Python's complex division (Smith's method, dividing by the denominator)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return _complex(re, im)


def _norms(v: np.ndarray) -> np.ndarray:
    """2-norms along the last axis, accumulated as ``np.linalg.norm`` of one vector is."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


# ---------------------------------------------------------------------------
# stacked symbols and branch anchors


def _symbols(params: SystemParams, ns, kind: MatrixKind) -> np.ndarray:
    """Symbol matrices of the modes ``ns`` stacked as ``(len(ns), dim, dim)``; any integer mode, zero included."""
    p = params
    s = 1.0 if kind is MatrixKind.ADJOINT else -1.0
    nf = np.asarray(ns, dtype=float)
    n2 = nf * nf
    inx = _cmul(1j, nf)
    advect = _cmul(s * p.u_bar, inx)
    M = np.zeros((nf.size, p.dim, p.dim), dtype=complex)
    M[:, 0, 0] = advect
    M[:, 0, 1] = _cmul(s * p.rho_bar, inx)
    if isinstance(params, BarotropicParams):
        M[:, 1, 0] = _cmul(s * p.b, inx)
        M[:, 1, 1] = -p.mu0 * n2 + advect
        return M
    M[:, 1, 0] = _cmul(s * (p.R * p.theta_bar / p.rho_bar), inx)
    M[:, 1, 1] = -p.lambda0 * n2 + advect
    M[:, 1, 2] = _cmul(s * p.R, inx)
    M[:, 2, 1] = _cmul(s * (p.R * p.theta_bar / p.c0), inx)
    M[:, 2, 2] = -p.kappa0 * n2 + advect
    return M


def _symbol(params: SystemParams, n: int, kind: MatrixKind) -> np.ndarray:
    """Raw symbol matrix, valid for any integer mode including zero."""
    return _symbols(params, [n], kind)[0]


def mode_matrix(params: SystemParams, n: int, kind: MatrixKind = MatrixKind.ADJOINT) -> ModeMatrix:
    """Symbol matrix of the adjoint or forward generator at mode ``n != 0``."""
    if n == 0:
        raise DomainError("mode n = 0 is excluded (constant kernel)")
    return ModeMatrix(n=n, dim=params.dim, entries=_symbol(params, n, kind), kind=kind)


def _anchors(params: SystemParams, nf: np.ndarray) -> np.ndarray:
    """Asymptote anchor of every branch, ``(len(nf), dim)`` in branch order."""
    iun = _cmul(1j * params.u_bar, nf)
    if isinstance(params, BarotropicParams):
        return np.stack([iun - params.omega0, -params.mu0 * nf**2 + iun], axis=1)
    return np.stack(
        [iun - params.omega_bar, -params.lambda0 * nf**2 + iun, -params.kappa0 * nf**2 + iun],
        axis=1,
    )


def classify_branch(params: SystemParams, n: int, value: complex) -> BranchLabel:
    """Nearest-anchor branch label with a deterministic tie-break.

    Ties resolve toward hyperbolic first, then the momentum-diffusion
    parabolic branch.
    """
    dists = _cabs(value - _anchors(params, np.array([float(n)]))[0])
    return _BRANCHES[params.dim][int(np.argmin(dists))]


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue of the mode matrix with its normalized eigenvector.

    ``nu_scaled = value/(i*n)`` is the root of the scaled characteristic
    polynomial; the closed-form eigenvector formulas are written in terms of
    it.  ``residual`` is ``|(M - value*I) v| / (|M| |v|)``.
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
    """The (generalized) eigenbasis of a slice as stacked arrays, modes ascending.

    Row ``r`` belongs to mode ``ns[r]``.  ``values`` and ``vectors`` hold the
    eigenpairs in branch order (``vectors[r, b]`` the eigenvector of branch
    ``b``).  Column ``j`` of ``basis[r]`` is the mode's j-th basis vector,
    cluster by cluster as in :meth:`ModeSpectrum.basis_vectors`, with its
    cluster's eigenvalue in ``rates``, its cluster index in ``clusters``,
    its Jordan level in ``levels`` (0 outside a chain) and ``chained``
    marking the columns of a Jordan chain.  ``conds`` are the 2-norm
    condition numbers of the ``basis`` matrices; ``unchained`` is set when
    some mode has a repeated value without a full basis block.
    """

    ns: np.ndarray  # (K,)
    values: np.ndarray  # (K, dim)
    vectors: np.ndarray  # (K, dim, dim)
    basis: np.ndarray  # (K, dim, dim)
    rates: np.ndarray  # (K, dim)
    clusters: np.ndarray  # (K, dim)
    levels: np.ndarray  # (K, dim)
    chained: np.ndarray  # (K, dim)
    conds: np.ndarray  # (K,)
    unchained: bool

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

    Treated as immutable once built: :attr:`basis` is computed from it on
    first use and cached.
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

    def branch_values(self, branch: BranchLabel) -> dict[int, complex]:
        out = {}
        for n, mode in self.modes.items():
            for p in mode.pairs:
                if p.branch is branch:
                    out[n] = p.value
        return out

    @cached_property
    def basis(self) -> BasisTable:
        """The basis table of the slice, built on first use."""
        return _basis_table(self)


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
        _cmul(M[:, 1, 1], M[:, 2, 2]) - _cmul(M[:, 1, 2], M[:, 2, 1])
        + _cmul(M[:, 0, 0], M[:, 2, 2]) - _cmul(M[:, 0, 2], M[:, 2, 0])
        + _cmul(M[:, 0, 0], M[:, 1, 1]) - _cmul(M[:, 0, 1], M[:, 1, 0])
    )
    return np.stack([one, -tr, minors, -det], axis=1)


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``np.polyval`` of each mode's coefficient row at that mode's values.

    Plain array arithmetic: ``np.polyval`` runs its Horner steps through the
    same vectorized loops, even for a single value.
    """
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
    multiple = _cabs(dp) < 1e-8 * np.fmax(1.0, _cabs(p)) / np.maximum(scale, 1e-300)[:, None]
    take = ~multiple & (_cabs(step) < 0.5 * np.fmax(1.0, _cabs(z)))
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
    gap = _cabs(values[:, i] - values[:, j]).min(axis=1)
    scale = max(clustering_tolerance, _resolution_radius(dim, 0.0))
    return gap <= 4.0 * scale * np.fmax(1.0, _cabs(values).max(axis=1))


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


class _ModeBatch(NamedTuple):
    """Eigenstructure of a window of modes; column ``b`` holds branch ``_BRANCHES[dim][b]``."""

    ns: np.ndarray  # (K,) modes
    symbols: np.ndarray  # (K, dim, dim) adjoint symbols
    values: np.ndarray  # (K, dim)
    nu_scaled: np.ndarray  # (K, dim), values / (i n)
    vectors: np.ndarray  # (K, dim, dim), vectors[k, b] the eigenvector of branch b
    residuals: np.ndarray  # (K, dim)
    near: np.ndarray  # (K,) modes for the per-mode defect logic (see _within_reach)


def _barotropic_roots(params: BarotropicParams, nf: np.ndarray, M: np.ndarray, tol: float):
    """Closed-form eigenvalues, ``nu_scaled`` and eigenvectors of the two-field symbols."""
    p = params
    n2 = nf * nf
    disc = np.sqrt(_complex(p.mu0**2 * (n2 * n2) - 4.0 * p.b * p.rho_bar * n2, 0.0))
    # Principal square root throughout.  Below the threshold (imaginary
    # discriminant) the hyperbolic label follows conjugate symmetry in n, so
    # that the branch identity n -> -n pairs p with p; above the threshold
    # the principal root already realizes that symmetry.
    sign = np.where((disc.imag == 0.0) | (nf > 0), 1.0, -1.0)
    base = -p.mu0 * n2 + _cmul(2j * p.u_bar, nf)
    shift = _cmul(sign, disc)
    values = np.stack([_cmul(0.5, base + shift), _cmul(0.5, base - shift)], axis=1)
    near = _within_reach(values, tol)
    if near.any():
        coeffs = _charpoly(M[near])
        values[near] = [_refine_multiplets(c, v, tol) for c, v in zip(coeffs, values[near])]
    nu_scaled = _pydiv(values, _cmul(1j, nf)[:, None])
    d = nu_scaled - p.u_bar
    vectors = np.empty(M.shape, dtype=complex)
    vectors[:, 0, 0] = p.rho_bar
    vectors[:, 0, 1] = d[:, 0]
    vectors[:, 1, 0] = _pydiv(p.rho_bar, d[:, 1])
    vectors[:, 1, 1] = 1.0
    return values, nu_scaled, vectors, near


def _dense_nonbarotropic(params: NonBarotropicParams, ns: np.ndarray, M: np.ndarray, scale: np.ndarray, tol: float):
    """Dense eigenpairs of the three-field symbols, polished, labelled and put in branch order.

    Returns the values, ``nu_scaled``, closed-form eigenvectors, the mask
    of modes near a multiplet and the dense eigenvectors (the first
    fallback of a failed closed form).
    """
    p = params
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
    nu_scaled = values / _cmul(1j, nf)[:, None]

    lam = _cmul(p.lambda0 * 1j, nf)[:, None] + p.u_bar - nu_scaled
    kap = _cmul(p.kappa0 * 1j, nf)[:, None] + p.u_bar - nu_scaled
    d = p.u_bar - nu_scaled
    h, pl, pk = 0, 1, 2
    vectors = np.empty(M.shape, dtype=complex)
    vectors[:, h, 0] = p.R * p.rho_bar
    vectors[:, h, 1] = _cmul(-p.R, d[:, h])
    vectors[:, h, 2] = _cmul(lam[:, h], d[:, h]) - p.R * p.theta_bar
    vectors[:, pl, 0] = -p.R * p.rho_bar / d[:, pl]
    vectors[:, pl, 1] = p.R
    vectors[:, pl, 2] = (p.R * p.theta_bar - _cmul(lam[:, pl], d[:, pl])) / d[:, pl]
    vectors[:, pk, 0] = _cmul(lam[:, pk], kap[:, pk]) - p.R**2 * p.theta_bar / p.c0
    vectors[:, pk, 1] = _cmul(-(p.R * p.theta_bar / p.rho_bar), kap[:, pk])
    vectors[:, pk, 2] = p.R**2 * p.theta_bar**2 / (p.rho_bar * p.c0)
    return values, nu_scaled, vectors, near, dense


def _degenerate_diffusions(params: SystemParams) -> bool:
    return isinstance(params, NonBarotropicParams) and (
        abs(params.lambda0 - params.kappa0) <= 1e-12 * max(params.lambda0, params.kappa0)
    )


def _label_columns(params: NonBarotropicParams, nf: np.ndarray, values: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """``columns[k, b]``: the column of ``values[k]`` that carries branch ``b``.

    Minimal total anchor distance over the 6 assignments, the first in
    permutation order winning unless another is smaller by more than
    1e-15 relative.  When the two diffusions coincide the parabolic anchors
    merge: the value nearest the hyperbolic anchor is hyperbolic and the
    other two split by dominant eigenvector component (velocity vs
    temperature), which tracks eigenvector continuity in n.
    """
    dists = _cabs(values[:, :, None] - _anchors(params, nf)[:, None, :])
    rows = np.arange(values.shape[0])
    if _degenerate_diffusions(params):
        labels = np.empty(values.shape, dtype=int)
        hyp = np.argsort(dists[:, :, 0], axis=1)[:, 0]
        rest = np.array([[1, 2], [0, 2], [0, 1]])[hyp]
        vel = _cabs(dense[rows[:, None], 1, rest])
        temp = _cabs(dense[rows[:, None], 2, rest])
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


def _pinned_values(params: SystemParams) -> np.ndarray:
    """Closed-form value of the pinned component of each branch; branch ``b`` pins component ``b``."""
    p = params
    if isinstance(p, BarotropicParams):
        return np.array([p.rho_bar, 1.0])
    return np.array([p.R * p.rho_bar, p.R, p.R**2 * p.theta_bar**2 / (p.rho_bar * p.c0)])


def _rescale_to_convention(pinned: np.ndarray, component: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Scale each vector so that its ``component`` takes the value ``pinned``; a vanishing pivot leaves it as is."""
    pivot = vectors[np.arange(len(vectors)), component]
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = vectors * (pinned / pivot)[:, None]
    return np.where((_cabs(pivot) < 1e-300)[:, None], vectors, scaled)


def _residuals(M: np.ndarray, M_norm: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``|(M - value I) v| / (|M|_2 |v|)`` per eigenpair, 0 where the scale vanishes.

    ``M`` and its 2-norms ``M_norm`` broadcast against the leading axes of ``values``.
    """
    Mv = np.matmul(M, vectors[..., None])[..., 0]
    scale = M_norm * _norms(vectors)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = _norms(Mv - values[..., None] * vectors) / scale
    return np.where(scale == 0.0, 0.0, res)


def _kernel_vectors(M: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unit vectors spanning the (numerical) kernel of each ``M - value*I``."""
    _, _, vh = np.linalg.svd(M - values[:, None, None] * np.eye(M.shape[-1]))
    return vh[:, -1].conj()


def _solve_modes(params: SystemParams, ns, clustering_tolerance: float) -> _ModeBatch:
    """Eigenpairs of the adjoint symbols of all modes ``ns`` in one batched pass.

    Each eigenvector is the closed form when its residual passes; otherwise
    (three-field only) the rescaled dense eigenvector, and when that fails
    too, which is the signature of a defective value whose dense eigenvector
    is only ``eps**(1/m)`` accurate, the rescaled kernel vector of the
    shifted matrix.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if np.any(ns == 0):
        raise DomainError("mode n = 0 is excluded")
    M = _symbols(params, ns, MatrixKind.ADJOINT)
    M_norm = np.linalg.norm(M, 2, axis=(1, 2))
    tol = clustering_tolerance
    if isinstance(params, BarotropicParams):
        values, nu_scaled, vectors, near = _barotropic_roots(params, ns.astype(float), M, tol)
        dense = None
    else:
        values, nu_scaled, vectors, near, dense = _dense_nonbarotropic(params, ns, M, M_norm, tol)
    residuals = _residuals(M[:, None], M_norm[:, None], values, vectors)
    pinned = _pinned_values(params)

    def retry(redo: np.ndarray, candidates) -> None:
        k, b = np.nonzero(redo)
        if k.size:
            vectors[k, b] = _rescale_to_convention(pinned[b], b, candidates(k, b))
            residuals[k, b] = _residuals(M[k], M_norm[k], values[k, b], vectors[k, b])

    if dense is not None:
        # a non-finite closed form has a NaN residual, which no comparison flags
        retry(~np.all(np.isfinite(vectors), axis=2) | (residuals > EIGEN_RESIDUAL_TOL), lambda k, b: dense[k, b])
    retry(residuals > EIGEN_RESIDUAL_TOL, lambda k, b: _kernel_vectors(M[k], values[k, b]))
    return _ModeBatch(ns, M, values, nu_scaled, vectors, residuals, near)


def _mode_pairs(params: SystemParams, batch: _ModeBatch) -> list[tuple[EigenPair, ...]]:
    """The eigenpairs of every mode of the batch, each mode's in branch order.

    Values keep the scalar type of the arithmetic that made them: Python
    complex for the closed forms, numpy complex for the dense solve.
    """
    if isinstance(params, BarotropicParams):
        values, nu_scaled = batch.values.tolist(), batch.nu_scaled.tolist()
    else:
        values, nu_scaled = list(map(list, batch.values)), list(map(list, batch.nu_scaled))
    branches = _BRANCHES[params.dim]
    unclassified = [_degenerate_diffusions(params) and b is not BranchLabel.HYPERBOLIC for b in branches]
    residuals = batch.residuals.tolist()
    return [
        tuple(
            EigenPair(
                n=n,
                branch=branch,
                value=values[k][b],
                vector=batch.vectors[k, b],
                nu_scaled=nu_scaled[k][b],
                residual=residuals[k][b],
                unclassified_by_paper=unclassified[b],
            )
            for b, branch in enumerate(branches)
        )
        for k, n in enumerate(batch.ns.tolist())
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
    ((h, p),) = _mode_pairs(params, _solve_modes(params, [n], clustering_tolerance))
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
    (pairs,) = _mode_pairs(params, _solve_modes(params, [n], clustering_tolerance))
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
    """Group coincident values of one mode and attach chains where defective."""
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
    return ModeSpectrum(n=M.n, pairs=pairs, clusters=tuple(clusters))


def _coincidences(batch: _ModeBatch, branches: tuple[BranchLabel, ...], tol: float) -> list[Coincidence]:
    """Every pair of (mode, branch) slots whose values agree within ``tol``.

    Slots run over modes ascending, branches in order; a pair ``i < j`` is
    recorded when ``|v_i - v_j| <= tol*max(1, |v_i|)``.  Slot ``j`` can
    only match ``i`` when its real part, and its imaginary part, lies within
    that radius of ``v_i``'s, so the candidates come from a sort along one
    axis and a window search.  The axis is the one with fewer candidates:
    the real parts of a hyperbolic branch all crowd around ``-omega`` and
    would make every pair of its slots a candidate at large N.  The windows
    are widened by a few rounding units so that no match is lost.
    """
    order = np.argsort(batch.ns, kind="stable")
    values = batch.values[order].ravel()
    radius = tol * np.fmax(1.0, _cabs(values))
    windows = []
    for coord in (values.real, values.imag):
        by_coord = np.argsort(coord, kind="stable")
        reach = radius * (1.0 + 1e-12) + 1e-15 * np.abs(coord)
        lo = np.searchsorted(coord[by_coord], coord - reach, side="left")
        hi = np.searchsorted(coord[by_coord], coord + reach, side="right")
        windows.append((int((hi - lo).sum()), by_coord, lo, hi - lo))
    total, by_coord, lo, counts = min(windows, key=lambda w: w[0])
    i = np.repeat(np.arange(values.size), counts)
    j = by_coord[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(total)]
    later = j > i
    i, j = i[later], j[later]
    distance = _cabs(values[i] - values[j])
    hit = distance <= radius[i]
    pick = np.lexsort((j[hit], i[hit]))
    i, j, distance = i[hit][pick], j[hit][pick], distance[hit][pick]
    dim = len(branches)
    modes = batch.ns[order].tolist()
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
    """Eigenstructure over the window ``1 <= |n| <= N`` plus coincidence table.

    Chains are attached only inside a single mode matrix; coincidences across
    modes (distinct eigenfunctions) are recorded in the table but never
    chained.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    ns = np.repeat(np.arange(1, N + 1), 2) * np.tile([-1, 1], N)
    batch = _solve_modes(params, ns, clustering_tolerance)
    modes = {}
    for n, pairs, near, M in zip(ns.tolist(), _mode_pairs(params, batch), batch.near, batch.symbols):
        if near:
            modes[n] = _cluster_mode(ModeMatrix(n, params.dim, M, MatrixKind.ADJOINT), pairs, clustering_tolerance)
        else:
            clusters = tuple(Cluster(value=p.value, branches=(p.branch,), vectors=(p.vector,), chain=None) for p in pairs)
            modes[n] = ModeSpectrum(n=n, pairs=pairs, clusters=clusters)
    return SpectrumSlice(
        params=params,
        N=N,
        clustering_tolerance=clustering_tolerance,
        modes=modes,
        coincidences=_coincidences(batch, _BRANCHES[params.dim], clustering_tolerance),
    )


def _basis_table(slice_: SpectrumSlice) -> BasisTable:
    """Stack the slice's eigenpairs and the basis vectors of its clusters.

    A mode with fewer basis vectors than ``dim`` fills its missing columns
    with zero vectors of cluster index -1 and sets ``unchained``.
    """
    dim = slice_.dim
    ns = sorted(slice_.modes)
    values, vectors, columns, rates, clusters, levels, chained = [], [], [], [], [], [], []
    for n in ns:
        mode = slice_.modes[n]
        for p in mode.pairs:
            values.append(p.value)
            vectors.append(p.vector)
        for ci, cluster in enumerate(mode.clusters):
            is_chain = cluster.chain is not None
            for level, vector in enumerate(cluster.vectors):
                columns.append(vector)
                rates.append(cluster.value)
                clusters.append(ci)
                levels.append(level if is_chain else 0)
                chained.append(is_chain)
        missing = len(values) - len(columns)
        if missing:
            columns += [np.zeros(dim, dtype=complex)] * missing
            rates += [0j] * missing
            clusters += [-1] * missing
            levels += [0] * missing
            chained += [False] * missing
    shape = (len(ns), dim)
    basis = np.array(columns, dtype=complex).reshape(*shape, dim).swapaxes(1, 2)
    clusters = np.array(clusters, dtype=np.int64).reshape(shape)
    return BasisTable(
        ns=np.array(ns, dtype=np.int64),
        values=np.array(values, dtype=complex).reshape(shape),
        vectors=np.array(vectors, dtype=complex).reshape(*shape, dim),
        basis=basis,
        rates=np.array(rates, dtype=complex).reshape(shape),
        clusters=clusters,
        levels=np.array(levels, dtype=np.int64).reshape(shape),
        chained=np.array(chained, dtype=bool).reshape(shape),
        conds=np.linalg.cond(basis),
        unchained=bool((clusters < 0).any()),
    )


# ---------------------------------------------------------------------------
# quadratic closeness to the comparison basis


def _comparison_weights(params: SystemParams) -> np.ndarray:
    if isinstance(params, BarotropicParams):
        return np.array([params.b, params.rho_bar])
    return np.array(
        [
            params.R * params.theta_bar,
            params.rho_bar**2,
            params.rho_bar**2 * params.c0 / params.theta_bar,
        ]
    )


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
    threshold = 1
    if isinstance(params, BarotropicParams):
        threshold = max(1, int(np.floor(params.n0)) + 1)
    if N_start < threshold:
        raise DomainError(
            f"N_start must be >= {threshold} (above the discriminant threshold)"
        )
    if N_end < N_start:
        return np.zeros(0)
    ns = np.arange(N_start, N_end + 1)
    batch = _solve_modes(params, np.concatenate([ns, -ns]), DEFAULT_CLUSTERING_TOL)
    diff = batch.vectors - np.diag(_pinned_values(params)).astype(complex)
    per_pair = 2.0 * np.pi * np.sum(_comparison_weights(params) * np.abs(diff) ** 2, axis=-1)
    deficit = 0.0
    for column in per_pair.T:  # pair by pair in branch order, as a running sum per mode
        deficit = deficit + column
    return np.cumsum(deficit[: ns.size] + deficit[ns.size :])


# ---------------------------------------------------------------------------
# export


def export_spectrum_csv(slice_: SpectrumSlice, path) -> None:
    """Write ``n,branch,re,im,alg_mult,residual`` rows, modes ascending."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "branch", "re", "im", "alg_mult", "residual"])
        for n in sorted(slice_.modes):
            mode = slice_.modes[n]
            mult = {}
            for c in mode.clusters:
                for b in c.branches:
                    mult[b] = len(c.branches)
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
