"""Finite Fourier fields on (0, 2*pi), weighted norms, and eigen-expansions.

A field with ``dim`` components is stored as a dense table of Fourier
coefficients ``c_n`` for ``|n| <= N``; Sobolev norms carry the physical
component weights and the Parseval factor ``2*pi``, so the order-zero norm
coincides with the weighted integral norm.  Negative Sobolev orders use
the same coefficient formula ``(1 + n**2)**s`` on mean-zero fields, which is
the dual-norm surrogate every estimate downstream actually manipulates.

Expansion in the (generalized) eigenbasis is one stacked dense solve against
the basis blocks of all modes (the slice's basis table), for one field or a
stack of them; condition numbers are recorded so near-degeneracies below
the clustering tolerance surface as errors rather than noise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import CnsLabError, DimMismatch, DomainError, IllConditioned
from .model import SystemParams
from .spectrum import SpectrumSlice

TWO_PI = 2.0 * np.pi

#: Condition-number budget for the expansion solve of one mode.
EXPANSION_COND_LIMIT = 1e12


@dataclass
class SpectralField:
    """Truncated Fourier representation of a mean-zero ``dim``-component field.

    ``coeffs[n + N]`` holds the coefficient vector of ``exp(i*n*x)``; the
    ``n = 0`` row is zero, as in the dotted spaces of the theory, and the
    constructor refuses any other.  Fields are treated as immutable once
    built; arithmetic returns copies.
    """

    dim: int
    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = (2 * self.N + 1, self.dim)
        if self.coeffs.shape != expected:
            raise DimMismatch(f"coefficient table must have shape {expected}, got {self.coeffs.shape}")
        if np.any(self.coeffs[self.N] != 0.0):
            raise DomainError("a field must have mean zero, but its n = 0 coefficient is nonzero")

    @classmethod
    def zeros(cls, dim: int, N: int) -> "SpectralField":
        return cls(dim=dim, N=N, coeffs=np.zeros((2 * N + 1, dim), dtype=complex))

    def coeff(self, n: int) -> np.ndarray:
        if abs(n) > self.N:
            return np.zeros(self.dim, dtype=complex)
        return self.coeffs[n + self.N]

    def padded(self, N: int) -> "SpectralField":
        if N < self.N:
            raise DomainError("padding target smaller than current cutoff")
        out = np.zeros((2 * N + 1, self.dim), dtype=complex)
        out[N - self.N : N + self.N + 1] = self.coeffs
        return SpectralField(dim=self.dim, N=N, coeffs=out)

    def is_real(self, tol: float = 1e-12) -> bool:
        """Whether coefficients satisfy the conjugate symmetry of a real field."""
        flipped = np.conj(self.coeffs[::-1])
        scale = max(float(np.max(np.abs(self.coeffs))), 1e-300)
        return bool(np.max(np.abs(self.coeffs - flipped)) <= tol * scale)

    def sample(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the field at points ``x``; returns shape (len(x), dim)."""
        x = np.asarray(x, dtype=float)
        ns = np.arange(-self.N, self.N + 1)
        phases = np.exp(1j * np.outer(x, ns))
        return phases @ self.coeffs

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if self.dim != other.dim:
            raise DimMismatch("component counts differ")
        N = max(self.N, other.N)
        a, b = self.padded(N), other.padded(N)
        return SpectralField(dim=self.dim, N=N, coeffs=a.coeffs + b.coeffs)

    def __rmul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(dim=self.dim, N=self.N, coeffs=scalar * self.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self + (-1.0) * other


@dataclass(frozen=True)
class NormSpec:
    """Component weights and per-component Sobolev orders of a product norm."""

    weights: tuple[float, ...]
    orders: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.orders):
            raise DimMismatch("weights and orders must align")
        if any(w <= 0 for w in self.weights):
            raise DomainError("norm weights must be strictly positive")

    @property
    def dim(self) -> int:
        return len(self.weights)

    @classmethod
    def weighted_l2(cls, params: SystemParams) -> "NormSpec":
        return cls(weights=params.coefficients.weights, orders=(0.0,) * params.dim)

    @classmethod
    def dual_order(cls, params: SystemParams, s: float) -> "NormSpec":
        """H^{-s} on the density, L2 on the rest; ``s = 1`` is the velocity/temperature observability pairing."""
        return cls(weights=params.coefficients.weights, orders=(-s,) + (0.0,) * (params.dim - 1))


def sobolev_norm(f: SpectralField, norm_spec: NormSpec) -> float:
    """Product Sobolev norm with per-component orders."""
    return float(sobolev_norms(f.coeffs, norm_spec))


def sobolev_norms(coeffs: np.ndarray, norm_spec: NormSpec) -> np.ndarray:
    """:func:`sobolev_norm` of each coefficient table of a stack ``(..., 2N + 1, dim)``.

    Each table is reduced on its own, in the order of a single field, so an
    entry equals the norm of its field bit for bit.
    """
    if coeffs.shape[-1] != norm_spec.dim:
        raise DimMismatch("field/spec component counts differ")
    N = coeffs.shape[-2] // 2
    ns = np.arange(-N, N + 1)
    total = np.zeros(coeffs.shape[:-2])
    for j, (w, s) in enumerate(zip(norm_spec.weights, norm_spec.orders)):
        factors = (1.0 + ns.astype(float) ** 2) ** s
        total += w * TWO_PI * np.sum(factors * np.abs(coeffs[..., j]) ** 2, axis=-1)
    return np.sqrt(total)


@dataclass
class EigenExpansion:
    """Per-mode coefficients against the slice's (generalized) eigenbasis.

    ``coefficients[n]`` aligns with the columns of mode ``n`` in
    the table :attr:`SpectrumSlice.basis` (its row ``rows([n])[0]``):
    cluster by cluster, eigenvector first, then chain vectors by level.
    """

    dim: int
    coefficients: dict[int, np.ndarray]
    condition_numbers: dict[int, float] = field(default_factory=dict)

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """``(modes, coefficients)``: the expansion's modes in their stored
        order and their coefficient vectors stacked as ``(modes, dim)``.
        """
        ns = np.fromiter(self.coefficients, dtype=np.int64, count=len(self.coefficients))
        return ns, np.array(list(self.coefficients.values()), dtype=complex).reshape(ns.size, self.dim)


def field_misfit(field_: SpectralField, slice_: SpectrumSlice) -> CnsLabError | None:
    """The error :func:`eigen_coordinates` raises for a field the slice cannot expand, else None:
    :class:`DimMismatch` for another component count, :class:`DomainError`
    for a cutoff above the slice's."""
    if field_.dim != slice_.dim:
        return DimMismatch("field and slice component counts differ")
    if field_.N > slice_.N:
        return DomainError(f"slice covers |n| <= {slice_.N} but field has cutoff {field_.N}")
    return None


def eigen_coordinates(fields: Sequence[SpectralField], slice_: SpectrumSlice) -> np.ndarray:
    """The eigen-coordinates of ``k`` fields, stacked as ``(k, modes, dim)`` in the rows of the slice's basis table.

    The fields are checked in order (:func:`field_misfit`), then the
    condition budget once: a mode whose basis condition number exceeds it
    raises :class:`IllConditioned`, the first such mode in ascending order.
    Each mode's basis block is solved once, with the ``k`` fields' targets
    as the columns of its right-hand side; each field's coordinates are,
    bit for bit, those of a solve of that field alone.  The fields may have
    different cutoffs.
    """
    for field_ in fields:
        error = field_misfit(field_, slice_)
        if error is not None:
            raise error
    table, conds = slice_.basis, slice_.conds
    ill = np.flatnonzero(conds > EXPANSION_COND_LIMIT)
    if ill.size:
        raise IllConditioned(int(table.ns[ill[0]]), float(conds[ill[0]]))
    targets = np.zeros((len(fields), table.ns.size, slice_.dim), dtype=complex)
    for target, field_ in zip(targets, fields):
        inside = np.abs(table.ns) <= field_.N
        target[inside] = field_.coeffs[table.ns[inside] + field_.N]
    return np.ascontiguousarray(np.linalg.solve(table.basis, targets.transpose(1, 2, 0)).transpose(2, 0, 1))


def expand_in_eigenbasis(field_: SpectralField, slice_: SpectrumSlice) -> EigenExpansion:
    """The eigen-coordinates of one field (:func:`eigen_coordinates`) by mode, with the condition numbers."""
    solved = eigen_coordinates([field_], slice_)[0]
    modes = slice_.basis.ns.tolist()
    return EigenExpansion(
        dim=field_.dim,
        coefficients=dict(zip(modes, solved)),
        condition_numbers=dict(zip(modes, slice_.conds.tolist())),
    )


def reconstruct(expansion: EigenExpansion, slice_: SpectrumSlice) -> SpectralField:
    """Exact inverse of :func:`expand_in_eigenbasis` on the truncated space."""
    ns, stacked = expansion.stacked()
    out = SpectralField.zeros(slice_.dim, slice_.N)
    out.coeffs[ns + slice_.N] = np.matmul(slice_.basis.basis[slice_.basis.rows(ns)], stacked[..., None])[..., 0]
    return out
