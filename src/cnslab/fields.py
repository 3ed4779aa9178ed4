"""Finite Fourier fields on (0, 2*pi), weighted norms, and eigen-expansions.

A field with ``dim`` components is stored as a dense table of Fourier
coefficients ``c_n`` for ``|n| <= N``; all inner products carry the physical
component weights and the Parseval factor ``2*pi``, so the order-zero Sobolev
norm coincides with the weighted integral norm.  Negative Sobolev orders use
the same coefficient formula ``(1 + n**2)**s`` on mean-zero fields, which is
the dual-norm surrogate every estimate downstream actually manipulates.

Expansion in the (generalized) eigenbasis is one stacked dense solve against
the basis blocks of all modes (the slice's basis table); condition numbers
are recorded so near-degeneracies below the clustering tolerance surface as
errors rather than noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, DomainError, IllConditioned, MeanZeroRequired
from .model import BarotropicParams, SystemParams
from .spectrum import BasisTable, SpectrumSlice

TWO_PI = 2.0 * np.pi

#: Condition-number budget for the expansion solve of one mode.
EXPANSION_COND_LIMIT = 1e12


@dataclass
class SpectralField:
    """Truncated Fourier representation of a ``dim``-component field.

    ``coeffs[n + N]`` holds the coefficient vector of ``exp(i*n*x)``.
    Fields are treated as immutable once built; arithmetic returns copies.
    """

    dim: int
    N: int
    coeffs: np.ndarray
    mean_zero: bool = True

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = (2 * self.N + 1, self.dim)
        if self.coeffs.shape != expected:
            raise DimMismatch(f"coefficient table must have shape {expected}, got {self.coeffs.shape}")
        if self.mean_zero and np.any(self.coeffs[self.N] != 0.0):
            raise DomainError("mean_zero field has a nonzero n = 0 coefficient")

    @classmethod
    def zeros(cls, dim: int, N: int) -> "SpectralField":
        return cls(dim=dim, N=N, coeffs=np.zeros((2 * N + 1, dim), dtype=complex))

    @classmethod
    def from_modes(cls, dim: int, N: int, modes: dict[int, np.ndarray]) -> "SpectralField":
        out = np.zeros((2 * N + 1, dim), dtype=complex)
        for n, c in modes.items():
            if abs(n) > N:
                raise DomainError(f"mode {n} outside cutoff N={N}")
            out[n + N] = np.asarray(c, dtype=complex)
        mean_zero = not np.any(out[N] != 0.0)
        return cls(dim=dim, N=N, coeffs=out, mean_zero=mean_zero)

    @classmethod
    def single_mode(cls, n: int, vector: np.ndarray, N: int) -> "SpectralField":
        vector = np.asarray(vector, dtype=complex)
        return cls.from_modes(dim=vector.size, N=N, modes={n: vector})

    def coeff(self, n: int) -> np.ndarray:
        if abs(n) > self.N:
            return np.zeros(self.dim, dtype=complex)
        return self.coeffs[n + self.N]

    def padded(self, N: int) -> "SpectralField":
        if N < self.N:
            raise DomainError("padding target smaller than current cutoff")
        out = np.zeros((2 * N + 1, self.dim), dtype=complex)
        out[N - self.N : N + self.N + 1] = self.coeffs
        return SpectralField(dim=self.dim, N=N, coeffs=out, mean_zero=self.mean_zero)

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
        return SpectralField(dim=self.dim, N=N, coeffs=a.coeffs + b.coeffs,
                             mean_zero=self.mean_zero and other.mean_zero)

    def __rmul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(dim=self.dim, N=self.N, coeffs=scalar * self.coeffs,
                             mean_zero=self.mean_zero)

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
        return cls(weights=_component_weights(params), orders=(0.0,) * params.dim)

    @classmethod
    def dual_velocity(cls, params: SystemParams) -> "NormSpec":
        """H^{-1} x L2 (x L2) pairing used by velocity/temperature observability."""
        return cls(weights=_component_weights(params), orders=(-1.0,) + (0.0,) * (params.dim - 1))

    @classmethod
    def dual_order(cls, params: SystemParams, s: float) -> "NormSpec":
        return cls(weights=_component_weights(params), orders=(-s,) + (0.0,) * (params.dim - 1))


def _component_weights(params: SystemParams) -> tuple[float, ...]:
    if isinstance(params, BarotropicParams):
        return (params.b, params.rho_bar)
    return (
        params.R * params.theta_bar,
        params.rho_bar**2,
        params.rho_bar**2 * params.c0 / params.theta_bar,
    )


def weighted_inner_product(f: SpectralField, g: SpectralField, norm_spec: NormSpec) -> complex:
    """Weighted L2 pairing, conjugate-linear in the second slot."""
    if f.dim != g.dim or f.dim != norm_spec.dim:
        raise DimMismatch("field/spec component counts differ")
    N = max(f.N, g.N)
    a, b = f.padded(N), g.padded(N)
    w = np.asarray(norm_spec.weights)
    return complex(TWO_PI * np.sum(w * np.sum(a.coeffs * np.conj(b.coeffs), axis=0)))


def sobolev_norm(f: SpectralField, norm_spec: NormSpec) -> float:
    """Product Sobolev norm with per-component orders.

    Negative orders require a mean-zero field; the constant mode carries no
    dual-norm meaning.
    """
    if f.dim != norm_spec.dim:
        raise DimMismatch("field/spec component counts differ")
    has_negative = any(s < 0 for s in norm_spec.orders)
    if has_negative and np.any(f.coeffs[f.N] != 0.0):
        raise MeanZeroRequired("negative Sobolev order requires a mean-zero field")
    ns = np.arange(-f.N, f.N + 1)
    total = 0.0
    for j, (w, s) in enumerate(zip(norm_spec.weights, norm_spec.orders)):
        factors = (1.0 + ns.astype(float) ** 2) ** s
        total += w * TWO_PI * float(np.sum(factors * np.abs(f.coeffs[:, j]) ** 2))
    return float(np.sqrt(total))


@dataclass
class EigenExpansion:
    """Per-mode coefficients against the slice's (generalized) eigenbasis.

    ``coefficients[n]`` aligns with the columns of mode ``n`` in
    :attr:`SpectrumSlice.basis` (the order of ``slice.mode(n).basis_vectors()``):
    cluster by cluster, eigenvector first, then chain vectors by level.
    """

    dim: int
    coefficients: dict[int, np.ndarray]
    condition_numbers: dict[int, float] = field(default_factory=dict)

    def stacked(self, slice_: SpectrumSlice) -> tuple[BasisTable, np.ndarray, np.ndarray, np.ndarray]:
        """``(table, modes, rows, coefficients)``: the slice's basis table, the
        expansion's modes in their stored order, their rows in the table and
        the coefficient vectors stacked as ``(modes, dim)``.
        """
        table = _complete_basis(slice_)
        ns = np.fromiter(self.coefficients, dtype=np.int64, count=len(self.coefficients))
        stacked = np.array(list(self.coefficients.values()), dtype=complex).reshape(ns.size, self.dim)
        return table, ns, table.rows(ns), stacked


def _complete_basis(slice_: SpectrumSlice) -> BasisTable:
    """The slice's basis table, refused when some mode lacks a full basis block."""
    table = slice_.basis
    if table.unchained:
        raise DomainError("slice has an unresolved coincidence without a chain block")
    return table


def expand_in_eigenbasis(field_: SpectralField, slice_: SpectrumSlice) -> EigenExpansion:
    """Solve the basis systems of all modes, stacked, for the field's eigen-coordinates.

    A mode whose basis condition number exceeds the budget raises
    :class:`IllConditioned`, the first such mode in ascending order.
    """
    if field_.dim != slice_.dim:
        raise DimMismatch("field and slice component counts differ")
    if np.any(field_.coeffs[field_.N] != 0.0):
        raise DomainError("expansion requires a mean-zero field")
    if field_.N > slice_.N:
        raise DomainError(f"slice covers |n| <= {slice_.N} but field has cutoff {field_.N}")
    table = _complete_basis(slice_)
    ill = np.flatnonzero(table.conds > EXPANSION_COND_LIMIT)
    if ill.size:
        raise IllConditioned(int(table.ns[ill[0]]), float(table.conds[ill[0]]))
    targets = np.zeros((table.ns.size, field_.dim), dtype=complex)
    inside = np.abs(table.ns) <= field_.N
    targets[inside] = field_.coeffs[table.ns[inside] + field_.N]
    solved = np.linalg.solve(table.basis, targets[..., None])[..., 0]
    modes = table.ns.tolist()
    return EigenExpansion(
        dim=field_.dim,
        coefficients=dict(zip(modes, solved)),
        condition_numbers=dict(zip(modes, table.conds.tolist())),
    )


def reconstruct(expansion: EigenExpansion, slice_: SpectrumSlice) -> SpectralField:
    """Exact inverse of :func:`expand_in_eigenbasis` on the truncated space."""
    table, ns, rows, stacked = expansion.stacked(slice_)
    out = SpectralField.zeros(slice_.dim, slice_.N)
    out.coeffs[ns + slice_.N] = np.matmul(table.basis[rows], stacked[..., None])[..., 0]
    return out


# ---------------------------------------------------------------------------
# CSV I/O


def export_field_csv(field_: SpectralField, path) -> None:
    """Write ``n,component,re,im`` rows for every stored coefficient."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "component", "re", "im"])
        for n in range(-field_.N, field_.N + 1):
            for j in range(field_.dim):
                c = field_.coeff(n)[j]
                writer.writerow([n, j, format(c.real, ".17g"), format(c.imag, ".17g")])


def read_field_csv(path, dim: int, N: int) -> SpectralField:
    """Read a field written by :func:`export_field_csv`; missing modes are zero."""
    out = SpectralField.zeros(dim, N)
    mean_zero = True
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            n = int(row["n"])
            j = int(row["component"])
            if abs(n) > N or j >= dim:
                raise DomainError(f"entry ({n},{j}) outside declared shape")
            value = float(row["re"]) + 1j * float(row["im"])
            out.coeffs[n + N, j] = value
            if n == 0 and value != 0.0:
                mean_zero = False
    return SpectralField(dim=dim, N=N, coeffs=out.coeffs, mean_zero=mean_zero)
