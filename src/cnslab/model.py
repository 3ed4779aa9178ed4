"""System coefficients and the arithmetic predicates that gate controllability.

Two linearized systems live here: the barotropic (density, velocity) system
and the non-barotropic (density, velocity, temperature) system, both posed on
the 2*pi-periodic interval around a constant state with positive background
velocity.  The composite constants derived from the physical inputs determine
the entire spectral picture:

* ``n0 = 2*sqrt(b*rho_bar)/mu0`` -- when this is a positive integer the mode
  matrices at ``n = +-n0`` carry a double eigenvalue with a one-dimensional
  eigenspace (a genuine Jordan block),
* ``n1 = 2*sqrt(b*rho_bar - u_bar**2)/mu0`` -- when this is a positive integer
  two *different* modes share an eigenvalue with independent eigenfunctions,
  which kills unique continuation and with it approximate controllability,
* ``sqrt(lambda0/kappa0)`` -- rationality of this ratio decides whether the
  two parabolic branches of the three-field system condensate.

Floating point cannot decide set membership in N or Q exactly, so every
predicate here takes an explicit tolerance and returns the evidence (values,
convergents, errors) alongside the verdict.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError

#: Default distance-to-integer tolerance used by degeneracy checks.
DEFAULT_INTEGER_TOL = 1e-9


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value!r}")


class Coefficients(NamedTuple):
    """Every coefficient of one system by component: density 0, velocity 1, temperature 2.

    ``U_t + A U_x = D U_xx`` with ``A = advection``, ``D = diag(diffusion)``, energy-norm
    ``weights`` and hyperbolic rate ``omega``.  Channel ``c`` observes the boundary flux
    ``sum_j row[j]*v_j + d*v_c'`` of ``(row, d) = observed[c]`` with control weight ``control[c]``;
    ``pinned[b]`` is component ``b`` of the branch-``b`` eigenvector.  Consumers skip zero entries.
    """

    advection: tuple[tuple[float, ...], ...]
    diffusion: tuple[float, ...]
    weights: tuple[float, ...]
    observed: tuple[tuple[tuple[float, ...], float], ...]
    control: tuple[float, ...]
    omega: float
    pinned: tuple[float, ...]


def _finite_table(build: Callable[[], Coefficients], **derived: float) -> Coefficients:
    """The table ``build`` gives, refused with :class:`DomainError` where an entry or ``derived`` constant overflows."""
    try:
        table = build()
    except OverflowError:
        raise DomainError("the coefficient table overflows") from None
    for name, value in [*table._asdict().items(), *derived.items()]:
        if not all(map(math.isfinite, _numbers(value))):
            raise DomainError(f"coefficient {name} is not finite: the coefficient set overflows")
    return table


def _numbers(value) -> list[float]:
    """The numbers of a nest of tuples, in order."""
    return [x for v in value for x in _numbers(v)] if isinstance(value, tuple) else [value]


@dataclass(frozen=True)
class BarotropicParams:
    """Coefficients of the two-field system.

    ``mu0`` is the effective diffusion ``(lambda_visc + 2*mu_visc)/rho_bar``
    and ``b`` the pressure coefficient ``a*gamma*rho_bar**(gamma-2)``; the
    hyperbolic accumulation rate ``omega0 = b*rho_bar/mu0`` is derived and
    stored for convenience, and so is the :class:`Coefficients` table.
    """

    rho_bar: float
    u_bar: float
    mu0: float
    b: float
    omega0: float = field(init=False)
    coefficients: Coefficients = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_positive(rho_bar=self.rho_bar, u_bar=self.u_bar, mu0=self.mu0, b=self.b)
        rho, u, b = self.rho_bar, self.u_bar, self.b
        object.__setattr__(self, "omega0", b * rho / self.mu0)
        object.__setattr__(self, "coefficients", _finite_table(lambda: Coefficients(
            advection=((u, rho), (b, u)),
            diffusion=(0.0, self.mu0),
            weights=(b, rho),
            observed=(((u, rho), 0.0), ((b, u), self.mu0)),
            control=(b, rho),
            omega=self.omega0,
            pinned=(rho, 1.0),
        ), n0=self.n0))

    @property
    def dim(self) -> int:
        return 2

    @property
    def n0(self) -> float:
        """Threshold mode index where the closed-form discriminant changes sign."""
        return 2.0 * math.sqrt(self.b * self.rho_bar) / self.mu0

    @property
    def n1(self) -> float | None:
        """Cross-mode coincidence index; ``None`` when ``b*rho_bar <= u_bar**2``."""
        gap = self.b * self.rho_bar - self.u_bar**2
        if gap < 0.0:
            return None
        return 2.0 * math.sqrt(gap) / self.mu0


@dataclass(frozen=True)
class NonBarotropicParams:
    """Coefficients of the three-field system.

    ``lambda0`` and ``kappa0`` are the momentum and thermal diffusions,
    ``R`` the gas constant and ``c0`` the specific heat; the hyperbolic
    accumulation rate ``omega_bar = R*theta_bar/lambda0`` and the table are derived.
    """

    rho_bar: float
    u_bar: float
    theta_bar: float
    lambda0: float
    kappa0: float
    R: float
    c0: float
    omega_bar: float = field(init=False)
    coefficients: Coefficients = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_positive(
            rho_bar=self.rho_bar,
            u_bar=self.u_bar,
            theta_bar=self.theta_bar,
            lambda0=self.lambda0,
            kappa0=self.kappa0,
            R=self.R,
            c0=self.c0,
        )
        rho, u, theta, R, c0 = self.rho_bar, self.u_bar, self.theta_bar, self.R, self.c0
        object.__setattr__(self, "omega_bar", R * theta / self.lambda0)
        object.__setattr__(self, "coefficients", _finite_table(lambda: Coefficients(
            advection=((u, rho, 0.0), (R * theta / rho, u, R), (0.0, R * theta / c0, u)),
            diffusion=(0.0, self.lambda0, self.kappa0),
            weights=(R * theta, rho**2, rho**2 * c0 / theta),
            observed=(
                ((u, rho, 0.0), 0.0),
                ((R * theta, rho * u, R * rho), self.lambda0 * rho),
                ((0.0, R, c0 * u / theta), c0 * self.kappa0 / theta),
            ),
            control=(R * theta, rho, rho**2),
            omega=self.omega_bar,
            pinned=(R * rho, R, R**2 * theta**2 / (rho * c0)),
        )))

    @property
    def dim(self) -> int:
        return 3


SystemParams = BarotropicParams | NonBarotropicParams


def hyperbolic_fit_threshold(params: SystemParams) -> int:
    """First mode of the hyperbolic asymptote fit: above the discriminant
    threshold ``n0`` for the two-field system, 1 for the three-field one."""
    if isinstance(params, BarotropicParams):
        return max(1, math.floor(params.n0) + 1)
    return 1


class DegeneracyVerdict(Enum):
    ALL_SIMPLE = "AllSimple"
    MULTIPLE_WITH_CHAIN = "MultipleWithChain"
    UNIQUE_CONTINUATION_FAILS = "UniqueContinuationFails"


@dataclass(frozen=True)
class DegeneracyReport:
    """Outcome of the integer-membership checks on ``n0`` and ``n1``.

    ``n1_natural`` dominates: a cross-mode coincidence produces two
    independent eigenfunctions sharing an eigenvalue, so no chain can repair
    observability.  ``n0_natural`` alone yields a Jordan block, which is
    still controllable through generalized eigenfunctions.  Zero is not a
    natural number here: ``n1 == 0`` does not trigger the failure verdict.
    """

    n0: float
    n0_natural: bool
    n1: float | None
    n1_natural: bool
    verdict: DegeneracyVerdict
    integer_tolerance: float


def _is_natural(value: float, tol: float) -> bool:
    nearest = round(value)
    return nearest >= 1 and abs(value - nearest) < tol


def check_degeneracy_barotropic(
    params: BarotropicParams,
    integer_tolerance: float = DEFAULT_INTEGER_TOL,
) -> DegeneracyReport:
    """Classify the two-field spectrum by integer membership of ``n0`` and ``n1``."""
    if not 0.0 < integer_tolerance < 0.5:
        raise DomainError(
            f"integer_tolerance must lie in (0, 0.5), got {integer_tolerance!r}"
        )
    n0 = params.n0
    n1 = params.n1
    n0_natural = _is_natural(n0, integer_tolerance)
    n1_natural = n1 is not None and _is_natural(n1, integer_tolerance)
    if n1_natural:
        verdict = DegeneracyVerdict.UNIQUE_CONTINUATION_FAILS
    elif n0_natural:
        verdict = DegeneracyVerdict.MULTIPLE_WITH_CHAIN
    else:
        verdict = DegeneracyVerdict.ALL_SIMPLE
    return DegeneracyReport(
        n0=n0,
        n0_natural=n0_natural,
        n1=n1,
        n1_natural=n1_natural,
        verdict=verdict,
        integer_tolerance=integer_tolerance,
    )


@dataclass(frozen=True)
class Convergent:
    a: int
    b: int
    error: float


@dataclass(frozen=True)
class SMembershipReport:
    """Evidence for (ir)rationality of ``sqrt(lambda0/kappa0)``.

    ``rational_hit`` is populated only when the ratio of the inputs, read as
    exact binary rationals, reduces to a quotient of perfect squares (and a
    convergent confirms it within tolerance); in that case the pair lies
    outside the good set.  Otherwise the continued-fraction convergents
    quantify how resistant the ratio is to rational approximation:
    ``fitted_M`` is the regression estimate of the Diophantine exponent
    (slope of ``log 1/err`` against ``log b`` over the tested convergents)
    and ``pointwise_M`` the largest per-convergent exponent, which is
    inflated by small denominators.
    """

    ratio: float
    rational_hit: tuple[int, int] | None
    convergents: tuple[Convergent, ...]
    fitted_M: float
    pointwise_M: float
    in_s: bool
    rational_tolerance: float
    max_denominator: int


def _perfect_square_root(k: int) -> int | None:
    if k < 0:
        return None
    r = math.isqrt(k)
    return r if r * r == k else None


def _continued_fraction_convergents(x_exact: Fraction, max_denominator: int):
    """Euclidean-algorithm convergents of an exact rational, denominator-capped."""
    p, q = x_exact.numerator, x_exact.denominator
    h_prev2, h_prev = 0, 1  # numerator recurrence seeds
    k_prev2, k_prev = 1, 0  # denominator recurrence seeds
    out = []
    while q != 0:
        a, rem = divmod(p, q)
        h = a * h_prev + h_prev2
        k = a * k_prev + k_prev2
        if k > max_denominator:
            break
        out.append((h, k))
        h_prev2, h_prev = h_prev, h
        k_prev2, k_prev = k_prev, k
        p, q = q, rem
    return out


def check_s_membership(
    lambda0: float,
    kappa0: float,
    rational_tolerance: float = 1e-12,
    max_denominator: int = 10**6,
) -> SMembershipReport:
    """Decide whether ``sqrt(lambda0/kappa0)`` behaves as an irrational.

    Exact detection runs first: the inputs are binary rationals, so their
    quotient is an exact ``Fraction``; the square root is rational iff the
    reduced numerator and denominator are both perfect squares.  When that
    fails, the convergents of the square root provide the heuristic evidence
    and the fitted exponent.
    """
    _require_positive(lambda0=lambda0, kappa0=kappa0)
    if max_denominator < 2:
        raise DomainError(f"max_denominator must be >= 2, got {max_denominator!r}")

    ratio_sq = Fraction(lambda0) / Fraction(kappa0)
    ratio = math.sqrt(lambda0 / kappa0)

    hit: tuple[int, int] | None = None
    sq_num = _perfect_square_root(ratio_sq.numerator)
    sq_den = _perfect_square_root(ratio_sq.denominator)
    if sq_num is not None and sq_den is not None:
        hit = (sq_num, sq_den)

    # Convergents of the float value, computed exactly on its binary-rational
    # representation.  Errors below ~4 ulp carry no information about the true
    # ratio and are excluded from the exponent estimates.
    resolution = 4.0 * math.ulp(ratio)
    convergents = []
    pointwise_M = 0.0
    log_b, log_inv_err = [], []
    for a, b in _continued_fraction_convergents(Fraction(ratio), max_denominator):
        err = abs(ratio - a / b)
        convergents.append(Convergent(a=a, b=b, error=err))
        if hit is None and err < rational_tolerance and abs((a / b) ** 2 - lambda0 / kappa0) < rational_tolerance:
            hit = (a, b)
        if b >= 2 and err > resolution:
            pointwise_M = max(pointwise_M, math.log(1.0 / err) / math.log(b))
            log_b.append(math.log(b))
            log_inv_err.append(math.log(1.0 / err))
        if err <= resolution:
            break

    if len(log_b) >= 2:
        mean_x = sum(log_b) / len(log_b)
        mean_y = sum(log_inv_err) / len(log_inv_err)
        sxx = sum((x - mean_x) ** 2 for x in log_b)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(log_b, log_inv_err))
        fitted_M = sxy / sxx if sxx > 0 else pointwise_M
    else:
        fitted_M = pointwise_M

    return SMembershipReport(
        ratio=ratio,
        rational_hit=hit,
        convergents=tuple(convergents),
        fitted_M=fitted_M,
        pointwise_M=pointwise_M,
        in_s=hit is None,
        rational_tolerance=rational_tolerance,
        max_denominator=max_denominator,
    )
