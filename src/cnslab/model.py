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
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import DomainError

#: Default distance-to-integer tolerance used by degeneracy checks.
DEFAULT_INTEGER_TOL = 1e-9


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class BarotropicParams:
    """Coefficients of the two-field system.

    ``mu0`` is the effective diffusion ``(lambda_visc + 2*mu_visc)/rho_bar``
    and ``b`` the pressure coefficient ``a*gamma*rho_bar**(gamma-2)``; the
    hyperbolic accumulation rate ``omega0 = b*rho_bar/mu0`` is derived and
    stored for convenience.
    """

    rho_bar: float
    u_bar: float
    mu0: float
    b: float
    omega0: float = field(init=False)

    def __post_init__(self):
        _require_positive(rho_bar=self.rho_bar, u_bar=self.u_bar, mu0=self.mu0, b=self.b)
        object.__setattr__(self, "omega0", self.b * self.rho_bar / self.mu0)

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
    accumulation rate is ``omega_bar = R*theta_bar/lambda0``.
    """

    rho_bar: float
    u_bar: float
    theta_bar: float
    lambda0: float
    kappa0: float
    R: float
    c0: float
    omega_bar: float = field(init=False)

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
        object.__setattr__(self, "omega_bar", self.R * self.theta_bar / self.lambda0)

    @property
    def dim(self) -> int:
        return 3


SystemParams = BarotropicParams | NonBarotropicParams


def derive_barotropic(
    rho_bar: float,
    u_bar: float,
    a: float,
    gamma: float,
    lambda_visc: float,
    mu_visc: float,
) -> BarotropicParams:
    """Build two-field coefficients from the physical constitutive inputs.

    The pressure law is ``p = a*rho**gamma`` and the viscosities must satisfy
    ``mu_visc > 0`` and ``lambda_visc + mu_visc >= 0``.
    """
    _require_positive(rho_bar=rho_bar, u_bar=u_bar, a=a, mu_visc=mu_visc)
    if gamma < 1.0:
        raise DomainError(f"gamma must be >= 1, got {gamma!r}")
    if lambda_visc + mu_visc < 0.0:
        raise DomainError(
            f"lambda_visc + mu_visc must be >= 0, got {lambda_visc + mu_visc!r}"
        )
    mu0 = (lambda_visc + 2.0 * mu_visc) / rho_bar
    b = a * gamma * rho_bar ** (gamma - 2.0)
    return BarotropicParams(rho_bar=rho_bar, u_bar=u_bar, mu0=mu0, b=b)


def derive_nonbarotropic(
    rho_bar: float,
    u_bar: float,
    theta_bar: float,
    R: float,
    c0: float,
    lambda_visc: float,
    mu_visc: float,
    kappa: float,
) -> NonBarotropicParams:
    """Build three-field coefficients from the physical inputs.

    ``lambda0 = (lambda_visc + 2*mu_visc)/rho_bar`` and
    ``kappa0 = kappa/(rho_bar*c0)``.
    """
    _require_positive(
        rho_bar=rho_bar, u_bar=u_bar, theta_bar=theta_bar, R=R, c0=c0,
        mu_visc=mu_visc, kappa=kappa,
    )
    if lambda_visc + mu_visc < 0.0:
        raise DomainError(
            f"lambda_visc + mu_visc must be >= 0, got {lambda_visc + mu_visc!r}"
        )
    return NonBarotropicParams(
        rho_bar=rho_bar,
        u_bar=u_bar,
        theta_bar=theta_bar,
        lambda0=(lambda_visc + 2.0 * mu_visc) / rho_bar,
        kappa0=kappa / (rho_bar * c0),
        R=R,
        c0=c0,
    )


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
