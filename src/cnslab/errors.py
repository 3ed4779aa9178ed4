"""Exception and warning types shared across the package.

Raising is reserved for violated contracts (bad arguments, failed numerical
tolerances); diagnostic verdicts that are expected outcomes of an experiment
are returned in report objects instead.
"""


class CnsLabError(Exception):
    """Base class for all package errors."""


class DomainError(CnsLabError):
    """An argument violates a sign condition or an admissible range."""


class DimMismatch(CnsLabError):
    """Field/operator component counts are incompatible."""


class MeanZeroRequired(CnsLabError):
    """A negative Sobolev order was requested for a field with nonzero mean."""


class IllConditioned(CnsLabError):
    """A per-mode expansion solve exceeded the condition-number budget."""

    def __init__(self, n: int, cond: float):
        super().__init__(f"mode {n}: expansion matrix condition number {cond:.3e} exceeds budget")
        self.n = n
        self.cond = cond


class ChainError(CnsLabError):
    """A Jordan-chain solve did not close; usually a multiplicity misdetection."""


class ConditioningError(CnsLabError):
    """A dense eigensolve reported an unacceptable backward error."""


class QuadratureNotConverged(CnsLabError):
    """The observation energy is not finite or its rounding bound exceeds 1e-3 of it."""


class ZeroState(CnsLabError):
    """The initial adjoint state norm underflowed; a quotient is undefined."""


class DuplicateRate(CnsLabError):
    """A Gram matrix of exponentials was requested with coincident rates."""


class InfeasibleRow(CnsLabError):
    """A moment row has zero observation but a nonzero target."""


class RankDeficient(CnsLabError):
    """The moment Gram matrix is numerically rank deficient and the residual is large."""

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows or []


class ArithmeticFailure(CnsLabError):
    """Extended-precision arithmetic met an invalid operation, a division by zero or an overflow."""


class SupportError(CnsLabError):
    """A bump support violates the geometric constraint of the construction."""


class NotDegenerate(CnsLabError):
    """No eigenvalue coincidence eligible for a unique-continuation witness."""


class CFLViolation(CnsLabError):
    """The explicit advective stability limit of the time stepper is violated."""


class SolverSingular(CnsLabError):
    """The implicit step matrix could not be factorized."""


class ConfigError(CnsLabError):
    """A run configuration failed to parse or validate."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"{message} (key: {key})")
        self.key = key


class DegenerateWarning(UserWarning):
    """Two eigenvalues of one mode coincide within the clustering tolerance."""
