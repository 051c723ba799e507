"""Exception hierarchy.

Every error raised by the package derives from SphereBuckleError, so callers
can catch one type at the boundary. The CLI maps subtrees to exit codes:
configuration and input problems exit 4, solver non-convergence exits 3.
"""


class SphereBuckleError(Exception):
    """Base class for all package errors."""


class InvalidInput(SphereBuckleError):
    """Bad user input or configuration; maps to CLI exit code 4."""


class ConfigError(InvalidInput):
    """Malformed or inconsistent campaign configuration."""


class Unsorted(InvalidInput):
    """Spectrum values are not nondecreasing."""


class NonPositive(InvalidInput):
    """Spectrum contains a value <= 0."""


class SingularTerm(InvalidInput):
    """A value lambda <= n - 2 makes the weight term undefined."""


class NegativeDiscriminant(SphereBuckleError):
    """S^2 < T: the quadratic bound has no real root for this input."""

    def __init__(self, S: float, T: float):
        self.S = S
        self.T = T
        super().__init__(f"discriminant S^2 - T < 0 (S={S!r}, T={T!r})")


class OrderViolation(InvalidInput):
    """Supplied next eigenvalue lies below the k-th spectrum value."""


class InvalidDelta(InvalidInput):
    """delta must be strictly positive."""


class AllGapsZero(SphereBuckleError):
    """Every gap vanishes; the optimal delta is an indeterminate 0/0."""


class InsufficientModes(SphereBuckleError):
    """Too few per-mode eigenvalues to fill the requested spectrum length."""


class NoConvergence(SphereBuckleError):
    """An iterative solve or basis refinement exhausted its budget."""


class UnsupportedMode(InvalidInput):
    """Operation requires an axisymmetric (m = 0) eigenpair."""
