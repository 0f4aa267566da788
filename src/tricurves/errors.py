"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: ValidationError -> 2,
NumericalError (and subclasses) -> 3, VerificationFailure -> 4.
"""


class ValidationError(ValueError):
    """Invalid specification, configuration or argument."""


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


class EigenSolveError(NumericalError):
    """Dense eigensolver failed to converge, or was handed a NaN or inf;
    carries replay information."""

    def __init__(self, message: str, seed=None, n=None, detail=None):
        super().__init__(message)
        self.seed = seed
        self.n = n
        self.detail = detail


class SingularResolventError(NumericalError):
    """Resolvent requested at (numerically) an eigenvalue of the reference matrix."""


class VerificationFailure(RuntimeError):
    """A verification battery check exceeded its budget."""
