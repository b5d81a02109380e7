"""Exception types shared across the package.

Validation problems (bad input data, singular matrices, out-of-window
evaluation) raise ``ValidationError`` subclasses; these map to exit code 3
in the command line tool.  Parameter misuse raises ``ParameterError``.
"""


class DichospecError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(DichospecError, ValueError):
    """A parameter value violates a documented precondition."""


class ValidationError(DichospecError):
    """Input data failed validation."""


class SingularMatrixError(ValidationError):
    """A coefficient matrix is singular or numerically unusable."""

    def __init__(self, n, detail=""):
        self.n = n
        msg = f"matrix at n={n} is singular or numerically singular"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class WindowCapError(ValidationError):
    """A requested transition product exceeds the step cap."""


class DecayFitError(DichospecError):
    """Decay-constant fitting received a degenerate sample set."""


class SpectrumConsistencyError(DichospecError):
    """Verdict pattern along the gamma grid contradicts interval structure."""


class SubspaceError(DichospecError):
    """A computed subspace has the wrong dimension or is degenerate."""
