"""Exception types shared across the package.

Input errors (bad shapes, bad parameter values) are plain ``ValueError``;
the classes below mark failures of the numerical machinery itself, which the
CLI maps to a distinct exit code.
"""


class SubtaskForgeError(Exception):
    """Base class for errors raised by this package."""


class SingularSystemError(SubtaskForgeError):
    """The desirability system is singular or non-contractive.

    Typical causes: boundary states unreachable from some interior state, or
    non-negative interior rewards pushing the weighted dynamics' spectral
    radius to 1 or above.
    """


class NonFiniteResultError(SubtaskForgeError):
    """A computation ended in an infinite or NaN value.

    Typical cause: input values spanning more than floating point can
    carry through the computation, such as a basis holding both 5e-324 and 1.
    """


class FactorRankError(SubtaskForgeError, ValueError):
    """Requested decomposition factor is outside the feasible range."""


class AlphaRangeError(SubtaskForgeError, ValueError):
    """Subtask scaling parameter outside [0, alpha_max)."""

    def __init__(self, message: str, alpha_max: float | None = None):
        super().__init__(message)
        self.alpha_max = alpha_max


#: Failures that the CLI reports as "numerical failure" (exit code 3).
NUMERICAL_ERRORS = (
    SingularSystemError,
    NonFiniteResultError,
    FactorRankError,
)
