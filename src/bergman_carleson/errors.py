"""Exception types shared across the package."""


class ToleranceNotReached(RuntimeError):
    """Raised when an adaptive quadrature exhausts its evaluation budget.

    Carries the best available estimate so callers can decide whether the
    achieved accuracy is still usable.
    """

    def __init__(self, message, value=None, achieved=None, evaluations=None):
        super().__init__(message)
        self.value = value
        self.achieved = achieved
        self.evaluations = evaluations


class NotPSDError(ValueError):
    """A matrix expected to be positive semidefinite has a genuinely negative eigenvalue."""


class DegenerateWeightError(ValueError):
    """An averaged weight or atom is numerically singular where invertibility is required."""


class PowerIterationError(RuntimeError):
    """The iterative second route of the dyadic norm (Lanczos, formerly
    power iteration) did not converge within its iteration budget."""

    def __init__(self, message, last_value=None, iterations=None):
        super().__init__(message)
        self.last_value = last_value
        self.iterations = iterations


class ScenarioError(ValueError):
    """A scenario file is malformed or internally inconsistent."""
