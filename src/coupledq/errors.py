"""Exception types shared across the package."""


class CoupledQError(Exception):
    """Base class for all package errors."""


class BoundViolation(CoupledQError):
    """A rate function returned a value outside [0, bound] or a non-finite value."""


class InvalidShape(CoupledQError):
    """A sampled gain was not increasing or a sampled interference factor not decreasing."""


class SaturationNotConverged(CoupledQError):
    """Numeric saturation escalation never stabilized within limit_tol."""


class BoxTooLarge(CoupledQError):
    """Requested truncation box exceeds the configured state-count cap."""


class NoConvergence(CoupledQError):
    """A stationary law could not be certified.

    Raised when box escalation hits the cap while boundary mass is still
    above tail_tol -- the expected signal for an unstable saturated prefix
    process -- and when no stationary solve candidate meets residual_tol.
    The engine maps either to a zero, untrustworthy worst-case average rate.
    A cap hit carries the solve report, with every box tried, in ``report``;
    a residual miss carries none.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class HypothesisViolated(CoupledQError):
    """A sampled state pair broke the coupling rate hypotheses.

    Signals that the caller's inputs do not satisfy the comparison conditions,
    not a simulator bug.  Carries the offending pair and coordinate.
    """

    def __init__(self, message, x=None, y=None, coord=None):
        super().__init__(message)
        self.x = x
        self.y = y
        self.coord = coord


class PermutationCapExceeded(CoupledQError):
    """More queues than the permutation search cap allows."""


class ScenarioError(CoupledQError):
    """Scenario file failed to parse or validate."""
