"""Exception types shared across the solver stack."""


class DsbloError(Exception):
    """Base class for all library errors."""


class Infeasible(DsbloError):
    """The lower-level constraint set is empty at the queried upper-level point."""


class MaxPivots(DsbloError):
    """Active-set QP exceeded its pivot budget (cycling guard tripped)."""


class MaxIter(DsbloError):
    """Projected-gradient solve hit its iteration cap before certifying the
    requested accuracy. Carries the best certified bound reached."""

    def __init__(self, message, delta_cert=None):
        super().__init__(message)
        self.delta_cert = delta_cert


class DegenerateActiveSet(DsbloError):
    """Active constraint rows are rank deficient, or strict complementarity
    fails (a zero multiplier on an active row)."""


class NonFinite(DsbloError):
    """A lower-level solve's KKT residual or constraint violation came out
    NaN or infinite, so no returned point could be certified; typically a
    NaN or infinite entry in x, q or the instance."""


class NotSPD(DsbloError):
    """Lower-level Hessian is not symmetric positive definite."""


class ScheduleInfeasible(DsbloError):
    """Theory-mode parameter formulas are undefined for the requested target;
    the message names the violated inequality."""


class WindowViolation(DsbloError):
    """A K-window of the outer loop broke its invariant: the step budget
    sum eta ||m|| exceeded K/gamma1, or a sampled point left the radius
    delta_bar ball around the window anchor."""


class WindowIncomplete(DsbloError):
    """Stationarity window requested before enough iterations were logged."""


class ConfigError(DsbloError):
    """Experiment configuration failed validation."""


class GeneratorError(DsbloError):
    """Instance generator could not certify the requested instance."""
