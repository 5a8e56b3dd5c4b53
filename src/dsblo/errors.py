"""Exception types shared across the solver stack."""


class DsbloError(Exception):
    """Base class for all library errors."""


class Infeasible(DsbloError):
    """The lower-level constraint set is empty at the queried upper-level point."""


class MaxPivots(DsbloError):
    """Active-set QP exceeded its pivot budget (cycling guard tripped)."""


class DegenerateActiveSet(DsbloError):
    """Active constraint rows fail ``ActiveSetCache.check_rank`` or have a
    singular reduced KKT system, or strict complementarity fails (a zero
    multiplier on an active row)."""


class NonFinite(DsbloError):
    """A lower-level solve's KKT residual or constraint violation came out
    NaN or infinite, so no returned point could be certified; typically a
    NaN or infinite entry in x, q or the instance. With warnings raised as
    errors, the numpy warning such an entry causes becomes this error."""


class Uncertified(DsbloError):
    """A lower-level solve ended at a finite point whose KKT residual
    exceeds ``lower_level.KKT_TOL``, whose post-solve repairs left a
    violated row or a negative multiplier, or whose unbounded dual ray
    failed its Farkas check, so it cannot be certified; typically a
    perturbation or x so large that round-off swamps the tolerance."""


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
