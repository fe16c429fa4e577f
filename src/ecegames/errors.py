"""Exception types shared across the package."""

from __future__ import annotations


class EcegamesError(Exception):
    """Base class for all package errors."""


class ConfigError(EcegamesError):
    """A scenario configuration is malformed or internally inconsistent."""


class IngestError(EcegamesError):
    """A trajectory / policy / weights file failed to parse or validate."""


class SimulationDivergedError(EcegamesError):
    """A rollout produced a non-finite ``quantity``: a state, or the state
    covariance of exact moments whose mean state is finite."""

    def __init__(self, time_step: int, quantity: str = "state"):
        self.time_step = time_step
        self.quantity = quantity
        super().__init__(f"non-finite {quantity} encountered at time step t={time_step}")


class CovarianceError(EcegamesError):
    """A policy covariance is not symmetric positive definite."""

    def __init__(self, message: str, agent: int | None = None, time_step: int | None = None):
        self.agent = agent
        self.time_step = time_step
        super().__init__(message)


class StageSingularError(EcegamesError):
    """The coupled stage system is numerically singular even after regularization."""

    def __init__(self, time_step: int, condition: float):
        self.time_step = time_step
        self.condition = condition
        super().__init__(
            f"coupled stage system singular at t={time_step} "
            f"(condition estimate {condition:.3e})"
        )


class LinearizationError(EcegamesError):
    """Dynamics Jacobians evaluated to non-finite values."""

    def __init__(self, time_step: int):
        self.time_step = time_step
        super().__init__(f"non-finite dynamics Jacobian at time step t={time_step}")


class QuadratizationError(EcegamesError):
    """Cost gradient or Hessian evaluated to non-finite values."""

    def __init__(self, time_step: int, agent: int):
        self.time_step = time_step
        self.agent = agent
        super().__init__(
            f"non-finite cost expansion for agent {agent} at time step t={time_step}"
        )


class LineSearchError(EcegamesError):
    """No admissible step size was found during the forward line search."""

    def __init__(self, iteration: int, min_step: float):
        self.iteration = iteration
        self.min_step = min_step
        super().__init__(
            f"line search failed at iteration {iteration}: no step >= {min_step} "
            "kept the trajectory within the deviation threshold"
        )


class NonConvergenceError(EcegamesError):
    """The iterative equilibrium solver hit its iteration budget.

    Carries the iteration trace and the last policy iterate for diagnostics.
    """

    def __init__(self, message: str, trace=None, policies=None):
        self.trace = trace
        self.policies = policies
        super().__init__(message)


class InvalidWeightError(EcegamesError):
    """A feature weight vector would produce an ill-posed game."""
