"""Semantic exception hierarchy shared across the package."""


class CrbPlanError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveVariance(CrbPlanError, ValueError):
    """A variance parameter is zero, negative, or non-finite."""


class CorrelationOutOfRange(CrbPlanError, ValueError):
    """|rho| exceeds the open-interval guard 1 - 1e-9 (or is non-finite)."""


class InvalidPolicy(CrbPlanError, ValueError):
    """Sampling probabilities fall outside [0, 1] or sum past 1."""


class DegeneratePolicy(CrbPlanError, ValueError):
    """The policy yields no information about the target parameter."""


class SingularMatrix(CrbPlanError, ValueError):
    """A 2x2 information matrix carries no information about the target mean."""


class MissingStratum(CrbPlanError, ValueError):
    """An estimator requires an observation group that is empty."""


class InvalidScenario(CrbPlanError, ValueError):
    """Scenario fields are inconsistent (e.g. data-center budget rules)."""


class InfeasibleScenario(CrbPlanError, ValueError):
    """The scenario's constraint set admits no feasible policy."""


class SingularEverywhere(CrbPlanError, ValueError):
    """The target bound is infinite over the entire feasible region."""


class BoundOverflow(CrbPlanError, ValueError):
    """The information is positive but the bound is not representable."""


class InfeasiblePolicy(CrbPlanError, ValueError):
    """A simulation policy violates the scenario's constraints."""
