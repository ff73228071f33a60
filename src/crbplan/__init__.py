"""Resource-constrained sampling design for two correlated Gaussian sensors.

The package answers three questions about a pair of sensors observing a
bivariate Gaussian under per-slot resource budgets: how much information a
sampling policy yields (``fisher``), which policy is optimal for a scenario
(``strategy``), and whether the analytic answers survive contact with
simulated data (``estimators`` + ``simulator``).  The ``crbplan`` CLI wraps
all of it with reproducible CSV/JSONL output.
"""

from .errors import (
    BoundOverflow,
    CorrelationOutOfRange,
    CrbPlanError,
    DegeneratePolicy,
    InfeasiblePolicy,
    InfeasibleScenario,
    InvalidPolicy,
    InvalidScenario,
    MissingStratum,
    NonPositiveVariance,
    SingularEverywhere,
    SingularMatrix,
)
from .estimators import (
    EstimatorKind,
    delta1,
    delta2,
    sample_mean_x,
    sample_mean_y,
    var_delta1,
)
from .fisher import (
    SamplingPolicy,
    Target,
    Task,
    crb,
    crb_t1,
    crb_t3,
    empirical_fim_with_stderr,
    fim,
)
from .model import (
    Axis,
    ObservationKind,
    ObservationModel,
    replication_rng,
    sample_joint,
    sample_marginal,
    validate,
)
from .simulator import (
    AuditResult,
    SimulationConfig,
    SimulationReport,
    audit_resources,
    collect_replication,
    default_estimator,
    run,
    write_trace,
)
from .strategy import (
    Actor,
    Constraint,
    LinearConstraintSet,
    Method,
    PlanResult,
    ResourceBudget,
    Scenario,
    Setting,
    constraints_for,
    joint_priority_threshold,
    plan,
    plan_linear,
    plan_t1_closed_form,
    plan_t3,
)

__version__ = "0.1.0"
