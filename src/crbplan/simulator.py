"""Time-slotted Monte Carlo engine with per-actor resource accounting.

Each slot independently draws its type from the policy (marginal-X,
marginal-Y, joint, or idle); observations are generated from the model and
each actor is charged per slot its own budget row's coefficient for the
slot's kind (idle slots are free).  Expected per-slot cost per actor
therefore is each budget row's left-hand side, which is what
:func:`audit_resources` verifies empirically.

All randomness is derived per block of :data:`REPLICATION_BLOCK`
replications from (master seed, block index): replication r draws from
stream r // REPLICATION_BLOCK, straight after the replications before it in
that block.  Reports are therefore bit-identical across runs and across any
split of whole blocks over workers.  ``_draw_replication`` alone fixes the
order of a replication's draws and returns each stratum in its own array,
the arguments every estimator takes; :func:`run` and
:func:`collect_replication` hand them over as they are, and
:func:`replay_slots` scatters the same draws back to their slots, so
:func:`write_trace` shows exactly the data :func:`run` consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePolicy, MissingStratum
from .estimators import (
    EstimatorKind,
    delta1,
    delta2,
    sample_mean_x,
    sample_mean_y,
    var_delta1,
)
from .fisher import SamplingPolicy, Target, Task, crb
from .model import (
    GENERATOR_NAME,
    REPLICATION_BLOCK,
    Axis,
    ObservationKind,
    ObservationModel,
    joint_from_normals,
    marginal_from_normals,
    replication_rng,
)
from .strategy import Actor, Scenario, _charged, _limit, _load, constraints_for


#: Most slots per replication: its draws (uniforms, kind codes, normals) peak
#: near 52 bytes a slot, 0.5 GB here, where far more would fail to allocate.
_MAX_SLOTS = 10**7
#: Most replications per run: :func:`run` keeps one estimate per replication,
#: near 40 bytes each (a float in a list, then its array copy), 0.4 GB here.
_MAX_REPS = 10**7


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a reproducible simulation needs.

    ``slots`` is the number of time slots per replication; the reported
    empirical variance is normalized per slot (multiplied by ``slots``) so it
    compares directly against the per-slot analytic bounds.
    """

    scenario: Scenario
    model: ObservationModel
    policy: SamplingPolicy
    estimator: EstimatorKind
    slots: int
    replications: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.slots > _MAX_SLOTS:
            raise ValueError(f"slots must be <= {_MAX_SLOTS}, got {self.slots}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.replications > _MAX_REPS:
            raise ValueError(f"replications must be <= {_MAX_REPS}, got {self.replications}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated simulation output; fully determined by the config."""

    mean_estimate: float
    empirical_variance_per_slot: float
    analytic_crb: float
    analytic_estimator_variance: float | None
    cost_per_slot: dict[Actor, float]  # every actor's average spending; 0 without a row
    slot_counts: dict[str, int]
    replications_used: int
    replications_excluded: int
    slots_per_replication: int
    master_seed: int
    policy: SamplingPolicy  # the audit's slot-kind probabilities; not a record field
    generator: str = GENERATOR_NAME

    def as_record(self) -> dict:
        record = {
            "mean_estimate": self.mean_estimate,
            "empirical_variance_per_slot": self.empirical_variance_per_slot,
            "analytic_crb": self.analytic_crb,
            "analytic_estimator_variance": self.analytic_estimator_variance,
            "replications_used": self.replications_used,
            "replications_excluded": self.replications_excluded,
            "slots_per_replication": self.slots_per_replication,
            "master_seed": self.master_seed,
            "generator": self.generator,
        }
        for actor in Actor:
            record[f"cost_{actor.value}_per_slot"] = self.cost_per_slot[actor]
        for kind in ObservationKind:
            record[f"n_{kind.value}"] = self.slot_counts[kind.value]
        return record


_KIND_CODES = tuple(ObservationKind)


def _slot_edges(policy: SamplingPolicy) -> np.ndarray:
    """Cumulative probabilities of the marginal-X, marginal-Y and joint slots.

    A slot whose uniform draw is u takes the first kind whose edge exceeds u
    (idle past the last).  Components the policy tolerates just below 0
    count as 0, so the edges never decrease.
    """
    return np.cumsum(np.maximum(policy.as_tuple(), 0.0))


def _draw_replication(model: ObservationModel, edges: np.ndarray, slots: int, rng):
    """The draw order of one replication, the only place that defines it.

    Draws the slot uniforms, then one block of standard normals: the X
    marginals, the Y marginals, the joint pairs' z1 and their z2, the same
    stream as :func:`sample_marginal` twice and :func:`sample_joint` would
    draw.  Returns ``(kinds, counts, marginal_x, marginal_y, joint_x,
    joint_y)``: per-slot kind codes indexing :data:`_KIND_CODES`, the
    per-kind slot counts and each stratum in its own array.
    """
    kinds = edges.searchsorted(rng.random(slots), "right")
    counts = np.bincount(kinds, minlength=4).tolist()
    n_x, n_y, n_joint = counts[:3]
    z = rng.standard_normal(n_x + n_y + 2 * n_joint)
    marginal_x = marginal_from_normals(model, Axis.X, z[:n_x])
    marginal_y = marginal_from_normals(model, Axis.Y, z[n_x : n_x + n_y])
    z1 = z[n_x + n_y : n_x + n_y + n_joint]
    joint_x, joint_y = joint_from_normals(model, z1, z[n_x + n_y + n_joint :])
    return kinds, counts, marginal_x, marginal_y, joint_x, joint_y


def replay_slots(
    model: ObservationModel,
    policy: SamplingPolicy,
    slots: int,
    rng: np.random.Generator,
):
    """Generate one replication's slot stream in slot order.

    Returns ``(kinds, x, y)``: an int array of codes indexing
    ``(marginal_x, marginal_y, joint, idle)`` and per-slot coordinate values
    (NaN where the coordinate was not observed).  The draws are those of
    ``_draw_replication``, scattered back to their slots; :func:`run` skips
    this scatter, so this slot-level view serves ``write_trace`` and tests.
    """
    kinds, _, mx, my, jx, jy = _draw_replication(model, _slot_edges(policy), slots, rng)
    x, y = np.full((2, slots), math.nan)
    x[kinds == 0] = mx
    y[kinds == 1] = my
    x[kinds == 2] = jx
    y[kinds == 2] = jy
    return kinds.astype(np.int8), x, y


def collect_replication(
    model: ObservationModel,
    policy: SamplingPolicy,
    slots: int,
    rng: np.random.Generator,
) -> tuple[tuple[np.ndarray, ...], dict[str, int]]:
    """Run one replication: ``(strata, counts)``, the arrays ``(marginal_x,
    marginal_y, joint_x, joint_y)`` every estimator takes and the slot count
    of each kind by name."""
    _, counts, *strata = _draw_replication(model, _slot_edges(policy), slots, rng)
    return tuple(strata), {kind.value: n for kind, n in zip(_KIND_CODES, counts)}


def default_estimator(scenario: Scenario, policy: SamplingPolicy) -> EstimatorKind:
    """The natural estimator for a scenario/policy combination.

    Task t1 (correlation known) blends both strata when both are sampled,
    falls back to the joint-only adjustment, then to the plain mean.  Tasks
    t2 and t3 default to sample means: t2's learner cannot use the
    correlation it does not know, and sample means are optimal for t3.
    """
    if scenario.task is Task.T1:
        if policy.p_y > 0.0 and policy.p_xy > 0.0:
            return EstimatorKind.DELTA1
        if policy.p_xy > 0.0:
            return EstimatorKind.DELTA2
    return EstimatorKind.SAMPLE_MEAN


def _analytic_estimator_variance(config: SimulationConfig) -> float | None:
    policy, model = config.policy, config.model
    if config.estimator is EstimatorKind.DELTA1:
        if policy.p_y > 0.0 and policy.p_xy > 0.0:
            return var_delta1(policy, model)
        return None
    if config.estimator is EstimatorKind.DELTA2:
        if policy.p_xy > 0.0:
            return (1.0 - model.rho**2) * model.var_y / policy.p_xy
        return None
    if config.scenario.target is Target.MU_X:
        coverage, var = policy.p_x + policy.p_xy, model.var_x
    else:
        coverage, var = policy.p_y + policy.p_xy, model.var_y
    return var / coverage if coverage > 0.0 else None


def run(config: SimulationConfig) -> SimulationReport:
    """Simulate, estimate, and aggregate across replications.

    Replications whose data lacks a stratum the estimator requires are
    excluded from the aggregates and counted in
    ``replications_excluded`` (substituting a different estimator there
    would corrupt the variance comparison).  With fewer than two usable
    replications the empirical variance is NaN.

    Each replication is one pass: ``_draw_replication`` draws every stratum
    into its own array and the estimator reads those arrays, with no slot
    arrays in between.
    Each block of :data:`REPLICATION_BLOCK` replications shares one
    :func:`replication_rng` stream, drawn in replication order.

    Raises:
        InfeasiblePolicy: the policy violates the scenario's constraints.
        MissingStratum: every replication was excluded.
    """
    cons = constraints_for(config.scenario)
    violated = cons.violations(config.policy)
    if violated:
        raise InfeasiblePolicy(f"policy violates constraints: {violated}")

    edges = _slot_edges(config.policy)
    if config.estimator is EstimatorKind.SAMPLE_MEAN:
        estimate = sample_mean_x if config.scenario.target is Target.MU_X else sample_mean_y
    else:
        estimate = delta1 if config.estimator is EstimatorKind.DELTA1 else delta2
    counted = [0, 0, 0, 0]
    estimates = []
    excluded = 0
    for rep in range(config.replications):
        if rep % REPLICATION_BLOCK == 0:
            rng = replication_rng(config.master_seed, rep // REPLICATION_BLOCK)
        _, counts, *strata = _draw_replication(config.model, edges, config.slots, rng)
        counted = [total + n for total, n in zip(counted, counts)]
        try:
            estimates.append(estimate(*strata, config.model))
        except MissingStratum:
            excluded += 1
    totals = {kind.value: n for kind, n in zip(_KIND_CODES, counted)}

    if not estimates:
        raise MissingStratum(
            f"all {config.replications} replications lacked a required stratum"
        )

    estimates = np.asarray(estimates)
    mean_estimate = float(estimates.mean())
    if estimates.size >= 2:
        variance_per_slot = float(config.slots * estimates.var(ddof=1))
    else:
        variance_per_slot = math.nan

    cost_per_slot = dict.fromkeys(Actor, 0.0)
    total_slots = config.slots * config.replications
    for actor, row in _charged(cons).items():
        cost_per_slot[actor] = _load(row.coeffs, *counted[:3]) / total_slots

    return SimulationReport(
        mean_estimate=mean_estimate,
        empirical_variance_per_slot=variance_per_slot,
        analytic_crb=crb(
            config.scenario.task, config.scenario.target, config.policy, config.model
        ),
        analytic_estimator_variance=_analytic_estimator_variance(config),
        cost_per_slot=cost_per_slot,
        slot_counts=totals,
        replications_used=len(estimates),
        replications_excluded=excluded,
        slots_per_replication=config.slots,
        master_seed=config.master_seed,
        policy=config.policy,
    )


@dataclass(frozen=True)
class ConstraintAudit:
    """One actor's empirical spending versus its budget."""

    actor: str
    budget: float
    mean_cost_per_slot: float
    slack: float
    stderr: float
    passed: bool


@dataclass(frozen=True)
class AuditResult:
    checks: tuple[ConstraintAudit, ...]
    passed: bool

    def for_actor(self, actor: Actor) -> ConstraintAudit:
        for check in self.checks:
            if check.actor == actor.value:
                return check
        raise KeyError(actor)


def audit_resources(report: SimulationReport, scenario: Scenario) -> AuditResult:
    """Check each actor's average per-slot spending against its budget row.

    A check passes when ``slack = budget - mean_cost`` is no worse than
    minus three standard errors of the slot-type mixture (budgets constrain
    expectations, so sampling noise must be tolerated, not violations), less
    the rounding that the one feasibility rule (``strategy._limit``) allows
    a row: ``mean_cost - 3 stderr <= budget + 1e-9 (|budget| + mean_cost)``.
    With row coefficients ``c`` and the policy's kind probabilities ``p``,
    the per-slot cost variance is ``c^2.p - (c.p)^2``; ``p`` is known by
    design, so a kind that never occurred in the run still counts.
    Failures are results, not exceptions.
    """
    policy, slots = report.policy.as_tuple(), sum(report.slot_counts.values())
    checks = []
    for actor, row in _charged(constraints_for(scenario)).items():
        budget, c = row.bound, row.coeffs
        expected = _load(c, *policy)
        variance = max(0.0, _load([v * v for v in c], *policy) - expected**2)
        stderr = math.sqrt(variance / slots)
        mean_cost = report.cost_per_slot[actor]
        passed = mean_cost - 3.0 * stderr <= _limit(budget, mean_cost)
        checks.append(
            ConstraintAudit(actor.value, budget, mean_cost, budget - mean_cost, stderr, passed)
        )
    return AuditResult(tuple(checks), all(c.passed for c in checks))


TRACE_HEADER = "slot,kind,x,y,cost_sx,cost_sy,cost_dc"


def write_trace(config: SimulationConfig, path, replication: int = 0) -> None:
    """Dump one replication's slot-by-slot stream as CSV (debugging aid).

    Opens the replication's block stream, discards the replications before
    it in that block with ``_draw_replication`` and scatters its own draws
    with :func:`replay_slots`, so the trace reproduces exactly the data that
    :func:`run` consumed for that replication.
    """
    if not 0 <= replication < config.replications:
        raise ValueError(f"replication must be in [0, {config.replications})")
    block, offset = divmod(replication, REPLICATION_BLOCK)
    rng = replication_rng(config.master_seed, block)
    edges = _slot_edges(config.policy)
    for _ in range(offset):
        _draw_replication(config.model, edges, config.slots, rng)
    kinds, x, y = replay_slots(config.model, config.policy, config.slots, rng)
    charged = _charged(constraints_for(config.scenario))
    prices = [(*charged[a].coeffs, 0.0) if a in charged else (0.0,) * 4 for a in Actor]
    costs = [",".join(f"{price[code]:.9g}" for price in prices) for code in range(4)]

    def fmt(v: float) -> str:
        return "" if math.isnan(v) else f"{v:.9g}"

    lines = [TRACE_HEADER]
    for slot, (code, vx, vy) in enumerate(zip(kinds.tolist(), x.tolist(), y.tolist())):
        lines.append(f"{slot},{_KIND_CODES[code].value},{fmt(vx)},{fmt(vy)},{costs[code]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
