"""Time-slotted Monte Carlo engine with per-actor resource accounting.

Each slot independently draws its type from the policy (marginal-X,
marginal-Y, joint, or idle); observations are generated from the model and
costs are charged according to the scenario:

* Decentralized, one unknown mean (learner at the Y sensor): a marginal-Y
  slot costs the Y sensor 1 observation unit; a joint slot costs the Y
  sensor 1 + alpha (observe, receive X's sample) and the X sensor 1 + alpha
  (observe, transmit).
* Decentralized, two unknown means: each sensor pays 1 + 2 alpha on a joint
  slot (observe, transmit its own sample, receive the other's) and 1 for
  its own marginal slot.
* Centralized: every observing sensor pays 1 + alpha per observation it
  makes (observe, forward to the data center); the data center pays alpha
  per sample received, hence 2 alpha on joint slots.

Idle slots cost nothing and contribute no data.  Expected per-slot cost per
actor then reproduces the scenario's budget constraint left-hand side
exactly, which is what :func:`audit_resources` verifies empirically.

All randomness is derived per replication from (master seed, replication
index), so reports are bit-identical across runs and across any partitioning
of replications over workers.  :func:`run` seeds its streams in one
vectorized pass, equal to :func:`replication_rng`'s bit for bit.
``_draw_replication`` alone fixes the order of a replication's draws.
:func:`run` takes each stratum straight from it, with no slot arrays and no
:func:`collect_replication`; :func:`replay_slots` scatters the same draws
back to their slots, so :func:`write_trace` shows exactly the data
:func:`run` consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegeneratePolicy, InfeasiblePolicy, MissingStratum, SingularMatrix
from .estimators import (
    CollectedData,
    EstimatorKind,
    delta1_value,
    delta2_value,
    pooled_mean,
    var_delta1,
)
from .fisher import SamplingPolicy, Target, Task, crb_t1, crb_t3
from .model import (
    GENERATOR_NAME,
    Axis,
    Observation,
    ObservationKind,
    ObservationModel,
    _replication_rngs,
    joint_from_normals,
    marginal_from_normals,
    replication_rng,
)
from .strategy import Scenario, Setting, constraints_for


class Actor(Enum):
    SENSOR_X = "sensor_x"
    SENSOR_Y = "sensor_y"
    DATA_CENTER = "data_center"


@dataclass(frozen=True)
class CostShare:
    """One actor's spending in a single slot, split by activity."""

    observation: float = 0.0
    transmit: float = 0.0
    receive: float = 0.0

    @property
    def total(self) -> float:
        return self.observation + self.transmit + self.receive


_NO_COST = CostShare()


def slot_costs(scenario: Scenario) -> dict[ObservationKind, dict[Actor, CostShare]]:
    """Per-slot cost table: what each actor pays for each slot type."""
    alpha = scenario.budget.alpha
    table: dict[ObservationKind, dict[Actor, CostShare]] = {
        kind: {} for kind in ObservationKind
    }
    if scenario.setting is Setting.DECENTRALIZED:
        if scenario.task in (Task.T1, Task.T2):
            # Learner sits at the Y sensor; joint slots ship the X sample over.
            table[ObservationKind.MARGINAL_Y][Actor.SENSOR_Y] = CostShare(1.0)
            table[ObservationKind.JOINT][Actor.SENSOR_Y] = CostShare(1.0, 0.0, alpha)
            table[ObservationKind.JOINT][Actor.SENSOR_X] = CostShare(1.0, alpha, 0.0)
            # Unreachable under planner policies (p_x = 0); charged as if the
            # stand-alone X sample were still forwarded to the learner.
            table[ObservationKind.MARGINAL_X][Actor.SENSOR_X] = CostShare(1.0, alpha, 0.0)
            table[ObservationKind.MARGINAL_X][Actor.SENSOR_Y] = CostShare(0.0, 0.0, alpha)
        else:
            table[ObservationKind.MARGINAL_X][Actor.SENSOR_X] = CostShare(1.0)
            table[ObservationKind.MARGINAL_Y][Actor.SENSOR_Y] = CostShare(1.0)
            table[ObservationKind.JOINT][Actor.SENSOR_X] = CostShare(1.0, alpha, alpha)
            table[ObservationKind.JOINT][Actor.SENSOR_Y] = CostShare(1.0, alpha, alpha)
    else:
        table[ObservationKind.MARGINAL_X][Actor.SENSOR_X] = CostShare(1.0, alpha, 0.0)
        table[ObservationKind.MARGINAL_X][Actor.DATA_CENTER] = CostShare(0.0, 0.0, alpha)
        table[ObservationKind.MARGINAL_Y][Actor.SENSOR_Y] = CostShare(1.0, alpha, 0.0)
        table[ObservationKind.MARGINAL_Y][Actor.DATA_CENTER] = CostShare(0.0, 0.0, alpha)
        table[ObservationKind.JOINT][Actor.SENSOR_X] = CostShare(1.0, alpha, 0.0)
        table[ObservationKind.JOINT][Actor.SENSOR_Y] = CostShare(1.0, alpha, 0.0)
        table[ObservationKind.JOINT][Actor.DATA_CENTER] = CostShare(0.0, 0.0, 2.0 * alpha)
    return table


@dataclass(frozen=True)
class ResourceLedger:
    """Per-actor resource spending totals over ``slots`` time slots."""

    sensor_x: CostShare
    sensor_y: CostShare
    data_center: CostShare
    slots: int

    def for_actor(self, actor: Actor) -> CostShare:
        return {
            Actor.SENSOR_X: self.sensor_x,
            Actor.SENSOR_Y: self.sensor_y,
            Actor.DATA_CENTER: self.data_center,
        }[actor]

    def per_slot(self) -> "ResourceLedger":
        """The same ledger with costs averaged over slots."""
        if self.slots == 0:
            return self

        def scale(share: CostShare) -> CostShare:
            k = 1.0 / self.slots
            return CostShare(
                share.observation * k, share.transmit * k, share.receive * k
            )

        return ResourceLedger(
            scale(self.sensor_x), scale(self.sensor_y), scale(self.data_center), self.slots
        )


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
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated simulation output; fully determined by the config."""

    mean_estimate: float
    empirical_variance_per_slot: float
    analytic_crb: float
    analytic_estimator_variance: float | None
    ledger: ResourceLedger  # per-slot averages
    slot_counts: dict[str, int]
    replications_used: int
    replications_excluded: int
    slots_per_replication: int
    master_seed: int
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
            share = self.ledger.for_actor(actor)
            record[f"cost_{actor.value}_per_slot"] = share.total
        for kind in ObservationKind:
            record[f"n_{kind.value}"] = self.slot_counts[kind.value]
        return record


_KIND_CODES = (
    ObservationKind.MARGINAL_X,
    ObservationKind.MARGINAL_Y,
    ObservationKind.JOINT,
    ObservationKind.IDLE,
)


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
) -> tuple[CollectedData, dict[str, int]]:
    """Run one replication and group its observations by kind."""
    _, counts, mx, my, jx, jy = _draw_replication(model, _slot_edges(policy), slots, rng)
    data = CollectedData(marginal_x=mx, marginal_y=my, joint=np.column_stack([jx, jy]))
    return data, {kind.value: n for kind, n in zip(_KIND_CODES, counts)}


def _stratum_estimator(kind: EstimatorKind, model: ObservationModel, target: Target):
    """The estimator as a function of one replication's four stratum arrays."""
    if kind is EstimatorKind.DELTA1:
        return lambda mx, my, jx, jy: delta1_value(my, jx, jy, model)
    if kind is EstimatorKind.DELTA2:
        return lambda mx, my, jx, jy: delta2_value(jx, jy, model)
    if target is Target.MU_X:
        return lambda mx, my, jx, jy: pooled_mean(mx, jx, Axis.X)
    return lambda mx, my, jx, jy: pooled_mean(my, jy, Axis.Y)


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


def _analytic_crb(config: SimulationConfig) -> float:
    try:
        if config.scenario.task is Task.T3:
            return crb_t3(config.policy, config.model, config.scenario.target)
        return crb_t1(config.policy, config.model)
    except (SingularMatrix, DegeneratePolicy):
        # No finite bound exists for this policy/target combination.
        return math.inf


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
    into its own array and the estimator's formula reads those arrays, with
    no slot arrays, :class:`CollectedData` or :class:`Estimate` in between.
    The replications' generators come from ``_replication_rngs``, which
    seeds them in vectorized blocks with the streams of
    :func:`replication_rng`.

    Raises:
        InfeasiblePolicy: the policy violates the scenario's constraints.
        MissingStratum: every replication was excluded.
    """
    cons = constraints_for(config.scenario)
    violated = cons.violations(config.policy)
    if violated:
        raise InfeasiblePolicy(f"policy violates constraints: {violated}")

    edges = _slot_edges(config.policy)
    estimate = _stratum_estimator(config.estimator, config.model, config.scenario.target)
    counted = [0, 0, 0, 0]
    estimates = []
    excluded = 0
    for rng in _replication_rngs(config.master_seed, 0, config.replications):
        _, counts, *strata = _draw_replication(config.model, edges, config.slots, rng)
        counted = [total + n for total, n in zip(counted, counts)]
        try:
            estimates.append(estimate(*strata))
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

    table = slot_costs(config.scenario)
    shares = {}
    for actor in Actor:
        obs = tx = rx = 0.0
        for kind in ObservationKind:
            share = table[kind].get(actor, _NO_COST)
            n = totals[kind.value]
            obs += n * share.observation
            tx += n * share.transmit
            rx += n * share.receive
        shares[actor] = CostShare(obs, tx, rx)
    total_slots = config.slots * config.replications
    ledger = ResourceLedger(
        shares[Actor.SENSOR_X], shares[Actor.SENSOR_Y], shares[Actor.DATA_CENTER],
        total_slots,
    ).per_slot()

    return SimulationReport(
        mean_estimate=mean_estimate,
        empirical_variance_per_slot=variance_per_slot,
        analytic_crb=_analytic_crb(config),
        analytic_estimator_variance=_analytic_estimator_variance(config),
        ledger=ledger,
        slot_counts=totals,
        replications_used=len(estimates),
        replications_excluded=excluded,
        slots_per_replication=config.slots,
        master_seed=config.master_seed,
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
    """Check each actor's average per-slot spending against its budget.

    A check passes when ``slack = budget - mean_cost`` is no worse than
    minus three standard errors of the slot-type mixture (budgets constrain
    expectations, so sampling noise must be tolerated, not violations).
    Failures are results, not exceptions.
    """
    table = slot_costs(scenario)
    total_slots = report.ledger.slots
    freqs = {
        kind: report.slot_counts[kind.value] / total_slots for kind in ObservationKind
    }

    actors = [(Actor.SENSOR_X, scenario.budget.e1), (Actor.SENSOR_Y, scenario.budget.e1)]
    if scenario.setting is Setting.CENTRALIZED:
        actors.append((Actor.DATA_CENTER, scenario.budget.e2))

    checks = []
    for actor, budget in actors:
        kind_cost = {
            kind: table[kind].get(actor, _NO_COST).total for kind in ObservationKind
        }
        mean_cost = report.ledger.for_actor(actor).total
        second_moment = sum(freqs[k] * kind_cost[k] ** 2 for k in ObservationKind)
        variance = max(0.0, second_moment - mean_cost**2)
        stderr = math.sqrt(variance / total_slots)
        slack = budget - mean_cost
        checks.append(
            ConstraintAudit(
                actor=actor.value,
                budget=budget,
                mean_cost_per_slot=mean_cost,
                slack=slack,
                stderr=stderr,
                passed=slack >= -3.0 * stderr,
            )
        )
    return AuditResult(tuple(checks), all(c.passed for c in checks))


TRACE_HEADER = "slot,kind,x,y,cost_sx,cost_sy,cost_dc"


def write_trace(config: SimulationConfig, path, replication: int = 0) -> None:
    """Dump one replication's slot-by-slot stream as CSV (debugging aid).

    Because replication streams are derived from (master seed, index) and
    :func:`replay_slots` scatters the draws of ``_draw_replication``, which
    :func:`run` reads directly, the trace reproduces exactly the data that
    :func:`run` consumed for that replication.
    """
    if not 0 <= replication < config.replications:
        raise ValueError(f"replication must be in [0, {config.replications})")
    rng = replication_rng(config.master_seed, replication)
    kinds, x, y = replay_slots(config.model, config.policy, config.slots, rng)
    table = slot_costs(config.scenario)

    def fmt(v: float | None) -> str:
        return "" if v is None else f"{v:.9g}"

    lines = [TRACE_HEADER]
    for slot in range(config.slots):
        kind = _KIND_CODES[kinds[slot]]
        obs = Observation(
            kind=kind,
            x=None if math.isnan(x[slot]) else float(x[slot]),
            y=None if math.isnan(y[slot]) else float(y[slot]),
            slot=slot,
        )
        costs = [
            table[kind].get(actor, _NO_COST).total
            for actor in (Actor.SENSOR_X, Actor.SENSOR_Y, Actor.DATA_CENTER)
        ]
        lines.append(
            f"{obs.slot},{obs.kind.value},{fmt(obs.x)},{fmt(obs.y)},"
            f"{costs[0]:.9g},{costs[1]:.9g},{costs[2]:.9g}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
