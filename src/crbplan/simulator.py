"""Time-slotted Monte Carlo engine with per-actor resource accounting.

Each slot independently draws its type from the policy (marginal-X,
marginal-Y, joint, or idle); observations are generated from the model and
each actor is charged per slot its own budget row's coefficient for the
slot's kind (idle slots are free).  Expected per-slot cost per actor
therefore is each budget row's left-hand side, which is what
:func:`audit_resources` verifies empirically.

All randomness is derived per block of :data:`REPLICATION_BLOCK`
replications from (master seed, block index): block ``b`` is drawn from
stream ``b`` in chunks of ``max(1, min(1024, 2**16 // slots))``
replications that tile the block from its start, each chunk in a few array
calls.  Reports are therefore bit-identical across runs and across any
split of whole blocks over workers.  ``_draw_chunk`` alone fixes the order
of a chunk's draws and reduces them to per-replication slot counts and
stratum sums, the statistics every estimator formula reads; :func:`run`
estimates from those, :func:`collect_replication` and :func:`replay_slots`
are a chunk of one, and :func:`write_trace` replays the chunk that holds
the traced replication, so it shows exactly the data :func:`run` consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePolicy, MissingStratum
from .estimators import (
    EstimatorKind,
    _finite,
    delta1_of_sums,
    delta2_of_sums,
    sample_mean_x_of_sums,
    sample_mean_y_of_sums,
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


#: Most slots per replication: past 2**16 slots a chunk is one replication,
#: whose draws (uniforms, kind codes, normals) peak at 48 bytes a slot in
#: ``tracemalloc`` when every slot is joint, 0.5 GB here, where far more
#: would fail to allocate.
_MAX_SLOTS = 10**7
#: Most replications per run: :func:`run` keeps each chunk's moments, so its
#: memory does not grow with replications (``tracemalloc``: 0.27 MB at 10^4
#: and at 10^6 one-slot replications); the cap bounds the run time, about
#: 2 s for 10^7 one-slot replications.
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
        if self.scenario.task is Task.T3 and self.estimator is not EstimatorKind.SAMPLE_MEAN:
            raise ValueError(
                f"estimator {self.estimator.value} takes the X mean as known, "
                "which task t3 estimates: use sample_mean"
            )


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


def _block_chunks(block: int, replications: int, slots: int):
    """``(start, stop)`` of each chunk of block ``block``: chunks of
    ``max(1, min(REPLICATION_BLOCK, 2**16 // slots))`` replications, about
    2**16 slots, tile the block from its start; the run's end cuts the last."""
    size = max(1, min(REPLICATION_BLOCK, 2**16 // slots))
    first = block * REPLICATION_BLOCK
    stop = min(replications, first + REPLICATION_BLOCK)
    return [(start, min(stop, start + size)) for start in range(first, stop, size)]


def _draw_chunk(model: ObservationModel, edges: np.ndarray, slots: int, n: int, rng):
    """The draw order of ``n`` consecutive replications, the only place
    that defines it.

    Draws every slot's uniform in one call, replication after replication,
    and gives each slot the kind of the first edge above its uniform (idle
    past the last).  Then draws one block of standard normals: z1 of every
    non-idle slot in slot order, then z2 of every joint slot.  A marginal
    slot's value is :func:`marginal_from_normals` of its z1, a joint pair
    :func:`joint_from_normals` of its z1 and z2.

    Returns ``(code, z, counts, sums)``: per slot ``4 * replication + kind``
    (the kind indexing :data:`_KIND_CODES`), the normals, and per
    replication (columns) the rows of slot counts by kind and of the sums
    of the strata ``(marginal_x, marginal_y, joint_x, joint_y)``, the
    statistics every estimator formula reads.  The sums are the value maps
    applied to each stratum's sum of normals.
    """
    u = rng.random(n * slots)
    code = np.repeat(np.arange(0, 4 * n, 4), slots)
    code += sum((u >= edge).view(np.int8) for edge in edges.tolist())
    counts = np.bincount(code, minlength=4 * n).reshape(n, 4).T
    seen = code[u < edges[2]]
    z = rng.standard_normal(seen.size + int(counts[2].sum()))
    z_sums = np.bincount(seen, weights=z[: seen.size], minlength=4 * n).reshape(n, 4).T
    # the joint slots come replication by replication, counts[2] of each;
    # the idle row of z_sums, all 0, takes their Y normals rho z1 + tail z2
    z2_sums = np.bincount(np.repeat(np.arange(n), counts[2]), weights=z[seen.size :], minlength=n)
    z_sums[3] = model.rho * z_sums[2] + math.sqrt(1.0 - model.rho * model.rho) * z2_sums
    loc = np.array([[model.mu_x], [model.mu_y], [model.mu_x], [model.mu_y]])
    scale = np.array([[model.sigma_x], [model.sigma_y], [model.sigma_x], [model.sigma_y]])
    sums = loc * counts[[0, 1, 2, 2]] + scale * z_sums
    return code, z, counts, sums


def _slot_values(model: ObservationModel, code: np.ndarray, z: np.ndarray):
    """``(kinds, x, y)`` per slot of a chunk's draws, in slot order: the
    kind codes and the coordinate values, NaN where not observed."""
    kinds = code & 3
    seen = kinds < 3
    z1 = np.full(kinds.size, math.nan)
    z1[seen] = z[: np.count_nonzero(seen)]
    x, y = np.full((2, kinds.size), math.nan)
    x[kinds == 0] = marginal_from_normals(model, Axis.X, z1[kinds == 0])
    y[kinds == 1] = marginal_from_normals(model, Axis.Y, z1[kinds == 1])
    joint = kinds == 2
    x[joint], y[joint] = joint_from_normals(model, z1[joint], z[seen.sum() :])
    return kinds, x, y


def replay_slots(
    model: ObservationModel,
    policy: SamplingPolicy,
    slots: int,
    rng: np.random.Generator,
):
    """Generate one replication's slot stream in slot order.

    Returns ``(kinds, x, y)``: an int array of codes indexing
    ``(marginal_x, marginal_y, joint, idle)`` and per-slot coordinate values
    (NaN where the coordinate was not observed).  The draws are those of a
    chunk of one replication, scattered back to their slots.
    """
    code, z, _, _ = _draw_chunk(model, _slot_edges(policy), slots, 1, rng)
    kinds, x, y = _slot_values(model, code, z)
    return kinds.astype(np.int8), x, y


def collect_replication(
    model: ObservationModel,
    policy: SamplingPolicy,
    slots: int,
    rng: np.random.Generator,
) -> tuple[tuple[np.ndarray, ...], dict[str, int]]:
    """Run one replication, a chunk of one: ``(strata, counts)``, the arrays
    ``(marginal_x, marginal_y, joint_x, joint_y)`` every estimator takes and
    the slot count of each kind by name.  :func:`run` draws block ``b`` from
    stream ``b`` in chunks of ``max(1, min(1024, 2**16 // slots))``
    replications, so these are the draws of one of its replications only
    where a chunk is one replication."""
    code, z, counts, _ = _draw_chunk(model, _slot_edges(policy), slots, 1, rng)
    seen = code[code < 3]  # the kinds of the slots that drew z1, in slot order
    z1 = z[: seen.size]
    strata = (
        marginal_from_normals(model, Axis.X, z1[seen == 0]),
        marginal_from_normals(model, Axis.Y, z1[seen == 1]),
        *joint_from_normals(model, z1[seen == 2], z[seen.size :]),
    )
    return strata, {kind.value: int(n) for kind, n in zip(_KIND_CODES, counts[:, 0])}


def default_estimator(scenario: Scenario, policy: SamplingPolicy) -> EstimatorKind:
    """The natural estimator for a scenario/policy combination.

    Task t1 (correlation known) blends both strata when both are sampled,
    falls back to the joint-only adjustment, then to the plain mean.  Tasks
    t2 and t3 default to sample means: t2's learner cannot use the
    correlation it does not know.  For t3 they attain the bound only where
    the other coordinate cannot help: at rho = 0, without joint slots or
    without stand-alone slots of the other coordinate; elsewhere their
    variance exceeds it.
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
            return var_delta1(policy, model) / (policy.p_y + policy.p_xy)  # per slot
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


def _formula(config: SimulationConfig):
    """The estimator formula on counts and sums that ``config`` names."""
    if config.estimator is EstimatorKind.SAMPLE_MEAN:
        if config.scenario.target is Target.MU_X:
            return sample_mean_x_of_sums
        return sample_mean_y_of_sums
    return delta1_of_sums if config.estimator is EstimatorKind.DELTA1 else delta2_of_sums


def _chunk_estimates(config: SimulationConfig):
    """``(counts, estimates, usable)`` of each chunk of the run, in
    replication order: block ``b`` is drawn from stream ``b`` in the chunks
    of :func:`_block_chunks`, and the formula estimates every replication of
    a chunk at once."""
    edges, formula = _slot_edges(config.policy), _formula(config)
    for block in range((config.replications + REPLICATION_BLOCK - 1) // REPLICATION_BLOCK):
        rng = replication_rng(config.master_seed, block)
        for start, stop in _block_chunks(block, config.replications, config.slots):
            # keep no slot-level array: the next chunk's draws peak alone
            counts, sums = _draw_chunk(config.model, edges, config.slots, stop - start, rng)[2:]
            yield (counts, *formula(counts, sums, config.model))


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """Count, mean and sum of squared deviations of ``values``."""
    if values.size == 0:
        return 0, 0.0, 0.0
    mean = values.sum() / values.size
    # numpy's pairwise sum, not a BLAS dot, whose order may vary by machine
    return values.size, float(mean), float(np.square(values - mean).sum())


def _combine(a, b):
    """The moments of two consecutive groups from each group's: the pairwise
    update of Chan, Golub and LeVeque."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    if n_a == 0 or n_b == 0:
        return b if n_a == 0 else a
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


def run(config: SimulationConfig) -> SimulationReport:
    """Simulate, estimate, and aggregate across replications.

    Replications whose data lacks a stratum the estimator requires are
    excluded from the aggregates and counted in
    ``replications_excluded`` (substituting a different estimator there
    would corrupt the variance comparison).  With fewer than two usable
    replications the empirical variance is NaN.

    Block ``b`` of :data:`REPLICATION_BLOCK` replications is drawn from
    stream :func:`replication_rng` ``(master_seed, b)`` in chunks of
    ``max(1, min(1024, 2**16 // slots))`` replications; each chunk is a few
    array calls (``_draw_chunk``) and one estimator formula on its counts
    and sums.  The run keeps each chunk's count, mean and sum of squared
    deviations and combines them in replication order, so its memory does
    not grow with the number of replications.

    Raises:
        InfeasiblePolicy: the policy violates the scenario's constraints.
        MissingStratum: every replication was excluded.
        ValueError: an estimate is not finite.
    """
    cons = constraints_for(config.scenario)
    violated = cons.violations(config.policy)
    if violated:
        raise InfeasiblePolicy(f"policy violates constraints: {violated}")

    counted = np.zeros(4, np.int64)
    moments = (0, 0.0, 0.0)
    for counts, estimates, usable in _chunk_estimates(config):
        counted += counts.sum(axis=1)
        moments = _combine(moments, _moments(_finite(estimates[usable])))
    used, mean_estimate, squares = moments
    counted = counted.tolist()

    if not used:
        raise MissingStratum(
            f"all {config.replications} replications lacked a required stratum"
        )
    variance_per_slot = config.slots * squares / (used - 1) if used >= 2 else math.nan

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
        slot_counts={kind.value: n for kind, n in zip(_KIND_CODES, counted)},
        replications_used=used,
        replications_excluded=config.replications - used,
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

    Opens the replication's block stream, draws the chunks of the block up
    to the one that holds the replication, as :func:`run` does, and scatters
    that chunk's draws back to their slots, so the trace reproduces exactly
    the data that :func:`run` consumed for that replication.
    """
    if not 0 <= replication < config.replications:
        raise ValueError(f"replication must be in [0, {config.replications})")
    block = replication // REPLICATION_BLOCK
    rng = replication_rng(config.master_seed, block)
    edges = _slot_edges(config.policy)
    for start, stop in _block_chunks(block, config.replications, config.slots):
        drawn, z, _, _ = _draw_chunk(config.model, edges, config.slots, stop - start, rng)
        if replication < stop:
            break
    mine = slice((replication - start) * config.slots, (replication - start + 1) * config.slots)
    kinds, x, y = (values[mine].tolist() for values in _slot_values(config.model, drawn, z))
    charged = _charged(constraints_for(config.scenario))
    prices = [(*charged[a].coeffs, 0.0) if a in charged else (0.0,) * 4 for a in Actor]
    costs = [",".join(f"{price[code]:.9g}" for price in prices) for code in range(4)]

    def fmt(v: float) -> str:
        return "" if math.isnan(v) else f"{v:.9g}"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for slot, (code, vx, vy) in enumerate(zip(kinds, x, y)):
            fh.write(f"{slot},{_KIND_CODES[code].value},{fmt(vx)},{fmt(vy)},{costs[code]}\n")
