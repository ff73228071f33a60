"""Time-slotted Monte Carlo engine with per-actor resource accounting.

Each slot independently draws its type from the policy (marginal-X,
marginal-Y, joint, or idle); observations are generated from the model and
each actor is charged per slot its own budget row's coefficient for the
slot's kind (idle slots are free).  Expected per-slot cost per actor
therefore is each budget row's left-hand side, which is what
:func:`audit_resources` verifies empirically.

All randomness is derived per block of :data:`REPLICATION_BLOCK`
replications from (master seed, block index): block ``b``'s replications
are drawn together from stream ``b``, in two array calls: every
replication's slot counts by kind (one multinomial draw), then four
standard normals per replication.  Reports are therefore bit-identical
across runs and across any split of whole blocks over workers.
``_draw_chunk`` alone fixes the order of the draws and turns them into
per-replication slot counts and stratum sums, the statistics every
estimator formula reads: the counts of ``slots`` independent slots are
multinomial, and a stratum's sum of ``m`` iid standard normals is
``sqrt(m)`` times one standard normal, exactly in distribution, so no slot
is drawn on its own and :func:`run` holds no per-slot array.
:func:`collect_replication` returns them for a chunk of one replication.
One slot replay, ``_replication``, serves :func:`replay_slots` (a chunk of
one) and :func:`write_trace` (block 0's chunk): it fills each stratum's
values by a Gaussian bridge, the exact law of iid normals given their sum,
from a stream :func:`run` never draws from, so every stratum of a replay
sums to the sum :func:`run` estimated from, and lays the counts out in a
uniformly random slot order from the same stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePolicy, MissingStratum
from .estimators import ESTIMATORS, EstimatorKind, _variance_at
from .fisher import SamplingPolicy, Task, _limit, crb
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
from .strategy import Actor, Scenario, _load, constraints_for


#: Most slots per replication.  :func:`run` holds no per-slot array, so its
#: memory does not grow with the slots; the replays do.  A replay of one
#: replication's slots (``replay_slots``, ``write_trace``) peaks at 40 bytes
#: a slot in ``tracemalloc`` when every slot is joint, 0.4 GB here, where far
#: more would fail to allocate.
_MAX_SLOTS = 10**7
#: Most replications per run: :func:`run` keeps each block's moments, so its
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
_ACTORS = tuple(Actor)
_STRATA = np.array([0, 1, 2, 2])  # the kind of each stratum's slots
#: Slots per slab that :func:`write_trace` formats and writes at a time.
_TRACE_SLAB = 2**14


def _kind_probabilities(policy: SamplingPolicy) -> list[float]:
    """Probabilities of a marginal-X, a marginal-Y, a joint and an idle slot.

    The law of a slot whose uniform draw u takes the first kind whose edge,
    a cumulative sum of the policy, exceeds u (idle past the last): the
    differences of the edges clipped to 1.  A policy's components are at
    least 0, so the edges ascend, and a sum its simplex row admits just
    above 1 leaves idle slots none: every probability is at least 0 and the
    first three sum to at most 1, as ``Generator.multinomial`` requires.
    """
    edges = [min(e, 1.0) for e in itertools.accumulate(policy.as_tuple())]
    return [high - low for low, high in zip([0.0, *edges], [*edges, 1.0])]


def _draw_chunk(model: ObservationModel, probabilities, slots: int, n: int, rng):
    """The draw order of ``n`` consecutive replications, the only place
    that defines it.

    Draws every replication's slot counts by kind in one multinomial call
    (``slots`` trials of :func:`_kind_probabilities`).  Then draws one
    ``(4, n)`` block of standard normals, rows marginal X, marginal Y,
    joint z1 and joint z2: a row times the square root of its stratum's
    count is that stratum's sum of iid standard normals, exactly in
    distribution.  The value maps of :func:`marginal_from_normals` and
    :func:`joint_from_normals` turn these sums into the stratum sums.

    Returns ``(counts, z, sums)``: per replication (columns) the rows of
    slot counts by kind (indexing :data:`_KIND_CODES`), the ``(4, n)``
    normals, and the rows of the sums of the strata ``(marginal_x,
    marginal_y, joint_x, joint_y)``, the statistics every estimator formula
    reads.
    """
    counts = rng.multinomial(slots, probabilities, size=n).T
    z = rng.standard_normal((4, n))
    strata = counts[_STRATA]  # each stratum's count
    z_sums = np.sqrt(strata) * z
    # the joint Y column: rho S1 + sqrt(1 - rho^2) S2 of the whitened sums
    z_sums[3] = model.rho * z_sums[2] + math.sqrt(1.0 - model.rho * model.rho) * z_sums[3]
    loc, scale = model.strata_columns
    return counts, z, loc * strata + scale * z_sums


def _strata(model: ObservationModel, counts, z, bridge):
    """One replication's strata ``(marginal_x, marginal_y, joint_x,
    joint_y)`` from its slot counts by kind and its column ``z`` of
    ``_draw_chunk``'s normals.

    In a stratum of ``m`` slots, whose whitened sum is ``S = sqrt(m) z``,
    the whitened values are the Gaussian bridge ``w - mean(w) + S / m`` of
    ``m`` iid standard normals ``w`` drawn from ``bridge``: given their sum
    ``S``, iid standard normals have exactly this law.  A joint pair
    bridges each whitened column (z1, z2) and then takes
    :func:`joint_from_normals`.
    """
    sizes = [counts[k] for k in _STRATA]
    w = np.split(bridge.standard_normal(sum(sizes)), np.cumsum(sizes[:3]))
    for w_k, m, z_k in zip(w, sizes, z.tolist()):
        if m:  # in place: no copy of the stratum
            w_k -= w_k.mean()
            w_k += math.sqrt(m) * z_k / m
    z1x, z1y, z1, z2 = w
    return (
        marginal_from_normals(model, Axis.X, z1x),
        marginal_from_normals(model, Axis.Y, z1y),
        *joint_from_normals(model, z1, z2),
    )


def _replication(model: ObservationModel, policy: SamplingPolicy, slots: int, rng, n: int = 1):
    """The first replication of a chunk of ``n`` drawn from ``rng``, slot by
    slot: ``(kinds, x, y)``, an int array of kind codes indexing
    :data:`_KIND_CODES` in a uniformly random slot order and per-slot
    coordinate values, each stratum's bridged values (:func:`_strata`) in
    the slots of its kind, NaN where a coordinate was not observed.  ``rng``
    advances as by the chunk; the bridge stream that lays out the values and
    the order is ``rng`` jumped far ahead, past anything :func:`run` draws
    from it."""
    counts, z, _ = _draw_chunk(model, _kind_probabilities(policy), slots, n, rng)
    counts, bridge = counts[:, 0].tolist(), np.random.Generator(rng.bit_generator.jumped())
    strata = _strata(model, counts, z[:, 0], bridge)
    kinds = np.repeat(np.arange(4, dtype=np.int8), counts)
    bridge.shuffle(kinds)
    x, y = np.full((2, slots), math.nan)
    x[kinds == 0], y[kinds == 1] = strata[:2]
    joint = kinds == 2
    x[joint], y[joint] = strata[2:]
    return kinds, x, y


def replay_slots(
    model: ObservationModel,
    policy: SamplingPolicy,
    slots: int,
    rng: np.random.Generator,
):
    """Generate one replication's slot stream in slot order: a chunk of one.

    Returns ``(kinds, x, y)``: an int array of codes indexing
    ``(marginal_x, marginal_y, joint, idle)`` and per-slot coordinate values
    (NaN where the coordinate was not observed).  The counts by kind and
    the stratum sums are :func:`collect_replication`'s and ``rng`` advances
    as by it; the values are the Gaussian bridge of each stratum's sum
    (``_strata``), and the kinds lie in a uniformly random slot order.
    """
    return _replication(model, policy, slots, rng)


def collect_replication(
    model: ObservationModel,
    policy: SamplingPolicy,
    slots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one replication, a chunk of one: ``(counts, sums)``, its slot
    counts by kind (indexing :data:`_KIND_CODES`) and its stratum sums
    ``(marginal_x, marginal_y, joint_x, joint_y)``, the statistics every
    estimator takes; ``rng`` advances as by the chunk.  :func:`run` draws
    block ``b``'s replications together from stream ``b``, so these are one
    of its replications only where a block is one replication."""
    counts, _, sums = _draw_chunk(model, _kind_probabilities(policy), slots, 1, rng)
    return counts[:, 0], sums[:, 0]


def default_estimator(scenario: Scenario, policy: SamplingPolicy) -> EstimatorKind:
    """The natural estimator for a scenario/policy combination.

    Task t1 (correlation known) takes the first of ``delta1``, which blends
    both strata, and the joint-only ``delta2`` whose strata the policy
    samples, else the plain mean.  Tasks t2 and t3 default to sample means:
    t2's learner cannot use the correlation it does not know.  For t3 they
    attain the bound only where the other coordinate cannot help: at rho =
    0, without joint slots or without stand-alone slots of the other
    coordinate; elsewhere their variance exceeds it.
    """
    kinds = (EstimatorKind.DELTA1, EstimatorKind.DELTA2) if scenario.task is Task.T1 else ()
    usable = (k for k in kinds if ESTIMATORS[k, scenario.target][1](*policy.as_tuple()))
    return next(usable, EstimatorKind.SAMPLE_MEAN)


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


def _finite(values):
    """``values`` as they are, once every one is finite."""
    if not np.isfinite(values).all():
        bad = values.flat[np.flatnonzero(~np.isfinite(values))[0]]
        raise ValueError(f"estimate must be finite, got {bad}")
    return values


def run(config: SimulationConfig) -> SimulationReport:
    """Simulate, estimate, and aggregate across replications.

    Replications whose data lacks a stratum the estimator requires are
    excluded from the aggregates and counted in
    ``replications_excluded`` (substituting a different estimator there
    would corrupt the variance comparison).  With fewer than two usable
    replications the empirical variance is NaN.

    Block ``b`` of :data:`REPLICATION_BLOCK` replications is drawn from
    stream :func:`replication_rng` ``(master_seed, b)`` in two array calls
    (``_draw_chunk``), and one estimator formula runs on its counts and
    sums.  The run keeps each block's count, mean and sum of squared
    deviations and combines them in replication order, so its memory grows
    neither with the number of replications nor with the slots.  Its check
    and ledger read the one system the scenario keeps and its charged rows
    (:func:`constraints_for`), as its audit and trace do.

    Raises:
        InfeasiblePolicy: the policy violates the scenario's constraints.
        MissingStratum: every replication was excluded.
        ValueError: an estimate is not finite.
    """
    cons = constraints_for(config.scenario)
    violated = cons.violations(config.policy)
    if violated:
        raise InfeasiblePolicy(f"policy violates constraints: {violated}")

    probabilities = _kind_probabilities(config.policy)
    # read once: each lookup hashes two Enums in Python
    estimator = ESTIMATORS[config.estimator, config.scenario.target]
    for first in range(0, config.replications, REPLICATION_BLOCK):
        rng = replication_rng(config.master_seed, first // REPLICATION_BLOCK)
        n = min(REPLICATION_BLOCK, config.replications - first)
        counts, _, sums = _draw_chunk(config.model, probabilities, config.slots, n, rng)
        estimates, usable = estimator[0](counts, sums, config.model)
        block = counts.sum(axis=1), _moments(_finite(estimates[usable]))
        # the first block starts the fold and each later one joins it in order
        counted, moments = (counted + block[0], _combine(moments, block[1])) if first else block
    used, mean_estimate, squares = moments
    counted = counted.tolist()

    if not used:
        raise MissingStratum(
            f"all {config.replications} replications lacked a required stratum"
        )
    variance_per_slot = config.slots * squares / (used - 1) if used >= 2 else math.nan

    cost_per_slot = dict.fromkeys(_ACTORS, 0.0)
    total_slots = config.slots * config.replications
    for actor, row in cons.charged.items():
        cost_per_slot[actor] = _load(row.coeffs, *counted[:3]) / total_slots

    return SimulationReport(
        mean_estimate=mean_estimate,
        empirical_variance_per_slot=variance_per_slot,
        analytic_crb=crb(
            config.scenario.task, config.scenario.target, config.policy, config.model
        ),
        analytic_estimator_variance=_variance_at(estimator, config.policy, config.model),
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


def audit_resources(report: SimulationReport, scenario: Scenario) -> AuditResult:
    """Check each actor's average per-slot spending against its budget row.

    A check passes when ``slack = budget - mean_cost`` is no worse than
    minus three standard errors of the slot-type mixture (budgets constrain
    expectations, so sampling noise must be tolerated, not violations), less
    the rounding that the one feasibility rule (``fisher._limit``) allows
    a row: ``mean_cost - 3 stderr <= budget + 1e-9 (|budget| + mean_cost)``.
    With row coefficients ``c`` and the policy's kind probabilities ``p``,
    the per-slot cost variance is ``c^2.p - (c.p)^2``; ``p`` is known by
    design, so a kind that never occurred in the run still counts.
    Failures are results, not exceptions.
    """
    policy, slots = report.policy.as_tuple(), sum(report.slot_counts.values())
    checks = []
    for actor, row in constraints_for(scenario).charged.items():
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


def write_trace(config: SimulationConfig, path) -> None:
    """Dump replication 0's slot-by-slot stream as CSV (debugging aid).

    Draws block 0 as :func:`run` does and replays its first replication, a
    chunk of ``min(REPLICATION_BLOCK, replications)`` where
    :func:`replay_slots` replays a chunk of one: its counts in a uniformly
    random slot order, its values the Gaussian bridge of its stratum sums
    (``_strata``), so each stratum of the trace sums to the sum that
    :func:`run` estimated from.  Rows are formatted and written
    :data:`_TRACE_SLAB` slots at a time.
    """
    rng, n = replication_rng(config.master_seed, 0), min(REPLICATION_BLOCK, config.replications)
    kinds, x, y = _replication(config.model, config.policy, config.slots, rng, n)
    charged = constraints_for(config.scenario).charged
    prices = [(*charged[a].coeffs, 0.0) if a in charged else (0.0,) * 4 for a in Actor]
    costs = [",".join(f"{price[code]:.9g}" for price in prices) for code in range(4)]
    names = [kind.value for kind in _KIND_CODES]

    def fmt(v: float) -> str:
        return "" if math.isnan(v) else f"{v:.9g}"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for start in range(0, config.slots, _TRACE_SLAB):
            slab = (v[start : start + _TRACE_SLAB].tolist() for v in (kinds, x, y))
            fh.write("".join(
                f"{slot},{names[code]},{fmt(vx)},{fmt(vy)},{costs[code]}\n"
                for slot, code, vx, vy in zip(itertools.count(start), *slab)
            ))
