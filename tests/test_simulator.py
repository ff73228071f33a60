import math
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from crbplan import (
    Actor,
    Axis,
    EstimatorKind,
    InfeasiblePolicy,
    MissingStratum,
    ObservationKind,
    ResourceBudget,
    SamplingPolicy,
    Scenario,
    Setting,
    SimulationConfig,
    SimulationReport,
    Target,
    Task,
    audit_resources,
    collect_replication,
    constraints_for,
    crb,
    default_estimator,
    delta1,
    delta2,
    plan_t1_closed_form,
    replication_rng,
    run,
    sample_joint,
    sample_marginal,
    sample_mean_x,
    sample_mean_y,
    validate,
    write_trace,
)
from crbplan import simulator, strategy
from crbplan.model import REPLICATION_BLOCK
from crbplan.estimators import ESTIMATORS, analytic_variance
from crbplan.simulator import (
    _MAX_REPS,
    _MAX_SLOTS,
    _combine,
    _draw_chunk,
    _kind_probabilities,
    _moments,
    _strata,
    replay_slots,
)
from crbplan.strategy import COST_TABLE, _family, _load


def model(rho=0.5, mu_x=0.0, mu_y=0.0):
    return validate((mu_x, mu_y, 1.0, 1.0, rho))


def t1_config(policy, rho=0.5, slots=1000, reps=2000, seed=7, estimator=None, e1=2.0):
    scenario = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, e1))
    m = model(rho)
    est = estimator or default_estimator(scenario, policy)
    return SimulationConfig(scenario, m, policy, est, slots, reps, seed)


def _block_estimates(config):
    """``(counts, estimates, usable)`` of each block of ``run``, in
    replication order: block ``b``'s chunk drawn from stream ``b`` and the
    estimator's formula on it."""
    probabilities = _kind_probabilities(config.policy)
    formula = ESTIMATORS[config.estimator, config.scenario.target][0]
    for first in range(0, config.replications, REPLICATION_BLOCK):
        rng = replication_rng(config.master_seed, first // REPLICATION_BLOCK)
        n = min(REPLICATION_BLOCK, config.replications - first)
        counts, _, sums = _draw_chunk(config.model, probabilities, config.slots, n, rng)
        yield (counts, *formula(counts, sums, config.model))


# --- determinism and replication independence ---


def test_run_is_bit_identical_for_same_seed():
    cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=200, reps=200)
    a = run(cfg)
    b = run(cfg)
    assert a == b
    assert a.as_record() == b.as_record()


def test_run_changes_with_seed():
    a = run(t1_config(SamplingPolicy(0, 0.5, 0.5), slots=200, reps=200, seed=1))
    b = run(t1_config(SamplingPolicy(0, 0.5, 0.5), slots=200, reps=200, seed=2))
    assert a.mean_estimate != b.mean_estimate


def test_replication_streams_worker_independent():
    # each block's moments, drawn with the chunk helper block by block "on
    # three workers" in reversed order and combined in replication order,
    # reproduce run()'s aggregate bit for bit; the last block is cut to 5
    for slots in (30, 1000):
        reps = 2 * REPLICATION_BLOCK + 5
        cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=slots, reps=reps)
        report = run(cfg)
        probabilities = _kind_probabilities(cfg.policy)
        moments = {}
        for block in reversed(range(3)):  # the last worker first
            rng = replication_rng(cfg.master_seed, block)
            n = min(REPLICATION_BLOCK, reps - block * REPLICATION_BLOCK)
            counts, _, sums = _draw_chunk(cfg.model, probabilities, slots, n, rng)
            values, usable = delta1(counts, sums, cfg.model)
            moments[block] = _moments(values[usable])
        used, mean, squares = reduce(_combine, [moments[b] for b in sorted(moments)])
        assert used == report.replications_used == reps
        assert mean == report.mean_estimate
        assert slots * squares / (used - 1) == report.empirical_variance_per_slot


def test_collect_replication_is_a_chunk_of_one():
    # a block of one replication is a chunk of one: collect_replication,
    # drawn from that block's stream, is the chunk's first column bit for
    # bit and gives run's replication, whose estimate the public estimator
    # reproduces exactly; replay_slots lays out the same counts
    for reps in (1, REPLICATION_BLOCK + 1):
        cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=200, reps=reps)
        *_, (_, estimate, usable) = _block_estimates(cfg)
        block = (reps - 1) // REPLICATION_BLOCK
        rng, replay, ref = (replication_rng(cfg.master_seed, block) for _ in range(3))
        counts, sums = collect_replication(cfg.model, cfg.policy, cfg.slots, rng)
        want_counts, _, want_sums = _draw_chunk(
            cfg.model, _kind_probabilities(cfg.policy), cfg.slots, 1, ref
        )
        assert counts.tolist() == want_counts[:, 0].tolist()
        assert sums.tolist() == want_sums[:, 0].tolist()
        kinds = replay_slots(cfg.model, cfg.policy, cfg.slots, replay)[0]
        assert np.bincount(kinds, minlength=4).tolist() == counts.tolist()
        assert usable.tolist() == [True]
        value, seen = delta1(counts, sums, cfg.model)
        assert seen and value == estimate[0]
        if reps == 1:
            assert run(cfg).mean_estimate == value


# --- the block engine: its estimates, and its counts against slot uniforms ---


def _array_estimates(config):
    """``(estimates, totals)``: each replication's estimate from the public
    estimators on its counts and the sums of strata bridged from the
    engine's own draw (``_draw_chunk`` on each block's stream; NaN where a
    stratum is missing) and the slot count of each kind.  The bridge's
    ``w`` come from a generator of the test's own: a stratum's sum does not
    depend on them."""
    estimator = {EstimatorKind.DELTA1: delta1, EstimatorKind.DELTA2: delta2}.get(
        config.estimator, sample_mean_x if config.scenario.target is Target.MU_X else sample_mean_y
    )
    probabilities, bridge = _kind_probabilities(config.policy), np.random.default_rng(5)
    totals, estimates = np.zeros(4, np.int64), []
    for first in range(0, config.replications, REPLICATION_BLOCK):
        rng = replication_rng(config.master_seed, first // REPLICATION_BLOCK)
        n = min(REPLICATION_BLOCK, config.replications - first)
        counts, z, _ = _draw_chunk(config.model, probabilities, config.slots, n, rng)
        totals += counts.sum(axis=1)
        for column in range(n):
            strata = _strata(config.model, counts[:, column].tolist(), z[:, column], bridge)
            sums = [stratum.sum() for stratum in strata]
            value, usable = estimator(counts[:, column], sums, config.model)
            estimates.append(value if usable else math.nan)
    return np.array(estimates), dict(zip((k.value for k in ObservationKind), totals.tolist()))


def _cost_per_slot(config, totals):
    """Each actor's cost per slot, every slot priced straight from the cost
    table, obs + alpha (tx + rx), summed over the paid kinds in _load's order."""
    alpha, (n_x, n_y, n_xy) = config.scenario.budget.alpha, list(totals.values())[:3]
    cost_per_slot = dict.fromkeys(Actor, 0.0)
    for actor, counts in COST_TABLE[_family(config.scenario)].items():
        c_x, c_y, c_xy = (obs + alpha * (tx + rx) for obs, tx, rx in counts)
        total = c_x * n_x + c_y * n_y + c_xy * n_xy
        cost_per_slot[actor] = total / (config.slots * config.replications)
    return cost_per_slot


def _scale(config):
    """|mu| + sigma of the coordinate the configuration estimates."""
    m = config.model
    if config.estimator is EstimatorKind.SAMPLE_MEAN and config.scenario.target is Target.MU_X:
        return abs(m.mu_x) + m.sigma_x
    return abs(m.mu_y) + m.sigma_y


def _identity_configs(count=84):
    """Seeded configurations over every accepted estimator, target, task and
    setting, with slots from 1 to 1000 and zero strata that exclude
    replications; t3 takes sample means only, t1 and t2 the Y target only."""
    rng = np.random.default_rng(20261018)
    kinds = list(EstimatorKind)
    configs = []
    for i in range(count):
        task = (Task.T1, Task.T2, Task.T3)[i % 3]
        setting = (Setting.DECENTRALIZED, Setting.CENTRALIZED)[(i // 3) % 2]
        estimator = kinds[(i // 6) % 3] if task is not Task.T3 else EstimatorKind.SAMPLE_MEAN
        target = (Target.MU_X, Target.MU_Y)[(i // 18) % 2] if task is Task.T3 else None
        p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])[:3]
        if setting is Setting.DECENTRALIZED and task is not Task.T3:
            p[0] = 0.0  # the t1/t2 learner never samples X alone
        if i % 4 == 0:
            p[rng.integers(3)] = 0.0
        if i % 8 == 1:
            p[1] = 0.02  # rare stand-alone Y: many delta1 exclusions
        alpha = float(rng.uniform(0.0, 3.0))
        e2 = math.inf if setting is Setting.CENTRALIZED else None
        scenario = Scenario(task, setting, ResourceBudget(alpha, math.inf, e2), target)
        m = validate((rng.normal(0, 3), rng.normal(0, 3), rng.uniform(0.2, 4),
                      rng.uniform(0.2, 4), rng.uniform(-0.95, 0.95)))
        slots = (1, 5, 37, 100, 1000)[i % 5]
        configs.append(SimulationConfig(
            scenario, m, SamplingPolicy(*p), estimator, slots, 20, int(rng.integers(2**32))
        ))
    # master seeds of two, three and four SeedSequence words; the CLI's
    # fresh seeds are 63-bit
    for index, seed in zip((3, 10, 17, 29), (2**40 + 3, 2**63 - 25, 2**64 + 7, 2**100 + 5)):
        configs.append(replace(configs[index], master_seed=seed))
    # replications on both sides of the first block boundary
    configs.append(replace(configs[7], slots=5, replications=REPLICATION_BLOCK + 3))
    # 1000 slots over two blocks, the second cut to 70 or to one
    # replication; delta1 with rare stand-alone Y, and t3
    configs.append(replace(configs[9], slots=1000, replications=REPLICATION_BLOCK + 70))
    configs.append(replace(configs[2], slots=1000, replications=REPLICATION_BLOCK + 1))
    # every replication lacks stand-alone Y observations
    configs.append(t1_config(SamplingPolicy(0, 0.0, 0.6), slots=37, reps=9, seed=3,
                             estimator=EstimatorKind.DELTA1))
    return configs


def test_run_estimates_what_the_array_estimators_give_on_its_strata():
    # the estimator formulas on the block's counts and sums against the
    # same estimators on the sums of strata bridged from the same draw:
    # exclusions, ledger and replications used bit for bit, each
    # replication's estimate and the aggregates within rounding
    outcomes = {"report": 0, "excluded": 0, "all_excluded": 0}
    for index, cfg in enumerate(_identity_configs()):
        want, totals = _array_estimates(cfg)
        usable = ~np.isnan(want)
        tol = 1e-12 * _scale(cfg)
        got = np.concatenate([values for _, values, _ in _block_estimates(cfg)])
        mask = np.concatenate([usable for _, _, usable in _block_estimates(cfg)])
        assert (mask == usable).all(), index
        assert np.abs(got[mask] - want[usable]).max(initial=0.0) <= tol, index
        if not usable.any():
            with pytest.raises(MissingStratum, match=(
                f"^all {cfg.replications} replications lacked a required stratum$"
            )):
                run(cfg)
            outcomes["all_excluded"] += 1
            continue
        report = run(cfg)
        assert report.slot_counts == totals, index
        assert report.cost_per_slot == _cost_per_slot(cfg, totals), index
        assert report.replications_used == int(usable.sum()), index
        assert report.replications_excluded == cfg.replications - int(usable.sum()), index
        assert abs(report.mean_estimate - want[usable].mean()) <= tol, index
        if usable.sum() >= 2:
            variance = cfg.slots * want[usable].var(ddof=1)
            assert report.empirical_variance_per_slot == pytest.approx(variance, rel=1e-9), index
        else:
            assert math.isnan(report.empirical_variance_per_slot), index
        outcomes["report"] += 1
        outcomes["excluded"] += report.replications_excluded > 0
    assert outcomes["report"] >= 60, outcomes
    assert outcomes["excluded"] >= 5 and outcomes["all_excluded"] >= 1, outcomes


def _slot_uniform_counts(config):
    """Each replication's slot counts by kind (rows) as the slot-level
    engine drew them: every slot a uniform of its own, replication after
    replication in each block's stream, taking the kind of the first edge
    of the policy's cumulative sum above it (idle past the last)."""
    edges = np.cumsum(np.maximum(config.policy.as_tuple(), 0.0))
    rows = []
    for first in range(0, config.replications, REPLICATION_BLOCK):
        rng = replication_rng(config.master_seed, first // REPLICATION_BLOCK)
        n = min(REPLICATION_BLOCK, config.replications - first)
        u = rng.random((n, config.slots))
        kinds = (u[..., None] >= edges).sum(axis=-1)
        rows.append(np.stack([(kinds == code).sum(axis=1) for code in range(4)], axis=1))
    return np.concatenate(rows)


def test_counts_match_slot_uniforms_in_distribution():
    # the multinomial counts and slot uniforms are two samples of one law.
    # Over the identity configurations, each kind's share of all slots
    # agrees within 4 standard errors of the difference of two shares,
    # sqrt(2 p (1 - p) / N) for N slots.  Where a configuration has 1000
    # replications or more, each kind's per-replication count variance,
    # slots p (1 - p), agrees within 4 standard errors of the difference of
    # two sample variances (each ~ sqrt(2 / (R - 1)) of the variance, as
    # for normal counts, which 5 or more slots approach).  A kind of
    # probability 0 never occurs in either
    checked = {"share": 0, "variance": 0}
    for index, cfg in enumerate(_identity_configs()):
        got = np.concatenate([counts.T for counts, _, _ in _block_estimates(cfg)])
        want = _slot_uniform_counts(cfg)
        slots = cfg.slots * cfg.replications
        assert (got.sum(axis=1) == cfg.slots).all() and (want.sum(axis=1) == cfg.slots).all()
        for code, p in enumerate(_kind_probabilities(cfg.policy)):
            if p == 0.0:
                assert got[:, code].sum() == want[:, code].sum() == 0, (index, code)
                continue
            share_se = math.sqrt(2 * p * (1 - p) / slots)
            difference = (got[:, code].sum() - want[:, code].sum()) / slots
            assert abs(difference) <= 4 * share_se, (index, code)
            checked["share"] += 1
            if cfg.replications >= 1000 and cfg.slots >= 5:
                variance = cfg.slots * p * (1 - p)
                variance_se = variance * math.sqrt(2 * 2 / (cfg.replications - 1))
                difference = got[:, code].var(ddof=1) - want[:, code].var(ddof=1)
                assert abs(difference) <= 4 * variance_se, (index, code)
                checked["variance"] += 1
    assert checked["share"] >= 250 and checked["variance"] >= 8, checked


@pytest.mark.parametrize("policy, shares", [
    # a component at -0.0 or at the smallest subnormal draws no slot
    (SamplingPolicy(-0.0, 0.5, 0.5), (0.0, 0.5, 0.5, 0.0)),
    (SamplingPolicy(5e-324, 0.25, 0.25), (0.0, 0.25, 0.25, 0.5)),
    # a component just above 1 takes every slot
    (SamplingPolicy(0.0, 0.0, 1.0 + 1e-12), (0.0, 0.0, 1.0, 0.0)),
    # a sum just above 1, up to the simplex row's allowance, leaves no idle slot
    (SamplingPolicy(0.0, 0.3, 0.7 + 1e-12), (0.0, 0.3, 0.7, 0.0)),
    (SamplingPolicy(0.0, 0.3, 0.7 + 1e-9), (0.0, 0.3, 0.7, 0.0)),
])
def test_policies_at_the_tolerance_draw_the_clipped_shares(policy, shares):
    # numpy's multinomial refuses a probability below 0 or above 1 and a sum
    # of the first three above 1 + 1e-12; a policy's sum may pass 1 by the
    # simplex row's 1e-9 (1 + sum), so the engine draws from the edges
    # min(cumsum, 1), whose differences are these shares, and a kind of
    # share 0 never occurs.  The replays take any policy; run takes those
    # the budget rows admit (a marginal-X share of 5e-324 fails no_marginal_x)
    assert _kind_probabilities(policy) == pytest.approx(shares, abs=1e-15)
    scenario = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, math.inf))
    cfg = SimulationConfig(scenario, model(), policy, EstimatorKind.DELTA2, 100, 300, 47)
    rng = replication_rng(cfg.master_seed, 0)
    replayed = sum(collect_replication(cfg.model, policy, cfg.slots, rng)[0]
                   for _ in range(cfg.replications))
    tallies = [dict(zip((kind.value for kind in ObservationKind), replayed.tolist()))]
    if constraints_for(scenario).is_feasible(policy):
        tallies.append(run(cfg).slot_counts)
    kinds = replay_slots(cfg.model, policy, cfg.slots, rng)[0]
    assert set(kinds.tolist()) <= {code for code, p in enumerate(shares) if p > 0.0}
    slots = cfg.slots * cfg.replications
    for tally in tallies:
        for kind, p in zip(ObservationKind, shares):
            if p in (0.0, 1.0):
                assert tally[kind.value] == p * slots, kind
            else:
                se = math.sqrt(p * (1 - p) / slots)
                assert abs(tally[kind.value] / slots - p) <= 4 * se, kind


# --- the block engine against the per-replication draw order, in distribution ---


def _reference_run(config):
    """Slot-level copy of the replication loop ``run`` used before its
    chunks: each replication draws its slot uniforms, then its marginal X,
    marginal Y and joint samples, straight after the one before it in the
    block's stream; slot arrays with NaN gaps, boolean-mask gathering into
    the stratum arrays, each stratum's size and sum into the estimators (a
    replication whose strata the estimator's mask rejects is excluded), then
    the same aggregation."""
    policy, model = config.policy, config.model
    totals = {kind.value: 0 for kind in ObservationKind}
    estimates, excluded = [], 0
    for rep in range(config.replications):
        if rep % REPLICATION_BLOCK == 0:  # one stream per block, drawn in order
            rng = replication_rng(config.master_seed, rep // REPLICATION_BLOCK)
        u = rng.random(config.slots)
        edge_x = policy.p_x
        edge_y = policy.p_x + policy.p_y
        edge_j = policy.p_x + policy.p_y + policy.p_xy
        is_x = u < edge_x
        is_y = (u >= edge_x) & (u < edge_y)
        is_j = (u >= edge_y) & (u < edge_j)
        x = np.full(config.slots, math.nan)
        y = np.full(config.slots, math.nan)
        x[is_x] = sample_marginal(model, Axis.X, rng, size=int(is_x.sum()))
        y[is_y] = sample_marginal(model, Axis.Y, rng, size=int(is_y.sum()))
        jx, jy = sample_joint(model, rng, size=int(is_j.sum()))
        x[is_j] = jx
        y[is_j] = jy
        strata = (x[is_x], y[is_y], x[is_j], y[is_j])
        for kind, mask in [("marginal_x", is_x), ("marginal_y", is_y), ("joint", is_j)]:
            totals[kind] += int(mask.sum())
        totals["idle"] += int((~(is_x | is_y | is_j)).sum())
        if config.estimator is EstimatorKind.DELTA1:
            estimator = delta1
        elif config.estimator is EstimatorKind.DELTA2:
            estimator = delta2
        elif config.scenario.target is Target.MU_X:
            estimator = sample_mean_x
        else:
            estimator = sample_mean_y
        counts = [stratum.size for stratum in strata[:3]]
        value, usable = estimator(counts, [stratum.sum() for stratum in strata], model)
        if usable:
            estimates.append(float(value))
        else:
            excluded += 1
    if not estimates:
        raise MissingStratum(
            f"all {config.replications} replications lacked a required stratum"
        )
    estimates = np.asarray(estimates)
    variance = math.nan
    if estimates.size >= 2:
        variance = float(config.slots * estimates.var(ddof=1))
    return SimulationReport(
        mean_estimate=float(estimates.mean()),
        empirical_variance_per_slot=variance,
        analytic_crb=crb(
            config.scenario.task, config.scenario.target, config.policy, config.model
        ),
        analytic_estimator_variance=analytic_variance(
            config.estimator, config.scenario.target, config.policy, config.model
        ),
        cost_per_slot=_cost_per_slot(config, totals),
        slot_counts=totals,
        replications_used=len(estimates),
        replications_excluded=excluded,
        slots_per_replication=config.slots,
        master_seed=config.master_seed,
        policy=config.policy,
    )


def _oracle_configs():
    """Sixteen seeded configurations: every accepted (task, estimator,
    target) pair, decentralized and centralized, at 100 slots."""
    rng = np.random.default_rng(17)
    pairs = [(task, estimator, None) for task in (Task.T1, Task.T2)
             for estimator in EstimatorKind]
    pairs += [(Task.T3, EstimatorKind.SAMPLE_MEAN, target) for target in Target]
    configs = []
    for setting in Setting:
        for task, estimator, target in pairs:
            p = rng.uniform(0.15, 0.3, size=3)
            if setting is Setting.DECENTRALIZED and task is not Task.T3:
                p[0] = 0.0
            e2 = math.inf if setting is Setting.CENTRALIZED else None
            scenario = Scenario(task, setting, ResourceBudget(1.0, math.inf, e2), target)
            m = validate((rng.normal(0, 2), rng.normal(0, 2), rng.uniform(0.5, 2),
                          rng.uniform(0.5, 2), rng.uniform(-0.9, 0.9)))
            configs.append(SimulationConfig(scenario, m, SamplingPolicy(*p.tolist()), estimator,
                                            100, 2000, int(rng.integers(2**32))))
    return configs


def test_run_matches_the_per_replication_reference_in_distribution():
    # the block engine and the per-replication draw order are two samples
    # of one law: the means, the per-slot variances and each kind's share
    # agree within 4 standard errors of their difference
    configs = _oracle_configs()
    assert len(configs) >= 12
    for index, cfg in enumerate(configs):
        got, want = run(cfg), _reference_run(cfg)
        reps = cfg.replications
        variance = (got.empirical_variance_per_slot + want.empirical_variance_per_slot) / 2
        mean_se = math.sqrt(2 * variance / cfg.slots / reps)
        assert abs(got.mean_estimate - want.mean_estimate) <= 4 * mean_se, index
        variance_se = variance * math.sqrt(2 * 2 / (reps - 1))
        assert abs(got.empirical_variance_per_slot - want.empirical_variance_per_slot) <= (
            4 * variance_se
        ), index
        slots = cfg.slots * reps
        shares = (*cfg.policy.as_tuple(), 1 - sum(cfg.policy.as_tuple()))
        for kind, p in zip(got.slot_counts, shares):
            share_se = math.sqrt(2 * p * (1 - p) / slots)
            difference = got.slot_counts[kind] - want.slot_counts[kind]
            assert abs(difference) / slots <= 4 * share_se, (index, kind)


def test_run_memory_does_not_grow_with_replications():
    # run keeps each block's moments, not one estimate per replication
    peaks = []
    for reps in (2 * REPLICATION_BLOCK, 20 * REPLICATION_BLOCK):
        cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=10, reps=reps)
        run(cfg)  # warm
        tracemalloc.start()
        try:
            run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_run_rejects_negative_seed_like_seed_sequence():
    # SeedSequence rejects a negative seed; the config does so first, by name
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.SeedSequence((-1, 0))
    with pytest.raises(ValueError, match="^master_seed must be >= 0, got -1$"):
        t1_config(SamplingPolicy(0, 0.5, 0.5), slots=10, reps=3, seed=-1)


def test_config_bounds_the_slots_of_a_replication():
    t1_config(SamplingPolicy(0, 0.5, 0.5), slots=_MAX_SLOTS, reps=1)  # the limit itself holds
    with pytest.raises(ValueError, match=f"^slots must be <= {_MAX_SLOTS}, got {_MAX_SLOTS + 1}$"):
        t1_config(SamplingPolicy(0, 0.5, 0.5), slots=_MAX_SLOTS + 1, reps=1)


def test_config_bounds_the_replications_of_a_run():
    t1_config(SamplingPolicy(0, 0.5, 0.5), slots=1, reps=_MAX_REPS)  # the limit itself holds
    with pytest.raises(ValueError, match=f"^replications must be <= {_MAX_REPS}, got {10**15}$"):
        t1_config(SamplingPolicy(0, 0.5, 0.5), slots=1, reps=10**15)


# --- feasibility gate ---


def test_run_rejects_infeasible_policy():
    with pytest.raises(InfeasiblePolicy, match="sensor_y_budget"):
        run(t1_config(SamplingPolicy(0, 0, 1.0), e1=1.0))


def test_run_rejects_marginal_x_in_t1():
    scenario = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, 2.0))
    cfg = SimulationConfig(
        scenario, model(), SamplingPolicy(0.2, 0.4, 0.2),
        EstimatorKind.DELTA1, 100, 10, 3,
    )
    with pytest.raises(InfeasiblePolicy, match="no_marginal_x"):
        run(cfg)


def test_config_refuses_an_estimator_of_another_question():
    # the delta estimators centre at the X mean that t3 treats as unknown;
    # t1 and t2 bound the Y mean, so an X target would set the X mean's
    # variance against the Y mean's bound
    budget = ResourceBudget(2.0, 5.0)
    policy = SamplingPolicy(0, 0.5, 0.5)
    for target in Target:
        t3 = Scenario(Task.T3, Setting.DECENTRALIZED, budget, target)
        for estimator in (EstimatorKind.DELTA1, EstimatorKind.DELTA2):
            with pytest.raises(ValueError, match=(
                f"^estimator {estimator.value} takes the X mean as known, "
                "which task t3 estimates: use sample_mean$"
            )):
                SimulationConfig(t3, model(), policy, estimator, 100, 10, 1)
        SimulationConfig(t3, model(), policy, EstimatorKind.SAMPLE_MEAN, 100, 10, 1)
    for task in (Task.T1, Task.T2):
        for estimator in EstimatorKind:
            with pytest.raises(ValueError, match=(
                f"^task {task.value} bounds the Y mean only: target mu_x needs task t3$"
            )):
                SimulationConfig(Scenario(task, Setting.DECENTRALIZED, budget, Target.MU_X),
                                 model(), policy, estimator, 100, 10, 1)
            SimulationConfig(Scenario(task, Setting.DECENTRALIZED, budget, Target.MU_Y),
                             model(), policy, estimator, 100, 10, 1)


# --- slot-type frequencies and ledger ---


def test_slot_frequencies_converge():
    policy = SamplingPolicy(0, 0.3, 0.5)
    cfg = t1_config(policy, slots=2000, reps=500)
    report = run(cfg)
    total = cfg.slots * cfg.replications
    for kind, p in [
        (ObservationKind.MARGINAL_Y, 0.3),
        (ObservationKind.JOINT, 0.5),
        (ObservationKind.IDLE, 0.2),
    ]:
        freq = report.slot_counts[kind.value] / total
        se = math.sqrt(p * (1 - p) / total)
        assert abs(freq - p) <= 3 * se, kind


def _slot_prices(task, setting, a):
    """Each charged actor's total cost of a marginal-X, a marginal-Y and a
    joint slot at alpha ``a``, as the README's cost table states them."""
    if setting is Setting.CENTRALIZED:
        return {
            Actor.SENSOR_X: (1 + a, 0.0, 1 + a),
            Actor.SENSOR_Y: (0.0, 1 + a, 1 + a),
            Actor.DATA_CENTER: (a, a, 2 * a),
        }
    joint = 1 + 2 * a if task is Task.T3 else 1 + a
    return {Actor.SENSOR_X: (1.0, 0.0, joint), Actor.SENSOR_Y: (0.0, 1.0, joint)}


def test_expected_cost_equals_constraint_lhs():
    # the ledger charges each actor its budget row, which must reproduce the
    # stated per-kind costs for every scenario family: expected per-slot
    # cost == constraint value at the policy
    budgets = {
        Setting.DECENTRALIZED: ResourceBudget(1.7, 10.0),
        Setting.CENTRALIZED: ResourceBudget(1.7, 10.0, 10.0),
    }
    # p_x > 0 in decentralized t1/t2 too: the prices hold even off the
    # no_marginal_x pin
    pol = SamplingPolicy(0.15, 0.25, 0.35)
    for setting, budget in budgets.items():
        for task in (Task.T1, Task.T2, Task.T3):
            scenario = Scenario(task, setting, budget)
            rows = constraints_for(scenario).charged
            prices = _slot_prices(task, setting, budget.alpha)
            assert list(rows) == list(prices), (setting, task)
            for actor, price in prices.items():
                expected_cost = sum(p * c for p, c in zip(pol.as_tuple(), price))
                assert expected_cost == pytest.approx(
                    _load(rows[actor].coeffs, *pol.as_tuple()), rel=1e-12
                ), (setting, task, actor)


def test_slot_costs_price_the_rows_counts():
    # the ledger prices a slot by each actor's budget row: a marginal-X slot
    # in decentralized t1/t2 costs S_x its observation and S_y nothing, a
    # joint slot each sensor 1 + alpha, and no data-center row is charged
    scenario = Scenario(Task.T2, Setting.DECENTRALIZED, ResourceBudget(0.1, 2.0))
    rows = constraints_for(scenario).charged
    assert {actor: row.coeffs for actor, row in rows.items()} == {
        Actor.SENSOR_X: (1.0, 0.0, 1.1),
        Actor.SENSOR_Y: (0.0, 1.0, 1.1),
    }
    centralized = Scenario(Task.T3, Setting.CENTRALIZED, ResourceBudget(0.1, 2.0, 2.0))
    assert constraints_for(centralized).charged[Actor.DATA_CENTER].coeffs == (0.1, 0.1, 0.2)
    # every simulation of the scenario shares these rows: no caller may change them
    with pytest.raises(TypeError):
        constraints_for(centralized).charged[Actor.SENSOR_X] = rows[Actor.SENSOR_X]


def test_ledger_matches_counts():
    cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=500, reps=100)
    report = run(cfg)
    total = cfg.slots * cfg.replications
    n_joint = report.slot_counts[ObservationKind.JOINT.value]
    n_marg = report.slot_counts[ObservationKind.MARGINAL_Y.value]
    # decentralized t1: S_y pays 1 per marginal-Y slot, 1 + alpha per joint
    expected = (n_marg * 1.0 + n_joint * 3.0) / total
    assert report.cost_per_slot[Actor.SENSOR_Y] == pytest.approx(expected)
    # S_x pays 1 + alpha per joint slot only, the data center nothing
    assert report.cost_per_slot[Actor.SENSOR_X] == pytest.approx(n_joint * 3.0 / total)
    assert report.cost_per_slot[Actor.DATA_CENTER] == 0.0


# --- estimator variance against analytics ---


def test_delta1_attains_bound_at_half_half():
    report = run(t1_config(SamplingPolicy(0, 0.5, 0.5), slots=1000, reps=4000, seed=11))
    assert report.analytic_crb == pytest.approx(6 / 7, rel=1e-12)
    assert report.analytic_estimator_variance == pytest.approx(6 / 7, rel=1e-12)
    assert report.empirical_variance_per_slot == pytest.approx(6 / 7, rel=0.05)


def test_delta2_joint_only_variance():
    policy = SamplingPolicy(0, 0, 1.0)
    cfg = t1_config(policy, rho=0.0, slots=500, reps=4000, seed=13, e1=3.0)
    report = run(cfg)
    assert cfg.estimator is EstimatorKind.DELTA2
    assert report.empirical_variance_per_slot == pytest.approx(1.0, rel=0.05)


def test_cramer_rao_inequality_not_violated():
    # K Var >= CRB - 3 SE(variance) for a mix of policies and estimators
    cases = [
        (SamplingPolicy(0, 0.5, 0.5), EstimatorKind.DELTA1, 0.5),
        (SamplingPolicy(0, 0.3, 0.5), EstimatorKind.SAMPLE_MEAN, 0.7),
        (SamplingPolicy(0, 0, 0.6), EstimatorKind.DELTA2, 0.8),
    ]
    for policy, estimator, rho in cases:
        cfg = t1_config(policy, rho=rho, slots=500, reps=3000, seed=17,
                        estimator=estimator, e1=3.0)
        report = run(cfg)
        se = report.empirical_variance_per_slot * math.sqrt(2.0 / (report.replications_used - 1))
        assert report.empirical_variance_per_slot >= report.analytic_crb - 3 * se


def _estimators_of_the_bounded_mean():
    """(task, estimator, target) where the estimator estimates the mean that
    ``crb`` bounds with no more knowledge than the task grants: the pairs
    ``SimulationConfig`` accepts.  t1 and t2 bound the Y mean; the delta
    estimators take the X mean as known, so t3 pairs each target with its
    sample mean only."""
    for task in Task:
        if task is Task.T3:
            for target in Target:
                yield task, EstimatorKind.SAMPLE_MEAN, target
        else:
            for estimator in EstimatorKind:
                yield task, estimator, Target.MU_Y


def test_analytic_variance_per_slot_is_never_below_the_bound():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))[:3]
        p[rng.random(3) < 0.15] = 0.0  # empty strata too
        policy = SamplingPolicy(*p.tolist())
        var_x, var_y = rng.uniform(0.2, 5.0, size=2).tolist()
        m = validate((0.0, 0.0, var_x, var_y, float(rng.uniform(-0.99, 0.99))))
        for task, estimator, target in _estimators_of_the_bounded_mean():
            variance = analytic_variance(estimator, target, policy, m)
            if variance is not None:
                bound = crb(task, target, policy, m)
                assert variance >= bound * (1.0 - 1e-12), (task, estimator, policy, m, variance)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("estimator", list(EstimatorKind))
def test_analytic_variance_matches_a_run_with_idle_slots(estimator):
    # half the slots idle: the analytic value is per slot, as the empirical
    report = run(t1_config(SamplingPolicy(0, 0.25, 0.25), slots=1000, reps=4000, seed=23,
                           estimator=estimator))
    assert report.replications_used == 4000
    se = math.sqrt(2.0 / (report.replications_used - 1))
    ratio = report.analytic_estimator_variance / report.empirical_variance_per_slot
    assert abs(ratio - 1.0) <= 3.0 * se


# --- missing strata ---


def test_missing_stratum_replications_excluded():
    # tiny p_y at tiny K: many replications lack the marginal stratum
    cfg = t1_config(SamplingPolicy(0, 0.02, 0.5), slots=20, reps=400, seed=19,
                    estimator=EstimatorKind.DELTA1)
    report = run(cfg)
    assert report.replications_excluded > 0
    assert report.replications_used + report.replications_excluded == 400


def test_all_replications_excluded_raises():
    cfg = t1_config(SamplingPolicy(0, 1.0, 0.0), slots=50, reps=20,
                    estimator=EstimatorKind.DELTA2)
    with pytest.raises(MissingStratum):
        run(cfg)


# --- default estimator selection ---


def test_default_estimator_rules():
    t1 = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2, 2))
    t2 = Scenario(Task.T2, Setting.DECENTRALIZED, ResourceBudget(2, 2))
    t3 = Scenario(Task.T3, Setting.DECENTRALIZED, ResourceBudget(2, 2))
    assert default_estimator(t1, SamplingPolicy(0, 0.5, 0.5)) is EstimatorKind.DELTA1
    assert default_estimator(t1, SamplingPolicy(0, 0, 0.6)) is EstimatorKind.DELTA2
    assert default_estimator(t1, SamplingPolicy(0, 1, 0)) is EstimatorKind.SAMPLE_MEAN
    # the t2 learner does not know the correlation: plain sample mean
    assert default_estimator(t2, SamplingPolicy(0, 0.5, 0.5)) is EstimatorKind.SAMPLE_MEAN
    assert default_estimator(t3, SamplingPolicy(0.3, 0.3, 0.3)) is EstimatorKind.SAMPLE_MEAN


# --- audit ---


def _check_of(audit, actor):
    """The audit's check of ``actor``'s budget row."""
    return next(check for check in audit.checks if check.actor == actor.value)


def test_audit_saturating_policy_zero_slack():
    result = plan_t1_closed_form(2.0, 2.0, model(0.9))
    assert result.policy.p_xy == pytest.approx(2 / 3)
    scenario = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, 2.0))
    cfg = SimulationConfig(
        scenario, model(0.9), result.policy, EstimatorKind.DELTA2, 2000, 500, 23
    )
    report = run(cfg)
    audit = audit_resources(report, scenario)
    assert audit.passed
    check = _check_of(audit, Actor.SENSOR_Y)
    assert check.mean_cost_per_slot == pytest.approx(2.0, abs=3 * check.stderr)
    assert abs(check.slack) <= 3 * check.stderr


def test_audit_marginal_only_policy():
    cfg = t1_config(SamplingPolicy(0, 1.0, 0.0), slots=500, reps=100,
                    estimator=EstimatorKind.SAMPLE_MEAN)
    report = run(cfg)
    audit = audit_resources(report, cfg.scenario)
    assert audit.passed
    assert _check_of(audit, Actor.SENSOR_Y).mean_cost_per_slot == pytest.approx(1.0)


def test_audit_stderr_comes_from_the_policy():
    # stand-alone Y at probability 5e-6 never occurs in these 10^4 slots; the
    # observed frequencies would give stderr 0 and fail a budget the policy
    # keeps in expectation (its expected cost is e1 = 2.99999 exactly)
    scenario = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, 2.99999))
    policy = SamplingPolicy(0.0, 5e-6, 1.0 - 5e-6)
    report = run(SimulationConfig(scenario, model(), policy, EstimatorKind.DELTA2, 100, 100, 1))
    assert report.slot_counts["marginal_y"] == 0
    audit = audit_resources(report, scenario)
    assert audit.passed
    check = _check_of(audit, Actor.SENSOR_Y)
    # Var = E[c^2] - E[c]^2 over costs 1 (p = 5e-6) and 3: 4 p (1 - p)
    assert check.stderr == pytest.approx(math.sqrt(4 * 5e-6 * (1 - 5e-6) / 10_000), rel=1e-9)
    assert "policy" not in report.as_record()


def test_audit_flags_budget_overrun():
    # simulate under a permissive budget, audit against a tight one:
    # joint-every-slot costs S_y 3 units/slot against a budget of 1
    loose = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, 5.0))
    cfg = SimulationConfig(
        loose, model(0.8), SamplingPolicy(0, 0, 1.0),
        EstimatorKind.DELTA2, 500, 100, 29,
    )
    report = run(cfg)
    tight = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, 1.0))
    audit = audit_resources(report, tight)
    assert not audit.passed
    check = _check_of(audit, Actor.SENSOR_Y)
    assert check.slack == pytest.approx(-2.0, abs=1e-9)


def test_audit_allows_the_feasibility_rules_rounding():
    # joint-only slots cost each sensor 1 + alpha = e1 in every slot, so the
    # standard error is 0: a mean cost above the budget by 1e-15 of it is
    # rounding the feasibility rule admits, by 1e-6 of it an overrun
    scenario = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, 3.0))
    cfg = SimulationConfig(
        scenario, model(), SamplingPolicy(0, 0, 1.0), EstimatorKind.DELTA2, 10, 5, 43
    )
    report = run(cfg)
    for excess, passed in ((1e-15, True), (1e-6, False)):
        cost = 3.0 * (1.0 + excess)
        over = replace(report, cost_per_slot={
            **report.cost_per_slot, Actor.SENSOR_X: cost, Actor.SENSOR_Y: cost,
        })
        audit = audit_resources(over, scenario)
        assert [(c.stderr, c.slack < 0.0) for c in audit.checks] == [(0.0, True)] * 2
        assert [c.passed for c in audit.checks] == [passed] * 2
        assert audit.passed is passed


def test_audit_centralized_includes_dc():
    scenario = Scenario(Task.T1, Setting.CENTRALIZED, ResourceBudget(1.0, 2.0, 1.0))
    cfg = SimulationConfig(
        scenario, model(0.8), SamplingPolicy(0, 0, 0.5),
        EstimatorKind.DELTA2, 500, 200, 31,
    )
    report = run(cfg)
    audit = audit_resources(report, scenario)
    assert audit.passed
    dc = _check_of(audit, Actor.DATA_CENTER)
    assert dc.mean_cost_per_slot == pytest.approx(1.0, abs=3 * dc.stderr)


# --- trace dump ---


def _whitened(strata, model):
    """Each stratum's standard normals: the marginal values standardized,
    the joint pairs' z1 and z2 of :func:`joint_from_normals`."""
    mx, my, jx, jy = strata
    z1 = (jx - model.mu_x) / model.sigma_x
    z2 = ((jy - model.mu_y) / model.sigma_y - model.rho * z1) / math.sqrt(1.0 - model.rho**2)
    return (mx - model.mu_x) / model.sigma_x, (my - model.mu_y) / model.sigma_y, z1, z2


def test_replays_bridge_runs_stratum_sums():
    # collect_replication and replay_slots are chunks of one: their counts
    # by kind are the chunk's, collect_replication's sums are the chunk's,
    # each stratum of replay_slots' slots gathered by kind sums to them
    # within 1e-12 of the sum of its magnitudes, and the caller's stream
    # advances exactly as by the chunk.  Given its sum, a stratum of m iid
    # standard normals has squared deviations chi-square with m - 1 degrees
    # of freedom; pooled over all strata, the whitened values' must lie
    # within the two-sided 1e-6 quantiles
    chi2 = pytest.importorskip("scipy.stats").chi2
    cases = [
        (SamplingPolicy(0, 0.5, 0.5), validate((0.0, 0.0, 1.0, 1.0, 0.5)), 1000),
        (SamplingPolicy(0.2, 0.3, 0.4), validate((3.0, -2.0, 0.3, 4.0, -0.8)), 37),
        (SamplingPolicy(0.1, 0.02, 0.85), validate((-50.0, 7.0, 2.0, 0.5, 0.95)), 200),
        (SamplingPolicy(0.0, 0.0, 1.0), validate((1.0, 1.0, 1.0, 9.0, 0.0)), 5),
    ]
    squares, freedom = 0.0, 0
    for index, (policy, m, slots) in enumerate(cases):
        rng, replay, ref = (replication_rng(index, 0) for _ in range(3))
        for _ in range(50):
            counts, sums = collect_replication(m, policy, slots, rng)
            kinds, x, y = replay_slots(m, policy, slots, replay)
            want_counts, _, want_sums = _draw_chunk(m, _kind_probabilities(policy), slots, 1, ref)
            assert rng.bit_generator.state == replay.bit_generator.state == ref.bit_generator.state
            assert counts.tolist() == want_counts[:, 0].tolist()
            assert sums.tolist() == want_sums[:, 0].tolist()
            assert np.bincount(kinds, minlength=4).tolist() == counts.tolist()
            strata = (x[kinds == 0], y[kinds == 1], x[kinds == 2], y[kinds == 2])
            for stratum, want in zip(strata, sums.tolist()):
                assert abs(stratum.sum() - want) <= 1e-12 * np.abs(stratum).sum(), index
            for z in _whitened(strata, m):
                if z.size >= 2:
                    squares += float(np.square(z - z.mean()).sum())
                    freedom += z.size - 1
    assert freedom > 50_000
    assert chi2.ppf(1e-6, freedom) <= squares <= chi2.ppf(1 - 1e-6, freedom), (squares, freedom)


def test_replay_places_each_kind_uniformly_over_the_slots():
    # iid slot kinds are exchangeable: each slot position takes kind k with
    # probability p_k whatever the counts.  Over 4000 replays of 20 slots,
    # the kind-by-position table's chi-square statistic against 4000 p_k
    # per cell (60 degrees of freedom) lies within the two-sided 1e-6
    # quantiles; kinds laid out in kind order would put it near 10^5
    chi2 = pytest.importorskip("scipy.stats").chi2
    policy, slots, reps = SamplingPolicy(0.2, 0.3, 0.4), 20, 4000
    rng = replication_rng(53, 0)
    table = np.zeros((4, slots))
    for _ in range(reps):
        kinds = replay_slots(model(), policy, slots, rng)[0]
        table[kinds, np.arange(slots)] += 1
    expected = reps * np.array(_kind_probabilities(policy))[:, None]
    statistic = float((np.square(table - expected) / expected).sum())
    freedom = 3 * slots
    assert chi2.ppf(1e-6, freedom) <= statistic <= chi2.ppf(1 - 1e-6, freedom), statistic


def test_trace_reproduces_replication(tmp_path):
    # replication 0 of 1000 slots, in runs of one block, two blocks with
    # the second cut to 70 and a block cut to 70: block 0's first column.
    # Each trace holds its replication's counts by kind in a uniformly
    # random slot order: each kind's mean slot position lies within 4
    # standard errors of the middle, (S - 1) / 2, for m of S positions
    # drawn without replacement, sqrt((S^2 - 1) / 12 / m (S - m) / (S - 1))
    names = [kind.value for kind in ObservationKind]
    for reps, seed in ((REPLICATION_BLOCK, 37), (REPLICATION_BLOCK + 70, 38), (70, 39)):
        cfg = t1_config(SamplingPolicy(0, 0.4, 0.4), slots=1000, reps=reps, seed=seed)
        n = min(REPLICATION_BLOCK, reps)
        counts, _, sums = _draw_chunk(cfg.model, _kind_probabilities(cfg.policy), cfg.slots, n,
                                      replication_rng(cfg.master_seed, 0))
        counts, sums = counts[:, 0].tolist(), sums[:, 0].tolist()
        path = tmp_path / "trace.csv"
        write_trace(cfg, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "slot,kind,x,y,cost_sx,cost_sy,cost_dc"
        assert len(lines) == cfg.slots + 1
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == [str(slot) for slot in range(cfg.slots)]
        kinds = np.array([names.index(r[1]) for r in rows])
        # the block's counts, and its stratum sums within the 9 significant
        # digits of each printed value
        assert np.bincount(kinds, minlength=4).tolist() == counts, reps
        traced = np.array([[float(v) if v else math.nan for v in r[2:4]] for r in rows])
        for (code, column), want in zip(((0, 0), (1, 1), (2, 0), (2, 1)), sums):
            got = traced[kinds == code, column]
            assert got.size == counts[code] and not np.isnan(got).any(), reps
            assert abs(got.sum() - want) <= 1e-8 * np.abs(got).sum(), reps
        assert np.isnan(traced[kinds == 0, 1]).all() and np.isnan(traced[kinds == 1, 0]).all()
        for code, m in enumerate(counts):
            if 0 < m < cfg.slots:
                s = cfg.slots
                se = math.sqrt((s * s - 1) / 12 / m * (s - m) / (s - 1))
                position = np.flatnonzero(kinds == code).mean()
                assert abs(position - (s - 1) / 2) <= 4 * se, (reps, code)
        # joint slots cost S_x and S_y 1 + alpha each, nothing at the DC
        joint_rows = [r for r in rows if r[1] == "joint"]
        assert joint_rows and all(r[4:] == ["3", "3", "0"] for r in joint_rows)
        # idle slots observe nothing and are free
        idle_rows = [r for r in rows if r[1] == "idle"]
        assert idle_rows and all(r[2:] == ["", "", "0", "0", "0"] for r in idle_rows)


def test_run_audit_and_trace_build_one_system(tmp_path, monkeypatch):
    # a simulation's run, audit and trace read the one constraint system
    # its scenario keeps: it is priced once, and an equal but distinct
    # scenario prices its own
    stacks = []
    priced = strategy._stack
    monkeypatch.setattr(strategy, "_stack", lambda *a: stacks.append(a) or priced(*a))
    cfg = t1_config(SamplingPolicy(0, 0.4, 0.4), slots=50, reps=3)
    report = run(cfg)
    audit_resources(report, cfg.scenario)
    write_trace(cfg, tmp_path / "trace.csv")
    assert len(stacks) == 1
    assert constraints_for(cfg.scenario) is constraints_for(cfg.scenario)
    twin = replace(cfg.scenario)
    assert twin == cfg.scenario and constraints_for(twin) is not constraints_for(cfg.scenario)
    assert len(stacks) == 2


def test_trace_bytes_do_not_depend_on_the_slab(tmp_path, monkeypatch):
    # slabs of 7 slots, which do not divide 1000, write the bytes of one slab
    cfg = t1_config(SamplingPolicy(0, 0.4, 0.4), slots=1000, reps=REPLICATION_BLOCK + 3, seed=61)
    write_trace(cfg, tmp_path / "whole.csv")
    monkeypatch.setattr(simulator, "_TRACE_SLAB", 7)
    write_trace(cfg, tmp_path / "slabs.csv")
    assert (tmp_path / "slabs.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_trace_streams_in_slabs(tmp_path):
    # write_trace formats slabs of slots and holds no per-slot Python
    # objects, so at 10^6 slots it peaks in tracemalloc below 64 bytes a
    # slot (whole-replication rows took about 120): where every slot is
    # joint, the most values a slot, and at a policy with all four kinds
    slots = 10**6
    path = tmp_path / "trace.csv"
    for task, policy, estimator in [
        (Task.T1, (0.0, 0.0, 1.0), EstimatorKind.DELTA2),
        (Task.T3, (0.3, 0.3, 0.3), EstimatorKind.SAMPLE_MEAN),
    ]:
        scenario = Scenario(task, Setting.DECENTRALIZED, ResourceBudget(2.0, math.inf))
        cfg = SimulationConfig(scenario, model(), SamplingPolicy(*policy), estimator, slots, 1, 59)
        tracemalloc.start()
        try:
            write_trace(cfg, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * slots, (task, peak / slots)
        with open(path, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == slots + 1

