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
from crbplan.model import REPLICATION_BLOCK
from crbplan.estimators import delta1_of_sums
from crbplan.simulator import (
    _MAX_REPS,
    _MAX_SLOTS,
    _analytic_estimator_variance,
    _chunk_estimates,
    _combine,
    _draw_chunk,
    _moments,
    _slot_edges,
    replay_slots,
)
from crbplan.strategy import COST_TABLE, _charged, _family, _load


def model(rho=0.5, mu_x=0.0, mu_y=0.0):
    return validate((mu_x, mu_y, 1.0, 1.0, rho))


def t1_config(policy, rho=0.5, slots=1000, reps=2000, seed=7, estimator=None, e1=2.0):
    scenario = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(2.0, e1))
    m = model(rho)
    est = estimator or default_estimator(scenario, policy)
    return SimulationConfig(scenario, m, policy, est, slots, reps, seed)


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


def _chunk_size(slots):
    """Replications per chunk, the tiling of every block that run documents."""
    return max(1, min(REPLICATION_BLOCK, 2**16 // slots))


def test_replication_streams_worker_independent():
    # each chunk's moments, drawn with the chunk helper block by block "on
    # three workers" in reversed order and combined in replication order,
    # reproduce run()'s aggregate bit for bit; at 1000 slots the chunk of 65
    # replications does not divide the block of 1024
    for slots in (30, 1000):
        reps = 2 * REPLICATION_BLOCK + 5
        cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=slots, reps=reps)
        report = run(cfg)
        edges, size = _slot_edges(cfg.policy), _chunk_size(slots)
        moments = {}
        for block in reversed(range(3)):  # the last worker first
            rng = replication_rng(cfg.master_seed, block)
            stop = min(reps, (block + 1) * REPLICATION_BLOCK)
            for start in range(block * REPLICATION_BLOCK, stop, size):
                n = min(size, stop - start)
                _, _, counts, sums = _draw_chunk(cfg.model, edges, slots, n, rng)
                values, usable = delta1_of_sums(counts, sums, cfg.model)
                moments[start] = _moments(values[usable])
        used, mean, squares = reduce(_combine, [moments[s] for s in sorted(moments)])
        assert used == report.replications_used == reps
        assert mean == report.mean_estimate
        assert slots * squares / (used - 1) == report.empirical_variance_per_slot


def test_collect_replication_is_a_chunk_of_one():
    # past 2**16 slots a chunk is one replication: collect_replication, drawn
    # in turn from the block's stream, gives run's replications, and its
    # strata are replay_slots' slots gathered by kind
    cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=2**16 + 1, reps=3)
    chunks = list(_chunk_estimates(cfg))
    assert len(chunks) == cfg.replications
    rng, replay = replication_rng(cfg.master_seed, 0), replication_rng(cfg.master_seed, 0)
    for _, estimate, usable in chunks:
        strata, counts = collect_replication(cfg.model, cfg.policy, cfg.slots, rng)
        kinds, x, y = replay_slots(cfg.model, cfg.policy, cfg.slots, replay)
        gathered = (x[kinds == 0], y[kinds == 1], x[kinds == 2], y[kinds == 2])
        assert all(np.array_equal(got, want) for got, want in zip(strata, gathered))
        assert counts == {kind.value: int((kinds == code).sum())
                          for code, kind in enumerate(ObservationKind)}
        assert usable[0]
        assert abs(delta1(*strata, cfg.model) - estimate[0]) <= 1e-12 * _scale(cfg)


# --- the chunk engine against a slot-level replay of its draw order ---


def _replay_chunks(config):
    """``(start, kinds, x, y)`` of each chunk of a run, in replication order,
    replayed slot by slot in the draw order that run documents: chunks of
    ``max(1, min(1024, 2**16 // slots))`` replications tile each block of
    its stream; a chunk draws every slot's uniform in one call, then one
    ``(4, n)`` block of normals, rows marginal X, marginal Y, joint z1 and
    joint z2 of each replication.  A stratum of ``m`` slots takes the
    whitened values ``w - mean(w) + z / sqrt(m)``, which sum to its row's
    ``sqrt(m) z`` whatever the ``w``; here ``w`` come from a generator of
    the test's own.  ``kinds``, ``x`` and ``y`` have a row per replication,
    with NaN gaps."""
    policy, model, slots = config.policy, config.model, config.slots
    edge_x = policy.p_x
    edge_y = policy.p_x + policy.p_y
    edge_j = policy.p_x + policy.p_y + policy.p_xy
    tail = math.sqrt(1.0 - model.rho**2)
    w_rng = np.random.default_rng(config.master_seed % 2**32)
    size = _chunk_size(slots)

    def bridged(mask, z):
        w = w_rng.standard_normal(int(mask.sum()))
        return w - w.mean() + z / math.sqrt(w.size) if w.size else w

    for block_start in range(0, config.replications, REPLICATION_BLOCK):
        rng = replication_rng(config.master_seed, block_start // REPLICATION_BLOCK)
        stop = min(config.replications, block_start + REPLICATION_BLOCK)
        for start in range(block_start, stop, size):
            u = rng.random(min(size, stop - start) * slots).reshape(-1, slots)
            z = rng.standard_normal((4, u.shape[0]))
            is_x = u < edge_x
            is_y = (u >= edge_x) & (u < edge_y)
            is_j = (u >= edge_y) & (u < edge_j)
            x, y = np.full((2, *u.shape), math.nan)
            for r in range(u.shape[0]):
                x[r, is_x[r]] = model.mu_x + model.sigma_x * bridged(is_x[r], z[0, r])
                y[r, is_y[r]] = model.mu_y + model.sigma_y * bridged(is_y[r], z[1, r])
                z1, z2 = bridged(is_j[r], z[2, r]), bridged(is_j[r], z[3, r])
                x[r, is_j[r]] = model.mu_x + model.sigma_x * z1
                y[r, is_j[r]] = model.mu_y + model.sigma_y * (model.rho * z1 + tail * z2)
            kinds = np.select([is_x, is_y, is_j], [0, 1, 2], 3)
            yield start, kinds, x, y


def _slot_level_run(config):
    """``(estimates, totals)``: each replication's estimate from the array
    estimators on the strata gathered from :func:`_replay_chunks` (NaN where
    a stratum is missing) and the slot count of each kind."""
    estimator = {
        EstimatorKind.DELTA1: delta1,
        EstimatorKind.DELTA2: delta2,
        EstimatorKind.SAMPLE_MEAN: (
            sample_mean_x if config.scenario.target is Target.MU_X else sample_mean_y
        ),
    }[config.estimator]
    totals = {kind.value: 0 for kind in ObservationKind}
    estimates = []
    for _, kinds, x, y in _replay_chunks(config):
        for code, kind in enumerate(ObservationKind):
            totals[kind.value] += int((kinds == code).sum())
        for k, xr, yr in zip(kinds, x, y):
            try:
                estimates.append(estimator(xr[k == 0], yr[k == 1], xr[k == 2], yr[k == 2],
                                           config.model))
            except MissingStratum:
                estimates.append(math.nan)
    return np.array(estimates), totals


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
    # 1000 slots: chunks of 65 replications, the last of block 0 cut to 49,
    # then a chunk of block 1; delta1 with rare stand-alone Y, and t3
    configs.append(replace(configs[9], slots=1000, replications=REPLICATION_BLOCK + 70))
    configs.append(replace(configs[2], slots=1000, replications=REPLICATION_BLOCK + 1))
    # every replication lacks stand-alone Y observations
    configs.append(t1_config(SamplingPolicy(0, 0.0, 0.6), slots=37, reps=9, seed=3,
                             estimator=EstimatorKind.DELTA1))
    return configs


def test_run_matches_slot_level_reference_exactly():
    # counts, ledger, exclusions and replications used bit for bit; each
    # replication's estimate and the aggregates within rounding: the engine
    # scales each stratum's normal by sqrt(count), the array estimators sum
    # the reference's bridged slot values
    outcomes = {"report": 0, "excluded": 0, "all_excluded": 0}
    for index, cfg in enumerate(_identity_configs()):
        want, totals = _slot_level_run(cfg)
        usable = ~np.isnan(want)
        tol = 1e-12 * _scale(cfg)
        got = np.concatenate([values for _, values, _ in _chunk_estimates(cfg)])
        mask = np.concatenate([usable for _, _, usable in _chunk_estimates(cfg)])
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


# --- the chunk engine against the per-replication draw order, in distribution ---


def _reference_run(config):
    """Slot-level copy of the replication loop ``run`` used before its
    chunks: each replication draws its slot uniforms, then its marginal X,
    marginal Y and joint samples, straight after the one before it in the
    block's stream; slot arrays with NaN gaps, boolean-mask gathering into
    the stratum arrays and the estimators, then the same aggregation."""
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
        try:
            if config.estimator is EstimatorKind.DELTA1:
                estimates.append(delta1(*strata, model))
            elif config.estimator is EstimatorKind.DELTA2:
                estimates.append(delta2(*strata, model))
            elif config.scenario.target is Target.MU_X:
                estimates.append(sample_mean_x(*strata, model))
            else:
                estimates.append(sample_mean_y(*strata, model))
        except MissingStratum:
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
        analytic_estimator_variance=_analytic_estimator_variance(config),
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
    # the chunk engine and the per-replication draw order are two samples
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
    # run keeps each chunk's moments, not one estimate per replication
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
            rows = _charged(constraints_for(scenario))
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
    rows = _charged(constraints_for(scenario))
    assert {actor: row.coeffs for actor, row in rows.items()} == {
        Actor.SENSOR_X: (1.0, 0.0, 1.1),
        Actor.SENSOR_Y: (0.0, 1.0, 1.1),
    }
    centralized = Scenario(Task.T3, Setting.CENTRALIZED, ResourceBudget(0.1, 2.0, 2.0))
    assert _charged(constraints_for(centralized))[Actor.DATA_CENTER].coeffs == (0.1, 0.1, 0.2)


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
            scenario = Scenario(task, Setting.DECENTRALIZED, ResourceBudget(2.0, math.inf), target)
            config = SimulationConfig(scenario, m, policy, estimator, 100, 2, 0)
            variance = _analytic_estimator_variance(config)
            if variance is not None:
                assert variance >= crb(task, target, policy, m) * (1.0 - 1e-12), (config, variance)
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
    check = audit.for_actor(Actor.SENSOR_Y)
    assert check.mean_cost_per_slot == pytest.approx(2.0, abs=3 * check.stderr)
    assert abs(check.slack) <= 3 * check.stderr


def test_audit_marginal_only_policy():
    cfg = t1_config(SamplingPolicy(0, 1.0, 0.0), slots=500, reps=100,
                    estimator=EstimatorKind.SAMPLE_MEAN)
    report = run(cfg)
    audit = audit_resources(report, cfg.scenario)
    assert audit.passed
    assert audit.for_actor(Actor.SENSOR_Y).mean_cost_per_slot == pytest.approx(1.0)


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
    check = audit.for_actor(Actor.SENSOR_Y)
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
    check = audit.for_actor(Actor.SENSOR_Y)
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
    dc = audit.for_actor(Actor.DATA_CENTER)
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
    # collect_replication and replay_slots are chunks of one: their kinds
    # are the chunk's, each stratum sums to the chunk's stratum sum within
    # 1e-12 of the sum of its magnitudes, and the caller's stream advances
    # exactly as by the chunk.  Given its sum, a stratum of m iid standard
    # normals has squared deviations chi-square with m - 1 degrees of
    # freedom; pooled over all strata, the whitened values' must lie within
    # the two-sided 1e-6 quantiles
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
            strata, counts = collect_replication(m, policy, slots, rng)
            kinds, x, y = replay_slots(m, policy, slots, replay)
            code, _, want_counts, want_sums = _draw_chunk(m, _slot_edges(policy), slots, 1, ref)
            assert rng.bit_generator.state == replay.bit_generator.state == ref.bit_generator.state
            assert (kinds == code).all() and list(counts.values()) == want_counts[:, 0].tolist()
            gathered = (x[kinds == 0], y[kinds == 1], x[kinds == 2], y[kinds == 2])
            assert all(np.array_equal(got, want) for got, want in zip(strata, gathered))
            for stratum, want in zip(strata, want_sums[:, 0].tolist()):
                assert abs(stratum.sum() - want) <= 1e-12 * np.abs(stratum).sum(), index
            for z in _whitened(strata, m):
                if z.size >= 2:
                    squares += float(np.square(z - z.mean()).sum())
                    freedom += z.size - 1
    assert freedom > 50_000
    assert chi2.ppf(1e-6, freedom) <= squares <= chi2.ppf(1 - 1e-6, freedom), (squares, freedom)


def test_trace_reproduces_replication(tmp_path):
    # 1000 slots: chunks of 65 replications.  Replication 100 lies in the
    # middle of the second chunk, 1023 ends the cut last chunk of block 0 and
    # 1025 is just past the block boundary
    cfg = t1_config(
        SamplingPolicy(0, 0.4, 0.4), slots=1000, reps=REPLICATION_BLOCK + 70, seed=37
    )
    replays = {}
    for start, kinds, x, y in _replay_chunks(cfg):
        for offset, row in enumerate(zip(kinds, x, y)):
            replays[start + offset] = row
    assert len(replays) == cfg.replications

    for replication in (100, REPLICATION_BLOCK - 1, REPLICATION_BLOCK + 1):
        path = tmp_path / "trace.csv"
        write_trace(cfg, path, replication=replication)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "slot,kind,x,y,cost_sx,cost_sy,cost_dc"
        assert len(lines) == cfg.slots + 1
        rows = [line.split(",") for line in lines[1:]]
        # the slot-level replay's kinds, slot for slot, and its stratum sums
        # within the 9 significant digits of each printed value
        kinds, x, y = replays[replication]
        names = [kind.value for kind in ObservationKind]
        assert [r[:2] for r in rows] == [[str(slot), names[k]] for slot, k in enumerate(kinds)]
        traced = np.array([[float(v) if v else math.nan for v in r[2:4]] for r in rows])
        for (code, column), want in zip(((0, 0), (1, 1), (2, 0), (2, 1)),
                                         (x[kinds == 0], y[kinds == 1], x[kinds == 2],
                                          y[kinds == 2])):
            got = traced[kinds == code, column]
            assert got.size == want.size and not np.isnan(got).any(), replication
            assert abs(got.sum() - want.sum()) <= 1e-8 * np.abs(want).sum(), replication
        assert np.isnan(traced[kinds == 0, 1]).all() and np.isnan(traced[kinds == 1, 0]).all()
        # joint slots cost S_x and S_y 1 + alpha each, nothing at the DC
        joint_rows = [r for r in rows if r[1] == "joint"]
        assert joint_rows and all(r[4:] == ["3", "3", "0"] for r in joint_rows)
        # idle slots observe nothing and are free
        idle_rows = [r for r in rows if r[1] == "idle"]
        assert idle_rows and all(r[2:] == ["", "", "0", "0", "0"] for r in idle_rows)


def test_trace_rejects_bad_replication(tmp_path):
    cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=10, reps=2, seed=41)
    with pytest.raises(ValueError):
        write_trace(cfg, tmp_path / "t.csv", replication=2)
