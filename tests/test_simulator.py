import math
from dataclasses import astuple, replace

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
from crbplan.simulator import _MAX_REPS, _MAX_SLOTS, _analytic_estimator_variance
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


def test_replication_streams_worker_independent():
    # aggregating per-replication estimates computed block by block "on three
    # workers" in reversed order reproduces run()'s aggregate exactly
    reps = 2 * REPLICATION_BLOCK + 5
    cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=30, reps=reps)
    report = run(cfg)
    values = {}
    for block in reversed(range(3)):  # the last worker first
        rng = replication_rng(cfg.master_seed, block)
        start = block * REPLICATION_BLOCK
        for rep in range(start, min(reps, start + REPLICATION_BLOCK)):
            strata, _ = collect_replication(cfg.model, cfg.policy, cfg.slots, rng)
            values[rep] = delta1(*strata, cfg.model)
    assert report.replications_used == reps
    estimates = np.array([values[rep] for rep in range(reps)])
    assert report.mean_estimate == pytest.approx(estimates.mean(), rel=1e-15)
    assert report.empirical_variance_per_slot == pytest.approx(
        cfg.slots * estimates.var(ddof=1), rel=1e-12
    )


# --- byte identity of the one-pass kernel ---


def _reference_run(config):
    """Slot-level copy of the replication loop ``run`` used before its
    one-pass kernel: slot arrays with NaN gaps, boolean-mask gathering into
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
    # each slot priced straight from the cost table, obs + alpha (tx + rx),
    # summed over the paid kinds in _load's order
    alpha, (n_x, n_y, n_xy) = config.scenario.budget.alpha, list(totals.values())[:3]
    cost_per_slot = dict.fromkeys(Actor, 0.0)
    for actor, counts in COST_TABLE[_family(config.scenario)].items():
        c_x, c_y, c_xy = (obs + alpha * (tx + rx) for obs, tx, rx in counts)
        total = c_x * n_x + c_y * n_y + c_xy * n_xy
        cost_per_slot[actor] = total / (config.slots * config.replications)
    return SimulationReport(
        mean_estimate=float(estimates.mean()),
        empirical_variance_per_slot=variance,
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


def _identity_configs(count=84):
    """Seeded configurations over every estimator, target, task and setting,
    with slots from 1 to 1000 and zero strata that exclude replications."""
    rng = np.random.default_rng(20261018)
    kinds = list(EstimatorKind)
    configs = []
    for i in range(count):
        task = (Task.T1, Task.T2, Task.T3)[i % 3]
        setting = (Setting.DECENTRALIZED, Setting.CENTRALIZED)[(i // 3) % 2]
        estimator = kinds[(i // 6) % 3]
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
    # every replication lacks stand-alone Y observations
    configs.append(t1_config(SamplingPolicy(0, 0.0, 0.6), slots=37, reps=9, seed=3,
                             estimator=EstimatorKind.DELTA1))
    return configs


def test_run_matches_slot_level_reference_exactly():
    outcomes = {"report": 0, "excluded": 0, "all_excluded": 0}
    for index, cfg in enumerate(_identity_configs()):
        try:
            want = _reference_run(cfg)
        except MissingStratum as exc:
            with pytest.raises(MissingStratum, match=str(exc)):
                run(cfg)
            outcomes["all_excluded"] += 1
            continue
        got = run(cfg)
        # astuple compares fields as a tuple does, so a shared NaN compares
        # equal; repr also tells -0.0 from 0.0
        assert astuple(got) == astuple(want), index
        assert repr(got) == repr(want), index
        outcomes["report"] += 1
        outcomes["excluded"] += got.replications_excluded > 0
    assert outcomes["report"] >= 60, outcomes
    assert outcomes["excluded"] >= 5 and outcomes["all_excluded"] >= 1, outcomes


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
    ``crb`` bounds with no more knowledge than the task grants.  t1 and t2
    bound the Y mean whatever the target (t2's bound equals t1's, so knowing
    the correlation does not beat it); the delta estimators take the X mean
    as known, so t3 pairs each target with its sample mean only."""
    for task in Task:
        for target in Target:
            if task is not Task.T3:
                yield task, EstimatorKind.DELTA1, target
                yield task, EstimatorKind.DELTA2, target
            if task is Task.T3 or target is Target.MU_Y:
                yield task, EstimatorKind.SAMPLE_MEAN, target


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


def test_trace_reproduces_replication(tmp_path):
    cfg = t1_config(
        SamplingPolicy(0, 0.4, 0.4), slots=50, reps=REPLICATION_BLOCK + 2, seed=37
    )
    # one replication in the first block, one just past the boundary
    for replication in (1, REPLICATION_BLOCK + 1):
        path = tmp_path / "trace.csv"
        write_trace(cfg, path, replication=replication)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "slot,kind,x,y,cost_sx,cost_sy,cost_dc"
        assert len(lines) == cfg.slots + 1

        # regenerate the replication from its block's stream, after the
        # replications before it in that block, and compare observation values
        block, offset = divmod(replication, REPLICATION_BLOCK)
        rng = replication_rng(cfg.master_seed, block)
        for _ in range(offset + 1):
            (_, marginal_y, joint_x, joint_y), counts = collect_replication(
                cfg.model, cfg.policy, cfg.slots, rng
            )
        joint_rows = [line.split(",") for line in lines[1:] if line.split(",")[1] == "joint"]
        assert len(joint_rows) == counts[ObservationKind.JOINT.value]
        traced = np.array([[float(r[2]), float(r[3])] for r in joint_rows])
        np.testing.assert_allclose(traced, np.column_stack([joint_x, joint_y]), rtol=1e-6)
        y_rows = [line.split(",") for line in lines[1:] if line.split(",")[1] == "marginal_y"]
        np.testing.assert_allclose([float(r[3]) for r in y_rows], marginal_y, rtol=1e-6)
        # joint slots cost S_x and S_y 1 + alpha each, nothing at the DC
        assert all(r[4] == "3" and r[5] == "3" and r[6] == "0" for r in joint_rows)
        # idle slots are free
        idle_rows = [line.split(",") for line in lines[1:] if line.split(",")[1] == "idle"]
        assert idle_rows and all(r[4:] == ["0", "0", "0"] for r in idle_rows)


def test_trace_rejects_bad_replication(tmp_path):
    cfg = t1_config(SamplingPolicy(0, 0.5, 0.5), slots=10, reps=2, seed=41)
    with pytest.raises(ValueError):
        write_trace(cfg, tmp_path / "t.csv", replication=2)
