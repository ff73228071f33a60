import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crbplan import (
    InfeasibleScenario,
    InvalidScenario,
    LinearConstraintSet,
    Method,
    PlanResult,
    ResourceBudget,
    SamplingPolicy,
    Scenario,
    Setting,
    SingularEverywhere,
    Target,
    Task,
    constraints_for,
    crb,
    crb_t3,
    joint_priority_threshold,
    maximize_linear,
    plan,
    plan_linear,
    plan_t1_closed_form,
    plan_t3,
    validate,
)
from crbplan.strategy import (
    _BASE_ROWS,
    FEASIBILITY_TOL,
    Constraint,
    _crb_t3_array,
    _lexicographic_best,
    _simplex_grid,
)


def model(rho, var_x=1.0, var_y=1.0):
    return validate((0, 0, var_x, var_y, rho))


def dec(task, alpha, e1, target=None):
    return Scenario(task, Setting.DECENTRALIZED, ResourceBudget(alpha, e1), target)


def cen(task, alpha, e1, e2, target=None):
    return Scenario(task, Setting.CENTRALIZED, ResourceBudget(alpha, e1, e2), target)


# --- scenario and budget validation ---


def test_budget_rejects_negative_fields():
    with pytest.raises(InvalidScenario):
        ResourceBudget(-1.0, 2.0)
    with pytest.raises(InvalidScenario):
        ResourceBudget(1.0, -2.0)
    with pytest.raises(InvalidScenario):
        ResourceBudget(math.inf, 2.0)


def test_scenario_e2_presence_matches_setting():
    with pytest.raises(InvalidScenario):
        Scenario(Task.T1, Setting.CENTRALIZED, ResourceBudget(1, 1))
    with pytest.raises(InvalidScenario):
        Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(1, 1, 1))


def test_scenario_default_target():
    assert dec(Task.T1, 1, 1).target is Target.MU_Y
    assert dec(Task.T3, 1, 1).target is Target.MU_X


# --- constraint sets ---


def test_constraints_decentralized_t1():
    cons = constraints_for(dec(Task.T1, alpha=2, e1=2))
    # p_y + 3 p_xy <= 2, p_x = 0, simplex, p >= 0
    assert cons.is_feasible(SamplingPolicy(0, 0.5, 0.5))
    assert cons.is_feasible(SamplingPolicy(0, 0, 2 / 3))
    assert not cons.is_feasible(SamplingPolicy(0, 0.2, 0.61))  # budget
    assert not cons.is_feasible(SamplingPolicy(0.1, 0.4, 0.4))  # p_x pinned to 0
    assert "no_marginal_x" in cons.violations(SamplingPolicy(0.1, 0.0, 0.0))


def test_constraints_decentralized_t3():
    cons = constraints_for(dec(Task.T3, alpha=2, e1=2))
    # p_z + 5 p_xy <= 2 for both sensors, plus simplex
    assert cons.is_feasible(SamplingPolicy(0.5, 0.1, 0.3))
    assert cons.is_feasible(SamplingPolicy(0.4, 0.4, 0.2))
    assert not cons.is_feasible(SamplingPolicy(0.1, 0.0, 0.39))
    assert not cons.is_feasible(SamplingPolicy(0.0, 0.1, 0.39))
    assert cons.is_feasible(SamplingPolicy(0.3, 0.3, 0.0))


def test_constraints_centralized_dc_binding():
    cons = constraints_for(cen(Task.T1, alpha=1, e1=10, e2=1))
    # DC row: p_x + p_y + 2 p_xy <= 1 dominates
    assert cons.is_feasible(SamplingPolicy(0, 0, 0.5))
    assert not cons.is_feasible(SamplingPolicy(0, 0, 0.51))
    assert cons.is_feasible(SamplingPolicy(0.5, 0.5, 0))
    assert not cons.is_feasible(SamplingPolicy(0.4, 0.4, 0.15))
    assert "dc_budget" in cons.violations(SamplingPolicy(0, 0, 0.51))


def test_constraints_origin_always_feasible():
    for scenario in (
        dec(Task.T1, 0.5, 0.2),
        dec(Task.T3, 4, 0),
        cen(Task.T2, 2, 1, 0),
        cen(Task.T3, 1, math.inf, math.inf),
    ):
        assert constraints_for(scenario).is_feasible(SamplingPolicy(0, 0, 0))


def _hand_written_rows(scenario):
    """The budget rows as they were written by hand before the cost table,
    kept here as the reference for the rows derived from it."""
    alpha, e1, e2 = scenario.budget.alpha, scenario.budget.e1, scenario.budget.e2
    if scenario.setting is Setting.CENTRALIZED:
        return [
            ("sensor_x_budget", (alpha + 1.0, 0.0, alpha + 1.0), e1),
            ("sensor_y_budget", (0.0, alpha + 1.0, alpha + 1.0), e1),
            ("dc_budget", (alpha, alpha, 2.0 * alpha), e2),
        ]
    if scenario.task is Task.T3:
        return [
            ("sensor_x_budget", (1.0, 0.0, 2.0 * alpha + 1.0), e1),
            ("sensor_y_budget", (0.0, 1.0, 2.0 * alpha + 1.0), e1),
        ]
    return [
        ("sensor_x_budget", (1.0, 0.0, alpha + 1.0), e1),
        ("sensor_y_budget", (0.0, 1.0, alpha + 1.0), e1),
        ("no_marginal_x", (1.0, 0.0, 0.0), 0.0),
    ]


_BUDGETS = st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, math.inf]))


@settings(max_examples=300, deadline=None)
@example(alpha=0.1, e1=1.0, e2=1.0, task=Task.T3, setting=Setting.DECENTRALIZED)
@example(alpha=0.1, e1=1.0, e2=1.0, task=Task.T1, setting=Setting.CENTRALIZED)
@given(
    alpha=st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e6), st.just(0.1)),
    e1=_BUDGETS,
    e2=_BUDGETS,
    task=st.sampled_from(Task),
    setting=st.sampled_from(Setting),
)
def test_derived_rows_equal_hand_written_rows_bit_for_bit(alpha, e1, e2, task, setting):
    # at alpha = 0.1, (1 + alpha) + alpha != 2 alpha + 1: rows must price
    # obs + alpha (tx + rx), not sum the ledger's shares
    centralized = setting is Setting.CENTRALIZED
    scenario = Scenario(task, setting, ResourceBudget(alpha, e1, e2 if centralized else None))
    rows = constraints_for(scenario).rows
    assert rows[:4] == _BASE_ROWS
    derived = [(r.name, r.coeffs, r.bound) for r in rows[4:]]
    assert repr(derived) == repr(_hand_written_rows(scenario))


# --- prioritization threshold ---


def test_threshold_decentralized_values():
    assert joint_priority_threshold(2, Setting.DECENTRALIZED) == pytest.approx(
        math.sqrt(2 / 3), rel=1e-12
    )
    assert joint_priority_threshold(0, Setting.DECENTRALIZED) == 0.0


def test_threshold_centralized_is_sqrt_half():
    value = joint_priority_threshold(2, Setting.CENTRALIZED)
    assert value == pytest.approx(0.7071067811865476, rel=1e-12)
    # matches the cost-ratio-1 decentralized special case
    assert value == joint_priority_threshold(1, Setting.DECENTRALIZED)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda alpha: joint_priority_threshold(alpha, Setting.DECENTRALIZED),
        lambda alpha: joint_priority_threshold(alpha, Setting.CENTRALIZED),
        lambda alpha: plan_t1_closed_form(alpha, 2.0, model(0.5)),
    ],
    ids=["threshold_decentralized", "threshold_centralized", "closed_form"],
)
def test_direct_calls_reject_alpha_like_budget(call, alpha):
    # the same rule and message as ResourceBudget, which the CLI goes through
    message = f"alpha must be finite and >= 0, got {alpha}"
    with pytest.raises(InvalidScenario, match=message) as budget:
        ResourceBudget(alpha, 2.0)
    with pytest.raises(InvalidScenario) as direct:
        call(alpha)
    assert str(direct.value) == str(budget.value)


# --- closed-form planner ---


def test_closed_form_moderate_budget_low_rho():
    result = plan_t1_closed_form(2, 2, model(0.5))
    assert result.policy.p_y == pytest.approx(0.5)
    assert result.policy.p_xy == pytest.approx(0.5)
    assert result.method is Method.CLOSED_FORM
    assert not result.tie


def test_closed_form_stringent_budget():
    result = plan_t1_closed_form(2, 0.8, model(0.5))
    assert result.policy.p_xy == 0.0
    assert result.policy.p_y == pytest.approx(0.8)


def test_closed_form_high_rho_spends_all_on_joint():
    result = plan_t1_closed_form(2, 2, model(0.9))
    assert result.policy.p_xy == pytest.approx(2 / 3)
    assert result.policy.p_y == 0.0


def test_closed_form_ample_budget():
    for rho in (0.1, 0.5, 0.9):
        result = plan_t1_closed_form(2, 3.5, model(rho))
        assert result.policy.p_xy == 1.0


def test_closed_form_tie_at_threshold():
    rho_star = math.sqrt(2 / 3)
    assert plan_t1_closed_form(2, 2, model(rho_star)).tie
    assert not plan_t1_closed_form(2, 2, model(rho_star + 1e-3)).tie
    assert not plan_t1_closed_form(2, 2, model(rho_star - 1e-3)).tie


def test_closed_form_policy_feasible():
    for alpha in (0.0, 0.5, 2.0, 4.0):
        for e1 in (0.0, 0.3, 1.0, 1.7, alpha + 1.0, alpha + 2.0):
            result = plan_t1_closed_form(alpha, e1, model(0.6))
            cons = constraints_for(dec(Task.T1, alpha, e1))
            assert cons.is_feasible(result.policy), (alpha, e1)


# --- vertex-enumeration planner ---


def test_plan_linear_matches_closed_form_spot():
    scenario = dec(Task.T1, 2, 2)
    result = plan_linear(scenario, model(0.5))
    assert result.policy.p_y == pytest.approx(0.5, abs=1e-12)
    assert result.policy.p_xy == pytest.approx(0.5, abs=1e-12)
    assert result.method is Method.VERTEX_ENUM


def test_plan_linear_rejects_t3():
    with pytest.raises(InvalidScenario):
        plan_linear(dec(Task.T3, 1, 1), model(0.5))


def test_plan_linear_centralized_large_budgets():
    result = plan_linear(cen(Task.T1, 2, 3, 100), model(0.9))
    assert result.policy.p_xy == pytest.approx(1.0)


def test_plan_linear_centralized_dc_bound():
    result = plan_linear(cen(Task.T1, 2, 10, 1), model(0.9))
    assert result.policy.p_xy == pytest.approx(0.25, abs=1e-9)
    assert result.policy.p_x == pytest.approx(0.0, abs=1e-12)
    assert result.policy.p_y == pytest.approx(0.0, abs=1e-12)


def test_plan_linear_proves_marginal_x_useless():
    # rebuild the t1 polytope WITHOUT the p_x = 0 row: the optimizer must
    # discover p_x = 0 on its own since p_x consumes budget without reward
    scenario = cen(Task.T1, 2, 2, 2)
    rows = tuple(
        r for r in constraints_for(scenario).rows if r.name != "no_marginal_x"
    )
    m = model(0.6)
    shrink = 1 - m.rho**2
    vertex, value, _ = maximize_linear(
        LinearConstraintSet(rows), (0.0, 1.0 / m.var_y, 1.0 / (shrink * m.var_y))
    )
    assert vertex[0] == pytest.approx(0.0, abs=1e-12)
    assert value > 0


def test_plan_linear_agreement_smoke():
    # closed form and vertex enumeration give the same bound everywhere
    for alpha in (0.5, 2.0):
        for e1 in (0.4, 1.0, 1.8, alpha + 1.2):
            for rho in (0.0, 0.4, 0.82, 0.95):
                m = model(rho)
                a = plan_t1_closed_form(alpha, e1, m)
                b = plan_linear(dec(Task.T1, alpha, e1), m)
                assert a.objective_value == pytest.approx(
                    b.objective_value, rel=1e-9
                ), (alpha, e1, rho)
                if not (a.tie or b.tie):
                    assert a.policy.p_y == pytest.approx(b.policy.p_y, abs=1e-9)
                    assert a.policy.p_xy == pytest.approx(b.policy.p_xy, abs=1e-9)


@settings(max_examples=300, deadline=None)
@example(alpha=2.0, e1=2.0, rho=math.sqrt(2 / 3), var_y=1.0)
@example(alpha=2.0, e1=3.0, rho=0.5, var_y=1.0)
@example(alpha=0.0, e1=1.0, rho=0.0, var_y=1.0)
@given(
    alpha=st.floats(0.0, 4.0),
    e1=st.one_of(st.floats(0.0, 6.0), st.sampled_from([0.0, 1.0, math.inf])),
    rho=st.floats(-0.999, 0.999),
    var_y=st.floats(0.01, 100.0),
)
def test_closed_form_matches_plan_linear(alpha, e1, rho, var_y):
    # Compared as information 1/crb, within rel 1e-9 plus what the
    # enumerator's feasibility tolerance lets its vertices move: it accepts
    # rows violated by FEASIBILITY_TOL (alpha = 1e-9, e1 = 1 takes p_xy = 1)
    # and ties values 1e-15 apart (e1 = 1e-45 gives the origin, crb = inf).
    m = validate((0, 0, 1.0, var_y, rho))
    closed = plan_t1_closed_form(alpha, e1, m)
    linear = plan_linear(dec(Task.T1, alpha, e1), m)
    info_c, info_l = 1.0 / closed.objective_value, 1.0 / linear.objective_value
    slack = 2.0 * FEASIBILITY_TOL / ((1.0 - rho * rho) * var_y)
    assert abs(info_c - info_l) <= 1e-9 * max(info_c, info_l) + slack
    if not (closed.tie or linear.tie):
        assert closed.policy.as_tuple() == pytest.approx(
            linear.policy.as_tuple(), abs=2.0 * FEASIBILITY_TOL
        )


def test_plan_linear_threshold_jump_bracketed():
    alpha, e1 = 2.0, 2.0
    rho_star = joint_priority_threshold(alpha, Setting.DECENTRALIZED)
    scenario = dec(Task.T1, alpha, e1)

    def joint_first(rho):
        return plan_linear(scenario, model(rho)).policy.p_xy > 0.58

    lo, hi = 0.7, 0.9
    assert not joint_first(lo) and joint_first(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if joint_first(mid):
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - rho_star) <= 1e-6


def test_plan_linear_infeasible_guard_unreachable():
    # zero budgets still leave the origin; planner reports an infinite bound
    result = plan_linear(dec(Task.T1, 2, 0), model(0.5))
    assert math.isinf(result.objective_value)


# --- t3 grid planner ---


def test_plan_t3_unconstrained_flat_optimum():
    for rho in (0.0, 0.3, 0.6, 0.9):
        result = plan_t3(dec(Task.T3, 2, math.inf, Target.MU_X), model(rho))
        assert result.objective_value == pytest.approx(1.0, abs=1e-4)
        assert result.tie
        assert result.method is Method.GRID_REFINE


def test_plan_t3_zero_budget_degenerate():
    with pytest.raises(SingularEverywhere):
        plan_t3(dec(Task.T3, 2, 0), model(0.5))


def test_plan_t3_centralized_interior_optimum():
    result = plan_t3(cen(Task.T3, 2, 2, 2, Target.MU_X), model(0.8))
    assert result.policy.p_x > 0
    assert result.policy.p_y > 0
    assert result.policy.p_xy > 0
    # cross-check against an independent fine brute-force grid
    grid = np.linspace(0.0, 1.0, 401)
    best = math.inf
    cons = constraints_for(cen(Task.T3, 2, 2, 2, Target.MU_X))
    m = model(0.8)
    for px in grid:
        for pxy in grid[grid <= 1.0 - px + 1e-12]:
            py = min(1.0 - px - pxy, 2 / 3 - pxy, 1.0 - px - 2 * pxy)
            if py < 0:
                continue
            pol = SamplingPolicy.clamped(px, py, pxy)
            if not cons.is_feasible(pol):
                continue
            if pol.p_x == 0.0 and pol.p_xy == 0.0:
                continue  # no information about mu_x at all
            best = min(best, crb_t3(pol, m, Target.MU_X))
    assert result.objective_value <= best + 1e-5


def _reference_plan_t3(scenario, m):
    """plan_t3 with its coarse pass over the full 101^3 cube and every row."""
    cons = constraints_for(scenario)
    target = scenario.target
    axis = np.linspace(0.0, 1.0, 101)
    gx, gy, gj = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    mask = cons.feasibility_mask(gx, gy, gj)
    if not mask.any():
        raise InfeasibleScenario("no feasible grid point")
    gx, gy, gj = gx[mask], gy[mask], gj[mask]
    values = _crb_t3_array(gx, gy, gj, m, target)
    best = values.min()
    if math.isinf(best):
        raise SingularEverywhere("infinite everywhere")
    near = values <= best * (1.0 + 1e-9)
    tie = any(c[near].max() - c[near].min() > 0.025 for c in (gx, gy, gj))
    idx = _lexicographic_best(values, gx, gy, gj)
    incumbent = np.array([gx[idx], gy[idx], gj[idx]])
    for step in (1e-3, 1e-4, 1e-5):
        axes = [np.clip(c + np.arange(-10, 11) * step, 0.0, 1.0) for c in incumbent]
        rx, ry, rj = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        keep = cons.feasibility_mask(rx, ry, rj)
        rx, ry, rj = rx[keep], ry[keep], rj[keep]
        idx = _lexicographic_best(_crb_t3_array(rx, ry, rj, m, target), rx, ry, rj)
        incumbent = np.array([rx[idx], ry[idx], rj[idx]])
    policy = SamplingPolicy.clamped(*incumbent)
    if not cons.is_feasible(policy):
        raise InfeasibleScenario("refined policy infeasible")
    return PlanResult(policy, float(crb_t3(policy, m, target)), Method.GRID_REFINE, tie)


def _outcome(planner, scenario, m):
    try:
        return planner(scenario, m)
    except (InfeasibleScenario, SingularEverywhere) as exc:
        return type(exc)


def test_crb_t3_array_equals_scalar_crb_bit_for_bit():
    # the grid and fisher.crb read the same t3 information entries
    rng = np.random.default_rng(20221018)
    for rho, var_x, var_y in ((0.0, 1.0, 1.0), (0.8, 2.0, 0.5), (-0.95, 0.3, 4.0)):
        m = model(rho, var_x, var_y)
        p = rng.dirichlet(np.ones(4), size=400)[:, :3]
        p[::5, 2] = 0.0  # no joint slots: the singular, decoupled branch
        p[::15, 0] = 0.0  # ... with mu_x unobserved there: inf
        for target in Target:
            got = _crb_t3_array(p[:, 0], p[:, 1], p[:, 2], m, target).tolist()
            want = [crb(Task.T3, target, SamplingPolicy(*row), m) for row in p.tolist()]
            assert got == want
            assert math.inf in want or target is Target.MU_Y


def test_plan_t3_matches_full_cube_reference():
    rng = random.Random(20220601)

    def budget():
        return rng.choice((0.0, math.inf)) if rng.random() < 0.3 else rng.uniform(0.0, 4.0)

    for i in range(40):
        alpha = 0.0 if i % 8 == 0 else rng.uniform(0.0, 4.0)
        target = (Target.MU_X, Target.MU_Y)[i % 2]
        if i % 4 < 2:
            scenario = dec(Task.T3, alpha, budget(), target)
        else:
            scenario = cen(Task.T3, alpha, budget(), budget(), target)
        m = validate((0, 0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                      rng.uniform(-0.95, 0.95)))
        expected = _outcome(_reference_plan_t3, scenario, m)
        assert _outcome(plan_t3, scenario, m) == expected, scenario


def test_simplex_grid_is_the_masked_cube_cached_and_read_only():
    axis = np.linspace(0.0, 1.0, 101)
    cube = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")])
    mask = cube[0] + cube[1] + cube[2] <= 1.0 + FEASIBILITY_TOL
    grid = _simplex_grid()
    assert grid.shape == (3, 176851)
    np.testing.assert_array_equal(axis.take(grid), cube[:, mask])
    assert not grid.flags.writeable
    assert _simplex_grid() is grid


def test_plan_t3_policy_always_feasible():
    cases = [
        (dec(Task.T3, 2, 1.5), 0.5),
        (dec(Task.T3, 0.5, 1.0, Target.MU_Y), 0.8),
        (cen(Task.T3, 2, 2, 2), 0.8),
        (cen(Task.T3, 1, 3, 1, Target.MU_Y), 0.4),
    ]
    for scenario, rho in cases:
        result = plan_t3(scenario, model(rho))
        cons = constraints_for(scenario)
        assert cons.is_feasible(result.policy)


def test_plan_t3_objective_nonincreasing_in_budget():
    values_e1 = [
        plan_t3(dec(Task.T3, 2, e1), model(0.8)).objective_value
        for e1 in (0.5, 1.0, 2.0, 5.0)
    ]
    assert all(a >= b - 1e-6 for a, b in zip(values_e1, values_e1[1:]))
    values_e2 = [
        plan_t3(cen(Task.T3, 2, 3, e2), model(0.8)).objective_value
        for e2 in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a >= b - 1e-6 for a, b in zip(values_e2, values_e2[1:]))


def test_plan_dispatcher_routes_by_scenario():
    m = model(0.5)
    assert plan(dec(Task.T1, 2, 2), m).method is Method.CLOSED_FORM
    assert plan(cen(Task.T2, 2, 2, 2), m).method is Method.VERTEX_ENUM
    assert plan(cen(Task.T3, 2, 2, 2), m).method is Method.GRID_REFINE


@pytest.mark.parametrize(
    "scenario",
    [dec(Task.T1, 2, 0), dec(Task.T2, 0.5, 0), cen(Task.T1, 2, 2, 0), cen(Task.T2, 2, 1, 0)],
    ids=["t1_dec_e1", "t2_dec_e1", "t1_cen_e2", "t2_cen_e2"],
)
def test_plan_raises_singular_everywhere_at_zero_budget_for_every_task(scenario):
    # one rule for every task, as plan_t3 does; the planners themselves
    # still return crb = inf, which the figure presets print
    m = model(0.5)
    with pytest.raises(SingularEverywhere, match="infinite over the entire feasible region"):
        plan(scenario, m)
    direct = (
        plan_linear(scenario, m)
        if scenario.setting is Setting.CENTRALIZED
        else plan_t1_closed_form(scenario.budget.alpha, 0.0, m)
    )
    assert direct.objective_value == math.inf


def test_t2_planning_reuses_t1_solution():
    # unknown correlation leaves the mean entry of the (diagonal) information
    # matrix untouched, so the optimal policy coincides with the t1 answer
    m = model(0.82)
    for scenario_t1, scenario_t2 in [
        (dec(Task.T1, 2, 1.4), dec(Task.T2, 2, 1.4)),
        (cen(Task.T1, 2, 2, 1.2), cen(Task.T2, 2, 2, 1.2)),
    ]:
        a = plan(scenario_t1, m)
        b = plan(scenario_t2, m)
        assert a.policy == b.policy
        assert a.objective_value == b.objective_value


def test_constraint_slack_evaluation():
    row = Constraint("sensor_y_budget", (0.0, 1.0, 3.0), 2.0)
    assert row.slack(SamplingPolicy(0, 0.5, 0.5)) == pytest.approx(0.0)
    assert row.value(0.0, 1.0, 0.0) == 1.0
