import contextlib
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crbplan import (
    BoundOverflow,
    InvalidScenario,
    Method,
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
    plan,
    plan_linear,
    plan_t1_closed_form,
    plan_t3,
    validate,
)
from crbplan.fisher import _t3_schur, crb_array
from crbplan.strategy import (
    _BASE_ROWS,
    Constraint,
    LinearConstraintSet,
    _feasibility,
    _feasible,
    _load,
    _solve,
    _stack,
    _t3_edge_points,
    _vertices,
    enumerate_vertices,
    plan_stack,
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


def test_budget_stores_negative_zero_as_zero():
    budget = ResourceBudget(2.0, -0.0, -0.0)
    assert budget == ResourceBudget(2.0, 0.0, 0.0)
    assert math.copysign(1.0, budget.e1) == math.copysign(1.0, budget.e2) == 1.0


def test_scenario_e2_presence_matches_setting():
    with pytest.raises(InvalidScenario):
        Scenario(Task.T1, Setting.CENTRALIZED, ResourceBudget(1, 1))
    with pytest.raises(InvalidScenario):
        Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(1, 1, 1))


def test_scenario_default_target():
    assert dec(Task.T1, 1, 1).target is Target.MU_Y
    assert dec(Task.T3, 1, 1).target is Target.MU_X


@pytest.mark.parametrize("task", [Task.T1, Task.T2])
@pytest.mark.parametrize("setting", list(Setting))
def test_scenario_refuses_an_x_target_of_a_one_mean_task(task, setting):
    budget = ResourceBudget(1, 1, 1 if setting is Setting.CENTRALIZED else None)
    with pytest.raises(InvalidScenario, match=(
        f"^task {task.value} bounds the Y mean only: target mu_x needs task t3$"
    )):
        Scenario(task, setting, budget, Target.MU_X)
    assert Scenario(task, setting, budget, Target.MU_Y).target is Target.MU_Y


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


def test_feasibility_rule_is_relative_to_each_coefficient():
    # a row holds to 1e-9 (|b| + |c|.|p|): rounding of its own load, at any scale
    cons = constraints_for(dec(Task.T1, 1.0, 1.0))
    assert cons.is_feasible(SamplingPolicy(0.0, 1.0, 0.0))
    assert "no_marginal_x" in cons.violations(SamplingPolicy(1e-17, 0.5, 0.0))
    assert "no_marginal_x" in cons.violations(SamplingPolicy(2.4e-45, 2.4e-45, 0.0))
    # a tiny data-center row: 1e-9 of its own size, not 1e-9 absolute
    tiny = constraints_for(cen(Task.T1, 1e-13, 10.0, 1e-14))
    assert tiny.is_feasible(SamplingPolicy(0.0, 0.1, 0.0))
    assert "dc_budget" in tiny.violations(SamplingPolicy(0.0, 0.1 * (1 + 1e-8), 0.0))
    assert "dc_budget" in tiny.violations(SamplingPolicy(0.0, 0.0, 1.0))
    # a huge alpha: the joint cost 2e9 + 1 does not hide the observation cost
    # 1, which a normwise rule, 1e-9 (|b| + |c|_1 |p|_inf), would
    wide = constraints_for(dec(Task.T3, 1e9, 0.5))
    assert wide.is_feasible(SamplingPolicy(0.5 * (1 + 1e-10), 0.0, 0.0))
    assert "sensor_x_budget" in wide.violations(SamplingPolicy(1.0, 0.0, 0.0))


@settings(max_examples=200, deadline=None)
@given(
    scenario=st.builds(
        cen, st.sampled_from(Task), st.floats(0.0, 4.0), _budget_draw := st.one_of(
            st.floats(0.0, 4.0), st.sampled_from([0.0, 1e-14, math.inf])
        ), _budget_draw,
    ),
    p=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_feasibility_mask_is_is_feasible_vectorized(scenario, p):
    p = [v / max(1.0, sum(p)) for v in p]
    mask = _feasibility(scenario, np.array([p]))
    assert mask.tolist() == [constraints_for(scenario).is_feasible(SamplingPolicy(*p))]


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
    # obs + alpha (tx + rx), not obs + alpha tx + alpha rx
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


def _tie_grid():
    """Scenarios at and near rho = 0 and the joint-priority threshold, and
    at the budgets where the vertices meet or saturate."""
    for alpha in (0.0, 0.5, 2.0, 100.0):
        thr = math.sqrt(alpha / (alpha + 1.0))
        for rho in (0.0, 1e-9, -1e-9, 1e-7, thr, -thr, 0.5, -0.95):
            for e1 in (0.0, 0.5, 1.0, 2.0, alpha + 1.0, alpha + 2.0, math.inf):
                yield alpha, rho, e1


def test_closed_form_ties_as_plan_linear():
    # one tie rule: the closed form returns the exact solver's policy and tie
    # flag, also where rho^2 is 0 or the threshold within rounding
    cases = list(_tie_grid())
    assert len(cases) == 224
    for alpha, rho, e1 in cases:
        m = model(rho)
        closed = plan_t1_closed_form(alpha, e1, m)
        exact = plan_linear(dec(Task.T1, alpha, e1), m)
        assert closed.policy.as_tuple() == pytest.approx(
            exact.policy.as_tuple(), rel=0.0, abs=1e-9
        ), (alpha, rho, e1)
        assert closed.tie == exact.tie, (alpha, rho, e1)
    # at rho = 0 the fewest communicated samples win
    result = plan_t1_closed_form(2.0, 2.0, model(0.0))
    assert result.policy.as_tuple() == (0.0, 1.0, 0.0) and result.tie


def test_solve_breaks_ties_by_p_x_before_p_y():
    # equal p_xy and values within _TIE_REL: the smaller p_x wins, although
    # its p_y is the larger
    scenario = cen(Task.T1, 1.0, 10.0, 10.0)
    c, b = _stack("centralized", 1.0, 10.0, 10.0)
    candidates = np.array([[[0.2, 0.3, 0.1], [0.0, 0.3 + 1e-14, 0.1]]])
    (result,) = _solve([scenario], [model(0.0)], c[None], b[None], candidates,
                       np.full((1, 2), True), Method.VERTEX_ENUM)
    assert result.policy.as_tuple() == (0.0, 0.3 + 1e-14, 0.1)
    assert result.tie


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
    # the centralized t1 polytope has no p_x = 0 row: the optimizer must
    # discover p_x = 0 on its own since p_x consumes budget without reward
    scenario = cen(Task.T1, 2, 2, 2)
    assert "no_marginal_x" not in [r.name for r in constraints_for(scenario).rows]
    result = plan_linear(scenario, model(0.6))
    assert result.policy.p_x == pytest.approx(0.0, abs=1e-12)
    assert math.isfinite(result.objective_value)


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
@example(alpha=0.0, e1=2.2e-309, rho=0.0, var_y=1.0)  # the standardized bound overflows
@given(
    alpha=st.floats(0.0, 4.0),
    e1=st.one_of(st.floats(0.0, 6.0), st.sampled_from([0.0, 1.0, math.inf])),
    rho=st.floats(-0.999, 0.999),
    var_y=st.floats(0.01, 100.0),
)
def test_closed_form_matches_plan_linear(alpha, e1, rho, var_y):
    # Compared as information 1/crb, within rel 1e-9 plus what the
    # feasibility rule lets a vertex overshoot: each row holds to 1e-9 (|b| +
    # |c|.|p|), which for these nonnegative rows and policies relaxes a bound
    # by at most 2e-9 of itself (alpha = 2e-9, e1 = 1 takes p_xy = 1), and
    # the information, homogeneous in the bounds, grows by as much.
    m = validate((0, 0, 1.0, var_y, rho))
    # a subnormal budget leaves no finite bound: the information underflows
    # to 0 (crb=inf) or is positive with a bound that overflows; either way
    # both planners must say so, so an overflow counts as information 0
    plans = []
    for planner in (lambda: plan_t1_closed_form(alpha, e1, m),
                    lambda: plan_linear(dec(Task.T1, alpha, e1), m)):
        try:
            plans.append(planner())
        except BoundOverflow:
            plans.append(None)
    closed, linear = plans
    info_c, info_l = (0.0 if p is None else 1.0 / p.objective_value for p in plans)
    rel = 3e-9
    assert abs(info_c - info_l) <= rel * max(info_c, info_l)
    # at info 0 (e1 = 5e-324 underflows p_xy = e1 / (alpha + 1)) every
    # policy is as good as any other
    if not (info_c == 0.0 or closed.tie or linear.tie):
        size = max(closed.policy.as_tuple())
        assert closed.policy.as_tuple() == pytest.approx(
            linear.policy.as_tuple(), rel=0.0, abs=rel * size
        )


def _dense_feasible_sample(scenario, rng, n=3000):
    """n random feasible policies: Dirichlet directions, a third of them with
    one coordinate zeroed, each pushed along its ray to the polytope's
    boundary, where every optimum lies."""
    d = rng.dirichlet(np.ones(3), size=n)
    d[np.arange(n // 3), rng.integers(0, 3, n // 3)] = 0.0
    rows = [r for r in constraints_for(scenario).rows if math.isfinite(r.bound)]
    for row in rows:  # a zero budget on non-negative coefficients pins them
        if row.bound == 0.0 and min(row.coeffs) >= 0.0:
            d[:, np.array(row.coeffs) > 0.0] = 0.0
    scale = np.full(n, math.inf)
    for row in rows:
        load = d @ row.coeffs
        with np.errstate(over="ignore"):  # a huge bound over a tiny load: no limit
            limit = row.bound / np.where(load > 0.0, load, 1.0)
        np.minimum(scale, limit, out=scale, where=load > 0.0)
    scale[np.isinf(scale)] = 0.0  # an all-pinned direction: the origin
    return [SamplingPolicy.clamped(*p) for p in (d * scale[:, None]).tolist()]


def _least_sampled_bound(scenario, m, rng, n=3000):
    """The least bound over :func:`_dense_feasible_sample`; a bound that
    overflows (a subnormal budget) counts as inf."""
    best = math.inf
    for p in _dense_feasible_sample(scenario, rng, n):
        with contextlib.suppress(BoundOverflow):
            best = min(best, crb(scenario.task, scenario.target, p, m))
    return best


def _brute_force_linear_bound(scenario, m):
    """The least bound over every intersection of three row planes that is
    feasible once clipped to p >= 0, one scalar solve and one fisher.crb
    call at a time.  A triple counts when its determinant is not zero; a
    finite point satisfies a row when c.p - b <= 1e-9 (|b| + |c|.|p|).
    Raises BoundOverflow when no bound is finite but some point carries
    information, or only an exact rational vertex does (no float point reaches it)."""
    cons = constraints_for(scenario)
    rows = [r for r in cons.rows if math.isfinite(r.bound)]
    best, overflow = math.inf, None
    for triple in itertools.combinations(rows, 3):
        a = np.array([r.coeffs for r in triple])
        with np.errstate(all="ignore"):  # subnormal alpha
            if not abs(np.linalg.det(a)) > 0.0:
                continue
            p = np.maximum(np.linalg.solve(a, [r.bound for r in triple]), 0.0)
        if np.isfinite(p).all() and all(
            _load(r.coeffs, *p) - r.bound <= 1e-9 * (abs(r.bound) + np.abs(r.coeffs) @ np.abs(p))
            for r in rows
        ):
            policy = SamplingPolicy.clamped(*p)
            try:
                best = min(best, crb(scenario.task, scenario.target, policy, m))
            except BoundOverflow as exc:
                overflow = exc
    if best == math.inf and overflow:
        raise overflow
    if best == math.inf and any(_exact_vertex_informs(t, rows) for t in itertools.combinations(rows, 3)):
        raise BoundOverflow("an exact vertex informs, but its bound overflows")
    return best


def _det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _exact_vertex_informs(triple, rows):
    """Whether the triple's planes meet, in exact rational arithmetic, at a
    point that satisfies every row exactly and has p_y or p_xy positive."""
    a = [[Fraction(v) for v in r.coeffs] for r in triple]
    b = [Fraction(r.bound) for r in triple]
    det = _det3(a)
    if det == 0:
        return False
    p = [_det3([row[:i] + [v] + row[i + 1:] for row, v in zip(a, b)]) / det for i in range(3)]
    holds = all(sum(Fraction(c) * q for c, q in zip(r.coeffs, p)) <= Fraction(r.bound) for r in rows)
    return holds and (p[1] > 0 or p[2] > 0)


@settings(max_examples=200, deadline=None)
@example(task=Task.T1, centralized=False, alpha=1.0, e1=2.4e-45, e2=0.0, rho=0.5)
@example(task=Task.T1, centralized=True, alpha=1.0, e1=1.0, e2=1e-12, rho=0.5)
@example(task=Task.T2, centralized=True, alpha=0.0, e1=1.0, e2=1.0, rho=0.0)
@example(task=Task.T1, centralized=False, alpha=0.0, e1=5e-324, e2=0.0, rho=0.0)
@example(task=Task.T1, centralized=True, alpha=1.0, e1=5e-324, e2=1.0, rho=0.0)  # p_y = 2.5e-324
@given(
    task=st.sampled_from([Task.T1, Task.T2]),
    centralized=st.booleans(),
    alpha=st.one_of(st.floats(0.0, 4.0), st.just(0.0)),
    e1=_BUDGETS,
    e2=_BUDGETS,
    rho=st.one_of(st.floats(-0.99, 0.99), st.just(0.0)),
)
def test_plan_linear_agrees_with_brute_force(task, centralized, alpha, e1, e2, rho):
    scenario = cen(task, alpha, e1, e2) if centralized else dec(task, alpha, e1)
    m = model(rho)
    try:
        brute = _brute_force_linear_bound(scenario, m)
    except BoundOverflow:  # a subnormal budget: every informative bound overflows
        with pytest.raises(BoundOverflow):
            plan_linear(scenario, m)
        return
    result = plan_linear(scenario, m)
    assert constraints_for(scenario).is_feasible(result.policy)
    assert result.objective_value == pytest.approx(brute, rel=1e-9)
    rng = np.random.default_rng(5)
    sample = _least_sampled_bound(scenario, m, rng, 500)
    assert result.objective_value <= sample * (1.0 + 1e-12)


def test_plan_linear_keeps_a_tiny_budget_vertex():
    # vertices 2.4e-45 apart are distinct; the closed form gives the same bound
    m = model(0.5)
    result = plan_linear(dec(Task.T1, 1.0, 2.4e-45), m)
    assert result.objective_value == pytest.approx(
        plan_t1_closed_form(1.0, 2.4e-45, m).objective_value, rel=1e-12
    )
    assert result.objective_value == pytest.approx(4.1667e44, rel=1e-4)
    assert not result.tie  # p_x = 2.4e-45 breaks the pinned no_marginal_x row


@pytest.mark.parametrize("task, target", [(Task.T1, None), (Task.T3, Target.MU_X)])
def test_tiny_dc_budget_is_not_overspent(task, target):
    # alpha = 1e-13: the data-center row (1e-13, 1e-13, 2e-13) . p <= 1e-14;
    # p_xy = 1 loads it 20-fold, the marginal share 0.1 exactly
    scenario = cen(task, 1e-13, 10.0, 1e-14, target)
    result = (plan_t3 if task is Task.T3 else plan_linear)(scenario, model(0.5))
    marginal = result.policy.p_x if task is Task.T3 else result.policy.p_y
    assert marginal == pytest.approx(0.1, rel=1e-12)
    assert result.policy.p_xy == 0.0
    assert result.objective_value == pytest.approx(10.0, rel=1e-12)
    assert constraints_for(scenario).is_feasible(result.policy)


def test_zero_dc_budget_leaves_no_information():
    # e2 = 0 pins every slot kind the data center pays for; p_y = 6e-10 is
    # not rounding of 0
    result = plan_linear(cen(Task.T1, 1.0, 1.2e-9, 0.0), model(0.5))
    assert result.objective_value == math.inf
    assert result.policy.as_tuple() == (0.0, 0.0, 0.0)


def test_closed_form_tie_at_a_tiny_budget():
    # at the threshold the whole budget face is optimal for every e1 > 0,
    # as the vertex enumerator reports
    m = model(math.sqrt(2 / 3))
    assert plan_t1_closed_form(2.0, 1e-13, m).tie
    assert plan_linear(dec(Task.T1, 2.0, 1e-13), m).tie


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


def test_plan_linear_snaps_a_feasible_pick_at_large_alpha():
    # _limit admits the simplex row up to 1 + 2e-9 here; the pick sums to
    # 1 + 1.6e-9, which an absolute 1e-9 snap once refused as InvalidPolicy
    scenario = dec(Task.T1, 41989319.75953062, 27189803.508935746)
    result = plan_linear(scenario, model(0.7198589782832581))
    assert sum(result.policy.as_tuple()) <= 1.0
    assert constraints_for(scenario).is_feasible(result.policy)
    assert math.isfinite(result.objective_value)


@pytest.mark.parametrize("setting", list(Setting))
def test_plan_linear_subnormal_budget_overflows(setting):
    # (1 - rho^2) p_y underflows at p_y = 5e-324; centralized, every positive
    # policy rounds past the budget row: the information is positive either way
    e2 = 1.0 if setting is Setting.CENTRALIZED else None
    scenario = Scenario(Task.T1, setting, ResourceBudget(0.5, 5e-324, e2))
    with pytest.raises(BoundOverflow, match="too small to invert"):
        plan_linear(scenario, model(0.75))


def _random_budget(rng, high):
    draw = rng.random()
    return math.inf if draw < 0.2 else 0.0 if draw < 0.35 else rng.uniform(0.0, high)


def _random_stack(rng, task, setting, target):
    scenarios, models = [], []
    for _ in range(rng.randint(1, 30)):
        alpha = rng.choice([0.0, rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-4.0, 3.0)])
        e1 = _random_budget(rng, 2.0 * alpha + 2.0)
        e2 = _random_budget(rng, 2.0 * alpha + 3.0) if setting is Setting.CENTRALIZED else None
        scenarios.append(Scenario(task, setting, ResourceBudget(alpha, e1, e2), target))
        models.append(model(rng.choice([0.0, rng.uniform(-0.99, 0.99)]),
                            rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)))
    return scenarios, models


def _single(scenario, m):
    """The single planner's record, the error it raises, or ``math.inf``
    where :func:`plan_t3` raises ``SingularEverywhere``."""
    planner = plan_t3 if scenario.task is Task.T3 else plan_linear
    try:
        return repr(planner(scenario, m).as_record())
    except SingularEverywhere:
        return math.inf
    except BoundOverflow as exc:
        return exc


@pytest.mark.parametrize("task", list(Task))
@pytest.mark.parametrize("setting", list(Setting))
def test_plan_stack_equals_the_single_planners_bit_for_bit(task, setting):
    # random stacks mixing finite, inf and 0 budgets: each entry's policy,
    # bound, tie and method equal plan_linear's or plan_t3's, an entry reads
    # crb=inf where plan_t3 raises SingularEverywhere, and a stack raises
    # what its first overflowing scenario raises
    rng = random.Random(f"{task.value}-{setting.value}")
    compared = 0
    for trial in range(25):
        target = rng.choice(list(Target)) if task is Task.T3 else None
        scenarios, models = _random_stack(rng, task, setting, target)
        singles = [_single(s, m) for s, m in zip(scenarios, models)]
        failed = [r for r in singles if isinstance(r, Exception)]
        if failed:
            with pytest.raises(type(failed[0]), match=f"^{re.escape(str(failed[0]))}$"):
                plan_stack(scenarios, models)
            kept = [i for i, r in enumerate(singles) if not isinstance(r, Exception)]
            scenarios, models = [scenarios[i] for i in kept], [models[i] for i in kept]
            singles = [singles[i] for i in kept]
        if scenarios:
            got = plan_stack(scenarios, models)
            assert [r.objective_value if want == math.inf else repr(r.as_record())
                    for r, want in zip(got, singles)] == singles
            compared += len(scenarios)
    assert compared > 100


def test_plan_stack_rejects_mixed_stacks():
    t1, t3x, t3y = (
        cen(Task.T1, 2, 1, 1), cen(Task.T3, 2, 1, 1, Target.MU_X), cen(Task.T3, 2, 1, 1, Target.MU_Y)
    )
    for stack in ([t1, t3x], [t3x, t3y], [t1, dec(Task.T1, 2, 1)]):
        with pytest.raises(InvalidScenario):
            plan_stack(stack, [model(0.5)] * 2)


# --- t3 face-enumeration planner ---


def test_plan_t3_unconstrained_flat_optimum():
    for rho in (0.0, 0.3, 0.6, 0.9):
        result = plan_t3(dec(Task.T3, 2, math.inf, Target.MU_X), model(rho))
        assert result.objective_value == pytest.approx(1.0, abs=1e-4)
        assert result.tie
        assert result.method is Method.FACE_ENUM


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


def test_crb_t3_array_equals_scalar_crb_bit_for_bit():
    # the t3 planner and fisher.crb read the same t3 information entries
    rng = np.random.default_rng(20221018)
    for rho in (0.0, 0.8, -0.95):
        unit = model(rho)
        p = rng.dirichlet(np.ones(4), size=400)[:, :3]
        p[::5, 2] = 0.0  # no joint slots: the singular, decoupled branch
        p[::15, 0] = 0.0  # ... with mu_x unobserved there: inf
        for target in Target:
            got = crb_array(Task.T3, target, p[:, 0], p[:, 1], p[:, 2], rho).tolist()
            want = [crb(Task.T3, target, SamplingPolicy(*row), unit) for row in p.tolist()]
            assert got == want
            assert math.inf in want or target is Target.MU_Y


def _full_cube_grid_bound(scenario, m):
    """The bound of the former grid planner, with its coarse pass over the
    full 101^3 cube: step 0.01, then three tenfold refinements of +-10
    steps around the incumbent, ties to the smallest (p_xy, p_x, p_y); inf
    where no grid point has a finite bound."""
    def best(px, py, pxy):
        keep = _feasibility(scenario, np.stack([px, py, pxy], axis=-1))
        px, py, pxy = px[keep], py[keep], pxy[keep]
        values = _t3_schur(px, py, pxy, m.rho, scenario.target is Target.MU_X)[1]
        near = np.flatnonzero(values <= values.min() + max(1e-9 * values.min(), 1e-15))
        i = near[np.lexsort((py[near], px[near], pxy[near]))[0]]
        return values[i], np.array([px[i], py[i], pxy[i]])

    axis = np.linspace(0.0, 1.0, 101)
    value, incumbent = best(*(g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")))
    if math.isinf(value):
        return value
    for step in (1e-3, 1e-4, 1e-5):
        axes = [np.clip(c + np.arange(-10, 11) * step, 0.0, 1.0) for c in incumbent]
        value, incumbent = best(*(g.ravel() for g in np.meshgrid(*axes, indexing="ij")))
    return crb_t3(SamplingPolicy.clamped(*incumbent), m, scenario.target)


def _plan_or_none(scenario, m, planner=plan_t3):
    """The plan, or None where no bound is finite: none carries information,
    or every informative one overflows (a subnormal budget)."""
    try:
        return planner(scenario, m)
    except (SingularEverywhere, BoundOverflow):
        return None


def _seeded_t3_scenarios():
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
        yield scenario, m


def test_plan_t3_is_never_worse_than_the_full_cube_grid():
    for scenario, m in _seeded_t3_scenarios():
        grid = _full_cube_grid_bound(scenario, m)
        result = _plan_or_none(scenario, m)
        bound = math.inf if result is None else result.objective_value
        assert bound <= grid * (1.0 + 1e-12), scenario


def _check_t3_beats_the_sample(scenario, m, rng):
    sample = _least_sampled_bound(scenario, m, rng)
    result = _plan_or_none(scenario, m)
    if result is None:
        assert sample == math.inf, scenario
        return
    assert constraints_for(scenario).is_feasible(result.policy)
    assert result.objective_value == crb(Task.T3, scenario.target, result.policy, m)
    assert result.objective_value <= sample * (1.0 + 1e-12), scenario


def test_plan_t3_beats_a_dense_feasible_sample_on_the_seeded_scenarios():
    rng = np.random.default_rng(7)
    for scenario, m in _seeded_t3_scenarios():
        _check_t3_beats_the_sample(scenario, m, rng)


_T3_BUDGETS = st.one_of(
    st.floats(0.0, 4.0), st.floats(1e-4, 0.05), st.sampled_from([0.0, math.inf])
)
_SCENARIO_DRAW = dict(
    centralized=st.booleans(),
    alpha=st.one_of(st.floats(0.0, 4.0), st.just(0.0)),
    e1=_T3_BUDGETS,
    e2=_T3_BUDGETS,
    target=st.sampled_from(Target),
    rho=st.one_of(st.floats(-0.99, 0.99), st.just(0.0)),
)


def _t3_scenario(centralized, alpha, e1, e2, target):
    if centralized:
        return cen(Task.T3, alpha, e1, e2, target)
    return dec(Task.T3, alpha, e1, target)


@settings(max_examples=60, deadline=None)
@example(centralized=True, alpha=2.0, e1=0.02, e2=5.0, target=Target.MU_X, rho=0.5)
@example(centralized=False, alpha=0.58, e1=0.11, e2=0.0, target=Target.MU_Y, rho=-0.82)
@example(centralized=False, alpha=2.0, e1=math.inf, e2=0.0, target=Target.MU_X, rho=0.0)
@given(**_SCENARIO_DRAW)
def test_plan_t3_beats_a_dense_feasible_sample(centralized, alpha, e1, e2, target, rho):
    scenario = _t3_scenario(centralized, alpha, e1, e2, target)
    _check_t3_beats_the_sample(scenario, model(rho), np.random.default_rng(11))


def _standardized_t3(rho, target):
    """``n`` and ``B`` of the standardized bound ``n.p / p'Bp``."""
    a = 1.0 / (1.0 - rho * rho)
    n = np.array([0.0, 1.0, a] if target is Target.MU_X else [1.0, 0.0, a])
    return n, 0.5 * np.array([[0.0, 1.0, a], [1.0, 0.0, a], [a, a, 2.0 * a]])


@pytest.mark.parametrize("target", Target)
@pytest.mark.parametrize(
    "p, rho",
    [((0.2, 0.1, 0.15), 0.8), ((0.1, 0.3, 0.2), 0.5), ((0.3, 0.2, 0.1), 0.9),
     ((0.25, 0.25, 0.05), -0.6), ((0.05, 0.1, 0.3), 0.3)],
)
def test_plan_t3_candidates_reach_an_optimum_inside_a_facet(p, rho, target):
    # a row tangent to the bound's level set at an interior p makes p optimal
    # inside that row's facet; vertices and edge points must reach its bound
    p = np.array(p)
    n, quad = _standardized_t3(rho, target)
    num, den = n @ p, p @ quad @ p
    gradient = n / den - num * 2.0 * (quad @ p) / den**2
    row = Constraint("tangent", tuple(-gradient), -gradient @ p)
    c, b = (a[None] for a in LinearConstraintSet(_BASE_ROWS + (row,))._arrays)
    vertices = _vertices(c, b)
    edges = _t3_edge_points(vertices, np.array([rho]), np.array([target is Target.MU_X]))
    edges, inside = _feasible(edges, c, b)
    candidates = np.concatenate([vertices[0], edges[inside]])
    assert _t3_schur(*candidates.T, rho, target is Target.MU_X)[1].min() <= num / den * (1.0 + 1e-12)


@settings(max_examples=150, deadline=None)
@example(centralized=True, alpha=2.0, e1=2.0, e2=2.0, target=Target.MU_X, rho=0.8)
# a determinant below 1e-14 here once made fisher.crb read the decoupled bound
@example(centralized=True, alpha=0.8125, e1=1.0, e2=1e-4, target=Target.MU_X, rho=0.875)
@given(**_SCENARIO_DRAW)
def test_plan_t3_frank_wolfe_gap_is_round_off(centralized, alpha, e1, e2, target, rho):
    # f is convex, so f(p*) - f* <= max_v grad f(p*).(p* - v) over the
    # vertices v: a certificate that does not rest on the candidate list
    scenario = _t3_scenario(centralized, alpha, e1, e2, target)
    result = _plan_or_none(scenario, model(rho))
    if result is None:
        return
    # the gap over the bound is the same at s p* and s v for every s > 0
    scale = max(result.policy.as_tuple())
    p = np.array(result.policy.as_tuple()) / scale
    vertices = np.array(enumerate_vertices(constraints_for(scenario))) / scale
    n, quad = _standardized_t3(rho, target)
    num, den = n @ p, p @ quad @ p
    if not den > 1e-9:
        return  # a singular matrix, where the bound is not differentiable
    value, gradient = num / den, n / den - num * 2.0 * (quad @ p) / den**2
    assert ((p - vertices) @ gradient).max() <= 1e-9 * value


@settings(max_examples=150, deadline=None)
@example(task=Task.T3, centralized=True, alpha=2.0, e1=2.0, e2=2.0, target=Target.MU_X,
         rho=0.8, var_x=1.0, var_y=1.0, k=-100)
@example(task=Task.T1, centralized=False, alpha=1.0, e1=2.4e-45, e2=0.0, target=Target.MU_Y,
         rho=0.5, var_x=1.0, var_y=1.0, k=100)
@given(
    task=st.sampled_from(Task),
    **_SCENARIO_DRAW,
    var_x=st.floats(0.1, 10.0),
    var_y=st.floats(0.1, 10.0),
    k=st.integers(-100, 100),
)
def test_every_planner_is_scale_free(
    task, centralized, alpha, e1, e2, target, rho, var_x, var_y, k
):
    # I(p) = V^-1/2 J(rho, p) V^-1/2: scaling both variances leaves every
    # optimal policy alone and scales the bound, wherever it is representable
    if task is Task.T3:
        scenario = _t3_scenario(centralized, alpha, e1, e2, target)
        planners = [plan_t3]
    elif centralized:
        scenario = cen(task, alpha, e1, e2)
        planners = [plan_linear]
    else:
        scenario = dec(task, alpha, e1)
        planners = [plan_linear, lambda s, m: plan_t1_closed_form(alpha, e1, m)]
    scale = 10.0**k
    for planner in planners:
        base, scaled = (
            _plan_or_none(scenario, validate((0, 0, var_x * s, var_y * s, rho)), planner)
            for s in (1.0, scale)
        )
        if base is None or scaled is None:
            # no bound at either scale, or only one scale's bound overflows
            kept = base or scaled
            assert kept is None or kept.objective_value * (scale if base else 1 / scale) == math.inf
            continue
        assert base.policy == scaled.policy and base.tie == scaled.tie
        want = base.objective_value * scale
        if sys.float_info.min <= want < math.inf:
            assert scaled.objective_value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "scenario, rho, bound",
    [
        # a budget thinner than the former grid's 0.01 step
        (cen(Task.T3, 2.0, 0.02, 5.0, Target.MU_X), 0.5, 139.95),
        # an optimum on a slanted binding sensor row
        (dec(Task.T3, 0.58, 0.11, Target.MU_Y), -0.82, 13.188),
    ],
    ids=["budget_below_grid", "slanted_face"],
)
def test_plan_t3_finds_the_optimum_the_grid_missed(scenario, rho, bound):
    m = validate((0.3, -0.2, 1.0, 1.5, rho))
    result = plan_t3(scenario, m)
    assert result.objective_value == pytest.approx(bound, rel=1e-4)
    assert constraints_for(scenario).is_feasible(result.policy)


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
    assert plan(cen(Task.T3, 2, 2, 2), m).method is Method.FACE_ENUM


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
    assert row.bound - _load(row.coeffs, 0.0, 0.5, 0.5) == 0.0
    assert _load(row.coeffs, 0.0, 1.0, 0.0) == 1.0
    # at p_xy = 0.6 the row admits a load up to 2 + 1e-9 (|b| + |c|.|p|)
    # = 2 + 4e-9
    rows = LinearConstraintSet((row,))
    assert rows.violations(SamplingPolicy(0, 0.2, 0.6 + 1e-10)) == []
    assert rows.violations(SamplingPolicy(0, 0.2, 0.6 + 1e-8)) == ["sensor_y_budget"]
