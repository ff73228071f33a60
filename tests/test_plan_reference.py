"""The exact planners against a deduplicate-first reference, bit for bit.

The reference keeps the solver that removes every LU copy of a vertex
before ranking (``_reference_vertices``) and ranks the distinct vertices
(``_reference_solve``).  It is about copies, not refusals, so it answers a
budget whose zero rows starve the target up front, by the planners' rule.
The planners deduplicate only near the best, and must give the same policy
``repr``, bound, tie and method, or raise the same error with the same
message.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crbplan import (
    BoundOverflow,
    CrbPlanError,
    ResourceBudget,
    SamplingPolicy,
    Scenario,
    Setting,
    SingularEverywhere,
    Target,
    Task,
    crb,
    joint_priority_threshold,
    plan,
    plan_linear,
    plan_t1_closed_form,
    plan_t3,
    validate,
)
from crbplan.fisher import TOO_SMALL, information
from crbplan.model import RHO_LIMIT
from crbplan.strategy import (
    _SINGULAR_EVERYWHERE,
    _TIE_REL,
    Method,
    PlanResult,
    _columns,
    _compact,
    _equilibrated,
    _family,
    _feasible,
    _first_copies,
    _stack,
    _solve,
    _t3_edge_points,
    _triples,
    plan_stack,
)


def _reference_vertices(c, b):
    """Each system's distinct feasible vertices, (n, v, 3) and nan-padded:
    every LU point, then the first of its copies."""
    triples, pinned = _triples(b.shape[-1])
    lhs, rhs = c[:, triples], b[:, triples]
    points = np.full(rhs.shape, np.nan)
    regular = (np.abs(np.linalg.det(lhs)) > 0.0) & np.isfinite(rhs).all(axis=-1)
    points[regular] = np.linalg.solve(lhs[regular], rhs[regular][..., None])[..., 0]
    points = np.where(pinned, 0.0, points)
    return _first_of_copies(_compact(*_feasible(points, c, b)))


def _first_of_copies(points):
    return _compact(points, _first_copies(points) & np.isfinite(points[..., 0]))


def _reference_solve(scenarios, models, candidates, valid):
    """The best of each entry's candidates, ranked over all of them."""
    first, rho = scenarios[0], np.array([[m.rho] for m in models])
    t3, on_x = first.task is Task.T3, first.target is Target.MU_X
    method = Method.FACE_ENUM if t3 else Method.VERTEX_ENUM
    info = information(*_columns(candidates), rho, on_x, not t3)
    values = np.where(info > 0.0, -info, math.inf)
    best = np.fmin.reduce(values, axis=-1, where=valid, initial=math.inf)
    near = _compact(candidates, (values <= (best + _TIE_REL * np.abs(best))[:, None]) & valid)
    distinct = np.isfinite(near[..., 0])  # the vertices are distinct first copies
    if t3 and near.shape[1] > 1:  # an edge point can copy a vertex
        distinct &= _first_copies(near)
    ties = distinct.sum(axis=-1) > 1
    x, y, xy = _columns(near)
    picks = near[np.arange(len(near)), np.lexsort((y, x, xy), axis=-1)[:, 0]]
    results = []
    for k, (scenario, model, pick) in enumerate(zip(scenarios, models, picks.tolist())):
        if best[k] == math.inf:
            raise BoundOverflow(TOO_SMALL)
        policy = SamplingPolicy.clamped(*pick)
        objective = crb(scenario.task, scenario.target, policy, model)
        results.append(PlanResult(policy, objective, method, bool(ties[k])))
    return results


def _reference_starved(scenario) -> bool:
    """Whether the scenario's rows of bound 0 charge the target's own marginal
    kind and the joint kind."""
    zero = [r.coeffs for r in scenario.constraints.rows if r.bound == 0.0]
    own = 0 if scenario.target is Target.MU_X else 1
    return any(c[own] > 0.0 for c in zero) and any(c[2] > 0.0 for c in zero)


def _reference_stack(scenarios, models):
    """``plan_stack`` on each system's distinct vertices, each starved entry
    answered up front with the zero policy at ``crb=inf``."""
    starved = [_reference_starved(s) for s in scenarios]
    method = Method.FACE_ENUM if scenarios[0].task is Task.T3 else Method.VERTEX_ENUM
    fed = [(s, m) for s, m, skip in zip(scenarios, models, starved) if not skip]
    solved = iter(_reference_enumerated(*zip(*fed)) if fed else [])
    nothing = PlanResult(SamplingPolicy(), math.inf, method, False)
    return [nothing if skip else next(solved) for skip in starved]


def _reference_enumerated(scenarios, models):
    """``plan_stack`` on each system's distinct vertices, for entries that are not starved."""
    family, t3, target = _family(scenarios[0]), scenarios[0].task is Task.T3, scenarios[0].target
    systems: dict = {}
    which = [systems.setdefault((v.alpha, v.e1, v.e2), len(systems))
             for v in (s.budget for s in scenarios)]
    with np.errstate(all="ignore"):
        c, b = _equilibrated(*_stack(family, *np.array(list(systems), float).T))
        vertices = _reference_vertices(c, b)[which]
        valid = np.isfinite(vertices[..., 0])
        if not t3:
            return _reference_solve(scenarios, models, vertices, valid)
        edges = _t3_edge_points(vertices, np.array([m.rho for m in models]), target is Target.MU_X)
        candidates = np.concatenate([vertices, edges], axis=1)
        valid = np.concatenate([valid, np.isfinite(edges[..., 0])], axis=1)
        return _reference_solve(scenarios, models, candidates, valid)


def _reference_plan(scenario, model):
    """``plan``, and ``plan_t3``, on the reference stack."""
    if scenario.task is not Task.T3 and scenario.setting is Setting.DECENTRALIZED:
        budget = scenario.budget
        result = plan_t1_closed_form(budget.alpha, budget.e1, model)
    else:
        result = _reference_stack([scenario], [model])[0]
    if math.isinf(result.objective_value):
        raise SingularEverywhere(_SINGULAR_EVERYWHERE)
    return result


def _outcome(call, *args):
    """A plan's policy ``repr``, bound, tie and method, or its error and message."""
    try:
        results = call(*args)
    except CrbPlanError as exc:
        return type(exc), str(exc)
    if isinstance(results, PlanResult):
        results = [results]
    return [(repr(r.policy), repr(r.objective_value), r.tie, r.method) for r in results]


_SUBNORMAL = st.floats(5e-324, 2.0**-1022, exclude_max=True)
_ALPHA = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 0.25, 0.5]),
    _SUBNORMAL,
    st.floats(0.0, 8.0),
    st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
)
_SCENARIO_KINDS = [
    (task, setting, target)
    for task in Task
    for setting in Setting
    for target in ([Target.MU_X, Target.MU_Y] if task is Task.T3 else [None])
]


@st.composite
def _budget(draw, alpha):
    return draw(st.one_of(
        st.sampled_from([0.0, 5e-324, math.inf, alpha + 1.0, 2.0 * alpha]),
        st.floats(0.0, 8.0),
    ))


@st.composite
def _rho(draw, alpha, setting):
    threshold = min(joint_priority_threshold(alpha, setting), RHO_LIMIT)  # 1.0 at a huge alpha
    return draw(st.one_of(
        st.sampled_from([0.0, threshold, -threshold]), st.floats(-0.999, 0.999)
    ))


@st.composite
def _case(draw, task, setting, target):
    """One scenario of the given kind and a unit-variance model."""
    alpha = draw(_ALPHA)
    e1 = draw(_budget(alpha))
    e2 = draw(_budget(alpha)) if setting is Setting.CENTRALIZED else None
    scenario = Scenario(task, setting, ResourceBudget(alpha, e1, e2), target)
    return scenario, validate((0, 0, 1, 1, draw(_rho(alpha, setting))))


@st.composite
def _single(draw):
    return draw(_case(*draw(st.sampled_from(_SCENARIO_KINDS))))


@st.composite
def _stack_draw(draw):
    """A stack of one kind whose entries mix budgets and share some."""
    kind = draw(st.sampled_from(_SCENARIO_KINDS))
    entries = draw(st.lists(_case(*kind), min_size=1, max_size=8))
    shared = draw(st.lists(st.integers(0, len(entries) - 1), max_size=4))
    models = [validate((0, 0, 1, 1, draw(st.floats(-0.999, 0.999)))) for _ in shared]
    entries += [(entries[i][0], m) for i, m in zip(shared, models)]
    return [s for s, _ in entries], [m for _, m in entries]


def _cen(task, alpha, e1, e2, target=None):
    return Scenario(task, Setting.CENTRALIZED, ResourceBudget(alpha, e1, e2), target)


@settings(max_examples=400, deadline=None)
@example(case=(_cen(Task.T1, 2.0, 3.0, math.inf), validate((0, 0, 1, 1, 0.9))))
@example(case=(_cen(Task.T3, 0.0, 1.0, 0.0), validate((0, 0, 1, 1, 0.5))))
@example(case=(_cen(Task.T3, 2.0, 2.0, 0.0, Target.MU_Y), validate((0, 0, 1, 1, 0.5))))
# a vertex (5e-324, 0, 0) that the zero data-center row, scaled to (0.5, 0.5, 1),
# prices at 0: both answer the starved rows, SingularEverywhere, not BoundOverflow
@example(case=(_cen(Task.T3, 5e-324, 5e-324, 0.0, Target.MU_X), validate((0, 0, 1, 1, 0.5))))
@given(case=_single())
def test_single_planners_equal_the_deduplicate_first_reference(case):
    scenario, model = case
    if scenario.task is Task.T3:
        single, reference = plan_t3, _reference_plan
    else:
        single, reference = plan_linear, lambda s, m: _reference_stack([s], [m])[0]
    assert _outcome(single, scenario, model) == _outcome(reference, scenario, model)
    assert _outcome(plan, scenario, model) == _outcome(_reference_plan, scenario, model)


@settings(max_examples=150, deadline=None)
@given(stack=_stack_draw())
def test_mixed_budget_stacks_equal_the_deduplicate_first_reference(stack):
    scenarios, models = stack
    assert _outcome(plan_stack, scenarios, models) == _outcome(_reference_stack, scenarios, models)


@st.composite
def _copied_points(draw):
    """Points of the simplex, each followed somewhere by copies: every copy
    moves an earlier point (a chain of copies can form) by at most
    ``_SAME_REL`` of its largest coordinate, as LU residue can."""
    bases = draw(st.lists(st.sampled_from([
        (0.0, 0.0, 1.0), (0.0, 0.5, 0.5), (0.0, 1.0, 0.0), (0.2, 0.3, 0.5),
        (0.5, 0.0, 0.25), (0.0, 0.4, 0.1), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0),
    ]), min_size=1, max_size=4))
    points = [np.array(p) for p in bases]
    for _ in range(draw(st.integers(0, 8))):
        source = points[draw(st.integers(0, len(points) - 1))]
        shift = np.array([draw(st.floats(-0.9, 0.9)) for _ in range(3)]) * (1e-9 * source.max())
        points.insert(draw(st.integers(0, len(points))), np.maximum(source + shift, 0.0))
    return np.array(points)[None]


@settings(max_examples=300, deadline=None)
@example(points=np.array([[[0.0, 0.3, 0.5], [0.0, 0.3 + 1e-10, 0.5]]]), rho=0.0)
# a chain of copies: each point copies the one before it, the last not the first
@example(points=np.array([[[0.0, 0.5 + k * 4.5e-10, 0.5] for k in range(6)]]), rho=0.0)
@given(points=_copied_points(), rho=st.one_of(st.sampled_from([0.0]), st.floats(-0.999, 0.999)))
def test_solve_ranks_lu_copies_as_the_reference_ranks_first_copies(points, rho):
    # the copies of a near-best point lie in the band _solve deduplicates,
    # however far the chain of copies runs
    scenario, model = _cen(Task.T1, 1.0, math.inf, math.inf), validate((0, 0, 1, 1, rho))
    valid = np.isfinite(points[..., 0])
    distinct = _first_of_copies(points)
    got = _outcome(_solve, [scenario], [model], Method.VERTEX_ENUM, points, valid, [False])
    want = _outcome(_reference_solve, [scenario], [model], distinct, np.isfinite(distinct[..., 0]))
    assert got == want
