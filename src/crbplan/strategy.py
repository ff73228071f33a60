"""Sampling-policy planners for each (task, setting, budget) scenario.

Each scenario induces a small linear constraint set over the slot-type
probabilities (p_x, p_y, p_xy): the simplex, nonnegativity, per-sensor
budgets, and (centralized only) a data-center budget; every row holds by the
one scale-free rule of :func:`_limit`.  :data:`COST_TABLE` is the one cost
model: each budget row and the simulator's ledger derive from it.  An
observation costs 1 unit; each transmission or reception costs ``alpha``.

Two planners cover the objective shapes:

* ``plan_t1_closed_form`` -- the piecewise rule for one unknown mean in the
  decentralized setting, driven by whether the squared correlation clears
  ``alpha / (alpha + 1)``.
* ``plan_linear`` (t1/t2) and ``plan_t3`` -- one exact solver: a short list
  of candidate policies that must hold an optimum, then the best feasible
  one.  Every bound is homogeneous of degree -1 in the policy, so an
  optimum lies on a face of a row with a positive bound.  The t1/t2 bound
  is 1/linear, so the vertices suffice; the t3 bound is convex, so the
  vertices plus its stationary points inside edges suffice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidScenario, SingularEverywhere
from .fisher import (
    SamplingPolicy,
    Target,
    Task,
    crb,
    fim_t3_entries,
)
from .model import ObservationKind, ObservationModel

#: Candidates this close, relative to the larger one, are the same policy.
_SAME_REL = 1e-9
#: Objective values this close, relative to the best, tie.
_TIE_REL = 1e-12


class Setting(Enum):
    DECENTRALIZED = "decentralized"
    CENTRALIZED = "centralized"


class Method(Enum):
    CLOSED_FORM = "closed_form"
    VERTEX_ENUM = "vertex_enum"
    FACE_ENUM = "face_enum"


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < math.inf:
        raise InvalidScenario(f"alpha must be finite and >= 0, got {alpha}")
    if math.isinf(1.0 + 2.0 * alpha):
        raise InvalidScenario(f"alpha {alpha} overflows the budget row coefficient 1 + 2 alpha")


@dataclass(frozen=True)
class ResourceBudget:
    """Cost ratio and per-actor budgets.

    ``alpha`` is the communication-to-observation cost ratio, ``e1`` the
    per-sensor budget, and ``e2`` the data-center budget (centralized only).
    ``math.inf`` expresses an unbounded budget.
    """

    alpha: float
    e1: float
    e2: float | None = None

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not self.e1 >= 0.0:
            raise InvalidScenario(f"e1 must be >= 0, got {self.e1}")
        if self.e2 is not None and not self.e2 >= 0.0:
            raise InvalidScenario(f"e2 must be >= 0, got {self.e2}")


@dataclass(frozen=True)
class Scenario:
    """Task x setting x budget, plus the mean the planner optimizes for t3."""

    task: Task
    setting: Setting
    budget: ResourceBudget
    target: Target | None = None

    def __post_init__(self) -> None:
        centralized = self.setting is Setting.CENTRALIZED
        if centralized and self.budget.e2 is None:
            raise InvalidScenario("centralized scenarios require a data-center budget e2")
        if not centralized and self.budget.e2 is not None:
            raise InvalidScenario("decentralized scenarios must not set e2")
        if self.target is None:
            default = Target.MU_X if self.task is Task.T3 else Target.MU_Y
            object.__setattr__(self, "target", default)


@dataclass(frozen=True)
class Constraint:
    """One linear inequality coeffs . (p_x, p_y, p_xy) <= bound."""

    name: str
    coeffs: tuple[float, float, float]
    bound: float

    def value(self, p_x: float, p_y: float, p_xy: float) -> float:
        return _load(self.coeffs, p_x, p_y, p_xy)


def _load(c, p_x, p_y, p_xy):
    """``c.p`` in one fixed order, so floats and numpy arrays agree bit for bit."""
    return c[0] * p_x + c[1] * p_y + c[2] * p_xy


def _limit(bound, abs_load):
    """The one feasibility rule: a row ``c.p <= b`` holds at ``p`` when
    ``c.p <= b + 1e-9 (|b| + |c|.|p|)``, a componentwise backward-error test
    (Oettli and Prager): moving each coefficient and the bound by 1e-9 of
    itself makes the row hold.  A zero or tiny bound then admits rounding of
    the load only, at every scale of alpha.  Plain operators: floats and
    numpy arrays alike."""
    return bound + 1e-9 * (abs(bound) + abs_load)


@dataclass(frozen=True)
class LinearConstraintSet:
    rows: tuple[Constraint, ...]

    @cached_property
    def _finite(self):
        """The finite-bound rows as arrays ``C`` and ``b``."""
        rows = [r for r in self.rows if math.isfinite(r.bound)]
        c = np.array([r.coeffs for r in rows], dtype=float).reshape(-1, 3)
        return c, np.array([r.bound for r in rows], dtype=float)

    @cached_property
    def _terms(self):
        """Each row's name, coefficients, bound and absolute coefficients."""
        return [(r.name, r.coeffs, r.bound, tuple(map(abs, r.coeffs))) for r in self.rows]

    def violations(self, policy: SamplingPolicy) -> list[str]:
        p_x, p_y, p_xy = policy.as_tuple()
        q_x, q_y, q_xy = abs(p_x), abs(p_y), abs(p_xy)
        return [name for name, c, b, a in self._terms
                if not _load(c, p_x, p_y, p_xy) <= _limit(b, _load(a, q_x, q_y, q_xy))]

    def is_feasible(self, policy: SamplingPolicy) -> bool:
        return not self.violations(policy)

    def feasibility_mask(self, p_x, p_y, p_xy):
        """:meth:`is_feasible` over arrays of policies, bit for bit; a point with
        a non-finite component fails."""
        c, b = self._finite
        p = [np.asarray(v, dtype=float)[..., None] for v in (p_x, p_y, p_xy)]
        holds = _load(c.T, *p) <= _limit(b, _load(np.abs(c.T), *map(np.abs, p)))
        return holds.all(axis=-1) & np.isfinite(p[0] + p[1] + p[2])[..., 0]  # no inf, nan


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


_FREE = (0.0, 0.0, 0.0)

#: The cost model, the only place it is written: per setting family, each
#: charged actor's (observations, transmissions, receptions) in one
#: marginal-X, one marginal-Y and one joint slot.  Idle slots cost nothing.
COST_TABLE = {
    # The learner sits at S_y; a joint slot ships the X sample over to it.
    "decentralized_one_mean": {
        Actor.SENSOR_X: ((1.0, 0.0, 0.0), _FREE, (1.0, 1.0, 0.0)),
        Actor.SENSOR_Y: (_FREE, (1.0, 0.0, 0.0), (1.0, 0.0, 1.0)),
    },
    # Both sensors learn; a joint slot exchanges the samples both ways.
    "decentralized_two_means": {
        Actor.SENSOR_X: ((1.0, 0.0, 0.0), _FREE, (1.0, 1.0, 1.0)),
        Actor.SENSOR_Y: (_FREE, (1.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    },
    # Sensors forward every sample to the data center.
    "centralized": {
        Actor.SENSOR_X: ((1.0, 1.0, 0.0), _FREE, (1.0, 1.0, 0.0)),
        Actor.SENSOR_Y: (_FREE, (1.0, 1.0, 0.0), (1.0, 1.0, 0.0)),
        Actor.DATA_CENTER: ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 2.0)),
    },
}
_BUDGET_ROWS = {
    Actor.SENSOR_X: ("sensor_x_budget", "e1"),
    Actor.SENSOR_Y: ("sensor_y_budget", "e1"),
    Actor.DATA_CENTER: ("dc_budget", "e2"),
}
_PAID_KINDS = (ObservationKind.MARGINAL_X, ObservationKind.MARGINAL_Y, ObservationKind.JOINT)
_ACTORS = tuple(Actor)  # iterating a tuple is several times faster than the Enum

#: Each family's budget rows as (name, budget field, per-kind (observations,
#: communications)), so that a row costs three multiply-adds to price.
_ROW_TERMS = {
    family: tuple(
        (*_BUDGET_ROWS[actor], tuple((obs, tx + rx) for obs, tx, rx in counts))
        for actor, counts in costs.items()
    )
    for family, costs in COST_TABLE.items()
}


def _family(scenario: Scenario) -> str:
    if scenario.setting is Setting.CENTRALIZED:
        return "centralized"
    return "decentralized_two_means" if scenario.task is Task.T3 else "decentralized_one_mean"


def slot_costs(scenario: Scenario) -> dict[ObservationKind, dict[Actor, CostShare]]:
    """The ledger's view of :data:`COST_TABLE`: every actor's
    :class:`CostShare` per slot kind, communication priced at ``alpha``."""
    alpha = scenario.budget.alpha
    free = CostShare()
    table = {kind: dict.fromkeys(_ACTORS, free) for kind in ObservationKind}
    for actor, counts in COST_TABLE[_family(scenario)].items():
        for kind, (obs, tx, rx) in zip(_PAID_KINDS, counts):
            table[kind][actor] = CostShare(obs, alpha * tx, alpha * rx)
    return table


_BASE_ROWS = (
    Constraint("nonneg_p_x", (-1.0, 0.0, 0.0), 0.0),
    Constraint("nonneg_p_y", (0.0, -1.0, 0.0), 0.0),
    Constraint("nonneg_p_xy", (0.0, 0.0, -1.0), 0.0),
    Constraint("simplex", (1.0, 1.0, 1.0), 1.0),
)


def constraints_for(scenario: Scenario) -> LinearConstraintSet:
    """The scenario's full constraint system.

    Nonnegativity and the simplex, then one budget row per actor that
    :data:`COST_TABLE` charges: ``sum_kind (obs + alpha (tx + rx)) p_kind``
    is at most ``e1`` for a sensor and ``e2`` for the data center.  In the
    decentralized one-mean tasks (t1/t2) marginal-X slots add no
    information about the Y mean, so ``p_x = 0`` is pinned as well.
    """
    budget = scenario.budget
    alpha = budget.alpha
    family = _family(scenario)
    rows = list(_BASE_ROWS)
    for name, field, ((ox, cx), (oy, cy), (oj, cj)) in _ROW_TERMS[family]:
        coeffs = (ox + alpha * cx, oy + alpha * cy, oj + alpha * cj)
        rows.append(Constraint(name, coeffs, getattr(budget, field)))
    if family == "decentralized_one_mean":
        rows.append(Constraint("no_marginal_x", (1.0, 0.0, 0.0), 0.0))
    return LinearConstraintSet(tuple(rows))


def joint_priority_threshold(alpha: float, setting: Setting) -> float:
    """Critical |rho| above which joint observations beat marginals.

    Decentralized: a joint observation costs as much as ``alpha + 1``
    marginal ones, so joint wins when ``rho^2 > alpha / (alpha + 1)``.
    Centralized: the binding comparison is at the data center, where a joint
    sample costs twice a marginal one regardless of ``alpha``; the threshold
    is the cost-ratio-1 special case, sqrt(1/2).
    """
    _check_alpha(alpha)
    if setting is Setting.CENTRALIZED:
        return math.sqrt(0.5)
    return math.sqrt(alpha / (alpha + 1.0))


@dataclass(frozen=True)
class PlanResult:
    """A planner's answer: policy, minimized CRB, how, and uniqueness."""

    policy: SamplingPolicy
    objective_value: float
    method: Method
    tie: bool

    def as_record(self) -> dict:
        return {
            "p_x": self.policy.p_x,
            "p_y": self.policy.p_y,
            "p_xy": self.policy.p_xy,
            "crb": self.objective_value,
            "method": self.method.value,
            "tie": self.tie,
        }


def plan_t1_closed_form(alpha: float, e1: float, model: ObservationModel) -> PlanResult:
    """Piecewise-optimal policy for one unknown mean, decentralized setting.

    The joint-sampling share is

    * 0                      if rho^2 < alpha/(alpha+1) and e1 < 1,
    * (e1 - 1) / alpha       if rho^2 < alpha/(alpha+1) and 1 <= e1 < alpha+1,
    * e1 / (alpha + 1)       if rho^2 > alpha/(alpha+1) and e1 < alpha+1,
    * 1                      if e1 >= alpha + 1,

    with p_y saturating the remaining budget/simplex room (marginals-first
    regime) or pinned to 0 (joint-first regime).  At the threshold
    rho^2 = alpha/(alpha+1) the optimum is a whole face of the polytope; we
    return the feasible optimum with the smallest p_xy (fewest communicated
    samples) and flag ``tie``.
    """
    _check_alpha(alpha)
    if not e1 >= 0.0:
        raise InvalidScenario(f"e1 must be >= 0, got {e1}")
    thr2 = alpha / (alpha + 1.0)
    rho2 = model.rho * model.rho

    if e1 >= alpha + 1.0:
        p_xy, p_y = 1.0, 0.0
    elif rho2 - thr2 > 1e-12:
        # Joint-first: the sensor budget forces p_y = 0 at p_xy = e1/(alpha+1).
        p_xy, p_y = e1 / (alpha + 1.0), 0.0
    elif e1 < 1.0:
        p_xy, p_y = 0.0, e1
    else:
        # Budget line meets the simplex at p_xy = (e1 - 1)/alpha, where both
        # saturate simultaneously.
        p_xy = (e1 - 1.0) / alpha
        p_y = 1.0 - p_xy

    tie = False
    if abs(rho2 - thr2) <= 1e-12 and 0.0 < e1 < (alpha + 1.0) * (1.0 - 1e-12):
        tie = True  # objective parallel to the budget face
    if abs(model.rho) <= 1e-15 and e1 > 1.0 + 1e-12:
        tie = True  # rho = 0: joint and marginal slots equally informative
    if alpha <= 1e-15 and abs(model.rho) <= 1e-15 and abs(e1 - 1.0) <= 1e-12:
        tie = True  # budget and simplex faces coincide

    policy = SamplingPolicy.clamped(0.0, p_y, p_xy)
    objective = crb(Task.T1, Target.MU_Y, policy, model)
    return PlanResult(policy, objective, Method.CLOSED_FORM, tie)


def _feasible(points, constraints: LinearConstraintSet):
    """The points that satisfy every row once negative coordinates are
    clipped to 0.  Clipping raises a budget row's load, so it comes before
    the test, which then holds for the policy actually returned."""
    with np.errstate(all="ignore"):  # far-off candidates overflow a load and fail
        points = np.maximum(points, 0.0)
        return points[constraints.feasibility_mask(*points.T)]


def _first_copies(points):
    """Mask of the first copy of each point; two points are copies when they
    differ by at most ``_SAME_REL`` of the larger one's largest coordinate."""
    size = np.abs(points).max(axis=1)
    gap = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2)
    same = gap <= _SAME_REL * np.maximum(size[:, None], size[None, :])
    return ~np.tril(same, -1).any(axis=1)


def _vertices(constraints: LinearConstraintSet):
    """The polytope's distinct feasible vertices, k x 3.

    Intersects every triple of finite-bound row planes with a nonzero LU
    determinant in one batched solve, with no cut-off: a nearly singular
    triple's point stays only if it is feasible, and then it is a harmless
    extra candidate.  Of the copies of a vertex, the first stays.
    """
    c, b = constraints._finite
    triples = np.array(list(itertools.combinations(range(len(b)), 3))).reshape(-1, 3)
    with np.errstate(all="ignore"):  # LU divides by subnormal pivots (alpha ~ 1e-320)
        regular = np.abs(np.linalg.det(c[triples])) > 0.0  # false at nan: an inf and a 0 pivot
    points = np.linalg.solve(c[triples][regular], b[triples][regular][..., None])[..., 0]
    vertices = _feasible(points, constraints)
    return vertices[_first_copies(vertices)]


def enumerate_vertices(constraints: LinearConstraintSet) -> list[tuple[float, float, float]]:
    """All feasible vertices of the constraint polytope."""
    return [tuple(v) for v in _vertices(constraints).tolist()]


def _crb_t3_array(p_x, p_y, p_xy, rho: float, target: Target):
    """The standardized t3 bound over arrays: :func:`crbplan.fisher.crb_t3`
    at unit variances, bit for bit; inf where it raises."""
    i11, i22, cross = fim_t3_entries(p_x, p_y, p_xy, rho)
    own, other = (i11, i22) if target is Target.MU_X else (i22, i11)
    with np.errstate(all="ignore"):  # 1/tiny is inf, as Python's float division gives
        schur = np.where(other > 0.0, own - cross * (cross / other), own)
        return np.where(schur > 0.0, 1.0 / schur, math.inf)


def _t3_edge_points(vertices, rho: float, target: Target):
    """The stationary points of the standardized t3 bound inside the segments
    between pairs of vertices, which include the polytope's edges.

    With ``a = 1/(1 - rho^2)`` the standardized information matrix ``J`` has
    determinant ``p'Bp`` and the target's bound numerator ``n.p``.  On the
    segment ``u + t d`` the bound is ``(a0 + a1 t) / (q0 + 2 q1 t + q2 t^2)``,
    stationary where ``a1 q2 t^2 + 2 a0 q2 t + 2 a0 q1 - a1 q0 = 0``.  Facet
    interiors need no candidates: the bound ``e'J(p)^-1 e`` stays constant
    along the direction ``d`` with ``J(d) J(p)^-1 e = 0``, which lies in a
    facet wherever the bound is stationary on it, so an optimum inside a
    facet slides along ``d`` to an edge.
    """
    a = 1.0 / (1.0 - rho * rho)
    n = np.array([0.0, 1.0, a] if target is Target.MU_X else [1.0, 0.0, a])
    quad = 0.5 * np.array([[0.0, 1.0, a], [1.0, 0.0, a], [a, a, 2.0 * a]])
    size = np.abs(vertices).max()  # t is scale-free: find it where nothing underflows
    i, j = np.triu_indices(len(vertices), 1)
    with np.errstate(all="ignore"):  # no real root in (0, 1): inf or nan t, dropped
        u, d = vertices[i] / size, (vertices[j] - vertices[i]) / size
        a0, a1 = u @ n, d @ n
        q0, q1, q2 = (np.einsum("ki,ij,kj->k", x, quad, y) for x, y in ((u, u), (u, d), (d, d)))
        lead, half, const = a1 * q2, a0 * q2, 2.0 * a0 * q1 - a1 * q0
        # the cancellation-free roots of lead t^2 + 2 half t + const
        s = -(half + np.copysign(np.sqrt(half * half - lead * const), half))
        t = np.stack([s / lead, const / s])
        return size * (u + t[..., None] * d)[(t > 0.0) & (t < 1.0)]


_SINGULAR_EVERYWHERE = "target bound is infinite over the entire feasible region"


def _solve(scenario: Scenario, model: ObservationModel, candidates, method: Method) -> PlanResult:
    """The best of ``candidates``, feasible policies that include an optimum.

    t1/t2 candidates are scored by their standardized information, t3 ones
    by their standardized bound: optimal policies do not depend on the
    variances.  Values within ``_TIE_REL`` of the best tie (``tie`` says
    whether distinct candidates do), and the tie goes to the smallest
    ``p_xy`` (the fewest communicated samples), then ``p_x``, then ``p_y``.

    Raises:
        SingularEverywhere: every candidate's t3 bound is infinite.
    """
    if scenario.task is Task.T3:
        values = _crb_t3_array(*candidates.T, model.rho, scenario.target)
    else:
        values = -(candidates @ (0.0, 1.0, 1.0 / (1.0 - model.rho * model.rho)))
    best = values.min()
    if best == math.inf:  # t3 only: t1/t2 planners report crb=inf at zero information
        raise SingularEverywhere(_SINGULAR_EVERYWHERE)
    near = candidates[values <= best + _TIE_REL * abs(best)]
    tie = int(_first_copies(near).sum()) > 1
    pick = near[np.lexsort((near[:, 1], near[:, 0], near[:, 2]))[0]]
    policy = SamplingPolicy.clamped(*pick)
    return PlanResult(policy, crb(scenario.task, scenario.target, policy, model), method, tie)


def plan_linear(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Exact planner for tasks t1/t2 in either setting: the bound is the
    reciprocal of a linear form in the policy, so the best vertex is optimal."""
    if scenario.task is Task.T3:
        raise InvalidScenario("plan_linear handles tasks t1/t2 only")
    vertices = np.array(enumerate_vertices(constraints_for(scenario))).reshape(-1, 3)
    return _solve(scenario, model, vertices, Method.VERTEX_ENUM)


def plan_t3(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Exact planner for two unknown means, by face enumeration.

    The bound is matrix-fractional in an information matrix affine in the
    policy, hence convex: the best vertex or stationary point inside an edge
    (:func:`_t3_edge_points`) is optimal.

    Raises:
        SingularEverywhere: the standardized bound is infinite over the
            whole feasible region (e.g. a zero budget).
    """
    if scenario.task is not Task.T3:
        raise InvalidScenario("plan_t3 handles task t3 only")
    cons = constraints_for(scenario)
    vertices = _vertices(cons)
    edges = _feasible(_t3_edge_points(vertices, model.rho, scenario.target), cons)
    return _solve(scenario, model, np.concatenate([vertices, edges]), Method.FACE_ENUM)


def plan(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Dispatch to the right planner for the scenario.

    Decentralized t1/t2 uses the closed form, centralized t1/t2 the vertex
    enumerator, and t3 face enumeration.

    Raises:
        SingularEverywhere: the bound is infinite over the whole feasible
            region (e.g. a zero budget), for every task.
    """
    if scenario.task is Task.T3:
        result = plan_t3(scenario, model)
    elif scenario.setting is Setting.DECENTRALIZED:
        result = plan_t1_closed_form(scenario.budget.alpha, scenario.budget.e1, model)
    else:
        result = plan_linear(scenario, model)
    if math.isinf(result.objective_value):
        raise SingularEverywhere(_SINGULAR_EVERYWHERE)
    return result
