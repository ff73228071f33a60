"""Sampling-policy planners for each (task, setting, budget) scenario.

Each scenario induces a small linear constraint set over the slot-type
probabilities (p_x, p_y, p_xy): the simplex, nonnegativity, per-sensor
budgets, and (centralized only) a data-center budget.  :data:`COST_TABLE` is
the one cost model: each budget row and the simulator's ledger derive from
it.  An observation costs 1 unit; each transmission or reception costs
``alpha`` units.

Three solvers cover the three objective shapes:

* ``plan_t1_closed_form`` -- the piecewise rule for one unknown mean in the
  decentralized setting, driven by whether the squared correlation clears
  ``alpha / (alpha + 1)``.
* ``plan_linear`` -- exact vertex enumeration for the linear information
  objective of tasks t1/t2 (any setting).  With at most 8 constraints in 3
  variables the candidate vertex count is tiny, so no LP solver is needed.
* ``plan_t3`` -- coarse grid plus local refinement for the ratio objective
  of task t3 (an entry of the inverse information matrix).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InfeasibleScenario,
    InvalidScenario,
    SingularEverywhere,
)
from .fisher import (
    DET_EPS,
    SamplingPolicy,
    Target,
    Task,
    crb,
    crb_t3,
    fim_t3_entries,
)
from .model import ObservationKind, ObservationModel

FEASIBILITY_TOL = 1e-9
_TIE_REL = 1e-9


class Setting(Enum):
    DECENTRALIZED = "decentralized"
    CENTRALIZED = "centralized"


class Method(Enum):
    CLOSED_FORM = "closed_form"
    VERTEX_ENUM = "vertex_enum"
    GRID_REFINE = "grid_refine"


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < math.inf:
        raise InvalidScenario(f"alpha must be finite and >= 0, got {alpha}")


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
        c = self.coeffs
        return c[0] * p_x + c[1] * p_y + c[2] * p_xy

    def slack(self, policy: SamplingPolicy) -> float:
        return self.bound - self.value(*policy.as_tuple())


@dataclass(frozen=True)
class LinearConstraintSet:
    rows: tuple[Constraint, ...]

    def violations(self, policy: SamplingPolicy, tol: float = FEASIBILITY_TOL):
        return [row.name for row in self.rows if row.slack(policy) < -tol]

    def is_feasible(self, policy: SamplingPolicy, tol: float = FEASIBILITY_TOL) -> bool:
        return not self.violations(policy, tol)

    def feasibility_mask(self, p_x, p_y, p_xy, tol: float = FEASIBILITY_TOL):
        """Vectorized membership test over arrays of candidate policies."""
        mask = np.ones(np.shape(p_x), dtype=bool)
        for row in self.rows:
            if math.isinf(row.bound):
                continue
            mask &= row.value(p_x, p_y, p_xy) <= row.bound + tol
        return mask


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
    if abs(rho2 - thr2) <= 1e-12 and 1e-12 < e1 < alpha + 1.0 - 1e-12:
        tie = True  # objective parallel to the budget face
    if abs(model.rho) <= 1e-15 and e1 > 1.0 + 1e-12:
        tie = True  # rho = 0: joint and marginal slots equally informative
    if alpha <= 1e-15 and abs(model.rho) <= 1e-15 and abs(e1 - 1.0) <= 1e-12:
        tie = True  # budget and simplex faces coincide

    policy = SamplingPolicy.clamped(0.0, p_y, p_xy)
    objective = crb(Task.T1, Target.MU_Y, policy, model)
    return PlanResult(policy, objective, Method.CLOSED_FORM, tie)


def enumerate_vertices(constraints: LinearConstraintSet) -> list[tuple[float, float, float]]:
    """All feasible vertices of the constraint polytope.

    Intersects every triple of (finite-bound) constraint boundaries, in one
    batched solve, and keeps the solutions satisfying the whole system to
    the feasibility tolerance.  Near-duplicate vertices arising from
    different triples are collapsed, the first triple's copy kept.
    """
    rows = [r for r in constraints.rows if math.isfinite(r.bound)]
    triples = list(itertools.combinations(rows, 3))
    a = np.array([[r.coeffs for r in t] for t in triples], dtype=float).reshape(-1, 3, 3)
    b = np.array([[r.bound for r in t] for t in triples], dtype=float).reshape(-1, 3, 1)
    with np.errstate(all="ignore"):  # LU divides by subnormal pivots (alpha ~ 1e-320)
        regular = ~(np.abs(np.linalg.det(a)) < 1e-12)
    v = np.linalg.solve(a[regular], b[regular])[..., 0]
    v = v[constraints.feasibility_mask(v[:, 0], v[:, 1], v[:, 2])]
    seen: dict[tuple[float, float, float], tuple[float, float, float]] = {}
    for key, vertex in zip(np.round(v, 9).tolist(), v.tolist()):
        seen.setdefault(tuple(key), tuple(vertex))
    return list(seen.values())


def maximize_linear(
    constraints: LinearConstraintSet, coeffs: tuple[float, float, float]
) -> tuple[tuple[float, float, float], float, bool]:
    """Maximize a linear objective over the polytope by vertex enumeration.

    Returns the optimal vertex, its objective value, and whether the optimum
    is attained at more than one vertex (within relative 1e-12).  Ties are
    broken toward the smallest p_xy, then p_x, then p_y.
    """
    vertices = enumerate_vertices(constraints)
    if not vertices:
        raise InfeasibleScenario("constraint polytope has no vertices")
    values = [
        coeffs[0] * v[0] + coeffs[1] * v[1] + coeffs[2] * v[2] for v in vertices
    ]
    best = max(values)
    tol = max(1e-12 * abs(best), 1e-15)
    near = [v for v, val in zip(vertices, values) if val >= best - tol]
    tie = any(
        max(abs(a - b) for a, b in zip(u, w)) > 1e-9
        for u, w in itertools.combinations(near, 2)
    )
    pick = min(near, key=lambda v: (v[2], v[0], v[1]))
    return pick, best, tie


def plan_linear(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Exact planner for the linear information objective of tasks t1/t2.

    Maximizes the per-slot information about the Y mean over the scenario's
    polytope via vertex enumeration; applies to both settings.
    """
    if scenario.task is Task.T3:
        raise InvalidScenario("plan_linear handles tasks t1/t2 only")
    shrink = 1.0 - model.rho * model.rho
    coeffs = (0.0, 1.0 / model.var_y, 1.0 / (shrink * model.var_y))
    vertex, _, tie = maximize_linear(constraints_for(scenario), coeffs)
    policy = SamplingPolicy.clamped(*vertex)
    objective = crb(scenario.task, scenario.target, policy, model)
    return PlanResult(policy, objective, Method.VERTEX_ENUM, tie)


def _crb_t3_array(p_x, p_y, p_xy, model: ObservationModel, target: Target):
    """Vectorized t3 bound matching :func:`crbplan.fisher.crb_t3`.

    Regular points use the inverse-matrix entry; singular points (which only
    occur at p_xy = 0, where the matrix is diagonal) fall back to the
    decoupled scalar bound, inf when the target coordinate is never observed.
    """
    i11, i22, i12 = fim_t3_entries(p_x, p_y, p_xy, model)
    det = i11 * i22 - i12 * i12
    own = i11 if target is Target.MU_X else i22
    other = i22 if target is Target.MU_X else i11
    out = np.full(np.shape(det), math.inf)
    singular = det <= DET_EPS
    np.divide(other, det, out=out, where=~singular)
    np.divide(1.0, own, out=out, where=singular & (own > DET_EPS))
    return out


def _lexicographic_best(values, p_x, p_y, p_xy):
    """Index of the smallest value, ties broken by (p_xy, p_x, p_y)."""
    best = values.min()
    tol = max(_TIE_REL * abs(best), 1e-15)
    near = np.flatnonzero(values <= best + tol)
    order = np.lexsort((p_y[near], p_x[near], p_xy[near]))
    return near[order[0]]


_SINGULAR_EVERYWHERE = "target bound is infinite over the entire feasible region"
_COARSE_STEP = 0.01
_REFINE_STEPS = (1e-3, 1e-4, 1e-5)


@functools.cache
def _simplex_grid():
    """Read-only 3 x N indices (i, j, k) of the coarse grid with i + j + k <= n.

    In meshgrid ``"ij"`` order, as uint8: 0.5 MB held for the module's life.
    """
    n = int(round(1.0 / _COARSE_STEP))
    idx = np.arange(n + 1)
    grid = np.array(np.nonzero(idx[:, None, None] + idx[:, None] + idx <= n), np.uint8)
    grid.setflags(write=False)
    return grid


def plan_t3(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Grid-with-refinement planner for two unknown means.

    Minimizes the target entry of the inverse information matrix over the
    feasible polytope: a coarse pass at step 0.01 (which catches the
    boundary optima this objective exhibits), then three local refinements
    shrinking the step tenfold each round down to 1e-5.  ``tie`` is set when
    the coarse pass finds near-optimal policies spread across distant grid
    cells, as happens on the flat valley of the unconstrained problem.

    Raises:
        SingularEverywhere: the bound is infinite over the whole feasible
            region (e.g. a zero budget).
    """
    if scenario.task is not Task.T3:
        raise InvalidScenario("plan_t3 handles task t3 only")
    cons = constraints_for(scenario)
    target = scenario.target

    # Simplex grid points satisfy the nonnegativity and simplex rows exactly.
    axis = np.linspace(0.0, 1.0, int(round(1.0 / _COARSE_STEP)) + 1)
    gx, gy, gj = axis.take(_simplex_grid())
    mask = LinearConstraintSet(cons.rows[len(_BASE_ROWS):]).feasibility_mask(gx, gy, gj)
    if not mask.any():
        raise InfeasibleScenario("no feasible grid point")
    gx, gy, gj = gx[mask], gy[mask], gj[mask]
    values = _crb_t3_array(gx, gy, gj, model, target)
    best = values.min()
    if math.isinf(best):
        raise SingularEverywhere(_SINGULAR_EVERYWHERE)
    near = values <= best * (1.0 + _TIE_REL)
    tie = any(
        coords[near].max() - coords[near].min() > 2.5 * _COARSE_STEP
        for coords in (gx, gy, gj)
    )
    idx = _lexicographic_best(values, gx, gy, gj)
    incumbent = np.array([gx[idx], gy[idx], gj[idx]])

    for step in _REFINE_STEPS:
        offsets = np.arange(-10, 11) * step
        axes = [np.clip(incumbent[i] + offsets, 0.0, 1.0) for i in range(3)]
        rx, ry, rj = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        m = cons.feasibility_mask(rx, ry, rj)
        rx, ry, rj = rx[m], ry[m], rj[m]
        vals = _crb_t3_array(rx, ry, rj, model, target)
        idx = _lexicographic_best(vals, rx, ry, rj)
        incumbent = np.array([rx[idx], ry[idx], rj[idx]])

    policy = SamplingPolicy.clamped(*incumbent)
    if not cons.is_feasible(policy):
        raise InfeasibleScenario(
            f"refined policy violates {cons.violations(policy)}"
        )
    objective = float(crb_t3(policy, model, target))
    return PlanResult(policy, objective, Method.GRID_REFINE, tie)


def plan(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Dispatch to the right planner for the scenario.

    Decentralized t1/t2 uses the closed form, centralized t1/t2 the vertex
    enumerator, and t3 the grid planner.

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
