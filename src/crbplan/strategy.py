"""Sampling-policy planners for each (task, setting, budget) scenario.

Each scenario induces a small linear constraint set over the slot-type
probabilities (p_x, p_y, p_xy): the simplex, nonnegativity, per-sensor
budgets, and (centralized only) a data-center budget; every row holds by the
one scale-free rule of :func:`_limit`.  :data:`COST_TABLE` is the one cost
model and each actor's budget row its one price: the simulator's ledger,
audit and trace charge the row's coefficients (:func:`_charged`).  An
observation costs 1 unit; each transmission or reception costs ``alpha``.

Two planners cover the objective shapes:

* ``plan_t1_closed_form`` -- the piecewise rule for one unknown mean in the
  decentralized setting, driven by whether the squared correlation clears
  ``alpha / (alpha + 1)``: it scores the two or three vertices where an
  optimum can lie, and breaks ties by the exact solver's rule.
* ``plan_linear`` (t1/t2) and ``plan_t3`` -- one exact solver: a short list
  of candidate policies that must hold an optimum, then the best feasible
  one.  Every bound is homogeneous of degree -1 in the policy, so an
  optimum lies on a face of a row with a positive bound.  The t1/t2 bound
  is 1/linear, so the vertices suffice; the t3 bound is convex, so the
  vertices plus its stationary points inside edges suffice.  The solver
  takes a stack of scenarios (:func:`plan_stack`) and the single planners
  are the stack of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import BoundOverflow, InvalidScenario, SingularEverywhere
from .fisher import (
    TOO_SMALL,
    SamplingPolicy,
    Target,
    Task,
    _t3_schur,
    crb,
)
from .model import ObservationModel

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
    ``math.inf`` expresses an unbounded budget.  A budget of ``-0.0`` is
    stored as ``0.0``.
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
        object.__setattr__(self, "e1", self.e1 + 0.0)  # -0.0 + 0.0 is 0.0
        if self.e2 is not None:
            object.__setattr__(self, "e2", self.e2 + 0.0)


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
        if self.target is Target.MU_X and self.task is not Task.T3:
            raise InvalidScenario(
                f"task {self.task.value} bounds the Y mean only: target mu_x needs task t3"
            )
        if self.target is None:
            default = Target.MU_X if self.task is Task.T3 else Target.MU_Y
            object.__setattr__(self, "target", default)


@dataclass(frozen=True)
class Constraint:
    """One linear inequality coeffs . (p_x, p_y, p_xy) <= bound."""

    name: str
    coeffs: tuple[float, float, float]
    bound: float


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


def _columns(x):
    """The last axis of ``x`` as a tuple of arrays."""
    return x[..., 0], x[..., 1], x[..., 2]


def _holds(c, b, p):
    """Whether each policy ``p`` (..., 3) satisfies every row of its system
    ``c`` (..., k, 3), ``b`` (..., k) by :func:`_limit`, bit for bit as
    :meth:`LinearConstraintSet.is_feasible`; a point with a non-finite
    component fails.  A row with an infinite bound holds."""
    p = p[..., None, :]  # against the rows
    load = _load(_columns(c), *_columns(p))
    abs_load = _load(_columns(np.abs(c)), *_columns(np.abs(p)))
    holds = (load <= _limit(b, abs_load)).all(axis=-1)
    x, y, xy = _columns(p[..., 0, :])
    return holds & np.isfinite(x + y + xy)  # no inf, nan


@dataclass(frozen=True)
class LinearConstraintSet:
    rows: tuple[Constraint, ...]

    @cached_property
    def _arrays(self):
        """The rows as arrays ``C`` (k x 3) and ``b``."""
        c = np.array([r.coeffs for r in self.rows], dtype=float).reshape(-1, 3)
        return c, np.array([r.bound for r in self.rows], dtype=float)

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


class Actor(Enum):
    SENSOR_X = "sensor_x"
    SENSOR_Y = "sensor_y"
    DATA_CENTER = "data_center"


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


def _family(scenario: Scenario) -> str:
    if scenario.setting is Setting.CENTRALIZED:
        return "centralized"
    return "decentralized_two_means" if scenario.task is Task.T3 else "decentralized_one_mean"


_BASE_ROWS = (
    Constraint("nonneg_p_x", (-1.0, 0.0, 0.0), 0.0),
    Constraint("nonneg_p_y", (0.0, -1.0, 0.0), 0.0),
    Constraint("nonneg_p_xy", (0.0, 0.0, -1.0), 0.0),
    Constraint("simplex", (1.0, 1.0, 1.0), 1.0),
)


def _layout(family: str):
    """The rows of a cost family's constraint system: names, per-kind
    observation and communication counts (coefficients ``obs + alpha
    comm``), the fixed bounds (nan where a budget bounds the row), and masks
    of the rows that e1 and e2 bound."""
    rows = [(r.name, r.coeffs, _FREE, r.bound) for r in _BASE_ROWS]
    for actor, counts in COST_TABLE[family].items():
        name, field = _BUDGET_ROWS[actor]
        obs = tuple(o for o, _, _ in counts)
        rows.append((name, obs, tuple(t + r for _, t, r in counts), field))
    if family == "decentralized_one_mean":
        rows.append(("no_marginal_x", (1.0, 0.0, 0.0), _FREE, 0.0))
    names, obs, comm, bounds = zip(*rows)
    fixed = [np.nan if isinstance(v, str) else v for v in bounds]
    masks = (np.array([v == field for v in bounds]) for field in ("e1", "e2"))
    return names, np.array(obs), np.array(comm), np.array(fixed), *masks


_LAYOUT = {family: _layout(family) for family in COST_TABLE}


def _stack(family: str, alpha, e1, e2):
    """The constraint systems of one cost family at arrays of ``alpha``,
    ``e1`` and ``e2``: ``C`` (..., k, 3) of ``alpha`` and ``b`` (..., k) of
    the budgets broadcast together."""
    _, obs, comm, fixed, on_e1, on_e2 = _LAYOUT[family]
    alpha, e1, e2 = (np.asarray(v, dtype=float)[..., None] for v in (alpha, e1, e2))
    return obs + alpha[..., None] * comm, np.where(on_e1, e1, np.where(on_e2, e2, fixed))


def constraints_for(scenario: Scenario) -> LinearConstraintSet:
    """The scenario's full constraint system.

    Nonnegativity and the simplex, then one budget row per actor that
    :data:`COST_TABLE` charges: ``sum_kind (obs + alpha (tx + rx)) p_kind``
    is at most ``e1`` for a sensor and ``e2`` for the data center.  In the
    decentralized one-mean tasks (t1/t2) marginal-X slots add no
    information about the Y mean, so ``p_x = 0`` is pinned as well.
    """
    budget, family = scenario.budget, _family(scenario)
    c, b = _stack(family, budget.alpha, budget.e1, budget.e2)
    coeffs = map(tuple, c.tolist())
    return LinearConstraintSet(tuple(map(Constraint, _LAYOUT[family][0], coeffs, b.tolist())))


def _charged(constraints: LinearConstraintSet) -> dict[Actor, Constraint]:
    """Each charged actor's budget row, the one price of its slots: the
    coefficients are what a marginal-X, a marginal-Y and a joint slot cost
    it, the bound is its budget, and idle slots are free."""
    rows = {row.name: row for row in constraints.rows}
    return {actor: rows[name] for actor, (name, _) in _BUDGET_ROWS.items() if name in rows}


def _feasibility(scenario: Scenario, policies, e1=None, e2=None):
    """:meth:`LinearConstraintSet.is_feasible` of each policy (..., 3), with
    the scenario's e1 or e2 replaced by the array of a budget sweep."""
    budget = scenario.budget
    e1 = budget.e1 if e1 is None else e1
    e2 = budget.e2 if e2 is None else e2
    return _holds(*_stack(_family(scenario), budget.alpha, e1, e2), policies)


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

    Reproduces the paper's result: the joint-sampling share is

    * 0                      if rho^2 < alpha/(alpha+1) and e1 < 1,
    * (e1 - 1) / alpha       if rho^2 < alpha/(alpha+1) and 1 <= e1 < alpha+1,
    * e1 / (alpha + 1)       if rho^2 > alpha/(alpha+1) and e1 < alpha+1,
    * 1                      if e1 >= alpha + 1,

    with p_y saturating the remaining budget/simplex room (marginals-first
    regime) or pinned to 0 (joint-first regime).  It scores the two or three
    vertices where an optimum can lie and breaks ties by :func:`_solve`'s
    rule: at rho = 0 or rho^2 = alpha/(alpha+1) several are optimal, the one
    with the smallest p_xy (fewest communicated samples) is returned, and
    ``tie`` is set.
    """
    _check_alpha(alpha)
    if not e1 >= 0.0:
        raise InvalidScenario(f"e1 must be >= 0, got {e1}")
    # (p_xy, p_y): marginal-only, joint-only, and where the budget meets the simplex
    vertices = [(0.0, min(e1, 1.0)), (min(1.0, e1 / (alpha + 1.0)), 0.0)]
    if 1.0 < e1 < alpha + 1.0:
        p_xy = (e1 - 1.0) / alpha
        vertices.append((p_xy, 1.0 - p_xy))
    shrink = 1.0 - model.rho * model.rho
    values = [shrink * p_y + p_xy for p_xy, p_y in vertices]  # shrink times the information
    best = max(values)
    near = sorted(v for v, value in zip(vertices, values) if value >= best - _TIE_REL * best)
    tie = any(not _same(near[0], v) for v in near[1:])
    policy = SamplingPolicy.clamped(0.0, near[0][1], near[0][0])
    objective = crb(Task.T1, Target.MU_Y, policy, model)
    return PlanResult(policy, objective, Method.CLOSED_FORM, tie)


def _same(a, b) -> bool:
    """Whether points ``a`` and ``b`` are copies, as :func:`_first_copies` judges them."""
    gap = max(abs(u - v) for u, v in zip(a, b))
    return gap <= _SAME_REL * max(map(abs, (*a, *b)))


def _feasible(points, c, b):
    """``points`` (n, m, 3) with negative coordinates clipped to 0, and the
    mask of those that satisfy every row of their entry's system ``c`` (n,
    k, 3), ``b`` (n, k).  Clipping raises a budget row's load, so it comes
    before the test, which then holds for the policy actually returned."""
    with np.errstate(all="ignore"):  # far-off candidates overflow a load and fail
        points = np.maximum(points, 0.0)
        return points, _holds(c[:, None], b[:, None], points)


def _compact(points, keep):
    """The ``keep`` points (n, m, 3) of each stack entry, moved to the front
    in order and padded with nan rows to the largest count."""
    counts = keep.sum(axis=-1).tolist()
    width = max(counts, default=0)
    if min(counts, default=0) == width:  # no padding
        return points[keep].reshape(len(points), width, 3)
    order = np.argsort(~keep, axis=-1, kind="stable")[:, :width]
    points = points[np.arange(len(points))[:, None], order]
    points[np.arange(width) >= np.array(counts)[:, None]] = np.nan
    return points


@functools.cache
def _below(m: int):
    """The strict lower triangle of an m x m matrix."""
    return np.tri(m, k=-1, dtype=bool)


def _first_copies(points):
    """Mask of the first copy of each point (..., m, 3); two points are copies
    when they differ by at most ``_SAME_REL`` of the larger one's largest
    coordinate.  A nan point is a copy of none."""
    x, y, xy = _columns(points)  # maxima over columns, not along the short last axis
    size = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(xy))
    gaps = (np.abs(c[..., :, None] - c[..., None, :]) for c in (x, y, xy))
    gap = functools.reduce(np.maximum, gaps)
    same = gap <= _SAME_REL * np.maximum(size[..., :, None], size[..., None, :])
    return ~(same & _below(points.shape[-2])).any(axis=-1)


@functools.cache
def _triples(k: int):
    return np.array(list(itertools.combinations(range(k), 3))).reshape(-1, 3)


@functools.cache
def _pairs(v: int):
    return np.triu_indices(v, 1)


def _vertices(c, b):
    """Each system's distinct feasible vertices, (n, v, 3) and nan-padded,
    of ``c`` (n, k, 3) and ``b`` (n, k).

    Intersects every triple of finite-bound row planes with a nonzero LU
    determinant in one batched solve, with no cut-off: a nearly singular
    triple's point stays only if it is feasible, and then it is a harmless
    extra candidate.  Of the copies of a vertex, the first stays.
    """
    triples = _triples(b.shape[-1])
    lhs, rhs = c[:, triples], b[:, triples]
    points = np.full(rhs.shape, np.nan)
    with np.errstate(all="ignore"):  # LU divides by subnormal pivots (alpha ~ 1e-320)
        # false at nan: an inf and a 0 pivot
        regular = (np.abs(np.linalg.det(lhs)) > 0.0) & np.isfinite(rhs).all(axis=-1)
        points[regular] = np.linalg.solve(lhs[regular], rhs[regular][..., None])[..., 0]
    vertices = _compact(*_feasible(points, c, b))
    return _compact(vertices, _first_copies(vertices) & np.isfinite(vertices[..., 0]))


def enumerate_vertices(constraints: LinearConstraintSet) -> list[tuple[float, float, float]]:
    """All feasible vertices of the constraint polytope."""
    c, b = constraints._arrays
    return [tuple(v) for v in _vertices(c[None], b[None])[0].tolist()]


_NUMERATOR = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])[..., None]
_QUAD = np.array([
    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 2.0]],
])


def _t3_edge_points(vertices, rho, on_x: bool):
    """The stationary points of the standardized t3 bound inside the segments
    between pairs of vertices, which include the polytope's edges: for each
    stack entry of ``vertices`` (n, v, 3), nan-padded, at correlation ``rho``
    (n,), for the target mu_x if ``on_x`` and mu_y otherwise.  Returns (n,
    v (v - 1), 3), nan where a segment has no root inside.

    With ``a = 1/(1 - rho^2)`` the standardized information matrix ``J`` has
    determinant ``p'Bp`` and the target's bound numerator ``n.p``.  On the
    segment ``u + t d`` the bound is ``(a0 + a1 t) / (q0 + 2 q1 t + q2 t^2)``,
    stationary where ``a1 q2 t^2 + 2 a0 q2 t + 2 a0 q1 - a1 q0 = 0``.  Facet
    interiors need no candidates: the bound ``e'J(p)^-1 e`` stays constant
    along the direction ``d`` with ``J(d) J(p)^-1 e = 0``, which lies in a
    facet wherever the bound is stationary on it, so an optimum inside a
    facet slides along ``d`` to an edge.
    """
    a = (1.0 / (1.0 - rho * rho))[:, None, None]
    # n = (0, 1, a) or (1, 0, a); quad = [[0, 1, a], [1, 0, a], [a, a, 2a]] / 2:
    # the constants plus a times 0, 1 or 2, exactly
    n = _NUMERATOR[0 if on_x else 1] + a * _NUMERATOR[2]
    quad = 0.5 * (_QUAD[0] + a * _QUAD[1])
    # t is scale-free: find it where nothing underflows
    size = np.fmax.reduce(np.abs(vertices), axis=(1, 2))[:, None, None]
    i, j = _pairs(vertices.shape[1])
    with np.errstate(all="ignore"):  # no real root in (0, 1): inf or nan t, dropped
        start = vertices[:, i]
        u, d = start / size, (vertices[:, j] - start) / size
        a0, a1 = (u @ n)[..., 0], (d @ n)[..., 0]
        q0, q1, q2 = (np.einsum("nki,nij,nkj->nk", x, quad, y) for x, y in ((u, u), (u, d), (d, d)))
        lead, half, const = a1 * q2, a0 * q2, 2.0 * a0 * q1 - a1 * q0
        # the cancellation-free roots of lead t^2 + 2 half t + const
        s = -(half + np.copysign(np.sqrt(half * half - lead * const), half))
        t = np.stack([s / lead, const / s], axis=1)[..., None]
        points = size[..., None] * (u[:, None] + t * d[:, None])
        points = np.where((t > 0.0) & (t < 1.0), points, np.nan)
    return points.reshape(len(vertices), 2 * len(i), 3)


_SINGULAR_EVERYWHERE = "target bound is infinite over the entire feasible region"


def _solve(scenarios, models, c, b, candidates, valid, method: Method) -> list[PlanResult]:
    """For each scenario of a stack, the best of its ``valid`` ``candidates``
    (n, m, 3), feasible policies that include an optimum.

    Every candidate is ranked by its standardized information about the
    target, t1/t2 by its weighted sum and t3 by the Schur complement: it
    does not overflow where the bound does, and optimal policies do not
    depend on the variances.  Information values within ``_TIE_REL`` of the
    best tie (``tie`` says whether distinct candidates do), and the tie goes
    to the smallest ``p_xy`` (the fewest communicated samples), then
    ``p_x``, then ``p_y``.  ``_feasible`` has vetted every candidate, so the
    pick only snaps onto [0, 1] and the simplex.  Where no candidate carries
    information but an exact solution of the scenario's rows ``c``, ``b``
    does, its bound overflows: the budget is too small for any policy to
    round to.

    A scenario where no policy carries information gets ``crb=inf``.

    Raises:
        BoundOverflow: at the first scenario where some policy carries
            information but the best policy's bound overflows.
    """
    first, rho = scenarios[0], np.array([[m.rho] for m in models])
    t3, on_x = first.task is Task.T3, first.target is Target.MU_X
    if t3:
        info = _t3_schur(*_columns(candidates), rho, on_x)[0]
    else:
        weights = np.array([[[0.0], [1.0], [1.0 / (1.0 - r * r)]] for r in rho[:, 0].tolist()])
        info = (candidates @ weights)[..., 0]
    values = np.where(info > 0.0, -info, math.inf)
    best = np.fmin.reduce(values, axis=-1, where=valid, initial=math.inf)
    near = _compact(candidates, (values <= (best + _TIE_REL * np.abs(best))[:, None]) & valid)
    ties = np.full(len(near), False)
    if near.shape[1] > 1:
        ties = (_first_copies(near) & np.isfinite(near[..., 0])).sum(axis=-1) > 1
    # the first of the least (p_xy, p_x, p_y), per scenario; nan padding sorts last
    x, y, xy = _columns(near)
    picks = near[np.arange(len(near)), np.lexsort((y, x, xy), axis=-1)[:, 0]]
    results = []
    for k, (scenario, model, pick) in enumerate(zip(scenarios, models, picks.tolist())):
        if best[k] == math.inf:  # no candidate carries information
            # a target's own marginal or the joint share can be positive
            # unless a zero-bound row charges it
            free = ~((c[k] > 0.0) & (b[k][:, None] <= 0.0)).any(axis=0)
            if free[0 if on_x else 1] or free[2]:
                raise BoundOverflow(TOO_SMALL)
        policy = SamplingPolicy.clamped(*pick)
        objective = crb(scenario.task, scenario.target, policy, model)
        results.append(PlanResult(policy, objective, method, bool(ties[k])))
    return results


def plan_stack(scenarios, models) -> list[PlanResult]:
    """:func:`plan_linear` or :func:`plan_t3` of each scenario, as one stack
    of array operations: each result equals the single plan's, bit for bit,
    and an entry without information reads ``crb=inf`` where :func:`plan_t3`
    raises.  The scenarios share one cost family, planner (t3 or not) and
    target; ``models`` pairs one model with each.

    Raises:
        InvalidScenario: the scenarios mix cost families, planners or targets.
        BoundOverflow: as the single planners, for the first scenario where
            it applies.
    """
    key = [(_family(s), s.task is Task.T3, s.target) for s in scenarios]
    if key.count(key[0]) < len(key):
        raise InvalidScenario("a plan stack needs one cost family, planner and target")
    (family, t3, target), budgets = key[0], [vars(s.budget) for s in scenarios]
    c, b = _stack(family, *np.array([[v["alpha"], v["e1"], v["e2"]] for v in budgets], float).T)
    vertices = _vertices(c, b)
    valid = np.isfinite(vertices[..., 0])
    if not t3:
        return _solve(scenarios, models, c, b, vertices, valid, Method.VERTEX_ENUM)
    rho = np.array([m.rho for m in models])
    edges, inside = _feasible(_t3_edge_points(vertices, rho, target is Target.MU_X), c, b)
    candidates = np.concatenate([vertices, edges], axis=1)
    valid = np.concatenate([valid, inside], axis=1)
    return _solve(scenarios, models, c, b, candidates, valid, Method.FACE_ENUM)


def plan_linear(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Exact planner for tasks t1/t2 in either setting: the bound is the
    reciprocal of a linear form in the policy, so the best vertex is optimal."""
    if scenario.task is Task.T3:
        raise InvalidScenario("plan_linear handles tasks t1/t2 only")
    return plan_stack([scenario], [model])[0]


def plan_t3(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Exact planner for two unknown means, by face enumeration.

    The bound is matrix-fractional in an information matrix affine in the
    policy, hence convex: the best vertex or stationary point inside an edge
    (:func:`_t3_edge_points`) is optimal.

    Raises:
        SingularEverywhere: no policy carries information (e.g. a zero budget).
        BoundOverflow: some does, but the best policy's bound overflows.
    """
    if scenario.task is not Task.T3:
        raise InvalidScenario("plan_t3 handles task t3 only")
    result = plan_stack([scenario], [model])[0]
    if math.isinf(result.objective_value):
        raise SingularEverywhere(_SINGULAR_EVERYWHERE)
    return result


def plan(scenario: Scenario, model: ObservationModel) -> PlanResult:
    """Dispatch to the right planner for the scenario.

    Decentralized t1/t2 uses the closed form, centralized t1/t2 the vertex
    enumerator, and t3 face enumeration.

    Raises:
        SingularEverywhere: the bound is infinite over the whole feasible
            region (e.g. a zero budget), for every task.
        BoundOverflow: the best policy's bound is not representable.
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
