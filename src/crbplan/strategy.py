"""Sampling-policy planners for each (task, setting, budget) scenario.

Each scenario induces a small linear constraint set over the slot-type
probabilities (p_x, p_y, p_xy): the simplex, nonnegativity, per-sensor
budgets, and (centralized only) a data-center budget; every row, scaled by
:func:`_equilibrated`, holds by the one rule of ``fisher._limit``.
:data:`COST_TABLE` is the one cost model and each actor's budget row its one
price: each scenario keeps one system (:attr:`Scenario.constraints`), and the
simulator's ledger, audit and trace read its charged rows
(:attr:`LinearConstraintSet.charged`).  An observation costs 1 unit; each
transmission or reception costs ``alpha``.

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
  A vertex that several row triples reach counts once, and a budget whose
  zero rows leave the target no information is answered from them, for every planner.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import BoundOverflow, InvalidScenario, SingularEverywhere
from .fisher import TOO_SMALL, SamplingPolicy, Target, Task, _limit, crb, information
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

    @cached_property
    def constraints(self) -> LinearConstraintSet:
        """The scenario's constraint system, priced by :func:`_stack` as the
        planners price it: nonnegativity and the simplex, then one budget row
        per actor that :data:`COST_TABLE` charges, ``sum_kind (obs + alpha
        (tx + rx)) p_kind <= e1`` for a sensor and ``e2`` for the data
        center, and in the decentralized one-mean tasks (t1/t2), where
        marginal-X slots add nothing about the Y mean, ``p_x = 0``."""
        family, budget = _family(self), self.budget
        c, b = _stack(family, budget.alpha, budget.e1, budget.e2)
        rows = map(Constraint, _LAYOUT[family][0], map(tuple, c.tolist()), b.tolist())
        return LinearConstraintSet(tuple(rows))


@dataclass(frozen=True)
class Constraint:
    """One linear inequality coeffs . (p_x, p_y, p_xy) <= bound."""

    name: str
    coeffs: tuple[float, float, float]
    bound: float


def _load(c, p_x, p_y, p_xy):
    """``c.p`` in one fixed order, so floats and numpy arrays agree bit for bit."""
    return c[0] * p_x + c[1] * p_y + c[2] * p_xy


def _columns(x):
    """The last axis of ``x`` as a tuple of arrays."""
    return x[..., 0], x[..., 1], x[..., 2]


@dataclass(frozen=True)
class LinearConstraintSet:
    rows: tuple[Constraint, ...]

    @cached_property
    def charged(self) -> MappingProxyType[Actor, Constraint]:
        """Each charged actor's budget row, the one price of its slots, read-only:
        the coefficients are what a marginal-X, a marginal-Y and a joint slot
        cost the actor, the bound is its budget, and idle slots are free."""
        rows = {row.name: row for row in self.rows}
        return MappingProxyType({a: rows[n] for a, (n, _) in _BUDGET_ROWS.items() if n in rows})

    @cached_property
    def _scaled(self):
        """Each row's name, coefficients and bound, :func:`_equilibrated`."""
        with np.errstate(over="ignore"):  # a bound past every float is inf
            c, b = _equilibrated(np.array([r.coeffs for r in self.rows]).reshape(-1, 3),
                                 np.array([r.bound for r in self.rows], dtype=float))
        return tuple(zip([r.name for r in self.rows], c.tolist(), b.tolist()))

    def violations(self, policy: SamplingPolicy) -> list[str]:
        p_x, p_y, p_xy = policy.as_tuple()
        broken = []
        for name, (c_x, c_y, c_xy), bound in self._scaled:  # _feasible bit for bit, as
            t_x, t_y, t_xy = c_x * p_x, c_y * p_y, c_xy * p_xy  # |c_i p_i| is |c_i| |p_i|
            if not t_x + t_y + t_xy <= _limit(bound, abs(t_x) + abs(t_y) + abs(t_xy)):
                broken.append(name)
        return broken

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


def _equilibrated(c, b):
    """The rows ``c`` (..., k, 3), ``b`` (..., k) that the vertex solve and every
    feasibility test read: each scaled up, exactly, by the power of two that
    puts its largest |coefficient| in [1, 2), so no product underflows at any
    alpha.  A bound pushed past every float becomes ``inf``, an unbounded row."""
    x, y, xy = _columns(np.abs(c))  # maxima over columns, not along the short last axis
    shift = np.maximum(1 - np.frexp(np.maximum(np.maximum(x, y), xy))[1], 0)
    return np.ldexp(c, shift[..., None]), np.ldexp(b, shift)


def constraints_for(scenario: Scenario) -> LinearConstraintSet:
    """The scenario's constraint system, which it keeps: :attr:`Scenario.constraints`."""
    return scenario.constraints


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
    regime) or pinned to 0 (joint-first regime).  It ranks the two or three
    vertices where an optimum can lie as :func:`_solve` does, by their
    :func:`information`, and breaks ties by its rule: at rho = 0 or rho^2 =
    alpha/(alpha+1) several are optimal, the one with the smallest p_xy
    (fewest communicated samples) is returned, and ``tie`` is set.
    """
    _check_alpha(alpha)
    if not e1 >= 0.0:
        raise InvalidScenario(f"e1 must be >= 0, got {e1}")
    # (p_xy, p_y): marginal-only, joint-only, and where the budget meets the simplex
    vertices = [(0.0, min(e1, 1.0)), (min(1.0, e1 / (alpha + 1.0)), 0.0)]
    if 1.0 < e1 < alpha + 1.0:
        p_xy = (e1 - 1.0) / alpha
        vertices.append((p_xy, 1.0 - p_xy))
    values = [information(0.0, p_y, p_xy, model.rho, False, True) for p_xy, p_y in vertices]
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
    """``points`` (..., m, 3) with negative coordinates clipped to 0, and the
    mask of those that satisfy every row of their entry's system ``c`` (...,
    k, 3), ``b`` (..., k), :func:`_equilibrated`: the one array feasibility
    test, which the planners and the CLI's ``bounds``/``sweep`` share.
    Clipping raises a budget row's load, so it comes before the test, which
    then holds for the policy actually returned.  A clipped point meets the
    three nonnegativity rows, which come first in every system, and on the
    rows after them ``c >= 0``, so ``|c|.|p|`` is ``c.p`` and only those rows
    are tested.  For finite components those three rows hold under
    :func:`_limit` exactly where ``p >= 0``, at -0.0 too: a caller that keeps
    ``p`` unclipped ANDs in ``policy_mask``, which tests them."""
    points = np.maximum(points, 0.0)
    load = _load(_columns(c[..., None, 3:, :]), *_columns(points[..., None, :]))
    holds = (load <= _limit(b[..., None, 3:], load)).all(axis=-1)
    x, y, xy = _columns(points)
    return points, holds & np.isfinite(x + y + xy)  # no inf, nan


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
    coordinate.  A nan point copies nothing and is no first copy."""
    x, y, xy = _columns(points)  # maxima over columns, not along the short last axis
    size = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(xy))
    gaps = (np.abs(c[..., :, None] - c[..., None, :]) for c in (x, y, xy))
    gap = functools.reduce(np.maximum, gaps)
    same = gap <= _SAME_REL * np.maximum(size[..., :, None], size[..., None, :])
    return ~(same & _below(points.shape[-2])).any(axis=-1) & np.isfinite(x)


@functools.cache
def _triples(k: int):
    """Every triple of k rows, and the mask (triples, 3) of the coordinates
    that a triple's nonnegativity rows, the first three of every system, pin."""
    triples = np.array(list(itertools.combinations(range(k), 3))).reshape(-1, 3)
    return triples, (triples[:, :, None] == np.arange(3)).any(axis=1)


@functools.cache
def _pairs(v: int):
    return np.triu_indices(v, 1)


def _vertices(c, b):
    """Each system's feasible LU points, (n, m, 3) and nan-padded, of ``c``
    (n, k, 3) and ``b`` (n, k), :func:`_equilibrated`.

    Intersects every triple of finite-bound row planes with a nonzero LU
    determinant in one batched solve, with no cut-off: a nearly singular
    triple's point stays only if it is feasible, and then it is a harmless
    extra candidate.  A coordinate that a triple's nonnegativity row sets to
    0 is exactly 0, not the solve's residue.  A vertex that several triples
    reach is listed once per triple (:func:`_first_copies` finds the first)."""
    triples, pinned = _triples(b.shape[-1])
    lhs, rhs = c[:, triples], b[:, triples]
    points = np.full(rhs.shape, np.nan)
    # false at nan: an inf and a 0 pivot
    regular = (np.abs(np.linalg.det(lhs)) > 0.0) & np.isfinite(rhs).all(axis=-1)
    points[regular] = np.linalg.solve(lhs[regular], rhs[regular][..., None])[..., 0]
    points = np.where(pinned, 0.0, points)  # exactly, where LU leaves residue
    return _compact(*_feasible(points, c, b))


def enumerate_vertices(constraints: LinearConstraintSet) -> list[tuple[float, float, float]]:
    """All distinct feasible vertices of a scenario's constraint polytope."""
    _, c, b = zip(*constraints._scaled)
    with np.errstate(all="ignore"):  # as in plan_stack
        points = _vertices(np.array([c]), np.array([b]))
    return [tuple(v) for v in _compact(points, _first_copies(points))[0].tolist()]


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
    start = vertices[:, i]
    u, d = start / size, (vertices[:, j] - start) / size
    a0, a1 = (u @ n)[..., 0], (d @ n)[..., 0]
    q0, q1, q2 = (np.einsum("nki,nij,nkj->nk", x, quad, y) for x, y in ((u, u), (u, d), (d, d)))
    lead, half, const = a1 * q2, a0 * q2, 2.0 * a0 * q1 - a1 * q0
    # the cancellation-free roots of lead t^2 + 2 half t + const; no real
    # root in (0, 1) gives an inf or nan t, dropped
    s = -(half + np.copysign(np.sqrt(half * half - lead * const), half))
    t = np.stack([s / lead, const / s], axis=1)[..., None]
    points = size[..., None] * (u[:, None] + t * d[:, None])
    points = np.where((t > 0.0) & (t < 1.0), points, np.nan)
    return points.reshape(len(vertices), 2 * len(i), 3)


_SINGULAR_EVERYWHERE = "target bound is infinite over the entire feasible region"


def _starved(c, b, on_x: bool):
    """Mask (n,) of the systems ``c`` (n, k, 3), ``b`` (n, k) whose rows of bound 0
    charge the target's own marginal kind and the joint kind: none informs."""
    charged = ((c > 0.0) & (b[..., None] <= 0.0)).any(axis=-2)
    return charged[:, 0 if on_x else 1] & charged[:, 2]


def _solve(scenarios, models, method, candidates, valid, starved) -> list[PlanResult]:
    """For each scenario of a stack, planned by ``method``, the best of its
    ``valid`` ``candidates`` (n, m, 3), feasible policies that include an
    optimum, or the zero policy at ``crb=inf`` where ``starved`` (a list).

    Every candidate is ranked by its standardized :func:`information` about
    the target: it does not overflow where the bound does, and optimal
    policies do not depend on the variances.  Information values within
    ``_TIE_REL`` of the best tie (``tie`` says whether distinct candidates
    do), and the tie goes to the smallest ``p_xy`` (the fewest communicated
    samples), then ``p_x``, then ``p_y``.  ``_feasible`` has vetted every
    candidate, so the pick only snaps onto [0, 1] and the simplex.  t1/t2
    candidates can hold LU copies: only a band below the best is
    deduplicated, wide enough for a chain of ``m`` copies (each moves a
    coordinate, at most about 1, by ``_SAME_REL``) of the best first copy and
    of its ties.  t3 candidates are distinct vertices and edge points.

    Raises:
        BoundOverflow: at the first entry that is not starved, where the best
            policy carries no information or its bound overflows.
    """
    rho = np.array([[m.rho] for m in models])
    t3, on_x = method is Method.FACE_ENUM, scenarios[0].target is Target.MU_X
    info = information(*_columns(candidates), rho, on_x, not t3)
    values = np.where(info > 0.0, -info, math.inf)
    best = np.fmin.reduce(values, axis=-1, where=valid, initial=math.inf)[:, None]
    # twice what m copies and the tie span: a t1/t2 copy moves p_y + p_xy / (1 - rho^2)
    # by < 2 _SAME_REL / (1 - rho^2); -info, as a point without information can copy
    band = _TIE_REL * np.abs(best) if t3 else (
        4.0 * (candidates.shape[1] * _SAME_REL + _TIE_REL) / (1.0 - rho * rho))
    near = _compact(candidates, (-info <= best + band) & valid)
    distinct = _first_copies(near) if near.shape[1] > 1 else np.isfinite(near[..., 0])
    ties = distinct.sum(axis=-1) > 1
    if not t3 and ties.any():  # distinct vertices near the best: the best of them, its ties
        info = information(*_columns(near), rho, on_x, True)
        values = np.where(info > 0.0, -info, math.inf)
        best = np.fmin.reduce(values, axis=-1, where=distinct, initial=math.inf)[:, None]
        distinct &= values <= best + _TIE_REL * np.abs(best)
        ties = distinct.sum(axis=-1) > 1
    if not t3 and near.shape[1] > 1:  # no copy is picked
        near = np.where(distinct[..., None], near, np.nan)
    # the first of the least (p_xy, p_x, p_y), per scenario; nan padding sorts last
    x, y, xy = _columns(near)
    picks = near[np.arange(len(near)), np.lexsort((y, x, xy), axis=-1)[:, 0]]
    results = []
    for k, (scenario, model, pick) in enumerate(zip(scenarios, models, picks.tolist())):
        policy = SamplingPolicy() if starved[k] else SamplingPolicy.clamped(*pick)
        objective = crb(scenario.task, scenario.target, policy, model)
        if objective == math.inf and not starved[k]:  # the pick ties the best: none informs
            raise BoundOverflow(TOO_SMALL)
        results.append(PlanResult(policy, objective, method, bool(ties[k]) and not starved[k]))
    return results


def plan_stack(scenarios, models) -> list[PlanResult]:
    """:func:`plan_linear` or :func:`plan_t3` of each scenario, as one stack
    of array operations: each result equals the single plan's, bit for bit,
    and an entry without information reads ``crb=inf`` where :func:`plan_t3`
    raises.  The scenarios share one cost family, planner (t3 or not) and
    target; ``models`` pairs one model with each.

    Each distinct constraint system, a budget ``(alpha, e1, e2)``, is built
    and its vertices found once: each system's solve is independent of the
    rest of its batch, so sharing changes no bit.  Edge points and the
    ranking read rho, so they run per scenario.  Where some budget is 0, a
    :func:`_starved` system reads the zero policy at ``crb=inf``, unranked,
    and a stack of them alone is answered before any vertex is solved.

    Raises:
        InvalidScenario: unpaired models, or mixed cost families, planners or targets.
        BoundOverflow: as the single planners, at the first scenario it applies to.
    """
    if len(scenarios) != len(models):
        raise InvalidScenario(f"a plan stack needs one model per scenario, got {len(models)}")
    if not scenarios:
        return []
    key = [(_family(s), s.task is Task.T3, s.target) for s in scenarios]
    if key.count(key[0]) < len(key):
        raise InvalidScenario("a plan stack needs one cost family, planner and target")
    (family, t3, target) = key[0]
    method = Method.FACE_ENUM if t3 else Method.VERTEX_ENUM
    systems: dict = {}  # c reads alpha only, b e1 and e2
    which = [systems.setdefault((v.alpha, v.e1, v.e2), len(systems))
             for v in (s.budget for s in scenarios)]
    c, b = _stack(family, *np.array(list(systems), float).T)
    starved = [False] * len(which)
    if any(0.0 in v[1:] for v in systems):  # only budget rows charge the joint kind
        starved = _starved(c, b, target is Target.MU_X)[which].tolist()
        if all(starved):
            return [PlanResult(SamplingPolicy(), math.inf, method, False)] * len(which)
    # scaled bounds and far-off loads overflow; an edge with no root inside reads an inf or nan t
    with np.errstate(all="ignore"):
        vertices = _vertices(*_equilibrated(c, b))
        # one copy of each vertex: t3 pairs them all, and a shared system pays once
        if t3 or len(systems) < len(which):
            vertices = _compact(vertices, _first_copies(vertices))
        if len(systems) < len(which):  # each entry's system
            vertices = vertices[which]
        valid = np.isfinite(vertices[..., 0])
        if not t3:
            return _solve(scenarios, models, method, vertices, valid, starved)
        rho = np.array([m.rho for m in models])
        # inside a segment between feasible vertices: feasible, and >= 0 as it rounds
        edges = _t3_edge_points(vertices, rho, target is Target.MU_X)
        candidates = np.concatenate([vertices, edges], axis=1)
        valid = np.concatenate([valid, np.isfinite(edges[..., 0])], axis=1)
        return _solve(scenarios, models, method, candidates, valid, starved)


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
