"""Command-line front end: plan, bounds, simulate, and sweep.

Every command is deterministic given its full flag set (including the seed)
and writes byte-identical output files on repeated invocations.  One flag table
per command states each flag's type, choices and default.  A JSON config file
(``--config``) holds flags of the command, keys with underscores, parsed as
flags ahead of the command line, so explicit flags win.

The ``sweep`` presets are data (:data:`_PRESETS`): curves, axis, grid and
columns.  A ``bounds`` sweep, and an evaluating preset with all its curves,
is one array pass of the bound evaluator :func:`_evaluate` over an array
:func:`_grid`, which prices each constraint system once, as a planning
preset plans all its curves as one stack (:func:`crbplan.strategy.plan_stack`).
A CSV table is one ``%`` template (:func:`_write_table`): a column of cells
all of exact type float, str or bool is written whole, as ``%.9g``, as is or
as ``false``/``true``; others per cell.

Exit codes: 0 success, 2 invalid configuration or malformed input
(including a bound too large to represent), 3 the requested bound is
degenerate (infinite everywhere, e.g. a zero budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import secrets
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import simulator, strategy
from .errors import CrbPlanError, SingularEverywhere
from .estimators import EstimatorKind
from .fisher import SamplingPolicy, Target, Task, crb_array, policy_mask
from .model import RHO_LIMIT, ObservationModel, validate
from .simulator import SimulationConfig, audit_resources, default_estimator
from .strategy import (ResourceBudget, Scenario, Setting, joint_priority_threshold, plan_stack,
                       plan_t1_closed_form)


class _ConfigError(CrbPlanError):
    pass


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The JSON config file's keys as flags: key ``k`` and value ``v`` give
    ``--k-with-dashes=v``, for the parser to check as a typed flag.  A key
    must name a flag of ``args``'s command, and a value a string or number."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise _ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise _ConfigError("config file must hold a JSON object")
    keys = vars(args).keys() - {"command", "config"}
    flags = []
    for key, value in values.items():
        if key not in keys:
            raise _ConfigError(f"unknown config key: {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise _ConfigError(f"config key {key!r}: {json.dumps(value)} is not a string or number")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise _ConfigError(f"missing required flag(s): {flags}")


def _build_model(args: argparse.Namespace, rho: float | None = None) -> ObservationModel:
    """The model of the flags; figure presets pass the ``rho`` they sweep.
    Only ``simulate`` reads the means: no bound depends on them."""
    if rho is None:
        _require(args, "rho")
        rho = args.rho
    means = {"mu_x": getattr(args, "mu_x", 0.0), "mu_y": getattr(args, "mu_y", 0.0)}
    return validate({**means, "var_x": args.var_x, "var_y": args.var_y, "rho": rho})


def _build_scenario(args: argparse.Namespace) -> Scenario:
    """The flags' scenario, unfiltered: :class:`Scenario` holds the rules."""
    _require(args, "task", "setting", "alpha", "e1")
    if args.setting == Setting.CENTRALIZED.value:
        _require(args, "e2")  # Scenario's own message would not name the flag
    target = None if args.target is None else Target(args.target.replace("-", "_"))
    budget = ResourceBudget(args.alpha, args.e1, args.e2)
    return Scenario(Task(args.task), Setting(args.setting), budget, target)


def _policy_from_args(args: argparse.Namespace) -> SamplingPolicy | None:
    given = [getattr(args, n) for n in ("p_x", "p_y", "p_xy")]
    if all(v is None for v in given):
        return None
    return SamplingPolicy(*(0.0 if v is None else v for v in given))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


#: The one float format, 9 significant digits: table cells and printed values.
_FLOAT = "%.9g"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT % value
    return str(value)


def _write_table(table: dict[str, list], fmt: str, out: str | None) -> None:
    """Write ``table``, equal-length columns by name, as CSV or JSONL.  The
    CSV body is one ``%`` template, each column classified once by the exact
    set of its cells' types: ``{float}`` by :data:`_FLOAT`, ``{str}`` as is,
    ``{bool}`` from ``("false", "true")`` and any other (None, int, mixed)
    by :func:`_format_cell`.  ``out`` gets one binary write."""
    header, columns = list(table), list(table.values())
    if fmt == "jsonl":
        text = "\n".join(json.dumps(dict(zip(header, row))) for row in zip(*columns)) + "\n"
    else:
        kinds = [set(map(type, c)) for c in columns]
        template = ",".join(_FLOAT if k == {float} else "%s" for k in kinds) + "\n"
        cells = [None] * (len(columns) * len(columns[0]))  # row-major, filled column by column
        for j, (kind, column) in enumerate(zip(kinds, columns)):
            cells[j::len(columns)] = (column if kind == {float} or kind == {str} else
                                      map(("false", "true").__getitem__, column)
                                      if kind == {bool} else map(_format_cell, column))
        text = ",".join(header) + "\n" + template * len(columns[0]) % tuple(cells)
    if out:
        with open(out, "wb") as fh:
            fh.write(text.encode())
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    model = _build_model(args)  # a missing --rho is named before a missing scenario flag
    record = strategy.plan(_build_scenario(args), model).as_record()
    print(" ".join(f"{k}={_format_cell(v)}" for k, v in record.items()))
    if args.out:
        _write_table({k: [v] for k, v in record.items()}, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

_SWEEPABLE = ("p_y", "p_x", "p_xy", "rho", "e1", "e2")
_DEPENDENT = {"p_y": "p_xy", "p_x": "p_xy", "p_xy": "p_y"}
_P_INDEX = {"p_x": 0, "p_y": 1, "p_xy": 2}


def _evaluate(scenario: Scenario, model: ObservationModel, p: dict, dependent: str | None = None,
              rho=None, **budget):
    """A table's rows in one array pass: the policy of each row's ``p``
    (arrays of ``p_x``, ``p_y``, ``p_xy``) as arrays, and its bound and
    feasibility as lists of Python floats and bools, at correlations ``rho``
    and budgets ``alpha``, ``e1``, ``e2`` where a sweep or a preset's curves
    give them per row.  The constraint systems are priced and scaled once, here.

    The ``dependent`` component, if named, is the largest that the row's
    system allows with the other two held: one masked ``fmin`` over its rows
    with a positive coefficient on it (budget rows and the simplex), where an
    unbounded row's inf or nan (inf minus an infinite load) changes no
    minimum, clamped to [0, 1] by ``where``, which, unlike ``clip``, turns a
    ``-0.0`` into ``0.0``.  A row whose components make no valid
    :class:`SamplingPolicy` reads ``inf`` and infeasible.  Each value equals
    the scalar :func:`crbplan.fisher.crb` and :meth:`is_feasible`, bit for bit.

    Raises:
        BoundOverflow: at the first valid row whose bound overflows.
    """
    alpha, e1, e2 = (budget.get(k, getattr(scenario.budget, k)) for k in ("alpha", "e1", "e2"))
    with np.errstate(all="ignore"):  # far-off values overflow a load; inf + -inf is nan
        c, b = strategy._equilibrated(*strategy._stack(strategy._family(scenario), alpha, e1, e2))
        if dependent is not None:
            i = _P_INDEX[dependent]
            j, k = (_P_INDEX[n] for n in _P_INDEX if n != dependent)
            p_j, p_k = (np.asarray(p[n])[..., None] for n in _P_INDEX if n != dependent)
            room = b - (c[..., j] * p_j + c[..., k] * p_k)
            cap = np.fmin.reduce(room / c[..., i], axis=-1, where=c[..., i] > 0, initial=math.inf)
            cap = np.where(cap < 1.0, cap, 1.0)
            p = {**p, dependent: np.where(cap > 0.0, cap, 0.0)}
        p_x, p_y, p_xy = np.broadcast_arrays(*(np.asarray(p[n], dtype=float) for n in _P_INDEX))
        valid = policy_mask(p_x, p_y, p_xy)
        x, y, xy = (np.where(valid, v, 0.0) for v in (p_x, p_y, p_xy))  # invalid: no information
        rho = model.rho if rho is None else rho
        bound = crb_array(scenario.task, scenario.target, x, y, xy, rho, model.var_x, model.var_y)
        # a system per row of a budget sweep or preset; _feasible reads p clipped at 0
        points = np.stack([x, y, xy], axis=-1)[..., None, :]
        feasible = valid & strategy._feasible(points, c, b)[1][..., 0]
    return (p_x, p_y, p_xy), bound.tolist(), feasible.tolist()


_MAX_SWEEP_ROWS = 10**6


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """``start + i * step``, the scalar sum bit for bit, for i up to the
    rounded step count, less a last point past ``stop`` by more than
    rounding: a ``bounds`` sweep and every preset grid."""
    steps = (stop - start) / step
    if not steps <= _MAX_SWEEP_ROWS - 1:  # also true when the quotient overflows
        raise _ConfigError(f"sweep of {steps:.3g} steps exceeds {_MAX_SWEEP_ROWS} rows")
    values = start + np.arange(int(round(steps)) + 1) * step
    if values[-1] > stop + 1e-12 * max(abs(start), abs(stop)):  # past rounding
        values = values[:-1]
    return values


def cmd_bounds(args: argparse.Namespace) -> int:
    sweep, sweeps = args.sweep, {}
    if sweep in ("rho", "e1", "e2") and getattr(args, sweep) is None:
        # the sweep sets this flag, so it is optional; a given one is checked
        # and then overridden, and 0 stands in for a missing one
        args = argparse.Namespace(**{**vars(args), sweep: 0.0})
    model, scenario = _build_model(args), _build_scenario(args)
    start, stop, step = args.start, args.stop, args.step
    if step <= 0.0 or stop < start or not all(math.isfinite(v) for v in (start, stop, step)):
        raise _ConfigError(f"malformed sweep range [{start}, {stop}] step {step}")
    values = _grid(start, stop, step)
    rows = len(values)
    if sweep == "rho":
        # an out-of-range correlation ends the sweep; earlier rows raise first
        inside = np.abs(values) <= RHO_LIMIT
        rows = rows if inside.all() else int(np.argmin(inside))
    grid = values[:rows]
    dependent = _DEPENDENT.get(sweep)
    if dependent is not None:
        if getattr(args, sweep) is not None or getattr(args, dependent) is not None:
            raise _ConfigError(f"a {sweep} sweep sets {sweep} and {dependent}: give neither flag")
        p = {name: getattr(args, name) or 0.0 for name in _P_INDEX}
        p[sweep] = grid
    else:
        p = dict(zip(_P_INDEX, (_policy_from_args(args) or SamplingPolicy()).as_tuple()))
        if sweep != "rho":  # the values ascend: only the first can be negative
            budget = replace(scenario.budget, **{sweep: values[0].item()})
            replace(scenario, budget=budget)  # refuses a decentralized e2 sweep
        sweeps[sweep] = grid
    p = {n: np.full(rows, v) for n, v in p.items()}  # each component broadcast once
    _, crbs, feasible = _evaluate(scenario, model, p, dependent, **sweeps)
    if rows < len(values):
        try:
            ObservationModel(model.mu_x, model.mu_y, model.var_x, model.var_y, values[rows].item())
        except CrbPlanError as exc:
            raise _ConfigError(f"rho sweep leaves the valid range: {exc}") from exc
    _write_table({"sweep_var": [sweep] * rows, "value": grid.tolist(), "crb": crbs,
                  "feasible": feasible}, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    model, scenario = _build_model(args), _build_scenario(args)
    policy, planned = _policy_from_args(args), None
    if policy is None:
        planned = strategy.plan(scenario, model)
        policy = planned.policy
    estimator = (default_estimator(scenario, policy) if args.estimator is None
                 else EstimatorKind(args.estimator))
    seed = secrets.randbits(63) if args.seed is None else args.seed
    config = SimulationConfig(scenario=scenario, model=model, policy=policy, estimator=estimator,
                              slots=args.slots, replications=args.reps, master_seed=seed)
    report = simulator.run(config)
    if report.replications_used < 2:  # run raises at 0; the empirical variance reads nan at 1
        raise _ConfigError(f"only 1 of {args.reps} replications was usable: "
                           "the empirical variance needs 2")
    if args.trace:
        simulator.write_trace(config, args.trace)
    if planned is not None:  # stdout stays empty until nothing is left to refuse
        print("policy from planner:", " ".join(
            f"{k}={_format_cell(v)}" for k, v in planned.as_record().items()
        ))
    print(f"seed={seed}")
    true_mean = model.mu_x if scenario.target is Target.MU_X else model.mu_y
    print(f"estimator={estimator.value} policy p_x={_format_cell(policy.p_x)} "
          f"p_y={_format_cell(policy.p_y)} p_xy={_format_cell(policy.p_xy)}")
    print(f"replications used={report.replications_used} "
          f"excluded={report.replications_excluded} slots={report.slots_per_replication}")
    print(f"{'quantity':<20}{'analytic':>16}{'empirical':>16}")
    for name, analytic, empirical in [
        ("mean", true_mean, report.mean_estimate),
        ("variance_per_slot", report.analytic_estimator_variance,
         report.empirical_variance_per_slot),
        ("crb", report.analytic_crb, None),
    ]:
        print(f"{name:<20}{_format_cell(analytic) or '-':>16}{_format_cell(empirical) or '-':>16}")
    for check in audit_resources(report, scenario).checks:
        print(f"audit {check.actor}: cost={_format_cell(check.mean_cost_per_slot)} "
              f"budget={_format_cell(check.budget)} slack={_format_cell(check.slack)} "
              f"stderr={_format_cell(check.stderr)} {'PASS' if check.passed else 'FAIL'}")
    if args.out:
        _write_table({k: [v] for k, v in report.as_record().items()}, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep (figure presets)
# ---------------------------------------------------------------------------

def _preset_scenario(preset, fields: dict) -> Scenario:
    """The preset's scenario at ``fields``.  A preset whose e1 is None keeps
    the sensor budget inactive, at alpha + 1 (fig2c); one that gives no e2
    gives the data center the sensors' budget (fig4c)."""
    e1 = fields["alpha"] + 1.0 if fields["e1"] is None else fields["e1"]
    e2 = fields.get("e2", e1) if preset.setting is Setting.CENTRALIZED else None
    budget = ResourceBudget(fields["alpha"], e1, e2)
    return Scenario(preset.task, preset.setting, budget, preset.target)


def _threshold_columns(args, preset, curves):
    """The decentralized joint-priority threshold at each alpha, per curve."""
    alphas = _grid(0.0, *preset.grid).tolist() * len(curves)
    return {"alpha": alphas,
            "rho_star": [joint_priority_threshold(a, Setting.DECENTRALIZED) for a in alphas]}


def _closed_form_columns(args, preset, curves):
    """The decentralized t1 closed-form plan at each e1 from 0 to alpha plus
    the grid's stop, with |rho| below, at or above the joint-priority
    threshold by each curve's ``regime``; the plan reads no variance."""
    stop, step = preset.grid
    rows = []
    for fields in curves:
        alpha, regime = fields["alpha"], fields["regime"]
        thr = joint_priority_threshold(alpha, Setting.DECENTRALIZED)
        rho = {"below": math.sqrt(0.5 * thr * thr), "at": thr,
               "above": math.sqrt(thr * thr + 0.5 * (1.0 - thr * thr))}[regime]
        model = ObservationModel(0.0, 0.0, 1.0, 1.0, rho)
        rows += [(regime, rho, e1, plan_t1_closed_form(alpha, e1, model))
                 for e1 in _grid(0.0, alpha + stop, step).tolist()]
    regimes, rhos, e1s, results = map(list, zip(*rows))
    return {"regime": regimes, "rho": rhos, "e1": e1s, "p_y": [r.policy.p_y for r in results],
            "p_xy": [r.policy.p_xy for r in results], "tie": [r.tie for r in results]}


def _eval_columns(args, preset, curves):
    """The bound of the policy whose ``axis`` components run over the grid
    (others 0, ``p_xy`` as large as the budget allows), for each curve in
    turn, as one array pass: it checks every curve's flags first."""
    models, scenarios = zip(*((_build_model(args, fields["rho"]), _preset_scenario(preset, fields))
                              for fields in curves))
    grid, budgets = _grid(0.0, *preset.grid), [s.budget for s in scenarios]
    # each curve's values on its rows; a decentralized e2 of None prints empty
    per_curve = {"rho": [m.rho for m in models],
                 **{n: [getattr(b, n) for b in budgets] for n in ("alpha", "e1", "e2")}}
    rows = {n: np.repeat(np.array(v, dtype=object), len(grid)) for n, v in per_curve.items()}
    p = {"p_x": 0.0, "p_y": 0.0, **dict.fromkeys(preset.axis, np.tile(grid, len(curves)))}
    policy, crbs, feasible = _evaluate(scenarios[0], models[0], p, "p_xy",
                                       **{n: v.astype(float) for n, v in rows.items()})
    return {**{n: rows[n].tolist() for n in ("rho", "e1", "e2")},
            **{n: v.tolist() for n, v in zip(_P_INDEX, policy)}, "crb": crbs, "feasible": feasible}


def _plan_columns(args, preset, curves):
    """The plan with the ``axis`` field on the grid, for each curve in turn,
    as one plan stack: it raises at its first overflowing entry."""
    grid = _grid(0.0, *preset.grid).tolist()
    rows_fields = [{**fields, preset.axis: v} for fields in curves for v in grid]
    by_rho = {rho: _build_model(args, rho) for rho in dict.fromkeys(f["rho"] for f in rows_fields)}
    models = [by_rho[f["rho"]] for f in rows_fields]
    scenarios = [_preset_scenario(preset, f) for f in rows_fields]
    results = plan_stack(scenarios, models)
    policy = {n: [getattr(r.policy, n) for r in results] for n in _P_INDEX}
    crbs, ties = [r.objective_value for r in results], [r.tie for r in results]
    budgets = {"rho": [m.rho for m in models], "e1": [s.budget.e1 for s in scenarios],
               "e2": [s.budget.e2 for s in scenarios]}
    return {**budgets, **policy, "crb": crbs, "tie": ties}


class _Preset(NamedTuple):
    """A figure preset as data: its columns, by name, come from
    ``columns(args, preset, curves)``, each curve's fields over the
    ``grid``, ``(stop, step)`` from 0 (fig1c's stop counts from alpha), of
    its ``axis``.  ``defaults`` gives each flag it reads (another budget,
    rho or variance flag exits 2) when not passed; curves override fields
    (``alpha``, ``e1``, ``e2``, ``rho``, ``regime``)."""

    columns: Callable
    axis: str | tuple[str, ...]
    grid: tuple[float, float]
    defaults: dict = {}
    curves: tuple = ({},)
    task: Task = Task.T1
    setting: Setting = Setting.DECENTRALIZED
    target: Target | None = None


_T3_CENTRALIZED = {"task": Task.T3, "setting": Setting.CENTRALIZED, "target": Target.MU_X}
_VARIANCES = {"var_x": 1.0, "var_y": 1.0}  # read by every preset whose columns hold a bound
_BUDGETS_2 = {**_VARIANCES, "alpha": 2.0, "e1": 2.0, "e2": 2.0}
_PRESETS = {
    # decentralized prioritization boundary: critical |rho| versus alpha
    "fig1a": _Preset(_threshold_columns, "alpha", (6.0, 0.05)),
    # bound versus p_y for one unknown mean, three sensor budgets
    "fig1b": _Preset(
        _eval_columns, ("p_y",), (1.0, 0.01), {**_VARIANCES, "alpha": 2.0, "rho": 0.5, "e1": 2.0},
        ({"e1": math.inf}, {}, {"e1": 0.8}),
    ),
    # optimal joint-sampling share versus budget (up to alpha + 1.5), by
    # correlation regime
    "fig1c": _Preset(
        _closed_form_columns, "e1", (1.5, 0.05),
        {"alpha": 2.0}, ({"regime": "below"}, {"regime": "at"}, {"regime": "above"}),
    ),
    # two unknown means, decentralized: bound versus p_x, two budgets
    "fig2a": _Preset(
        _eval_columns, ("p_x",), (1.0, 0.01), {**_VARIANCES, "alpha": 2.0, "rho": 0.5, "e1": 2.0},
        ({"e1": math.inf}, {}), Task.T3, Setting.DECENTRALIZED, Target.MU_X,
    ),
    # centralized, one unknown mean: optimal policy versus DC budget, rho
    # below / above the centralized threshold sqrt(1/2); sensor budget active
    "fig2b": _Preset(
        _plan_columns, "e2", (4.5, 0.05), {**_VARIANCES, "alpha": 2.0, "e1": 1.5},
        ({"rho": 0.5}, {"rho": 0.8}), setting=Setting.CENTRALIZED,
    ),
    # the same with the sensor budget inactive (e1 >= alpha + 1)
    "fig2c": _Preset(
        _plan_columns, "e2", (4.5, 0.05), {**_VARIANCES, "alpha": 2.0, "e1": None},
        ({"rho": 0.5}, {"rho": 0.8}), setting=Setting.CENTRALIZED,
    ),
    # centralized, two unknown means: bound versus symmetric marginal share
    "fig3": _Preset(
        _eval_columns, ("p_x", "p_y"), (0.5, 0.005), {**_BUDGETS_2, "rho": 0.8},
        ({"e1": math.inf, "e2": math.inf}, {}), **_T3_CENTRALIZED,
    ),
    # stringent budgets: bound versus symmetric marginal share, by rho
    "fig4a": _Preset(
        _eval_columns, ("p_x", "p_y"), (0.5, 0.005), _BUDGETS_2,
        ({"rho": 0.5}, {"rho": 0.7}, {"rho": 0.9}), **_T3_CENTRALIZED,
    ),
    # optimal two-unknown-means policy versus correlation
    "fig4b": _Preset(_plan_columns, "rho", (0.95, 0.01), _BUDGETS_2, **_T3_CENTRALIZED),
    # relaxed budgets, the data center's equal to the sensors': bound versus
    # symmetric marginal share
    "fig4c": _Preset(
        _eval_columns, ("p_x", "p_y"), (0.5, 0.005),
        {**_VARIANCES, "alpha": 2.0, "rho": 0.8, "e1": 4.0}, ({"e1": 2.0}, {}), **_T3_CENTRALIZED,
    ),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    preset = _PRESETS[args.figure]
    for name in ("alpha", "e1", "e2", "rho", "var_x", "var_y"):
        if name not in preset.defaults and getattr(args, name) is not None:
            flag = name.replace("_", "-")
            raise _ConfigError(f"sweep --figure {args.figure} does not read --{flag}")
    flags = {name: default if getattr(args, name) is None else getattr(args, name)
             for name, default in preset.defaults.items()}
    args = argparse.Namespace(**{**vars(args), **flags})  # _build_model reads the variances
    table = preset.columns(args, preset, [{**flags, **curve} for curve in preset.curves])
    _write_table(table, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@dataclass
class _Flag:
    """A row of a command's flag table, in the terms of ``add_argument``;
    ``dest``, its Namespace attribute, is the flag's name with underscores."""

    flag: str
    type: Callable = str
    choices: tuple | None = None
    default: object = None
    required: bool = False
    help: str | None = None

    def __post_init__(self):
        self.dest = self.flag[2:].replace("-", "_")


_SCENARIO_FLAGS = (  # a sweep preset fixes task, setting and target
    _Flag("--task", choices=tuple(t.value for t in Task)),
    _Flag("--setting", choices=tuple(s.value for s in Setting)),
    _Flag("--target", choices=("mu-x", "mu-y")))
_COMMON_FLAGS = (
    _Flag("--alpha", float), _Flag("--e1", float, help="sensor budget (use 'inf' for unbounded)"),
    _Flag("--e2", float, help="data-center budget, centralized only"), _Flag("--rho", float),
    _Flag("--var-x", float, default=1.0), _Flag("--var-y", float, default=1.0),
    _Flag("--config", help="JSON object of this command's flags, keys with underscores"),
    _Flag("--out", help="output file (default: stdout)"),
    _Flag("--format", choices=("csv", "jsonl"), default="csv"))
_POLICY_FLAGS = tuple(_Flag("--" + name.replace("_", "-"), float) for name in _P_INDEX)
#: Each command's help line and flag table, in the order of its Namespace.
_COMMANDS = {
    "plan": ("solve for the bound-minimizing policy", _SCENARIO_FLAGS + _COMMON_FLAGS),
    "bounds": ("sweep one variable and emit the bound", _SCENARIO_FLAGS + _COMMON_FLAGS + (
        _Flag("--sweep", choices=_SWEEPABLE, required=True), _Flag("--start", float, default=0.0),
        _Flag("--stop", float, default=1.0), _Flag("--step", float, default=0.01),
        *_POLICY_FLAGS)),
    "simulate": ("Monte Carlo run with resource audit", _SCENARIO_FLAGS + _COMMON_FLAGS + (
        _Flag("--mu-x", float, default=0.0), _Flag("--mu-y", float, default=0.0), *_POLICY_FLAGS,
        _Flag("--estimator", choices=tuple(e.value for e in EstimatorKind)), _Flag("--seed", int),
        _Flag("--slots", int, default=1000), _Flag("--reps", int, default=2000),
        _Flag("--trace", help="write one replication's slot trace CSV here"))),
    "sweep": ("emit plot-ready data for a named figure", tuple(  # a preset gives the variances
        replace(f, default=None) if f.flag.startswith("--var") else f for f in _COMMON_FLAGS
    ) + (_Flag("--figure", choices=tuple(sorted(_PRESETS)), required=True),)),
}
_HELP = _Flag("-h/--help")  # its option strings, as argparse names it
#: Each command's option strings in argparse's order (the help, then the
#: table's), each read as its row and no value, and its Namespace defaults.
_OPTIONS = {name: ({o: (f, None) for f in (_HELP, *flags) for o in f.flag.split("/")},
                   {f.dest: f.default for f in flags}) for name, (_, flags) in _COMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line from main, not the usage block
        raise _ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of :data:`_COMMANDS`, built once, for ``-h`` and unknown commands."""
    parser = _Parser(prog="crbplan", description="Plan, bound, and simulate two-sensor correlated "
                     "Gaussian sampling under resource budgets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for f in flags:
            command.add_argument(f.flag, type=f.type, choices=f.choices, default=f.default,
                                 required=f.required, help=f.help)
    return parser


def _option(options: dict, token: str):
    """``token`` as argparse reads it: None for a value, a negative number
    in any notation too, else its flag's row (None if unknown) and the value
    after its ``=`` or a short flag's letters.  A prefix of two flags raises."""
    if token in options:
        return options[token]
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if name in options:
        return options[name][0], value if eq else None
    long = token[1] == "-"
    matches = [o for o in options if (o.startswith(name) if long else o == token[:2])]
    if len(matches) > 1:
        raise _ConfigError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return options[matches[0]][0], (value if eq else None) if long else token[2:]
    try:
        float(token)
    except ValueError:
        return None if " " in token else (None, None)
    return None


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass over the command's
    flag table, as argparse reads it: ``--f v`` or ``--f=v``, a unique
    prefix, the last of a repeated flag; a ``--`` and all after it are left
    over.  ``-h`` and a line with no known command go to argparse.  A
    refusal raises :class:`_ConfigError` with argparse's message."""
    if not argv or argv[0] not in _COMMANDS:  # -h, or a missing or unknown command
        return build_parser().parse_args(argv)
    (options, defaults), tokens = _OPTIONS[argv[0]], argv[1:]
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_option(options, token) if token[:1] == "-" else None for token in tokens[:end]]
    values, extras, i = dict(defaults), [], 0
    while i < end:
        kind, i = kinds[i], i + 1
        if kind is None or kind[0] is None:  # a value no flag took, or an unknown flag
            extras.append(tokens[i - 1])
            continue
        flag, value = kind
        if flag is _HELP:  # argparse prints the help and exits 0, or refuses a value
            build_parser().parse_args([argv[0], tokens[i - 1]])
        if value is None:
            if i == end or kinds[i] is not None:
                raise _ConfigError(f"argument {flag.flag}: expected one argument")
            value, i = tokens[i], i + 1
        try:
            value = flag.type(value)
        except ValueError:
            raise _ConfigError(f"argument {flag.flag}: invalid {flag.type.__name__} value: "
                               f"{value!r}") from None
        if flag.choices is not None and value not in flag.choices:
            raise _ConfigError(f"argument {flag.flag}: invalid choice: {value!r} "
                               f"(choose from {', '.join(map(repr, flag.choices))})")
        values[flag.dest] = value
    missing = [f.flag for f in _COMMANDS[argv[0]][1] if f.required and values[f.dest] is None]
    if missing:
        raise _ConfigError(f"the following arguments are required: {', '.join(missing)}")
    if extras or end < len(tokens):  # argparse leaves "--" and all after it over
        raise _ConfigError(f"unrecognized arguments: {' '.join([*extras, *tokens[end:]])}")
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        if args.config:  # the file's flags first: the command line wins
            args = _parse([argv[0], *_config_flags(args), *argv[1:]])
        # looked up per call, so a function rebound on this module (a wrapper) runs
        return globals()[f"cmd_{args.command}"](args)
    except SingularEverywhere as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CrbPlanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
