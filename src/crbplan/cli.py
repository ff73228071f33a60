"""Command-line front end: plan, bounds, simulate, and sweep.

Every command is deterministic given its full flag set (including the seed)
and writes byte-identical output files on repeated invocations.  The parser
alone states each flag's type, choices and default.  A JSON config file
(``--config``) holds flags of the command, keys with underscores, parsed as
flags ahead of the command line, so explicit flags win.

The ``sweep`` presets are data (:data:`_PRESETS`): curves, axis, grid and
columns.  A ``bounds`` sweep and each preset curve are one array pass, the
bound evaluator :func:`_evaluate` or one stack of plans
(:func:`crbplan.strategy.plan_stack`).

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
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from . import simulator, strategy
from .errors import CrbPlanError, SingularEverywhere
from .estimators import EstimatorKind
from .fisher import SamplingPolicy, Target, Task, crb_array, policy_mask
from .model import RHO_LIMIT, ObservationModel, validate
from .simulator import SimulationConfig, audit_resources, default_estimator
from .strategy import (
    ResourceBudget,
    Scenario,
    Setting,
    joint_priority_threshold,
    plan_stack,
    plan_t1_closed_form,
)


class _ConfigError(CrbPlanError):
    pass


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser, scenario: bool = True) -> None:
    if scenario:  # a sweep preset fixes task, setting and target
        p.add_argument("--task", choices=[t.value for t in Task])
        p.add_argument("--setting", choices=[s.value for s in Setting])
        p.add_argument("--target", choices=["mu-x", "mu-y"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--e1", type=float, help="sensor budget (use 'inf' for unbounded)")
    p.add_argument("--e2", type=float, help="data-center budget, centralized only")
    p.add_argument("--rho", type=float)
    p.add_argument("--var-x", type=float, dest="var_x", default=1.0)
    p.add_argument("--var-y", type=float, dest="var_y", default=1.0)
    p.add_argument("--config", help="JSON object of this command's flags, keys with underscores")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")


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
    CSV body is one template: :data:`_FLOAT` for a column of cells of exact
    type ``float``, else ``%s`` of each cell's :func:`_format_cell`."""
    header, columns = list(table), list(table.values())
    if fmt == "jsonl":
        text = "\n".join(json.dumps(dict(zip(header, row))) for row in zip(*columns)) + "\n"
    else:
        floats = [set(map(type, c)) == {float} for c in columns]
        template = ",".join(_FLOAT if f else "%s" for f in floats) + "\n"
        cells = zip(*(c if f else map(_format_cell, c) for f, c in zip(floats, columns)))
        text = ",".join(header) + "\n" + template * len(columns[0]) % tuple(chain(*cells))
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    model = _build_model(args)
    scenario = _build_scenario(args)
    result = strategy.plan(scenario, model)
    record = result.as_record()
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


def derive_dependent(scenario: Scenario, fixed: dict, dependent: str):
    """Largest value of one probability the scenario's constraints allow.

    Holds the other two components at ``fixed`` (numbers or arrays) and
    pushes the dependent one against every row with a positive coefficient
    on it (budget rows and the simplex), one masked ``fmin`` over the rows of
    :func:`crbplan.strategy._stack`: an unbounded row's inf or nan (inf minus
    an infinite load) changes no minimum.  Clamps to [0, 1] by ``where``,
    which, unlike ``clip``, turns a ``-0.0`` into ``0.0``.
    """
    idx = _P_INDEX[dependent]
    budget = scenario.budget
    c, b = strategy._stack(strategy._family(scenario), budget.alpha, budget.e1, budget.e2)
    j, k = (_P_INDEX[n] for n in _P_INDEX if n != dependent)
    p_j, p_k = (np.asarray(fixed.get(n, 0.0))[..., None] for n in _P_INDEX if n != dependent)
    with np.errstate(all="ignore"):  # far-off fixed values overflow a load
        residual = b - (c[:, j] * p_j + c[:, k] * p_k)
        cap = np.fmin.reduce(residual / c[:, idx], axis=-1, where=c[:, idx] > 0, initial=math.inf)
    cap = np.where(cap < 1.0, cap, 1.0)
    return np.where(cap > 0.0, cap, 0.0)


def _evaluate(scenario: Scenario, model: ObservationModel, p: dict, rho=None, e1=None, e2=None):
    """One curve as arrays: the bound and the feasibility of each row's
    policy ``p`` (arrays of ``p_x``, ``p_y``, ``p_xy``), at correlations
    ``rho`` and budgets ``e1``, ``e2`` where a sweep gives them.  A row whose
    components make no valid :class:`SamplingPolicy` reads ``inf`` and
    infeasible.  Each value equals the scalar :func:`crbplan.fisher.crb` and
    :meth:`is_feasible`, bit for bit; the lists hold Python floats and bools.

    Raises:
        BoundOverflow: at the first valid row whose bound overflows.
    """
    p_x, p_y, p_xy = np.broadcast_arrays(*(np.asarray(p[n], dtype=float) for n in _P_INDEX))
    with np.errstate(all="ignore"):  # as Python floats: inf + -inf is nan, no warning
        valid = policy_mask(p_x, p_y, p_xy)
        x, y, xy = (np.where(valid, v, 0.0) for v in (p_x, p_y, p_xy))  # invalid: no information
        rho = model.rho if rho is None else rho
        bound = crb_array(scenario.task, scenario.target, x, y, xy, rho, model.var_x, model.var_y)
        feasible = valid & strategy._feasibility(scenario, np.stack([x, y, xy], axis=-1), e1, e2)
    return bound.tolist(), feasible.tolist()


_MAX_SWEEP_ROWS = 10**6


def _grid(start: float, stop: float, step: float) -> list[float]:
    """``start + i * step`` for i up to the rounded step count, less a last
    point past ``stop`` by more than rounding: a ``bounds`` sweep and every
    preset grid."""
    steps = (stop - start) / step
    if not steps <= _MAX_SWEEP_ROWS - 1:  # also true when the quotient overflows
        raise _ConfigError(f"sweep of {steps:.3g} steps exceeds {_MAX_SWEEP_ROWS} rows")
    values = [start + i * step for i in range(int(round(steps)) + 1)]
    if values[-1] > stop + 1e-12 * max(abs(start), abs(stop)):  # past rounding
        values.pop()
    return values


def cmd_bounds(args: argparse.Namespace) -> int:
    sweep, sweeps = args.sweep, {}
    if sweep in ("rho", "e1", "e2") and getattr(args, sweep) is None:
        # the sweep sets this flag, so it is optional; a given one is checked
        # and then overridden, and 0 stands in for a missing one
        args = argparse.Namespace(**{**vars(args), sweep: 0.0})
    model = _build_model(args)
    scenario = _build_scenario(args)
    start, stop, step = args.start, args.stop, args.step
    if step <= 0.0 or stop < start or not all(math.isfinite(v) for v in (start, stop, step)):
        raise _ConfigError(f"malformed sweep range [{start}, {stop}] step {step}")
    values = np.array(_grid(start, stop, step))
    dependent = _DEPENDENT.get(sweep)
    if dependent is not None:
        if getattr(args, sweep) is not None or getattr(args, dependent) is not None:
            raise _ConfigError(f"a {sweep} sweep sets {sweep} and {dependent}: give neither flag")
        p = {name: getattr(args, name) or 0.0 for name in _P_INDEX}
        p[sweep] = values
        p[dependent] = derive_dependent(scenario, p, dependent)
    else:
        p = dict(zip(_P_INDEX, (_policy_from_args(args) or SamplingPolicy()).as_tuple()))
        if sweep != "rho":  # the values ascend: only the first can be negative
            budget = ResourceBudget(**{**vars(scenario.budget), sweep: values[0].item()})
            Scenario(**{**vars(scenario), "budget": budget})  # refuses a decentralized e2 sweep
        sweeps[sweep] = values
    # a correlation out of range ends the sweep; the rows before it still
    # raise their own errors first
    inside = np.abs(values) <= RHO_LIMIT if sweep == "rho" else np.full(values.shape, True)
    rows = len(values) if inside.all() else int(np.argmin(inside))
    crbs, feasible = _evaluate(
        scenario, model, {n: np.broadcast_to(v, values.shape)[:rows] for n, v in p.items()},
        **{n: v[:rows] for n, v in sweeps.items()},
    )
    if rows < len(values):
        try:
            ObservationModel(model.mu_x, model.mu_y, model.var_x, model.var_y, values[rows].item())
        except CrbPlanError as exc:
            raise _ConfigError(f"rho sweep leaves the valid range: {exc}") from exc
    _write_table({"sweep_var": [sweep] * rows, "value": values[:rows].tolist(), "crb": crbs,
                  "feasible": feasible}, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _build_model(args)
    scenario = _build_scenario(args)
    policy = _policy_from_args(args)
    if policy is None:
        planned = strategy.plan(scenario, model)
        policy = planned.policy
        print("policy from planner:", " ".join(
            f"{k}={_format_cell(v)}" for k, v in planned.as_record().items()
        ))
    estimator = (
        EstimatorKind(args.estimator)
        if args.estimator is not None
        else default_estimator(scenario, policy)
    )
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(63)
    config = SimulationConfig(
        scenario=scenario,
        model=model,
        policy=policy,
        estimator=estimator,
        slots=args.slots,
        replications=args.reps,
        master_seed=seed,
    )
    print(f"seed={seed}")
    report = simulator.run(config)
    if args.trace:
        simulator.write_trace(config, args.trace)

    true_mean = model.mu_x if scenario.target is Target.MU_X else model.mu_y
    print(
        f"estimator={estimator.value} policy p_x={_format_cell(policy.p_x)} "
        f"p_y={_format_cell(policy.p_y)} p_xy={_format_cell(policy.p_xy)}"
    )
    print(
        f"replications used={report.replications_used} "
        f"excluded={report.replications_excluded} slots={report.slots_per_replication}"
    )
    table = [
        ("mean", true_mean, report.mean_estimate),
        (
            "variance_per_slot",
            report.analytic_estimator_variance,
            report.empirical_variance_per_slot,
        ),
        ("crb", report.analytic_crb, None),
    ]
    print(f"{'quantity':<20}{'analytic':>16}{'empirical':>16}")
    for name, analytic, empirical in table:
        print(
            f"{name:<20}{_format_cell(analytic) or '-':>16}"
            f"{_format_cell(empirical) or '-':>16}"
        )
    audit = audit_resources(report, scenario)
    for check in audit.checks:
        print(
            f"audit {check.actor}: cost={_format_cell(check.mean_cost_per_slot)} "
            f"budget={_format_cell(check.budget)} slack={_format_cell(check.slack)} "
            f"stderr={_format_cell(check.stderr)} {'PASS' if check.passed else 'FAIL'}"
        )
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


def _budget_columns(scenarios: list[Scenario], models: list[ObservationModel]) -> dict:
    return {"rho": [m.rho for m in models], "e1": [s.budget.e1 for s in scenarios],
            "e2": [s.budget.e2 for s in scenarios]}


def _threshold_columns(args, preset, fields):
    """The decentralized joint-priority threshold at each alpha."""
    alphas = _grid(0.0, *preset.grid)
    return {"alpha": alphas,
            "rho_star": [joint_priority_threshold(a, Setting.DECENTRALIZED) for a in alphas]}


def _closed_form_columns(args, preset, fields):
    """The decentralized t1 closed-form plan at each e1 from 0 to alpha plus
    the grid's stop, with |rho| below, at or above the joint-priority
    threshold by the curve's ``regime``; the plan reads no variance."""
    alpha = fields["alpha"]
    thr = joint_priority_threshold(alpha, Setting.DECENTRALIZED)
    rho = {"below": math.sqrt(0.5 * thr * thr), "at": thr,
           "above": math.sqrt(thr * thr + 0.5 * (1.0 - thr * thr))}[fields["regime"]]
    model = ObservationModel(0.0, 0.0, 1.0, 1.0, rho)
    stop, step = preset.grid
    e1s = _grid(0.0, alpha + stop, step)
    results = [plan_t1_closed_form(alpha, e1, model) for e1 in e1s]
    return {"regime": [fields["regime"]] * len(e1s), "rho": [rho] * len(e1s), "e1": e1s,
            "p_y": [r.policy.p_y for r in results], "p_xy": [r.policy.p_xy for r in results],
            "tie": [r.tie for r in results]}


def _eval_columns(args, preset, fields):
    """The bound of the policy whose ``axis`` components run over the grid
    (others 0, ``p_xy`` as large as the budget allows), in one array pass."""
    model = _build_model(args, fields["rho"])
    scenario = _preset_scenario(preset, fields)
    grid = np.array(_grid(0.0, *preset.grid))
    p = {"p_x": 0.0, "p_y": 0.0, **dict.fromkeys(preset.axis, grid)}
    p["p_xy"] = derive_dependent(scenario, p, "p_xy")
    crbs, feasible = _evaluate(scenario, model, p)
    budgets = _budget_columns([scenario] * len(grid), [model] * len(grid))
    policy = {n: np.broadcast_to(p[n], grid.shape).tolist() for n in _P_INDEX}
    return {**budgets, **policy, "crb": crbs, "feasible": feasible}


def _plan_columns(args, preset, fields):
    """The plan with the ``axis`` field on the grid, as one plan stack."""
    model = None if preset.axis == "rho" else _build_model(args, fields["rho"])
    rows_fields = [{**fields, preset.axis: v} for v in _grid(0.0, *preset.grid)]
    models = [_build_model(args, f["rho"]) if model is None else model for f in rows_fields]
    scenarios = [_preset_scenario(preset, f) for f in rows_fields]
    results = plan_stack(scenarios, models)
    policy = {n: [getattr(r.policy, n) for r in results] for n in _P_INDEX}
    crbs, ties = [r.objective_value for r in results], [r.tie for r in results]
    return {**_budget_columns(scenarios, models), **policy, "crb": crbs, "tie": ties}


class _Preset(NamedTuple):
    """A figure preset as data: each curve's columns, by name, come from
    ``columns(args, preset, fields)`` over the ``grid``, ``(stop, step)``
    from 0 (fig1c's stop counts from alpha), of its ``axis``.  ``defaults`` gives each
    flag it reads (another budget, rho or variance flag exits 2) when not passed;
    curves override fields (``alpha``, ``e1``, ``e2``, ``rho``, ``regime``)."""

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
    curves = [preset.columns(args, preset, {**flags, **curve}) for curve in preset.curves]
    table = {name: list(chain.from_iterable(c[name] for c in curves)) for name in curves[0]}
    _write_table(table, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and a config file's values are parsed as flags."""
    parser = argparse.ArgumentParser(
        prog="crbplan",
        description=(
            "Plan, bound, and simulate two-sensor correlated Gaussian sampling "
            "under resource budgets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve for the bound-minimizing policy")
    _add_common_flags(p_plan)

    p_bounds = sub.add_parser("bounds", help="sweep one variable and emit the bound")
    _add_common_flags(p_bounds)
    p_bounds.add_argument("--sweep", required=True, choices=_SWEEPABLE)
    p_bounds.add_argument("--start", type=float, default=0.0)
    p_bounds.add_argument("--stop", type=float, default=1.0)
    p_bounds.add_argument("--step", type=float, default=0.01)
    p_bounds.add_argument("--p-x", type=float, dest="p_x")
    p_bounds.add_argument("--p-y", type=float, dest="p_y")
    p_bounds.add_argument("--p-xy", type=float, dest="p_xy")

    p_sim = sub.add_parser("simulate", help="Monte Carlo run with resource audit")
    _add_common_flags(p_sim)
    p_sim.add_argument("--mu-x", type=float, dest="mu_x", default=0.0)
    p_sim.add_argument("--mu-y", type=float, dest="mu_y", default=0.0)
    p_sim.add_argument("--p-x", type=float, dest="p_x")
    p_sim.add_argument("--p-y", type=float, dest="p_y")
    p_sim.add_argument("--p-xy", type=float, dest="p_xy")
    p_sim.add_argument(
        "--estimator", choices=[e.value for e in EstimatorKind]
    )
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--slots", type=int, default=1000)
    p_sim.add_argument("--reps", type=int, default=2000)
    p_sim.add_argument("--trace", help="write one replication's slot trace CSV here")

    p_sweep = sub.add_parser("sweep", help="emit plot-ready data for a named figure")
    _add_common_flags(p_sweep, scenario=False)
    p_sweep.set_defaults(var_x=None, var_y=None)  # a preset's defaults give them
    p_sweep.add_argument("--figure", required=True, choices=sorted(_PRESETS))

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    # looked up per call, so a function rebound on this module (a wrapper) runs
    command = globals()[f"cmd_{args.command}"]
    try:
        if args.config:  # the file's flags first: the command line wins
            args = parser.parse_args([argv[0], *_config_flags(args), *argv[1:]])
        return command(args)
    except SingularEverywhere as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CrbPlanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
