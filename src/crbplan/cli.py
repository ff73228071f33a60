"""Command-line front end: plan, bounds, simulate, and sweep.

Every command is deterministic given its full flag set (including the seed)
and writes byte-identical output files on repeated invocations.  Flags may
also be supplied through a JSON config file (``--config``); explicit flags
win over file values.

Exit codes: 0 success, 2 invalid configuration or malformed input
(including a bound too large to represent), 3 the requested bound is
degenerate (infinite everywhere, e.g. a zero budget).
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys

from . import simulator, strategy
from .errors import CrbPlanError, SingularEverywhere
from .estimators import EstimatorKind
from .fisher import SamplingPolicy, Target, Task, crb
from .model import ObservationModel, validate
from .simulator import SimulationConfig, audit_resources, default_estimator
from .strategy import (
    LinearConstraintSet,
    ResourceBudget,
    Scenario,
    Setting,
    constraints_for,
    joint_priority_threshold,
    plan_t1_closed_form,
    plan_t3,
)


class _ConfigError(CrbPlanError):
    pass


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "task": str,
    "setting": str,
    "target": str,
    "alpha": float,
    "e1": float,
    "e2": float,
    "rho": float,
    "mu_x": float,
    "mu_y": float,
    "var_x": float,
    "var_y": float,
    "p_x": float,
    "p_y": float,
    "p_xy": float,
    "estimator": str,
    "seed": int,
    "slots": int,
    "reps": int,
    "format": str,
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=[t.value for t in Task])
    p.add_argument("--setting", choices=[s.value for s in Setting])
    p.add_argument("--alpha", type=float)
    p.add_argument("--e1", type=float, help="sensor budget (use 'inf' for unbounded)")
    p.add_argument("--e2", type=float, help="data-center budget, centralized only")
    p.add_argument("--rho", type=float)
    p.add_argument("--mu-x", type=float, dest="mu_x")
    p.add_argument("--mu-y", type=float, dest="mu_y")
    p.add_argument("--var-x", type=float, dest="var_x")
    p.add_argument("--var-y", type=float, dest="var_y")
    p.add_argument("--target", choices=["mu-x", "mu-y"])
    p.add_argument("--config", help="JSON file with flag defaults")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "jsonl"])


def _apply_config_file(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise _ConfigError("config file must hold a JSON object")
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise _ConfigError(f"unknown config key: {key!r}")
        if getattr(args, key, None) is None:
            try:
                setattr(args, key, _CONFIG_KEYS[key](raw))
            except (TypeError, ValueError) as exc:
                raise _ConfigError(f"config key {key!r}: {exc}") from exc


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise _ConfigError(f"missing required flag(s): {flags}")


def _build_model(args: argparse.Namespace, rho: float | None = None) -> ObservationModel:
    """The model of the flags; figure presets pass the ``rho`` they sweep."""
    if rho is None:
        _require(args, "rho")
        rho = args.rho
    return validate(
        {
            "mu_x": args.mu_x if args.mu_x is not None else 0.0,
            "mu_y": args.mu_y if args.mu_y is not None else 0.0,
            "var_x": args.var_x if args.var_x is not None else 1.0,
            "var_y": args.var_y if args.var_y is not None else 1.0,
            "rho": rho,
        }
    )


def _build_scenario(args: argparse.Namespace) -> Scenario:
    _require(args, "task", "setting", "alpha", "e1")
    setting = Setting(args.setting)
    if setting is Setting.CENTRALIZED:
        _require(args, "e2")
        budget = ResourceBudget(args.alpha, args.e1, args.e2)
    else:
        budget = ResourceBudget(args.alpha, args.e1)
    target = None
    if args.target is not None:
        target = Target(args.target.replace("-", "_"))
    return Scenario(Task(args.task), setting, budget, target)


def _policy_from_args(args: argparse.Namespace) -> SamplingPolicy | None:
    given = [getattr(args, n) for n in ("p_x", "p_y", "p_xy")]
    if all(v is None for v in given):
        return None
    return SamplingPolicy(*(0.0 if v is None else v for v in given))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_rows(header: list[str], rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "jsonl":
        lines = [json.dumps({k: row[k] for k in header}) for row in rows]
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_format_cell(row[k]) for k in header) for row in rows)
    text = "\n".join(lines) + "\n"
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
        _write_rows(list(record), [record], args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

_SWEEPABLE = ("p_y", "p_x", "p_xy", "rho", "e1", "e2")
_DEPENDENT = {"p_y": "p_xy", "p_x": "p_xy", "p_xy": "p_y"}
_P_INDEX = {"p_x": 0, "p_y": 1, "p_xy": 2}


def derive_dependent(
    cons: LinearConstraintSet, fixed: dict[str, float], dependent: str
) -> float:
    """Largest value of one probability the constraint system allows.

    Holds the other two components at ``fixed`` and pushes the dependent one
    against every constraint with a positive coefficient on it (budget rows
    and the simplex); clamps at 0.
    """
    idx = _P_INDEX[dependent]
    p = [fixed.get("p_x", 0.0), fixed.get("p_y", 0.0), fixed.get("p_xy", 0.0)]
    cap = math.inf
    for row in cons.rows:
        c = row.coeffs[idx]
        if c <= 0.0 or math.isinf(row.bound):
            continue
        residual = row.bound - sum(
            row.coeffs[j] * p[j] for j in range(3) if j != idx
        )
        cap = min(cap, residual / c)
    return max(0.0, min(1.0, cap))


_MAX_SWEEP_ROWS = 10**6


def _steps(start: float, stop: float, step: float) -> float:
    steps = (stop - start) / step
    if not steps <= _MAX_SWEEP_ROWS - 1:  # also true when the quotient overflows
        raise _ConfigError(f"sweep of {steps:.3g} steps exceeds {_MAX_SWEEP_ROWS} rows")
    return steps


def _sweep_values(args: argparse.Namespace) -> list[float]:
    start = args.start if args.start is not None else 0.0
    stop = args.stop if args.stop is not None else 1.0
    step = args.step if args.step is not None else 0.01
    if step <= 0.0 or stop < start or not all(
        math.isfinite(v) for v in (start, stop, step)
    ):
        raise _ConfigError(f"malformed sweep range [{start}, {stop}] step {step}")
    steps = _steps(start, stop, step)
    values = [start + i * step for i in range(int(round(steps)) + 1)]
    if values[-1] > stop + 1e-12 * max(abs(start), abs(stop)):  # past rounding
        values.pop()
    return values


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.sweep not in _SWEEPABLE:
        raise _ConfigError(f"--sweep must be one of {_SWEEPABLE}")
    model = _build_model(args)
    scenario = _build_scenario(args)
    values = _sweep_values(args)

    rows = []
    scen, m, cons = scenario, model, constraints_for(scenario)
    dependent = _DEPENDENT.get(args.sweep)
    if dependent is None:
        policy = _policy_from_args(args) or SamplingPolicy()
    else:
        fixed_all = {
            name: getattr(args, name) or 0.0
            for name in ("p_x", "p_y", "p_xy")
            if name not in (args.sweep, dependent)
        }
    for v in values:
        if dependent is not None:
            fixed = dict(fixed_all)
            fixed[args.sweep] = v
            fixed[dependent] = derive_dependent(cons, fixed, dependent)
            try:
                policy = SamplingPolicy(fixed["p_x"], fixed["p_y"], fixed["p_xy"])
            except CrbPlanError:
                rows.append(
                    {"sweep_var": args.sweep, "value": v, "crb": math.inf, "feasible": False}
                )
                continue
        elif args.sweep == "rho":
            try:
                m = ObservationModel(model.mu_x, model.mu_y, model.var_x, model.var_y, v)
            except CrbPlanError as exc:
                raise _ConfigError(f"rho sweep leaves the valid range: {exc}") from exc
        else:
            budget = scenario.budget
            if args.sweep == "e1":
                budget = ResourceBudget(budget.alpha, v, budget.e2)
            else:
                if scenario.setting is not Setting.CENTRALIZED:
                    raise _ConfigError("e2 sweeps require --setting centralized")
                budget = ResourceBudget(budget.alpha, budget.e1, v)
            scen = Scenario(scenario.task, scenario.setting, budget, scenario.target)
            cons = constraints_for(scen)
        rows.append(
            {
                "sweep_var": args.sweep,
                "value": v,
                "crb": crb(scen.task, scen.target, policy, m),
                "feasible": cons.is_feasible(policy),
            }
        )

    _write_rows(["sweep_var", "value", "crb", "feasible"], rows, args.format or "csv", args.out)
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
        slots=args.slots if args.slots is not None else 1000,
        replications=args.reps if args.reps is not None else 2000,
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
            f"audit {check.actor}: cost={check.mean_cost_per_slot:.9g} "
            f"budget={_format_cell(check.budget)} slack={check.slack:.9g} "
            f"stderr={check.stderr:.9g} {'PASS' if check.passed else 'FAIL'}"
        )
    if args.out:
        record = report.as_record()
        _write_rows(list(record), [record], args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep (figure presets)
# ---------------------------------------------------------------------------

_EVAL_COLUMNS = ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "feasible"]
_PLAN_COLUMNS = ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "tie"]


def _frange(stop: float, step: float, start: float = 0.0) -> list[float]:
    count = int(round(_steps(start, stop, step)))
    return [start + i * step for i in range(count + 1)]


def _eval_row(scenario, cons, model, p_x, p_y, p_xy) -> dict:
    policy = SamplingPolicy(p_x, p_y, p_xy)
    return {
        "rho": model.rho,
        "e1": scenario.budget.e1,
        "e2": scenario.budget.e2,
        "p_x": p_x,
        "p_y": p_y,
        "p_xy": p_xy,
        "crb": crb(scenario.task, scenario.target, policy, model),
        "feasible": cons.is_feasible(policy),
    }


def _plan_row(scenario, model, result) -> dict:
    return {
        "rho": model.rho,
        "e1": scenario.budget.e1,
        "e2": scenario.budget.e2,
        "p_x": result.policy.p_x,
        "p_y": result.policy.p_y,
        "p_xy": result.policy.p_xy,
        "crb": result.objective_value,
        "tie": result.tie,
    }


def _fig1a(args):
    """Decentralized prioritization boundary: critical |rho| versus alpha."""
    rows = [
        {
            "alpha": a,
            "rho_star": joint_priority_threshold(a, Setting.DECENTRALIZED),
        }
        for a in _frange(6.0, 0.05)
    ]
    return ["alpha", "rho_star"], rows


def _fig1b(args):
    """Bound versus p_y for one unknown mean, three sensor budgets."""
    alpha = args.alpha if args.alpha is not None else 2.0
    rho = args.rho if args.rho is not None else 0.5
    moderate = args.e1 if args.e1 is not None else 2.0
    model = _build_model(args, rho)
    rows = []
    for e1 in (math.inf, moderate, 0.8):
        scenario = Scenario(Task.T1, Setting.DECENTRALIZED, ResourceBudget(alpha, e1))
        cons = constraints_for(scenario)
        for p_y in _frange(1.0, 0.01):
            p_xy = derive_dependent(cons, {"p_x": 0.0, "p_y": p_y}, "p_xy")
            rows.append(_eval_row(scenario, cons, model, 0.0, p_y, p_xy))
    return _EVAL_COLUMNS, rows


def _fig1c(args):
    """Optimal joint-sampling share versus budget, by correlation regime."""
    alpha = args.alpha if args.alpha is not None else 2.0
    thr = joint_priority_threshold(alpha, Setting.DECENTRALIZED)
    regimes = [
        ("below", math.sqrt(0.5 * thr * thr)),
        ("at", thr),
        ("above", math.sqrt(thr * thr + 0.5 * (1.0 - thr * thr))),
    ]
    rows = []
    for regime, rho in regimes:
        model = _build_model(args, rho)
        for e1 in _frange(alpha + 1.5, 0.05):
            result = plan_t1_closed_form(alpha, e1, model)
            rows.append(
                {
                    "regime": regime,
                    "rho": rho,
                    "e1": e1,
                    "p_y": result.policy.p_y,
                    "p_xy": result.policy.p_xy,
                    "tie": result.tie,
                }
            )
    return ["regime", "rho", "e1", "p_y", "p_xy", "tie"], rows


def _fig2a(args):
    """Two unknown means, decentralized: bound versus p_x, two budgets."""
    alpha = args.alpha if args.alpha is not None else 2.0
    rho = args.rho if args.rho is not None else 0.5
    constrained = args.e1 if args.e1 is not None else 2.0
    model = _build_model(args, rho)
    rows = []
    for e1 in (math.inf, constrained):
        scenario = Scenario(
            Task.T3, Setting.DECENTRALIZED, ResourceBudget(alpha, e1), Target.MU_X
        )
        cons = constraints_for(scenario)
        for p_x in _frange(1.0, 0.01):
            p_xy = derive_dependent(cons, {"p_x": p_x, "p_y": 0.0}, "p_xy")
            rows.append(_eval_row(scenario, cons, model, p_x, 0.0, p_xy))
    return _EVAL_COLUMNS, rows


def _fig2bc(args, e1_default: float):
    alpha = args.alpha if args.alpha is not None else 2.0
    e1 = args.e1 if args.e1 is not None else e1_default
    rows = []
    for rho in (0.5, 0.8):  # below / above the centralized threshold sqrt(1/2)
        model = _build_model(args, rho)
        for e2 in _frange(4.5, 0.05):
            scenario = Scenario(
                Task.T1, Setting.CENTRALIZED, ResourceBudget(alpha, e1, e2)
            )
            result = strategy.plan_linear(scenario, model)
            rows.append(_plan_row(scenario, model, result))
    return _PLAN_COLUMNS, rows


def _fig2b(args):
    """Centralized, one unknown mean: optimal policy versus DC budget,
    sensor budget active."""
    return _fig2bc(args, e1_default=1.5)


def _fig2c(args):
    """Same as fig2b with the sensor budget inactive (e1 >= alpha + 1)."""
    alpha = args.alpha if args.alpha is not None else 2.0
    return _fig2bc(args, e1_default=alpha + 1.0)


def _symmetric_t3_rows(scenario, model):
    cons = constraints_for(scenario)
    rows = []
    for p_x in _frange(0.5, 0.005):
        p_xy = derive_dependent(cons, {"p_x": p_x, "p_y": p_x}, "p_xy")
        rows.append(_eval_row(scenario, cons, model, p_x, p_x, p_xy))
    return rows


def _fig3(args):
    """Centralized, two unknown means: bound versus symmetric marginal share."""
    alpha = args.alpha if args.alpha is not None else 2.0
    rho = args.rho if args.rho is not None else 0.8
    e1 = args.e1 if args.e1 is not None else 2.0
    e2 = args.e2 if args.e2 is not None else 2.0
    model = _build_model(args, rho)
    rows = []
    for budget in (ResourceBudget(alpha, math.inf, math.inf), ResourceBudget(alpha, e1, e2)):
        scenario = Scenario(Task.T3, Setting.CENTRALIZED, budget, Target.MU_X)
        rows.extend(_symmetric_t3_rows(scenario, model))
    return _EVAL_COLUMNS, rows


def _fig4a(args):
    """Stringent budgets: bound versus symmetric marginal share, by rho."""
    alpha = args.alpha if args.alpha is not None else 2.0
    e1 = args.e1 if args.e1 is not None else 2.0
    e2 = args.e2 if args.e2 is not None else 2.0
    rows = []
    for rho in (0.5, 0.7, 0.9):
        model = _build_model(args, rho)
        scenario = Scenario(
            Task.T3, Setting.CENTRALIZED, ResourceBudget(alpha, e1, e2), Target.MU_X
        )
        rows.extend(_symmetric_t3_rows(scenario, model))
    return _EVAL_COLUMNS, rows


def _fig4b(args):
    """Optimal two-unknown-means policy versus correlation."""
    alpha = args.alpha if args.alpha is not None else 2.0
    e1 = args.e1 if args.e1 is not None else 2.0
    e2 = args.e2 if args.e2 is not None else 2.0
    rows = []
    for rho in _frange(0.95, 0.01):
        model = _build_model(args, rho)
        scenario = Scenario(
            Task.T3, Setting.CENTRALIZED, ResourceBudget(alpha, e1, e2), Target.MU_X
        )
        result = plan_t3(scenario, model)
        rows.append(_plan_row(scenario, model, result))
    return _PLAN_COLUMNS, rows


def _fig4c(args):
    """Relaxed budgets: bound versus symmetric marginal share."""
    alpha = args.alpha if args.alpha is not None else 2.0
    rho = args.rho if args.rho is not None else 0.8
    model = _build_model(args, rho)
    rows = []
    for e in (2.0, args.e1 if args.e1 is not None else 4.0):
        scenario = Scenario(
            Task.T3, Setting.CENTRALIZED, ResourceBudget(alpha, e, e), Target.MU_X
        )
        rows.extend(_symmetric_t3_rows(scenario, model))
    return _EVAL_COLUMNS, rows


_FIGURES = {
    "fig1a": _fig1a,
    "fig1b": _fig1b,
    "fig1c": _fig1c,
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "fig3": _fig3,
    "fig4a": _fig4a,
    "fig4b": _fig4b,
    "fig4c": _fig4c,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    header, rows = _FIGURES[args.figure](args)
    _write_rows(header, rows, args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p_plan.set_defaults(func=cmd_plan)

    p_bounds = sub.add_parser("bounds", help="sweep one variable and emit the bound")
    _add_common_flags(p_bounds)
    p_bounds.add_argument("--sweep", required=True, choices=_SWEEPABLE)
    p_bounds.add_argument("--start", type=float)
    p_bounds.add_argument("--stop", type=float)
    p_bounds.add_argument("--step", type=float)
    p_bounds.add_argument("--p-x", type=float, dest="p_x")
    p_bounds.add_argument("--p-y", type=float, dest="p_y")
    p_bounds.add_argument("--p-xy", type=float, dest="p_xy")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run with resource audit")
    _add_common_flags(p_sim)
    p_sim.add_argument("--p-x", type=float, dest="p_x")
    p_sim.add_argument("--p-y", type=float, dest="p_y")
    p_sim.add_argument("--p-xy", type=float, dest="p_xy")
    p_sim.add_argument(
        "--estimator", choices=[e.value for e in EstimatorKind]
    )
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--slots", type=int)
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--trace", help="write one replication's slot trace CSV here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="emit plot-ready data for a named figure")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--figure", required=True, choices=sorted(_FIGURES))
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except SingularEverywhere as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CrbPlanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
