"""Seeded inputs and operations for the three benchmark workloads.

``generate(workload, seed)`` draws a workload's inputs as plain data (lists
and dicts of numbers and strings) from the seed alone, so equal seeds give
equal inputs.  ``prepare(cp, workload, inputs, out_dir)`` turns them into
:class:`Op` objects bound to an imported ``crbplan`` module ``cp``.  Every op
looks up the package function it calls when it runs, so the tracer's
wrappers see the call.

Why these workloads:

* ``plan_mix`` -- library ``plan`` questions in exact thirds: closed form,
  vertex enumeration and the t3 grid, on inputs the planners answer
  correctly (``defects.py`` replays the ones they do not).  p50 lands in
  the vertex group, p90 in the t3 group.  It never touches the simulator.
* ``figures`` -- the CLI user's workload: the ten ``sweep`` presets plus
  seeded ``bounds``, ``plan`` and ``simulate`` commands, run in-process.
* ``mc_short`` -- ``run`` + ``audit_resources`` at 100 slots per
  replication, where per-replication overhead dominates.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable

from checks import (
    FAILED,
    bound_at,
    check_plan,
    check_simulation,
    check_table,
    random_feasible_policies,
)

WORKLOADS = ("plan_mix", "figures", "mc_short")


@dataclass
class Op:
    """One closed-loop operation: a call into the package and its check."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str]]
    #: Calls this op makes to traced functions, by span name.
    expected_calls: dict[str, int]
    #: Work done, e.g. replications or slots simulated.
    work: dict[str, int] = field(default_factory=dict)
    #: The speed-probe kernel whose character the op shares (see speed.py):
    #: "python" for interpreter-bound ops, "numpy" for large-array passes.
    probe: str = "python"


@dataclass
class Workload:
    """The ops of one pass, run in order; a run repeats whole passes."""

    ops: list[Op]
    warmup: list[Op]


def generate(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def prepare(cp, workload: str, inputs, out_dir) -> Workload:
    return _PREPARERS[workload](cp, inputs, out_dir)


def _uniform(rng: random.Random, low: float, high: float) -> float:
    return low + (high - low) * rng.random()


def _model(rng: random.Random) -> dict:
    return {
        "mu_x": _uniform(rng, -1.0, 1.0),
        "mu_y": _uniform(rng, -1.0, 1.0),
        "var_x": _uniform(rng, 0.5, 2.0),
        "var_y": _uniform(rng, 0.5, 2.0),
        "rho": _uniform(rng, -0.95, 0.95),
    }


def _build(cp, spec):
    model = cp.validate(spec["model"])
    budget = cp.ResourceBudget(spec["alpha"], spec["e1"], spec["e2"])
    target = cp.Target(spec["target"]) if spec["target"] else None
    scenario = cp.Scenario(cp.Task(spec["task"]), cp.Setting(spec["setting"]), budget, target)
    return scenario, model


def _label(spec) -> str:
    m = spec["model"]
    where = f"{spec['task']}/{spec['setting']}" + (f"/{spec['target']}" if spec["target"] else "")
    e2 = "" if spec["e2"] is None else f" e2={spec['e2']:.6g}"
    return (
        f"{where} alpha={spec['alpha']:.6g} e1={spec['e1']:.6g}{e2} "
        f"rho={m['rho']:.6g} var=({m['var_x']:.6g},{m['var_y']:.6g})"
    )


# ---------------------------------------------------------------------------
# plan_mix
# ---------------------------------------------------------------------------

PLAN_GROUP_SIZE = 40
RANDOM_POLICIES = 32
#: Least room, as a share of the slots, that a finite centralized t3 budget
#: leaves each coordinate of the policy (30 steps of the coarse grid).
T3_MIN_EXTENT = 0.3
_PLAN_GROUPS = {
    "closed_form": [("t1", "decentralized", None), ("t2", "decentralized", None)],
    "vertex": [("t1", "centralized", None), ("t2", "centralized", None)],
    "t3": [
        ("t3", setting, target)
        for setting in ("decentralized", "centralized")
        for target in ("mu_x", "mu_y")
    ],
}
_PLANNER_SPAN = {
    "closed_form": "strategy.plan_t1_closed_form",
    "vertex": "strategy.plan_linear",
    "t3": "strategy.plan_t3",
}


def _with_endpoints(rng: random.Random, n: int, zero: bool, draw) -> list[float]:
    """n budgets: exactly a tenth at inf, a tenth at 0 when ``zero``, the
    rest from draw."""
    tenth = n // 10
    values = [math.inf] * tenth + [0.0] * (tenth if zero else 0)
    values += [draw() for _ in range(n - len(values))]
    rng.shuffle(values)
    return values


def _plan_budgets(rng: random.Random, group: str, n: int) -> list[tuple[float, float, float]]:
    """n (alpha, e1, e2) triples for one group of ``plan_mix``.

    Only inputs the package answers correctly are drawn (see
    ``defects.py`` for the ones it does not):

    * t1/t2 never get a zero budget: there the planner returns ``crb=inf``
      instead of raising ``SingularEverywhere``.
    * t3 gets zero budgets (a documented ``SingularEverywhere``), ``inf``,
      and finite budgets that keep the polytope's faces on the grid: the
      decentralized sensor rows (slope ``2 alpha + 1``) are drawn slack,
      ``e1 >= 2 alpha + 1``, and the centralized rows leave every
      coordinate at least ``T3_MIN_EXTENT`` of room.  On thinner or slanted
      binding faces the grid refinement can stall short of the optimum.
    """
    alphas = [0.0] * (n // 20) + [_uniform(rng, 0.05, 5.0) for _ in range(n - n // 20)]
    rng.shuffle(alphas)
    if group != "t3":
        e1s = _with_endpoints(rng, n, False, lambda: _uniform(rng, 0.0, 7.0))
        e2s = _with_endpoints(rng, n, False, lambda: _uniform(rng, 0.0, 12.0))
        return list(zip(alphas, e1s, e2s))
    e1s = _with_endpoints(rng, n, True, lambda: _uniform(rng, 0.0, 1.0))
    e2s = _with_endpoints(rng, n, True, lambda: _uniform(rng, 0.0, 1.0))
    budgets = []
    cases = _PLAN_GROUPS["t3"]
    for i, (alpha, e1, e2) in enumerate(zip(alphas, e1s, e2s)):
        if cases[i % len(cases)][1] == "decentralized":
            e1 = e1 if e1 in (0.0, math.inf) else 2.0 * alpha + 1.0 + 5.0 * e1
        else:
            e1 = e1 if e1 in (0.0, math.inf) else (alpha + 1.0) * (T3_MIN_EXTENT + 1.2 * e1)
            e2 = e2 if e2 in (0.0, math.inf) else 2.0 * alpha * (T3_MIN_EXTENT + 1.2 * e2)
        budgets.append((alpha, e1, e2))
    return budgets


def _plan_mix_inputs(rng: random.Random) -> list[dict]:
    inputs = []
    for group, cases in _PLAN_GROUPS.items():
        n = PLAN_GROUP_SIZE
        for i, (alpha, e1, e2) in enumerate(_plan_budgets(rng, group, n)):
            task, setting, target = cases[i % len(cases)]
            directions = []
            for _ in range(RANDOM_POLICIES):
                w = [rng.expovariate(1.0) for _ in range(4)]  # Dirichlet(1,1,1,1)
                directions.append([v / sum(w) for v in w[:3]])
            inputs.append(
                {
                    "group": group,
                    "task": task,
                    "setting": setting,
                    "target": target,
                    "alpha": alpha,
                    "e1": e1,
                    "e2": e2 if setting == "centralized" else None,
                    "model": _model(rng),
                    "directions": directions,
                }
            )
    rng.shuffle(inputs)
    return inputs


def _plan_op(cp, spec) -> Op:
    scenario, model = _build(cp, spec)
    policies = random_feasible_policies(cp, scenario, spec["directions"])
    best = min(bound_at(cp, scenario, model, p) for p in policies)
    expected = {"strategy.plan": 1, _PLANNER_SPAN[spec["group"]]: 1}
    if spec["group"] == "vertex":
        expected["strategy.enumerate_vertices"] = 1
    return Op(
        kind=spec["group"],
        label=_label(spec),
        call=lambda: cp.plan(scenario, model),
        check=lambda result: check_plan(cp, scenario, model, result, best),
        expected_calls=expected,
        probe="numpy" if spec["group"] == "t3" else "python",
    )


def _prepare_plan_mix(cp, inputs, out_dir) -> Workload:
    ops = [_plan_op(cp, spec) for spec in inputs]
    warmup = [next(op for op in ops if op.kind == group) for group in _PLAN_GROUPS]
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

_EVAL = ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "feasible"]
_PLANNED = ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "tie"]
#: Columns (README table) and row counts (README grids) of each preset.
FIGURES = {
    "fig1a": (["alpha", "rho_star"], 121),
    "fig1b": (_EVAL, 303),
    "fig1c": (["regime", "rho", "e1", "p_y", "p_xy", "tie"], 213),
    "fig2a": (_EVAL, 202),
    "fig2b": (_PLANNED, 182),
    "fig2c": (_PLANNED, 182),
    "fig3": (_EVAL, 202),
    "fig4a": (_EVAL, 303),
    "fig4b": (_PLANNED, 96),
    "fig4c": (_EVAL, 202),
}
_FIGURE_CALLS = {
    "fig1c": {"strategy.plan_t1_closed_form": 213},
    "fig2b": {"strategy.plan_linear": 182},
    "fig2c": {"strategy.plan_linear": 182},
    "fig4b": {"strategy.plan_t3": 96},
}
BOUNDS_HEADER = ["sweep_var", "value", "crb", "feasible"]
PLAN_HEADER = ["p_x", "p_y", "p_xy", "crb", "method", "tie"]
REPORT_HEADER = [
    "mean_estimate", "empirical_variance_per_slot", "analytic_crb",
    "analytic_estimator_variance", "replications_used", "replications_excluded",
    "slots_per_replication", "master_seed", "generator",
    "cost_sensor_x_per_slot", "cost_sensor_y_per_slot", "cost_data_center_per_slot",
    "n_marginal_x", "n_marginal_y", "n_joint", "n_idle",
]
#: Commands per pass besides the ten presets.  Tasks, settings and sweep
#: sizes are fixed and only the values are drawn, so every seed's pass costs
#: about the same.  The 15 t3 plans sit between the three slow presets and
#: the cheap commands, so p90 falls inside them.
BOUNDS_PER_VARIABLE = 12
T3_PLANS = 15
LINEAR_PLANS = 10
SIMULATIONS = 5
SIMULATION_REPS = 50
_SETTINGS = ("decentralized", "centralized")


def _flag(value: float) -> str:
    """The float in positional notation, digit for digit: argparse reads an
    argument like ``-5e-05`` as an option, not as a negative number."""
    return format(Decimal(repr(float(value))), "f")


def _scenario_flags(rng, task, setting, alpha, e1) -> list[str]:
    m = _model(rng)
    flags = [
        "--task", task, "--setting", setting, "--alpha", _flag(alpha), "--e1", _flag(e1),
        "--rho", _flag(m["rho"]), "--var-x", _flag(m["var_x"]), "--var-y", _flag(m["var_y"]),
    ]
    if setting == "centralized":
        flags += ["--e2", _flag(_uniform(rng, 0.5, 2.0 * alpha + 2.0))]
    if task == "t3":
        flags += ["--target", rng.choice(["mu-x", "mu-y"])]
    return flags


def _random_scenario_flags(rng, task, setting) -> list[str]:
    alpha = _uniform(rng, 0.5, 4.0)
    return _scenario_flags(rng, task, setting, alpha, _uniform(rng, 0.5, alpha + 2.0))


def _bounds_command(rng, variable: str, i: int) -> dict:
    setting = "centralized" if variable == "e2" else _SETTINGS[i % 2]
    flags = _random_scenario_flags(rng, ("t1", "t2", "t3")[i % 3], setting)
    if variable in ("p_x", "p_y", "p_xy"):
        start, step, steps = 0.0, 0.01, 100
    elif variable == "rho":
        start, step, steps = -0.9, 0.02, 90
    else:
        start, step, steps = 0.0, 0.05, 100
    if variable in ("rho", "e1", "e2"):
        w = [rng.expovariate(1.0) for _ in range(4)]
        for name, v in zip(("--p-x", "--p-y", "--p-xy"), w):
            flags += [name, _flag(v / sum(w))]
    flags += ["--sweep", variable, "--start", _flag(start),
              "--stop", _flag(start + steps * step), "--step", _flag(step)]
    return {"kind": "bounds", "argv": ["bounds"] + flags, "header": BOUNDS_HEADER, "rows": steps + 1}


def _figures_inputs(rng: random.Random) -> list[dict]:
    commands = [
        {"kind": "sweep", "argv": ["sweep", "--figure", fig], "header": header, "rows": rows}
        for fig, (header, rows) in FIGURES.items()
    ]
    for variable in ("p_y", "p_x", "p_xy", "rho", "e1", "e2"):
        commands += [_bounds_command(rng, variable, i) for i in range(BOUNDS_PER_VARIABLE)]
    for tasks, count in ((("t3",), T3_PLANS), (("t1", "t2"), LINEAR_PLANS)):
        for i in range(count):
            flags = _random_scenario_flags(rng, tasks[i % len(tasks)], _SETTINGS[i // len(tasks) % 2])
            commands.append({"kind": "plan", "argv": ["plan"] + flags, "header": PLAN_HEADER, "rows": 1})
    for i in range(SIMULATIONS):
        # Decentralized with 1.5 <= e1 <= alpha + 0.5: the planner's policy
        # gives every stratum its estimator reads p >= 0.125, so no run
        # loses all of its replications.
        alpha = _uniform(rng, 1.5, 4.0)
        flags = _scenario_flags(
            rng, ("t1", "t2")[i % 2], "decentralized", alpha, _uniform(rng, 1.5, alpha + 0.5)
        )
        flags += ["--slots", "100", "--reps", str(SIMULATION_REPS), "--seed", str(rng.getrandbits(32))]
        commands.append({"kind": "simulate", "argv": ["simulate"] + flags, "header": REPORT_HEADER, "rows": 1})
    rng.shuffle(commands)
    return commands


def _expected_cli_calls(command) -> dict[str, int]:
    argv = command["argv"]
    calls = {f"cli.{command['kind']}": 1}
    if command["kind"] == "sweep":
        calls.update(_FIGURE_CALLS.get(argv[2], {}))
    elif command["kind"] == "plan":
        task, setting = argv[argv.index("--task") + 1], argv[argv.index("--setting") + 1]
        group = "t3" if task == "t3" else "closed_form" if setting == "decentralized" else "vertex"
        calls.update({"strategy.plan": 1, _PLANNER_SPAN[group]: 1})
    elif command["kind"] == "simulate":
        calls.update({"strategy.plan": 1, "strategy.plan_t1_closed_form": 1, "simulator.run": 1,
                      "simulator.audit_resources": 1, "model.replication_rng": SIMULATION_REPS})
    return calls


def _run_cli(cli, argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _read_and_remove(path):
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    path.unlink()
    return text


def _cli_op(cp, command, out_path) -> Op:
    argv = command["argv"] + ["--out", str(out_path)]
    expected = _expected_cli_calls(command)

    def check(result):
        text = _read_and_remove(out_path)
        if isinstance(result, BaseException):
            return FAILED, f"raised {type(result).__name__}: {result}"
        return check_table(result, text, command["header"], command["rows"])

    return Op(
        kind=command["kind"],
        label=" ".join(command["argv"]),
        call=lambda: _run_cli(cp.cli, argv),
        check=check,
        expected_calls=expected,
        work={"sweep": 1} if command["kind"] == "sweep" else {},
        probe="numpy" if "strategy.plan_t3" in expected else "python",
    )


def _prepare_figures(cp, inputs, out_dir) -> Workload:
    out_path = out_dir / "cli_out.csv"
    ops = [_cli_op(cp, command, out_path) for command in inputs]
    # One op of each code path, the same paths for every seed.
    warmup = [
        next(op for op in ops if op.kind == kind and (op.probe == "numpy") == t3)
        for kind, t3 in (("bounds", False), ("plan", False), ("plan", True), ("simulate", False))
    ]
    warmup.append(next(op for op in ops if op.label == "sweep --figure fig1a"))
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# mc_short
# ---------------------------------------------------------------------------

MC_SLOTS = 100
MC_REPS = 100
#: Configurations of each (task, setting, estimator) type.  Op cost depends
#: on the planner's policy; many configurations average that out per seed.
CONFIGS_PER_TYPE = 6
#: Master seeds per configuration in one pass: 192 run ops.
MC_SEEDS = 4
#: A configuration's planner policy must give each stratum its estimator
#: reads at least this probability, so replications are rarely excluded.
MIN_STRATUM_P = 0.1
#: Every slot kind the policy draws at all (marginal X, marginal Y, joint,
#: idle) must have at least this probability, so that each occurs about 100
#: times in a run of 10,000 slots.  ``audit_resources`` estimates its
#: standard errors from the slot counts of the run and reads 0 when a rare
#: kind never occurs (see ``defects.py``).
MIN_SLOT_P = 0.01
MC_CANDIDATES = 50
#: (task, setting, estimator).  Centralized t1 optima rarely sample both
#: strata, so those configurations use the package's default estimator.
_MC_TYPES = [
    ("t1", "decentralized", "delta1"),
    ("t1", "decentralized", "delta2"),
    ("t2", "decentralized", "sample_mean"),
    ("t3", "decentralized", "sample_mean"),
    ("t1", "centralized", "default"),
    ("t1", "centralized", "default"),
    ("t2", "centralized", "sample_mean"),
    ("t3", "centralized", "sample_mean"),
]


def _mc_inputs(rng: random.Random) -> dict:
    configs = []
    for task, setting, estimator in _MC_TYPES:
        for _ in range(CONFIGS_PER_TYPE):
            candidates = []
            for _ in range(MC_CANDIDATES):
                alpha = _uniform(rng, 0.5, 3.0)
                candidates.append(
                    {
                        "task": task,
                        "setting": setting,
                        "target": rng.choice(["mu_x", "mu_y"]) if task == "t3" else None,
                        "alpha": alpha,
                        "e1": _uniform(rng, 0.5, alpha + 1.5),
                        "e2": _uniform(rng, 0.5, 2.0 * alpha + 2.0) if setting == "centralized" else None,
                        "model": _model(rng),
                    }
                )
            configs.append({"estimator": estimator, "candidates": candidates})
    schedule = [c for c in range(len(configs)) for _ in range(MC_SEEDS)]
    rng.shuffle(schedule)
    ops = [{"config": c, "seed": rng.getrandbits(48)} for c in schedule]
    return {"configs": configs, "ops": ops}


def _strata(cp, estimator: str, target, policy) -> list[float]:
    if estimator == "delta1":
        return [policy.p_y, policy.p_xy]
    if estimator == "delta2":
        return [policy.p_xy]
    if target is cp.Target.MU_X:
        return [policy.p_x + policy.p_xy]
    return [policy.p_y + policy.p_xy]


def _slot_probabilities(policy) -> list[float]:
    """Probabilities of the marginal X, marginal Y, joint and idle slots."""
    p_x, p_y, p_xy = policy.as_tuple()
    return [p_x, p_y, p_xy, 1.0 - p_x - p_y - p_xy]


def _variance_per_slot(cp, estimator: str, scenario, model, policy) -> float:
    """Per-slot variance of the estimator, from the estimators' theory."""
    if estimator == "delta1":
        return cp.var_delta1(policy, model) / (policy.p_y + policy.p_xy)
    if estimator == "delta2":
        return (1.0 - model.rho**2) * model.var_y / policy.p_xy
    if scenario.target is cp.Target.MU_X:
        return model.var_x / (policy.p_x + policy.p_xy)
    return model.var_y / (policy.p_y + policy.p_xy)


@dataclass
class _Config:
    spec: dict
    estimator: str
    scenario: object
    model: object
    policy: object


def _choose_config(cp, config) -> _Config:
    """The first candidate whose planner policy feeds every needed stratum
    and draws no slot kind rarely."""
    for spec in config["candidates"]:
        scenario, model = _build(cp, spec)
        policy = cp.plan(scenario, model).policy
        estimator = config["estimator"]
        if estimator == "default":
            estimator = cp.default_estimator(scenario, policy).value
        if min(_strata(cp, estimator, scenario.target, policy)) >= MIN_STRATUM_P and all(
            p >= MIN_SLOT_P for p in _slot_probabilities(policy) if p > 1e-9
        ):
            return _Config(spec, estimator, scenario, model, policy)
    raise RuntimeError(f"no {config['estimator']} candidate yields a usable policy")


_ESTIMATOR_SPAN = {"delta1": "estimators.delta1", "delta2": "estimators.delta2"}


def _run_op(cp, cfg: _Config, slots: int, reps: int, master_seed: int) -> Op:
    sim = cp.SimulationConfig(
        cfg.scenario, cfg.model, cfg.policy, cp.EstimatorKind(cfg.estimator), slots, reps, master_seed
    )
    target = cfg.scenario.target
    true_mean = cfg.model.mu_x if target is cp.Target.MU_X else cfg.model.mu_y
    variance = _variance_per_slot(cp, cfg.estimator, cfg.scenario, cfg.model, cfg.policy)
    estimator_span = _ESTIMATOR_SPAN.get(cfg.estimator) or f"estimators.sample_mean_{target.value[-1]}"

    def call():
        report = cp.run(sim)
        return report, cp.audit_resources(report, cfg.scenario)

    return Op(
        kind="run",
        label=f"{_label(cfg.spec)} estimator={cfg.estimator} policy={cfg.policy.as_tuple()} "
        f"slots={slots} reps={reps} seed={master_seed}",
        call=call,
        check=lambda result: check_simulation(result, true_mean, variance, slots),
        expected_calls={
            "simulator.run": 1,
            "simulator.audit_resources": 1,
            "model.replication_rng": reps,
            "simulator.collect_replication": reps,
            "simulator.replay_slots": reps,
            "model.sample_marginal": 2 * reps,
            "model.sample_joint": reps,
            estimator_span: reps,
        },
        work={"reps": reps, "slots": reps * slots},
    )


def _prepare_mc(cp, inputs, out_dir) -> Workload:
    configs = [_choose_config(cp, config) for config in inputs["configs"]]
    ops = [_run_op(cp, configs[op["config"]], MC_SLOTS, MC_REPS, op["seed"]) for op in inputs["ops"]]
    warmup = [_run_op(cp, cfg, MC_SLOTS, 2, 0) for cfg in configs[::CONFIGS_PER_TYPE]]
    return Workload(ops, warmup)


_GENERATORS = {"plan_mix": _plan_mix_inputs, "figures": _figures_inputs, "mc_short": _mc_inputs}
_PREPARERS = {"plan_mix": _prepare_plan_mix, "figures": _prepare_figures, "mc_short": _prepare_mc}
