"""Golden outputs: the sha256 of CLI stdout for the figure presets, the
README examples and one small seeded simulation.

The digests were recorded before the cost table and the CRB evaluator were
unified, so any refactor that changes a byte of these outputs fails here.
A deliberate output change must update the digest and say so in CHANGES.md:
``simulate_t3`` was re-recorded when the audit began to take its standard
errors from the policy, which moved only its ``stderr=`` values, and again
when replications began to share one stream per block of
``REPLICATION_BLOCK``, which moved every simulated value.
``simulate_two_blocks`` spans the first block boundary.  Both were
re-recorded when ``run`` began to draw each block in chunks of
``max(1, min(1024, 2**16 // slots))`` replications, every slot uniform of a
chunk before its normals, which moved every simulated value again, once
more when a chunk began to draw four normals per replication, one per
stratum sum, in place of one per observed coordinate, and again when each
block began to draw its slot counts in one multinomial call in place of
slot uniforms, as one chunk.

The ``bounds_*``, ``jsonl_*`` and ``preset_*`` digests and
:data:`PLANNER_DIGEST` pin the sweep evaluator and the planners on every
sweep variable, task and setting, on rows that cross invalid, infeasible
and zero-information policies, and on non-default figure flags.
:data:`ORACLE_DIGEST` pins the score oracle's mean and standard errors.
:data:`ESTIMATOR_DIGEST` pins each estimator's analytic variance, its
strata rule and the default choice.
"""

import contextlib
import hashlib
import io
import math
import random

import numpy as np
import pytest

from crbplan import (
    CrbPlanError,
    EstimatorKind,
    ResourceBudget,
    SamplingPolicy,
    Scenario,
    Setting,
    SimulationConfig,
    Target,
    Task,
    default_estimator,
    empirical_fim_with_stderr,
    plan_linear,
    plan_t3,
    run,
    validate,
    var_delta1,
)
from crbplan.cli import main

GOLDEN = {
    "sweep_fig1a": "6cb1ce55cbcbadf8f170ae0e9416ea54ac1452da645bb4b60ba6e3419894ee50",
    "sweep_fig1b": "264a70a202cd20f7dd95330917316cd86b0a6fb9e6a666333e516a0f7e856cfa",
    "sweep_fig1c": "1e4c46cff39640aececf1ad171dd2bced3ee8f9365663fb3e2b492362cd8a1f2",
    "sweep_fig2a": "06d2d45092d36467a1ea8d671bad65588c5a7eb7150e940b60808164d4736c43",
    "sweep_fig2b": "9716874ab1ff6794c50cf18817a43db0135cf607547ed17b35a1e8e6b982e1e7",
    "sweep_fig2c": "184457e530792c8372057a07bec2e3d091b5f964ef52ebfb057cca77e0dd0f6b",
    "sweep_fig3": "b89476f4f22f157edf83ca2f88550f2a844cd6fcefcf93c5b30a395b5d6964f5",
    "sweep_fig4a": "84e070d76fa2b239365e0ba946141e46212081337a4167e187862963fb90e4c3",
    "sweep_fig4b": "a184425545b4402159a3dbbf61168a1f1e5e486a95537826aabe592848c85fe4",
    "sweep_fig4c": "f694c4641792bdbdc68cbdffdee747226985f3c3557123e802da4c9d2718ba6d",
    "readme_plan": "be05975de042607a19b9040e4ebafbe9f1abe092238e197c087cc39e0d2ad69e",
    "readme_bounds": "04d30e676061676837637570c7c95d6be8ddddebc1b944066d20b6dc271febd7",
    "simulate_t3": "fd95ea2cda522b35fa1e36cab222c9ff9cf845d6cf011b356fc694305c99157d",
    "simulate_two_blocks": "d7e86d5183625b1836bc5b7a4dc35b9c63fbc508787eceaf2d2c69eff829e248",
    "bounds_t1_centralized_p_xy": "1d56f970d2993f1faf84a56a06b2f38c10d8695fcfdf63801684e7b4ed6675a9",
    "bounds_t1_decentralized_e1": "f798d810a7cd0ae68006956ac4e6e7c40090afbacb9037dc8d8cdfeaf59e61c5",
    "bounds_t2_centralized_e1_inf_e2": "99d741a106d5ce6ccdad35f163d8db6be70cded1b2f184f997ab59e6ad2ee63e",
    "bounds_t2_centralized_p_y": "e4f093c33a64ce92d67936cafb7a298381be4e2a9dbd2aded53e84f7e097b656",
    "bounds_t2_decentralized_rho": "f79b3b85bcbedbb7e79efa6330204c701d6c7a9c90535798706f61ede4d005df",
    "bounds_t3_centralized_e2": "c57c4563b07d9b4d1eaa741eed00b31bbf3d68f048d83f17a647c4050dbf9f63",
    "bounds_t3_centralized_p_y": "e26b465e629811f610aea2af3d3958e29b6ab06c88849253437224fcfdc8b005",
    "bounds_t3_centralized_rho": "ffdc0673bae7c6e88466cea002bc612696ea3d8e5cfae6b069e8e06d4b7da6d2",
    "bounds_t3_decentralized_e1": "e0cacd2107e8684a6dd798894c20cc57bc7a5b0211e67cb761a2db2572f6005d",
    "bounds_t3_decentralized_p_x": "1ccc442850435c336a0f3472ba685391b6247125b75dd20ba12e62e74f9c8029",
    "bounds_t3_zero_information": "9e19879aba6c632846182ec8df6e0eb93a458370695fc74d281e616e77f748b9",
    "jsonl_bounds": "b25a02627404a2acae3665eddfab09e30d8206a756db12d0718d78271458f09f",
    "jsonl_sweep_fig1b": "24d514260d524402638c24c45cb5d5b15cea9438f902c30dd6574f301ec53aa7",
    "jsonl_sweep_fig4b": "2522a997ec322219a62eaae0f582ffa953b30d9d7d4ad18166403eda2653ecbe",
    "preset_fig1b_alpha_rho": "6b537293eb6e53e5b68adb067ae9ff0d5d2e23384bd6b3f7c9931f3865380fb0",
    "preset_fig1c_alpha": "f44c931c84d13ac2a8d6c63c5bcdb09840c0971ab49b9596f3e56689b302ec6d",
    "preset_fig2a_alpha_e1": "9e5c405f5c7426b552accb890cf715496a1d0581cf20a23f7bf11b120e8279c6",
    "preset_fig2b_e1_inf": "1a587e2e3f923c1bad28a3a48dbfd3f0221ac899414cde1caaa01520835dd439",
    "preset_fig2c_alpha": "f89d122e0daa3eef28d8ea13ef63f2b1c13fa43a07ee6df5fa101baab7276b34",
    "preset_fig3_budgets": "ec087768fb6f3ca6fff8d04fc893ae0adf83a3502bc2ac5347cd6e50d87acdc3",
    "preset_fig4a_budgets": "3a91acd9293c80600b25bf5c3357b62a06efc6a6a53ed4f73087595fcc2b4537",
    "preset_fig4b_alpha_0": "d1ef02c64c07612f7b73c182bb9b8a2c6c00a6abee432557844f18f04aecf1e9",
    "preset_fig4c_alpha_e1": "f68fa5e6057731fef2ad8f45d297c64ceab27125386291ed2bb65636eebb7fb3",
}

COMMANDS = {
    **{
        f"sweep_{fig}": ["sweep", "--figure", fig]
        for fig in (
            "fig1a", "fig1b", "fig1c", "fig2a", "fig2b",
            "fig2c", "fig3", "fig4a", "fig4b", "fig4c",
        )
    },
    "readme_plan": (
        "plan --task t1 --setting decentralized --alpha 2 --e1 2 --rho 0.5"
    ).split(),
    "readme_bounds": (
        "bounds --task t1 --setting decentralized --alpha 2 --e1 2 --rho 0.5 "
        "--sweep p_y --start 0 --stop 1 --step 0.01"
    ).split(),
    # decentralized t3 at alpha = 0.1, where each sensor's joint-slot cost
    # 1 + 2 alpha rounds differently from (1 + alpha) + alpha
    "simulate_t3": (
        "simulate --task t3 --setting decentralized --alpha 0.1 --e1 0.6 "
        "--rho 0.9 --target mu-x --slots 100 --reps 50 --seed 13"
    ).split(),
    # 1100 replications: all of block 0 and the start of block 1
    "simulate_two_blocks": (
        "simulate --task t1 --setting decentralized --alpha 2 --e1 2 "
        "--rho 0.5 --slots 10 --reps 1100 --seed 13"
    ).split(),
    # bounds sweeps of every variable across tasks and settings
    "bounds_t2_centralized_p_y": (
        "bounds --task t2 --setting centralized --alpha 1.5 --e1 2 --e2 1.2 "
        "--rho -0.6 --var-y 2.5 --sweep p_y --start 0 --stop 1 --step 0.02"
    ).split(),
    # p_x + 0.3 passes 1 from p_x = 0.7 on: InvalidPolicy rows read inf,false
    "bounds_t3_decentralized_p_x": (
        "bounds --task t3 --setting decentralized --target mu-y --alpha 0.7 "
        "--e1 1.3 --rho 0.8 --p-y 0.3 --sweep p_x --start 0 --stop 1.1 --step 0.05"
    ).split(),
    "bounds_t1_centralized_p_xy": (
        "bounds --task t1 --setting centralized --alpha 2 --e1 1 --e2 3 --rho 0.5 "
        "--p-x 0.2 --sweep p_xy --start 0 --stop 1.2 --step 0.05"
    ).split(),
    "bounds_t3_centralized_p_y": (
        "bounds --task t3 --setting centralized --target mu-x --alpha 1 --e1 1.5 "
        "--e2 1.8 --rho -0.3 --p-x 0.25 --var-x 3 --sweep p_y --start 0 --stop 1 --step 0.04"
    ).split(),
    "bounds_t3_centralized_rho": (
        "bounds --task t3 --setting centralized --target mu-x --alpha 1 --e1 2 --e2 2 "
        "--var-x 2 --var-y 0.5 --rho 0 --p-x 0.2 --p-y 0.3 --p-xy 0.4 "
        "--sweep rho --start -0.95 --stop 0.95 --step 0.05"
    ).split(),
    "bounds_t2_decentralized_rho": (
        "bounds --task t2 --setting decentralized --alpha 3 --e1 2 --rho 0 "
        "--p-y 0.1 --p-xy 0.6 --sweep rho --start -0.9 --stop 0.9 --step 0.03"
    ).split(),
    "bounds_t1_decentralized_e1": (
        "bounds --task t1 --setting decentralized --alpha 2 --e1 1 --rho 0.5 "
        "--p-y 0.3 --p-xy 0.4 --sweep e1 --start 0 --stop 3 --step 0.1"
    ).split(),
    "bounds_t3_decentralized_e1": (
        "bounds --task t3 --setting decentralized --target mu-y --alpha 0.4 --e1 1 "
        "--rho 0.7 --p-x 0.2 --p-y 0.1 --p-xy 0.3 --sweep e1 --start 0 --stop 2 --step 0.05"
    ).split(),
    "bounds_t3_centralized_e2": (
        "bounds --task t3 --setting centralized --target mu-x --alpha 1 --e1 2 --e2 0.5 "
        "--rho 0.6 --p-x 0.25 --p-y 0.25 --p-xy 0.3 --sweep e2 --start 0 --stop 4 --step 0.25"
    ).split(),
    "bounds_t2_centralized_e1_inf_e2": (
        "bounds --task t2 --setting centralized --alpha 0.5 --e1 1 --e2 inf "
        "--rho -0.4 --p-y 0.5 --p-xy 0.2 --sweep e1 --start 0 --stop 1.5 --step 0.1"
    ).split(),
    # p_y >= 0.5 leaves no budget for joint slots: mu_x rows without information
    "bounds_t3_zero_information": (
        "bounds --task t3 --setting decentralized --target mu-x --alpha 1 --e1 0.5 "
        "--rho 0.5 --sweep p_y --start 0 --stop 1 --step 0.1"
    ).split(),
    "jsonl_bounds": (
        "bounds --task t3 --setting decentralized --target mu-x --alpha 1 --e1 0.5 "
        "--rho 0.5 --sweep p_y --start 0 --stop 1 --step 0.1 --format jsonl"
    ).split(),
    "jsonl_sweep_fig1b": "sweep --figure fig1b --format jsonl".split(),
    "jsonl_sweep_fig4b": "sweep --figure fig4b --format jsonl".split(),
    # figure presets at non-default flags
    "preset_fig1b_alpha_rho": "sweep --figure fig1b --alpha 0.5 --rho 0.9".split(),
    "preset_fig1c_alpha": "sweep --figure fig1c --alpha 0.5".split(),
    "preset_fig2a_alpha_e1": "sweep --figure fig2a --alpha 1 --e1 1.2 --var-x 2".split(),
    "preset_fig2b_e1_inf": "sweep --figure fig2b --e1 inf".split(),
    "preset_fig2c_alpha": "sweep --figure fig2c --alpha 3 --var-y 0.5".split(),
    "preset_fig3_budgets": "sweep --figure fig3 --e1 1.5 --e2 2.5 --rho 0.6".split(),
    "preset_fig4a_budgets": "sweep --figure fig4a --e2 1.5 --var-x 4".split(),
    "preset_fig4b_alpha_0": "sweep --figure fig4b --alpha 0".split(),
    "preset_fig4c_alpha_e1": "sweep --figure fig4c --alpha 1 --e1 3".split(),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(COMMANDS[name])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[name]


#: The commands whose stdout is their table alone.
TABLES = sorted(
    name for name in GOLDEN
    if name.startswith(("sweep_", "preset_", "bounds_", "jsonl_")) or name == "readme_bounds"
)


@pytest.mark.parametrize("name", TABLES)
def test_out_file_holds_the_golden_stdout(name, tmp_path):
    path = tmp_path / "table"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*COMMANDS[name], "--out", str(path)])
    assert code == 0 and out.getvalue() == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


def _budget_value(rng: random.Random, high: float) -> float:
    draw = rng.random()
    return math.inf if draw < 0.15 else 0.0 if draw < 0.25 else rng.uniform(0.0, high)


def _planner_records(n: int = 500, seed: int = 11) -> list[str]:
    """``plan_linear``/``plan_t3`` on ``n`` seeded scenarios of every task,
    setting and target, with inf and 0 budgets mixed in: one line each, the
    plan's record or the name of the error it raised."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        task = rng.choice(list(Task))
        setting = rng.choice(list(Setting))
        alpha = rng.choice([0.0, rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-3.0, 2.0)])
        e1 = _budget_value(rng, 2.0 * alpha + 2.0)
        e2 = _budget_value(rng, 2.0 * alpha + 3.0) if setting is Setting.CENTRALIZED else None
        target = rng.choice(list(Target)) if task is Task.T3 else None
        rho = rng.choice([0.0, rng.uniform(-0.99, 0.99)])
        model = validate((0.0, 0.0, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rho))
        scenario = Scenario(task, setting, ResourceBudget(alpha, e1, e2), target)
        planner = plan_t3 if task is Task.T3 else plan_linear
        try:
            record = planner(scenario, model).as_record()
        except CrbPlanError as exc:
            record = type(exc).__name__
        lines.append(f"{scenario!r} {model!r} {record!r}")
    return lines


#: sha256 of :func:`_planner_records`, recorded before the planners were batched.
PLANNER_DIGEST = "89f2ba16c6302427db6e07044c1a22636ccdfc93fed930853d9c461f5f5ea360"


def test_planner_records_match_golden_digest():
    text = "\n".join(_planner_records()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PLANNER_DIGEST


def _oracle_records(n_cases: int = 4, seed: int = 5) -> list[str]:
    """``empirical_fim_with_stderr`` at 10^4 slots on ``n_cases`` seeded
    policies with idle slots and models per task: one line each, the mean
    and the standard errors in full precision."""
    rng = random.Random(seed)
    lines = []
    for task in Task:
        for case in range(n_cases):
            cuts = sorted(rng.random() for _ in range(3))
            policy = SamplingPolicy(cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1])
            means = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            variances = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            model = validate((*means, *variances, rng.uniform(-0.95, 0.95)))
            mean, stderr = empirical_fim_with_stderr(
                model, policy, task, 10**4, np.random.default_rng(100 + case)
            )
            lines.append(f"{task.value} {policy!r} {model!r} {mean.tolist()!r} {stderr.tolist()!r}")
    return lines


#: sha256 of :func:`_oracle_records`, recorded while the oracle still
#: reduced the score products entry by entry.
ORACLE_DIGEST = "0491c22cc8483bf12a38841321a9faa05eda93b3a3bda622401c07401da6ae21"


def test_oracle_records_match_golden_digest():
    text = "\n".join(_oracle_records()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_DIGEST


def _component(rng: random.Random, value: float) -> float:
    draw = rng.random()
    return 0.0 if draw < 0.2 else -1e-13 if draw < 0.3 else value


def _estimator_records(n: int = 2400, seed: int = 13) -> list[str]:
    """``default_estimator``, ``var_delta1`` and ``run``'s analytic variance
    per slot (``%.9g``) on ``n`` seeded configurations of every task,
    estimator and target, with policy components of 0 and -1e-13 mixed in:
    one line each, an error by its name (``MissingStratum`` where every
    replication lacked a stratum)."""
    rng = random.Random(seed)
    lines = []
    for case in range(n):
        task = rng.choice(list(Task))
        target = rng.choice(list(Target)) if task is Task.T3 else Target.MU_Y
        kinds = [EstimatorKind.SAMPLE_MEAN] if task is Task.T3 else list(EstimatorKind)
        estimator = rng.choice(kinds)
        cuts = sorted(rng.random() for _ in range(3))
        policy = SamplingPolicy(*(_component(rng, v) for v in
                                  (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1])))
        rho = rng.choice([0.0, rng.uniform(-0.99, 0.99)])
        model = validate((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                          rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), rho))
        scenario = Scenario(task, Setting.CENTRALIZED,
                            ResourceBudget(1.0, math.inf, math.inf), target)
        slots = rng.choice([2, 50])
        config = SimulationConfig(scenario, model, policy, estimator, slots, 2, case)
        try:
            variance = run(config).analytic_estimator_variance
            variance = "None" if variance is None else f"{variance:.9g}"
        except CrbPlanError as exc:
            variance = type(exc).__name__
        try:
            blend = repr(var_delta1(policy, model))
        except CrbPlanError as exc:
            blend = type(exc).__name__
        default = default_estimator(scenario, policy).value
        lines.append(f"{config!r} {default} {blend} {variance}")
    return lines


#: sha256 of :func:`_estimator_records`, recorded while the simulator still
#: chose the formula and the analytic variance by branches on the estimator.
ESTIMATOR_DIGEST = "caf4a60295252e45eee952d792e4859ff8f7ad1bc8f87f73f9836039d57032e2"


def test_estimator_records_match_golden_digest():
    text = "\n".join(_estimator_records()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ESTIMATOR_DIGEST
