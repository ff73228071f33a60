"""Tests for the benchmark itself: seeded inputs, checks, tracing, contract.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import defects  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import FAILED, OK, WRONG  # noqa: E402


@pytest.fixture
def modules():
    return run.import_package()


@pytest.fixture
def cp(modules):
    return modules["crbplan"]


def _plan_case(cp, e1=1.0, task="t1", setting="decentralized", e2=None):
    scenario = cp.Scenario(cp.Task(task), cp.Setting(setting), cp.ResourceBudget(2.0, e1, e2))
    model = cp.validate({"mu_x": 0, "mu_y": 0, "var_x": 1, "var_y": 1, "rho": 0.5})
    return scenario, model


# --- seeded inputs ---------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_plan_mix_is_stratified_into_exact_thirds():
    inputs = workloads.generate("plan_mix", 3)
    groups = Counter(spec["group"] for spec in inputs)
    assert set(groups.values()) == {workloads.PLAN_GROUP_SIZE}
    tenth = workloads.PLAN_GROUP_SIZE // 10
    for group in groups:
        e1 = [spec["e1"] for spec in inputs if spec["group"] == group]
        assert e1.count(math.inf) == tenth
        # Zero budgets only where the planner answers them correctly.
        assert e1.count(0.0) == (tenth if group == "t3" else 0)


def test_plan_mix_t3_budgets_keep_the_polytope_on_the_grid():
    for spec in workloads.generate("plan_mix", 4):
        e1, e2, alpha = spec["e1"], spec["e2"], spec["alpha"]
        if spec["group"] != "t3" or e1 == 0.0 or e2 == 0.0:
            continue
        if spec["setting"] == "decentralized":
            assert e1 >= 2 * alpha + 1
        else:
            assert e1 >= workloads.T3_MIN_EXTENT * (alpha + 1)
            assert e2 >= workloads.T3_MIN_EXTENT * 2 * alpha


def test_mc_policies_draw_no_slot_kind_rarely(cp):
    for config in workloads.generate("mc_short", 5)["configs"]:
        policy = workloads._choose_config(cp, config).policy
        drawn = [p for p in workloads._slot_probabilities(policy) if p > 1e-9]
        assert min(drawn) >= workloads.MIN_SLOT_P, policy


def test_known_defects_are_replayed_once_per_workload(cp):
    names = set()
    for workload in workloads.WORKLOADS:
        for record in defects.replay_known_defects(cp, workload):
            assert record["status"] in (OK, FAILED, WRONG)
            assert record["present"] == (record["status"] != OK)
            assert record["input"] and record["summary"]
            names.add(record["name"])
    assert names == {defect.name for defect in defects.KNOWN_DEFECTS}


def test_cli_flags_parse_tiny_negative_values(modules, tmp_path):
    out = tmp_path / "p.csv"
    code = modules["crbplan.cli"].main([
        "plan", "--task", "t2", "--setting", "centralized", "--alpha", "0.5", "--e1", "1.5",
        "--e2", "1.5", "--rho", workloads._flag(-5.0338486793699566e-05), "--out", str(out),
    ])
    assert code == 0 and out.read_text().startswith(",".join(workloads.PLAN_HEADER))


# --- checks flag planted wrong answers --------------------------------------


def test_plan_check_accepts_the_planner_answer(cp):
    scenario, model = _plan_case(cp)
    assert checks.check_plan(cp, scenario, model, cp.plan(scenario, model), 10.0) == (OK, "")


def test_plan_check_flags_an_infeasible_policy(cp):
    scenario, model = _plan_case(cp, e1=0.5)
    policy = cp.SamplingPolicy(0.0, 1.0, 0.0)
    planted = cp.PlanResult(policy, cp.crb_t1(policy, model), cp.Method.CLOSED_FORM, False)
    status, reason = checks.check_plan(cp, scenario, model, planted, 10.0)
    assert status == WRONG and "sensor_y_budget" in reason


def test_plan_check_flags_a_wrong_crb(cp):
    scenario, model = _plan_case(cp)
    result = cp.plan(scenario, model)
    planted = dataclasses.replace(result, objective_value=result.objective_value * 1.01)
    assert checks.check_plan(cp, scenario, model, planted, 10.0)[0] == WRONG


def test_plan_check_flags_a_plan_beaten_by_a_random_policy(cp):
    scenario, model = _plan_case(cp)
    policies = checks.random_feasible_policies(cp, scenario, [[0.1, 0.6, 0.2], [0.3, 0.3, 0.3]])
    assert all(cp.constraints_for(scenario).is_feasible(p) for p in policies)
    best = min(checks.bound_at(cp, scenario, model, p) for p in policies)
    poor = cp.SamplingPolicy(0.0, 0.05, 0.0)
    planted = cp.PlanResult(poor, cp.crb_t1(poor, model), cp.Method.CLOSED_FORM, False)
    assert checks.check_plan(cp, scenario, model, planted, best)[0] == WRONG


def test_plan_check_counts_inf_and_unwarranted_exceptions_as_failed(cp):
    scenario, model = _plan_case(cp, e1=0.0)
    result = cp.plan(scenario, model)  # known defect: crb=inf instead of an exception
    assert checks.check_plan(cp, scenario, model, result, math.inf)[0] == FAILED
    raised = cp.SingularEverywhere("planted")
    assert checks.check_plan(cp, scenario, model, raised, math.inf) == (OK, "")
    assert checks.check_plan(cp, scenario, model, raised, 3.0)[0] == FAILED


def test_random_policies_respect_zero_budgets(cp):
    scenario, model = _plan_case(cp, e1=0.0, setting="centralized", e2=1.0)
    policies = checks.random_feasible_policies(cp, scenario, [[0.2, 0.3, 0.4]])
    assert policies[0].as_tuple() == (0.0, 0.0, 0.0)


def _bounds_csv(modules, tmp_path):
    out = tmp_path / "b.csv"
    code = modules["crbplan.cli"].main([
        "bounds", "--task", "t1", "--setting", "decentralized", "--alpha", "2",
        "--e1", "2", "--rho", "0.5", "--sweep", "p_y", "--out", str(out),
    ])
    return code, out.read_text()


def test_table_check_accepts_a_complete_table(modules, tmp_path):
    code, text = _bounds_csv(modules, tmp_path)
    assert checks.check_table(code, text, workloads.BOUNDS_HEADER, 101) == (OK, "")


@pytest.mark.parametrize("cut", [-1, -30, -200])
def test_table_check_flags_a_truncated_csv(modules, tmp_path, cut):
    code, text = _bounds_csv(modules, tmp_path)
    assert checks.check_table(code, text[:cut], workloads.BOUNDS_HEADER, 101)[0] == WRONG


def test_table_check_flags_a_wrong_header_or_bad_cell(modules, tmp_path):
    code, text = _bounds_csv(modules, tmp_path)
    renamed = text.replace("crb", "bound", 1)
    assert checks.check_table(code, renamed, workloads.BOUNDS_HEADER, 101)[0] == WRONG
    garbled = text.replace("true", "yes", 1)
    assert checks.check_table(code, garbled, workloads.BOUNDS_HEADER, 101)[0] == WRONG
    assert checks.check_table(2, text, workloads.BOUNDS_HEADER, 101)[0] == FAILED


def _simulation(cp):
    scenario, model = _plan_case(cp, e1=2.0)
    policy = cp.plan(scenario, model).policy
    config = cp.SimulationConfig(scenario, model, policy, cp.EstimatorKind.DELTA1, 100, 200, 5)
    report = cp.run(config)
    variance = cp.var_delta1(policy, model) / (policy.p_y + policy.p_xy)
    return report, cp.audit_resources(report, scenario), variance


def test_simulation_check_accepts_a_real_run_and_flags_planted_errors(cp):
    report, audit, variance = _simulation(cp)
    assert checks.check_simulation((report, audit), 0.0, variance, 100) == (OK, "")
    shifted = dataclasses.replace(report, mean_estimate=report.mean_estimate + 1.0)
    assert checks.check_simulation((shifted, audit), 0.0, variance, 100)[0] == WRONG
    doubled = dataclasses.replace(
        report, empirical_variance_per_slot=3 * report.empirical_variance_per_slot
    )
    assert checks.check_simulation((doubled, audit), 0.0, variance, 100)[0] == WRONG
    overspent = dataclasses.replace(
        audit, checks=(dataclasses.replace(audit.checks[0], slack=-1.0),) + audit.checks[1:]
    )
    assert checks.check_simulation((report, overspent), 0.0, variance, 100)[0] == WRONG


# --- tracing ----------------------------------------------------------------


def _attributes(modules):
    return {
        (name, attribute): id(value)
        for name, module in modules.items()
        for attribute, value in vars(module).items()
    }


def _short_ops(modules, workload, count):
    plan = workloads.prepare(modules["crbplan"], workload, workloads.generate(workload, 2), ROOT)
    return plan.ops[:count]


def test_traced_run_restores_every_attribute_and_reconciles(modules):
    ops = _short_ops(modules, "mc_short", 3)
    original = modules["crbplan.model"].replication_rng
    before = _attributes(modules)
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        wrapper = modules["crbplan.simulator"].replication_rng
        assert wrapper is not original and wrapper.__wrapped__ is original
        assert modules["crbplan.model"].replication_rng is wrapper
        assert modules["crbplan"].replication_rng is wrapper
        measured = run.measure(ops, 60.0, speed.SpeedProbe(), tracer, passes=1)
    finally:
        tracer.uninstall()
    assert _attributes(modules) == before
    expected = Counter()
    for index, *_ in measured.records:
        expected.update(ops[index].expected_calls)
    assert spans.reconcile(tracer.spans, expected) == []
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["model.replication_rng.calls"] == 3 * workloads.MC_REPS


def test_checks_inside_a_traced_pass_record_no_spans(modules):
    ops = _short_ops(modules, "plan_mix", 1)
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        outcome = ops[0].call()
        recorded = len(tracer.spans)
        with tracer.paused():
            ops[0].check(outcome)
    finally:
        tracer.uninstall()
    assert recorded > 0 and len(tracer.spans) == recorded


def test_self_time_excludes_children():
    spans_in = [
        ("outer", 0, 100, -1, 1),
        ("inner", 10, 40, 0, 1),
        ("inner", 50, 70, 0, 1),
    ]
    grouped = spans._by_name(spans_in)
    assert grouped["outer"] == [(100, 50, 1)]


# --- the contract -----------------------------------------------------------


def test_declared_metrics_are_the_measured_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(spans.layer_metrics([])) | {"trace.overhead_ratio", "trace.reconcile_mismatches"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    measured = run.Measurement([workloads.Op("k", "label", None, None, {})], _UnitProbe())
    measured.records = [(0, 0, 1_000_000 * i, OK, "") for i in range(1, 101)]
    measured.passes = 1
    values = run.end_to_end(measured, [0.1])
    assert {m["name"] for m in spec["end_to_end"]} == set(values)
    assert values["op_p50_ms"] == pytest.approx(50.5)


def test_latency_metrics_are_medians_over_passes():
    ops = [workloads.Op("k", "label", None, None, {}) for _ in range(100)]
    measured = run.Measurement(ops, _UnitProbe())
    # Three passes of 100 ops; the second ran during a 3x slow spell.
    for slow in (1, 3, 1):
        measured.records += [(i, 0, slow * 1_000_000 * (i + 1), OK, "") for i in range(100)]
    measured.passes = 3
    values = run.end_to_end(measured, [0.1])
    assert values["op_p50_ms"] == pytest.approx(50.5)
    assert values["op_p90_ms"] == pytest.approx(90.1)
    assert values["ops_per_s"] == pytest.approx(1e3 / 50.5)


class _UnitProbe:
    def scale(self, kind, start_ns, end_ns):
        return 1.0


def test_speed_probe_scales_by_the_kernel_samples_near_an_op():
    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_NS["python"]
    probe._times["python"][:] = [0, 10 * speed.WINDOW_NS]
    probe._durations["python"][:] = [nominal // 2, 2 * nominal]
    assert probe.scale("python", 0, 1) == pytest.approx(2.0)
    assert probe.scale("python", 10 * speed.WINDOW_NS, 10 * speed.WINDOW_NS) == pytest.approx(0.5)
    probe.sample()
    assert len(probe._durations["numpy"]) == 1


def test_run_prints_the_result_as_its_last_line():
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_short", "--seed", "1", "--seconds", "0.3"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "plan_mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert "{" not in child.stdout
