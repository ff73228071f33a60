import json
import math
import subprocess
import sys

import pytest

from crbplan.cli import main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# --- plan ---


def test_plan_t1_worked_example(capsys):
    code = run_cli(
        "plan", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "2", "--rho", "0.5",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "p_y=0.5" in out and "p_xy=0.5" in out
    assert "method=closed_form" in out


def test_plan_t3_centralized_interior(capsys):
    code = run_cli(
        "plan", "--task", "t3", "--setting", "centralized",
        "--alpha", "2", "--rho", "0.8", "--e1", "2", "--e2", "2",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "method=grid_refine" in out
    values = dict(pair.split("=") for pair in out.split())
    assert float(values["p_x"]) > 0
    assert float(values["p_y"]) > 0
    assert float(values["p_xy"]) > 0


def test_plan_missing_rho_exits_2(capsys):
    code = run_cli(
        "plan", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "2",
    )
    assert code == 2
    assert "--rho" in capsys.readouterr().err


def test_plan_centralized_missing_e2_exits_2(capsys):
    code = run_cli(
        "plan", "--task", "t1", "--setting", "centralized",
        "--alpha", "2", "--e1", "2", "--rho", "0.5",
    )
    assert code == 2
    assert "--e2" in capsys.readouterr().err


def test_plan_degenerate_exits_3(capsys):
    code = run_cli(
        "plan", "--task", "t3", "--setting", "decentralized",
        "--alpha", "2", "--e1", "0", "--rho", "0.5",
    )
    assert code == 3


def test_plan_invalid_rho_exits_2(capsys):
    code = run_cli(
        "plan", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "2", "--rho", "1.0",
    )
    assert code == 2


@pytest.mark.parametrize("setting", [("decentralized",), ("centralized", "--e2", "2")])
def test_plan_infinite_alpha_exits_2(setting, capsys):
    code = run_cli(
        "plan", "--task", "t1", "--setting", *setting,
        "--alpha", "inf", "--e1", "2", "--rho", "0.5",
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: alpha") and err.count("\n") == 1


# --- bounds ---


def bounds_rows(tmp_path, e1, extra=()):
    out = tmp_path / "bounds.csv"
    code = run_cli(
        "bounds", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", e1, "--rho", "0.5",
        "--sweep", "p_y", "--step", "0.01",
        "--out", str(out), *extra,
    )
    assert code == 0
    return read_csv(out)


def test_bounds_header_and_columns(tmp_path):
    header, rows = bounds_rows(tmp_path, "2")
    assert header == ["sweep_var", "value", "crb", "feasible"]
    assert len(rows) == 101
    assert all(len(r) == 4 for r in rows)


def test_bounds_unconstrained_minimum_at_zero(tmp_path):
    _, rows = bounds_rows(tmp_path, "inf")
    best = min(rows, key=lambda r: float(r["crb"]))
    assert float(best["value"]) == 0.0
    assert float(best["crb"]) == pytest.approx(0.75, rel=1e-9)


def test_bounds_moderate_budget_minimum_at_half(tmp_path):
    _, rows = bounds_rows(tmp_path, "2")
    best = min(rows, key=lambda r: float(r["crb"]))
    assert float(best["value"]) == pytest.approx(0.5)
    assert float(best["crb"]) == pytest.approx(6 / 7, rel=1e-9)


def test_bounds_stringent_budget_minimum_at_boundary(tmp_path):
    _, rows = bounds_rows(tmp_path, "0.8")
    feasible = [r for r in rows if r["feasible"] == "true"]
    best = min(feasible, key=lambda r: float(r["crb"]))
    assert float(best["value"]) == pytest.approx(0.8)
    # points beyond the sensor budget are emitted but flagged infeasible
    assert any(r["feasible"] == "false" for r in rows)


def test_bounds_rho_sweep_with_fixed_policy(tmp_path):
    out = tmp_path / "rho.csv"
    code = run_cli(
        "bounds", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "2", "--rho", "0.5",
        "--p-y", "0.5", "--p-xy", "0.5",
        "--sweep", "rho", "--start", "0", "--stop", "0.9", "--step", "0.1",
        "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    crbs = [float(r["crb"]) for r in rows]
    assert crbs[0] == pytest.approx(1.0)  # rho = 0
    assert all(a >= b for a, b in zip(crbs, crbs[1:]))  # correlation helps


def test_bounds_malformed_range_exits_2(capsys):
    code = run_cli(
        "bounds", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "2", "--rho", "0.5",
        "--sweep", "p_y", "--start", "1", "--stop", "0",
    )
    assert code == 2


@pytest.mark.parametrize(
    "sweep_range", [("--step", "1e-300"), ("--start=-1e308", "--stop", "1e308", "--step", "1")]
)
def test_bounds_oversized_sweep_exits_2(sweep_range, capsys):
    code = run_cli(
        "bounds", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "2", "--rho", "0.5", "--sweep", "p_y", *sweep_range,
    )
    assert code == 2
    assert "exceeds 1000000 rows" in capsys.readouterr().err


def test_sweep_preset_grid_over_row_cap_exits_2(tmp_path, capsys):
    # fig1c sweeps e1 over [0, alpha + 1.5] in steps of 0.05: 2e10 rows here
    out = tmp_path / "fig1c.csv"
    assert run_cli("sweep", "--figure", "fig1c", "--alpha", "1e9", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: sweep of 2e+10 steps exceeds 1000000 rows\n"
    assert not out.exists()


def test_bounds_unknown_sweep_variable_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "bounds", "--task", "t1", "--setting", "decentralized",
            "--alpha", "2", "--e1", "2", "--rho", "0.5", "--sweep", "bogus",
        )
    assert exc.value.code == 2


# --- simulate ---


SIM_ARGS = (
    "simulate", "--task", "t1", "--setting", "decentralized",
    "--alpha", "2", "--e1", "2", "--rho", "0.5",
    "--slots", "300", "--reps", "300", "--seed", "99",
)


def test_simulate_byte_identical_with_seed(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*SIM_ARGS, "--out", str(out1)) == 0
    assert run_cli(*SIM_ARGS, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_fresh_seed_printed(capsys):
    code = run_cli(
        "simulate", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "2", "--rho", "0.5",
        "--slots", "50", "--reps", "20",
    )
    out = capsys.readouterr().out
    assert code == 0
    seed_lines = [l for l in out.splitlines() if l.startswith("seed=")]
    assert len(seed_lines) == 1
    assert int(seed_lines[0].split("=")[1]) >= 0


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run_cli(*SIM_ARGS[:-1], "-1", "--out", str(out))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == (
        "policy from planner: p_x=0 p_y=0.5 p_xy=0.5 crb=0.857142857 "
        "method=closed_form tie=false\n"
        "seed=-1\n"
    )
    assert captured.err == "error: expected non-negative integer\n"
    assert not out.exists()


def test_simulate_planner_policy_passes_audit(capsys):
    # no policy flags: the planner's policy is used and must audit clean
    code = run_cli(*SIM_ARGS)
    out = capsys.readouterr().out
    assert code == 0
    assert "policy from planner" in out
    audit_lines = [l for l in out.splitlines() if l.startswith("audit ")]
    assert audit_lines and all(l.endswith("PASS") for l in audit_lines)


def test_simulate_jsonl_report(tmp_path):
    out = tmp_path / "report.jsonl"
    assert run_cli(*SIM_ARGS, "--out", str(out), "--format", "jsonl") == 0
    record = json.loads(out.read_text())
    assert record["master_seed"] == 99
    assert record["generator"] == "pcg64"
    assert record["analytic_crb"] == pytest.approx(6 / 7)


def test_simulate_trace_written(tmp_path):
    trace = tmp_path / "trace.csv"
    assert run_cli(*SIM_ARGS, "--trace", str(trace)) == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "slot,kind,x,y,cost_sx,cost_sy,cost_dc"
    assert len(lines) == 301


def test_simulate_infeasible_policy_exits_2(capsys):
    code = run_cli(*SIM_ARGS, "--p-xy", "1.0")
    assert code == 2
    assert "violates" in capsys.readouterr().err


def test_simulate_delta2_ratio_near_one(tmp_path):
    # joint-only sampling at high correlation: empirical variance within 5%
    # of (1 - rho^2) var_y
    out = tmp_path / "d2.jsonl"
    code = run_cli(
        "simulate", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "3", "--rho", "0.9", "--p-xy", "1.0",
        "--estimator", "delta2", "--slots", "300", "--reps", "10000",
        "--seed", "77", "--out", str(out), "--format", "jsonl",
    )
    assert code == 0
    record = json.loads(out.read_text())
    ratio = record["empirical_variance_per_slot"] / (0.19 * 1.0)
    assert 0.95 <= ratio <= 1.05


def test_simulate_t3_centralized_planner_policy(tmp_path, capsys):
    out = tmp_path / "t3.jsonl"
    code = run_cli(
        "simulate", "--task", "t3", "--setting", "centralized",
        "--alpha", "2", "--e1", "2", "--e2", "2", "--rho", "0.8",
        "--slots", "1000", "--reps", "2000", "--seed", "31",
        "--out", str(out), "--format", "jsonl",
    )
    stdout = capsys.readouterr().out
    assert code == 0
    assert "estimator=sample_mean" in stdout
    record = json.loads(out.read_text())
    # sample-mean variance sigma_x^2 / (p_x + p_xy); sensors bind at 2/3
    assert record["analytic_estimator_variance"] == pytest.approx(1.5, rel=1e-3)
    assert record["empirical_variance_per_slot"] == pytest.approx(1.5, rel=0.05)
    # the two-parameter bound is lower; the inequality must still hold
    assert record["empirical_variance_per_slot"] >= record["analytic_crb"]
    audit_lines = [l for l in stdout.splitlines() if l.startswith("audit ")]
    assert len(audit_lines) == 3 and all(l.endswith("PASS") for l in audit_lines)


def test_bounds_e1_sweep_flags_feasibility(tmp_path):
    out = tmp_path / "e1.csv"
    code = run_cli(
        "bounds", "--task", "t1", "--setting", "decentralized",
        "--alpha", "2", "--e1", "2", "--rho", "0.5",
        "--p-y", "0.5", "--p-xy", "0.5",
        "--sweep", "e1", "--start", "0", "--stop", "4", "--step", "0.5",
        "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    # policy costs S_y two units per slot: feasible exactly when e1 >= 2
    for row in rows:
        expected = float(row["value"]) >= 2.0
        assert (row["feasible"] == "true") == expected
        assert float(row["crb"]) == pytest.approx(6 / 7, rel=1e-9)


# --- sweep ---


def test_sweep_unknown_figure_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--figure", "fig9z")
    assert exc.value.code == 2


def test_sweep_fig1a_threshold_curve(tmp_path):
    out = tmp_path / "fig1a.csv"
    assert run_cli("sweep", "--figure", "fig1a", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "rho_star"]
    by_alpha = {float(r["alpha"]): float(r["rho_star"]) for r in rows}
    assert by_alpha[2.0] == pytest.approx(math.sqrt(2 / 3), rel=1e-8)
    assert by_alpha[0.0] == 0.0


def test_sweep_fig1c_breakpoints(tmp_path):
    out = tmp_path / "fig1c.csv"
    assert run_cli("sweep", "--figure", "fig1c", "--alpha", "2", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["regime", "rho", "e1", "p_y", "p_xy", "tie"]
    below = {float(r["e1"]): float(r["p_xy"]) for r in rows if r["regime"] == "below"}
    above = {float(r["e1"]): float(r["p_xy"]) for r in rows if r["regime"] == "above"}
    # marginals-first: p_xy stays 0 until e1 = 1, then rises, hits 1 at e1 = 3
    assert below[0.95] == 0.0
    assert below[1.0] == 0.0
    assert below[1.05] > 0.0
    assert below[3.0] == pytest.approx(1.0)
    assert below[2.0] == pytest.approx(0.5)
    # joint-first: p_xy = e1 / (alpha + 1) until saturation at e1 = alpha + 1
    assert above[1.5] == pytest.approx(0.5)
    assert above[2.95] == pytest.approx(2.95 / 3)
    assert above[3.0] == pytest.approx(1.0)
    assert above[3.5] == pytest.approx(1.0)


def test_sweep_fig4b_columns(tmp_path):
    out = tmp_path / "fig4b.csv"
    # coarse override keeps the unit-test sweep fast; acceptance runs the default
    assert run_cli("sweep", "--figure", "fig4b", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "tie"]
    assert len(rows) == 96


EXPECTED_FIGURE_HEADERS = {
    "fig1a": ["alpha", "rho_star"],
    "fig1b": ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "feasible"],
    "fig1c": ["regime", "rho", "e1", "p_y", "p_xy", "tie"],
    "fig2a": ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "feasible"],
    "fig2b": ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "tie"],
    "fig2c": ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "tie"],
    "fig3": ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "feasible"],
    "fig4a": ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "feasible"],
    "fig4b": ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "tie"],
    "fig4c": ["rho", "e1", "e2", "p_x", "p_y", "p_xy", "crb", "feasible"],
}


@pytest.mark.parametrize("figure", sorted(EXPECTED_FIGURE_HEADERS))
def test_sweep_every_figure_emits_documented_columns(figure, tmp_path):
    out = tmp_path / f"{figure}.csv"
    assert run_cli("sweep", "--figure", figure, "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == EXPECTED_FIGURE_HEADERS[figure]
    assert rows
    assert all(len(row) == len(header) for row in rows)


def test_sweep_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sweep", "--figure", "fig2a", "--out", str(a)) == 0
    assert run_cli("sweep", "--figure", "fig2a", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# --- config file ---


def test_config_file_supplies_model(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "task": "t1", "setting": "decentralized",
        "alpha": 2.0, "e1": 2.0,
        "mu_x": 0.0, "mu_y": 0.0, "var_x": 1.0, "var_y": 1.0, "rho": 0.5,
    }))
    code = run_cli("plan", "--config", str(cfg))
    out = capsys.readouterr().out
    assert code == 0
    assert "p_y=0.5" in out


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "task": "t1", "setting": "decentralized",
        "alpha": 2.0, "e1": 2.0, "rho": 0.5,
    }))
    code = run_cli("plan", "--config", str(cfg), "--rho", "0.9")
    out = capsys.readouterr().out
    assert code == 0
    assert "p_xy=0.666666667" in out  # the high-correlation regime


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": "t1", "bogus": 1}))
    code = run_cli("plan", "--config", str(cfg))
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "crbplan.cli", "plan", "--task", "t1",
         "--setting", "decentralized", "--alpha", "2", "--e1", "2", "--rho", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "p_y=0.5" in proc.stdout
