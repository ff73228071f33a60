import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crbplan.cli import _write_table, build_parser, derive_dependent, main
from crbplan.fisher import Task
from crbplan.strategy import ResourceBudget, Scenario, Setting, constraints_for


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
    assert "method=face_enum" in out
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


def test_plan_alpha_overflowing_the_budget_rows_exits_2(capsys):
    # 1 + 2 alpha is inf at alpha = 1e308, though alpha itself is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "plan", "--task", "t3", "--setting", "decentralized",
            "--alpha", "1e308", "--e1", "1", "--rho", "0.5",
        )
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: alpha 1e+308 overflows the budget row coefficient 1 + 2 alpha\n"


def test_plan_tiny_dc_budget_keeps_its_finite_bound(capsys):
    # vertices 1e-12 from the origin are distinct policies, not copies of it
    code = run_cli(
        "plan", "--task", "t1", "--setting", "centralized",
        "--alpha", "1", "--e1", "1", "--e2", "1e-12", "--rho", "0.5",
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "p_x=0 p_y=1e-12 p_xy=0 crb=1e+12 method=vertex_enum tie=false\n"
    )


_SINGULAR = "error: target bound is infinite over the entire feasible region\n"
_ZERO_BUDGETS = {
    "t1_decentralized_e1": ("--task", "t1", "--setting", "decentralized", "--e1", "0"),
    "t2_decentralized_e1": ("--task", "t2", "--setting", "decentralized", "--e1", "0"),
    "t1_centralized_e2": ("--task", "t1", "--setting", "centralized", "--e1", "2", "--e2", "0"),
    "t2_centralized_e2": ("--task", "t2", "--setting", "centralized", "--e1", "1", "--e2", "0"),
    # a zero data-center row admits rounding only, not p_y = 4e-10
    "t1_centralized_e2_tiny_e1": (
        "--task", "t1", "--setting", "centralized", "--e1", "1.2e-9", "--e2", "0"
    ),
}


@pytest.mark.parametrize("flags", list(_ZERO_BUDGETS.values()), ids=list(_ZERO_BUDGETS))
def test_plan_zero_budget_exits_3_like_t3(flags, capsys):
    code = run_cli("plan", *flags, "--alpha", "2", "--rho", "0.5")
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == _SINGULAR


def test_plan_t3_subnormal_variance_scales_the_bound(capsys):
    code = run_cli(
        "plan", "--task", "t3", "--setting", "decentralized",
        "--alpha", "0.5", "--e1", "1", "--rho", "0.5", "--var-x", "1e-310",
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "p_x=1 p_y=0 p_xy=0 crb=1e-310 method=face_enum tie=false\n"
    )


def test_t1_subnormal_budget_at_a_small_variance_keeps_its_bound(capsys):
    # the standardized bound overflows at p_y = 1e-310; var_y times it,
    # 1e305, does not
    t1 = ("--task", "t1", "--setting", "decentralized", "--alpha", "1", "--e1", "1e-310",
          "--rho", "0.5", "--var-y", "1e-5")
    assert run_cli("plan", *t1) == 0
    assert capsys.readouterr().out == (
        "p_x=0 p_y=1e-310 p_xy=0 crb=1e+305 method=closed_form tie=false\n"
    )
    assert run_cli("bounds", *t1, "--sweep", "p_y", "--start", "1e-310", "--stop", "1e-310") == 0
    assert capsys.readouterr().out.endswith("\np_y,1e-310,1e+305,true\n")


def test_t3_subnormal_budget_at_a_small_variance_keeps_its_bound(capsys):
    # the planner ranks by the Schur complement, about 1e-310, whose inverse
    # overflows; var_x over it, 1e305, does not
    t3 = ("--task", "t3", "--setting", "decentralized", "--alpha", "1", "--e1", "1e-310",
          "--rho", "0.5", "--var-x", "1e-5", "--target", "mu-x")
    assert run_cli("plan", *t3) == 0
    assert capsys.readouterr().out == (
        "p_x=1e-310 p_y=0 p_xy=0 crb=1e+305 method=face_enum tie=true\n"
    )
    assert run_cli("bounds", *t3, "--sweep", "p_x", "--start", "1e-310", "--stop", "1e-310") == 0
    assert capsys.readouterr().out.endswith("\np_x,1e-310,1e+305,true\n")


_PRODUCT = "variance 1e+300 times standardized bound "
_UNINVERTIBLE = "the information is positive but too small to invert"
_OVERFLOWS = {
    # standardized bounds 1e10, finite; only the variance times them overflows
    "plan_t1": (_PRODUCT, (
        "plan", "--task", "t1", "--setting", "decentralized",
        "--alpha", "1", "--e1", "1e-10", "--rho", "0.5", "--var-y", "1e300",
    )),
    "plan_t3": (_PRODUCT, (
        "plan", "--task", "t3", "--setting", "decentralized", "--target", "mu-x",
        "--alpha", "1", "--e1", "1e-10", "--rho", "0.5", "--var-x", "1e300",
    )),
    "bounds_t1": (_PRODUCT, (
        "bounds", "--task", "t1", "--setting", "decentralized",
        "--alpha", "1", "--e1", "1e-10", "--rho", "0.5", "--var-y", "1e300",
        "--sweep", "p_y", "--start", "0", "--stop", "1e-10", "--step", "5e-11",
    )),
    # a subnormal budget: the information is positive, the standardized
    # bound itself overflows
    "plan_t1_subnormal": (_UNINVERTIBLE, (
        "plan", "--task", "t1", "--setting", "decentralized",
        "--alpha", "1", "--e1", "1e-310", "--rho", "0.5",
    )),
    "plan_t3_subnormal": (_UNINVERTIBLE, (
        "plan", "--task", "t3", "--setting", "decentralized",
        "--alpha", "1", "--e1", "1e-310", "--rho", "0.5",
    )),
    # every positive policy rounds past the budget row e1 = 5e-324, and
    # (1 - rho^2) p_y underflows at p_y = 5e-324: the bound exists, too large
    "plan_t1_centralized_subnormal": (_UNINVERTIBLE, (
        "plan", "--task", "t1", "--setting", "centralized",
        "--alpha", "0.5", "--e1", "5e-324", "--e2", "1", "--rho", "0.75",
    )),
    "bounds_t1_subnormal": (_UNINVERTIBLE, (
        "bounds", "--task", "t1", "--setting", "decentralized",
        "--alpha", "1", "--e1", "1e-310", "--rho", "0.5",
        "--sweep", "p_y", "--start", "0", "--stop", "1e-310", "--step", "1e-310",
    )),
}


@pytest.mark.parametrize("message, argv", list(_OVERFLOWS.values()), ids=list(_OVERFLOWS))
def test_overflowing_bound_exits_2(message, argv, capsys):
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: bound overflows: {message}")
    assert captured.err.count("\n") == 1


def test_bounds_row_without_information_still_reads_inf(capsys):
    # p_y = p_xy = 0 has no bound at all, which no variance can overflow
    code = run_cli(
        "bounds", "--task", "t1", "--setting", "decentralized",
        "--alpha", "1", "--e1", "0", "--rho", "0.5", "--var-y", "1e300",
        "--sweep", "p_y", "--start", "0", "--stop", "0", "--step", "5e-11",
    )
    assert code == 0
    assert capsys.readouterr().out == "sweep_var,value,crb,feasible\np_y,0,inf,true\n"


@pytest.mark.parametrize("flags", list(_ZERO_BUDGETS.values()), ids=list(_ZERO_BUDGETS))
def test_simulate_planner_zero_budget_exits_3(flags, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run_cli(
        "simulate", *flags, "--alpha", "2", "--rho", "0.5",
        "--slots", "10", "--reps", "5", "--seed", "1", "--out", str(out),
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == _SINGULAR
    assert not out.exists()


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


def _derive_by_rows(cons, fixed, dependent):
    """The dependent component's cap as a loop over the constraint rows: the
    reference that :func:`derive_dependent` must equal bit for bit."""
    idx = ("p_x", "p_y", "p_xy").index(dependent)
    p = [fixed.get(n, 0.0) for n in ("p_x", "p_y", "p_xy")]
    j, k = (n for n in range(3) if n != idx)
    cap = math.inf
    with np.errstate(all="ignore"):
        for row in cons.rows:
            c = row.coeffs[idx]
            if c <= 0.0 or math.isinf(row.bound):
                continue
            residual = row.bound - (0.0 + row.coeffs[j] * p[j] + row.coeffs[k] * p[k])
            cap = np.where(residual / c < cap, residual / c, cap)
    cap = np.where(cap < 1.0, cap, 1.0)
    return np.where(cap > 0.0, cap, 0.0)


_COMPONENT = st.one_of(
    st.floats(-1.0, 2.0), st.floats(0.0, math.inf), st.sampled_from([0.0, -0.0, 5e-324, 1e308])
)


@settings(max_examples=300, deadline=None)
@example(  # a budget of -0.0 leaves a cap of -0.0, which prints as -0 unclamped
    task=Task.T1, centralized=False, alpha=2.0, e1=-0.0, e2=0.0, dependent="p_xy",
    swept=[0.0], other=None,
)
@given(
    task=st.sampled_from(list(Task)), centralized=st.booleans(),
    alpha=st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, 5e-324, 1e300])),
    e1=st.one_of(st.floats(0.0, 8.0), st.sampled_from([-0.0, math.inf, 5e-324, 1e300])),
    e2=st.one_of(st.floats(0.0, 8.0), st.sampled_from([-0.0, math.inf])),
    dependent=st.sampled_from(["p_x", "p_y", "p_xy"]),
    swept=st.lists(_COMPONENT, min_size=1, max_size=6), other=st.one_of(st.none(), _COMPONENT),
)
def test_derive_dependent_equals_the_row_loop(task, centralized, alpha, e1, e2, dependent,
                                             swept, other):
    setting = Setting.CENTRALIZED if centralized else Setting.DECENTRALIZED
    scenario = Scenario(task, setting, ResourceBudget(alpha, e1, e2 if centralized else None))
    first, second = (n for n in ("p_x", "p_y", "p_xy") if n != dependent)
    fixed = {first: np.array(swept)} if other is None else {first: np.array(swept), second: other}
    got = derive_dependent(scenario, fixed, dependent)
    want = _derive_by_rows(constraints_for(scenario), fixed, dependent)
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())  # -0.0 reads 0.0


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


@pytest.mark.parametrize("target, crb", [("mu-x", "1.3368984"), ("mu-y", "2.94117647e-311")])
def test_bounds_t3_row_at_a_subnormal_variance(target, crb, capsys):
    # the mu_x bound does not depend on var_y: 1.3368984 as at var_y = 1
    code = run_cli(
        "bounds", "--task", "t3", "--setting", "decentralized", "--alpha", "0",
        "--e1", "1", "--rho", "0.5", "--var-y", "2.2e-311", "--target", target,
        "--sweep", "p_x", "--start", "0.3", "--stop", "0.3", "--step", "0.1",
        "--p-y", "0.3",
    )
    assert code == 0
    assert capsys.readouterr().out == f"sweep_var,value,crb,feasible\np_x,0.3,{crb},true\n"


@pytest.mark.parametrize(
    "stop, step, last", [("1e-13", "3.5e-14", "7e-14"), ("1", "0.35", "0.7")], ids=["tiny", "unit"]
)
def test_bounds_sweep_ends_at_stop_at_every_scale(stop, step, last, capsys):
    # start + 3 step lies past stop by 5 % of it at both scales
    code = run_cli(
        "bounds", "--task", "t1", "--setting", "decentralized", "--alpha", "2",
        "--e1", "2", "--rho", "0.5", "--p-y", "0.5", "--p-xy", "0.5",
        "--sweep", "rho", "--start", "0", "--stop", stop, "--step", step,
    )
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert [row.split(",")[1] for row in rows] == ["0", step, last]


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
    )
    assert captured.err == "error: master_seed must be >= 0, got -1\n"
    assert not out.exists()


def test_simulate_slots_past_the_limit_exit_2(capsys):
    # 10**15 slots once ended in a failed allocation and a traceback
    assert run_cli(*SIM_ARGS, "--slots", str(10**15)) == 2  # the last --slots counts
    assert capsys.readouterr().err == "error: slots must be <= 10000000, got 1000000000000000\n"


def test_simulate_reps_past_the_limit_exit_2(capsys):
    # 10**15 one-slot replications once ran until killed
    assert run_cli(*SIM_ARGS, "--slots", "1", "--reps", str(10**15)) == 2
    assert capsys.readouterr().err == (
        "error: replications must be <= 10000000, got 1000000000000000\n"
    )


@pytest.mark.parametrize("flags, message", [
    # delta1 centres at the X mean, which t3 estimates
    ("--task t3 --setting decentralized --alpha 2 --e1 5 --rho 0.5 --p-y 0.5 --p-xy 0.5 "
     "--target mu-y --estimator delta1 --slots 1000 --reps 2000 --seed 3",
     "error: estimator delta1 takes the X mean as known, which task t3 estimates: "
     "use sample_mean\n"),
    # t1 bounds the Y mean: an X target would print the X mean's variance
    # against the Y mean's bound
    ("--task t1 --setting decentralized --alpha 2 --e1 2 --rho 0.5 --p-y 0.5 --p-xy 0.5 "
     "--target mu-x --estimator sample_mean --var-x 0.1",
     "error: task t1 bounds the Y mean only: target mu_x needs task t3\n"),
])
def test_simulate_estimator_of_another_question_exits_2(flags, message, capsys):
    assert run_cli("simulate", *flags.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_simulate_planner_policy_passes_audit(capsys):
    # no policy flags: the planner's policy is used and must audit clean
    code = run_cli(*SIM_ARGS)
    out = capsys.readouterr().out
    assert code == 0
    assert "policy from planner" in out
    audit_lines = [l for l in out.splitlines() if l.startswith("audit ")]
    assert audit_lines and all(l.endswith("PASS") for l in audit_lines)


def test_simulate_budget_saturating_policy_passes_audit(capsys):
    # every slot is joint and costs each sensor its row coefficient
    # 1 + 2 alpha, which rounds above e1 = 1.2 within the feasibility rule:
    # run accepts the policy, so its audit must too
    code = run_cli(
        "simulate", "--task", "t3", "--setting", "decentralized", "--alpha", "0.1",
        "--e1", "1.2", "--rho", "0.5", "--p-xy", "1", "--seed", "1", "--reps", "50",
        "--slots", "100",
    )
    out = capsys.readouterr().out
    assert code == 0
    audit_lines = [l for l in out.splitlines() if l.startswith("audit ")]
    assert len(audit_lines) == 2 and all(l.endswith(" PASS") for l in audit_lines), audit_lines


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


def test_sweep_fig1c_grid_ends_at_its_stop(tmp_path):
    # alpha + 1.5 = 1.88 is 37.6 steps of 0.05: the grid rounds to 38 steps
    # and drops e1 = 1.9, which lies past the stop
    out = tmp_path / "fig1c.csv"
    assert run_cli("sweep", "--figure", "fig1c", "--alpha", "0.38", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert {r["e1"] for r in rows if float(r["e1"]) > 1.8} == {"1.85"}
    assert len(rows) == 3 * 38


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


@pytest.mark.parametrize(
    "figure, column, zero_rows",
    [("fig1c", "e1", 3), ("fig2b", "e2", 2), ("fig2c", "e2", 2)],
)
def test_sweep_presets_keep_zero_budget_rows(figure, column, zero_rows, tmp_path):
    # presets call the planners directly, so zero budgets stay rows, not errors
    out = tmp_path / "fig.csv"
    assert run_cli("sweep", "--figure", figure, "--out", str(out)) == 0
    _, rows = read_csv(out)
    zero = [row for row in rows if float(row[column]) == 0.0]
    assert len(zero) == zero_rows
    assert all(float(row["p_xy"]) == 0.0 for row in zero)
    assert all(row["crb"] == "inf" for row in zero if "crb" in row)  # fig1c has none


@pytest.mark.parametrize("budget", ["--e1", "--e2"])
def test_sweep_fig4b_zero_budget_rows_read_inf(budget, tmp_path):
    # the t3 preset keeps budgets without information as rows, as fig2b does
    out = tmp_path / "fig4b.csv"
    assert run_cli("sweep", "--figure", "fig4b", budget, "0", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 96
    assert all(row["crb"] == "inf" for row in rows)


def test_sweep_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sweep", "--figure", "fig2a", "--out", str(a)) == 0
    assert run_cli("sweep", "--figure", "fig2a", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# --- inputs a command would answer for another question, or ignore ---

_T1 = "--task t1 --setting decentralized --alpha 2 --e1 2 --rho 0.5"
_T2, _T3 = _T1.replace("t1", "t2"), _T1.replace("t1", "t3")
_X_OF_T1 = "error: task {} bounds the Y mean only: target mu_x needs task t3\n"
_DECENTRALIZED_E2 = "error: decentralized scenarios must not set e2\n"
_SWEEP_SETS = "error: a {0} sweep sets {0} and {1}: give neither flag\n"
_UNREAD = "error: sweep --figure {} does not read --{}\n"
_REFUSED = {
    "plan_t1_target_mu_x": (f"plan {_T1} --target mu-x", _X_OF_T1.format("t1")),
    "plan_t2_target_mu_x": (f"plan {_T2} --target mu-x", _X_OF_T1.format("t2")),
    "bounds_t1_target_mu_x": (f"bounds {_T1} --target mu-x --sweep p_y", _X_OF_T1.format("t1")),
    "bounds_t2_target_mu_x": (f"bounds {_T2} --target mu-x --sweep rho", _X_OF_T1.format("t2")),
    "plan_decentralized_e2": (f"plan {_T1} --e2 0", _DECENTRALIZED_E2),
    "bounds_decentralized_e2": (f"bounds {_T1} --e2 1 --sweep e1", _DECENTRALIZED_E2),
    "simulate_decentralized_e2": (f"simulate {_T1} --e2 1 --reps 10 --seed 1", _DECENTRALIZED_E2),
    "bounds_decentralized_e2_sweep": (f"bounds {_T1} --sweep e2", _DECENTRALIZED_E2),
    "p_y_sweep_p_y": (f"bounds {_T1} --sweep p_y --p-y 0.9", _SWEEP_SETS.format("p_y", "p_xy")),
    "p_y_sweep_p_xy": (f"bounds {_T1} --sweep p_y --p-xy 0.9", _SWEEP_SETS.format("p_y", "p_xy")),
    "p_x_sweep_p_xy": (f"bounds {_T3} --sweep p_x --p-xy 0.3", _SWEEP_SETS.format("p_x", "p_xy")),
    "p_xy_sweep_p_y": (f"bounds {_T1} --sweep p_xy --p-y 0.3", _SWEEP_SETS.format("p_xy", "p_y")),
    "fig1a_alpha": ("sweep --figure fig1a --alpha 3", _UNREAD.format("fig1a", "alpha")),
    "fig1c_e1": ("sweep --figure fig1c --e1 2", _UNREAD.format("fig1c", "e1")),
    "fig4a_rho": ("sweep --figure fig4a --rho 0.3", _UNREAD.format("fig4a", "rho")),
    "fig2b_rho": ("sweep --figure fig2b --rho 0.5", _UNREAD.format("fig2b", "rho")),
    "fig4c_e2": ("sweep --figure fig4c --e2 1", _UNREAD.format("fig4c", "e2")),
    "fig1a_var_x": ("sweep --figure fig1a --var-x 9", _UNREAD.format("fig1a", "var-x")),
    "fig1c_var_y": ("sweep --figure fig1c --var-y 1", _UNREAD.format("fig1c", "var-y")),
}


@pytest.mark.parametrize("argv, message", list(_REFUSED.values()), ids=list(_REFUSED))
def test_refused_input_exits_2_with_one_line(argv, message):
    assert _main_output(argv.split()) == (2, "", message)


@pytest.mark.parametrize("argv", ["fig1b --e1", "fig4b --e1", "fig4b --e2"])
def test_sweep_negative_zero_budget_reads_as_zero(argv):
    # a budget of -0 is the budget 0, in every cell the preset echoes
    code, out, err = _main_output(["sweep", "--figure", *argv.split(), "-0"])
    assert (code, err) == (0, "") and "-0" not in out
    assert _main_output(["sweep", "--figure", *argv.split(), "0"]) == (0, out, "")


_P = "--p-x 0.2 --p-y 0.3 --p-xy 0.2"
_SWEPT_FLAG = {
    "e1": (f"bounds {_T1.replace('--e1 2 ', '')} {_P} --sweep e1 --stop 2 --step 0.5", "--e1 7"),
    "e2": ("bounds --task t1 --setting centralized --alpha 2 --e1 2 --rho 0.5 --p-y 0.5 "
           "--sweep e2 --stop 1 --step 0.25", "--e2 3"),
    "rho": ("bounds --task t3 --setting centralized --alpha 2 --e1 2 --e2 1 "
            f"{_P} --sweep rho --start -0.9 --stop 0.9 --step 0.3", "--rho 0.3"),
}


@pytest.mark.parametrize("argv, flag", list(_SWEPT_FLAG.values()), ids=list(_SWEPT_FLAG))
def test_bounds_sweep_needs_no_flag_for_its_variable(argv, flag):
    # the sweep sets its variable: without the flag the sweep runs, and a
    # given flag is checked and then overridden, so the bytes are the same
    assert flag.split()[0] not in argv.split()
    code, out, err = _main_output(argv.split())
    assert (code, err) == (0, "") and len(out.splitlines()) >= 5
    assert _main_output([*argv.split(), *flag.split()]) == (0, out, "")


@pytest.mark.parametrize("values, message", [
    ({"task": "t1"}, "error: unknown config key: 'task'\n"),
    ({"alpha": 3}, _UNREAD.format("fig1a", "alpha")),
    ({"var_y": 2}, _UNREAD.format("fig1a", "var-y")),
], ids=["task_key", "unread_alpha", "unread_var_y"])
def test_sweep_config_of_a_flag_the_preset_fixes_exits_2(values, message, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    assert _main_output(["sweep", "--figure", "fig1a", "--config", str(cfg)]) == (2, "", message)


@pytest.mark.parametrize(
    "figure", ["fig1b", "fig2a", "fig2b", "fig2c", "fig3", "fig4a", "fig4b", "fig4c"]
)
def test_sweep_presets_of_a_bound_read_the_variances(figure):
    # the bound scales with the target's variance, so the flags move bytes
    _, default, _ = _main_output(["sweep", "--figure", figure])
    code, out, err = _main_output(["sweep", "--figure", figure, "--var-x", "2", "--var-y", "4"])
    assert (code, err) == (0, "") and out != default


@pytest.mark.parametrize("argv", [
    f"plan {_T1}", f"bounds {_T1} --sweep p_y", f"simulate {_T1} --slots 10 --reps 10 --seed 1",
])
def test_t1_commands_take_the_variances(argv):
    # every t1/t2 command takes both variance flags, read or not
    code, out, err = _main_output([*argv.split(), "--var-x", "2", "--var-y", "4"])
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("flag", ["--task t1", "--setting decentralized", "--target mu-y"])
def test_sweep_takes_no_scenario_flag(flag):
    code, out, err = _main_output(["sweep", "--figure", "fig4b", *flag.split()])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {flag}\n")  # argparse's usage first


_T1_FLAGS = ["--task", "t1", "--setting", "decentralized", "--alpha", "2", "--e1", "2",
             "--rho", "0.5"]
_MEAN_COMMANDS = {
    "plan": ["plan", *_T1_FLAGS],
    "bounds": ["bounds", *_T1_FLAGS, "--sweep", "p_y"],
    "sweep": ["sweep", "--figure", "fig1a"],
}


@pytest.mark.parametrize("command", sorted(_MEAN_COMMANDS))
@pytest.mark.parametrize("flag", ["--mu-x", "--mu-y"])
def test_only_simulate_takes_the_means(command, flag, tmp_path):
    # no bound depends on the means: plan, bounds and sweep refuse them as
    # flags (argparse) and as config keys
    argv = _MEAN_COMMANDS[command]
    code, out, err = _main_output([*argv, flag, "1"])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {flag} 1\n")  # argparse's usage first
    cfg = tmp_path / "run.json"
    key = flag[2:].replace("-", "_")
    cfg.write_text(json.dumps({key: 1}))
    assert _main_output([*argv, "--config", str(cfg)]) == (
        2, "", f"error: unknown config key: {key!r}\n"
    )


def test_simulate_reads_the_means(tmp_path):
    # the simulated Y mean follows --mu-y, from a flag or a config key
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mu_x": 3, "mu_y": 5}))
    for extra in (["--mu-x", "3", "--mu-y", "5"], ["--config", str(cfg)]):
        code, out, _ = _main_output([*SIM_ARGS, *extra])
        assert code == 0
        analytic, empirical = next(
            line.split()[1:] for line in out.splitlines() if line.startswith("mean ")
        )
        assert float(analytic) == 5.0 and abs(float(empirical) - 5.0) < 0.05


# --- one parser per process ---


def _main_output(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_MODEL = ["--task", "t1", "--setting", "decentralized", "--alpha", "2", "--e1", "2"]
_RHO_SWEEP = ["--rho", "0.5", "--sweep", "rho", "--start", "0", "--stop", "0.9", "--step", "0.3"]


@pytest.mark.parametrize(
    "first, second",
    [
        # the config file's rho must not fill the next call's missing --rho
        (["plan", "--config", "{config}"], ["plan", *_MODEL]),
        (["bounds", *_MODEL, "--p-x", "0.3", "--p-y", "0.2", *_RHO_SWEEP],
         ["bounds", *_MODEL, "--p-y", "0.2", *_RHO_SWEEP]),
        (["bounds", *_MODEL, "--sweep", "bogus"], ["plan", *_MODEL, "--rho", "0.5"]),
    ],
    ids=["config_then_none", "p_x_then_none", "exit_2_then_good"],
)
def test_reused_parser_leaks_no_state(first, second, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rho": 0.9, "var_y": 4.0, "format": "jsonl"}))
    first = [arg.format(config=config) for arg in first]
    build_parser.cache_clear()
    fresh = _main_output(second)
    assert _main_output(first)[0] in (0, 2)
    assert build_parser() is build_parser()  # the call reused the parser
    assert _main_output(second) == fresh


# --- config file ---


def test_config_file_supplies_model(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "task": "t1", "setting": "decentralized",
        "alpha": 2.0, "e1": 2.0, "var_x": 1.0, "var_y": 1.0, "rho": 0.5,
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


_PLAN_T1 = {"task": "t1", "setting": "decentralized", "e1": 2, "rho": 0.5}


@pytest.mark.parametrize(
    "command, values, message",
    [
        (["simulate", *_MODEL, "--rho", "0.5"], {"seed": 7.9, "slots": 20, "reps": 40},
         "error: argument --seed: invalid int value: '7.9'"),
        (["plan"], {"alpha": True, **_PLAN_T1}, "error: config key 'alpha': true is not"),
        (["plan", *_MODEL, "--rho", "0.5", "--out", "{out}"], {"format": "xml"},
         "error: argument --format: invalid choice: 'xml'"),
        (["plan"], {"alpha": 10**400, **_PLAN_T1}, "error: alpha must be finite and >= 0, got inf"),
        (["plan", *_MODEL], {"rho": None}, "error: config key 'rho': null is not"),
        (["plan", *_MODEL], {"rho": [0.5]}, "error: config key 'rho': [0.5] is not"),
    ],
    ids=["float_seed", "bool_alpha", "unknown_format", "huge_int_alpha", "null", "array"],
)
def test_config_value_checked_as_its_flag_exits_2(command, values, message, tmp_path):
    cfg, out = tmp_path / "run.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps(values))
    argv = [arg.format(out=out) for arg in command] + ["--config", str(cfg)]
    code, stdout, stderr = _main_output(argv)
    assert (code, stdout) == (2, ""), stderr
    assert "Traceback" not in stderr
    assert message in stderr.splitlines()[-1]  # argparse prints its usage first
    assert not out.exists()


def test_config_key_of_another_command_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**_PLAN_T1, "alpha": 2, "seed": 1}))
    assert run_cli("plan", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == "error: unknown config key: 'seed'\n"


def test_flag_overrides_config_value_of_a_defaulted_flag(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"var_y": 4}))
    flags = ["plan", *_MODEL, "--rho", "0.5"]
    assert _main_output([*flags, "--config", str(cfg), "--var-y", "1"]) == _main_output(flags)
    assert _main_output([*flags, "--config", str(cfg)]) == _main_output([*flags, "--var-y", "4"])


def test_config_holding_the_flags_prints_their_output(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "task": "t1", "setting": "decentralized", "alpha": 2, "e1": 2, "rho": 0.5,
        "slots": 300, "reps": 300, "seed": 99,
        "format": "jsonl", "out": str(tmp_path / "cfg.jsonl"),
    }))
    flags = [*SIM_ARGS, "--format", "jsonl", "--out", str(tmp_path / "flags.jsonl")]
    assert _main_output(["simulate", "--config", str(cfg)]) == _main_output(flags)
    assert (tmp_path / "cfg.jsonl").read_bytes() == (tmp_path / "flags.jsonl").read_bytes()


def test_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "crbplan.cli", "plan", "--task", "t1",
         "--setting", "decentralized", "--alpha", "2", "--e1", "2", "--rho", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "p_y=0.5" in proc.stdout


# --- table writer ---


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _reference_table(table, fmt):
    """``table`` written one row dict and one cell at a time: the oracle."""
    header = list(table)
    rows = [dict(zip(header, row)) for row in zip(*table.values())]
    if fmt == "jsonl":
        lines = [json.dumps({k: row[k] for k in header}) for row in rows]
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_reference_cell(row[k]) for k in header) for row in rows)
    return "\n".join(lines) + "\n"


_FLOATS = st.one_of(
    st.floats(),  # every double, nan, infinities and subnormals among them
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1e300, -1e-300]),
)
_CELLS = {
    "float": _FLOATS,
    "bool": st.booleans(),
    "none": st.none(),
    "float_or_none": st.one_of(_FLOATS, st.none()),
    "str": st.text(),
    "int": st.integers(),
    "mixed": st.one_of(_FLOATS, st.none(), st.booleans(), st.integers(), st.text()),
}


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 50))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=6))
    names = draw(st.lists(st.text(min_size=1), min_size=len(kinds), max_size=len(kinds),
                          unique=True))
    return {name: draw(st.lists(_CELLS[kind], min_size=rows, max_size=rows))
            for name, kind in zip(names, kinds)}


@settings(max_examples=200, deadline=None)
@example(table={"a": [], "b": []}, fmt="csv")  # a header and no rows
@example(table={"a": [], "b": []}, fmt="jsonl")
@given(table=_tables(), fmt=st.sampled_from(["csv", "jsonl"]))
def test_table_writer_matches_the_per_cell_reference(table, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table(table, fmt, None)
    assert out.getvalue().encode() == _reference_table(table, fmt).encode()


# --- fuzzing ---


def _number(low, high):
    extremes = st.sampled_from([0.0, -1.0, math.inf, math.nan, 1e-300, 1e300])
    return st.one_of(st.floats(low, high), extremes).map(repr)


# the full positive normal range, and the O(1) values the figures use
_NORMAL = st.floats(sys.float_info.min, sys.float_info.max)
_VARIANCE = st.one_of(
    st.floats(1e-6, 1e6), _NORMAL, st.sampled_from([0.0, -1.0, math.inf, math.nan])
).map(repr)


@st.composite
def _plan_or_bounds_argv(draw):
    command = draw(st.sampled_from(["plan", "bounds"]))
    argv = [command]
    for flag, values in [
        ("--task", st.sampled_from(["t1", "t2", "t3"])),
        ("--setting", st.sampled_from(["decentralized", "centralized"])),
        ("--alpha", st.one_of(_number(0.0, 5.0), _NORMAL.map(repr))),
        ("--e1", _number(0.0, 8.0)),
        ("--e2", _number(0.0, 8.0)),
        ("--rho", _number(-1.0, 1.0)),
        ("--var-x", _VARIANCE),
        ("--var-y", _VARIANCE),
        ("--target", st.sampled_from(["mu-x", "mu-y"])),
    ]:
        if draw(st.integers(0, 9)):  # each flag is left out one time in ten
            argv += [flag, draw(values)]
    if command == "bounds":
        steps = st.one_of(
            st.floats(0.02, 1.0), st.sampled_from([0.0, -0.1, math.inf, math.nan, 1e-300])
        )
        argv += [
            "--sweep", draw(st.sampled_from(["p_y", "p_x", "p_xy", "rho", "e1", "e2"])),
            "--start", draw(_number(-1.0, 2.0)),
            "--stop", draw(_number(-1.0, 3.0)),
            "--step", repr(draw(steps)),
        ]
        for flag in ("--p-x", "--p-y", "--p-xy"):
            if draw(st.booleans()):
                argv += [flag, draw(_number(0.0, 1.0))]
    return argv


@settings(max_examples=150, deadline=None)
@example(  # a subnormal alpha once made np.linalg.det warn in the vertex enumerator
    argv="plan --task t1 --setting centralized --alpha 5e-324 --e1 0 --e2 0 --rho 0".split()
)
@given(argv=_plan_or_bounds_argv())
def test_fuzz_plan_and_bounds_exit_0_2_or_3_without_traceback_or_warning(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] == "plan":
        assert "crb=inf" not in out.getvalue() and "crb=nan" not in out.getvalue()
    elif code == 3 or (code == 2 and err.getvalue().startswith("error:")):
        assert err.getvalue().count("\n") == 1, err.getvalue()
