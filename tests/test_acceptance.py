"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from crbplan import (
    Actor,
    EstimatorKind,
    ResourceBudget,
    SamplingPolicy,
    Scenario,
    Setting,
    SimulationConfig,
    Target,
    Task,
    audit_resources,
    collect_replication,
    crb_t1,
    delta1,
    delta2,
    default_estimator,
    empirical_fim_with_stderr,
    fim,
    joint_priority_threshold,
    plan_linear,
    plan_t1_closed_form,
    plan_t3,
    replication_rng,
    run,
    sample_mean_x,
    sample_mean_y,
    validate,
    var_delta1,
)
from crbplan.cli import main as cli_main


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def model(rho, var_x=1.0, var_y=1.0, mu_x=0.0, mu_y=0.0):
    return validate((mu_x, mu_y, var_x, var_y, rho))


def dec(task, alpha, e1, target=None):
    return Scenario(task, Setting.DECENTRALIZED, ResourceBudget(alpha, e1), target)


def cen(task, alpha, e1, e2, target=None):
    return Scenario(task, Setting.CENTRALIZED, ResourceBudget(alpha, e1, e2), target)


# ---------------------------------------------------------------------------
# 1. Threshold reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_threshold_reproduction():
    with criterion("1 threshold reproduction"):
        assert joint_priority_threshold(2, Setting.DECENTRALIZED) == pytest.approx(
            math.sqrt(2 / 3), abs=1e-12
        )
        assert joint_priority_threshold(3, Setting.CENTRALIZED) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-12
        )

        # the planner's strategy switch brackets the critical correlation
        alpha, e1 = 2.0, 2.0
        scenario = dec(Task.T1, alpha, e1)

        def joint_first(rho):
            # below: p_xy = (e1-1)/alpha = 0.5; above: e1/(alpha+1) = 2/3
            return plan_linear(scenario, model(rho)).policy.p_xy > 0.58

        lo, hi = 0.75, 0.9
        assert not joint_first(lo) and joint_first(hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if joint_first(mid):
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - math.sqrt(2 / 3)) <= 1e-6


# ---------------------------------------------------------------------------
# 2. Closed form vs vertex enumeration vs exhaustive grid
# ---------------------------------------------------------------------------


def _agreement_grid():
    for alpha in (0.5, 1.0, 2.0, 4.0):
        for e1 in np.linspace(0.2, alpha + 1.5, 5):
            for rho in np.linspace(0.0, 0.95, 10):
                yield alpha, float(e1), float(rho)


def test_criterion_2_planner_agreement():
    with criterion("2 closed form vs vertex enumeration vs grid"):
        step = 1e-3
        axis = np.arange(0.0, 1.0 + step / 2, step)
        py, pxy = np.meshgrid(axis, axis, indexing="ij")
        simplex_ok = py + pxy <= 1.0 + 1e-12

        count = 0
        for alpha, e1, rho in _agreement_grid():
            count += 1
            m = model(rho)
            closed = plan_t1_closed_form(alpha, e1, m)
            vertex = plan_linear(dec(Task.T1, alpha, e1), m)
            assert closed.objective_value == pytest.approx(
                vertex.objective_value, rel=1e-9
            ), (alpha, e1, rho)
            if not (closed.tie or vertex.tie):
                assert closed.policy.p_y == pytest.approx(vertex.policy.p_y, abs=1e-9)
                assert closed.policy.p_xy == pytest.approx(vertex.policy.p_xy, abs=1e-9)

            # exhaustive grid search at step 1e-3
            boost = 1.0 / (1.0 - rho * rho)
            feasible = simplex_ok & (py + (alpha + 1.0) * pxy <= e1 + 1e-12)
            info = np.where(feasible, py + pxy * boost, -1.0)
            info_grid = float(info.max())
            info_best = fim(Task.T1, closed.policy, m)[0, 0]
            grid_crb = 1.0 / info_grid if info_grid > 0 else math.inf
            if math.isinf(closed.objective_value):
                assert math.isinf(grid_crb)
                continue
            # the exact planner can never lose to the grid
            assert closed.objective_value <= grid_crb + 1e-12
            # and the grid comes within its resolution bound: a feasible grid
            # point sits within one step per coordinate of the true optimum
            slack = step * (1.0 + boost)
            bound = 1.0 / (info_best - slack) - 1.0 / info_best
            assert grid_crb - closed.objective_value <= bound + 1e-12, (alpha, e1, rho)
        assert count == 200


# ---------------------------------------------------------------------------
# 3. Bound attainment of the blended estimator
# ---------------------------------------------------------------------------


def test_criterion_3_delta1_attains_bound():
    with criterion("3 delta1 variance equals the bound at p_y = p_xy = 0.5"):
        policy = SamplingPolicy(0, 0.5, 0.5)
        for rho in np.arange(0.0, 0.95, 0.1):
            m = model(float(rho))
            assert var_delta1(policy, m) == pytest.approx(
                crb_t1(policy, m), rel=1e-12
            )

        scenario = dec(Task.T1, 2.0, 2.0)
        config = SimulationConfig(
            scenario, model(0.5), policy, EstimatorKind.DELTA1,
            slots=10**3, replications=10**4, master_seed=20240817,
        )
        report = run(config)
        assert report.analytic_crb == pytest.approx(6 / 7, rel=1e-12)
        assert report.empirical_variance_per_slot == pytest.approx(6 / 7, rel=0.05)


# ---------------------------------------------------------------------------
# 4. Unbiasedness
# ---------------------------------------------------------------------------


def test_criterion_4_unbiasedness():
    with criterion("4 unbiasedness of all estimators, shifted means included"):
        policy = SamplingPolicy(0, 0.5, 0.5)
        reps, slots = 10**4, 10**3
        for mu_x in (0.0, 5.0):
            for rho in (0.0, 0.5, 0.9):
                m = model(rho, mu_x=mu_x, mu_y=1.0)
                seed = int(1000 * mu_x + 100 * rho) + 5
                # one stream per replication, each opened by its own index;
                # the statistics stacked, replications in columns
                statistics = [collect_replication(m, policy, slots, replication_rng(seed, rep))
                              for rep in range(reps)]
                counts, sums = (np.stack(rows, axis=1) for rows in zip(*statistics))
                estimators = {"delta1": (delta1, m.mu_y), "delta2": (delta2, m.mu_y),
                              "mean_x": (sample_mean_x, m.mu_x), "mean_y": (sample_mean_y, m.mu_y)}
                for name, (estimator, truth) in estimators.items():
                    vals, usable = estimator(counts, sums, m)
                    assert usable.all(), (name, mu_x, rho)
                    se = vals.std(ddof=1) / math.sqrt(len(vals))
                    assert abs(vals.mean() - truth) <= 3 * se, (name, mu_x, rho)


# ---------------------------------------------------------------------------
# 5. Score-oracle agreement with every closed-form information matrix
# ---------------------------------------------------------------------------

_ORACLE_POINTS = [
    # (task, policy, model kwargs)
    (Task.T1, SamplingPolicy(0, 0.5, 0.5), dict(rho=0.5)),          # info 7/6
    (Task.T1, SamplingPolicy(0, 0, 1.0), dict(rho=0.9, var_y=2.0)),
    (Task.T1, SamplingPolicy(0, 1.0, 0), dict(rho=0.3)),
    (Task.T1, SamplingPolicy(0.2, 0.3, 0.3), dict(rho=0.0)),
    (Task.T2, SamplingPolicy(0, 0, 1.0), dict(rho=0.5)),            # diag(4/3, 20/9)
    (Task.T2, SamplingPolicy(0, 0, 1.0), dict(rho=0.0)),
    (Task.T2, SamplingPolicy(0, 0.4, 0.4), dict(rho=0.6)),
    (Task.T2, SamplingPolicy(0, 0.25, 0.5), dict(rho=-0.5)),
    (Task.T3, SamplingPolicy(0, 0, 1.0), dict(rho=0.5)),            # worked matrix
    (Task.T3, SamplingPolicy(0, 0, 1.0), dict(rho=0.0)),
    (Task.T3, SamplingPolicy(0.3, 0.3, 0.2), dict(rho=0.8)),
    (Task.T3, SamplingPolicy(0.2, 0.5, 0.3), dict(rho=-0.4, var_x=2.0, var_y=0.5)),
]


def test_criterion_5_fim_oracle_agreement():
    with criterion("5 Monte Carlo score oracle matches closed forms"):
        assert len(_ORACLE_POINTS) == 12
        for index, (task, policy, kwargs) in enumerate(_ORACLE_POINTS):
            m = model(**kwargs)
            rng = np.random.default_rng(300 + index)
            got, err = empirical_fim_with_stderr(m, policy, task, 10**6, rng)
            expected = fim(task, policy, m)
            for i in range(2):
                for j in range(2):
                    tol = 3.0 * err[i, j] + 1e-12
                    assert abs(got[i, j] - expected[i, j]) <= tol, (index, i, j)

        # the three worked values, also within the 2% spot tolerance
        m = model(0.5)
        got, _ = empirical_fim_with_stderr(
            m, SamplingPolicy(0, 0.5, 0.5), Task.T1, 10**6, np.random.default_rng(41)
        )
        assert got[0, 0] == pytest.approx(7 / 6, rel=0.02)
        got, _ = empirical_fim_with_stderr(
            m, SamplingPolicy(0, 0, 1.0), Task.T2, 10**6, np.random.default_rng(42)
        )
        np.testing.assert_allclose(
            np.diag(got), [4 / 3, 20 / 9], rtol=0.02
        )
        assert abs(got[0, 1]) <= 0.02
        got, _ = empirical_fim_with_stderr(
            m, SamplingPolicy(0, 0, 1.0), Task.T3, 10**6, np.random.default_rng(43)
        )
        np.testing.assert_allclose(
            got, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], atol=0.02
        )


# ---------------------------------------------------------------------------
# 6. Two unknown means: correlation cannot be leveraged
# ---------------------------------------------------------------------------


def test_criterion_6_correlation_independence():
    with criterion("6 unconstrained two-mean bound ignores correlation"):
        for rho in (0.0, 0.3, 0.6, 0.9):
            result = plan_t3(dec(Task.T3, 2.0, math.inf, Target.MU_X), model(rho))
            assert result.objective_value == pytest.approx(1.0, abs=1e-4), rho

        rng = np.random.default_rng(60)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(2, 60))
            a = rng.normal(size=(k, k))
            covariance = a @ a.T + k * np.eye(k)
            samples = rng.normal(size=(n, k)) @ a.T
            # the log-likelihood gradient in the mean vanishes at the sample mean
            gradient = np.linalg.solve(covariance, (samples - samples.mean(axis=0)).sum(0))
            assert np.linalg.norm(gradient) <= 1e-8 * n


# ---------------------------------------------------------------------------
# 7. Constrained-regime qualitative claims
# ---------------------------------------------------------------------------


def test_criterion_7_constrained_regime(tmp_path):
    with criterion("7 constrained centralized two-mean structure"):
        result = plan_t3(cen(Task.T3, 2.0, 2.0, 2.0, Target.MU_X), model(0.8))
        assert result.policy.p_x > 0.0
        assert result.policy.p_y > 0.0
        assert result.policy.p_xy > 0.0

        out = tmp_path / "fig4b.csv"
        assert cli_main(["sweep", "--figure", "fig4b", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        i_rho = header.index("rho")
        i_px = header.index("p_x")
        i_py = header.index("p_y")
        share = [
            float(parts[i_px]) + float(parts[i_py])
            for parts in (line.split(",") for line in lines[1:])
            if 0.5 - 1e-9 <= float(parts[i_rho]) <= 0.95 + 1e-9
        ]
        assert len(share) == 46
        assert all(b >= a - 1e-9 for a, b in zip(share, share[1:]))


# ---------------------------------------------------------------------------
# 8. Resource audits of planner-produced policies
# ---------------------------------------------------------------------------


def test_criterion_8_resource_audit():
    with criterion("8 planner policies audit clean; binding budgets saturate"):
        cases = []  # (scenario, model, policy, saturated actors)

        m = model(0.5)
        sc = dec(Task.T1, 2.0, 2.0)
        cases.append((sc, m, plan_t1_closed_form(2.0, 2.0, m).policy, [Actor.SENSOR_Y]))

        m = model(0.9)
        cases.append((sc, m, plan_t1_closed_form(2.0, 2.0, m).policy,
                      [Actor.SENSOR_X, Actor.SENSOR_Y]))

        m = model(0.9)
        sc = cen(Task.T1, 2.0, 10.0, 1.0)
        cases.append((sc, m, plan_linear(sc, m).policy, [Actor.DATA_CENTER]))

        m = model(0.6)
        sc = dec(Task.T3, 2.0, math.inf, Target.MU_X)
        cases.append((sc, m, plan_t3(sc, m).policy, []))

        m = model(0.8)
        sc = cen(Task.T3, 2.0, 2.0, 2.0, Target.MU_X)
        cases.append((sc, m, plan_t3(sc, m).policy, []))

        for index, (scenario, mm, policy, saturated) in enumerate(cases):
            config = SimulationConfig(
                scenario, mm, policy, default_estimator(scenario, policy),
                slots=2000, replications=500, master_seed=800 + index,
            )
            report = run(config)
            audit = audit_resources(report, scenario)
            assert audit.passed, (index, audit)
            for check in audit.checks:
                assert check.slack >= -3.0 * check.stderr, (index, check)
            for actor in saturated:
                check = next(c for c in audit.checks if c.actor == actor.value)
                assert abs(check.slack) <= 3.0 * check.stderr, (index, check)


# ---------------------------------------------------------------------------
# 9. Determinism of CLI runs
# ---------------------------------------------------------------------------


def test_criterion_9_byte_identical_outputs(tmp_path):
    with criterion("9 repeated runs produce byte-identical files"):
        sim = [
            "simulate", "--task", "t1", "--setting", "decentralized",
            "--alpha", "2", "--e1", "2", "--rho", "0.5",
            "--slots", "400", "--reps", "400", "--seed", "123456789",
        ]
        a, b = tmp_path / "sim_a.csv", tmp_path / "sim_b.csv"
        assert cli_main(sim + ["--out", str(a)]) == 0
        assert cli_main(sim + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        ta, tb = tmp_path / "trace_a.csv", tmp_path / "trace_b.csv"
        assert cli_main(sim + ["--trace", str(ta)]) == 0
        assert cli_main(sim + ["--trace", str(tb)]) == 0
        assert ta.read_bytes() == tb.read_bytes()

        sa, sb = tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"
        assert cli_main(["sweep", "--figure", "fig1c", "--out", str(sa)]) == 0
        assert cli_main(["sweep", "--figure", "fig1c", "--out", str(sb)]) == 0
        assert sa.read_bytes() == sb.read_bytes()

        ja, jb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli_main(sim + ["--out", str(ja), "--format", "jsonl"]) == 0
        assert cli_main(sim + ["--out", str(jb), "--format", "jsonl"]) == 0
        assert ja.read_bytes() == jb.read_bytes()
