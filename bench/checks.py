"""Output checks for every benchmark operation.

Each check returns ``(status, reason)`` with ``status`` one of

* ``ok``     -- the output passed every check;
* ``failed`` -- the operation gave no usable answer: an exception (a
  documented one too, when an independent check shows it was unwarranted),
  a non-zero exit code, or a plan whose bound is ``inf``;
* ``wrong``  -- the operation returned an answer that an independent check
  contradicts (an infeasible policy, a bound that does not match the policy,
  a truncated table, a statistic too far from theory).

Both ``failed`` and ``wrong`` count toward a run's ``failed`` total and its
``fail_ratio``; only ``wrong`` makes a run report ``correct: false``.

The checks take the ``crbplan`` module as an argument, use only its public
API, and use the fixed tolerances below.
"""

from __future__ import annotations

import math

OK, FAILED, WRONG = "ok", "failed", "wrong"

#: Statistical checks accept deviations up to this many standard errors.  At
#: 6 SE a correct program fails a mean or audit check with probability
#: about 2e-9, and a variance-ratio check at 100 replications with about
#: 5e-7.
K_SIGMA = 6.0
#: A plan's reported bound must equal the bound recomputed at its policy.
OBJECTIVE_RTOL = 1e-9
#: How much worse than the best random feasible policy a plan may be: exact
#: for the vertex solvers, the grid resolution (1e-5 in p) for t3.
LINEAR_PLAN_RTOL = 1e-9
T3_PLAN_RTOL = 1e-4
#: Absolute slack the resource audit may lose to floating-point rounding.
AUDIT_ATOL = 1e-9

STRING_COLUMNS = frozenset({"sweep_var", "regime", "method", "generator"})
BOOL_COLUMNS = frozenset({"feasible", "tie"})
NULLABLE_COLUMNS = frozenset({"e2", "analytic_estimator_variance"})


def bound_at(cp, scenario, model, policy) -> float:
    """The scenario's target bound at ``policy``, ``inf`` where none exists."""
    try:
        if scenario.task is cp.Task.T3:
            return cp.crb_t3(policy, model, scenario.target)
        return cp.crb_t1(policy, model)
    except (cp.DegeneratePolicy, cp.SingularMatrix):
        return math.inf


def random_feasible_policies(cp, scenario, directions):
    """Scale each direction in the probability simplex onto the polytope boundary.

    A direction is a non-negative ``(p_x, p_y, p_xy)`` with sum at most 1.
    Coordinates that a zero-bound row with non-negative coefficients pins to
    zero are dropped first; the rest is scaled by the largest factor that
    keeps every finite row satisfied.  The zero policy is always feasible,
    so every direction yields a feasible policy.
    """
    rows = cp.constraints_for(scenario).rows
    pinned = set()
    for row in rows:
        if row.bound == 0.0 and min(row.coeffs) >= 0.0:
            pinned.update(i for i, c in enumerate(row.coeffs) if c > 0.0)
    policies = []
    for direction in directions:
        d = [0.0 if i in pinned else float(v) for i, v in enumerate(direction)]
        scale = 1.0
        for row in rows:
            load = sum(c * v for c, v in zip(row.coeffs, d))
            if load > 0.0 and math.isfinite(row.bound):
                scale = min(scale, row.bound / load)
        policies.append(cp.SamplingPolicy.clamped(*(scale * v for v in d)))
    return policies


def check_plan(cp, scenario, model, result, best_random: float):
    """Check one ``plan`` answer against the constraints and a random batch.

    ``best_random`` is the smallest bound over a seeded batch of random
    feasible policies.  ``SingularEverywhere`` and ``InfeasibleScenario``
    are documented answers and pass, unless the batch holds a policy with a
    finite bound, which contradicts them.
    """
    if isinstance(result, (cp.SingularEverywhere, cp.InfeasibleScenario)):
        if math.isfinite(best_random):
            return FAILED, (
                f"raised {type(result).__name__}, but a random feasible policy "
                f"has crb={best_random:.9g}"
            )
        return OK, ""
    if isinstance(result, BaseException):
        return FAILED, f"raised {type(result).__name__}: {result}"
    crb = result.objective_value
    if not math.isfinite(crb):
        return FAILED, f"returned crb={crb} instead of raising SingularEverywhere"
    violated = cp.constraints_for(scenario).violations(result.policy)
    if violated:
        return WRONG, f"policy {result.policy.as_tuple()} violates {violated}"
    expected = bound_at(cp, scenario, model, result.policy)
    if not math.isclose(crb, expected, rel_tol=OBJECTIVE_RTOL):
        return WRONG, f"reported crb={crb:.12g}, bound at its policy is {expected:.12g}"
    rtol = T3_PLAN_RTOL if scenario.task is cp.Task.T3 else LINEAR_PLAN_RTOL
    if crb > best_random * (1.0 + rtol):
        return WRONG, (
            f"crb={crb:.12g} is worse than a random feasible policy's {best_random:.12g}"
        )
    return OK, ""


def _cell_parses(column: str, cell: str) -> bool:
    if cell == "":
        return column in NULLABLE_COLUMNS
    if column in STRING_COLUMNS:
        return True
    if column in BOOL_COLUMNS:
        return cell in ("true", "false")
    try:
        float(cell)
    except ValueError:
        return False
    return True


def check_table(exit_code, text, header, n_rows: int):
    """Check one CLI command: exit code 0 and a complete CSV table.

    ``text`` is the content of the command's ``--out`` file (``None`` when
    the file is missing).  The table must end with a newline, carry exactly
    ``header`` and ``n_rows`` rows, and every cell must parse as its column's
    type.
    """
    if exit_code != 0:
        return FAILED, f"exit code {exit_code}"
    if text is None:
        return WRONG, "exit code 0 but no output file"
    if not text.endswith("\n"):
        return WRONG, "output does not end with a newline"
    lines = text[:-1].split("\n")
    if lines[0].split(",") != list(header):
        return WRONG, f"header {lines[0]!r}, expected {','.join(header)!r}"
    if len(lines) - 1 != n_rows:
        return WRONG, f"{len(lines) - 1} rows, expected {n_rows}"
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            return WRONG, f"row {number} has {len(cells)} cells, expected {len(header)}"
        for column, cell in zip(header, cells):
            if not _cell_parses(column, cell):
                return WRONG, f"row {number} column {column}: cannot parse {cell!r}"
    return OK, ""


def check_simulation(result, true_mean: float, variance_per_slot: float, slots: int):
    """Check one ``run`` + ``audit_resources`` answer against theory.

    ``result`` is ``(report, audit)``.  The mean estimate must lie within
    ``K_SIGMA`` standard errors of ``true_mean``, the ratio of empirical to
    expected per-slot variance within ``K_SIGMA * sqrt(2 / (R - 1))`` of 1,
    and every actor's budget slack above ``-K_SIGMA`` audit standard errors.
    """
    if isinstance(result, BaseException):
        return FAILED, f"raised {type(result).__name__}: {result}"
    report, audit = result
    used = report.replications_used
    if used < 2:
        return FAILED, f"only {used} replication(s) usable"
    stderr = math.sqrt(variance_per_slot / (slots * used))
    z = (report.mean_estimate - true_mean) / stderr
    if not abs(z) <= K_SIGMA:
        return WRONG, f"mean {report.mean_estimate:.9g} is {z:.2f} SE from {true_mean:.9g}"
    ratio = report.empirical_variance_per_slot / variance_per_slot
    if not abs(ratio - 1.0) <= K_SIGMA * math.sqrt(2.0 / (used - 1)):
        return WRONG, f"variance ratio {ratio:.4f} over {used} replications"
    for check in audit.checks:
        if check.slack < -K_SIGMA * check.stderr - AUDIT_ATOL:
            return WRONG, (
                f"audit {check.actor}: slack {check.slack:.9g} is below "
                f"-{K_SIGMA:g} x stderr {check.stderr:.9g}"
            )
    return OK, ""
