"""Known defects of crbplan, probed once per run outside the measured ops.

A benchmark op must not fail, so the workloads draw only inputs that the
package answers correctly (``workloads.py`` says which inputs it leaves out
and why).  The inputs left out still matter: each defect below is one fixed
input on which the package gives a wrong answer or none.  Every run replays
the probes of its workload once, after its measurement and with tracing
off, prints whether each defect is still present and records it in the run
record.  The probes count toward neither ``attempted`` nor ``failed``.

A change that fixes a defect shows as ``fixed``; the workload may then draw
the inputs the defect kept out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from checks import OK
from workloads import Op, _build, _Config, _plan_op, _run_op

_MODEL = {"mu_x": 0.3, "mu_y": -0.2, "var_x": 1.0, "var_y": 1.5, "rho": 0.5}


def _directions(count: int = 32) -> list[list[float]]:
    rng = random.Random("defects")
    directions = []
    for _ in range(count):
        w = [rng.expovariate(1.0) for _ in range(4)]
        directions.append([v / sum(w) for v in w[:3]])
    return directions


def _plan(group, task, setting, target, alpha, e1, e2=None, **model) -> Callable[[object], Op]:
    spec = {
        "group": group, "task": task, "setting": setting, "target": target,
        "alpha": alpha, "e1": e1, "e2": e2, "model": {**_MODEL, **model},
        "directions": _directions(),
    }
    return lambda cp: _plan_op(cp, spec)


def _audit(alpha: float, e1: float, master_seed: int) -> Callable[[object], Op]:
    spec = {"task": "t1", "setting": "decentralized", "target": None,
            "alpha": alpha, "e1": e1, "e2": None, "model": dict(_MODEL)}

    def make(cp):
        scenario, model = _build(cp, spec)
        policy = cp.plan(scenario, model).policy
        return _run_op(cp, _Config(spec, "delta2", scenario, model, policy), 100, 100, master_seed)

    return make


@dataclass(frozen=True)
class Defect:
    name: str
    #: The workload whose runs probe this defect.
    workload: str
    summary: str
    make: Callable[[object], Op]


KNOWN_DEFECTS = (
    Defect(
        "t1_zero_budget", "plan_mix",
        "t1/t2 with e1 = 0: plan returns the zero policy with crb=inf "
        "instead of raising SingularEverywhere",
        _plan("closed_form", "t1", "decentralized", None, 2.0, 0.0),
    ),
    Defect(
        "t2_zero_dc_budget", "plan_mix",
        "centralized t1/t2 with e2 = 0: plan returns crb=inf instead of "
        "raising SingularEverywhere",
        _plan("vertex", "t2", "centralized", None, 2.0, 1.0, 0.0),
    ),
    Defect(
        "t3_budget_below_grid", "plan_mix",
        "t3 with a budget thinner than the 0.01 coarse grid: plan_t3 raises "
        "SingularEverywhere although feasible policies have finite bounds",
        _plan("t3", "t3", "centralized", "mu_x", 2.0, 0.02, 5.0),
    ),
    Defect(
        "t3_slanted_face", "plan_mix",
        "decentralized t3 whose optimum lies on a binding sensor row of "
        "slope 2 alpha + 1: the grid refinement stalls short of the optimum, "
        "beyond its 1e-5 resolution",
        _plan("t3", "t3", "decentralized", "mu_y", 0.58, 0.11, rho=-0.82),
    ),
    Defect(
        "audit_zero_stderr", "mc_short",
        "a policy that draws one slot kind with probability 5e-6: when that "
        "kind never occurs, audit_resources estimates a standard error of 0 "
        "and fails a budget kept in expectation",
        _audit(2.0, 2.99999, 1),
    ),
)


def replay_known_defects(cp, workload: str) -> list[dict]:
    """Replay the known defects of ``workload``; one record per defect."""
    records = []
    for defect in KNOWN_DEFECTS:
        if defect.workload != workload:
            continue
        op = defect.make(cp)
        try:
            outcome = op.call()
        except Exception as exc:  # the op's check classifies it
            outcome = exc
        status, reason = op.check(outcome)
        records.append({
            "name": defect.name, "present": status != OK, "status": status,
            "summary": defect.summary, "input": op.label, "reason": reason,
        })
    return records
