"""Span tracing at the package's public function boundaries.

:class:`Tracer` replaces each traced function at every module attribute that
holds it (``crbplan.model.replication_rng`` as well as
``crbplan.simulator.replication_rng`` and ``crbplan.replication_rng``), so
calls made inside the package are seen too.  Spans are kept in memory as
``(name, start_ns, end_ns, parent, units)`` and :meth:`Tracer.uninstall`
puts every original attribute back.

:func:`layer_metrics` turns the spans into the per-layer metrics listed in
``BENCHMARK.json``.  A span's self time is its duration minus the durations
of its direct children; the process is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import gzip
import math
import statistics
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns

from workloads import FIGURES

#: Package modules that can hold a reference to a traced function.
MODULES = (
    "crbplan", "crbplan.model", "crbplan.fisher", "crbplan.strategy",
    "crbplan.estimators", "crbplan.simulator", "crbplan.cli",
)


def _argument(name: str, index: int, default=1):
    def units(args, kwargs, result):
        value = kwargs.get(name, args[index] if len(args) > index else None)
        return default if value is None else value
    return units


def _vertices_found(args, kwargs, result):
    """(vertices returned, row triples tried)."""
    finite = sum(1 for row in args[0].rows if math.isfinite(row.bound))
    return (0 if result is None else len(result), math.comb(finite, 3))


def _replications_used(args, kwargs, result):
    return (0 if result is None else result.replications_used, args[0].replications)


def _figure(args, kwargs, result):
    return args[0].figure


#: (module, function, span name, units(args, kwargs, result) or None).
TRACED = (
    ("crbplan.model", "replication_rng", "model.replication_rng", None),
    ("crbplan.model", "sample_marginal", "model.sample_marginal", _argument("size", 3)),
    ("crbplan.model", "sample_joint", "model.sample_joint", _argument("size", 2)),
    ("crbplan.fisher", "crb_t1", "fisher.crb_t1", None),
    ("crbplan.fisher", "crb_t3", "fisher.crb_t3", None),
    ("crbplan.strategy", "constraints_for", "strategy.constraints_for", None),
    ("crbplan.strategy", "plan", "strategy.plan", None),
    ("crbplan.strategy", "plan_t1_closed_form", "strategy.plan_t1_closed_form", None),
    ("crbplan.strategy", "plan_linear", "strategy.plan_linear", None),
    ("crbplan.strategy", "enumerate_vertices", "strategy.enumerate_vertices", _vertices_found),
    ("crbplan.strategy", "plan_t3", "strategy.plan_t3", None),
    ("crbplan.estimators", "delta1", "estimators.delta1", None),
    ("crbplan.estimators", "delta2", "estimators.delta2", None),
    ("crbplan.estimators", "sample_mean_x", "estimators.sample_mean_x", None),
    ("crbplan.estimators", "sample_mean_y", "estimators.sample_mean_y", None),
    ("crbplan.simulator", "run", "simulator.run", _replications_used),
    ("crbplan.simulator", "collect_replication", "simulator.collect_replication", None),
    ("crbplan.simulator", "replay_slots", "simulator.replay_slots", _argument("slots", 2)),
    ("crbplan.simulator", "audit_resources", "simulator.audit_resources", None),
    ("crbplan.cli", "cmd_plan", "cli.plan", None),
    ("crbplan.cli", "cmd_bounds", "cli.bounds", None),
    ("crbplan.cli", "cmd_simulate", "cli.simulate", None),
    ("crbplan.cli", "cmd_sweep", "cli.sweep", _figure),
)


class Tracer:
    """Wraps the traced functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._paused = False
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, units):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (
                    name, start, end, parent, units(args, kwargs, result) if units else 1
                )

        return traced

    def install(self, modules: dict) -> None:
        """Replace every attribute of ``modules`` (name -> module) that holds
        a traced function."""
        for module_name, function, span, units in TRACED:
            original = getattr(modules[module_name], function)
            wrapper = self._wrap(original, span, units)
            for module in modules.values():
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._replaced.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._replaced):
            setattr(module, attribute, original)
        self._replaced.clear()

    @contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,units\n")
            for i, (name, start, end, parent, units) in enumerate(self.spans):
                if isinstance(units, tuple):
                    units = "/".join(map(str, units))
                fh.write(f"{i},{name},{start},{end},{parent},{units}\n")


def _by_name(spans):
    """name -> list of (duration_ns, self_ns, units)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, units in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    grouped: dict[str, list] = {}
    for i, (name, start, end, parent, units) in enumerate(spans):
        grouped.setdefault(name, []).append((end - start, end - start - child_ns[i], units))
    return grouped


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics by name; 0 where the workload never calls the layer."""
    grouped = _by_name(spans)

    def calls(name):
        return len(grouped.get(name, ()))

    def quantile(name, q, scale, self_time=False):
        return _quantile([s[1 if self_time else 0] for s in grouped.get(name, ())], q) / scale

    def ns_per_unit(name):
        rows = grouped.get(name, ())
        units = sum(s[2] for s in rows)
        return sum(s[0] for s in rows) / units if units else 0.0

    def ratio(name):
        rows = grouped.get(name, ())
        tried = sum(s[2][1] for s in rows)
        return sum(s[2][0] for s in rows) / tried if tried else 0.0

    us, ms = 1e3, 1e6
    metrics = {
        "model.replication_rng.calls": calls("model.replication_rng"),
        "model.replication_rng.us_p50": quantile("model.replication_rng", 0.5, us),
        "model.sample_marginal.ns_per_draw": ns_per_unit("model.sample_marginal"),
        "model.sample_joint.ns_per_pair": ns_per_unit("model.sample_joint"),
        "simulator.run.self_ms_p50": quantile("simulator.run", 0.5, ms, self_time=True),
        "simulator.run.used_ratio": ratio("simulator.run"),
        "simulator.collect_replication.self_us_p50":
            quantile("simulator.collect_replication", 0.5, us, self_time=True),
        "simulator.replay_slots.ns_per_slot": ns_per_unit("simulator.replay_slots"),
        "simulator.audit_resources.us_p50": quantile("simulator.audit_resources", 0.5, us),
    }
    for estimator in ("delta1", "delta2", "sample_mean_x", "sample_mean_y"):
        name = f"estimators.{estimator}"
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.us_p50"] = quantile(name, 0.5, us)
    metrics.update({
        "strategy.plan_t3.ms_p50": quantile("strategy.plan_t3", 0.5, ms),
        "strategy.plan_t3.ms_p90": quantile("strategy.plan_t3", 0.9, ms),
        "strategy.plan_linear.us_p50": quantile("strategy.plan_linear", 0.5, us),
        "strategy.enumerate_vertices.us_p50": quantile("strategy.enumerate_vertices", 0.5, us),
        "strategy.enumerate_vertices.feasible_ratio": ratio("strategy.enumerate_vertices"),
        "strategy.plan_t1_closed_form.us_p50": quantile("strategy.plan_t1_closed_form", 0.5, us),
    })
    for name in ("strategy.constraints_for", "fisher.crb_t1", "fisher.crb_t3"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.us_p50"] = quantile(name, 0.5, us)
    for command in ("plan", "bounds", "simulate", "sweep"):
        metrics[f"cli.{command}.self_ms_p50"] = quantile(f"cli.{command}", 0.5, ms, self_time=True)
    sweeps = grouped.get("cli.sweep", ())
    for figure in FIGURES:
        durations = [s[0] for s in sweeps if s[2] == figure]
        metrics[f"cli.sweep.{figure}.s"] = statistics.median(durations) / 1e9 if durations else 0.0
    return metrics


def reconcile(spans, expected: dict[str, int]) -> list[tuple[str, int, int]]:
    """(name, expected, observed) for every span count that differs."""
    observed: dict[str, int] = {}
    for span in spans:
        observed[span[0]] = observed.get(span[0], 0) + 1
    return [
        (name, count, observed.get(name, 0))
        for name, count in sorted(expected.items())
        if observed.get(name, 0) != count
    ]
