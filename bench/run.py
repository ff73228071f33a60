"""crbplan benchmark: one workload, one process, one closed-loop caller.

Run from the root of a checkout:

    python3 bench/run.py --workload plan_mix --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in its own child process and prints
one table.  The package is imported from ``src/`` of the checkout this file
sits in; the run fails if it is not there.  Metric names and units come
from ``BENCHMARK.json``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs one pass of the ops untraced, then one
traced, and reports the per-layer metrics.  The last line of standard
output is the result as one JSON object; the lines before it describe the
run, and say whether each known defect of the package (``defects.py``) is
still present.  ``bench/README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools would compete for the two cores of the reference
# machine; pin them before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# glibc raises its mmap threshold each time a large block is freed, so both
# peak RSS and page-fault counts would depend on the order of the first large
# frees.  Fixing the thresholds where that adaptation ends (32 MiB; trim
# above 64 MiB) makes every run start in glibc's steady state.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
try:
    _libc = ctypes.CDLL("libc.so.6")
    _libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    _libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
except OSError:  # not glibc: nothing to pin
    pass

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
#: Set-up (import, input generation, warm-up) is repeated this many times in
#: an untraced run and ``setup_s`` is the median.
SETUP_REPEATS = 9
#: Speed-probe samples taken before and after each set-up: a set-up is too
#: short for the periodic samples to normalize it.
SETUP_SAMPLES = 5
#: A pass holds at least this many ops, so that at least ten lie beyond the
#: p90 of each pass.
MIN_RUNS = 100

sys.path.insert(0, str(SRC))

from checks import OK, WRONG  # noqa: E402
from defects import replay_known_defects  # noqa: E402
from spans import MODULES, Tracer, layer_metrics, reconcile  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, generate, prepare  # noqa: E402


class SetupError(Exception):
    """The checkout cannot be benchmarked (package or BENCHMARK.json missing)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def import_package() -> dict:
    """Import crbplan afresh from the checkout; returns name -> module."""
    for name in [n for n in sys.modules if n == "crbplan" or n.startswith("crbplan.")]:
        del sys.modules[name]
    try:
        modules = {name: importlib.import_module(name) for name in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import crbplan from {SRC}: {exc}") from exc
    location = Path(modules["crbplan"].__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SetupError(f"crbplan imported from {location}, not from {SRC}")
    return modules


def set_up(workload: str, seed: int, out_dir: Path, probe: SpeedProbe):
    """Import the package, build the seeded ops and warm up; returns
    (modules, workload, seconds at the nominal speed).

    Set-up mixes interpreter-bound work with t3 grid passes (``mc_short``
    plans its t3 configurations here), so it is scaled by the geometric
    mean of both kernels' factors.
    """
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    start = perf_counter_ns()
    modules = import_package()
    plan = prepare(modules["crbplan"], workload, generate(workload, seed), out_dir)
    for op in plan.warmup:
        try:
            outcome = op.call()
        except Exception as exc:  # counted when the op is measured
            outcome = exc
        op.check(outcome)
    end = perf_counter_ns()
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    scale = math.sqrt(probe.scale("python", start, end) * probe.scale("numpy", start, end))
    return modules, plan, (end - start) * scale / 1e9


class Measurement:
    """Latencies and check results of a workload's ops, run pass after pass."""

    def __init__(self, ops, probe: SpeedProbe) -> None:
        self.ops = ops
        self.probe = probe
        self.records: list[tuple] = []  # (op index, start_ns, latency_ns, status, reason)
        self.passes = 0

    def normalized_ns(self) -> list[float]:
        """Each run's latency at the nominal machine speed (see speed.py)."""
        return [
            latency * self.probe.scale(self.ops[index].probe, start, start + latency)
            for index, start, latency, _, _ in self.records
        ]


def measure(ops, seconds: float, probe: SpeedProbe, tracer: Tracer | None = None,
            passes: int | None = None) -> Measurement:
    """Run ``ops`` in a closed loop, pass after pass.

    Without a pass count, another pass starts while it is expected to end
    closer to ``seconds`` than stopping now would.
    """
    result = Measurement(ops, probe)
    start = perf_counter()
    probe.sample()
    while True:
        elapsed = perf_counter() - start
        if passes is not None:
            if result.passes >= passes:
                break
        elif result.passes and elapsed + elapsed / result.passes / 2 >= seconds:
            break
        for index, op in enumerate(ops):
            sampled = probe.spent_ns
            t0 = perf_counter_ns()
            try:
                outcome = op.call()
            except Exception as exc:  # the op's check classifies it
                outcome = exc
            latency = perf_counter_ns() - t0 - (probe.spent_ns - sampled)
            if tracer is None:
                status, reason = op.check(outcome)
            else:
                with tracer.paused():
                    status, reason = op.check(outcome)
            result.records.append((index, t0, latency, status, reason))
        result.passes += 1
    probe.sample()
    return result


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(measured: Measurement, setup_seconds) -> dict[str, float]:
    """Throughput and latency quantiles of each pass, and their medians over
    the passes: a slow spell of the shared machine that the speed probe
    misses then moves only the passes it falls in."""
    latencies_ms = [ns / 1e6 for ns in measured.normalized_ns()]
    size = len(latencies_ms) // measured.passes
    passes = [latencies_ms[i:i + size] for i in range(0, len(latencies_ms), size)]
    return {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": statistics.median(1e3 * len(p) / sum(p) for p in passes),
        "op_p50_ms": statistics.median(_percentile(p, 50) for p in passes),
        "op_p90_ms": statistics.median(_percentile(p, 90) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def workload_extras(measured: Measurement) -> dict[str, tuple[float, str]]:
    """Throughputs that only some workloads have, and the raw (unscaled)
    throughput: name -> (value, unit)."""
    work: Counter = Counter()
    busy: Counter = Counter()
    for (index, _, latency, _, _), scaled in zip(measured.records, measured.normalized_ns()):
        work["raw"] += 1
        busy["raw"] += latency / 1e9
        for key, amount in measured.ops[index].work.items():
            work[key] += amount
            busy[key] += scaled / 1e9
    extras = {"raw_ops_per_s": (work["raw"] / busy["raw"], "1/s")}
    for key, name in (("reps", "reps_per_s"), ("slots", "slots_per_s")):
        if work[key]:
            extras[name] = (work[key] / busy[key], "1/s")
    if work["sweep"]:
        extras["figures_s"] = (busy["sweep"] / measured.passes, "s")
    return extras


def failures(measurements) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, one line per distinct failing input)."""
    attempted = failed = 0
    wrong = False
    lines: Counter = Counter()
    for measured in measurements:
        for index, _, _, status, reason in measured.records:
            attempted += 1
            if status != OK:
                op = measured.ops[index]
                failed += 1
                wrong = wrong or status == WRONG
                lines[f"[{status}] {op.kind}: {op.label} -- {reason}"] += 1
    return attempted, failed, not wrong, [f"{n}x {line}" for line, n in lines.items()]


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crbplan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = OUT_DIR / f"tmp-{os.getpid()}"
    tmp_dir.mkdir()
    try:
        probe = SpeedProbe()
        setup_seconds = []
        for _ in range(1 if trace else SETUP_REPEATS):
            modules, plan, elapsed = set_up(workload, seed, tmp_dir, probe)
            setup_seconds.append(elapsed)
        if len(plan.ops) < MIN_RUNS:
            raise SetupError(f"a pass of {workload} has {len(plan.ops)} ops, fewer than {MIN_RUNS}")
        if not trace:
            with probe.sampling():
                measured = measure(plan.ops, seconds, probe)
            measurements = [measured]
            values = end_to_end(measured, setup_seconds)
            extras = workload_extras(measured)
            declared = spec["end_to_end"]
        else:
            # One run of each op, untraced then traced: the same work twice.
            untraced = measure(plan.ops, seconds, probe, passes=1)
            tracer = Tracer()
            tracer.install(modules)
            try:
                traced = measure(plan.ops, seconds, probe, tracer, passes=1)
            finally:
                tracer.uninstall()
            measurements = [untraced, traced]
            expected = Counter()
            for op in plan.ops:
                expected.update(op.expected_calls)
            mismatches = reconcile(tracer.spans, expected)
            values = layer_metrics(tracer.spans)
            values["trace.overhead_ratio"] = (
                sum(r[2] for r in traced.records) / sum(r[2] for r in untraced.records)
            )
            values["trace.reconcile_mismatches"] = len(mismatches)
            extras = {}
            declared = spec["per_layer"]
            tracer.write(OUT_DIR / f"{workload}.spans.csv.gz")
        known_defects = replay_known_defects(modules["crbplan"], workload)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise SetupError(f"metrics {sorted(set(names) ^ set(values))} are declared or measured, not both")
    attempted, failed, correct, failing = failures(measurements)
    record = {
        "meta": metadata(workload, seed, seconds, trace),
        "result": {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        },
        "extras": {name: {"value": v, "unit": u} for name, (v, u) in extras.items()},
        "fail_ratio": failed / attempted,
        "failing_inputs": failing,
        "known_defects": known_defects,
        "runs_by_kind": dict(Counter(m.ops[r[0]].kind for m in measurements for r in m.records)),
        "passes": [m.passes for m in measurements],
    }
    if trace:
        record["reconcile_mismatches"] = [list(m) for m in mismatches]
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return record


def print_record(record: dict) -> None:
    meta = record["meta"]
    print(f"# workload={meta['workload']} seed={meta['seed']} seconds={meta['seconds']} "
          f"trace={meta['trace']} passes={record['passes']} runs={record['runs_by_kind']}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    rows = list(record["result"]["metrics"].items()) + list(record["extras"].items())
    for name, metric in rows:
        print(f"{name:<46} {metric['value']:>16.6g} {metric['unit']}")
    for name, want, got in record.get("reconcile_mismatches", ()):
        print(f"# span count mismatch: {name} expected {want}, traced {got}")
    result = record["result"]
    print(f"fail_ratio {record['fail_ratio']:.6g} ({result['failed']} of {result['attempted']} runs)")
    for line in record["failing_inputs"]:
        print(f"#   {line}")
    for defect in record["known_defects"]:
        state = "present" if defect["present"] else "fixed"
        print(f"# known defect {defect['name']}: {state} -- {defect['input']}"
              + (f" -- {defect['reason']}" if defect["present"] else ""))


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise SetupError(f"workload {workload} exited with {child.returncode}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            record = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print_record(record)
            result = record["result"]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
