"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan_large --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from its
``src`` directory, and the run exits 2 without a result when that is missing.
The inputs are generated from ``--seed``; the workload then runs closed-loop
passes for ``--seconds`` and checks every output.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics declared in BENCHMARK.json;
with ``--trace 1`` passes alternate between untraced and traced, and it holds
the per-layer metrics.  The line before it is a report with the machine, the
inputs, the checks and every number measured.  The same report, with the
spans of a traced run, is written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PACKAGE = "paoiplan"
SETUP_REPEATS = 5
SHORT_STAGE_S = 0.1
WORKLOAD_NAMES = ("plan_large", "sweep_small", "verify_mc")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _machine(numpy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _time_fresh_import() -> float:
    """Wall time for a fresh interpreter to start and import the package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {PACKAGE}"], env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def _measure(workload, seconds: float, trace: bool, checker, instrumented_targets):
    """Closed-loop passes until ``seconds`` have elapsed; odd passes traced when ``trace``.

    Returns the timing records of each pass, the pass wall times keyed by
    whether the pass was traced, the tracer and the measured window.
    """
    passes, walls = [], {False: [], True: []}
    tracer, untraced = tracing.Tracer(), tracing.NullTracer()
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        records = []
        pass_start = time.perf_counter()
        if traced:
            tracer.pass_index = index
            with tracing.instrumented(tracer, PACKAGE, instrumented_targets):
                workload.run_pass(tracer, checker, records)
        else:
            workload.run_pass(untraced, checker, records)
        walls[traced].append((index, time.perf_counter() - pass_start))
        passes.append(records)
        index += 1
        if time.perf_counter() - start >= seconds and (walls[True] or not trace):
            break
    return passes, walls, tracer, time.perf_counter() - start


def _stage_time(passes, key: str) -> float:
    """Mean over the distinct plans of one stage's time per plan.

    Every pass repeats the same plans.  On the shared 2-vCPU virtual machine
    the benchmark was tuned on, the CPU switches between two speeds about 45%
    apart several times a second, and the share of slow time drifts from run
    to run.  A stage shorter than SHORT_STAGE_S mostly runs at one speed,
    so its fastest repetition is a clean sample of its cost; a longer stage
    averages over both speeds, so the mean of its repetitions is the
    steadier figure.
    """
    estimates = []
    for repeats in zip(*passes):
        values = [r[key] for r in repeats if not math.isnan(r[key])]
        if values:
            fastest = min(values)
            estimates.append(fastest if fastest < SHORT_STAGE_S else statistics.fmean(values))
    return statistics.fmean(estimates) if estimates else 0.0


def _end_to_end(passes, setup_s: float) -> dict:
    plan_s = _stage_time(passes, "total_s")
    return {
        "setup_s": setup_s,
        "solve_s": _stage_time(passes, "solve_s"),
        "approx_s": _stage_time(passes, "approx_s"),
        "verify_s": _stage_time(passes, "verify_s"),
        "plans_per_s": 1.0 / plan_s if plan_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _latency(passes, numpy) -> dict:
    """Per-plan latency percentiles, with how many plans lie beyond the 95th."""
    totals = numpy.array([r["total_s"] for records in passes for r in records])
    p50, p95 = numpy.percentile(totals, [50, 95])
    return {
        "plans": int(totals.size),
        "plan_p50_s": {"value": float(p50), "unit": "s"},
        "plan_p95_s": {"value": float(p95), "unit": "s"},
        "plans_beyond_p95": int(numpy.count_nonzero(totals > p95)),
    }


def _per_layer(workload, walls, tracer, layers, span_names) -> dict:
    traced = [index for index, _ in walls[True]]
    count = len(traced)
    self_time, calls, covered = tracer.summary(traced)
    values = {f"{name}_s": self_time.get(name, 0.0) / count for name in span_names}
    for layer in layers:
        layer_calls = sum(n for name, n in calls.items() if name.split(".")[0] == layer)
        values[f"{layer}.calls"] = layer_calls / count
    samples = workload.samples_per_pass
    values["sim.samples"] = samples
    values["sim.ns_per_sample"] = values["sim.simulate_sensor_s"] / samples * 1e9 if samples else 0.0
    traced_wall = statistics.median(wall for _, wall in walls[True])
    untraced_wall = statistics.median(wall for _, wall in walls[False])
    values["trace.pass_s"] = traced_wall
    values["trace.untraced_pass_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.uncovered_s"] = sum(wall - covered.get(i, 0.0) for i, wall in walls[True]) / count
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: package source {SRC / PACKAGE} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    paoiplan = importlib.import_module(PACKAGE)
    import_s = time.perf_counter() - import_start
    if Path(paoiplan.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {paoiplan.__file__}, not the checkout's source", file=sys.stderr)
        return 2

    import numpy

    import checks
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        # A set-up is a fresh import plus making and writing the inputs.  The
        # fastest of several counts: on a machine whose speed drifts it is the
        # steadiest figure (see _stage_time), and work moved into set-up still
        # raises it.
        setup_times = []
        for _ in range(SETUP_REPEATS):
            fresh_import_s = _time_fresh_import()
            setup_start = time.perf_counter()
            workload.setup()
            setup_times.append(fresh_import_s + time.perf_counter() - setup_start)
        setup_s = min(setup_times)

        negative = checks.negative_self_test(paoiplan)
        checker = checks.Checker()
        passes, walls, tracer, window = _measure(
            workload, args.seconds, bool(args.trace), checker, workloads.INSTRUMENTED
        )

    if args.trace:
        values = _per_layer(workload, walls, tracer, workloads.LAYERS, workloads.SPAN_NAMES)
        metric_specs = declared["per_layer"]
    else:
        values = _end_to_end(passes, setup_s)
        metric_specs = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    correct = checker.attempted > 0 and checker.failed == 0 and negative.failed == negative.attempted > 0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(numpy),
        "inputs": workload.sizes,
        "passes": len(passes),
        "traced_passes": len(walls[True]),
        "latency": _latency(passes, numpy),
        "window_s": window,
        "window_plans_per_s": sum(len(records) for records in passes) / window,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "sim_samples_per_s": {"value": workload.samples_per_pass * len(passes) / window, "unit": "1/s"},
        "checks": {"attempted": checker.attempted, "failed": checker.failed,
                   "problems": checker.problems},
        "negative_checks": {"attempted": negative.attempted, "failed": negative.failed,
                            "problems": negative.problems},
        "metrics": values,
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as handle:
        json.dump({"report": report, "plans": passes, "spans": tracer.spans}, handle)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
