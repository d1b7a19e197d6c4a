#!/usr/bin/env python3
"""Benchmark of the steinberg package, run from the root of a checkout.

    python3 perfbench/run.py --workload verify-ladder --seed 1 \
        --seconds 60 --trace 0

The workloads and their output gate are in `workloads.py`.  One process
runs one workload as a closed loop with one caller: each case starts when
the previous one has finished, and passes over the workload's cases repeat
while the next pass is predicted to end within `--seconds` (at least one
pass).  `--seed` is the MeatAxe seed handed to every case.  Pass i of an
untraced run uses seed + i, because the MeatAxe's work depends on its seed
(by up to 30% of a verify-ladder pass), and a median over several seeds
moves less from run to run; traced passes all use the seed itself, so that
their counts must repeat exactly.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json:
    setup_s      median time to import steinberg.cli in a fresh interpreter
                 (one warm-up import, then SETUP_REPEATS timed ones
                 spread between the passes)
    wall_s       median wall time of one pass
    cpu_s        median process CPU time of one pass
    peak_rss_mb  peak resident set size of this process
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: call counts, inclusive (`.s`) and self (`.self_s`) times per pass
from the spans of `tracer.py`, the work counts it computes from argument
shapes, the share of traced pass time that top-level spans cover, and the
tracing overhead (median traced pass minus median untraced pass).

Each run also writes its record -- machine, versions, load, every pass and
every failed case -- to .perfbench/ in the checkout, and with --trace 1 the
spans.  The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 21

sys.path.insert(0, str(BENCH))
from tracer import WORK_METRICS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load_golden, run_case  # noqa: E402


def import_package():
    """Import steinberg from this checkout's src/, never from elsewhere."""
    if not (SRC / "steinberg" / "__init__.py").is_file():
        raise SystemExit(f"no steinberg package under {SRC}; run the "
                         "benchmark from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import steinberg.cli  # noqa: F401 -- loads every layer module
    import steinberg

    if Path(steinberg.__file__).resolve().parent != SRC / "steinberg":
        raise SystemExit(f"imported steinberg from {steinberg.__file__}, "
                         f"not from {SRC}")
    return steinberg


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def import_seconds() -> float:
    """Seconds to import steinberg.cli in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import steinberg.cli; "
             "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


def one_pass(cases, seed, golden) -> dict:
    outcomes = [run_case(case, seed, golden) for case in cases]
    return {
        "seed": seed,
        "wall": sum(o.wall for o in outcomes),
        "cpu": sum(o.cpu for o in outcomes),
        "cases": {o.case.key: round(o.wall, 6) for o in outcomes},
        "errors": {o.case.key: o.error for o in outcomes if o.error},
    }


def keep_going(started: float, seconds: float, next_pass: float) -> bool:
    return time.perf_counter() - started + next_pass <= seconds


def timed_run(cases, seed, seconds, golden) -> tuple:
    import_seconds()  # warm-up: the first import writes the bytecode cache
    setup, passes = [], []
    started = time.perf_counter()
    while not passes or keep_going(started, seconds,
                                   max(p["wall"] for p in passes)):
        # import probes are spread over the run, so that their median sees
        # the same spells of a busy host as the passes' median does
        elapsed = time.perf_counter() - started
        due = SETUP_REPEATS * (elapsed / seconds if seconds > 0 else 1)
        while len(setup) <= min(due, SETUP_REPEATS - 1):
            setup.append(import_seconds())
        passes.append(one_pass(cases, seed + len(passes), golden))
    while len(setup) < SETUP_REPEATS:
        setup.append(import_seconds())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": peak_kb / 1024,
    }
    return metrics, passes, {"setup_samples_s": setup}


def traced_run(cases, seed, seconds, golden, spans_path) -> tuple:
    tracer = Tracer()
    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while not traced or keep_going(started, seconds,
                                   plain[-1]["wall"] + traced[-1]["wall"]):
        plain.append(one_pass(cases, seed, golden))
        tracer.install()
        try:
            first = tracer.mark()
            traced.append(one_pass(cases, seed, golden))
        finally:
            tracer.uninstall()
        layers.append(tracer.summarize(first, traced[-1]["wall"]))
    tracer.save(spans_path)

    def is_count(name):
        return name.endswith(".calls") or name in WORK_METRICS \
            or name == "trace.spans"

    metrics, unsteady = {}, []
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if is_count(name):
            metrics[name] = values[0]
            if len(set(values)) > 1:
                unsteady.append(name)
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall"] for p in traced)
        - statistics.median(p["wall"] for p in plain))
    extra = {"untraced_passes": plain, "counts_not_repeated": unsteady,
             "computed": list(WORK_METRICS), "spans_file": str(spans_path)}
    return metrics, traced, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="MeatAxe seed; untraced pass i uses seed + i")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_package()
    import numpy

    OUT.mkdir(exist_ok=True)
    declared = declared_metrics()
    golden = load_golden()
    cases = WORKLOADS[args.workload]
    load_start = os.getloadavg()[0]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, passes, extra = traced_run(
            cases, args.seed, args.seconds, golden, OUT / f"spans-{tag}.npz")
        units = declared["per_layer"]
    else:
        metrics, passes, extra = timed_run(
            cases, args.seed, args.seconds, golden)
        units = declared["end_to_end"]
    runs = passes + extra.get("untraced_passes", [])
    attempted = sum(len(p["cases"]) for p in runs)
    failed = sum(len(p["errors"]) for p in runs)
    unsteady = extra.get("counts_not_repeated", [])
    correct = failed == 0 and not unsteady

    record = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "errors": sorted({e for p in runs for e in p["errors"].items()}),
        "metrics": metrics, "passes": passes, **extra,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    computed = set(WORK_METRICS)
    for name, unit in units.items():
        label = "  (computed)" if name in computed else ""
        print(f"{name:36s} {metrics[name]:>16.6g} {unit}{label}")
    print(f"{'failed_frac':36s} {failed / attempted:>16.6g} "
          f"fraction ({failed}/{attempted} cases)")
    for key, error in record["errors"]:
        print(f"FAILED {key}: {error.splitlines()[-1]}")
    if unsteady:
        print(f"counts differ between traced passes: {', '.join(unsteady)}")
    print(f"nproc {record['nproc']}  python {record['python']}  numpy "
          f"{record['numpy']}  seed {args.seed}  load {load_start:.2f} -> "
          f"{record['loadavg_1m_end']:.2f}  passes {len(passes)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
