"""Every traced per-layer metric in BENCHMARK.json names a function that
perfbench/tracer.py wraps, and a traced verify reaches the shared row-space
routines.

`perfbench/run.py --trace 1` reads each declared metric from the tracer's
summary, so a traced function that is deleted or renamed without its metric
would crash the traced run.  The computed work counts (`WORK_METRICS`) and
the tracer's own `trace.*` figures are not span names and are skipped.
A private twin of a traced function would take its calls unseen, so the
piece constructors, residues and intersections must record spans.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import steinberg.cli  # loads every layer module

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_benchmark_metric_names_a_wrapped_function():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        registered = set(tracer.names)
    finally:
        tracer.uninstall()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = [m["name"] for m in declared
             if not m["name"].startswith("trace.")
             and m["name"] not in tracer_module.WORK_METRICS]
    assert spans
    missing = [name for name in spans
               if name.rsplit(".", 1)[0] not in registered]
    assert not missing


def test_a_traced_verify_records_the_shared_row_space_routines():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        first = tracer.mark()
        with contextlib.redirect_stdout(io.StringIO()):
            code = steinberg.cli.main(
                ["verify", "--n", "4", "--q", "2", "--ell", "3"])
        summary = tracer.summarize(first, 1.0)
    finally:
        tracer.uninstall()
    assert code == 0
    for name in ("meataxe.submodule_module", "meataxe.quotient_module",
                 "gf.reduce_mod_rowspace", "gf.intersect_rowspaces"):
        assert summary[f"{name}.calls"] >= 1, name
