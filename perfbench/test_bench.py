"""Smoke test of the benchmark on a tiny case.

    python3 -m pytest perfbench

Runs the benchmark's own entry point on GL_2(2) ell=3, checks that every
metric declared in BENCHMARK.json is emitted with its unit, that traced
counts repeat exactly, that traced call counts agree with cProfile on
GL_3(2) ell=7, that the output gate rejects wrong output, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Case, check, load_golden, run_case  # noqa: E402

run.import_package()
TINY = (Case(2, 2, 3),)
COUNT_UNITS = {"count", "madd", "cell", "row", "B"}


def result_of(capsys, monkeypatch, trace: int, seed: int = DEFAULT_SEED):
    monkeypatch.setitem(WORKLOADS, "tiny", TINY)
    assert run.main(["--workload", "tiny", "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_every_metric_emitted_with_its_unit(capsys, monkeypatch):
    declared = run.declared_metrics()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = result_of(capsys, monkeypatch, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared[key]
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
    assert all(v["value"] > 0 for v in result_of(
        capsys, monkeypatch, 0, seed=7)["metrics"].values())


def test_traced_counts_repeat_exactly(capsys, monkeypatch):
    runs = [result_of(capsys, monkeypatch, 1) for _ in range(2)]
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] in COUNT_UNITS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["gf.rref.calls"] > 0
    assert counts[0]["bngroup.weyl_of.calls"] == 3 ** 2  # |G/B| squared


def test_traced_counts_match_cprofile():
    case, golden = Case(3, 2, 7), load_golden()
    profile = cProfile.Profile()
    profile.enable()
    assert run_case(case, DEFAULT_SEED, golden).error is None
    profile.disable()
    profiled = {}
    for (path, _, func), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
        if path.endswith("gf.py") and func in ("rref", "mat_mul"):
            profiled[func] = ncalls

    import steinberg.gf as gf
    originals = (gf.rref, gf.FiniteField.mat_mul)
    tracer = Tracer()
    tracer.install()
    try:
        first = tracer.mark()
        outcome = run_case(case, DEFAULT_SEED, golden)
    finally:
        tracer.uninstall()
    assert outcome.error is None
    summary = tracer.summarize(first, outcome.wall)
    assert summary["gf.rref.calls"] == profiled["rref"]
    assert summary["gf.mat_mul.calls"] == profiled["mat_mul"]
    assert 0 < summary["trace.cover_frac"] <= 1
    assert "modrep.gelfand_graev" in tracer.names
    assert "modrep.gelfand_graev_k" not in tracer.names
    assert (gf.rref, gf.FiniteField.mat_mul) == originals


def test_gate_rejects_wrong_output():
    golden = load_golden()
    case = TINY[0]
    text = golden[case.key]
    assert check(case, DEFAULT_SEED, (0, text), golden) is None
    assert check(case, DEFAULT_SEED, (0, text.replace("true", "false", 1)),
                 golden)
    assert check(case, DEFAULT_SEED, (1, text), golden)
    payload = json.loads(text)
    payload["seed"] = 5
    assert check(case, 5, (0, json.dumps(payload)), golden) is None
    assert check(case, 6, (0, json.dumps(payload)), golden)

    def altered(change):
        wrong = json.loads(json.dumps(payload))
        change(wrong)
        return check(case, 5, (0, json.dumps(wrong)), golden)

    assert altered(lambda p: p["checks"][0].update({"pass": False}))
    # self-checks still pass, but the factor dims are not the golden's
    assert altered(lambda p: p["factors"][0].update({"dim": 2}))
    assert altered(lambda p: p["checks"][7].update(
        {"details": "socle dim 2, multiplicity 1, unipotent fixed dim 1"}))
    # a wrong Steinberg dimension fails on its own, at every seed
    assert "steinberg_rank" in altered(lambda p: p["checks"][2].update(
        {"details": "dim=3, |U|=3"}))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_package(tmp_path, trace):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-matrix",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
