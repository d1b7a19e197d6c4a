"""Verify output on the acceptance matrix and the ladder rungs, byte for
byte against the recorded golden JSON (`perfbench/golden.json`, read only),
on the matrix also with the Bruhat decomposition switched off, and equal to
it at other seeds once the reported seed is set back: no other field may
depend on which Norton witnesses a seed finds.  The ladder runs of that
seed sweep split by witnesses of both kinds: read off a dual spin, which
proves its quotient simple, and off the first spin, which does not.
GL_3(7) at ell = 2 and 19,
whose 343-dimensional Steinberg modules split as 1 + 342 and 55 + 288, is
pinned byte for byte against `tests/golden_gl3_7.json`.  One Norton sample
almost always settles an irreducibility test on the ladder's Steinberg
modules."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from steinberg import cli, meataxe
from steinberg.bngroup import GLGroup, build_gl
from steinberg.meataxe import DEFAULT_SEED
from steinberg.modrep import steinberg_module
from test_acceptance import MATRIX as ACCEPTANCE_MATRIX

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())

GOLDEN_GL3_7 = json.loads(
    (Path(__file__).resolve().parent / "golden_gl3_7.json").read_text())

MATRIX = [(2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 4, 3), (2, 4, 5),
          (3, 2, 3), (3, 2, 7), (3, 3, 2), (3, 3, 13)]
LADDER = [(3, 5, 2), (4, 2, 3)]
SWEEP_SEEDS = [1, 2, 3, 5, 8, 13, 99, 2024]


def _load_workloads():
    # registered while it runs: its dataclasses look their module up
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_cases_are_the_benchmark_cases():
    # the tier-1 cases and the benchmark's cases must not drift apart
    workloads = _load_workloads()

    def cases(name):
        return [(c.n, c.q, c.ell) for c in workloads.WORKLOADS[name]]

    assert MATRIX == ACCEPTANCE_MATRIX == cases("verify-matrix")
    assert LADDER == cases("verify-ladder")


def verify_stdout(n, q, ell, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--n", str(n), "--q", str(q),
                         "--ell", str(ell), "--seed", str(seed)])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("n,q,ell", MATRIX + LADDER)
def test_verify_json_matches_golden(n, q, ell):
    assert (verify_stdout(n, q, ell, DEFAULT_SEED)
            == GOLDEN[f"verify {n} {q} {ell}"])


@pytest.mark.parametrize("ell", [2, 19])
def test_verify_json_matches_golden_on_gl3_7(ell):
    assert (verify_stdout(3, 7, ell, DEFAULT_SEED)
            == GOLDEN_GL3_7[f"verify 3 7 {ell}"])


@pytest.mark.parametrize("n,q,ell", MATRIX)
def test_verify_needs_no_bruhat_decomposition(n, q, ell, monkeypatch):
    # flags, their action and the cell table come from canonical flags alone
    def refuse(self, g):
        raise AssertionError("verify called a Bruhat decomposition")

    monkeypatch.setattr(GLGroup, "weyl_of", refuse)
    monkeypatch.setattr(GLGroup, "bruhat", refuse)
    assert (verify_stdout(n, q, ell, DEFAULT_SEED)
            == GOLDEN[f"verify {n} {q} {ell}"])


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
@pytest.mark.parametrize("n,q,ell", MATRIX + LADDER)
def test_verify_json_is_seed_independent(n, q, ell, seed):
    payload = json.loads(verify_stdout(n, q, ell, seed))
    assert payload["seed"] == seed
    payload["seed"] = DEFAULT_SEED
    assert payload == json.loads(GOLDEN[f"verify {n} {q} {ell}"])


def test_the_seed_sweep_splits_by_both_kinds_of_witness(monkeypatch):
    # a witness read off a dual spin proves its quotient simple, one from
    # the first spin does not; the sweep's ladder runs must take both
    split, radical = meataxe._split, []

    def recorded(M, *args):
        radical.append(M.witness_is_radical)
        return split(M, *args)

    monkeypatch.setattr(meataxe, "_split", recorded)
    for n, q, ell in LADDER:
        St = steinberg_module(build_gl(n, q), ell).module
        for seed in SWEEP_SEEDS:
            meataxe.composition_factors(St, seed)
    assert True in radical and False in radical


def test_one_norton_sample_settles_almost_every_test_on_the_ladder(
        monkeypatch):
    samples, tests = [], []

    def counted(fn, log, keep):
        def wrapper(M, *args):
            if keep(M):
                log.append(M.dim)
            return fn(M, *args)
        return wrapper

    monkeypatch.setattr(meataxe, "algebra_element", counted(
        meataxe.algebra_element, samples, lambda M: True))
    monkeypatch.setattr(meataxe, "is_irreducible", counted(
        meataxe.is_irreducible, tests, lambda M: M.dim >= 2))
    for n, q, ell in LADDER:
        St = steinberg_module(build_gl(n, q), ell).module
        for seed in range(10):
            meataxe.composition_factors(St, seed)
    assert tests and len(samples) <= 1.1 * len(tests)
