"""Verify output on the acceptance matrix, byte for byte against the
recorded golden JSON (`perfbench/golden.json`, read only), also with the
Bruhat decomposition switched off, and equal to it at other seeds once the
reported seed is set back: no other field may depend on which Norton
witnesses a seed finds."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from steinberg import cli
from steinberg.bngroup import GLGroup
from steinberg.meataxe import DEFAULT_SEED

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
    .read_text())

MATRIX = [(2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 4, 3), (2, 4, 5),
          (3, 2, 3), (3, 2, 7), (3, 3, 2), (3, 3, 13)]


def verify_stdout(n, q, ell, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--n", str(n), "--q", str(q),
                         "--ell", str(ell), "--seed", str(seed)])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("n,q,ell", MATRIX)
def test_verify_json_matches_golden(n, q, ell):
    assert (verify_stdout(n, q, ell, DEFAULT_SEED)
            == GOLDEN[f"verify {n} {q} {ell}"])


@pytest.mark.parametrize("n,q,ell", MATRIX)
def test_verify_needs_no_bruhat_decomposition(n, q, ell, monkeypatch):
    # flags, their action and the cell table come from canonical flags alone
    def refuse(self, g):
        raise AssertionError("verify called a Bruhat decomposition")

    monkeypatch.setattr(GLGroup, "weyl_of", refuse)
    monkeypatch.setattr(GLGroup, "bruhat", refuse)
    assert (verify_stdout(n, q, ell, DEFAULT_SEED)
            == GOLDEN[f"verify {n} {q} {ell}"])


@pytest.mark.parametrize("seed", [1, 2, 99])
@pytest.mark.parametrize("n,q,ell", MATRIX)
def test_verify_json_is_seed_independent(n, q, ell, seed):
    payload = json.loads(verify_stdout(n, q, ell, seed))
    assert payload["seed"] == seed
    payload["seed"] = DEFAULT_SEED
    assert payload == json.loads(GOLDEN[f"verify {n} {q} {ell}"])
