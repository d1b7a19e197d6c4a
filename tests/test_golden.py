"""Verify output on the acceptance matrix, byte for byte against the
recorded golden JSON (`perfbench/golden.json`, read only)."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from steinberg import cli
from steinberg.meataxe import DEFAULT_SEED

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
    .read_text())

MATRIX = [(2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 4, 3), (2, 4, 5),
          (3, 2, 3), (3, 2, 7), (3, 3, 2), (3, 3, 13)]


@pytest.mark.parametrize("n,q,ell", MATRIX)
def test_verify_json_matches_golden(n, q, ell):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--n", str(n), "--q", str(q),
                         "--ell", str(ell), "--seed", str(DEFAULT_SEED)])
    assert code == 0
    assert out.getvalue() == GOLDEN[f"verify {n} {q} {ell}"]
