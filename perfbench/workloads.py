"""The benchmark's workloads: fixed cases, how one runs and how it is checked.

verify-ladder   `steinberg verify` on the largest ladder rungs that pass:
                GL_3(5) ell=2 and GL_4(2) ell=3.  The group layer (cell
                table, coset actions) does about half the work, so the
                flag-layer and shared-pipeline work shows here.
verify-matrix   `steinberg verify` on the nine-case acceptance matrix, at
                most 52 flags each.  What users run most; fixed per-call
                cost dominates, and it guards big-matrix work against
                overhead on small inputs.

Output gate: with the default seed each verify JSON must be byte-identical
to `golden.json`.  With any other seed it must report that seed, and with
the seed field set back to the default it must equal the golden, because no
other field depends on the seed.  At every seed the Steinberg dimension
reported by `steinberg_rank` must also equal q^(n(n-1)/2), the closed form.
A mismatch, an exception or a nonzero exit is a failed case.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# steinberg.meataxe.DEFAULT_SEED; the goldens were recorded with it
DEFAULT_SEED = 214003

# tests/test_acceptance.py::MATRIX
MATRIX = ((2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 4, 3), (2, 4, 5),
          (3, 2, 3), (3, 2, 7), (3, 3, 2), (3, 3, 13))
LADDER = ((3, 5, 2), (4, 2, 3))


@dataclass(frozen=True)
class Case:
    n: int
    q: int
    ell: int

    @property
    def key(self) -> str:
        return f"verify {self.n} {self.q} {self.ell}"


WORKLOADS = {
    "verify-ladder": tuple(Case(*c) for c in LADDER),
    "verify-matrix": tuple(Case(*c) for c in MATRIX),
}


@dataclass
class Outcome:
    case: Case
    wall: float
    cpu: float
    error: str | None   # None when the output passed the gate


def _run_verify(case: Case, seed: int):
    from steinberg import cli

    argv = ["verify", "--n", str(case.n), "--q", str(case.q),
            "--ell", str(case.ell), "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def check(case: Case, seed: int, result, golden: dict) -> str | None:
    """None when `result` passes the output gate, else what is wrong."""
    code, text = result
    if code != 0:
        return f"exit {code}: {text.strip()[:300]}"
    payload = json.loads(text)
    failing = [c["name"] for c in payload["checks"] if not c["pass"]]
    if failing:
        return f"checks failed: {', '.join(failing)}"
    if payload["seed"] != seed:
        return f"seed {payload['seed']} reported for seed {seed}"
    rank = next(c for c in payload["checks"] if c["name"] == "steinberg_rank")
    dim = case.q ** (case.n * (case.n - 1) // 2)
    if not rank["details"].startswith(f"dim={dim},"):
        return f"steinberg_rank {rank['details']!r}, expected dim={dim}"
    if seed == DEFAULT_SEED:
        return None if text == golden[case.key] else "JSON differs from golden"
    payload["seed"] = DEFAULT_SEED
    if payload != json.loads(golden[case.key]):
        return "JSON differs from golden in a field other than the seed"
    return None


def run_case(case: Case, seed: int, golden: dict) -> Outcome:
    """Run one case, timing only the call into the package, then check it."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = _run_verify(case, seed)
        error = None
    except Exception:  # noqa: BLE001 -- a crashing case is a failed case
        error = traceback.format_exc(limit=3).strip()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if error is None:
        try:
            error = check(case, seed, result, golden)
        except Exception:  # noqa: BLE001 -- malformed output fails the case
            error = traceback.format_exc(limit=3).strip()
    return Outcome(case, wall, cpu, error)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
