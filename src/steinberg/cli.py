"""Command-line interface: verification suites, reports, formula lookups.

Six subcommands: `verify` runs the whole invariant suite for one
(n, q, ell) triple; `comp-length` and `socle-label` evaluate the
composition-length and socle-label formulas; `hecke-check` summarizes the
realized Hecke relations and the sign eigenvector; `group-report` prints
group bookkeeping with a Bruhat self-test; `table` looks up the bundled
decomposition data.

Output is JSON by default (stable key order, byte-identical for identical
seed and flags) or a plain text rendering via --format text.  The seed
comes from --seed, else the STEINBERG_SEED environment variable, else the
library default.  Exit status: 0 all checks pass, 1 a check failed,
2 usage, cap or input errors.  `verify` and `hecke-check` refuse a group
with more flags than caps.MAX_DENSE_DIM (exit 2, FieldError) before any
work starts; a cap hit partway through verify also exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .bngroup import build_gl
from .caps import MAX_DENSE_DIM
from .combinat import (
    composition_length_gl,
    composition_length_gu,
    format_partition,
    quantum_characteristic,
    quantum_characteristic_twisted,
    socle_partition,
)
from .gf import FieldError
from .hecke import (
    alternating_sum_vector,
    certify_sign_eigenspace,
    hecke_check,
    is_sign_eigenvector,
)
from .meataxe import (
    DEFAULT_SEED,
    composition_factors,
    factor_multiplicities,
)
from .modrep import (
    ModRepError,
    socle_of_steinberg,
    steinberg_element,
    steinberg_module,
)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("STEINBERG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"STEINBERG_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _finite_or_none(e):
    return None if e == math.inf else int(e)


# -- verify ------------------------------------------------------------------


# the checks after steinberg_rank, which need the Steinberg module
_MODULE_CHECKS = ("eigenspace_equals_steinberg", "irreducibility_matches_index",
                  "composition_length_formula", "multiplicity_free",
                  "socle_simple_and_unique", "trivial_socle_iff_q_minus_one")


def _check(checks, name, ok, details):
    checks.append({"name": name, "pass": bool(ok), "details": details})


def _is_trivial(M) -> bool:
    return M.dim == 1 and all(np.array_equal(A, [[1]]) for A in M.mats)


def cmd_verify(args) -> tuple:
    seed = _resolve_seed(args.seed)
    n, q, ell = args.n, args.q, args.ell
    timings = {}
    t_last = time.perf_counter()

    def lap(name):
        nonlocal t_last
        now = time.perf_counter()
        timings[name] = round(now - t_last, 6)
        t_last = now

    G = build_gl(n, q)
    if G.index > MAX_DENSE_DIM:
        raise FieldError(f"flag count {G.index} exceeds cap {MAX_DENSE_DIM}")
    W = G.weyl
    checks = []
    lap("build_group")

    G.cell_table  # the group layer (cosets, cell table) gets its own lap
    lap("cell_table")

    alternating = alternating_sum_vector(G)
    ok = is_sign_eigenvector(G, alternating)
    _check(checks, "sign_eigenvector_integer", ok,
           f"{W.order} Weyl operators on {G.index} flags")
    lap("integer_eigenvector")

    vector = steinberg_element(G, ell, alternating=alternating)
    _check(checks, "sign_eigenvector_mod_ell",
           is_sign_eigenvector(G, vector, modulus=ell),
           f"entries reduced mod {ell}")

    try:
        data = steinberg_module(G, ell, alternating=alternating)
    except ModRepError as exc:
        # a failed check on the apartment rows leaves no module for the
        # checks that follow; cap hits and other errors reach main
        _check(checks, "steinberg_rank", False, str(exc))
        for name in _MODULE_CHECKS:
            _check(checks, name, False, "no Steinberg module")
        return _verify_payload(args, seed, checks, [], timings), False
    st_dim = data.module.dim
    _check(checks, "steinberg_rank", st_dim == G.order_u,
           f"dim={st_dim}, |U|={G.order_u}")

    certified = certify_sign_eigenspace(G, ell, data.support, data.signs,
                                        data.big_cell)
    _check(checks, "eigenspace_equals_steinberg", certified,
           f"common (-1)-eigenspace dimension {st_dim}" if certified else
           "the apartment rows fail the panel certificate")
    lap("modular_eigenspace")

    # the factor list is one entry exactly when its first Norton test says
    # irreducible: a reducible verdict splits off a proper nonzero witness
    factors = composition_factors(data.module, seed)
    verdict = len(factors) == 1
    divisible = G.index % ell == 0
    _check(checks, "irreducibility_matches_index", verdict != divisible,
           f"index={G.index}, divisible={divisible}, "
           f"verdict={'irreducible' if verdict else 'reducible'}")

    expected = composition_length_gl(n, q, ell)
    _check(checks, "composition_length_formula", len(factors) == expected,
           f"meataxe length {len(factors)}, formula {expected}")

    grouped = factor_multiplicities(factors)
    _check(checks, "multiplicity_free",
           all(mult == 1 for _, mult in grouped),
           f"{len(grouped)} distinct factors among {len(factors)}")
    lap("meataxe")

    trivial_socle = False
    try:
        sd = socle_of_steinberg(G, data, factors)
        # the socle is factors[0], so its multiplicity is that of the
        # first group
        mult = grouped[0][1]
        trivial_socle = _is_trivial(sd.module)
        _check(checks, "socle_simple_and_unique", mult == 1,
               f"socle dim {sd.module.dim}, multiplicity {mult}, "
               f"unipotent fixed dim {sd.fix_dim}")
    except ModRepError as exc:
        # a failed socle claim is a failed check; cap hits and other errors
        # reach main and exit 2
        _check(checks, "socle_simple_and_unique", False, str(exc))

    q_is_minus_one = (q + 1) % ell == 0
    ok = trivial_socle == q_is_minus_one
    details = (f"socle trivial: {trivial_socle}, "
               f"q = -1 mod ell: {q_is_minus_one}")
    if not q_is_minus_one and divisible:
        absent = not any(_is_trivial(f.module) for f in factors)
        ok = ok and absent
        details += f", trivial factor absent: {absent}"
    _check(checks, "trivial_socle_iff_q_minus_one", ok, details)
    lap("socle")
    return (_verify_payload(args, seed, checks, grouped, timings),
            all(c["pass"] for c in checks))


def _verify_payload(args, seed, checks, grouped, timings) -> dict:
    timings["total"] = round(sum(timings.values()), 6)
    # timings go to JSON only on request, to keep the default output
    # byte-identical across runs with the same seed and flags
    want_timings = args.timings or args.format == "text"
    return {
        "group": {"type": "GL", "n": args.n, "q": args.q},
        "ell": args.ell,
        "seed": seed,
        "checks": checks,
        "factors": [{"dim": f.dim, "mult": m}
                    for f, m in sorted(grouped, key=lambda t: t[0].dim)],
        "timings": timings if want_timings else None,
    }


def _verify_text(payload) -> str:
    g = payload["group"]
    lines = [f"group GL({g['n']},{g['q']})  ell={payload['ell']}  "
             f"seed={payload['seed']}"]
    for c in payload["checks"]:
        word = "pass" if c["pass"] else "FAIL"
        lines.append(f"  {c['name']}: {word}  ({c['details']})")
    facts = ", ".join(f"dim {f['dim']} x{f['mult']}"
                      for f in payload["factors"])
    lines.append(f"  factors: {facts}")
    if payload["timings"]:
        stamps = "  ".join(f"{k}={v:.3f}s"
                           for k, v in payload["timings"].items())
        lines.append(f"  timings: {stamps}")
    overall = all(c["pass"] for c in payload["checks"])
    lines.append(f"overall: {'pass' if overall else 'FAIL'}")
    return "\n".join(lines)


# -- formula lookups ---------------------------------------------------------


def cmd_comp_length(args) -> tuple:
    if args.type == "gl":
        payload = {
            "e": _finite_or_none(quantum_characteristic(args.q, args.ell)),
            "linear": True,
            "length": composition_length_gl(args.n, args.q, args.ell),
        }
    else:
        length = composition_length_gu(args.n, args.q, args.ell)
        payload = {
            "etilde": _finite_or_none(
                quantum_characteristic_twisted(args.q, args.ell)),
            "linear": True,
            "length": length,
        }
    return payload, True


def cmd_socle_label(args) -> tuple:
    e = quantum_characteristic(args.q, args.ell)
    mu0 = socle_partition(args.n, e)
    return {"e": _finite_or_none(e), "mu0": format_partition(mu0)}, True


def cmd_table(args) -> tuple:
    from . import refdata

    group_type = args.type.strip().upper()
    e = args.e
    if (group_type, e) in refdata.available_decomposition_tables():
        table = refdata.decomposition_table(group_type, e)
        mu0, tie = refdata.select_mu0_info(table)
        payload = {"type": group_type, "e": e, "mu0": mu0, "tie": tie,
                   "lambda0": refdata.select_lambda0(table)}
    else:
        payload = {"type": group_type, "e": e,
                   "mu0": refdata.lookup_socle_label(group_type, e),
                   "tie": None, "lambda0": None}
    return payload, True


# -- group and Hecke reports -------------------------------------------------


def cmd_hecke_check(args) -> tuple:
    G = build_gl(args.n, args.q)
    payload = hecke_check(G, args.ell)
    return payload, payload["relations_ok"] and payload["lemma22_ok"]


def cmd_group_report(args) -> tuple:
    seed = _resolve_seed(args.seed)
    G = build_gl(args.n, args.q)
    payload = G.summary()
    rng = np.random.default_rng(seed)
    samples = [G.identity_element()] + list(G.generators)
    samples += [G.weyl_rep(w) for w in range(G.weyl.order)]
    gens = G.generators
    for _ in range(8):
        g = G.identity_element()
        for _ in range(int(rng.integers(1, 5))):
            g = G.field.mat_mul(g, gens[int(rng.integers(len(gens)))])
        samples.append(g)
    try:
        for g in samples:
            G.bruhat(g)
        payload["bruhat_selftest"] = "pass"
        ok = True
    except ValueError as exc:
        payload["bruhat_selftest"] = f"fail: {exc}"
        ok = False
    return payload, ok


# -- plumbing ----------------------------------------------------------------


def _generic_text(payload, prefix="") -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(_generic_text(value, prefix=f"{prefix}{key}."))
        else:
            lines.append(f"{prefix}{key} = {value}")
    return "\n".join(lines)


def _emit(payload, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif "checks" in payload:
        print(_verify_text(payload))
    else:
        print(_generic_text(payload))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="steinberg",
        description="Exact checks and formulas for modular Steinberg "
                    "modules of small general linear groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="meataxe seed; default from STEINBERG_SEED "
                                "or the library constant")

    p = sub.add_parser("verify", help="run the invariant suite for one "
                                      "(n, q, ell)")
    for flag in ("--n", "--q", "--ell"):
        p.add_argument(flag, type=int, required=True)
    common(p, seed=True)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock stage timings in JSON output "
                        "(makes the output non-reproducible byte for byte)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("comp-length", help="composition length formula")
    p.add_argument("--type", choices=("gl", "gu"), required=True)
    for flag in ("--n", "--q", "--ell"):
        p.add_argument(flag, type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_comp_length)

    p = sub.add_parser("socle-label", help="socle label formula")
    for flag in ("--n", "--q", "--ell"):
        p.add_argument(flag, type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_socle_label)

    p = sub.add_parser("hecke-check", help="realized Hecke relations and "
                                           "sign eigenvector summary")
    for flag in ("--n", "--q", "--ell"):
        p.add_argument(flag, type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_hecke_check)

    p = sub.add_parser("group-report", help="group bookkeeping and Bruhat "
                                            "self-test")
    for flag in ("--n", "--q"):
        p.add_argument(flag, type=int, required=True)
    common(p, seed=True)
    p.set_defaults(func=cmd_group_report)

    p = sub.add_parser("table", help="bundled decomposition-data lookups")
    p.add_argument("--type", required=True)
    p.add_argument("--e", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, ok = args.func(args)
    except ValueError as exc:
        error = {"error": {"code": type(exc).__name__, "message": str(exc)}}
        if args.format == "json":
            print(json.dumps(error, indent=2))
        else:
            print(f"error ({type(exc).__name__}): {exc}")
        return 2
    _emit(payload, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
