"""Command-line interface: schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

from steinberg import cli, hecke, meataxe, modrep
from steinberg.bngroup import GLGroup, build_gl
from steinberg.caps import MAX_DENSE_DIM
from steinberg.cli import main
from steinberg.gf import FieldError
from steinberg.meataxe import DEFAULT_SEED, ModuleCapError
from steinberg.modrep import ModRepError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_socle_label_example(capsys):
    code, payload = run_json(
        capsys, "socle-label", "--n", "3", "--q", "2", "--ell", "7")
    assert code == 0
    assert payload == {"e": 3, "mu0": "(2,1)"}


def test_socle_label_characteristic_zero_and_bad_input(capsys):
    code, payload = run_json(
        capsys, "socle-label", "--n", "3", "--q", "2", "--ell", "0")
    assert code == 0
    assert payload == {"e": None, "mu0": "(1,1,1)"}
    code, payload = run_json(
        capsys, "socle-label", "--n", "3", "--q", "2", "--ell", "2")
    assert code == 2
    assert payload["error"]["code"] == "CombinatError"


def test_comp_length_gl_and_gu(capsys):
    code, payload = run_json(
        capsys, "comp-length", "--type", "gu",
        "--n", "4", "--q", "2", "--ell", "5")
    assert code == 0
    assert payload == {"etilde": 2, "linear": True, "length": 2}
    code, payload = run_json(
        capsys, "comp-length", "--type", "gl",
        "--n", "3", "--q", "2", "--ell", "7")
    assert code == 0
    assert payload == {"e": 3, "linear": True, "length": 2}


def test_comp_length_gu_rejects_nonlinear_prime(capsys):
    code, payload = run_json(
        capsys, "comp-length", "--type", "gu",
        "--n", "4", "--q", "2", "--ell", "3")
    assert code == 2
    assert payload["error"]["code"] == "NonLinearPrimeError"


def test_verify_reducible_case_passes_and_is_deterministic(capsys):
    code, out1 = run(capsys, "verify", "--n", "2", "--q", "2", "--ell", "3")
    assert code == 0
    code, out2 = run(capsys, "verify", "--n", "2", "--q", "2", "--ell", "3")
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["group"] == {"type": "GL", "n": 2, "q": 2}
    assert payload["ell"] == 3
    assert payload["seed"] == DEFAULT_SEED
    assert payload["timings"] is None
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names)) == 9
    assert all(c["pass"] for c in payload["checks"])
    assert payload["factors"] == [{"dim": 1, "mult": 1}, {"dim": 1, "mult": 1}]


def test_verify_timings_are_opt_in(capsys):
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--q", "2", "--ell", "3", "--timings")
    assert code == 0
    timings = payload["timings"]
    assert list(timings) == ["build_group", "cell_table",
                             "integer_eigenvector", "modular_eigenspace",
                             "meataxe", "socle", "total"]
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())
    code, out = run(capsys, "verify", "--n", "2", "--q", "2", "--ell", "3",
                    "--format", "text")
    assert code == 0
    assert any(line.strip().startswith("timings:") for line in out.splitlines())


def test_verify_irreducible_branch(capsys):
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--q", "2", "--ell", "5")
    assert code == 0
    assert all(c["pass"] for c in payload["checks"])
    assert payload["factors"] == [{"dim": 2, "mult": 1}]


def test_verify_rejects_equal_characteristic(capsys):
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--q", "2", "--ell", "2")
    assert code == 2
    assert payload["error"]["code"] == "ModRepError"


def _socle_raising(exc):
    def socle_of_steinberg(G, steinberg, factors):
        raise exc
    return socle_of_steinberg


def test_verify_failed_socle_claim_is_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "socle_of_steinberg",
                        _socle_raising(ModRepError("socle is not simple")))
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--q", "2", "--ell", "3")
    assert code == 1
    socle = next(c for c in payload["checks"]
                 if c["name"] == "socle_simple_and_unique")
    assert socle == {"name": "socle_simple_and_unique", "pass": False,
                     "details": "socle is not simple"}


@pytest.mark.parametrize("exc", [
    FieldError("matrix dimension exceeds cap 2048"),
    ModuleCapError("induced module exceeds cap"),
])
def test_verify_cap_hit_in_socle_step_exits_2(capsys, monkeypatch, exc):
    monkeypatch.setattr(cli, "socle_of_steinberg", _socle_raising(exc))
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--q", "2", "--ell", "3")
    assert code == 2
    assert payload["error"] == {"code": type(exc).__name__,
                                "message": str(exc)}


def test_verify_builds_the_alternating_vector_once(capsys, monkeypatch):
    calls = []

    def counted(G):
        calls.append(G)
        return hecke.alternating_sum_vector(G)

    monkeypatch.setattr(cli, "alternating_sum_vector", counted)
    monkeypatch.setattr(modrep, "alternating_sum_vector", counted)
    code, _ = run_json(capsys, "verify", "--n", "2", "--q", "2", "--ell", "3")
    assert code == 0
    assert len(calls) == 1


def test_verify_reads_hecke_operators_from_the_cell_table(capsys, monkeypatch):
    # the panel certificate reads the s-adjacent flags off the cell table,
    # so verify builds no operator matrix at all
    calls = []
    original = hecke.act_on_borel_module

    def counted(G, ell, w):
        calls.append(w)
        return original(G, ell, w)

    monkeypatch.setattr(hecke, "act_on_borel_module", counted)
    monkeypatch.setattr(cli, "act_on_borel_module", counted, raising=False)
    code, _ = run_json(capsys, "verify", "--n", "3", "--q", "2", "--ell", "7")
    assert code == 0
    assert len(calls) == 0


def _refuse(*args, **kwargs):
    raise AssertionError("verify left its fast path")


def test_verify_takes_no_eigenspace_kernel_and_spins_no_steinberg(
        capsys, monkeypatch):
    # the apartment rows need no spin and no restriction, the panel
    # certificate stands in for the eigenspace kernel, and nothing reads
    # the canonical basis
    monkeypatch.setattr(hecke, "sign_eigenspace", _refuse)
    monkeypatch.setattr(cli, "sign_eigenspace", _refuse, raising=False)
    monkeypatch.setattr(modrep.SteinbergData, "basis", property(_refuse))
    code, payload = run_json(
        capsys, "verify", "--n", "3", "--q", "2", "--ell", "7")
    assert code == 0
    assert all(c["pass"] for c in payload["checks"])
    for name in ("_spin_rows", "_restrict", "submodule_module"):
        monkeypatch.setattr(meataxe, name, _refuse)
    monkeypatch.setattr(modrep, "spin", _refuse)
    monkeypatch.setattr(modrep, "submodule_module", _refuse)
    for n, q, ell in ((3, 2, 7), (3, 5, 2), (4, 2, 3)):
        assert modrep.steinberg_module(build_gl(n, q), ell).module.dim == \
            q ** (n * (n - 1) // 2)


def _failed_checks(payload):
    return [c["name"] for c in payload["checks"] if not c["pass"]]


def test_verify_corrupted_apartment_row_fails_steinberg_rank(
        capsys, monkeypatch):
    # row 1 of GL_3(2) with its chamber in cell s_1 moved to another flag
    # of that cell: the generators no longer keep the rows' span
    apartments = modrep._apartments

    def corrupted(G):
        big_cell, support, signs = apartments(G)
        s = G.weyl.gen_index(0)
        cell = np.flatnonzero(G.cell_table[0] == s)
        support[1, s] = cell[cell != support[1, s]][0]
        return big_cell, support, signs

    monkeypatch.setattr(modrep, "_apartments", corrupted)
    code, payload = run_json(
        capsys, "verify", "--n", "3", "--q", "2", "--ell", "7")
    assert code == 1
    assert len(payload["checks"]) == 9
    rank = next(c for c in payload["checks"] if c["name"] == "steinberg_rank")
    assert rank["pass"] is False
    assert "apartment row" in rank["details"]
    assert _failed_checks(payload)[0] == "steinberg_rank"
    assert payload["factors"] == []


def test_verify_failed_certificate_fails_the_eigenspace_check(
        capsys, monkeypatch):
    # flags 1 and b, s_1-adjacent, each listed as adjacent to itself in
    # place of the other: the apartment rows no longer sum to 0 over it
    adjacent_flags = hecke._adjacent_flags

    def unlinked(G, s):
        adjacent = adjacent_flags(G, s)
        b = adjacent[1, 0]
        adjacent[1, 0] = 1
        adjacent[b, list(adjacent[b]).index(1)] = b
        return adjacent

    monkeypatch.setattr(hecke, "_adjacent_flags", unlinked)
    code, payload = run_json(
        capsys, "verify", "--n", "3", "--q", "2", "--ell", "7")
    assert code == 1
    assert len(payload["checks"]) == 9
    assert _failed_checks(payload) == ["eigenspace_equals_steinberg"]


def test_verify_builds_no_permutation_matrix(capsys, monkeypatch):
    # permutation modules are spun and restricted by index gathers
    calls = []
    original = meataxe._perm_matrix

    def counted(perm):
        calls.append(len(perm))
        return original(perm)

    monkeypatch.setattr(meataxe, "_perm_matrix", counted)
    code, _ = run_json(capsys, "verify", "--n", "3", "--q", "2", "--ell", "7")
    assert code == 0
    assert calls == []
    # the count sees a module whose matrices are read
    flags = modrep.borel_module(build_gl(2, 2), 3)
    assert len(flags.mats) == len(calls) > 0


def test_verify_gl42_ell7_socle_needs_no_kronecker_system(capsys):
    # the 19-dimensional socle's hom space: 6 * 19 * 19 = 2166 rows in one
    # Kronecker system, over the dense cap; 361 per generator
    code, payload = run_json(
        capsys, "verify", "--n", "4", "--q", "2", "--ell", "7")
    assert code == 0
    assert len(payload["checks"]) == 9
    assert all(c["pass"] for c in payload["checks"])
    assert payload["factors"] == [{"dim": 19, "mult": 1},
                                  {"dim": 45, "mult": 1}]


def test_verify_gl37_ell2_largest_passing_rung(capsys):
    # 456 flags, a 343-dimensional Steinberg module over GF(2)
    code, payload = run_json(
        capsys, "verify", "--n", "3", "--q", "7", "--ell", "2")
    assert code == 0
    assert len(payload["checks"]) == 9
    assert all(c["pass"] for c in payload["checks"])
    assert payload["factors"] == [{"dim": 1, "mult": 1},
                                  {"dim": 342, "mult": 1}]


def test_verify_irreducible_case_beyond_the_hom_space_cap(capsys):
    # socle and Steinberg factor are both 64-dimensional with equal
    # matrices; a hom space between them would solve a 4096-row system
    code, payload = run_json(
        capsys, "verify", "--n", "3", "--q", "4", "--ell", "11")
    assert code == 0
    assert len(payload["checks"]) == 9
    assert all(c["pass"] for c in payload["checks"])
    assert payload["factors"] == [{"dim": 64, "mult": 1}]


@pytest.mark.parametrize("n, q, ell", [
    (2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 4, 3), (2, 4, 5), (3, 2, 3),
    (3, 2, 7), (3, 3, 2), (3, 3, 13), (3, 5, 2), (4, 2, 3)])
def test_verify_builds_no_certificate_and_no_hom_space(
        capsys, monkeypatch, n, q, ell):
    # dimensions and equal matrices settle every factor comparison verify
    # makes on the acceptance matrix and the two benchmark ladder rungs
    def refuse(*args):
        raise AssertionError("verify left its fast path")

    monkeypatch.setattr(meataxe.CompositionFactor, "certificate",
                        property(refuse))
    monkeypatch.setattr(meataxe, "hom_space", refuse)
    monkeypatch.setattr(modrep, "hom_space", refuse)
    code, payload = run_json(
        capsys, "verify", "--n", str(n), "--q", str(q), "--ell", str(ell))
    assert code == 0
    assert all(c["pass"] for c in payload["checks"])


def test_verify_spins_no_set_aside_vector_of_a_settled_sample(
        capsys, monkeypatch):
    # a sampled theta with a factor whose kernel has dimension deg f settles
    # the Norton verdict by that factor, so the kernel vectors set aside
    # from its other factors are never spun
    samples, spins = [], []
    candidates, spin_rows = meataxe._factor_candidates, meataxe._spin_rows

    def recorded_candidates(F, theta, cp):
        sample = {"certifies": False, "set_aside": []}
        samples.append(sample)
        for f, fmat, null_basis in candidates(F, theta, cp):
            if null_basis.shape[0] == len(f) - 1:
                sample["certifies"] = True
            else:
                sample["set_aside"].append(null_basis)
            yield f, fmat, null_basis

    def recorded_spin(F, gens, dim, seeds):
        spins.append((samples[-1] if samples else None, seeds))
        return spin_rows(F, gens, dim, seeds)

    monkeypatch.setattr(meataxe, "_factor_candidates", recorded_candidates)
    monkeypatch.setattr(meataxe, "_spin_rows", recorded_spin)
    code, payload = run_json(
        capsys, "verify", "--n", "3", "--q", "5", "--ell", "2")
    assert code == 0
    assert all(c["pass"] for c in payload["checks"])
    # the check has something to find: some settled samples set vectors aside
    assert any(s["set_aside"] for s in samples if s["certifies"])
    wasted = [seeds for sample, seeds in spins
              if sample is not None and sample["certifies"] and any(
                  np.shares_memory(seeds, null)
                  for null in sample["set_aside"])]
    assert wasted == []


@pytest.mark.parametrize("command", ["verify", "hecke-check"])
def test_oversized_group_is_refused_before_any_flag_work(
        capsys, monkeypatch, command):
    def untouchable(self):
        raise AssertionError("flag work started on an oversized group")

    monkeypatch.setattr(GLGroup, "cosets", property(untouchable))
    monkeypatch.setattr(GLGroup, "cell_table", property(untouchable))
    code, payload = run_json(
        capsys, command, "--n", "4", "--q", "3", "--ell", "2")
    assert code == 2
    assert payload["error"] == {
        "code": "FieldError",
        "message": f"flag count 2080 exceeds cap {MAX_DENSE_DIM}"}


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("STEINBERG_SEED", "999")
    _, payload = run_json(
        capsys, "verify", "--n", "2", "--q", "2", "--ell", "3")
    assert payload["seed"] == 999
    _, payload = run_json(
        capsys, "verify", "--n", "2", "--q", "2", "--ell", "3",
        "--seed", "123")
    assert payload["seed"] == 123
    monkeypatch.setenv("STEINBERG_SEED", "not-a-number")
    code, payload = run_json(
        capsys, "verify", "--n", "2", "--q", "2", "--ell", "3")
    assert code == 2
    assert payload["error"]["code"] == "ValueError"


def test_hecke_check_payload(capsys):
    code, payload = run_json(
        capsys, "hecke-check", "--n", "2", "--q", "2", "--ell", "3")
    assert code == 0
    assert payload == {
        "group": {"type": "GL", "n": 2, "q": 2},
        "ell": 3,
        "relations_ok": True,
        "lemma22_ok": True,
        "eigenspace_dim": 2,
    }


def test_group_report(capsys):
    code, payload = run_json(capsys, "group-report", "--n", "2", "--q", "3")
    assert code == 0
    assert payload["orders"] == {"G": 48, "B": 12, "U": 3, "H": 4}
    assert payload["index"] == 4
    assert payload["bruhat_selftest"] == "pass"


def test_table_lookup_and_socle_table_fallback(capsys):
    code, payload = run_json(capsys, "table", "--type", "2F4", "--e", "2")
    assert code == 0
    assert payload == {"type": "2F4", "e": 2, "mu0": "sigma_2",
                       "tie": False, "lambda0": "eps"}
    code, payload = run_json(capsys, "table", "--type", "2F4", "--e", "4")
    assert code == 0
    assert payload["mu0"] == "eps_1"
    code, payload = run_json(capsys, "table", "--type", "G2", "--e", "3")
    assert code == 0
    assert payload == {"type": "G2", "e": 3, "mu0": "sigma_2",
                       "tie": None, "lambda0": None}
    code, payload = run_json(capsys, "table", "--type", "B17", "--e", "2")
    assert code == 2
    assert payload["error"]["code"] == "RefDataError"


def test_max_index_cap(capsys):
    code, payload = run_json(capsys, "group-report", "--n", "5", "--q", "3")
    assert code == 2
    assert payload["error"]["code"] == "GroupError"


def test_text_format(capsys):
    code, out = run(capsys, "socle-label", "--n", "3", "--q", "2",
                    "--ell", "7", "--format", "text")
    assert code == 0
    assert out.splitlines() == ["e = 3", "mu0 = (2,1)"]
    code, out = run(capsys, "verify", "--n", "2", "--q", "2", "--ell", "3",
                    "--format", "text")
    assert code == 0
    assert "overall: pass" in out
    code, out = run(capsys, "verify", "--n", "2", "--q", "2", "--ell", "2",
                    "--format", "text")
    assert code == 2
    assert "error (ModRepError)" in out


def test_unknown_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_verify_evaluates_one_word_and_one_large_charpoly_on_gl3_5(
        capsys, monkeypatch):
    # the Norton sample drawn on the 125-dimensional Steinberg module is
    # handed down to both pieces of its split: neither evaluates the word
    # again, and the 124-dimensional one gets its polynomial by division
    evaluated, sides = [], []
    algebra_element, charpoly = meataxe.algebra_element, meataxe.charpoly

    def counted_element(M, word):
        evaluated.append(M.dim)
        return algebra_element(M, word)

    def counted_charpoly(F, A):
        sides.append(A.shape[0])
        return charpoly(F, A)

    monkeypatch.setattr(meataxe, "algebra_element", counted_element)
    monkeypatch.setattr(meataxe, "charpoly", counted_charpoly)
    code, payload = run_json(
        capsys, "verify", "--n", "3", "--q", "5", "--ell", "2")
    assert code == 0
    assert all(c["pass"] for c in payload["checks"])
    assert evaluated == [125]
    assert sides[0] == 125 and all(side <= 62 for side in sides[1:])


def test_the_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    argv = ("comp-length", "--type", "gl", "--n", "3", "--q", "5",
            "--ell", "2")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
