"""End-to-end acceptance checks for the package.

Thirteen criteria, one test function each, run against the verification
matrix of small general linear groups

    GL2(2) at l = 3, 5;  GL2(3) at l = 2;  GL2(4) at l = 3, 5;
    GL3(2) at l = 3, 7;  GL3(3) at l = 2, 13.

Every comparison is exact (integer or finite-field equality); the few
timed criteria assert a wall-clock budget on top.  Each test prints one
``criterion NN (<name>): pass|FAIL`` line summarizing its verdict.
"""

import time

import numpy as np

from steinberg.bngroup import build_gl
from steinberg.combinat import (
    _series_coefficient,
    _special_parts,
    composition_length_gl,
    composition_length_gu,
    is_linear_prime,
    quantum_characteristic,
    quantum_characteristic_twisted,
    socle_partition,
)
from steinberg.gf import field
from steinberg.hecke import (
    act_on_borel_module,
    alternating_sum_vector,
    borel_matrices_int,
    hecke_for_group,
    sign_eigenspace,
)
from steinberg.meataxe import (
    composition_factors,
    composition_series,
    factor_multiplicities,
    is_irreducible,
    multiplicity_of,
)
from steinberg.modrep import (
    gelfand_graev,
    parabolic_perm_module,
    socle_of_steinberg,
    steinberg_module,
)
from steinberg.refdata import decomposition_table, select_lambda0, select_mu0

MATRIX = [
    (2, 2, 3), (2, 2, 5),
    (2, 3, 2),
    (2, 4, 3), (2, 4, 5),
    (3, 2, 3), (3, 2, 7),
    (3, 3, 2), (3, 3, 13),
]

_groups: dict = {}
_st: dict = {}
_series: dict = {}
_socles: dict = {}


def group(n, q):
    key = (n, q)
    if key not in _groups:
        _groups[key] = build_gl(n, q)
    return _groups[key]


def st_data(n, q, ell):
    key = (n, q, ell)
    if key not in _st:
        _st[key] = steinberg_module(group(n, q), ell)
    return _st[key]


def series_data(n, q, ell):
    key = (n, q, ell)
    if key not in _series:
        _series[key] = composition_series(st_data(n, q, ell).module)
    return _series[key]


def socle_data(n, q, ell):
    key = (n, q, ell)
    if key not in _socles:
        _, factors = series_data(n, q, ell)
        _socles[key] = socle_of_steinberg(group(n, q), st_data(n, q, ell),
                                          factors)
    return _socles[key]


def _is_trivial_module(M) -> bool:
    if M.dim != 1:
        return False
    eye = M.field.identity(1)
    return all(np.array_equal(m, eye) for m in M.mats)


def _conclude(num: int, name: str, failures: list) -> None:
    print(f"criterion {num:02d} ({name}): {'FAIL' if failures else 'pass'}")
    assert not failures, f"criterion {num:02d} ({name}): " + "; ".join(failures)


def test_criterion_01_sign_eigenvector():
    # every double-coset operator fixes the alternating Weyl sum up to the
    # sign of the Weyl element, over the integers and over GF(l)
    failures = []
    start = time.monotonic()
    for n, q, ell in MATRIX:
        G = group(n, q)
        W = G.weyl
        e = alternating_sum_vector(G)
        F = field(ell)
        e_mod = F.from_int(e)
        ints = borel_matrices_int(G)
        for w in range(W.order):
            sign = -1 if W.length(w) % 2 else 1
            if not np.array_equal(ints[w] @ e, sign * e):
                failures.append(f"integer eigenvector fails at {n},{q},{ell} w={w}")
            m = act_on_borel_module(G, ell, w)
            want = F.scale(F.from_int(sign), e_mod)
            if not np.array_equal(F.mat_vec(m, e_mod), want):
                failures.append(f"mod-{ell} eigenvector fails at {n},{q},{ell} w={w}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"matrix sweep took {elapsed:.1f}s (budget 60s)")
    _conclude(1, "sign eigenvector", failures)


def test_criterion_02_steinberg_dimension():
    # the spun submodule has dimension |U| in every case
    failures = []
    for n, q, ell in MATRIX:
        G = group(n, q)
        st = st_data(n, q, ell)
        if st.module.dim != G.order_u or st.basis.shape[0] != G.order_u:
            failures.append(
                f"{n},{q},{ell}: dim {st.module.dim} != |U| = {G.order_u}")
    _conclude(2, "dimension equals |U|", failures)


def test_criterion_03_irreducibility_vs_index():
    # irreducible over GF(l) exactly when l does not divide the flag count,
    # checked in both directions with a genuine submodule witness otherwise
    failures = []
    for n, q, ell in MATRIX:
        G = group(n, q)
        st = st_data(n, q, ell)
        verdict, witness = is_irreducible(st.module)
        if verdict != (G.index % ell != 0):
            failures.append(
                f"{n},{q},{ell}: verdict {verdict} vs index {G.index} mod {ell}")
        if not verdict and not (0 < witness.shape[0] < st.module.dim):
            failures.append(f"{n},{q},{ell}: bad witness shape {witness.shape}")
    _conclude(3, "irreducibility iff l does not divide the flag count", failures)


def test_criterion_04_socle_simplicity():
    # the spun image of the unipotent-sum operator is irreducible, the
    # unipotent fixed space of the module is a line, and the socle occurs
    # exactly once in a full composition series
    failures = []
    for n, q, ell in MATRIX:
        try:
            sd = socle_data(n, q, ell)
        except Exception as exc:
            failures.append(f"{n},{q},{ell}: socle construction failed: {exc}")
            continue
        verdict, _ = is_irreducible(sd.module)
        if not verdict:
            failures.append(f"{n},{q},{ell}: socle not irreducible")
        if sd.fix_dim != 1:
            failures.append(f"{n},{q},{ell}: fixed space dim {sd.fix_dim}")
        _, factors = series_data(n, q, ell)
        mult = multiplicity_of(sd.module, factors)
        if mult != 1:
            failures.append(f"{n},{q},{ell}: socle multiplicity {mult}")
    _conclude(4, "socle simple with multiplicity one", failures)


def test_criterion_05_trivial_socle_rule():
    # the socle is the trivial module exactly when q = -1 mod l; away from
    # that case, when l divides the flag count, the trivial module does not
    # occur among the composition factors at all
    failures = []
    for n, q, ell in MATRIX:
        G = group(n, q)
        sd = socle_data(n, q, ell)
        is_triv = _is_trivial_module(sd.module)
        want = (q + 1) % ell == 0
        if is_triv != want:
            failures.append(
                f"{n},{q},{ell}: trivial socle {is_triv}, expected {want}")
        if not want and G.index % ell == 0:
            _, factors = series_data(n, q, ell)
            if any(f.module is not None and _is_trivial_module(f.module)
                   for f in factors):
                failures.append(f"{n},{q},{ell}: trivial factor present")
    _conclude(5, "trivial socle iff q = -1 mod l", failures)


def test_criterion_06_eigenspace_identification():
    # the common (-1)-eigenspace of the simple operators equals the spun
    # submodule as a subspace (identical canonical bases)
    failures = []
    for n, q, ell in MATRIX:
        G = group(n, q)
        st = st_data(n, q, ell)
        eig = sign_eigenspace(G, ell)
        if not np.array_equal(eig, st.basis):
            failures.append(f"{n},{q},{ell}: eigenspace differs from submodule")
    _conclude(6, "eigenspace equals spun submodule", failures)


def test_criterion_07_composition_length():
    # the computed composition length agrees with the partition-counting
    # formula; three cases are pinned to the literal value 2
    failures = []
    named = [(3, 2, 7, 2), (2, 2, 3, 2), (2, 3, 2, 2)]
    start = time.monotonic()
    for n, q, ell, expected in named:
        factors = composition_factors(st_data(n, q, ell).module)
        if len(factors) != expected:
            failures.append(f"{n},{q},{ell}: length {len(factors)} != {expected}")
        if composition_length_gl(n, q, ell) != expected:
            failures.append(f"{n},{q},{ell}: formula disagrees with {expected}")
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"named cases took {elapsed:.1f}s (budget 120s)")
    for n, q, ell in MATRIX:
        _, factors = series_data(n, q, ell)
        want = composition_length_gl(n, q, ell)
        if len(factors) != want:
            failures.append(f"{n},{q},{ell}: length {len(factors)} != {want}")
    _conclude(7, "composition length matches the counting formula", failures)


def test_criterion_08_multiplicity_free():
    # no composition factor repeats, in any case of the matrix
    failures = []
    for n, q, ell in MATRIX:
        _, factors = series_data(n, q, ell)
        for rep, mult in factor_multiplicities(factors):
            if mult != 1:
                failures.append(
                    f"{n},{q},{ell}: factor of dim {rep.dim} has mult {mult}")
    _conclude(8, "multiplicity-free", failures)


def test_criterion_09_parabolic_socle_location():
    # for GL3(2) at l = 7 the socle occurs once in the permutation module
    # on the (2,1) parabolic and not at all in the one on the full group,
    # matching the partition label computed for n = 3, e = 3
    failures = []
    G = group(3, 2)
    Y = socle_data(3, 2, 7).module
    in_21 = multiplicity_of(Y, composition_factors(parabolic_perm_module(G, (2, 1), 7)))
    in_3 = multiplicity_of(Y, composition_factors(parabolic_perm_module(G, (3,), 7)))
    if in_21 != 1:
        failures.append(f"multiplicity in the (2,1) module is {in_21}, not 1")
    if in_3 != 0:
        failures.append(f"multiplicity in the (3) module is {in_3}, not 0")
    e = quantum_characteristic(2, 7)
    if socle_partition(3, e) != (2, 1):
        failures.append(f"socle partition for n=3, e={e} is not (2,1)")
    _conclude(9, "socle located by the partition label", failures)


def _count_padded_partitions(n: int, e: int, ell: int) -> int:
    """Partitions of n with parts in {1} union {e * l^j}, counted directly.

    Counts multisets of the special parts with total at most n; the
    remainder is filled by parts equal to 1 in exactly one way.
    """
    sizes = []
    part = e
    while part <= n:
        sizes.append(part)
        part *= ell
    total = 0

    def rec(i, remaining):
        nonlocal total
        if i == len(sizes):
            total += 1
            return
        step = sizes[i]
        used = 0
        while used <= remaining:
            rec(i + 1, remaining - used)
            used += step

    rec(0, n)
    return total


def test_criterion_10_counting_identity():
    # the generating-function coefficient equals a direct enumeration for
    # every n <= 30, e in 2..10 and l in {2,3,5,7}; the unitary count is
    # checked through its public entry point for every linear pair, where
    # the half-rank runs up to 15
    failures = []
    start = time.monotonic()
    for e in range(2, 11):
        for ell in (2, 3, 5, 7):
            for n in range(1, 31):
                series = _series_coefficient(n, _special_parts(n, e, ell))
                brute = _count_padded_partitions(n, e, ell)
                if series != brute:
                    failures.append(f"gl n={n} e={e} l={ell}: {series} != {brute}")
    for q in (2, 3, 4, 5):
        for ell in (2, 3, 5, 7):
            if q % ell == 0 or not is_linear_prime(2, q, ell):
                continue
            e_t = int(quantum_characteristic_twisted(q, ell))
            for n in range(1, 31):
                got = composition_length_gu(n, q, ell)
                want = _count_padded_partitions(n // 2, e_t, ell)
                if got != want:
                    failures.append(f"gu n={n} q={q} l={ell}: {got} != {want}")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"counting sweep took {elapsed:.1f}s (budget 10s)")
    _conclude(10, "series coefficients match enumeration", failures)


def test_criterion_11_stored_table_selection():
    # the stored tables select sigma_2 at e = 2 and eps_1 at e = 4, and in
    # both the top cell is eps with the strictly maximal a-invariant 12
    failures = []
    expected_mu0 = {2: "sigma_2", 4: "eps_1"}
    for e, want in expected_mu0.items():
        table = decomposition_table("2F4", e)
        mu0 = select_mu0(table)
        if mu0 != want:
            failures.append(f"e={e}: selected {mu0}, expected {want}")
        lam = select_lambda0(table)
        if lam != "eps":
            failures.append(f"e={e}: top cell {lam}, expected eps")
        a_val = table.a_invariants[table.row_labels.index(lam)]
        if a_val != 12 or a_val != max(table.a_invariants):
            failures.append(f"e={e}: a-invariant {a_val}, expected maximal 12")
    _conclude(11, "stored table selections", failures)


def test_criterion_12_hecke_identities():
    # quadratic and braid relations hold for the realized integer matrices
    # and abstractly; the sign and index characters are multiplicative;
    # the parameter-inverting involution exchanges them over GF(l); the
    # identity-coefficient trace is symmetric
    failures = []
    for n, q in sorted({(n, q) for n, q, _ in MATRIX}):
        G = group(n, q)
        W = G.weyl
        ints = borel_matrices_int(G)
        eye = np.eye(G.index, dtype=np.int64)
        for s in range(W.rank):
            m = ints[W.gen_index(s)]
            if not np.array_equal(m @ m, q * eye + (q - 1) * m):
                failures.append(f"GL{n}({q}): realized quadratic fails at s={s}")
        for s in range(W.rank):
            for t in range(s + 1, W.rank):
                order = int(W.coxeter_matrix[s, t])
                a = eye.copy()
                b = eye.copy()
                for i in range(order):
                    a = a @ ints[W.gen_index(s if i % 2 == 0 else t)]
                    b = b @ ints[W.gen_index(t if i % 2 == 0 else s)]
                if not np.array_equal(a, b):
                    failures.append(f"GL{n}({q}): realized braid fails at {s},{t}")
        H = hecke_for_group(G)
        if not H.check_quadratic():
            failures.append(f"GL{n}({q}): abstract quadratic fails")
        if not H.check_braid():
            failures.append(f"GL{n}({q}): abstract braid fails")
        basis = [H.basis(w) for w in range(W.order)]
        for x in basis:
            for y in basis:
                xy = H.multiply(x, y)
                yx = H.multiply(y, x)
                if H.char_eps(xy) != H.char_eps(x) * H.char_eps(y):
                    failures.append(f"GL{n}({q}): sign character not multiplicative")
                if H.char_ind(xy) != H.char_ind(x) * H.char_ind(y):
                    failures.append(f"GL{n}({q}): index character not multiplicative")
                if H.trace(xy) != H.trace(yx):
                    failures.append(f"GL{n}({q}): trace not symmetric")
    for n, q, ell in MATRIX:
        G = group(n, q)
        HF = hecke_for_group(G, field(ell))
        for w in range(G.weyl.order):
            t_w = HF.basis(w)
            image = HF.gamma(t_w)
            if HF.char_eps(image) != HF.char_ind(t_w):
                failures.append(f"{n},{q},{ell}: eps after gamma != ind at w={w}")
            if HF.char_ind(image) != HF.char_eps(t_w):
                failures.append(f"{n},{q},{ell}: ind after gamma != eps at w={w}")
    _conclude(12, "Hecke relations, characters, involution, trace", failures)


def test_criterion_13_gelfand_graev():
    # the weighted unipotent sum squares to |U| times itself, its image in
    # the spun submodule is a line, and the head of the regular-character
    # module occurs exactly once among the composition factors
    failures = []
    for n, q, ell in [(2, 2, 3), (2, 3, 2)]:
        gg = gelfand_graev(group(n, q), ell)
        if not gg.idempotent_ok:
            failures.append(f"{n},{q},{ell}: weighted sum is not quasi-idempotent")
        if gg.image_dim != 1:
            failures.append(f"{n},{q},{ell}: image dimension {gg.image_dim}")
        if gg.head_multiplicity != 1:
            failures.append(f"{n},{q},{ell}: head multiplicity {gg.head_multiplicity}")
    _conclude(13, "Gelfand-Graev head occurs once", failures)
