"""MeatAxe engine tests on small hand-checkable modules."""

import sys

import numpy as np
import pytest

from steinberg import gf, meataxe
from steinberg import polynomials as poly
from steinberg.bngroup import build_gl
from steinberg.gf import charpoly, field, kernel, rank
from steinberg.meataxe import (
    DEFAULT_SEED,
    GModule,
    MeatAxeError,
    ModuleCapError,
    ZeroModuleError,
    _split,
    algebra_element,
    composition_factors,
    composition_series,
    factor_multiplicities,
    factor_of,
    fixed_points,
    hom_space,
    is_irreducible,
    is_isomorphic,
    multiplicity_of,
    quotient_module,
    same_factor,
    spin,
    submodule_module,
)
from steinberg.modrep import steinberg_module
from test_kernel_oracles import quotient_oracle, submodule_oracle

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)

# order-3 companion matrix of x^2 + x + 1, irreducible over GF(2)
ROT = np.array([[0, 1], [1, 1]], dtype=np.int64)


def rotation_module(F):
    return GModule(F, [ROT], label="order-3 rotation")


def s3_permutation_module(F):
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
    cycle = np.zeros((3, 3), dtype=np.int64)
    cycle[1, 0] = cycle[2, 1] = cycle[0, 2] = 1
    return GModule(F, [swap, cycle], label="S3 on 3 points")


def trivial_module(F, gens=2):
    return GModule(F, [np.array([[1]], dtype=np.int64)] * gens)


def sign_module(F):
    return GModule(F, [np.array([[F.neg(1)]], dtype=np.int64),
                       np.array([[1]], dtype=np.int64)])


def test_irreducible_when_eigenvalues_live_upstairs():
    verdict, witness = is_irreducible(rotation_module(F2))
    assert verdict and witness is None
    # the same matrix acquires eigenvectors over GF(4) and splits
    verdict4, witness4 = is_irreducible(rotation_module(F4))
    assert not verdict4
    assert witness4.shape == (1, 2)
    factors = composition_factors(rotation_module(F4))
    assert sorted(f.dim for f in factors) == [1, 1]
    assert not same_factor(factors[0], factors[1])


def cubic_companion_module():
    # companion matrix of x^3 + x + 1, which has no root mod 5
    C = F5.asarray([[0, 0, 4], [1, 0, 4], [0, 1, 0]])
    return GModule(F5, [C], label="x^3 + x + 1 over GF(5)")


def test_irreducible_through_a_cubic_factor():
    # a sampled element is a polynomial in the companion matrix: its
    # characteristic polynomial is an irreducible cubic or the cube of a
    # linear factor, so only a cubic can certify
    M = cubic_companion_module()
    assert is_irreducible(M) == (True, None)
    assert [f.dim for f in composition_factors(M)] == [3]


def test_norton_evaluates_only_factors_of_the_characteristic_polynomial(
        monkeypatch):
    calls = []

    def recorded(F, f, A):
        calls.append((F, list(f), A.copy()))
        return poly.evaluate_matrix(F, f, A)

    monkeypatch.setattr(meataxe, "evaluate_matrix", recorded)
    for M in (s3_permutation_module(F2), s3_permutation_module(F3),
              s3_permutation_module(F4), rotation_module(F2),
              rotation_module(F4), cubic_companion_module()):
        composition_factors(M)
    assert any(F is F4 for F, _, _ in calls)
    assert {len(f) - 1 for _, f, _ in calls} >= {1, 2, 3}
    for F, f, A in calls:
        assert poly.is_irreducible_poly(F, f) and f[-1] == 1
        assert poly.mod(F, charpoly(F, A), f).tolist() == []


def _doubled(M):
    """M plus itself, with the generators in block-diagonal form."""
    zero = np.zeros((M.dim, M.dim), dtype=np.int64)
    return GModule(M.field, [np.block([[A, zero], [zero, A]]) for A in M.mats],
                   label=f"{M.label} twice")


@pytest.mark.parametrize("M", [
    GModule(F3, [F3.identity(2)], label="identity on GF(3)^2"),
    GModule(F3, [F3.identity(2), F3.scale(2, F3.identity(2))],
            label="scalars on GF(3)^2"),
    _doubled(rotation_module(F2)),
    _doubled(cubic_companion_module()),
], ids=lambda M: M.label)
def test_witness_when_no_sample_has_a_certifying_factor(monkeypatch, M):
    # every factor f of every sampled characteristic polynomial has a kernel
    # of dimension 2 deg f or more, so only the set-aside kernel vectors can
    # give the verdict; they do so on the first sample
    samples = []

    def counted(M, word):
        samples.append(None)
        return algebra_element(M, word)

    monkeypatch.setattr(meataxe, "algebra_element", counted)
    verdict, witness = is_irreducible(M)
    assert not verdict
    assert 0 < rank(M.field, witness) < M.dim
    assert np.array_equal(spin(M, witness), witness)
    assert len(samples) == 1


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2, 99])
def test_a_doubled_simple_module_splits_without_a_head_proof(seed,
                                                             monkeypatch):
    # S + S for the 7-dimensional factor S of GL_3(2) ell=3: every kernel
    # of f(theta) has dimension 2 deg f, so no sample certifies, only a
    # set-aside kernel vector splits it, and no head may be proven
    St = steinberg_module(build_gl(3, 2), 3).module
    M = _doubled(next(f.module for f in composition_factors(St)
                      if f.dim == 7))
    samples = []
    verdict, _ = is_irreducible(M, seed, samples)
    assert not verdict and not M.witness_is_radical and samples
    for _, theta, cp in samples:
        for f, _, null in meataxe._factor_candidates(M.field, theta, cp):
            assert null.shape[0] != len(f) - 1
    monkeypatch.setattr(meataxe, "_annihilator",
                        lambda F, basis: pytest.fail("a head was proven"))
    factors = composition_factors(M, seed)
    assert [f.dim for f in factors] == [7, 7]
    assert same_factor(*factors)


def test_endomorphisms_of_a_point_with_quadratic_splitting_field():
    M = rotation_module(F2)
    homs = hom_space(M, M)
    assert len(homs) == 2
    for X in homs:
        assert np.array_equal(F2.mat_mul(X, ROT), F2.mat_mul(ROT, X))
    double = GModule(F2, [np.block([[ROT, np.zeros((2, 2), int)],
                                    [np.zeros((2, 2), int), ROT]])])
    assert len(hom_space(double, double)) == 8
    factors = composition_factors(double)
    grouped = factor_multiplicities(factors)
    assert len(grouped) == 1 and grouped[0][1] == 2


def test_isomorphism_is_basis_independent():
    M = rotation_module(F2)
    P = np.array([[1, 1], [0, 1]], dtype=np.int64)
    Pinv = np.array([[1, 1], [0, 1]], dtype=np.int64)
    conj = GModule(F2, [F2.mat_mul(F2.mat_mul(P, ROT), Pinv)])
    assert is_isomorphic(M, conj)
    flat = GModule(F2, [F2.identity(2)])
    assert not is_isomorphic(M, flat)


def test_permutation_module_composition_structure():
    M = s3_permutation_module(F3)
    factors = composition_factors(M)
    assert sorted(f.dim for f in factors) == [1, 1, 1]
    assert multiplicity_of(trivial_module(F3), factors) == 2
    assert multiplicity_of(sign_module(F3), factors) == 1
    assert sum(f.dim for f in factors) == M.dim


def match_one_to_one(a, b) -> bool:
    """Whether same_factor pairs the two factor lists off one to one."""
    rest = list(b)
    for f in a:
        hit = next((i for i, g in enumerate(rest) if same_factor(f, g)), None)
        if hit is None:
            return False
        del rest[hit]
    return not rest


def test_two_seeds_agree_on_the_factor_multiset():
    for M in (s3_permutation_module(F3), s3_permutation_module(F2)):
        a = composition_factors(M, seed=11)
        b = composition_factors(M, seed=5077)
        assert match_one_to_one(a, b)
    assert not match_one_to_one(a, a[:1] * len(a))


def test_fixed_points_and_unique_minimal_submodule():
    M = s3_permutation_module(F3)
    fixed = fixed_points(F3, M.mats, M.dim)
    assert np.array_equal(fixed, np.array([[1, 1, 1]]))
    bases, factors = composition_series(M)
    assert np.array_equal(bases[0], np.array([[1, 1, 1]]))
    assert factors[0].dim == 1
    assert same_factor(factors[0], factor_of(trivial_module(F3)))
    head = composition_factors(M)[-1]
    assert head.dim == 1
    assert same_factor(head, factor_of(trivial_module(F3)))


def test_spin_is_monotone_and_idempotent():
    M = s3_permutation_module(F3)
    ones = np.array([1, 1, 1])
    assert np.array_equal(spin(M, ones), np.array([[1, 1, 1]]))
    point = np.array([1, 0, 0])
    assert np.array_equal(spin(M, point), F3.identity(3))
    again = spin(M, spin(M, ones))
    assert np.array_equal(again, spin(M, ones))
    assert spin(M, None).shape == (0, 3)


def test_submodule_and_quotient_actions():
    M = s3_permutation_module(F3)
    sum_zero = np.array([[1, 0, 2], [0, 1, 2]], dtype=np.int64)
    S = submodule_module(M, sum_zero)
    assert S.dim == 2
    inner = composition_factors(S)
    assert multiplicity_of(trivial_module(F3), inner) == 1
    assert multiplicity_of(sign_module(F3), inner) == 1
    Q = quotient_module(M, sum_zero)
    assert Q.dim == 1
    assert same_factor(factor_of(Q), factor_of(trivial_module(F3)))
    with pytest.raises(MeatAxeError):
        submodule_module(M, np.array([[1, 0, 0]]))  # not invariant



def test_pivots_are_read_off_canonical_rows_only():
    assert gf._pivots(np.array([[1, 0, 2], [0, 1, 2]])) == [0, 1]
    assert gf._pivots(np.array([[0, 1, 0, 3], [0, 0, 1, 4]])) == [1, 2]
    assert gf._pivots(np.zeros((0, 3), dtype=np.int64)) == []
    for rows in ([[0, 1, 0], [1, 0, 0]],    # pivots out of order
                 [[1, 1, 0], [0, 1, 0]],    # a pivot column not cleared
                 [[1, 0, 0], [0, 0, 0]],    # a zero row
                 [[2, 0, 1]],               # a pivot not scaled to 1
                 np.zeros((2, 0))):         # rows with no columns
        with pytest.raises(gf.FieldError):
            gf._pivots(np.array(rows))


def test_split_pieces_equal_the_rref_first_oracle():
    # _split takes the witness's canonical rows as given
    M = s3_permutation_module(F3)
    for seed in range(4):
        verdict, witness = is_irreducible(M, seed)
        assert not verdict
        _, _, (sub, _), (quo, _) = _split(M, witness, [])
        assert sub.dim + quo.dim == M.dim
        for piece, mats in ((sub, submodule_oracle(M, witness)),
                            (quo, quotient_oracle(M, witness))):
            assert all(np.array_equal(a, b)
                       for a, b in zip(piece.mats, mats, strict=True))

def test_jordan_block_witness_is_the_fixed_line():
    A = np.array([[1, 1], [0, 1]], dtype=np.int64)
    M = GModule(F2, [A], label="Jordan block")
    verdict, witness = is_irreducible(M)
    assert not verdict
    assert np.array_equal(witness, np.array([[1, 0]]))
    factors = composition_factors(M)
    grouped = factor_multiplicities(factors)
    assert len(grouped) == 1 and grouped[0][1] == 2
    assert all(f.dim == 1 for f in factors)


def test_zero_module_and_degenerate_inputs():
    M = s3_permutation_module(F3)
    Z = submodule_module(M, np.zeros((0, 3), dtype=np.int64))
    assert Z.dim == 0
    assert composition_factors(Z) == []
    with pytest.raises(ZeroModuleError):
        is_irreducible(Z)
    free = GModule(F3, [], dim=2, label="no generators")
    verdict, witness = is_irreducible(free)
    assert not verdict and witness.shape == (1, 2)
    assert sorted(f.dim for f in composition_factors(free)) == [1, 1]


def test_hom_space_cap_and_validation():
    big = GModule(F2, [F2.identity(51)], check=False)
    with pytest.raises(ModuleCapError):
        hom_space(big, big)
    with pytest.raises(MeatAxeError):
        hom_space(rotation_module(F2), rotation_module(F3))
    with pytest.raises(MeatAxeError):
        hom_space(rotation_module(F2), s3_permutation_module(F2))


def test_module_constructor_validation():
    with pytest.raises(MeatAxeError):
        GModule(F2, [np.array([[1, 0], [0, 0]], dtype=np.int64)])
    with pytest.raises(MeatAxeError):
        GModule(F3, [np.array([[5]], dtype=np.int64)])
    with pytest.raises(MeatAxeError):
        GModule(F3, [np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)])
    with pytest.raises(MeatAxeError):
        GModule(F3, [], dim=None)
    for bad in ([0, 0, 1], [0, 1], [0, 1, 3]):
        with pytest.raises(MeatAxeError):
            GModule(F3, perms=[bad], dim=3)
    with pytest.raises(MeatAxeError):
        GModule(F3, perms=[], dim=None)


def test_permutation_module_builds_matrices_on_first_read():
    M = GModule(F3, perms=[[1, 2, 0]], label="3-cycle")
    assert M.dim == 3 and M._mats is None
    assert spin(M, [1, 0, 0]).shape == (3, 3)
    assert M._mats is None
    cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    assert np.array_equal(M.mats[0], cycle)   # e_i -> e_{perm[i]}


def test_algebra_element_is_seed_deterministic():
    M = s3_permutation_module(F3)

    def sample(seed):
        return algebra_element(
            M, meataxe._random_word(M, np.random.default_rng(seed)))

    assert np.array_equal(sample(7), sample(7))
    assert rank(F3, sample(8)) >= 0


def test_spin_never_echelonizes_more_rows_than_the_dimension(monkeypatch):
    # stacking the basis with all generator images before one elimination
    # needs dim * (1 + gens) rows; spinning incrementally needs at most dim
    M = s3_permutation_module(F3)
    monkeypatch.setattr(gf, "MAX_DENSE_DIM", M.dim)
    assert np.array_equal(spin(M, np.array([1, 0, 0])), F3.identity(3))


def test_factors_of_distinct_dimensions_need_no_certificate(monkeypatch):
    callers = []

    def counted(F, A):
        callers.append(sys._getframe(1).f_code.co_name)
        return gf.charpoly(F, A)

    monkeypatch.setattr(meataxe, "charpoly", counted)
    M = s3_permutation_module(F2)  # trivial plus a 2-dimensional simple
    factors = composition_factors(M)
    assert sorted(f.dim for f in factors) == [1, 2]
    with monkeypatch.context() as refused:
        refused.setattr(meataxe.CompositionFactor, "certificate",
                        property(lambda f: pytest.fail("certificate read")))
        assert len(factor_multiplicities(factors)) == 2
    # the Norton test and the split that hands its sample down
    assert callers and set(callers) == {"is_irreducible", "_split"}
    norton_calls = len(callers)
    two = next(f for f in factors if f.dim == 2)
    word, f, x = two.certificate
    # the Norton test that proved it simple recorded it: no new sample
    assert two.module.certificate[0] is word
    assert len(callers) == norton_calls
    theta = algebra_element(two.module, word)
    null = kernel(F2, poly.evaluate_matrix(F2, f, theta))
    assert null.shape[0] == len(f) - 1 and np.array_equal(x, null[0])


def test_a_reducible_or_one_dimensional_module_has_no_certificate():
    # the Norton test runs on a module nothing has tested, and a reducible
    # verdict, or a simple one that drew no sample, records nothing
    for M in (s3_permutation_module(F3), _doubled(rotation_module(F2)),
              trivial_module(F3)):
        with pytest.raises(MeatAxeError, match="no certificate"):
            factor_of(M).certificate
        assert M.certificate is None


def test_recorded_words_replay_the_sampled_elements():
    # a recorded word evaluates to the sum of its scaled products; the
    # words have six to eight terms of two to five letters, so seeded
    # witnesses are those of these words, not of any earlier sampler
    M = s3_permutation_module(F3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        word = meataxe._random_word(M, rng)
        assert 6 <= len(word) <= 8
        assert all(1 <= c < F3.order and 2 <= len(letters) <= 5
                   for c, letters in word)
        products = [c * np.linalg.multi_dot([M.mats[i] for i in letters])
                    for c, letters in word]
        assert np.array_equal(algebra_element(M, word), sum(products) % 3)


# companion matrices of x^3+x+1 and x^3+x^2+1 over GF(2): generators of
# the two 3-dimensional simple modules of C_7, each with End = GF(8)
C7 = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
C7_OTHER = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 1]], dtype=np.int64)


def conjugate(F, A):
    P = F.asarray([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    return F.mat_mul(F.mat_mul(P, A), gf.inverse(F, P))


def test_same_factor_when_endomorphisms_exceed_the_field():
    def simple(F, *mats):
        return factor_of(GModule(F, list(mats)))

    a = simple(F2, C7)
    cube = F2.mat_mul(F2.mat_mul(C7, C7), C7)  # a generator of the other
    assert same_factor(a, simple(F2, conjugate(F2, C7)))
    assert not same_factor(a, simple(F2, C7_OTHER))
    assert not same_factor(simple(F2, C7_OTHER), a)
    assert same_factor(simple(F2, C7_OTHER), simple(F2, cube))
    assert not same_factor(a, simple(F2, cube))
    # the same words see equal kernels on (C, C) and (C, C^2), so only the
    # solve for c tells them apart
    pair = simple(F2, C7, C7)
    assert not same_factor(pair, simple(F2, C7, F2.mat_mul(C7, C7)))
    assert same_factor(pair, simple(F2, *[conjugate(F2, C7)] * 2))
    # x^2+1 over GF(3), End = GF(9): a second generator acting by +1 or -1
    J = F3.asarray([[0, 2], [1, 0]])
    I = F3.identity(2)
    plus = simple(F3, J, I)
    assert same_factor(plus, simple(F3, F3.mat_neg(J), I))
    assert not same_factor(plus, simple(F3, J, F3.mat_neg(I)))


def test_same_factor_refuses_a_wide_spin_up_front(monkeypatch):
    a = factor_of(GModule(F2, [C7, C7]))
    b = factor_of(GModule(F2, [C7, F2.mat_mul(C7, C7)]))
    c = factor_of(GModule(F2, [conjugate(F2, C7)] * 2))
    assert len(a.certificate[1]) - 1 == 3  # the spin lives in A + B^3
    spins = []
    real_spin = meataxe._spin_rows

    def spy(F, gens, dim, seeds):
        spins.append(dim)
        return real_spin(F, gens, dim, seeds)

    monkeypatch.setattr(meataxe, "_spin_rows", spy)
    monkeypatch.setattr(meataxe, "MAX_DENSE_DIM", 11)
    with pytest.raises(ModuleCapError):
        same_factor(a, b)
    assert spins == []
    # at the cap nothing, the solve for c included, is taller or wider
    monkeypatch.setattr(meataxe, "MAX_DENSE_DIM", 12)
    monkeypatch.setattr(gf, "MAX_DENSE_DIM", 12)
    assert not same_factor(a, b)
    assert same_factor(a, c)
    assert spins == [12, 12]


def test_same_factor_validation():
    with pytest.raises(MeatAxeError):
        same_factor(factor_of(rotation_module(F2)),
                    factor_of(rotation_module(F3)))
    with pytest.raises(MeatAxeError):
        same_factor(factor_of(trivial_module(F3)),
                    factor_of(trivial_module(F3, gens=1)))
    assert not same_factor(factor_of(trivial_module(F3)),
                           factor_of(sign_module(F3)))
    assert same_factor(factor_of(rotation_module(F2)),
                       factor_of(rotation_module(F2)))


def test_fixed_points_never_echelonize_wider_than_the_dimension(monkeypatch):
    # intersecting each fixed space with the running basis stacks both side
    # by side, 2 * dim columns; restricting to the running basis needs dim
    M = s3_permutation_module(F3)
    monkeypatch.setattr(gf, "MAX_DENSE_DIM", M.dim)
    assert fixed_points(F3, M.mats, M.dim).tolist() == [[1, 1, 1]]


def test_hom_space_never_solves_more_rows_than_its_unknowns(monkeypatch):
    # one Kronecker system for all generators has gens * dim(A) * dim(B)
    # rows; one generator at a time needs dim(A) * dim(B)
    M = s3_permutation_module(F3)
    T = trivial_module(F3)
    monkeypatch.setattr(gf, "MAX_DENSE_DIM", M.dim * M.dim)
    assert len(hom_space(M, M)) == 2
    monkeypatch.setattr(gf, "MAX_DENSE_DIM", M.dim * T.dim)
    assert [h.tolist() for h in hom_space(M, T)] == [[[1, 1, 1]]]
    assert [h.tolist() for h in hom_space(T, M)] == [[[1], [1], [1]]]


def test_a_corrupted_handed_down_polynomial_is_refused():
    # the pieces' polynomials multiply to the module's; one that the small
    # piece's does not divide cannot be handed down
    M = s3_permutation_module(F2)  # trivial plus a 2-dimensional simple
    samples = []
    verdict, witness = is_irreducible(M, DEFAULT_SEED, samples)
    assert not verdict and len(samples) == 1
    word, theta, cp = samples[0]
    meataxe._split(M, witness, [(word, theta, cp)])
    bad = cp.copy()
    bad[0] = F2.add(int(bad[0]), 1)
    with pytest.raises(MeatAxeError, match="does not divide"):
        meataxe._split(M, witness, [(word, theta, bad)])


def test_the_norton_test_and_the_split_release_their_samples():
    # a module's samples live until its test is over or they are handed down
    M = s3_permutation_module(F2)
    samples = []
    _, witness = is_irreducible(M, DEFAULT_SEED, samples)
    _, _, (_, sub_samples), (quo, quo_samples) = meataxe._split(
        M, witness, samples)
    assert samples == [] and len(sub_samples) == len(quo_samples) == 1
    assert is_irreducible(quo, DEFAULT_SEED, quo_samples) == (True, None)
    assert quo_samples == []


def test_a_handed_down_sample_of_another_word_is_not_used():
    M = s3_permutation_module(F2)
    verdict, witness = is_irreducible(M)
    stale = (((1, (0, 1)),), F2.zeros((3, 3)), np.array([0, 0, 0, 1]))
    samples = [stale]
    stale_verdict, stale_witness = is_irreducible(M, DEFAULT_SEED, samples)
    assert stale_verdict == verdict
    assert np.array_equal(stale_witness, witness)
    assert len(samples) == 1 and samples[0][0] != stale[0]
