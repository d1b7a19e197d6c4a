"""Hecke algebra tests: abstract relations, characters, involution, trace,
and the realized action on flag cosets with its sign eigenvector."""

import numpy as np
import pytest

from steinberg import gf, hecke
from steinberg.bngroup import GLGroup, build_gl
from steinberg.coxeter import build_weyl
from steinberg.gf import field, kernel, rank
from steinberg.hecke import (
    HeckeAlgebra,
    HeckeError,
    IntegerCoefficients,
    act_on_borel_module,
    alternating_sum_vector,
    borel_matrices_int,
    hecke_check,
    hecke_for_group,
    is_sign_eigenvector,
    sign_eigenspace,
)

ZZ = IntegerCoefficients()


def a2(q, ring=ZZ):
    W = build_weyl("A", 2)
    return W, HeckeAlgebra(W, ring, q)


def named_indices(W):
    s1 = W.gen_index(0)
    s2 = W.gen_index(1)
    return {
        "1": W.identity,
        "s1": s1,
        "s2": s2,
        "s1s2": W.multiply(s1, s2),
        "s2s1": W.multiply(s2, s1),
        "w0": W.longest_element(),
    }


def realize(F, x, mats):
    n = mats[0].shape[0]
    out = F.zeros((n, n))
    for w, c in x.coeffs.items():
        out = F.mat_add(out, F.scale(c, mats[w]))
    return out


# -- abstract relations and frozen products ---------------------------------


def test_quadratic_and_braid_relations():
    for q in (2, 3):
        W, H = a2(q)
        assert H.check_quadratic()
        assert H.check_braid()
    W3 = build_weyl("A", 3)
    H3 = HeckeAlgebra(W3, ZZ, 2)
    assert H3.check_quadratic()
    assert H3.check_braid()


def test_defining_products_match_hand_expansion():
    W, H = a2(2)
    ix = named_indices(W)
    t = {k: H.basis(v) for k, v in ix.items()}

    assert (t["s1"] * t["s1"]).coeffs == {ix["1"]: 2, ix["s1"]: 1}
    assert (t["s1"] * t["s2"]).coeffs == {ix["s1s2"]: 1}
    assert (t["s1"] * t["s2s1"]).coeffs == {ix["w0"]: 1}

    W3, H3 = a2(3)
    ix3 = named_indices(W3)
    prod = H3.basis(ix3["s2s1"]) * H3.basis(ix3["s1"])
    assert prod.coeffs == {ix3["s2"]: 3, ix3["s2s1"]: 2}


def test_longest_element_square_hand_expansion():
    # T_{w0}^2 for q=2, expanded by the defining rule letter by letter;
    # cross-checked below through both one-dimensional characters.
    W, H = a2(2)
    ix = named_indices(W)
    sq = H.multiply(H.basis(ix["w0"]), H.basis(ix["w0"]))
    expected = {
        ix["1"]: 8,
        ix["s1"]: 4,
        ix["s2"]: 4,
        ix["s1s2"]: 2,
        ix["s2s1"]: 2,
        ix["w0"]: 3,
    }
    assert sq.coeffs == expected
    assert H.char_ind(sq) == 64
    assert H.char_eps(sq) == 1


def test_associativity_on_all_basis_triples():
    W, H = a2(2)
    basis = [H.basis(w) for w in range(W.order)]
    for x in basis:
        for y in basis:
            xy = H.multiply(x, y)
            for z in basis:
                assert H.multiply(xy, z) == H.multiply(x, H.multiply(y, z))


def test_parameter_one_degenerates_to_group_algebra():
    W, H = a2(1)
    for x in range(W.order):
        for y in range(W.order):
            prod = H.multiply(H.basis(x), H.basis(y))
            assert prod.coeffs == {W.multiply(x, y): 1}


# -- characters, involution, trace ------------------------------------------


def test_characters_are_ring_homomorphisms():
    W, H = a2(2)
    for w in range(W.order):
        l = W.length(w)
        assert H.char_eps(H.basis(w)) == (-1) ** l
        assert H.char_ind(H.basis(w)) == 2 ** l
    assert H.char_eps(H.basis(W.longest_element())) == -1
    for x in range(W.order):
        for y in range(W.order):
            prod = H.multiply(H.basis(x), H.basis(y))
            assert H.char_eps(prod) == H.char_eps(H.basis(x)) * H.char_eps(H.basis(y))
            assert H.char_ind(prod) == H.char_ind(H.basis(x)) * H.char_ind(H.basis(y))


def test_unequal_parameters_on_even_bond_dihedral():
    W = build_weyl("B", 2)  # dihedral of order 8, bond 4
    H = HeckeAlgebra(W, ZZ, [2, 3])
    assert H.check_quadratic()
    assert H.check_braid()
    st = W.multiply(W.gen_index(0), W.gen_index(1))
    assert H.char_ind(H.basis(st)) == 6
    assert H.char_ind(H.basis(W.longest_element())) == 36
    assert H.char_eps(H.basis(W.longest_element())) == 1
    basis = [H.basis(w) for w in range(W.order)]
    for x in basis:
        for y in basis:
            xy = H.multiply(x, y)
            for z in basis:
                assert H.multiply(xy, z) == H.multiply(x, H.multiply(y, z))


def test_unequal_parameters_on_odd_bond_rejected():
    with pytest.raises(HeckeError):
        HeckeAlgebra(build_weyl("A", 2), ZZ, [2, 3])
    HeckeAlgebra(build_weyl("B", 2), ZZ, [2, 3])


def test_involution_swaps_characters_and_squares_to_identity():
    for ell in (5, 7):
        K = field(ell)
        W, H = a2(2, ring=K)
        s1 = H.generator(0)
        img = H.gamma(s1)
        assert img.coeffs == {W.identity: K.from_int(1), W.gen_index(0): K.from_int(-1)}
        for w in range(W.order):
            t = H.basis(w)
            assert H.gamma(H.gamma(t)) == t
            assert H.char_eps(H.gamma(t)) == H.char_ind(t)
            assert H.char_ind(H.gamma(t)) == H.char_eps(t)
        for x in range(W.order):
            for y in range(W.order):
                tx, ty = H.basis(x), H.basis(y)
                assert H.gamma(H.multiply(tx, ty)) == H.multiply(H.gamma(tx), H.gamma(ty))


def test_involution_needs_invertible_parameters():
    W, H = a2(2)
    with pytest.raises(HeckeError):
        H.gamma(H.one())
    _, H2 = a2(2, ring=field(2))  # q = 0 in characteristic 2
    with pytest.raises(HeckeError):
        H2.gamma(H2.one())
    W1, H1 = a2(1)
    for w in range(W1.order):
        img = H1.gamma(H1.basis(w))
        sign = -1 if W1.length(w) % 2 else 1
        assert img.coeffs == {w: sign}


def test_trace_symmetry_and_dual_basis_pairing():
    W, H = a2(2)
    assert H.trace(H.one()) == 1
    for w in range(1, W.order):
        assert H.trace(H.basis(w)) == 0
    for x in range(W.order):
        for y in range(W.order):
            xy = H.multiply(H.basis(x), H.basis(y))
            yx = H.multiply(H.basis(y), H.basis(x))
            assert H.trace(xy) == H.trace(yx)
            expected = 2 ** W.length(x) if y == W.inverse(x) else 0
            assert H.trace(xy) == expected
    Wd = build_weyl("B", 2)
    Hd = HeckeAlgebra(Wd, ZZ, [2, 3])
    for x in range(Wd.order):
        pair = Hd.multiply(Hd.basis(x), Hd.basis(Wd.inverse(x)))
        assert Hd.trace(pair) == Hd.char_ind(Hd.basis(x))


# -- element arithmetic and validation --------------------------------------


def test_element_arithmetic_and_guards():
    W, H = a2(2)
    x = H.basis(1) + 2 * H.basis(2)
    assert x.coefficient(1) == 1 and x.coefficient(2) == 2
    assert (x - x) == H.zero_element()
    assert (x - x).support == frozenset()
    assert (-x).coefficient(2) == -2
    assert (x * 3).coefficient(2) == 6
    assert "T[" in repr(x) and repr(H.zero_element()) == "0"

    other = HeckeAlgebra(W, ZZ, 2)
    with pytest.raises(HeckeError):
        _ = x + other.basis(1)
    with pytest.raises(HeckeError):
        H.multiply(x, other.basis(1))
    with pytest.raises(HeckeError):
        H.basis(W.order)
    with pytest.raises(HeckeError):
        HeckeAlgebra(W, ZZ, [2])


def test_integer_scalars_map_through_the_coefficient_ring():
    K = field(2, 2)
    W, H = a2(3, ring=K)
    x = H.basis(1)
    assert (2 * x) == H.zero_element()
    assert (3 * x) == x
    assert H.params == [K.from_int(3)] * 2  # 3 = 1 in characteristic 2
    assert K.inv(K.one) == K.one
    with pytest.raises(HeckeError):
        ZZ.inv(2)


# -- realized action on the flag basis --------------------------------------


def test_identity_partition_and_column_sums():
    G = build_gl(2, 3)
    mats = borel_matrices_int(G)
    assert np.array_equal(mats[G.weyl.identity], np.eye(G.index, dtype=np.int64))
    assert np.array_equal(sum(mats), np.ones((G.index, G.index), dtype=np.int64))
    for w, m in enumerate(mats):
        l = G.weyl.length(w)
        assert np.array_equal(m.sum(axis=0), np.full(G.index, 3 ** l))


def test_matrix_relations_over_the_integers():
    for n, q in ((2, 2), (2, 3), (3, 2)):
        G = build_gl(n, q)
        mats = borel_matrices_int(G)
        eye = np.eye(G.index, dtype=np.int64)
        for s in range(G.weyl.rank):
            m = mats[G.weyl.gen_index(s)]
            assert np.array_equal(m @ m, q * eye + (q - 1) * m)
        for w, m in enumerate(mats):
            prod = eye
            for s in G.weyl.reduced_word(w):
                prod = mats[G.weyl.gen_index(s)] @ prod
            assert np.array_equal(prod, m)
    G3 = build_gl(3, 2)
    mats = borel_matrices_int(G3)
    a = mats[G3.weyl.gen_index(0)]
    b = mats[G3.weyl.gen_index(1)]
    assert np.array_equal(a @ b @ a, b @ a @ b)


def test_realized_action_reverses_abstract_products():
    G = build_gl(3, 2)
    F = field(5)
    H = HeckeAlgebra(G.weyl, F, G.q)
    mats = [act_on_borel_module(G, 5, w) for w in range(G.weyl.order)]
    for x in range(G.weyl.order):
        for y in range(G.weyl.order):
            prod = H.multiply(H.basis(x), H.basis(y))
            lhs = realize(F, prod, mats)
            rhs = F.mat_mul(mats[y], mats[x])
            assert np.array_equal(lhs, rhs)


def test_alternating_vector_coordinates():
    G = build_gl(2, 2)
    assert np.array_equal(alternating_sum_vector(G), np.array([1, -1, 0]))
    G3 = build_gl(3, 2)
    e = alternating_sum_vector(G3)
    assert int((e != 0).sum()) == G3.weyl.order
    assert e[0] == 1
    assert int(e.sum()) == 0
    assert set(np.unique(e)) <= {-1, 0, 1}



def test_alternating_vector_canonicalizes_the_weyl_reps_in_one_stack(
        monkeypatch):
    G = build_gl(3, 3)
    G.cosets
    stacks = []
    original = GLGroup.canonical_flag

    def counted(self, g):
        stacks.append(np.shape(g))
        return original(self, g)

    monkeypatch.setattr(GLGroup, "canonical_flag", counted)
    e = alternating_sum_vector(G)
    assert stacks == [(G.weyl.order, 3, 3)]
    for w in range(G.weyl.order):
        sign = -1 if G.weyl.length(w) % 2 else 1
        assert e[G.coset_index(G.weyl_rep(w))] == sign

SIGN_CASES = {
    (2, 2): (3, 5),
    (2, 3): (2,),
    (2, 4): (3, 5),
    (3, 2): (3, 7),
    (3, 3): (2, 13),
}


def test_sign_eigenvector_over_integers_and_mod_ell():
    for (n, q), ells in SIGN_CASES.items():
        G = build_gl(n, q)
        e = alternating_sum_vector(G)
        for w, m in enumerate(borel_matrices_int(G)):
            sign = -1 if G.weyl.length(w) % 2 else 1
            assert np.array_equal(m @ e, sign * e)
        for ell in ells:
            F = field(ell)
            e_mod = np.array(e % ell, dtype=np.int64)
            for w in range(G.weyl.order):
                m = act_on_borel_module(G, ell, w)
                sign = F.from_int(-1 if G.weyl.length(w) % 2 else 1)
                assert np.array_equal(F.mat_vec(m, e_mod), F.scale(sign, e_mod))


def test_cell_table_sign_check_agrees_with_operator_matrices():
    # the dense operator matrices are the oracle for the cell-table check,
    # over the integers and modulo each ell
    rng = np.random.default_rng(7)
    for (n, q), ells in SIGN_CASES.items():
        G = build_gl(n, q)
        e = alternating_sum_vector(G)
        mats = borel_matrices_int(G)
        signs = [-1 if G.weyl.length(w) % 2 else 1
                 for w in range(G.weyl.order)]
        bump = np.zeros_like(e)
        bump[-1] = 1
        for v in (e, e + 3 * bump, rng.integers(-2, 3, G.index)):
            for modulus in (None,) + ells:
                def reduce(x):
                    return x if modulus is None else x % modulus
                dense = all(np.array_equal(reduce(m @ v), reduce(s * v))
                            for m, s in zip(mats, signs))
                assert is_sign_eigenvector(G, v, modulus) == dense
        assert is_sign_eigenvector(G, e)
        assert not is_sign_eigenvector(G, e + 3 * bump)
        assert is_sign_eigenvector(G, e + 3 * bump, modulus=3)


def test_sign_eigenspace_dimensions():
    expected = {
        (2, 2, 3): 2,
        (2, 2, 5): 2,
        (2, 3, 2): 3,
        (2, 4, 3): 4,
        (2, 4, 5): 4,
        (3, 2, 3): 8,
        (3, 2, 7): 8,
        (3, 3, 2): 27,
        (3, 3, 13): 27,
    }
    for (n, q, ell), dim in expected.items():
        G = build_gl(n, q)
        F = field(ell)
        basis = sign_eigenspace(G, ell)
        assert basis.shape == (dim, G.index), (n, q, ell)
        for s in range(G.weyl.rank):
            m = act_on_borel_module(G, ell, G.weyl.gen_index(s))
            m_plus_1 = F.mat_add(m, F.identity(G.index))
            assert not F.mat_mul(m_plus_1, basis.T).any()
        e_mod = np.array(alternating_sum_vector(G) % ell, dtype=np.int64)
        stacked = np.vstack([basis, e_mod[None, :]])
        assert rank(F, stacked) == dim


def test_sign_eigenspace_agrees_with_stacked_rank():
    for n, q, ell in ((2, 3, 2), (3, 2, 3), (3, 3, 13)):
        G = build_gl(n, q)
        F = field(ell)
        blocks = []
        for s in range(G.weyl.rank):
            m = act_on_borel_module(G, ell, G.weyl.gen_index(s))
            blocks.append(F.mat_add(m, F.identity(G.index)))
        stacked = np.vstack(blocks)
        dim = sign_eigenspace(G, ell).shape[0]
        assert dim == G.index - rank(F, stacked)
        assert dim >= q ** G.weyl.length(G.weyl.longest_element())


def test_alternating_symmetrizer_in_the_semisimple_case():
    G = build_gl(3, 2)
    ell = 5
    F = field(ell)
    n_top = G.weyl.length(G.weyl.longest_element())
    pi = F.zeros((G.index, G.index))
    for w in range(G.weyl.order):
        m = act_on_borel_module(G, ell, w)
        l = G.weyl.length(w)
        c = F.mul(F.from_int((-1) ** l), F.inv(F.pow(F.from_int(2), l)))
        pi = F.mat_add(pi, F.scale(c, m))
    for s in range(G.weyl.rank):
        m = act_on_borel_module(G, ell, G.weyl.gen_index(s))
        assert np.array_equal(F.mat_mul(m, pi), F.scale(F.from_int(-1), pi))
    e_mod = np.array(alternating_sum_vector(G) % ell, dtype=np.int64)
    scalar = F.mul(F.inv(F.pow(F.from_int(2), n_top)), F.from_int(G.index))
    assert scalar != 0
    assert np.array_equal(F.mat_vec(pi, e_mod), F.scale(scalar, e_mod))
    assert rank(F, pi) == 2 ** n_top


def test_characteristic_guards_on_realized_action():
    G = build_gl(2, 2)
    with pytest.raises(HeckeError):
        act_on_borel_module(G, 2, 0)
    with pytest.raises(HeckeError):
        act_on_borel_module(G, 6, 0)
    with pytest.raises(HeckeError):
        sign_eigenspace(G, 2)
    with pytest.raises(HeckeError):
        hecke_check(G, 4)
    for w in range(G.weyl.order):
        m_int = borel_matrices_int(G)[w]
        assert np.array_equal(act_on_borel_module(G, 3, w), m_int % 3)


def test_check_payload():
    report = hecke_check(build_gl(2, 2), 3)
    assert report == {
        "group": {"type": "GL", "n": 2, "q": 2},
        "ell": 3,
        "relations_ok": True,
        "lemma22_ok": True,
        "eigenspace_dim": 2,
    }
    report3 = hecke_check(build_gl(3, 2), 7)
    assert report3["relations_ok"] and report3["lemma22_ok"]
    assert report3["eigenspace_dim"] == 8


@pytest.mark.parametrize("broken", ["simple", "longest"])
def test_check_relations_compare_against_operator_matrices(monkeypatch,
                                                          broken):
    # the relations apply T_s by gathers and must still catch an operator
    # matrix that disagrees with them
    G = build_gl(3, 2)
    W = G.weyl
    w_bad = W.gen_index(0) if broken == "simple" else W.longest_element()
    original = hecke.act_on_borel_module

    def tampered(G_, ell, w):
        m = original(G_, ell, w)
        if w == w_bad:
            m = m.copy()
            m[0, 0] = (m[0, 0] + 1) % ell
        return m

    monkeypatch.setattr(hecke, "act_on_borel_module", tampered)
    report = hecke_check(G, 7)
    assert not report["relations_ok"]
    assert report["lemma22_ok"] and report["eigenspace_dim"] == 8


def test_rank_zero_weyl_group():
    G = build_gl(1, 3)
    H = hecke_for_group(G)
    assert H.multiply(H.one(), H.one()) == H.one()
    assert np.array_equal(alternating_sum_vector(G), np.array([1]))
    assert sign_eigenspace(G, 2).shape == (1, 1)
    report = hecke_check(G, 2)
    assert report["relations_ok"] and report["lemma22_ok"]
    assert report["eigenspace_dim"] == 1


def test_algebra_for_group_uses_group_parameters():
    G = build_gl(2, 3)
    H = hecke_for_group(G)
    assert isinstance(H.ring, IntegerCoefficients)
    assert H.params == [3]
    K = field(2)
    H2 = hecke_for_group(G, ring=K)
    assert H2.params == [K.from_int(3)]
    assert H2.check_quadratic() and H2.check_braid()


def test_sign_eigenspace_never_echelonizes_wider_than_the_flags(monkeypatch):
    # an intersection of row spaces by Zassenhaus is 2 * |G/B| wide
    G = build_gl(2, 2)
    monkeypatch.setattr(gf, "MAX_DENSE_DIM", G.index)
    F = field(3)
    basis = sign_eigenspace(G, 3)
    assert basis.shape == (2, 3)
    for s in range(G.weyl.rank):
        m = act_on_borel_module(G, 3, G.weyl.gen_index(s))
        assert np.array_equal(F.mat_mul(basis, m.T), F.mat_neg(basis))
