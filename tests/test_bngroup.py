"""Tests for the concrete GL_n(q) BN-pair layer."""

import itertools
from collections import Counter

import numpy as np
import pytest

from steinberg.bngroup import GLGroup, GroupError, build_gl
from steinberg.gf import inverse as mat_inverse
from test_kernel_oracles import weyl_of_oracle


def test_orders():
    G = build_gl(2, 2)
    assert (G.order_g, G.order_b, G.order_u, G.order_h) == (6, 2, 2, 1)
    assert G.index == 3
    G = build_gl(2, 3)
    assert G.index == 4 and G.order_u == 3
    G = build_gl(2, 4)
    assert G.index == 5 and G.order_u == 4
    G = build_gl(3, 2)
    assert G.index == 21 and G.order_u == 8 and G.order_g == 168
    G = build_gl(3, 3)
    assert G.index == 52 and G.order_u == 27 and G.order_g == 11232


def test_poincare_identity():
    for n, q in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]:
        G = build_gl(n, q)
        assert G.index == sum(q ** int(l) for l in G.weyl.lengths)


def test_build_validation():
    with pytest.raises(GroupError):
        build_gl(5, 2)  # flag count 9765 over the cap
    with pytest.raises(GroupError):
        build_gl(2, 6)  # not a prime power
    with pytest.raises(GroupError):
        build_gl(0, 2)


def test_degree_one_group():
    G = build_gl(1, 3)
    assert G.index == 1 and G.order_g == 2
    assert G.cosets.size == 1
    b, w, u = G.bruhat(np.array([[2]]))
    assert w == 0 and b.tolist() == [[2]] and u.tolist() == [[1]]


def test_weyl_reps_are_a_homomorphism():
    G = build_gl(3, 2)
    W = G.weyl
    for x in range(W.order):
        for y in range(W.order):
            lhs = G.field.mat_mul(G.weyl_rep(x), G.weyl_rep(y))
            assert np.array_equal(lhs, G.weyl_rep(W.multiply(x, y)))
    # inverse representative is the matrix inverse
    for x in range(W.order):
        assert np.array_equal(
            mat_inverse(G.field, G.weyl_rep(x)), G.weyl_rep(W.inverse(x)))


def test_bruhat_trivial_cases():
    G = build_gl(3, 2)
    ident = G.identity_element()
    b, w, u = G.bruhat(ident)
    assert w == G.weyl.identity
    assert np.array_equal(b, ident) and np.array_equal(u, ident)
    w0 = G.weyl.longest_element()
    b, w, u = G.bruhat(G.weyl_rep(w0))
    assert w == w0
    assert np.array_equal(b, ident) and np.array_equal(u, ident)


def test_bruhat_reconstruction_seeded():
    G = build_gl(3, 3)
    rng = np.random.default_rng(20240817)
    seen_w = set()
    for _ in range(200):
        g = G.field.random_matrix(rng, (3, 3))
        while not G.is_invertible(g):
            g = G.field.random_matrix(rng, (3, 3))
        b, w, u = G.bruhat(g)
        seen_w.add(w)
        assert G.in_borel(b)
        assert G.in_u_w(u, w)
        recon = G.field.mat_mul(b, G.field.mat_mul(G.weyl_rep(w), u))
        assert np.array_equal(recon, g)
    # with 200 draws from GL_3(3) every cell of the big Bruhat stratum shows up
    assert G.weyl.longest_element() in seen_w


def test_bruhat_uniqueness_of_u():
    G = build_gl(3, 2)
    w0 = G.weyl.longest_element()
    n_w0 = G.weyl_rep(w0)
    some_b = G.field.asarray([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    for u in G.unipotent_elements():
        g = G.field.mat_mul(some_b, G.field.mat_mul(n_w0, u))
        b2, w2, u2 = G.bruhat(g)
        assert w2 == w0
        assert np.array_equal(u2, u)
        assert np.array_equal(b2, some_b)


def test_bruhat_cells_partition_the_group():
    # exhaustive over GL_2(3): cell of w has size |B| * q^l(w)
    G = build_gl(2, 3)
    counts = Counter()
    for codes in itertools.product(range(3), repeat=4):
        g = np.array(codes, dtype=np.int64).reshape(2, 2)
        if not G.is_invertible(g):
            continue
        counts[G.weyl_of(g)] += 1
    assert counts[G.weyl.identity] == G.order_b
    assert counts[1] == G.order_b * 3
    assert sum(counts.values()) == G.order_g


def test_singular_and_misshapen_input_raise_group_error():
    G = build_gl(3, 3)
    singular = G.field.asarray([[1, 2, 0], [0, 1, 0], [2, 1, 0]])
    rank_two = G.field.asarray([[1, 1, 2], [0, 1, 1], [1, 2, 0]])
    for g in (singular, rank_two, G.field.zeros((3, 3)),
              G.field.identity(2), G.field.zeros((3, 2))):
        with pytest.raises(GroupError):
            G.bruhat(g)
        with pytest.raises(GroupError):
            G.weyl_of(g)


def test_reversed_decomposition_via_inverse():
    for n, q in [(3, 2), (2, 3)]:
        G = build_gl(n, q)
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = G.field.random_matrix(rng, (n, n))
            while not G.is_invertible(g):
                g = G.field.random_matrix(rng, (n, n))
            w_g = G.bruhat(g).w
            w_inv = G.bruhat(mat_inverse(G.field, g)).w
            assert w_inv == G.weyl.inverse(w_g)


def test_canonical_flags():
    G = build_gl(2, 2)
    assert [r.tolist() for r in G.cosets.reps] == [
        [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 0]]]
    G = build_gl(3, 2)
    rng = np.random.default_rng(11)
    borel_elements = [b for b in (G.field.random_matrix(rng, (3, 3))
                                  for _ in range(400)) if G.in_borel(b)]
    assert borel_elements
    for _ in range(30):
        g = G.field.random_matrix(rng, (3, 3))
        while not G.is_invertible(g):
            g = G.field.random_matrix(rng, (3, 3))
        canon = G.canonical_flag(g)
        # idempotent and stable under right Borel moves
        assert np.array_equal(G.canonical_flag(canon), canon)
        for b in borel_elements[:5]:
            assert G.flag_key(G.field.mat_mul(g, b)) == G.flag_key(g)


def test_coset_space_sizes():
    for n, q in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        G = build_gl(n, q)
        assert G.cosets.size == G.index
        assert len(G.cosets.index) == G.index


def test_coset_permutations():
    G = build_gl(3, 2)
    ident_perm = G.coset_permutation(G.identity_element())
    assert np.array_equal(ident_perm, np.arange(G.index))
    # Borel elements fix the base coset
    b = G.field.asarray([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    assert G.coset_permutation(b)[0] == 0
    # the action is a homomorphism into permutations
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = G.field.random_matrix(rng, (3, 3))
        h = G.field.random_matrix(rng, (3, 3))
        if not (G.is_invertible(g) and G.is_invertible(h)):
            continue
        pg, ph = G.coset_permutation(g), G.coset_permutation(h)
        pgh = G.coset_permutation(G.field.mat_mul(g, h))
        assert np.array_equal(pgh, pg[ph])


def test_weyl_rep_cosets_in_bfs_order():
    # the length-one coset comes right after the identity coset, matching
    # the sign pattern [1, -1, 0] used by the rank-2 alternating vector
    G = build_gl(2, 2)
    assert G.coset_index(G.identity_element()) == 0
    assert G.coset_index(G.weyl_rep(1)) == 1


def test_cell_table():
    G = build_gl(3, 2)
    table = G.cell_table
    assert table.shape == (21, 21)
    for i in range(21):
        counts = Counter(table[i].tolist())
        for w in range(G.weyl.order):
            assert counts[w] == 2 ** G.weyl.length(w)
    # cell of the pair (i, j) transposes to the inverse Weyl element
    for i in range(21):
        for j in range(21):
            assert table[j, i] == G.weyl.inverse(int(table[i, j]))


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_cell_table_matches_pairwise_bruhat_cells(n, q):
    # reference: the Bruhat cell of rep_i^{-1} rep_j for every pair of
    # flags, from the monomial form rather than the canonical flag
    G = build_gl(n, q)
    reps = G.cosets.reps
    expected = np.array(
        [[weyl_of_oracle(G, G.field.mat_mul(mat_inverse(G.field, a), b))
          for b in reps] for a in reps])
    assert np.array_equal(G.cell_table, expected)


def _random_invertible(G, rng, count):
    out = []
    while len(out) < count:
        g = G.field.random_matrix(rng, (G.n, G.n))
        if G.is_invertible(g):
            out.append(g)
    return out


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (2, 4)])
def test_coset_permutation_matches_flag_canonicalization(n, q):
    G = build_gl(n, q)
    cs = G.cosets

    def reference(g):
        return [cs.index[G.flag_key(G.field.mat_mul(g, rep))]
                for rep in cs.reps]

    samples = (G.unipotent_elements()
               + [G.weyl_rep(w) for w in range(G.weyl.order)]
               + list(G.generators)
               + _random_invertible(G, np.random.default_rng(29), 30))
    for g in samples:
        assert G.coset_permutation(g).tolist() == reference(g)
    with pytest.raises(GroupError):
        G.coset_permutation(G.field.zeros((n, n)))


@pytest.mark.parametrize("n, q", [(2, 2), (3, 3), (4, 2), (3, 5)])
def test_generator_permutations_come_from_the_orbit(n, q):
    # the breadth-first orbit moved every flag by every generator already,
    # and acting by a generator again gives the same permutation
    G = build_gl(n, q)
    cs = G.cosets
    for k, gen in enumerate(G.generators):
        assert np.array_equal(G.coset_permutation(gen), cs.gen_perms[k])



@pytest.mark.parametrize("n, q", [(2, 3), (3, 3), (4, 2), (3, 5)])
def test_cosets_canonicalize_once_per_bfs_level(n, q, monkeypatch):
    # one call for the start, then one per level on the stack of every
    # generator times every frontier flag
    stacks = []
    original = GLGroup.canonical_flag

    def counted(self, g):
        stacks.append(len(np.asarray(g).reshape(-1, n, n)))
        return original(self, g)

    monkeypatch.setattr(GLGroup, "canonical_flag", counted)
    G = build_gl(n, q)
    cs = G.cosets
    depth = np.zeros(cs.size, dtype=np.int64)
    for c in range(1, cs.size):
        depth[c] = depth[cs.parent[c]] + 1
    assert len(stacks) == 1 + int(depth.max()) + 1
    assert stacks[0] == 1
    assert sum(stacks[1:]) == len(G.generators) * cs.size

def test_parabolic_basics():
    G = build_gl(3, 2)
    P = G.parabolic((2, 1))
    assert P.index == 7
    assert P.cosets.size == 7
    assert P.simple_roots == (0,)
    assert G.parabolic((1, 1, 1)).index == G.index
    assert G.parabolic((3,)).index == 1
    with pytest.raises(GroupError):
        G.parabolic((2, 2))
    with pytest.raises(GroupError):
        G.parabolic((3, 0))


def test_parabolic_membership_and_levi():
    G = build_gl(3, 2)
    P = G.parabolic((2, 1))
    member = G.field.asarray([[1, 1, 1], [1, 0, 0], [0, 0, 1]])
    assert P.is_member(member)
    non_member = G.weyl_rep(G.weyl.longest_element())
    assert not P.is_member(non_member)
    levi = P.levi_part(member)
    assert levi.tolist() == [[1, 1, 0], [1, 0, 0], [0, 0, 1]]
    blocks = P.levi_blocks(member)
    assert blocks[0].tolist() == [[1, 1], [1, 0]] and blocks[1].tolist() == [[1]]
    rad = G.field.asarray([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    assert P.in_unipotent_radical(rad)
    assert not P.in_unipotent_radical(member)
    assert P.radical_positions() == [(0, 2), (1, 2)]


def test_parabolic_decompose():
    G = build_gl(3, 2)
    P = G.parabolic((2, 1))
    rng = np.random.default_rng(9)
    for _ in range(40):
        g = G.field.random_matrix(rng, (3, 3))
        if not G.is_invertible(g):
            continue
        i, p = P.decompose(g)
        assert P.is_member(p)
        recon = G.field.mat_mul(P.cosets.reps[i], p)
        assert np.array_equal(recon, g)
    # cosets of P refine to unions of B-cosets: same flag => same P-coset
    for rep in G.cosets.reps[:10]:
        assert P.coset_key(rep) == P.coset_key(
            G.field.mat_mul(rep, G.field.asarray([[1, 1, 0], [0, 1, 0], [0, 0, 1]])))


def test_parabolic_action_is_permutation():
    G = build_gl(3, 2)
    P = G.parabolic((2, 1))
    perm = P.coset_permutation(G.weyl_rep(G.weyl.longest_element()))
    assert sorted(perm.tolist()) == list(range(7))
    assert np.array_equal(
        P.coset_permutation(G.identity_element()), np.arange(7))


def test_torus_normalizes_unipotent_subgroups():
    G = build_gl(3, 2)
    w = G.weyl.index[(1, 2, 0)]
    for diag in itertools.product([1], repeat=3):  # q=2: trivial torus
        h = G.torus_element(diag)
        h_inv = mat_inverse(G.field, h)
        for u in G.unipotent_elements():
            conj = G.field.mat_mul(h, G.field.mat_mul(u, h_inv))
            assert G.in_unipotent(conj)
    G = build_gl(2, 4)
    for a in range(1, 4):
        for d in range(1, 4):
            h = G.torus_element((a, d))
            h_inv = mat_inverse(G.field, h)
            for u in G.unipotent_elements():
                conj = G.field.mat_mul(h, G.field.mat_mul(u, h_inv))
                assert G.in_unipotent(conj)
            for w in range(G.weyl.order):
                for u in G.unipotent_elements(G.inversion_positions(w)):
                    conj = G.field.mat_mul(h, G.field.mat_mul(u, h_inv))
                    assert G.in_u_w(conj, w)


def test_unipotent_enumeration():
    G = build_gl(3, 2)
    U = G.unipotent_elements()
    assert len(U) == 8
    assert len({u.tobytes() for u in U}) == 8
    assert all(G.in_unipotent(u) for u in U)
    w0 = G.weyl.longest_element()
    assert len(G.unipotent_elements(G.inversion_positions(w0))) == 8
    assert len(G.unipotent_elements(G.inversion_positions(G.weyl.identity))) == 1


def test_regular_character_small_cases():
    G = build_gl(2, 2)
    chi = G.regular_character(3)
    assert chi.degree == 1 and chi.field.order == 3
    assert chi.on_root(1) == 2  # the unique nontrivial square root of 1 mod 3
    assert chi.on_root(0) == 1

    G = build_gl(2, 3)
    chi = G.regular_character(2)
    assert chi.degree == 2 and chi.field.order == 4
    vals = [chi.on_root(c) for c in range(3)]
    assert vals[0] == 1 and sorted(vals) == [1, 2, 3]  # all cube roots of 1

    G = build_gl(2, 4)
    chi = G.regular_character(5)
    assert chi.degree == 1 and chi.field.order == 5
    assert chi.field.element_order(chi.zeta) == 2


def test_regular_character_kernel_and_multiplicativity():
    G = build_gl(3, 2)
    chi = G.regular_character(7)
    assert chi.degree == 1 and chi.field.order == 7
    # trivial on the commutator subgroup (zero superdiagonal), and the
    # kernel is the index-p subgroup where the superdiagonal sums to zero
    kernel_size = 0
    for u in G.unipotent_elements():
        if G.in_commutator_unipotent(u):
            assert chi.is_trivial_on(u)
        kernel_size += chi.is_trivial_on(u)
    assert kernel_size == G.order_u // G.p
    # nontrivial on both simple-root subgroups
    assert chi.on_root(1) != 1
    # full multiplicativity over U x U
    U = G.unipotent_elements()
    for u in U:
        for v in U:
            lhs = chi.value(G.field.mat_mul(u, v))
            assert lhs == chi.field.mul(chi.value(u), chi.value(v))


def test_regular_character_validation():
    G = build_gl(2, 3)
    with pytest.raises(GroupError):
        G.regular_character(3)  # equal characteristics
    with pytest.raises(GroupError):
        G.regular_character(6)
    chi = G.regular_character(2)
    with pytest.raises(GroupError):
        chi.value(G.torus_element((2, 1)))  # not unipotent


def test_field_trace():
    assert [build_gl(2, 2).field_trace(c) for c in range(2)] == [0, 1]
    assert [build_gl(2, 3).field_trace(c) for c in range(3)] == [0, 1, 2]
    assert [build_gl(2, 4).field_trace(c) for c in range(4)] == [0, 0, 1, 1]
    G9 = build_gl(2, 9)
    traces = [G9.field_trace(c) for c in range(9)]
    assert set(traces) == {0, 1, 2}
    assert traces.count(0) == 3  # kernel of the trace has q/p elements


def test_summary_shape():
    s = build_gl(3, 2).summary()
    assert s["type"] == "GL" and s["n"] == 3 and s["q"] == 2
    assert s["index"] == 21
    assert s["orders"]["G"] == 168
    assert s["length_distribution"] == {0: 1, 1: 2, 2: 2, 3: 1}
