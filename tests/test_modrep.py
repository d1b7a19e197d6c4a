"""Flag-space modules: Steinberg, its socle, partial flag modules,
Harish-Chandra restriction/induction, and Gelfand-Graev modules."""

import numpy as np
import pytest

from steinberg import meataxe, modrep
from steinberg.bngroup import GLGroup, ParabolicSubgroup, build_gl
from steinberg.combinat import (
    dominance_leq,
    partitions,
    quantum_characteristic,
    socle_partition,
)
from steinberg.gf import field, rank, rref, reduce_mod_rowspace, row_basis
from steinberg.hecke import sign_eigenspace
from steinberg.meataxe import (
    GModule,
    ModuleCapError,
    _perm_matrix,
    composition_factors,
    composition_series,
    factor_multiplicities,
    factor_of,
    fixed_points,
    is_irreducible,
    is_isomorphic,
    multiplicity_of,
    same_factor,
    spin,
    submodule_module,
)
from steinberg.modrep import (
    ModRepError,
    borel_module,
    gelfand_graev,
    group_elements,
    hc_adjoint_hom_dims,
    hc_induce,
    hc_restrict,
    levi_borel_module,
    levi_generators,
    levi_trivial_module,
    parabolic_perm_module,
    socle_of_steinberg,
    steinberg_element,
    steinberg_module,
    steinberg_theta_identity,
    unipotent_sum,
)
from test_kernel_oracles import submodule_oracle

# the (n, q, ell) grid exercised throughout, with cross-characteristic ell
MATRIX = [(2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 4, 3), (2, 4, 5),
          (3, 2, 3), (3, 2, 7), (3, 3, 2), (3, 3, 13)]

# composition factor dimensions of the Steinberg module, as sorted lists
ST_FACTOR_DIMS = {
    (2, 2, 3): [1, 1],
    (2, 2, 5): [2],
    (2, 3, 2): [1, 2],
    (2, 4, 3): [4],
    (2, 4, 5): [1, 3],
    (3, 2, 3): [1, 7],
    (3, 2, 7): [3, 5],
    (3, 3, 2): [1, 26],
    (3, 3, 13): [11, 16],
}

SOCLE_DIMS = {
    (2, 2, 3): 1, (2, 2, 5): 2, (2, 3, 2): 1, (2, 4, 3): 4, (2, 4, 5): 1,
    (3, 2, 3): 1, (3, 2, 7): 5, (3, 3, 2): 1, (3, 3, 13): 11,
}

_groups = {}
_st = {}
_socles = {}
_factors = {}


def group(n, q):
    if (n, q) not in _groups:
        _groups[(n, q)] = build_gl(n, q)
    return _groups[(n, q)]


def st_data(n, q, ell):
    if (n, q, ell) not in _st:
        _st[(n, q, ell)] = steinberg_module(group(n, q), ell)
    return _st[(n, q, ell)]


def socle_data(n, q, ell):
    if (n, q, ell) not in _socles:
        _socles[(n, q, ell)] = socle_of_steinberg(
            group(n, q), st_data(n, q, ell), st_factors(n, q, ell))
    return _socles[(n, q, ell)]


def st_factors(n, q, ell):
    if (n, q, ell) not in _factors:
        _factors[(n, q, ell)] = composition_factors(st_data(n, q, ell).module)
    return _factors[(n, q, ell)]


def is_trivial_module(M):
    return M.dim == 1 and all(np.array_equal(A, [[1]]) for A in M.mats)


# -- flag permutation modules ------------------------------------------------


def test_borel_module_shape_and_action():
    M = borel_module(group(2, 2), 3)
    assert M.dim == 3 and M.field.order == 3
    for A in M.mats:
        assert sorted(A.sum(axis=0).tolist()) == [1, 1, 1]
        assert sorted(A.sum(axis=1).tolist()) == [1, 1, 1]
    G = group(2, 3)
    N = borel_module(G, 2)
    assert N.dim == 4
    g = G.generators[0]
    h = G.generators[-1]
    gh = G.field.mat_mul(g, h)
    assert np.array_equal(N.perm_of(gh), N.perm_of(g)[N.perm_of(h)])


def test_coefficient_field_guards():
    with pytest.raises(ModRepError):
        borel_module(group(2, 2), 2)
    with pytest.raises(ModRepError):
        borel_module(group(2, 3), 3)
    with pytest.raises(ModRepError):
        borel_module(group(2, 2), 6)
    with pytest.raises(ModRepError):
        steinberg_element(group(2, 2), 3, d=0)
    with pytest.raises(ModRepError):
        parabolic_perm_module(group(2, 3), (1, 1), 3)


def test_flag_module_of_a_group_without_generators():
    G = build_gl(1, 2)
    assert G.generators == []
    M = borel_module(G, 3)
    assert M.dim == 1 and M.mats == []
    assert M.perm_of(G.identity_element()).tolist() == [0]


def test_borel_module_refuses_a_non_multiplicative_action(monkeypatch):
    G = build_gl(3, 2)
    gens = G.generators
    bad = G.field.mat_mul(gens[0], gens[-1]).tobytes()
    original = GLGroup.coset_permutation

    def wrong_on_one_product(self, g):
        perm = original(self, g)
        return np.roll(perm, 1) if np.asarray(g).tobytes() == bad else perm

    monkeypatch.setattr(GLGroup, "coset_permutation", wrong_on_one_product)
    with pytest.raises(ModRepError, match="not multiplicative"):
        borel_module(G, 7)



def test_flag_modules_read_the_generator_permutations_off_the_orbit(
        monkeypatch):
    # perm_of runs only for the spot check's three generator products
    G = build_gl(3, 3)
    P = G.parabolic((1, 2))
    G.cosets, P.cosets
    calls = []
    for cls in (GLGroup, ParabolicSubgroup):
        def counted(self, g, original=cls.coset_permutation):
            calls.append(type(self))
            return original(self, g)
        monkeypatch.setattr(cls, "coset_permutation", counted)
    M = borel_module(G, 2)
    assert calls == [GLGroup] * 3
    N = parabolic_perm_module(G, (1, 2), 2)
    assert calls[3:] == [ParabolicSubgroup] * 3
    for k, gen in enumerate(G.generators):
        assert np.array_equal(M.perms[k], G.coset_permutation(gen))
        assert np.array_equal(N.perms[k], P.coset_permutation(gen))


def test_borel_module_refuses_a_corrupted_orbit_table():
    G = build_gl(3, 2)
    perms = G.cosets.gen_perms
    perms[0, [0, 1]] = perms[0, [1, 0]]   # still a permutation, but wrong
    with pytest.raises(ModRepError, match="not multiplicative"):
        borel_module(G, 7)

def test_steinberg_element_values():
    e = steinberg_element(group(2, 2), 3)
    assert e.tolist() == [1, 2, 0]
    for n, q, ell in MATRIX:
        F = field(ell)
        e = steinberg_element(group(n, q), ell)
        total = 0
        for c in e:
            total = F.add(total, int(c))
        assert total == 0


def test_steinberg_dimension_is_unipotent_order():
    for n, q, ell in MATRIX:
        G = group(n, q)
        data = st_data(n, q, ell)
        assert data.basis.shape[0] == G.order_u
        assert data.module.dim == G.order_u


def test_irreducible_iff_characteristic_coprime_to_index():
    for n, q, ell in MATRIX:
        G = group(n, q)
        verdict, witness = is_irreducible(st_data(n, q, ell).module)
        assert verdict == (G.index % ell != 0), (n, q, ell)
        if verdict:
            assert witness is None
        else:
            assert 0 < witness.shape[0] < G.order_u


@pytest.mark.parametrize("seed", [214003, 1, 2])
def test_one_factor_exactly_when_norton_says_irreducible(seed):
    # verify reads its irreducibility verdict off the factor list
    for n, q, ell in MATRIX:
        M = st_data(n, q, ell).module
        verdict, _ = is_irreducible(M, seed)
        assert verdict == (len(composition_factors(M, seed)) == 1), \
            (n, q, ell)


def test_steinberg_factor_dimensions_and_multiplicity_free():
    for n, q, ell in MATRIX:
        factors = st_factors(n, q, ell)
        assert sorted(f.dim for f in factors) == ST_FACTOR_DIMS[(n, q, ell)]
        assert sum(f.dim for f in factors) == group(n, q).order_u
        grouped = factor_multiplicities(factors)
        assert all(mult == 1 for _, mult in grouped), (n, q, ell)


def match_one_to_one(a, b) -> bool:
    """Whether same_factor pairs the two factor lists off one to one."""
    rest = list(b)
    for f in a:
        hit = next((i for i, g in enumerate(rest) if same_factor(f, g)), None)
        if hit is None:
            return False
        del rest[hit]
    return not rest


def test_factors_are_seed_independent():
    for n, q, ell in [(2, 3, 2), (3, 2, 3), (3, 2, 7)]:
        module = st_data(n, q, ell).module
        a = composition_factors(module)
        b = composition_factors(module, seed=31415)
        assert match_one_to_one(a, b)


def test_composition_series_chain():
    module = st_data(3, 2, 7).module
    bases, factors = composition_series(module)
    assert [f.dim for f in factors] == [5, 3]
    assert [b.shape[0] for b in bases] == [5, 8]
    for basis in bases:
        assert np.array_equal(spin(module, basis), basis)
    again = composition_factors(module)
    assert len(again) == len(factors)
    assert all(same_factor(f, g) for f, g in zip(factors, again))
    bases2, factors2 = composition_series(st_data(2, 3, 2).module)
    assert [b.shape[0] for b in bases2] == [1, 3]
    assert sum(f.dim for f in factors2) == 3


# -- the socle ---------------------------------------------------------------


def test_socle_dimensions_and_multiplicity():
    for n, q, ell in MATRIX:
        sd = socle_data(n, q, ell)
        assert sd.module.dim == SOCLE_DIMS[(n, q, ell)], (n, q, ell)
        assert sd.fix_dim == 1
        data = st_data(n, q, ell)
        stacked = np.vstack([data.basis, sd.basis])
        assert rank(data.parent.field, stacked) == data.basis.shape[0]
        assert multiplicity_of(sd.module, st_factors(n, q, ell)) == 1



def test_spun_submodules_equal_the_rref_first_oracle():
    # the Steinberg module takes its spun canonical basis as given
    for n, q, ell in MATRIX:
        data = st_data(n, q, ell)
        assert data.module.dim == data.basis.shape[0]
        assert all(np.array_equal(a, b) for a, b in zip(
            data.module.mats, submodule_oracle(data.parent, data.basis),
            strict=True))

def _restricted_matrices(parent, basis, elements):
    """Matrices of group elements on the invariant span of the RREF `basis`,
    read off the permutations of the permutation module `parent`."""
    perms = GModule(parent.field,
                    [_perm_matrix(parent.perm_of(g)) for g in elements],
                    dim=parent.dim, check=False)
    return submodule_module(perms, basis).mats


def _fixed_rows_by_unipotent_elements(G, parent, basis):
    """U-fixed rows of an invariant subspace through every u's matrix."""
    F = parent.field
    mats = _restricted_matrices(parent, basis, G.unipotent_elements())
    fix = fixed_points(F, mats, basis.shape[0])
    return row_basis(F, F.mat_mul(fix, basis))


@pytest.mark.parametrize("n, q, ell", MATRIX + [(3, 4, 5)])
def test_cell_fixed_space_matches_the_unipotent_elements(n, q, ell):
    G = group(n, q)
    data = st_data(n, q, ell)
    F = data.parent.field
    cells = modrep._unipotent_fixed_rows(G, F, data.basis)
    assert np.array_equal(
        cells, _fixed_rows_by_unipotent_elements(G, data.parent, data.basis))
    assert cells.shape[0] == 1
    whole = modrep._unipotent_fixed_rows(G, F, F.identity(G.index))
    assert whole.shape[0] == G.weyl.order
    assert np.array_equal(whole, _fixed_rows_by_unipotent_elements(
        G, data.parent, F.identity(G.index)))


def _unipotent_average_by_elements(G, F, e):
    """Sum of u.e over every u in U, one coset permutation each."""
    v = F.zeros(G.index)
    for u in G.unipotent_elements():
        perm = G.coset_permutation(u)   # u sends flag i to perm[i]
        v[perm] = F.mat_add(v[perm], e)
    return v


@pytest.mark.parametrize("n, q, ell", MATRIX + [(3, 4, 5), (1, 2, 3)])
def test_cell_socle_generator_matches_the_unipotent_elements(n, q, ell):
    G = group(n, q)
    data = st_data(n, q, ell)
    F = data.parent.field
    v = socle_of_steinberg(G, data, st_factors(n, q, ell)).vector
    assert v.any()
    assert np.array_equal(v, _unipotent_average_by_elements(G, F, data.vector))


def test_socle_refuses_steinberg_data_of_another_group():
    with pytest.raises(ModRepError, match="flags"):
        socle_of_steinberg(group(2, 3), st_data(2, 2, 5), st_factors(2, 2, 5))


def test_trivial_socle_iff_q_is_minus_one():
    for n, q, ell in MATRIX:
        sd = socle_data(n, q, ell)
        assert is_trivial_module(sd.module) == ((q + 1) % ell == 0), (n, q, ell)


def test_trivial_factor_absent_when_socle_nontrivial():
    for n, q, ell in MATRIX:
        if (q + 1) % ell == 0 or group(n, q).index % ell != 0:
            continue
        assert all(not is_trivial_module(f.module)
                   for f in st_factors(n, q, ell)), (n, q, ell)


def test_steinberg_basis_equals_sign_eigenspace():
    for n, q, ell in [(2, 2, 3), (2, 3, 2), (3, 2, 7)]:
        G = group(n, q)
        assert np.array_equal(st_data(n, q, ell).basis,
                              sign_eigenspace(G, ell))


def test_theta_identity_over_the_integers():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        assert steinberg_theta_identity(group(n, q))


def test_borel_fixed_line_is_the_unipotent_average():
    for n, q, ell in [(2, 3, 2), (3, 2, 3)]:
        G = group(n, q)
        sd = socle_data(n, q, ell)
        data = sd.steinberg
        F = data.parent.field
        borel_gens = [G.root_element(i, 1) for i in range(n - 1)]
        if q > 2:
            theta = G.field.generator
            for t in range(n):
                diag = [1] * n
                diag[t] = theta
                borel_gens.append(G.torus_element(diag))
        mats = _restricted_matrices(data.parent, data.basis, borel_gens)
        fix = fixed_points(F, mats, data.module.dim)
        assert fix.shape[0] == 1
        basis, pivots = rref(F, data.basis)
        _, coords = reduce_mod_rowspace(F, basis, pivots, sd.vector)
        line, _ = rref(F, coords.reshape(1, -1))
        assert np.array_equal(fix, line[:1])


# -- partial flag modules ----------------------------------------------------


def test_parabolic_module_dimensions():
    G = group(3, 2)
    assert parabolic_perm_module(G, (3,), 7).dim == 1
    assert is_trivial_module(parabolic_perm_module(G, (3,), 7))
    assert parabolic_perm_module(G, (2, 1), 7).dim == 7
    assert parabolic_perm_module(G, (1, 1, 1), 7).dim == 21


def test_finest_parabolic_matches_borel():
    G = group(3, 2)
    full = parabolic_perm_module(G, (1, 1, 1), 7)
    M = borel_module(G, 7)
    P = G.parabolic((1, 1, 1))
    R = np.zeros((G.index, G.index), dtype=np.int64)
    for j, rep in enumerate(P.cosets.reps):
        R[G.coset_index(rep), j] = 1
    assert sorted(R.sum(axis=0).tolist()) == [1] * G.index
    for A, B in zip(M.mats, full.mats):
        assert np.array_equal(A @ R, R @ B)


def test_socle_multiplicities_in_partial_flag_modules():
    G = group(3, 2)
    Y = socle_data(3, 2, 7).module
    mults = {}
    for lam in partitions(3):
        factors = composition_factors(parabolic_perm_module(G, lam, 7))
        mults[lam] = multiplicity_of(Y, factors)
        if lam == (2, 1):
            assert sorted(f.dim for f in factors) == [1, 1, 5]
    assert mults == {(3,): 0, (2, 1): 1, (1, 1, 1): 3}
    e = quantum_characteristic(2, 7)
    mu0 = socle_partition(3, e)
    assert mu0 == (2, 1)
    for lam, mult in mults.items():
        assert (mult > 0) == dominance_leq(lam, mu0)
    assert mults[mu0] == 1


# -- the socle label among the Young permutation modules ---------------------
#
# D_mu is a composition factor of M_lambda = k[G/P_lambda] only if mu
# dominates lambda, and it does occur in M_mu (Dipper-James; James 1986).
# So D_mu0 is the one class of factors of M_mu0 that occurs in no M_lambda
# with lambda covering mu0, and the Steinberg socle is isomorphic to it.

_young = {}


def young_factors(n, q, ell, lam):
    if (n, q, ell, lam) not in _young:
        _young[(n, q, ell, lam)] = composition_factors(
            parabolic_perm_module(group(n, q), lam, ell))
    return _young[(n, q, ell, lam)]


def refuse_hom_spaces(monkeypatch):
    def refuse(A, B):
        raise AssertionError("a hom space was built")

    monkeypatch.setattr(meataxe, "hom_space", refuse)
    monkeypatch.setattr(modrep, "hom_space", refuse)


def covers(mu):
    """The partitions covering mu in the dominance order."""
    above = [lam for lam in partitions(sum(mu))
             if lam != mu and dominance_leq(mu, lam)]
    return [lam for lam in above
            if not any(nu != lam and dominance_leq(nu, lam) for nu in above)]


def socle_label_holds(n, q, ell, mu):
    higher = [g for lam in covers(mu) for g in young_factors(n, q, ell, lam)]
    new = [f for f, _ in factor_multiplicities(young_factors(n, q, ell, mu))
           if not any(same_factor(f, g) for g in higher)]
    socle = factor_of(socle_data(n, q, ell).module)
    return len(new) == 1 and same_factor(new[0], socle)


def test_flag_module_multiplicities_beyond_the_hom_space_cap(monkeypatch):
    # two 56-dimensional factors: a hom space between them is 3136 wide
    refuse_hom_spaces(monkeypatch)
    grouped = factor_multiplicities(young_factors(4, 2, 7, (1, 1, 1, 1)))
    assert sorted((f.dim, mult) for f, mult in grouped) == [
        (1, 3), (14, 3), (19, 3), (45, 1), (56, 3)]


def test_multiplicity_of_searches_one_certificate_per_module(monkeypatch):
    # a fresh copy of a 56-dimensional factor: its certificate is unknown
    factors = young_factors(4, 2, 7, (1, 1, 1, 1))
    M56 = next(f.module for f in factors if f.dim == 56)
    M = GModule(M56.field, M56.mats, check=False)
    searches = []

    def counted(module, *args):
        searches.append(module)
        return search(module, *args)

    search = meataxe.is_irreducible
    monkeypatch.setattr(meataxe, "is_irreducible", counted)
    assert [multiplicity_of(M, factors) for _ in range(5)] == [3] * 5
    assert searches == [M]


@pytest.mark.parametrize("n, q, ell, mu0", [(4, 2, 7, (2, 2)),
                                            (3, 7, 19, (2, 1))])
def test_socle_label_picks_out_the_steinberg_socle(n, q, ell, mu0,
                                                   monkeypatch):
    refuse_hom_spaces(monkeypatch)
    assert socle_partition(n, quantum_characteristic(q, ell)) == mu0
    assert socle_label_holds(n, q, ell, mu0)
    for mu in partitions(n):
        if mu != mu0:
            assert not socle_label_holds(n, q, ell, mu), mu


# -- Harish-Chandra restriction and induction --------------------------------


def test_restriction_along_the_whole_group_is_identity():
    G = group(2, 3)
    M = borel_module(G, 2)
    res = hc_restrict(G, (2,), M)
    assert res.dim == M.dim
    for A, B in zip(res.mats, M.mats):
        assert np.array_equal(A, B)
    lgens = levi_generators(G, (2,))
    assert len(lgens) == len(G.generators)
    for a, b in zip(lgens, G.generators):
        assert np.array_equal(a, b)


def test_restriction_dimension_counts_radical_orbits():
    for (n, q, comp, ell) in [(3, 2, (2, 1), 7), (2, 3, (1, 1), 2)]:
        G = group(n, q)
        M = borel_module(G, ell)
        res = hc_restrict(G, comp, M)
        P = G.parabolic(comp)
        parent = list(range(G.index))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in P.radical_positions():
            for c in range(1, q):
                x = G.field.identity(n)
                x[a, b] = c
                perm = G.coset_permutation(x)
                for i, j in enumerate(perm):
                    parent[find(i)] = find(int(j))
        orbits = len({find(i) for i in range(G.index)})
        assert res.dim == orbits


def test_restriction_needs_an_action_map():
    G = group(2, 3)
    M = borel_module(G, 2)
    bare = type(M)(M.field, M.mats, dim=M.dim, check=False)
    with pytest.raises(ModRepError):
        hc_restrict(G, (1, 1), bare)


def test_induction_needs_a_permutation_module():
    G = group(2, 3)
    X = levi_trivial_module(G, (1, 1), field(2))
    bare = GModule(X.field, X.mats, dim=X.dim, check=False)
    with pytest.raises(ModRepError):
        hc_induce(G, (1, 1), bare)


def test_induction_of_trivial_gives_the_partial_flag_module():
    G = group(2, 3)
    F = field(2)
    ind = hc_induce(G, (1, 1), levi_trivial_module(G, (1, 1), F))
    assert ind.dim == 4
    flags = parabolic_perm_module(G, (1, 1), 2)
    for A, B in zip(ind.mats, flags.mats):
        assert np.array_equal(A, B)
    assert is_isomorphic(ind, borel_module(G, 2))


def test_induction_is_transitive_through_a_levi_flag_module():
    G = group(3, 2)
    F = field(3)
    X = levi_borel_module(G, (2, 1), F)
    assert X.dim == 3
    ind = hc_induce(G, (2, 1), X)
    assert ind.dim == 21
    assert is_isomorphic(ind, borel_module(G, 3))


def test_adjunction_hom_dimensions_agree():
    G = group(3, 2)
    F = field(3)
    left, right = hc_adjoint_hom_dims(
        G, (2, 1), levi_trivial_module(G, (2, 1), F), borel_module(G, 3))
    assert (left, right) == (3, 3)
    G2 = group(2, 3)
    left2, right2 = hc_adjoint_hom_dims(
        G2, (1, 1), levi_trivial_module(G2, (1, 1), field(2)),
        borel_module(G2, 2))
    assert (left2, right2) == (2, 2)


@pytest.mark.parametrize("q, ell", [(2, 3), (3, 2), (4, 3), (5, 2)])
def test_restriction_feeds_induction(q, ell):
    # restricted to the torus, the flag module is two trivial lines (the
    # sums over the two Bruhat cells), so both sides are 2 * dim End_G(M) = 4
    G = group(2, q)
    M = borel_module(G, ell)
    res = hc_restrict(G, (1, 1), M)
    assert hc_adjoint_hom_dims(G, (1, 1), res, M) == (4, 4)


def test_levi_permutation_is_the_kronecker_product():
    G = group(4, 2)
    X = levi_borel_module(G, (2, 2), field(3))
    A = B = build_gl(2, 2)
    samples = A.generators + [A.field.mat_mul(g, h) for g in A.generators
                              for h in A.generators]
    for a in samples:
        for b in samples:
            dense = np.kron(_perm_matrix(A.coset_permutation(a)),
                            _perm_matrix(B.coset_permutation(b)))
            block = G.field.identity(4)
            block[:2, :2] = a
            block[2:, 2:] = b
            assert np.array_equal(_perm_matrix(X.perm_of(block)),
                                  dense)


# -- Gelfand-Graev modules ---------------------------------------------------


def test_gelfand_graev_smallest_case():
    G = group(2, 2)
    gg = gelfand_graev(G, G.regular_character(3))
    assert gg.field.order == 3
    assert gg.idempotent_ok
    assert gg.module.dim == 3
    assert gg.vector.any()
    assert gg.image_dim == 1
    assert gg.hom_dim == 1
    assert gg.head.dim == 1
    assert [A.tolist() for A in gg.head.mats] == [[[2]], [[2]]]
    assert gg.head_multiplicity == 1
    assert sorted(f.dim for f in gg.steinberg_factors) == [1, 1]


def test_gelfand_graev_needs_a_quadratic_extension():
    gg = gelfand_graev(group(2, 3), 2)
    assert gg.field.order == 4
    assert gg.character.degree == 2
    assert gg.idempotent_ok
    assert gg.module.dim == 16
    assert gg.image_dim == 1
    assert gg.hom_dim == 1
    assert gg.head.dim == 2
    assert gg.head_multiplicity == 1
    assert sorted(f.dim for f in gg.steinberg_factors) == [1, 2]


def test_gelfand_graev_head_is_cuspidal_for_gl3():
    gg = gelfand_graev(group(3, 2), 7)
    assert gg.field.order == 7
    assert gg.idempotent_ok
    assert gg.module.dim == 21
    assert gg.image_dim == 1
    assert gg.hom_dim == 1
    assert gg.head.dim == 3
    assert gg.head_multiplicity == 1


def test_gelfand_graev_respects_the_enumeration_cap():
    with pytest.raises(ModuleCapError, match="cap"):
        gelfand_graev(group(3, 3), 2)


def test_group_enumeration(monkeypatch):
    elements, index = group_elements(group(2, 2))
    assert len(elements) == 6
    assert len(index) == 6
    elements3, _ = group_elements(group(2, 3))
    assert len(elements3) == 48
    monkeypatch.setattr(modrep, "MAX_REGULAR_ORDER", 10)
    with pytest.raises(ModuleCapError):
        group_elements(group(2, 3))


def test_weighted_sum_field_guard():
    G = group(2, 2)
    sigma = G.regular_character(3)
    with pytest.raises(ModRepError):
        unipotent_sum(G, field(5), sigma)
    with pytest.raises(ModRepError):
        gelfand_graev(group(2, 3), sigma)
