"""Concrete modules for a finite general linear group over a coefficient field.

Builds the permutation module on the complete flag space, the Steinberg
module (the submodule the alternating flag sum generates) on its apartment
basis, its socle via averaging over the unipotent group, permutation
modules on partial flag spaces, Harish-Chandra restriction and induction
between the group and the Levi subgroup of a standard parabolic, and the
Gelfand-Graev module attached to a regular character of the unipotent
group.

The coefficient field GF(l^d) must have characteristic different from the
defining characteristic of the group.  All modules are meataxe.GModule
instances.  Every permutation module here (flag, partial flag, induced,
Levi, restricted and regular) is built in one place, `_permutation_module`,
from a map sending a group element to its permutation of the basis; its
action is spot-checked there, on permutations, and the map stays on the
module as `perm_of`, the only way an arbitrary group element acts.  The
flag and partial flag modules take their generators' permutations from the
coset orbit, which recorded them while enumerating G/B or G/P, so `perm_of`
runs only for the spot check and for other elements.
The Steinberg module has one basis row b_j = +-u_j e per flag
j = u_j n_w0 B of the big cell (Solomon 1969): u_j carries the Weyl
chambers to the apartment through the base flag and j, whose chamber in
cell w is read from the cell table, so the rows are sparse, one entry per
Weyl element, and the identity on the big cell.  A generator's matrix is
its image of the rows read on the big cell, and that the image is the
combination of rows so read is checked on the supports.  Nothing is spun
or eliminated; the canonical basis of the rows is computed only when
`SteinbergData.basis` is read, and no caller in the package reads it.
Harish-Chandra restriction reads the radical orbits off the
permutations, and induction reads the Levi module's `perm_of` on the
parabolic factor of each coset.  The socle generator (the unipotent
average of the alternating vector) and the unipotent fixed space of the
Steinberg module are read from the Bruhat cells, which are the U-orbits
on the flags; the fixed space is one `gf.intersect_rowspaces` of the cell
indicators with the apartment rows, whose unit columns are the big cell.
Other submodules on spun bases are built by the public
`meataxe.submodule_module`, which takes them as given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bngroup import GLGroup, _left_multiply, _orbit_cosets, build_gl
from .caps import MAX_DENSE_DIM, MAX_REGULAR_ORDER
from .gf import (FiniteField, _zero_mod, field, intersect_rowspaces, inverse,
                 is_prime, rank, row_basis)
from .hecke import alternating_sum_vector
from .meataxe import (
    DEFAULT_SEED,
    GModule,
    ModuleCapError,
    composition_factors,
    hom_space,
    multiplicity_of,
    spin,
    submodule_module,
)

__all__ = [
    "ModRepError",
    "borel_module",
    "steinberg_element",
    "SteinbergData",
    "steinberg_module",
    "unipotent_sum",
    "steinberg_theta_identity",
    "SocleData",
    "socle_of_steinberg",
    "parabolic_perm_module",
    "levi_generators",
    "levi_trivial_module",
    "levi_borel_module",
    "hc_restrict",
    "hc_induce",
    "hc_adjoint_hom_dims",
    "group_elements",
    "GelfandGraevData",
    "gelfand_graev",
]


class ModRepError(ValueError):
    pass


def _module_field(G: GLGroup, ell: int, d: int) -> FiniteField:
    if not is_prime(ell):
        raise ModRepError(f"coefficient characteristic {ell} is not prime")
    if ell == G.p:
        raise ModRepError(
            "coefficient characteristic equals the defining characteristic; "
            "the flag modules here need the two to differ")
    if d < 1:
        raise ModRepError(f"field degree {d} must be at least 1")
    return field(ell, d)


def _permutation_module(Fq: FiniteField, gens, F: FiniteField, perm_of,
                        dim: int, label: str, perms=None) -> GModule:
    """Permutation module over F of the group generated by `gens`.

    `perm_of(g)` is the permutation i -> g.i of the `dim` basis vectors for
    a group element g (matrices over Fq); the module keeps it as `perm_of`
    and the generators' permutations as `perms`, so it forms no matrix
    unless a caller reads `mats`.  `perms`, when given, are the generators'
    permutations already known (a coset orbit's `gen_perms`).
    Multiplicativity is spot-checked on three generator products through
    `perm_of`, on the permutations themselves.
    """
    perms = [perm_of(g) for g in gens] if perms is None else list(perms)
    m = len(perms)
    pairs = {(0, m - 1), (m - 1, 0), (m // 2, m // 2)} if m else set()
    for i, j in pairs:
        product = perm_of(Fq.mat_mul(gens[i], gens[j]))
        if not np.array_equal(product, perms[i][perms[j]]):
            raise ModRepError(
                "action map is not multiplicative on generator products")
    return GModule(F, perms=perms, dim=dim, label=label, perm_of=perm_of)


def borel_module(G: GLGroup, ell: int, d: int = 1) -> GModule:
    """Permutation module on the complete flag space over GF(ell^d); the
    generators' permutations are those the orbit of G/B recorded."""
    F = _module_field(G, ell, d)
    return _permutation_module(
        G.field, G.generators, F, G.coset_permutation, G.index,
        f"flag module of {G!r} over GF({F.order})", G.cosets.gen_perms)


def steinberg_element(G: GLGroup, ell: int, d: int = 1,
                      alternating=None) -> np.ndarray:
    """Alternating sum of Weyl-chamber flags, as GF(ell^d) codes.

    `alternating` is `alternating_sum_vector(G)` when the caller has it.
    """
    F = _module_field(G, ell, d)
    e = alternating_sum_vector(G) if alternating is None else alternating
    return (e % F.p).astype(np.int64)


@dataclass
class SteinbergData:
    """The Steinberg module inside the flag permutation module, on its
    apartment basis: row j is b_j = +-u_j e for the flag j = u_j n_w0 B of
    the big cell, signed so that it is 1 at j."""

    parent: GModule        # flag permutation module
    vector: np.ndarray     # alternating flag sum, in flag coordinates
    big_cell: np.ndarray   # the big-cell flags, ascending: row j is 1 at
                           # big_cell[j] and 0 at every other one
    support: np.ndarray    # (|U|, |W|): support[j, w] is the flag of row j
                           # in cell w
    signs: np.ndarray      # (|W|,): every row's entry in cell w,
                           # (-1)^(l(w) + l(w0))
    module: GModule        # the action on the apartment basis

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The apartment rows as dense flag vectors over the module's
        field."""
        out = np.zeros((len(self.big_cell), self.parent.dim), dtype=np.int64)
        out[np.arange(len(out))[:, None], self.support] = (
            self.signs % self.parent.field.p)
        return out

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The canonical (RREF) basis of the rows' span, eliminated on first
        read."""
        return row_basis(self.parent.field, self.rows)


def _apartments(G: GLGroup) -> tuple:
    """(big_cell, support, signs) of the apartment rows, read from the cell
    table.

    big_cell lists the flags of the cell of w0, ascending.  The apartment
    through the base flag and the big-cell flag j = u n_w0 B has one chamber
    in each cell w, u n_w B: the one flag x of cell w with
    cell_table[x, j] = w^-1 w0, since a gallery of reduced type between two
    flags is unique.  support[:, w] lists those chambers, and signs[w] is
    (-1)^(l(w) + l(w0)), so the row u_j e (-1)^l(w0) is 1 at j.
    """
    W, table = G.weyl, G.cell_table
    w0 = W.longest_element()
    big_cell = np.flatnonzero(table[0] == w0)
    support = np.empty((len(big_cell), W.order), dtype=np.int64)
    for w in range(W.order):
        cell = np.flatnonzero(table[0] == w)
        hits = table[np.ix_(cell, big_cell)] == W.multiply(W.inverse(w), w0)
        if not (hits.sum(axis=0) == 1).all():
            raise ModRepError(
                f"cell {w} does not meet every apartment in one flag")
        support[:, w] = cell[hits.argmax(axis=0)]
    signs = 1 - 2 * ((W.lengths + W.length(w0)) % 2)
    return big_cell, support, signs


def _apartment_matrix(p: int, perm, position, support, signs) -> np.ndarray:
    """Matrix of the generator with flag permutation `perm` on the apartment
    rows: column j is its image of row j read on the big cell, where
    `position` numbers the big-cell flags and is -1 elsewhere.

    Row j's image has the entries signs at the flags perm[support[j]].  It
    must equal the combination of rows that column j gives, and the two are
    compared on their supports; a mismatch raises ModRepError.
    """
    rows, dim = support.shape[0], len(position)
    image = perm[support]
    at = position[image]
    j, w = np.nonzero(at >= 0)
    k = at[j, w]
    A = np.zeros((rows, rows), dtype=np.int64)
    A[k, j] = signs[w] % p
    # image of row j minus sum over k of A[k, j] row k, keyed by (j, flag)
    keys = np.concatenate([(np.arange(rows)[:, None] * dim + image).ravel(),
                           (j[:, None] * dim + support[k]).ravel()])
    values = np.concatenate([np.broadcast_to(signs, image.shape).ravel(),
                             -np.outer(signs[w], signs).ravel()])
    if not _zero_mod(p, keys, values):
        raise ModRepError("a generator's image of an apartment row is not "
                          "the combination of rows it reads on the big cell")
    return A


def steinberg_module(G: GLGroup, ell: int, d: int = 1,
                     alternating=None) -> SteinbergData:
    """The submodule of the flag module generated by the alternating flag
    sum e, on its apartment basis (Solomon 1969).

    `alternating` is `alternating_sum_vector(G)` when the caller has it.
    The rows are read from the cell table (_apartments) and are the
    identity on the big cell, so each generator's matrix is its image of
    the rows read there (_apartment_matrix): no spin and no elimination.
    Two checks raise ModRepError when they fail: the row of the flag
    n_w0 B, the one big-cell flag where e is nonzero, is (-1)^l(w0) e, and
    every generator keeps the rows' span.  That span then contains the
    submodule e generates, and equals it since row j is +-u_j e.
    """
    M = borel_module(G, ell, d)
    e = steinberg_element(G, ell, d, alternating)
    big_cell, support, signs = _apartments(G)
    p = M.field.p
    lead = np.flatnonzero(e[big_cell])
    if not (len(lead) == 1 and np.count_nonzero(e) == len(signs)
            and np.array_equal(e[support[lead[0]]],
                               e[big_cell[lead[0]]] * signs % p)):
        raise ModRepError(
            "no apartment row is a multiple of the alternating vector")
    position = np.full(G.index, -1, dtype=np.int64)
    position[big_cell] = np.arange(len(big_cell))
    mats = [_apartment_matrix(p, perm, position, support, signs)
            for perm in M.perms]
    St = GModule(M.field, mats, dim=len(big_cell), check=False,
                 label=f"Steinberg module of {G!r} over GF({M.field.order})")
    return SteinbergData(parent=M, vector=e, big_cell=big_cell,
                         support=support, signs=signs, module=St)


def unipotent_sum(G: GLGroup, F: FiniteField, character=None) -> np.ndarray:
    """Sum of the flag actions of all unipotent elements, optionally weighted.

    With a character, the term for u is scaled by the character value at u;
    the character's value field must be the coefficient field.
    """
    if character is not None and character.field is not F:
        raise ModRepError(
            "character values live in a different coefficient field")
    total = F.zeros((G.index, G.index))
    cols = np.arange(G.index)
    for u in G.unipotent_elements():
        # u's permutation matrix has its ones at (rows[i], i)
        rows = G.coset_permutation(u)
        c = 1 if character is None else character.value(u)
        total[rows, cols] = F.mat_add(total[rows, cols],
                                      np.full(G.index, c, dtype=np.int64))
    return total


def steinberg_theta_identity(G: GLGroup) -> bool:
    """Integer identity behind the Steinberg idempotent.

    The signed sum of Weyl representative actions, applied after the plain
    unipotent sum, fixes the alternating flag vector up to the flag count.
    """
    e = alternating_sum_vector(G)
    W = G.weyl
    usum = np.zeros_like(e)
    for u in G.unipotent_elements():
        usum[G.coset_permutation(u)] += e   # u sends flag i to perm[i]
    lhs = np.zeros_like(e)
    for w in range(W.order):
        lhs[G.coset_permutation(G.weyl_rep(w))] += (-1) ** W.length(w) * usum
    return bool(np.array_equal(lhs, G.index * e))


@dataclass
class SocleData:
    """The simple socle of the Steinberg module, with its generating vector."""

    steinberg: SteinbergData
    vector: np.ndarray   # unipotent average of the alternating vector
    basis: np.ndarray    # canonical rows in flag coordinates
    module: GModule      # simple module on those rows
    fix_dim: int         # dimension of the unipotent fixed space of Steinberg


def socle_of_steinberg(G: GLGroup, steinberg: SteinbergData,
                       factors) -> SocleData:
    """Socle of a Steinberg module of G, generated by the unipotent average.

    `steinberg` is steinberg_module(G, ell, d) for this G and `factors` is
    composition_factors(steinberg.module, seed).  The socle is spun inside
    the flag module, over its coefficient field; the generator and the
    unipotent fixed space of the Steinberg module are read from the Bruhat
    cells (_unipotent_average, _unipotent_fixed_rows).

    No second Norton test is needed.  Every simple submodule of the flag
    module has nonzero U-fixed vectors (ell does not divide |U|), so a
    one-dimensional fixed space leaves the Steinberg module one simple
    submodule, contained in every nonzero submodule.  factors[0] is that
    submodule, since the factor list descends into submodules first.  So
    the spun submodule is simple exactly when it has dimension
    factors[0].dim, and it is then factors[0].module.  Raises ModRepError
    when the unipotent average vanishes or either check fails.
    """
    M = steinberg.parent
    if M.dim != G.index:
        raise ModRepError(
            f"the Steinberg data lives on {M.dim} flags, but {G!r} has "
            f"{G.index}")
    F = M.field
    v = _unipotent_average(G, F)
    if not v.any():
        raise ModRepError("the unipotent average of the alternating vector "
                          "vanished; no socle generator")
    fix_dim = _unipotent_fixed_rows(G, F, steinberg.rows,
                                    steinberg.big_cell).shape[0]
    if fix_dim != 1:
        raise ModRepError(
            f"unipotent fixed space of the Steinberg module has dimension "
            f"{fix_dim}, expected 1")
    basis = spin(M, v)
    if basis.shape[0] != factors[0].dim:
        raise ModRepError("the submodule generated by the unipotent average "
                          "is not irreducible")
    return SocleData(steinberg=steinberg, vector=v, basis=basis,
                     module=factors[0].module, fix_dim=fix_dim)


def _unipotent_average(G: GLGroup, F: FiniteField) -> np.ndarray:
    """The sum of u.e over U for the alternating flag vector e, read from
    the Bruhat cells.

    U acts transitively on the cell of the Weyl flag n_w B with a stabilizer
    of order q^(N - l(w)), N = n(n-1)/2, so the sum is (-1)^l(w) q^(N - l(w))
    on each flag of cell w.
    """
    W = G.weyl
    coeffs = np.array(
        [F.from_int((-1) ** W.length(w) * (G.order_u // G.q ** W.length(w)))
         for w in range(W.order)], dtype=np.int64)
    return coeffs[G.cell_table[0]]


def _unipotent_fixed_rows(G: GLGroup, F: FiniteField, basis,
                          units=None) -> np.ndarray:
    """Canonical rows, in flag coordinates, of the U-fixed vectors in the
    span of `basis`, a basis of an invariant subspace of the flag module
    that is the identity on its columns `units` (an RREF basis and its
    pivots when `units` is None).

    The U-orbits on the flags are the Bruhat cells, so the U-fixed flag
    vectors are spanned by the cell indicators, and these rows are the meet
    of their span with that of `basis`, which is read as given.
    """
    row0 = G.cell_table[0]
    cells = np.array([row0 == w for w in range(G.weyl.order)],
                     dtype=np.int64)
    return intersect_rowspaces(F, cells, basis, units)


def parabolic_perm_module(G: GLGroup, composition, ell: int,
                          d: int = 1) -> GModule:
    """Permutation module on the partial flag space of the given shape; the
    generators' permutations are those the orbit of G/P recorded."""
    F = _module_field(G, ell, d)
    P = G.parabolic(composition)
    return _permutation_module(
        G.field, G.generators, F, P.coset_permutation, P.cosets.size,
        f"partial flag module of type {P.composition} of {G!r} over "
        f"GF({F.order})", P.cosets.gen_perms)


def levi_generators(G: GLGroup, composition) -> list:
    """Generators of the block-diagonal Levi subgroup, embedded in G.

    Concatenates, block by block, the standard generators of each diagonal
    general linear factor; the order is deterministic and shared with the
    blockwise Levi modules below.
    """
    P = G.parabolic(composition)
    gens = []
    for a, b in P.blocks:
        factor = build_gl(b - a, G.q)
        for gen in factor.generators:
            big = G.field.identity(G.n)
            big[a:b, a:b] = gen
            gens.append(big)
    return gens


def hc_restrict(G: GLGroup, composition, M: GModule) -> GModule:
    """Harish-Chandra restriction: unipotent-radical fixed points as a
    module for the Levi subgroup of the standard parabolic.

    M must be a permutation module.  Its radical-fixed space is spanned by
    the sums over the radical orbits; ordered by least element, they are
    the canonical basis of that space.  Orbits are found by propagating
    least labels through the permutations of the radical root elements.
    The parabolic permutes the orbits, so the result is again a permutation
    module, with matrices in levi_generators order and a `perm_of` defined
    on every element of the parabolic.
    """
    if M.perm_of is None:
        raise ModRepError("restriction needs a permutation module")
    P = G.parabolic(composition)
    radical = []
    for a, b in P.radical_positions():
        for c in range(1, G.q):
            x = G.field.identity(G.n)
            x[a, b] = c
            radical.append(M.perm_of(x))
    least, before = np.arange(M.dim), None
    while not np.array_equal(least, before):
        before = least
        for perm in radical:
            least = np.minimum(least, least[perm])
        least = least[least]
    reps = np.flatnonzero(least == np.arange(M.dim))
    orbit = np.searchsorted(reps, least)
    return _permutation_module(
        G.field, levi_generators(G, composition), M.field,
        lambda p: orbit[M.perm_of(p)[reps]], reps.size,
        f"restriction of {M.label or 'a module'} to the Levi of type "
        f"{P.composition}")


def _levi_module(G: GLGroup, P, F: FiniteField, factors,
                 name: str) -> GModule:
    """Tensor product of the flag modules of `factors`, one general linear
    group per diagonal block of P, as a permutation module of the Levi
    subgroup.

    `perm_of` reads the diagonal blocks of any element of P; the leftmost
    block varies slowest in the Kronecker ordering of the basis.  With no
    factors it is the trivial module.
    """
    def perm_of(p):
        out = np.zeros(1, dtype=np.int64)
        for factor, block in zip(factors, P.levi_blocks(p)):
            b = factor.coset_permutation(block)
            # Kronecker product of permutations, as a mixed-radix index
            out = (out[:, None] * len(b) + b).ravel()
        return out

    dim = 1
    for factor in factors:
        dim *= factor.index
    return _permutation_module(
        G.field, levi_generators(G, P.composition), F, perm_of, dim,
        f"{name} Levi module of type {P.composition}")


def levi_trivial_module(G: GLGroup, composition,
                        F: FiniteField) -> GModule:
    """The trivial module of the Levi subgroup, as a permutation module."""
    return _levi_module(G, G.parabolic(composition), F, [], "trivial")


def levi_borel_module(G: GLGroup, composition,
                      F: FiniteField) -> GModule:
    """The complete flag module of the Levi subgroup: the tensor product of
    the flag modules of its diagonal factors."""
    P = G.parabolic(composition)
    return _levi_module(G, P, F, [build_gl(m, G.q) for m in P.composition],
                        "borel")


def hc_induce(G: GLGroup, composition, X: GModule) -> GModule:
    """Harish-Chandra induction: inflate a Levi permutation module through
    the standard parabolic, then induce along its coset space.

    X must carry a `perm_of` defined on the parabolic (a Levi module or a
    restriction).  The basis is indexed by (coset, module basis vector)
    pairs with the module index varying fastest; an element g sends the
    block of coset j to the block of coset i where g * rep_j = rep_i * p,
    acting inside the block through p.  The cosets i of all g * rep_j come
    from one stacked canonicalization, and p = rep_i^-1 * g * rep_j.
    """
    if X.perm_of is None:
        raise ModRepError("induction needs a Levi permutation module")
    P = G.parabolic(composition)
    reps = P.cosets.reps
    width = X.dim
    total = len(reps) * width
    if total > MAX_DENSE_DIM:
        raise ModuleCapError(
            f"induced module of dimension {total} exceeds cap "
            f"{MAX_DENSE_DIM}")
    Fq = G.field
    rep_inverses = [inverse(Fq, rep) for rep in reps]

    def perm_of(g):
        out = np.empty(total, dtype=np.int64)
        for j, i in enumerate(P.coset_permutation(g)):
            p = Fq.mat_mul(Fq.mat_mul(rep_inverses[i], g), reps[j])
            if not P.is_member(p):
                raise ModRepError("internal error: parabolic factor not in P")
            out[j * width:(j + 1) * width] = i * width + X.perm_of(p)
        return out

    return _permutation_module(Fq, G.generators, X.field, perm_of, total,
                               f"induction of {X.label} to {G!r}")


def hc_adjoint_hom_dims(G: GLGroup, composition, X: GModule,
                        M: GModule) -> tuple:
    """Both sides of the induction/restriction adjunction, as hom dimensions.

    Returns (dim Hom_G(induced X, M), dim Hom_L(X, restricted M)); the two
    must agree.
    """
    ind = hc_induce(G, composition, X)
    res = hc_restrict(G, composition, M)
    return len(hom_space(ind, M)), len(hom_space(X, res))


def group_elements(G: GLGroup) -> tuple:
    """All group elements, as the orbit of the identity under left
    multiplication by the generators: the cosets of the trivial subgroup,
    each keyed by its own matrix bytes and numbered breadth first like G/B
    and G/P.

    Returns (elements, index): the (|G|, n, n) stack of elements and the
    dict from an element's matrix bytes to its number.  Refuses groups
    larger than MAX_REGULAR_ORDER.
    """
    if G.order_g > MAX_REGULAR_ORDER:
        raise ModuleCapError(
            f"group of order {G.order_g} exceeds the enumeration cap "
            f"{MAX_REGULAR_ORDER}")
    cs = _orbit_cosets(G.field, G.generators, G.identity_element(),
                       lambda stack: (stack, [x.tobytes() for x in stack]),
                       G.order_g, "group")
    return cs.reps, cs.index


def _regular_module(G: GLGroup, F: FiniteField, elements,
                    index) -> GModule:
    """The regular permutation module of G over F, on the basis
    `elements` with the `index` of `group_elements(G)`: g sends x to gx,
    for all x in one stacked product."""
    Fq = G.field

    def perm_of(g):
        return np.array([index[x.tobytes()]
                         for x in _left_multiply(Fq, g, elements)],
                        dtype=np.int64)

    return _permutation_module(
        Fq, G.generators, F, perm_of, len(elements),
        f"regular module of {G!r} over GF({F.order})")


@dataclass
class GelfandGraevData:
    """The Gelfand-Graev module of a regular character and its trace on the
    Steinberg module."""

    character: object          # the regular character of the unipotent group
    field: FiniteField         # its value field, GF(ell^d)
    idempotent_ok: bool        # weighted sum squares to |U| times itself
    module: GModule            # left ideal generated by the weighted sum
    vector: np.ndarray         # weighted average of the alternating vector
    image_dim: int             # rank of the weighted sum on Steinberg
    hom_dim: int               # dim Hom(module, Steinberg), the dual route
    head: GModule              # top factor of the submodule the vector
                               # spins: its head, when that is simple
    head_multiplicity: int     # its multiplicity among the Steinberg factors
    steinberg_factors: list    # composition factors of Steinberg


def gelfand_graev(G: GLGroup, character,
                  seed: int = DEFAULT_SEED) -> GelfandGraevData:
    """Gelfand-Graev module of a regular unipotent character, together with
    its interaction with the Steinberg module.

    `character` is a RegularCharacter of G, or a prime ell as shorthand for
    the standard one with values in GF(ell^d), d minimal.  Checks the
    convolution identity (the weighted unipotent sum squares to the
    unipotent order times itself), realizes the left ideal it generates
    inside the regular module, and computes the rank of the weighted sum on
    the Steinberg module plus the simple head of the submodule generated by
    the weighted average of the alternating vector.  Groups beyond the
    enumeration cap are refused with ModuleCapError.
    """
    sigma = (G.regular_character(character) if isinstance(character, int)
             else character)
    if sigma.group is not G:
        raise ModRepError("the regular character belongs to a different group")
    ell = sigma.ell
    F = sigma.field
    elements, index = group_elements(G)

    unipotents = G.unipotent_elements()
    values = [sigma.value(u) for u in unipotents]
    ukeys = {u.tobytes(): t for t, u in enumerate(unipotents)}
    Fq = G.field
    inverses = [inverse(Fq, u) for u in unipotents]
    size_code = F.from_int(len(unipotents))
    idempotent_ok = True
    for widx, w in enumerate(unipotents):
        total = 0
        for t in range(len(unipotents)):
            rest = Fq.mat_mul(inverses[t], w)
            total = F.add(total, F.mul(values[t], values[ukeys[rest.tobytes()]]))
        if total != F.mul(size_code, values[widx]):
            idempotent_ok = False
            break

    regular = _regular_module(G, F, elements, index)
    seed_vector = np.zeros(len(elements), dtype=np.int64)
    for u, value in zip(unipotents, values):
        seed_vector[index[u.tobytes()]] = value
    gamma_basis = spin(regular, seed_vector)
    expected = G.order_g // G.order_u
    if gamma_basis.shape[0] != expected:
        raise ModRepError(
            f"Gelfand-Graev module has dimension {gamma_basis.shape[0]}, "
            f"expected {expected}")
    Gamma = submodule_module(
        regular, gamma_basis,
        f"Gelfand-Graev module of {G!r} over GF({F.order})")

    st = steinberg_module(G, ell, d=sigma.degree)
    theta = unipotent_sum(G, F, sigma)
    v = F.mat_vec(theta, st.vector)
    if not v.any():
        raise ModRepError("the weighted average of the alternating vector "
                          "vanished")
    image_dim = int(rank(F, F.mat_mul(st.rows, theta.T.copy())))
    hom_dim = len(hom_space(Gamma, st.module))
    generated = submodule_module(st.parent, spin(st.parent, v))
    head = composition_factors(generated, seed)[-1].module
    factors = composition_factors(st.module, seed)
    mult = multiplicity_of(head, factors)
    return GelfandGraevData(character=sigma, field=F,
                            idempotent_ok=idempotent_ok, module=Gamma,
                            vector=v, image_dim=image_dim, hom_dim=hom_dim,
                            head=head, head_multiplicity=mult,
                            steinberg_factors=factors)
