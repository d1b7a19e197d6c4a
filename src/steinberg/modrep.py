"""Concrete modules for a finite general linear group over a coefficient field.

Builds the permutation module on the complete flag space, the Steinberg
module as the submodule spun up from the alternating flag sum, its socle
via averaging over the unipotent group, permutation modules on partial
flag spaces, Harish-Chandra restriction and induction between the group
and the Levi subgroup of a standard parabolic, and the Gelfand-Graev
module attached to a regular character of the unipotent group.

The coefficient field GF(l^d) must have characteristic different from the
defining characteristic of the group.  All modules are meataxe.GModule
instances carrying an `act` callable for arbitrary group elements, so
fixed points under any subgroup and transported actions on submodules
come for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bngroup import GLGroup, build_gl
from .caps import MAX_DENSE_DIM, MAX_REGULAR_ORDER
from .gf import FiniteField, field, inverse, is_prime, rank
from .hecke import alternating_sum_vector
from .meataxe import (
    DEFAULT_SEED,
    GModule,
    ModuleCapError,
    composition_factors,
    fixed_points,
    head_of,
    hom_space,
    is_irreducible,
    multiplicity_of,
    restricted_action,
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
    "LeviPermutationModule",
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


def _perm_matrix(perm) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    out = np.zeros((perm.size, perm.size), dtype=np.int64)
    out[perm, np.arange(perm.size)] = 1
    return out


def _spot_check_action(G: GLGroup, M: GModule) -> None:
    """Compare act on a few generator products against matrix products."""
    gens = G.generators
    if not gens:
        return
    m = len(gens)
    pairs = {(0, m - 1), (m - 1, 0), (m // 2, m // 2)}
    for i, j in pairs:
        product = G.field.mat_mul(gens[i], gens[j])
        left = M.act(product)
        right = M.field.mat_mul(M.mats[i], M.mats[j])
        if not np.array_equal(left, right):
            raise ModRepError(
                "action map is not multiplicative on generator products")


def borel_module(G: GLGroup, ell: int, d: int = 1) -> GModule:
    """Permutation module on the complete flag space over GF(ell^d)."""
    F = _module_field(G, ell, d)

    def act(g):
        return _perm_matrix(G.coset_permutation(g))

    mats = [act(g) for g in G.generators]
    M = GModule(F, mats, dim=G.index,
                label=f"flag module of {G!r} over GF({F.order})",
                act=act, check=False)
    _spot_check_action(G, M)
    return M


def steinberg_element(G: GLGroup, ell: int, d: int = 1,
                      alternating=None) -> np.ndarray:
    """Alternating sum of Weyl-chamber flags, as GF(ell^d) codes.

    `alternating` is `alternating_sum_vector(G)` when the caller has it.
    """
    F = _module_field(G, ell, d)
    e = alternating_sum_vector(G) if alternating is None else alternating
    return np.array([F.from_int(int(c)) for c in e], dtype=np.int64)


@dataclass
class SteinbergData:
    """The Steinberg module inside the flag permutation module."""

    parent: GModule      # flag permutation module
    vector: np.ndarray   # alternating flag sum, in flag coordinates
    basis: np.ndarray    # canonical rows spanning the submodule it generates
    module: GModule      # the action on basis coordinates


def steinberg_module(G: GLGroup, ell: int, d: int = 1,
                     alternating=None) -> SteinbergData:
    """Submodule of the flag module spun up from the alternating flag sum.

    `alternating` is `alternating_sum_vector(G)` when the caller has it.
    """
    M = borel_module(G, ell, d)
    e = steinberg_element(G, ell, d, alternating)
    basis = spin(M, e)
    St = submodule_module(
        M, basis, label=f"Steinberg module of {G!r} over GF({M.field.order})")
    return SteinbergData(parent=M, vector=e, basis=basis, module=St)


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
    signed = np.zeros((G.index, G.index), dtype=np.int64)
    for w in range(W.order):
        P = _perm_matrix(G.coset_permutation(G.weyl_rep(w)))
        signed += (-1) ** W.length(w) * P
    usum = np.zeros((G.index, G.index), dtype=np.int64)
    for u in G.unipotent_elements():
        usum += _perm_matrix(G.coset_permutation(u))
    lhs = signed @ (usum @ e)
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
                       seed: int = DEFAULT_SEED) -> SocleData:
    """Socle of a Steinberg module of G, generated by the unipotent average.

    `steinberg` is steinberg_module(G, ell, d) for this G; the socle is
    spun inside its flag module, over its coefficient field.  Verifies that
    the generated submodule is irreducible and that the unipotent fixed
    space of the Steinberg module (the common fixed space of the
    simple-root generators of U) is one-dimensional, so the socle is simple
    and found in full.  Raises ModRepError when the unipotent average
    vanishes or either check fails.
    """
    M = steinberg.parent
    if M.dim != G.index:
        raise ModRepError(
            f"the Steinberg data lives on {M.dim} flags, but {G!r} has "
            f"{G.index}")
    F = M.field
    theta = unipotent_sum(G, F)
    v = F.mat_vec(theta, steinberg.vector)
    if not v.any():
        raise ModRepError("the unipotent average of the alternating vector "
                          "vanished; no socle generator")
    basis = spin(M, v)
    Y = submodule_module(
        M, basis, label=f"Steinberg socle of {G!r} over GF({F.order})")
    verdict, _ = is_irreducible(Y, seed)
    if not verdict:
        raise ModRepError("the submodule generated by the unipotent average "
                          "is not irreducible")
    St = steinberg.module
    # generators of U have the same fixed space as all of U
    umats = [St.act(u) for u in G.unipotent_generators]
    fix = fixed_points(F, umats, St.dim)
    if fix.shape[0] != 1:
        raise ModRepError(
            f"unipotent fixed space of the Steinberg module has dimension "
            f"{fix.shape[0]}, expected 1")
    return SocleData(steinberg=steinberg, vector=v, basis=basis, module=Y,
                     fix_dim=int(fix.shape[0]))


def parabolic_perm_module(G: GLGroup, composition, ell: int,
                          d: int = 1) -> GModule:
    """Permutation module on the partial flag space of the given shape."""
    F = _module_field(G, ell, d)
    P = G.parabolic(composition)

    def act(g):
        return _perm_matrix(P.coset_permutation(g))

    mats = [act(g) for g in G.generators]
    M = GModule(F, mats, dim=P.cosets.size,
                label=(f"partial flag module of type {P.composition} "
                       f"of {G!r} over GF({F.order})"),
                act=act, check=False)
    _spot_check_action(G, M)
    return M


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

    The input must carry an `act` callable; the output matrices follow the
    generator order of levi_generators and the output `act` accepts any
    Levi element.
    """
    if M.act is None:
        raise ModRepError(
            "restriction needs a module with an action map for arbitrary "
            "group elements")
    P = G.parabolic(composition)
    F = M.field
    radical_mats = []
    for a, b in P.radical_positions():
        for c in range(1, G.q):
            x = G.field.identity(G.n)
            x[a, b] = c
            radical_mats.append(M.act(x))
    rows = fixed_points(F, radical_mats, M.dim)
    lgens = levi_generators(G, composition)
    label = (f"restriction of {M.label or 'a module'} to the Levi of type "
             f"{P.composition}")
    if rows.shape[0] == 0:
        return GModule(F, [np.zeros((0, 0), dtype=np.int64) for _ in lgens],
                       dim=0, label=label, check=False)

    def act(l):
        return restricted_action(F, rows, M.act(l))

    mats = [act(l) for l in lgens]
    return GModule(F, mats, dim=rows.shape[0], label=label, act=act,
                   check=False)


class LeviPermutationModule:
    """A blockwise permutation module of a Levi subgroup.

    `action_of(blocks)` maps the list of diagonal blocks of a Levi element
    to its matrix.  Kind "trivial" is the one-dimensional module with every
    block acting as 1; kind "borel" is the tensor product of the complete
    flag modules of the diagonal factors, with the leftmost block varying
    slowest in the Kronecker ordering of the basis.
    """

    def __init__(self, coeff_field: FiniteField, composition, q: int,
                 kind: str, label: str = ""):
        self.field = coeff_field
        self.composition = tuple(int(c) for c in composition)
        self.q = int(q)
        self.kind = kind
        if kind == "trivial":
            self.factors = None
            self.dim = 1
        elif kind == "borel":
            self.factors = [build_gl(m, q) for m in self.composition]
            self.dim = 1
            for factor in self.factors:
                self.dim *= factor.index
        else:
            raise ModRepError(f"unknown Levi module kind {kind!r}")
        self.label = label or f"{kind} Levi module of type {self.composition}"

    def __repr__(self):
        return (f"LeviPermutationModule({self.kind!r}, {self.composition}, "
                f"q={self.q}, dim={self.dim})")

    def action_of(self, blocks) -> np.ndarray:
        if len(blocks) != len(self.composition):
            raise ModRepError(
                f"expected {len(self.composition)} diagonal blocks, "
                f"got {len(blocks)}")
        if self.kind == "trivial":
            return np.ones((1, 1), dtype=np.int64)
        out = np.ones((1, 1), dtype=np.int64)
        for factor, block in zip(self.factors, blocks):
            out = np.kron(out, _perm_matrix(factor.coset_permutation(block)))
        return out

    def to_gmodule(self, G: GLGroup) -> GModule:
        """The same module with matrices in levi_generators order."""
        P = G.parabolic(self.composition)

        def act(l):
            return self.action_of(P.levi_blocks(l))

        mats = [act(l) for l in levi_generators(G, self.composition)]
        return GModule(self.field, mats, dim=self.dim, label=self.label,
                       act=act, check=False)


def levi_trivial_module(G: GLGroup, composition,
                        F: FiniteField) -> LeviPermutationModule:
    return LeviPermutationModule(F, composition, G.q, "trivial")


def levi_borel_module(G: GLGroup, composition,
                      F: FiniteField) -> LeviPermutationModule:
    return LeviPermutationModule(F, composition, G.q, "borel")


def hc_induce(G: GLGroup, composition, X: LeviPermutationModule) -> GModule:
    """Harish-Chandra induction: inflate a Levi module through the standard
    parabolic, then induce along its coset space.

    The basis is indexed by (coset, module basis vector) pairs with the
    module index varying fastest; an element g sends the block of coset j
    to the block of coset i where g * rep_j = rep_i * p, acting inside the
    block through the Levi part of p.
    """
    P = G.parabolic(composition)
    reps = P.cosets.reps
    width = X.dim
    total = len(reps) * width
    if total > MAX_DENSE_DIM:
        raise ModuleCapError(
            f"induced module of dimension {total} exceeds cap "
            f"{MAX_DENSE_DIM}")
    Fq = G.field

    def act(g):
        big = np.zeros((total, total), dtype=np.int64)
        for j in range(len(reps)):
            i, p = P.decompose(Fq.mat_mul(g, reps[j]))
            block = X.action_of(P.levi_blocks(p))
            big[i * width:(i + 1) * width, j * width:(j + 1) * width] = block
        return big

    mats = [act(g) for g in G.generators]
    M = GModule(X.field, mats, dim=total,
                label=f"induction of {X.label} to {G!r}", act=act,
                check=False)
    _spot_check_action(G, M)
    return M


def hc_adjoint_hom_dims(G: GLGroup, composition, X: LeviPermutationModule,
                        M: GModule) -> tuple:
    """Both sides of the induction/restriction adjunction, as hom dimensions.

    Returns (dim Hom_G(induced X, M), dim Hom_L(X, restricted M)); the two
    must agree.
    """
    ind = hc_induce(G, composition, X)
    res = hc_restrict(G, composition, M)
    XL = X.to_gmodule(G)
    return len(hom_space(ind, M)), len(hom_space(XL, res))


def group_elements(G: GLGroup) -> tuple:
    """All group elements by breadth-first products of generators.

    Returns (elements, index) with index keyed by matrix bytes; refuses
    groups larger than MAX_REGULAR_ORDER.
    """
    if G.order_g > MAX_REGULAR_ORDER:
        raise ModuleCapError(
            f"group of order {G.order_g} exceeds the enumeration cap "
            f"{MAX_REGULAR_ORDER}")
    F = G.field
    start = G.identity_element()
    elements = [start]
    index = {start.tobytes(): 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in G.generators:
                cand = F.mat_mul(gen, x)
                key = cand.tobytes()
                if key not in index:
                    index[key] = len(elements)
                    elements.append(cand)
                    nxt.append(cand)
        frontier = nxt
    if len(elements) != G.order_g:
        raise ModRepError(
            f"group enumeration found {len(elements)} elements, expected "
            f"{G.order_g}")
    return elements, index


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
    head: GModule              # simple head of the submodule the vector spins
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

    def regular_act(g):
        out = np.zeros((len(elements), len(elements)), dtype=np.int64)
        for j, x in enumerate(elements):
            out[index[Fq.mat_mul(g, x).tobytes()], j] = 1
        return out

    regular = GModule(F, [regular_act(g) for g in G.generators],
                      dim=len(elements),
                      label=f"regular module of {G!r} over GF({F.order})",
                      act=regular_act, check=False)
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
        label=f"Gelfand-Graev module of {G!r} over GF({F.order})")

    st = steinberg_module(G, ell, d=sigma.degree)
    theta = unipotent_sum(G, F, sigma)
    v = F.mat_vec(theta, st.vector)
    if not v.any():
        raise ModRepError("the weighted average of the alternating vector "
                          "vanished")
    image_dim = int(rank(F, F.mat_mul(st.basis, theta.T.copy())))
    hom_dim = len(hom_space(Gamma, st.module))
    generated = submodule_module(st.parent, spin(st.parent, v))
    head = head_of(generated, seed)
    factors = composition_factors(st.module, seed)
    mult = multiplicity_of(head, factors)
    return GelfandGraevData(character=sigma, field=F,
                            idempotent_ok=idempotent_ok, module=Gamma,
                            vector=v, image_dim=image_dim, hom_dim=hom_dim,
                            head=head, head_multiplicity=mult,
                            steinberg_factors=factors)
