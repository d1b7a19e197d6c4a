"""Matrix realization of GL_n over a finite field with split BN-pair data.

The group is presented concretely: elements are n-by-n invertible matrices
of field codes, the Borel subgroup B is upper triangular, the torus H is
diagonal, U is upper unitriangular, and Weyl group elements w carry
permutation-matrix representatives n_w.  On top of that this module offers:

* the finite flag variety G/B as canonical column-echelon representatives,
  computed for a whole stack of matrices at once, and enumerated in a
  deterministic breadth-first order, a level at a time (one product of all
  generators with the frontier and one canonicalization per level), that
  also records each generator's permutation of the flags;
* the permutation action of any group element on G/B or G/P, by
  canonicalizing its products with all representatives in one stack;
* the cell table of Bruhat cells of all pairs of flags, with row 0 read
  off the pivot rows of the canonical representatives and every other row
  propagated along the breadth-first tree, since the Weyl distance between
  flags is G-invariant;
* standard parabolic subgroups P = U_P x L for a composition of n, with
  canonical G/P coset data and Levi projections;
* the Bruhat cell of any element, read off the pivot rows of its canonical
  flag, and the sharp Bruhat decomposition g = b * n_w * u with u in U_w,
  the subgroup of U supported on the inversion positions of w, read off
  the canonical flag u^-1 * n_{w^-1} of g^-1 (the triple is unique and is
  verified on every call), for reports and tests;
* linear characters of U that are nontrivial on every simple-root subgroup
  and trivial on the commutator subgroup [U, U], taking values in a small
  extension of the prime field of the coefficient side.

Everything is sized for exhaustive verification: construction refuses
groups whose flag count exceeds a cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .caps import MAX_FLAG_COUNT, MAX_UNIPOTENT
from .combinat import gaussian_binomial
from .coxeter import CoxeterGroup
from .coxeter import build_weyl as _build_weyl
from .gf import (FieldError, FiniteField, field_of_order, is_prime,
                 prime_power)
from .gf import inverse as mat_inverse

__all__ = [
    "GroupError",
    "BruhatTriple",
    "CosetSpace",
    "GLGroup",
    "ParabolicSubgroup",
    "RegularCharacter",
    "build_gl",
]


class GroupError(ValueError):
    pass


class BruhatTriple(NamedTuple):
    """Factors of g = b * n_w * u; w is an index into the Weyl group."""

    b: np.ndarray
    w: int
    u: np.ndarray


@dataclass
class CosetSpace:
    """Cosets gK of a subgroup K, as canonical keys plus representatives.

    The cosets are numbered in breadth-first order from K itself under left
    multiplication by the group generators.  `reps` is the (size, n, n)
    stack of representatives, `parent[i]` is the coset whose image under
    generator `parent_gen[i]` first reached coset i (-1 for coset 0), and
    row k of `gen_perms` is the permutation of generator k.
    """

    reps: np.ndarray
    index: dict
    size: int
    parent: np.ndarray
    parent_gen: np.ndarray
    gen_perms: np.ndarray


def _left_multiply(F: FiniteField, g, stack) -> np.ndarray:
    """g @ A for every A in an (m, n, n) stack, as one 2-D product of g
    with the stack laid side by side.

    `g` is one n-by-n matrix or a (k, n, n) stack of them, stacked as one
    (k n, n) factor; the k m products come by matrix of g, then by A.
    """
    m, n, _ = stack.shape
    g = np.asarray(g, dtype=np.int64)
    if g.ndim not in (2, 3) or g.shape[-2:] != (n, n):
        raise GroupError(f"expected a {n}x{n} matrix, got {g.shape}")
    k = len(g) if g.ndim == 3 else 1
    wide = F.mat_mul(g.reshape(k * n, n),
                     stack.transpose(1, 0, 2).reshape(n, m * n))
    return np.ascontiguousarray(
        wide.reshape(k, n, m, n).transpose(0, 2, 1, 3).reshape(k * m, n, n))


def _orbit_cosets(F: FiniteField, generators, start, canon, expected: int,
                  label: str) -> CosetSpace:
    """Breadth-first orbit of the coset of `start` under the generators.

    `canon(stack)` returns (representatives, keys) of the cosets of a stack
    of matrices; equal keys mean equal cosets.  The orbit grows a level at
    a time: one product of all generators, stacked, with the frontier and
    one canonicalization of the resulting stack per level.  New cosets are
    numbered in queue order: by coset, then by generator.
    """
    gens = np.array(generators, dtype=np.int64).reshape(-1, *start.shape)
    frontier, keys = canon(start[None])
    levels, index = [frontier], {keys[0]: 0}
    parent, parent_gen = [-1], [-1]
    images = [[] for _ in generators]
    done = 0
    while len(frontier):
        f = len(frontier)
        reps, keys = canon(_left_multiply(F, gens, frontier))
        new = []
        for i in range(f):
            for k in range(len(gens)):
                key = keys[k * f + i]
                j = index.get(key)
                if j is None:
                    j = index[key] = len(parent)
                    new.append(reps[k * f + i])
                    parent.append(done + i)
                    parent_gen.append(k)
                images[k].append(j)
        done += f
        frontier = np.array(new, dtype=np.int64).reshape(-1, *start.shape)
        levels.append(frontier)
    if done != expected:
        raise GroupError(
            f"{label} orbit found {done} cosets, expected {expected}")
    return CosetSpace(
        reps=np.concatenate(levels), index=index, size=done,
        parent=np.array(parent, dtype=np.int64),
        parent_gen=np.array(parent_gen, dtype=np.int64),
        gen_perms=np.array(images, dtype=np.int64).reshape(
            len(generators), done))


def _act_on_cosets(F: FiniteField, g, cosets: CosetSpace,
                   canon) -> np.ndarray:
    """Permutation i -> index of the coset of g * rep_i, with `canon` as in
    _orbit_cosets."""
    _, keys = canon(_left_multiply(F, g, cosets.reps))
    out = np.array([cosets.index[key] for key in keys], dtype=np.int64)
    if len(set(out.tolist())) != out.size:
        raise GroupError("coset action is not a permutation")
    return out


def _last_nonzero_rows(A) -> np.ndarray:
    """(m, c) array: the last nonzero row of each column of an (m, n, c)
    stack (n - 1 for a zero column)."""
    return A.shape[1] - 1 - np.argmax(A[:, ::-1, :] != 0, axis=1)


def _trivial_weyl() -> CoxeterGroup:
    return CoxeterGroup(
        kind="A", rank=0,
        coxeter_matrix=np.zeros((0, 0), dtype=np.int64),
        gens=[], elements=[(0,)], index={(0,): 0},
        lengths=np.zeros(1, dtype=np.int64),
        right_table=np.zeros((1, 0), dtype=np.int64))


class GLGroup:
    """GL_n(q) with its BN-pair structure fully materialized."""

    def __init__(self, n: int, q: int):
        if n < 1:
            raise GroupError("matrix degree must be at least 1")
        self.n = n
        self.q = q
        self.field: FiniteField = field_of_order(q)
        self.p = self.field.p
        self.weyl: CoxeterGroup = (
            _build_weyl("A", n - 1) if n >= 2 else _trivial_weyl())

        m = n * (n - 1) // 2
        self.order_u = q ** m
        self.order_h = (q - 1) ** n
        self.order_b = self.order_u * self.order_h
        self.order_g = self.order_b * self._poincare_sum()
        self.index = self.order_g // self.order_b
        if self.index > MAX_FLAG_COUNT:
            raise GroupError(
                f"flag count {self.index} exceeds cap {MAX_FLAG_COUNT}")
        classical = self.order_u
        for i in range(1, n + 1):
            classical *= q ** i - 1
        if classical != self.order_g:
            raise GroupError("order bookkeeping is inconsistent")

    def _poincare_sum(self) -> int:
        return sum(self.q ** int(l) for l in self.weyl.lengths)

    def __repr__(self):
        return f"GLGroup(n={self.n}, q={self.q})"

    # -- elements ---------------------------------------------------------

    def identity_element(self) -> np.ndarray:
        return self.field.identity(self.n)

    def root_element(self, i: int, c: int) -> np.ndarray:
        """I + c * E_{i,i+1}: the simple-root subgroup in row i."""
        if not 0 <= i < self.n - 1:
            raise GroupError(f"simple root index {i} out of range")
        g = self.field.identity(self.n)
        g[i, i + 1] = c
        return g

    def torus_element(self, diag) -> np.ndarray:
        diag = list(diag)
        if len(diag) != self.n or any(c == 0 for c in diag):
            raise GroupError("torus element needs n nonzero diagonal codes")
        g = self.field.zeros((self.n, self.n))
        for i, c in enumerate(diag):
            g[i, i] = c
        return g

    def weyl_rep(self, w: int) -> np.ndarray:
        """Permutation matrix n_w with entry 1 at (w(j), j)."""
        perm = self.weyl.elements[w]
        g = self.field.zeros((self.n, self.n))
        for j, i in enumerate(perm):
            g[i, j] = 1
        return g

    @cached_property
    def generators(self) -> list:
        """Deterministic generating set: root elements, torus, reflections."""
        gens = [self.root_element(i, 1) for i in range(self.n - 1)]
        if self.q > 2:
            theta = self.field.generator
            gens.append(self.torus_element([theta] + [1] * (self.n - 1)))
        for s in range(self.weyl.rank):
            gens.append(self.weyl_rep(self.weyl.index[self.weyl.gens[s]]))
        return gens

    # -- membership helpers ------------------------------------------------

    def is_invertible(self, g) -> bool:
        try:
            mat_inverse(self.field, g)
            return True
        except ValueError:
            return False

    def in_borel(self, g) -> bool:
        g = np.asarray(g)
        return bool(
            np.all(np.tril(g, -1) == 0) and np.all(np.diagonal(g) != 0))

    def in_unipotent(self, g) -> bool:
        g = np.asarray(g)
        return bool(
            np.all(np.tril(g, -1) == 0) and np.all(np.diagonal(g) == 1))

    def in_commutator_unipotent(self, g) -> bool:
        """Unit upper triangular with zero superdiagonal: the subgroup [U, U]."""
        g = np.asarray(g)
        return self.in_unipotent(g) and all(
            g[i, i + 1] == 0 for i in range(self.n - 1))

    def inversion_positions(self, w: int) -> list:
        perm = self.weyl.elements[w]
        return [(a, b) for a in range(self.n) for b in range(a + 1, self.n)
                if perm[a] > perm[b]]

    def in_u_w(self, g, w: int) -> bool:
        if not self.in_unipotent(g):
            return False
        allowed = set(self.inversion_positions(w))
        g = np.asarray(g)
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if g[a, b] != 0 and (a, b) not in allowed:
                    return False
        return True

    def unipotent_elements(self, positions=None) -> list:
        """All unit upper triangular matrices supported on the positions."""
        if positions is None:
            positions = [(a, b) for a in range(self.n)
                         for b in range(a + 1, self.n)]
        count = self.q ** len(positions)
        if count > MAX_UNIPOTENT:
            raise GroupError(
                f"unipotent enumeration of size {count} exceeds cap "
                f"{MAX_UNIPOTENT}")
        out = []
        for codes in itertools.product(range(self.q), repeat=len(positions)):
            g = self.field.identity(self.n)
            for (a, b), c in zip(positions, codes):
                g[a, b] = c
            out.append(g)
        return out

    # -- Bruhat decomposition ----------------------------------------------

    def _cells(self, flags) -> list:
        """Weyl index of the Bruhat cell of each canonical flag in a stack:
        the permutation its pivot rows spell."""
        return [self.weyl.index[tuple(rows)]
                for rows in _last_nonzero_rows(flags).tolist()]

    def weyl_of(self, g) -> int:
        """Index of the Weyl group element whose cell contains g."""
        return self._cells(self.canonical_flag(np.asarray(g)[None]))[0]

    def bruhat(self, g) -> BruhatTriple:
        """Factor g as b * n_w * u with b in B and u in U_w, verified.

        g = b * n_w * u gives g^-1 = u^-1 * n_{w^-1} * b^-1, and
        u^-1 * n_{w^-1} is already the canonical flag of g^-1, so w is the
        inverse of that flag's cell, u = (flag * n_w)^-1 and b = g * flag.
        """
        F = self.field
        try:
            flag = self.canonical_flag(mat_inverse(F, g))
        except FieldError:
            raise GroupError(
                "singular matrix has no Bruhat decomposition") from None
        w = self.weyl.inverse(self._cells(flag[None])[0])
        n_w = self.weyl_rep(w)
        u = mat_inverse(F, F.mat_mul(flag, n_w))
        b = F.mat_mul(g, flag)
        if not self.in_borel(b) or not self.in_u_w(u, w):
            raise GroupError("internal error: Bruhat factors failed checks")
        recon = F.mat_mul(b, F.mat_mul(n_w, u))
        if not np.array_equal(recon, np.asarray(g, dtype=np.int64)):
            raise GroupError("internal error: Bruhat product mismatch")
        return BruhatTriple(b=b, w=w, u=u)

    # -- the flag variety G/B ----------------------------------------------

    def canonical_flag(self, g) -> np.ndarray:
        """Unique coset representative of gB in column-echelon normal form,
        for one n-by-n matrix g or an (m, n, n) stack of them.

        Columns are processed left to right: entries in the pivot rows of
        earlier columns are cleared, then the bottom-most remaining nonzero
        entry becomes a pivot scaled to 1.  So the pivot row of each column
        is its last nonzero row.
        """
        F, n = self.field, self.n
        A = np.array(g, dtype=np.int64)
        if A.ndim not in (2, 3) or A.shape[-2:] != (n, n):
            raise GroupError(f"expected {n}x{n} matrices, got {A.shape}")
        flags = A.reshape(-1, n, n)
        at = np.arange(len(flags))
        pivots = np.empty((len(flags), n), dtype=np.int64)
        for j in range(n):
            col = flags[:, :, j:j + 1]
            for jj in range(j):
                c = col[at, pivots[:, jj], 0]
                col = F.mat_sub(col, F.hadamard(c[:, None, None],
                                                flags[:, :, jj:jj + 1]))
            pivots[:, j] = _last_nonzero_rows(col)[:, 0]
            c = col[at, pivots[:, j], 0]
            if not c.all():
                raise GroupError("singular matrix does not define a flag")
            flags[:, :, j:j + 1] = F.hadamard(
                F.inverses[c][:, None, None], col)
        return A

    def flag_key(self, g) -> bytes:
        return self.canonical_flag(g).tobytes()

    def _flag_canon(self, stack):
        flags = self.canonical_flag(stack)
        return flags, [flag.tobytes() for flag in flags]

    @cached_property
    def cosets(self) -> CosetSpace:
        """G/B enumerated breadth-first from the identity coset."""
        return _orbit_cosets(self.field, self.generators,
                             self.identity_element(), self._flag_canon,
                             self.index, "flag")

    def coset_index(self, g) -> int:
        return self.cosets.index[self.flag_key(g)]

    def coset_permutation(self, g) -> np.ndarray:
        """Permutation i -> index of g * rep_i; left action on G/B."""
        return _act_on_cosets(self.field, g, self.cosets, self._flag_canon)

    @cached_property
    def cell_table(self) -> np.ndarray:
        """cell_table[i, j] = Weyl index of the cell containing rep_i^{-1} rep_j.

        Row 0 (rep_0 is the identity) reads each flag's Bruhat cell off the
        pivot rows of its canonical representative.  The Weyl distance is
        G-invariant, table[g.i, g.j] = table[i, j], so every other row is
        its BFS parent's row gathered through the inverse permutation of
        the generator that reached it.
        """
        cs = self.cosets
        table = np.empty((cs.size, cs.size), dtype=np.int64)
        table[0] = self._cells(cs.reps)
        inv_perms = np.argsort(cs.gen_perms, axis=1)
        for c in range(1, cs.size):
            table[c] = table[cs.parent[c]][inv_perms[cs.parent_gen[c]]]
        return table

    # -- parabolic subgroups ----------------------------------------------

    def parabolic(self, composition) -> "ParabolicSubgroup":
        return ParabolicSubgroup(self, composition)

    # -- characters of U ---------------------------------------------------

    def field_trace(self, a: int) -> int:
        """Trace of a field code down to the prime field, as 0 <= t < p."""
        F = self.field
        t = 0
        cur = int(a)
        for _ in range(F.k):
            t = F.add(t, cur)
            cur = F.frobenius(cur)
        if not 0 <= t < self.p:
            raise GroupError("field trace left the prime subfield")
        return t

    def regular_character(self, ell: int) -> "RegularCharacter":
        return RegularCharacter(self, ell)

    # -- reporting ---------------------------------------------------------

    def length_distribution(self) -> dict:
        dist: dict[int, int] = {}
        for l in self.weyl.lengths:
            dist[int(l)] = dist.get(int(l), 0) + 1
        return dict(sorted(dist.items()))

    def summary(self) -> dict:
        return {
            "type": "GL",
            "n": self.n,
            "q": self.q,
            "orders": {
                "G": self.order_g,
                "B": self.order_b,
                "U": self.order_u,
                "H": self.order_h,
            },
            "index": self.index,
            "length_distribution": self.length_distribution(),
        }


class ParabolicSubgroup:
    """Standard parabolic of GL_n(q) given by a composition of n."""

    def __init__(self, group: GLGroup, composition):
        self.group = group
        comp = tuple(int(c) for c in composition)
        if any(c < 1 for c in comp) or sum(comp) != group.n:
            raise GroupError(
                f"{comp} is not a composition of {group.n}")
        self.composition = comp
        cuts = []
        acc = 0
        for c in comp[:-1]:
            acc += c
            cuts.append(acc)
        self.cutpoints = tuple(cuts)
        self.blocks = []
        start = 0
        for c in comp:
            self.blocks.append((start, start + c))
            start += c
        self.simple_roots = tuple(
            i for i in range(group.n - 1) if (i + 1) not in set(cuts))
        self._block_of = np.empty(group.n, dtype=np.int64)
        for t, (a, b) in enumerate(self.blocks):
            self._block_of[a:b] = t
        self.index = self._index_formula()

    def _index_formula(self) -> int:
        n, q = self.group.n, self.group.q
        remaining = n
        out = 1
        for c in self.composition:
            out *= gaussian_binomial(remaining, c, q)
            remaining -= c
        return out

    def __repr__(self):
        return f"ParabolicSubgroup({self.group!r}, {self.composition})"

    # -- membership and Levi projection ------------------------------------

    def is_member(self, g) -> bool:
        g = np.asarray(g)
        below = self._block_of[:, None] > self._block_of
        return self.group.is_invertible(g) and not g[below].any()

    def levi_part(self, p) -> np.ndarray:
        out = self.group.field.zeros((self.group.n, self.group.n))
        for a, b in self.blocks:
            out[a:b, a:b] = np.asarray(p)[a:b, a:b]
        return out

    def levi_blocks(self, p) -> list:
        return [np.array(np.asarray(p)[a:b, a:b], dtype=np.int64)
                for a, b in self.blocks]

    def in_unipotent_radical(self, g) -> bool:
        g = np.asarray(g)
        if not self.is_member(g):
            return False
        for a, b in self.blocks:
            if not np.array_equal(g[a:b, a:b], self.group.field.identity(b - a)):
                return False
        return True

    def radical_positions(self) -> list:
        """Matrix positions strictly above the diagonal blocks."""
        n = self.group.n
        return [(a, b) for a in range(n) for b in range(n)
                if self._block_of[a] < self._block_of[b]]

    # -- the coset space G/P ----------------------------------------------

    def _coset_keys(self, stack) -> list:
        """Canonical keys of the cosets gP of an (m, n, n) stack.

        gP holds exactly one flag whose pivot rows increase along each
        block of columns: the canonical flag of g with each block's columns
        sorted by pivot row, then canonicalized again.  Its bytes are the
        key.
        """
        G = self.group
        flags = G.canonical_flag(stack)
        order = np.argsort(self._block_of * G.n + _last_nonzero_rows(flags),
                           axis=1)
        flags = np.take_along_axis(flags, order[:, None, :], axis=2)
        return [key.tobytes() for key in G.canonical_flag(flags)]

    def coset_key(self, g) -> bytes:
        """Canonical key of gP; see _coset_keys."""
        return self._coset_keys(np.asarray(g)[None])[0]

    def _coset_canon(self, stack):
        return stack, self._coset_keys(stack)

    @cached_property
    def cosets(self) -> CosetSpace:
        G = self.group
        return _orbit_cosets(G.field, G.generators, G.identity_element(),
                             self._coset_canon, self.index, "G/P")

    def coset_index(self, g) -> int:
        return self.cosets.index[self.coset_key(g)]

    def decompose(self, g) -> tuple:
        """Write g = rep_i * p with p in P; returns (i, p)."""
        i = self.coset_index(g)
        rep = self.cosets.reps[i]
        p = self.group.field.mat_mul(mat_inverse(self.group.field, rep), g)
        if not self.is_member(p):
            raise GroupError("internal error: parabolic factor not in P")
        return i, p

    def coset_permutation(self, g) -> np.ndarray:
        """Permutation i -> index of g * rep_i; left action on G/P."""
        return _act_on_cosets(self.group.field, g, self.cosets,
                              self._coset_canon)


class RegularCharacter:
    """Linear character of U, trivial on [U, U], nontrivial on each U_s.

    Values live in GF(l^d) where d is the multiplicative order of l modulo
    p, the smallest degree whose multiplicative group contains p-th roots
    of unity.  The value on a unipotent element is zeta ** t where zeta is
    a fixed primitive p-th root and t is the prime-field trace of the sum
    of the superdiagonal entries.
    """

    def __init__(self, group: GLGroup, ell: int):
        if not is_prime(ell):
            raise GroupError(f"coefficient characteristic {ell} is not prime")
        if ell == group.p:
            raise GroupError(
                "the character needs a coefficient field of characteristic "
                "different from the defining one")
        self.group = group
        self.ell = ell
        d = 1
        acc = ell % group.p
        while acc != 1:
            acc = (acc * ell) % group.p
            d += 1
        self.degree = d
        self.field = field_of_order(ell ** d)
        gamma = self.field.generator
        self.zeta = self.field.pow(gamma, (ell ** d - 1) // group.p)
        if self.field.element_order(self.zeta) != group.p:
            raise GroupError("internal error: root of unity has wrong order")
        # nontriviality on the simple-root subgroups: some code has trace != 0
        if group.n >= 2 and all(
                group.field_trace(c) == 0 for c in range(group.q)):
            raise GroupError("internal error: trace form is degenerate")

    def value(self, u) -> int:
        """Character value on a unit upper triangular element, as a field code."""
        G = self.group
        if not G.in_unipotent(u):
            raise GroupError("regular characters are defined on U only")
        s = 0
        for i in range(G.n - 1):
            s = G.field.add(s, int(np.asarray(u)[i, i + 1]))
        return self.field.pow(self.zeta, G.field_trace(s))

    def on_root(self, c: int) -> int:
        """Value on any single simple-root element with parameter c."""
        return self.field.pow(self.zeta, self.group.field_trace(c))

    def is_trivial_on(self, u) -> bool:
        return self.value(u) == self.field.one


def build_gl(n: int, q: int) -> GLGroup:
    """Construct GL_n(q); refuses non-prime-power q and oversized groups."""
    try:
        prime_power(q)
    except ValueError as exc:
        raise GroupError(str(exc)) from None
    return GLGroup(n, q)
