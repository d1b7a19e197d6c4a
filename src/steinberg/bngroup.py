"""Matrix realization of GL_n over a finite field with split BN-pair data.

The group is presented concretely: elements are n-by-n invertible matrices
of field codes, the Borel subgroup B is upper triangular, the torus H is
diagonal, U is upper unitriangular, and Weyl group elements w carry
permutation-matrix representatives n_w.  On top of that this module offers:

* sharp Bruhat decomposition g = b * n_w * u with u in U_w, the subgroup
  of U supported on the inversion positions of w (the triple is unique and
  is verified on every call);
* the finite flag variety G/B as canonical column-echelon representatives,
  enumerated in a deterministic breadth-first order that also records each
  generator's permutation of the flags;
* the permutation action of an arbitrary group element on G/B, composed
  along its Bruhat factors from cached permutations of root elements,
  single-entry torus elements and Weyl representatives;
* the cell table of Bruhat cells of all pairs of flags, with row 0 from
  Bruhat cells and every other row propagated along the breadth-first
  tree, since the Weyl distance between flags is G-invariant;
* standard parabolic subgroups P = U_P x L for a composition of n, with
  canonical G/P coset data and Levi projections;
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
from .gf import FiniteField, field_of_order, is_prime, prime_power
from .gf import inverse as mat_inverse
from .gf import row_basis

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
    multiplication by the group generators.  `parent[i]` is the coset whose
    image under generator `parent_gen[i]` first reached coset i (-1 for
    coset 0), and row k of `gen_perms` is the permutation of generator k.
    """

    reps: list
    index: dict
    size: int
    parent: np.ndarray
    parent_gen: np.ndarray
    gen_perms: np.ndarray


def _orbit_cosets(F: FiniteField, generators, start, canon, expected: int,
                  label: str) -> CosetSpace:
    """Breadth-first orbit of the coset of `start` under the generators.

    `canon(g)` returns (representative, key) of the coset of g; equal keys
    mean equal cosets.
    """
    rep, key = canon(start)
    reps, index = [rep], {key: 0}
    parent, parent_gen = [-1], [-1]
    images = [[] for _ in generators]
    i = 0
    while i < len(reps):
        for k, gen in enumerate(generators):
            rep, key = canon(F.mat_mul(gen, reps[i]))
            j = index.get(key)
            if j is None:
                j = index[key] = len(reps)
                reps.append(rep)
                parent.append(i)
                parent_gen.append(k)
            images[k].append(j)
        i += 1
    if len(reps) != expected:
        raise GroupError(
            f"{label} orbit found {len(reps)} cosets, expected {expected}")
    return CosetSpace(
        reps=reps, index=index, size=len(reps),
        parent=np.array(parent, dtype=np.int64),
        parent_gen=np.array(parent_gen, dtype=np.int64),
        gen_perms=np.array(images, dtype=np.int64).reshape(
            len(generators), len(reps)))


def _trivial_weyl() -> CoxeterGroup:
    return CoxeterGroup(
        kind="A", rank=0, bond=None,
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
        self._factor_perms: dict[bytes, np.ndarray] = {}

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

    def _monomialize(self, g):
        """Left unit-upper row ops and right U column ops to a monomial form.

        Returns (pivot rows r with r[j] the row of column j's entry, the
        accumulated right factor R with g * R monomial).  Raises on singular
        input.
        """
        F = self.field
        n = self.n
        A = np.array(g, dtype=np.int64, copy=True)
        if A.shape != (n, n):
            raise GroupError(f"expected a {n}x{n} matrix, got {A.shape}")
        R = F.identity(n)
        pivots = [-1] * n
        for j in range(n):
            nz = np.nonzero(A[:, j])[0]
            if len(nz) == 0:
                raise GroupError("singular matrix has no Bruhat decomposition")
            r = int(nz[-1])
            pivots[j] = r
            inv_p = F.inv(int(A[r, j]))
            for i in range(r):
                c = int(A[i, j])
                if c:
                    f = F.mul(c, inv_p)
                    A[i, :] = F.mat_sub(A[i:i + 1, :],
                                        F.scale(f, A[r:r + 1, :]))[0]
            for k in range(j + 1, n):
                c = int(A[r, k])
                if c:
                    f = F.mul(c, inv_p)
                    A[:, k] = F.mat_sub(A[:, k:k + 1],
                                        F.scale(f, A[:, j:j + 1]))[:, 0]
                    R[:, k] = F.mat_sub(R[:, k:k + 1],
                                        F.scale(f, R[:, j:j + 1]))[:, 0]
        return pivots, R

    def weyl_of(self, g) -> int:
        """Index of the Weyl group element whose cell contains g."""
        pivots, _ = self._monomialize(g)
        return self.weyl.index[tuple(pivots)]

    def bruhat(self, g) -> BruhatTriple:
        """Factor g as b * n_w * u with b in B and u in U_w, verified."""
        F = self.field
        n = self.n
        pivots, R = self._monomialize(g)
        w_tuple = tuple(pivots)
        w = self.weyl.index[w_tuple]

        # v is unit upper triangular; split v = u' * u with u' supported on
        # the non-inversion positions and u on the inversions of w
        v = mat_inverse(F, R)
        inv_pos = set(self.inversion_positions(w))
        z = F.identity(n)  # will hold u^{-1}
        for d in range(1, n):
            for a in range(n - d):
                b_col = a + d
                if (a, b_col) not in inv_pos:
                    continue
                val = 0
                for c in range(a, b_col + 1):
                    val = F.add(val, F.mul(int(v[a, c]), int(z[c, b_col])))
                z[a, b_col] = F.neg(val)
        u = mat_inverse(F, z)

        n_w = self.weyl_rep(w)
        b = self.field.mat_mul(g, mat_inverse(F, F.mat_mul(n_w, u)))
        if not self.in_borel(b) or not self.in_u_w(u, w):
            raise GroupError("internal error: Bruhat factors failed checks")
        recon = F.mat_mul(b, F.mat_mul(n_w, u))
        if not np.array_equal(recon, np.asarray(g, dtype=np.int64)):
            raise GroupError("internal error: Bruhat product mismatch")
        return BruhatTriple(b=b, w=w, u=u)

    # -- the flag variety G/B ----------------------------------------------

    def canonical_flag(self, g) -> np.ndarray:
        """Unique coset representative of gB in column-echelon normal form.

        Columns are processed left to right: entries in the pivot rows of
        earlier columns are cleared, then the bottom-most remaining nonzero
        entry becomes a pivot scaled to 1.
        """
        F = self.field
        n = self.n
        A = np.array(g, dtype=np.int64, copy=True)
        if A.shape != (n, n):
            raise GroupError(f"expected a {n}x{n} matrix, got {A.shape}")
        pivot_rows: list[int] = []
        for j in range(n):
            for jj, r in enumerate(pivot_rows):
                c = int(A[r, j])
                if c:
                    A[:, j] = F.mat_sub(A[:, j:j + 1],
                                        F.scale(c, A[:, jj:jj + 1]))[:, 0]
            nz = np.nonzero(A[:, j])[0]
            if len(nz) == 0:
                raise GroupError("singular matrix does not define a flag")
            r = int(nz[-1])
            c = int(A[r, j])
            if c != 1:
                A[:, j] = F.scale(F.inv(c), A[:, j:j + 1])[:, 0]
            pivot_rows.append(r)
        return A

    def flag_key(self, g) -> bytes:
        return self.canonical_flag(g).tobytes()

    @cached_property
    def cosets(self) -> CosetSpace:
        """G/B enumerated breadth-first from the identity coset."""

        def canon(g):
            flag = self.canonical_flag(g)
            return flag, flag.tobytes()

        cs = _orbit_cosets(self.field, self.generators,
                           self.identity_element(), canon, self.index, "flag")
        # the orbit already holds the permutations of the generators, each a
        # Bruhat factor of itself, and of the identity (the trivial n_w)
        self._factor_perms[self.identity_element().tobytes()] = np.arange(
            cs.size)
        for gen, perm in zip(self.generators, cs.gen_perms):
            self._factor_perms[gen.tobytes()] = perm
        return cs

    def coset_index(self, g) -> int:
        return self.cosets.index[self.flag_key(g)]

    def _factor_permutation(self, g) -> np.ndarray:
        """Coset permutation of a Bruhat factor by canonicalizing every flag.

        Memoized per group: only root elements, single-entry torus elements
        and Weyl representatives come here, so the cache stays small.
        """
        key = g.tobytes()
        perm = self._factor_perms.get(key)
        if perm is None:
            cs = self.cosets
            perm = np.array(
                [cs.index[self.flag_key(self.field.mat_mul(g, rep))]
                 for rep in cs.reps], dtype=np.int64)
            self._factor_perms[key] = perm
        return perm

    def _entry_permutation(self, a: int, b: int, c: int) -> np.ndarray:
        """Permutation of the identity matrix with entry (a, b) set to c."""
        x = self.field.identity(self.n)
        x[a, b] = c
        return self._factor_permutation(x)

    def _unipotent_action(self, u, out: np.ndarray) -> np.ndarray:
        """Compose the permutation of a unit upper triangular u onto `out`.

        u = E_{n-1} ... E_1, where E_b is the (commuting) product of the
        root elements x_ab(u[a, b]) of column b, so E_1 acts first.
        """
        for b in range(1, self.n):
            for a in range(b):
                c = int(u[a, b])
                if c:
                    out = self._entry_permutation(a, b, c)[out]
        return out

    def coset_permutation(self, g) -> np.ndarray:
        """Permutation i -> index of g * rep_i; left action on G/B.

        Factors g = h * u_b * n_w * u with the verified Bruhat decomposition
        (b = h * u_b, h diagonal) and composes the memoized permutations of
        root elements, single-entry torus elements and n_w.
        """
        F = self.field
        b, w, u = self.bruhat(g)
        h = [int(c) for c in np.diagonal(b)]
        u_b = F.mat_mul(self.torus_element([F.inv(c) for c in h]), b)
        out = self._unipotent_action(u, np.arange(self.cosets.size))
        out = self._factor_permutation(self.weyl_rep(w))[out]
        out = self._unipotent_action(u_b, out)
        for i, c in enumerate(h):
            if c != 1:
                out = self._entry_permutation(i, i, c)[out]
        if len(set(out.tolist())) != out.size:
            raise GroupError("coset action is not a permutation")
        return out

    @cached_property
    def cell_table(self) -> np.ndarray:
        """cell_table[i, j] = Weyl index of the cell containing rep_i^{-1} rep_j.

        Row 0 (rep_0 is the identity) comes from Bruhat cells.  The Weyl
        distance is G-invariant, table[g.i, g.j] = table[i, j], so every
        other row is its BFS parent's row gathered through the inverse
        permutation of the generator that reached it.
        """
        cs = self.cosets
        table = np.empty((cs.size, cs.size), dtype=np.int64)
        table[0] = [self.weyl_of(rep) for rep in cs.reps]
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
        if not self.group.is_invertible(g):
            return False
        for a in range(self.group.n):
            for b in range(self.group.n):
                if self._block_of[a] > self._block_of[b] and g[a, b] != 0:
                    return False
        return True

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

    def coset_key(self, g) -> bytes:
        """Canonical key of gP: echelon bases of the prefix column spans."""
        F = self.group.field
        g = np.asarray(g)
        parts = []
        for m in self.cutpoints:
            basis = row_basis(F, g[:, :m].T)
            if basis.shape[0] != m:
                raise GroupError("singular matrix does not define a coset")
            parts.append(basis.tobytes())
        return b"|".join(parts)

    @cached_property
    def cosets(self) -> CosetSpace:
        G = self.group
        return _orbit_cosets(G.field, G.generators, G.identity_element(),
                             lambda g: (g, self.coset_key(g)), self.index,
                             "G/P")

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
        cs = self.cosets
        out = np.empty(cs.size, dtype=np.int64)
        for i, rep in enumerate(cs.reps):
            out[i] = cs.index[self.coset_key(self.group.field.mat_mul(g, rep))]
        if len(set(out.tolist())) != cs.size:
            raise GroupError("coset action is not a permutation")
        return out


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
