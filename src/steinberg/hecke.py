"""Iwahori-Hecke algebra of a finite Coxeter group, abstract and realized.

The abstract side is the deformation of the group algebra of W with one
parameter per simple reflection: basis T_w, the defining left rule

    T_s * T_w = T_{sw}                          if l(sw) > l(w),
    T_s * T_w = q_s T_{sw} + (q_s - 1) T_w      otherwise,

two one-dimensional characters (the sign character T_w -> (-1)^l(w) and the
index character T_s -> q_s), the involution exchanging them, and the
symmetrizing trace picking out the identity coefficient.  The coefficient
ring is `IntegerCoefficients` (big integers) or a `FiniteField` itself.

The realized side acts on the flag permutation basis of a concrete group:
the operator of T_w sends a coset x to the sum of the cosets y for which
x^{-1}y lies in the double coset of n_w, read from the group's cell table.
Because the algebra is the opposite of the equivariant endomorphism ring,
the operator of a product T_x T_y is (matrix of T_y) @ (matrix of T_x); the
relation checks below pin that convention.  A simple operator T_s sends
each flag to the sum of the q flags s-adjacent to it.  The relation checks
apply it to a block of vectors as a sum of q index gathers through the
cell table; the eigenspace reads only the s-panels, since T_s x = -x
exactly when x sums to 0 over each s-panel.  Neither multiplies operator
matrices.  The all-important alternating sum over the Weyl group (the
Steinberg element) is an integer eigenvector of every realized operator
with eigenvalue (-1)^l(w), here checked over the integers so the statement
descends to every coefficient field, and also modulo a prime; the check
reads T_w e from the cell table rows on the support of e, without operator
matrices.
"""

from __future__ import annotations

import numpy as np

from .bngroup import GLGroup
from .caps import MAX_DENSE_DIM
from .coxeter import CoxeterGroup
from .gf import FieldError, FiniteField, field, is_prime, kernel

__all__ = [
    "HeckeError",
    "IntegerCoefficients",
    "HeckeElement",
    "HeckeAlgebra",
    "hecke_for_group",
    "borel_matrices_int",
    "act_on_borel_module",
    "alternating_sum_vector",
    "is_sign_eigenvector",
    "sign_eigenspace",
    "hecke_check",
]


class HeckeError(ValueError):
    pass


class IntegerCoefficients:
    """Arbitrary-precision integer coefficient ring."""

    name = "ZZ"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, n):
        return n

    def inv(self, a):
        if a not in (1, -1):
            raise HeckeError(f"{a} is not invertible over the integers")
        return a

    def __eq__(self, other):
        return isinstance(other, IntegerCoefficients)

    def __hash__(self):
        return hash("ZZ")


class HeckeElement:
    """Finitely supported coefficient map on the basis, bound to its algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "HeckeAlgebra", coeffs: dict):
        self.algebra = algebra
        self.coeffs = {w: c for w, c in coeffs.items() if c != algebra.ring.zero}

    def coefficient(self, w: int):
        return self.coeffs.get(w, self.algebra.ring.zero)

    @property
    def support(self):
        return frozenset(self.coeffs)

    def _require_same(self, other):
        if not isinstance(other, HeckeElement) or other.algebra is not self.algebra:
            raise HeckeError("elements belong to different algebras")

    def __add__(self, other):
        self._require_same(other)
        ring = self.algebra.ring
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = ring.add(out.get(w, ring.zero), c)
        return HeckeElement(self.algebra, out)

    def __sub__(self, other):
        self._require_same(other)
        return self + (-other)

    def __neg__(self):
        ring = self.algebra.ring
        return HeckeElement(
            self.algebra, {w: ring.neg(c) for w, c in self.coeffs.items()})

    def scale(self, c):
        ring = self.algebra.ring
        return HeckeElement(
            self.algebra, {w: ring.mul(c, x) for w, x in self.coeffs.items()})

    def __rmul__(self, n):
        if isinstance(n, int):
            return self.scale(self.algebra.ring.from_int(n))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.algebra.ring.from_int(other))
        self._require_same(other)
        return self.algebra.multiply(self, other)

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and other.algebra is self.algebra
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{c}*T[{w}]" for w, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


class HeckeAlgebra:
    """Hecke algebra of a finite Coxeter group over a coefficient ring:
    `IntegerCoefficients` or a `FiniteField`."""

    def __init__(self, weyl: CoxeterGroup, ring, params):
        self.weyl = weyl
        self.ring = ring
        if isinstance(params, int):
            params = [params] * weyl.rank
        params = list(params)
        if len(params) != weyl.rank:
            raise HeckeError(
                f"need {weyl.rank} parameters, got {len(params)}")
        self.params = [ring.from_int(p) if isinstance(p, int) else p
                       for p in params]
        for s in range(weyl.rank):
            for t in range(s + 1, weyl.rank):
                if (int(weyl.coxeter_matrix[s, t]) % 2 == 1
                        and self.params[s] != self.params[t]):
                    raise HeckeError(
                        "generators joined by an odd bond need equal parameters")

    # -- element constructors ----------------------------------------------

    def basis(self, w: int) -> HeckeElement:
        if not 0 <= w < self.weyl.order:
            raise HeckeError(f"basis index {w} out of range")
        return HeckeElement(self, {w: self.ring.one})

    def one(self) -> HeckeElement:
        return self.basis(self.weyl.identity)

    def zero_element(self) -> HeckeElement:
        return HeckeElement(self, {})

    def element(self, coeffs: dict) -> HeckeElement:
        return HeckeElement(self, dict(coeffs))

    def generator(self, s: int) -> HeckeElement:
        return self.basis(self.weyl.gen_index(s))

    # -- multiplication ----------------------------------------------------

    def _gen_times(self, s: int, x: HeckeElement) -> HeckeElement:
        """T_s * x by the defining left multiplication rule."""
        W = self.weyl
        ring = self.ring
        q_s = self.params[s]
        q_s_minus_1 = ring.sub(q_s, ring.one)
        s_idx = W.gen_index(s)
        out: dict = {}

        def bump(w, c):
            if c != ring.zero:
                out[w] = ring.add(out.get(w, ring.zero), c)

        for w, c in x.coeffs.items():
            sw = W.multiply(s_idx, w)
            if W.length(sw) > W.length(w):
                bump(sw, c)
            else:
                bump(sw, ring.mul(q_s, c))
                bump(w, ring.mul(q_s_minus_1, c))
        return HeckeElement(self, out)

    def multiply(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        if a.algebra is not self or b.algebra is not self:
            raise HeckeError("elements belong to different algebras")
        total = self.zero_element()
        for w, c in a.coeffs.items():
            term = b
            for s in reversed(self.weyl.reduced_word(w)):
                term = self._gen_times(s, term)
            total = total + term.scale(c)
        return total

    # -- characters, involution, trace ------------------------------------

    def char_eps(self, x: HeckeElement):
        """Sign character: T_w -> (-1)^l(w)."""
        ring = self.ring
        out = ring.zero
        for w, c in x.coeffs.items():
            sign = ring.from_int(-1 if self.weyl.length(w) % 2 else 1)
            out = ring.add(out, ring.mul(sign, c))
        return out

    def index_of_basis(self, w: int):
        """Index-character value on T_w: the product of the word's parameters."""
        ring = self.ring
        out = ring.one
        for s in self.weyl.reduced_word(w):
            out = ring.mul(out, self.params[s])
        return out

    def char_ind(self, x: HeckeElement):
        """Index character: T_s -> q_s."""
        ring = self.ring
        out = ring.zero
        for w, c in x.coeffs.items():
            out = ring.add(out, ring.mul(self.index_of_basis(w), c))
        return out

    def gamma(self, x: HeckeElement) -> HeckeElement:
        """The involution T_s -> (q_s - 1)T_1 - T_s exchanging sign and index.

        Requires invertible parameters: the defining formula is
        -q_s * T_s^{-1}, even though the expanded form clears denominators.
        """
        for s, q_s in enumerate(self.params):
            try:
                self.ring.inv(q_s)
            except (ZeroDivisionError, HeckeError):
                raise HeckeError(
                    f"parameter {q_s} for generator {s} is not invertible"
                ) from None
        total = self.zero_element()
        for w, c in x.coeffs.items():
            term = self.one()
            for s in self.weyl.reduced_word(w):
                image = self.element({
                    self.weyl.identity: self.ring.sub(self.params[s], self.ring.one),
                }) - self.generator(s)
                term = self.multiply(term, image)
            total = total + term.scale(c)
        return total

    def trace(self, x: HeckeElement):
        """Symmetrizing trace: the coefficient of the identity basis element."""
        return x.coefficient(self.weyl.identity)

    # -- structural self-checks -------------------------------------------

    def check_quadratic(self) -> bool:
        for s in range(self.weyl.rank):
            t = self.generator(s)
            lhs = self.multiply(t, t)
            rhs = self.element({
                self.weyl.identity: self.params[s],
            }) + t.scale(self.ring.sub(self.params[s], self.ring.one))
            if lhs != rhs:
                return False
        return True

    def check_braid(self) -> bool:
        for s in range(self.weyl.rank):
            for t in range(s + 1, self.weyl.rank):
                m = int(self.weyl.coxeter_matrix[s, t])
                a = self.one()
                b = self.one()
                for i in range(m):
                    a = self.multiply(a, self.generator(s if i % 2 == 0 else t))
                    b = self.multiply(b, self.generator(t if i % 2 == 0 else s))
                if a != b:
                    return False
        return True


def hecke_for_group(G: GLGroup, ring=None) -> HeckeAlgebra:
    """Equal-parameter algebra of the group's Weyl group, q_s = q."""
    if ring is None:
        ring = IntegerCoefficients()
    return HeckeAlgebra(G.weyl, ring, [ring.from_int(G.q)] * G.weyl.rank)


# -- realized action on the flag permutation basis --------------------------


def borel_matrices_int(G: GLGroup) -> list:
    """Integer matrix of every T_w on the flag basis.

    Entry (j, i) is 1 when rep_i^{-1} rep_j lies in the double coset of n_w,
    so column i lists the cosets hit by the operator applied to coset i.
    """
    table = G.cell_table
    return [np.array((table == w).T, dtype=np.int64)
            for w in range(G.weyl.order)]


def _check_ell(G: GLGroup, ell: int) -> FiniteField:
    if not is_prime(ell):
        raise HeckeError(f"coefficient characteristic {ell} must be prime")
    if ell == G.p:
        raise HeckeError(
            "equal-characteristic coefficients are not supported")
    return field(ell)


def act_on_borel_module(G: GLGroup, ell: int, w: int) -> np.ndarray:
    """Matrix of T_w on the flag basis over GF(ell)."""
    _check_ell(G, ell)
    return np.array((G.cell_table == w).T, dtype=np.int64)


def alternating_sum_vector(G: GLGroup) -> np.ndarray:
    """Integer coordinates of the alternating Weyl sum in the flag basis.

    Entry at the coset of n_w is (-1)^l(w); everything else is zero.  This
    is the Steinberg element of the Borel permutation module.  The cosets
    of all the representatives n_w come from one stacked canonicalization.
    """
    W = G.weyl
    flags = G.canonical_flag(np.array([G.weyl_rep(w)
                                       for w in range(W.order)]))
    idx = [G.cosets.index[flag.tobytes()] for flag in flags]
    if len(set(idx)) != W.order:
        raise HeckeError("distinct Weyl representatives share a coset")
    e = np.zeros(G.index, dtype=np.int64)
    e[idx] = 1 - 2 * (W.lengths % 2)
    return e


def is_sign_eigenvector(G: GLGroup, v, modulus=None) -> bool:
    """True when T_w v = (-1)^l(w) v for every w, over the integers, or
    modulo `modulus` when one is given.

    Reads (T_w v)[j] = sum of v[i] over the support of v with
    cell_table[i, j] = w straight from the cell table, so no operator
    matrix is built.
    """
    v = np.asarray(v, dtype=np.int64)
    support = np.flatnonzero(v)
    rows = G.cell_table[support]
    coeffs = v[support]
    for w in range(G.weyl.order):
        sign = -1 if G.weyl.length(w) % 2 else 1
        diff = coeffs @ (rows == w) - sign * v
        if (diff if modulus is None else diff % modulus).any():
            return False
    return True


def _adjacent_flags(G: GLGroup, s: int) -> np.ndarray:
    """(flags, q) array: row i lists the flags j with cell_table[j, i] equal
    to the simple reflection s, the q flags s-adjacent to flag i."""
    hits = G.cell_table == G.weyl.gen_index(s)
    return np.nonzero(hits.T)[1].reshape(G.index, G.q)


def _apply_simple(F: FiniteField, adjacent, rows) -> np.ndarray:
    """rows @ T_s.T over the prime field F: flag i gets the sum of the
    rows' entries on the flags adjacent to i, one gather at a time."""
    out = rows[:, adjacent[:, 0]]
    for k in range(1, adjacent.shape[1]):
        out += rows[:, adjacent[:, k]]
    return out % F.p


def _panel_incidence(G: GLGroup, s: int) -> np.ndarray:
    """0/1 matrix with one row per s-panel: the q + 1 flags made of a flag
    and the q flags s-adjacent to it."""
    adjacent = _adjacent_flags(G, s)
    leader = np.minimum(adjacent.min(axis=1), np.arange(G.index))
    panel = np.unique(leader, return_inverse=True)[1]
    out = np.zeros((panel.max() + 1, G.index), dtype=np.int64)
    out[panel, np.arange(G.index)] = 1
    return out


def sign_eigenspace(G: GLGroup, ell: int) -> np.ndarray:
    """Basis rows of the common (-1)-eigenspace of all simple operators.

    T_s x is the sum of x over each flag's s-panel minus x, so T_s x = -x
    exactly when x sums to 0 over every s-panel.  The eigenspace is
    therefore one kernel over GF(ell), of the stacked panel incidence
    matrices of all simple reflections (the whole space when there are
    none); it equals the Steinberg submodule of the flag permutation
    module.
    """
    F = _check_ell(G, ell)
    if G.weyl.rank == 0:
        return F.identity(G.index)
    return kernel(F, np.vstack([_panel_incidence(G, s)
                                for s in range(G.weyl.rank)]))


def hecke_check(G: GLGroup, ell: int) -> dict:
    """Relation, eigenvector and eigenspace summary used by the CLI."""
    if G.index > MAX_DENSE_DIM:
        raise FieldError(
            f"flag count {G.index} exceeds cap {MAX_DENSE_DIM}")
    F = _check_ell(G, ell)
    W = G.weyl
    adjacent = [_adjacent_flags(G, s) for s in range(W.rank)]
    eye = F.identity(G.index)
    q_mod = F.from_int(G.q)

    # Products are kept transposed: rows @ T_s.T is the gather-sum, and
    # (T_s @ X).T = X.T @ T_s.T.
    relations_ok = True
    for s in range(W.rank):
        m = act_on_borel_module(G, ell, W.gen_index(s))
        lhs = _apply_simple(F, adjacent[s], m.T).T
        rhs = F.mat_add(F.scale(q_mod, eye), F.scale(F.sub(q_mod, F.one), m))
        if not np.array_equal(lhs, rhs):
            relations_ok = False
    # opposite-composition law: along a reduced word s_1 ... s_k the matrix
    # of T_w is the product of the generator matrices in reversed order
    for w in range(W.order):
        prod_t = eye
        for s in W.reduced_word(w):
            prod_t = _apply_simple(F, adjacent[s], prod_t)
        if not np.array_equal(prod_t.T, act_on_borel_module(G, ell, w)):
            relations_ok = False

    lemma_ok = is_sign_eigenvector(G, alternating_sum_vector(G))

    dim = int(sign_eigenspace(G, ell).shape[0])
    return {
        "group": {"type": "GL", "n": G.n, "q": G.q},
        "ell": ell,
        "relations_ok": relations_ok,
        "lemma22_ok": lemma_ok,
        "eigenspace_dim": dim,
    }
