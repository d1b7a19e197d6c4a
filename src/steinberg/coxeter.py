"""Finite Coxeter groups of types A and B as permutation groups.

Elements are stored as immutable tuples:

* type A_n: one-line permutations of {0, ..., n},
* type B_n: signed windows (w(1), ..., w(n)) with values in +-{1..n}.

The group is enumerated once by BFS over the right Cayley graph, which also
assigns lengths; the per-type inversion-count formulas are kept alongside so
lengths can be recomputed from an element alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .caps import MAX_GROUP_ORDER

__all__ = ["CoxeterError", "CoxeterGroup", "build_weyl"]


class CoxeterError(ValueError):
    pass


def _compose_perm(x, y):
    # (x o y)(i) = x(y(i))
    return tuple(x[i] for i in y)


def _invert_perm(x):
    out = [0] * len(x)
    for i, v in enumerate(x):
        out[v] = i
    return tuple(out)


def _compose_signed(x, y):
    out = []
    for v in y:
        w = x[abs(v) - 1]
        out.append(w if v > 0 else -w)
    return tuple(out)


def _invert_signed(x):
    out = [0] * len(x)
    for i, v in enumerate(x, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return tuple(out)


def _inversions_window(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


@dataclass
class CoxeterGroup:
    """Fully enumerated finite Coxeter group with stored lengths."""

    kind: str
    rank: int
    coxeter_matrix: np.ndarray
    gens: list
    elements: list = dc_field(default_factory=list)
    index: dict = dc_field(default_factory=dict)
    lengths: np.ndarray | None = None
    right_table: np.ndarray | None = None

    # -- raw element ops --------------------------------------------------

    def compose(self, x, y):
        if self.kind == "B":
            return _compose_signed(x, y)
        return _compose_perm(x, y)

    def invert_element(self, x):
        if self.kind == "B":
            return _invert_signed(x)
        return _invert_perm(x)

    # -- index-level ops --------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    def multiply(self, i: int, j: int) -> int:
        return self.index[self.compose(self.elements[i], self.elements[j])]

    def inverse(self, i: int) -> int:
        return self.index[self.invert_element(self.elements[i])]

    def length(self, i: int) -> int:
        return int(self.lengths[i])

    def right_descent(self, i: int) -> int | None:
        """Smallest s with l(ws) < l(w), or None at the identity."""
        for s in range(self.rank):
            if self.lengths[self.right_table[i, s]] < self.lengths[i]:
                return s
        return None

    def reduced_word(self, i: int) -> tuple[int, ...]:
        word: list[int] = []
        while i != 0:
            s = self.right_descent(i)
            word.append(s)
            i = int(self.right_table[i, s])
        return tuple(reversed(word))

    def longest_element(self) -> int:
        top = int(np.argmax(self.lengths))
        if int((self.lengths == self.lengths[top]).sum()) != 1:
            raise CoxeterError("longest element is not unique")
        return top

    def inversion_length(self, x) -> int:
        """Length recomputed from the stored permutation alone."""
        negatives = 0 if self.kind == "A" else sum(-v for v in x if v < 0)
        return _inversions_window(x) + negatives

    def poincare_polynomial(self) -> list[int]:
        top = int(self.lengths.max())
        out = [0] * (top + 1)
        for l in self.lengths:
            out[int(l)] += 1
        return out

    # -- parabolic machinery ----------------------------------------------

    def parabolic_elements(self, J) -> list[int]:
        """Indices of the standard parabolic subgroup generated by J."""
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for s in J:
                    j = int(self.right_table[i, s])
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        return sorted(seen)

    def reflection_set(self, J) -> frozenset[int]:
        refl = set()
        for i in self.parabolic_elements(J):
            inv = self.inverse(i)
            for s in J:
                refl.add(self.multiply(self.multiply(i, self.gen_index(s)), inv))
        return frozenset(refl)

    def gen_index(self, s: int) -> int:
        return self.index[self.gens[s]]

    def parabolic_classes(self) -> list[dict]:
        """Conjugacy classes of standard parabolic subgroups.

        Brute force over the whole group; meant for small ranks.
        """
        from itertools import combinations

        subsets = []
        for r in range(self.rank + 1):
            subsets.extend(tuple(c) for c in combinations(range(self.rank), r))
        refl = {J: self.reflection_set(J) for J in subsets}
        classes: list[list[tuple[int, ...]]] = []
        assigned: dict[tuple[int, ...], int] = {}
        for J in subsets:
            placed = False
            for ci, cls in enumerate(classes):
                rep = cls[0]
                if self._conjugate_sets(refl[J], refl[rep]):
                    cls.append(J)
                    assigned[J] = ci
                    placed = True
                    break
            if not placed:
                assigned[J] = len(classes)
                classes.append([J])
        out = []
        for cls in classes:
            out.append({"subsets": cls, "label": self._class_label(cls[0])})
        return out

    def _conjugate_sets(self, R1: frozenset[int], R2: frozenset[int]) -> bool:
        if len(R1) != len(R2):
            return False
        if R1 == R2:
            return True
        for g in range(self.order):
            ginv = self.inverse(g)
            if all(self.multiply(self.multiply(g, r), ginv) in R2 for r in R1):
                return True
        return False

    def _class_label(self, J: tuple[int, ...]) -> str:
        if self.kind == "A":
            # connected generator blocks give the parts of a partition of n+1
            n = self.rank + 1
            parts = []
            run = 0
            for s in range(self.rank):
                if s in J:
                    run += 1
                else:
                    if run:
                        parts.append(run + 1)
                    run = 0
            if run:
                parts.append(run + 1)
            used = sum(parts)
            parts.extend([1] * (n - used))
            parts.sort(reverse=True)
            return "(" + ",".join(str(p) for p in parts) + ")"
        return "J=" + ",".join(str(s) for s in J) if J else "J=empty"

    def summary(self) -> dict:
        return {
            "type": self.kind,
            "rank": self.rank,
            "order": self.order,
            "longest_length": int(self.lengths.max()),
            "length_distribution": self.poincare_polynomial(),
        }


def _gens_type_a(n):
    gens = []
    for i in range(n):
        t = list(range(n + 1))
        t[i], t[i + 1] = t[i + 1], t[i]
        gens.append(tuple(t))
    m = np.full((n, n), 2, dtype=np.int64)
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 3
    np.fill_diagonal(m, 1)
    return gens, m, tuple(range(n + 1))


def _gens_type_b(n):
    gens = []
    w = list(range(1, n + 1))
    w[0] = -1
    gens.append(tuple(w))
    for i in range(1, n):
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        gens.append(tuple(w))
    m = np.full((n, n), 2, dtype=np.int64)
    m[0, 1] = m[1, 0] = 4
    for i in range(1, n - 1):
        m[i, i + 1] = m[i + 1, i] = 3
    np.fill_diagonal(m, 1)
    return gens, m, tuple(range(1, n + 1))


def build_weyl(kind: str, rank: int) -> CoxeterGroup:
    """Build and fully enumerate a finite Coxeter group.

    kind is "A" or "B".
    """
    kind = kind.upper()
    if kind == "A":
        if rank < 1:
            raise CoxeterError("type A needs rank >= 1")
        gens, cm, ident = _gens_type_a(rank)
        expected = 1
        for i in range(2, rank + 2):
            expected *= i
    elif kind == "B":
        if rank < 2:
            raise CoxeterError("type B needs rank >= 2")
        gens, cm, ident = _gens_type_b(rank)
        expected = 2 ** rank
        for i in range(2, rank + 1):
            expected *= i
    else:
        raise CoxeterError(f"unsupported type {kind!r}")
    if expected > MAX_GROUP_ORDER:
        raise CoxeterError(f"group order {expected} exceeds cap {MAX_GROUP_ORDER}")

    W = CoxeterGroup(kind=kind, rank=rank, coxeter_matrix=cm, gens=gens)
    elements = [ident]
    index = {ident: 0}
    lengths = [0]
    rows = []
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            x = elements[i]
            for s, g in enumerate(gens):
                y = W.compose(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    lengths.append(lengths[i] + 1)
                    nxt.append(index[y])
        frontier = nxt
    for x in elements:
        rows.append([index[W.compose(x, g)] for g in gens])
    W.elements = elements
    W.index = index
    W.lengths = np.array(lengths, dtype=np.int64)
    W.right_table = np.array(rows, dtype=np.int64)
    if len(elements) != expected:
        raise CoxeterError(
            f"enumerated {len(elements)} elements, expected {expected}")
    return W
