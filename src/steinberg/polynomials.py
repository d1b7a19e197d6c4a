"""Dense univariate polynomials over a FiniteField.

A polynomial is a Python list of element codes, constant term first, with no
trailing zeros ([] is the zero polynomial).  Only what the irreducibility
and factorization machinery needs lives here: arithmetic, gcd, modular
powers, squarefree/distinct-degree/equal-degree factorization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .gf import FiniteField

__all__ = [
    "trim", "degree", "add", "sub", "scale", "mul", "divmod_poly", "mod",
    "gcd", "monic", "powmod", "evaluate_matrix", "factor", "is_irreducible_poly",
]


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def degree(f: list[int]) -> int:
    return len(f) - 1  # zero polynomial: -1


def add(F: FiniteField, f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = F.add(a, b)
    return trim(out)


def sub(F: FiniteField, f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = F.sub(a, b)
    return trim(out)


def scale(F: FiniteField, c, f):
    if c == 0:
        return []
    return trim([F.mul(c, a) for a in f])


def mul(F: FiniteField, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return trim(out)


def divmod_poly(F: FiniteField, f, g):
    g = trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = trim(list(f))
    dg = degree(g)
    inv_lead = F.inv(g[-1])
    q = [0] * max(len(f) - dg, 0)
    while degree(f) >= dg:
        d = degree(f)
        c = F.mul(f[-1], inv_lead)
        q[d - dg] = c
        for i, b in enumerate(g):
            f[d - dg + i] = F.sub(f[d - dg + i], F.mul(c, b))
        f = trim(f)
    return trim(q), f


def mod(F: FiniteField, f, g):
    return divmod_poly(F, f, g)[1]


def monic(F: FiniteField, f):
    f = trim(list(f))
    if not f:
        return f
    return scale(F, F.inv(f[-1]), f)


def gcd(F: FiniteField, f, g):
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, mod(F, f, g)
    return monic(F, f)


def powmod(F: FiniteField, f, e: int, m):
    r = [1]
    f = mod(F, list(f), m)
    while e:
        if e & 1:
            r = mod(F, mul(F, r, f), m)
        f = mod(F, mul(F, f, f), m)
        e >>= 1
    return r


def derivative(F: FiniteField, f):
    return trim([F.mul(F.from_int(i), f[i]) for i in range(1, len(f))])


def evaluate_matrix(F: FiniteField, f, A: np.ndarray) -> np.ndarray:
    """f(A) by Horner's rule."""
    n = A.shape[0]
    R = F.zeros((n, n))
    for c in reversed(f):
        R = F.mat_mul(R, A)
        if c:
            R = F.mat_add(R, F.scale(c, F.identity(n)))
    return R


def _pth_root(F: FiniteField, a: int) -> int:
    # Frobenius is an automorphism, so the p-th root is a^(q/p)
    return F.pow(a, F.order // F.p)


def squarefree_parts(F: FiniteField, f) -> list[tuple[list[int], int]]:
    """Yield (squarefree factor, multiplicity) pairs, classic char-p version."""
    f = monic(F, f)
    out: list[tuple[list[int], int]] = []
    e = 1
    while degree(f) > 0:
        df = derivative(F, f)
        if not df:
            # f is a polynomial in x^p: take a p-th root and retry
            g = [_pth_root(F, f[i]) for i in range(0, len(f), F.p)]
            f = trim(g)
            e *= F.p
            continue
        c = gcd(F, f, df)
        w = divmod_poly(F, f, c)[0]
        m = 1
        while degree(w) > 0:
            y = gcd(F, w, c)
            z = divmod_poly(F, w, y)[0]
            if degree(z) > 0:
                out.append((z, e * m))
            c = divmod_poly(F, c, y)[0]
            w = y
            m += 1
        f = c
    return out


def _distinct_degree(F: FiniteField, f) -> list[tuple[list[int], int]]:
    """Split a squarefree monic f into products of same-degree irreducibles."""
    out = []
    h = [0, 1]  # x
    d = 0
    f = monic(F, f)
    while degree(f) >= 2 * (d + 1):
        d += 1
        h = powmod(F, h, F.order, f)
        g = gcd(F, sub(F, h, [0, 1]), f)
        if degree(g) > 0:
            out.append((g, d))
            f = divmod_poly(F, f, g)[0]
            h = mod(F, h, f)
    if degree(f) > 0:
        out.append((f, degree(f)))
    return out


def _split_equal_degree(F: FiniteField, f, d: int, rng) -> list[list[int]]:
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles."""
    n = degree(f)
    if n == d:
        return [monic(F, f)]
    while True:
        h = [int(rng.integers(0, F.order)) for _ in range(n)]
        h = trim(h)
        if degree(h) < 1:
            continue
        if F.p == 2:
            # trace map over GF(2) inside GF(q^d), q = 2^k
            t = list(h)
            acc = list(h)
            for _ in range(F.k * d - 1):
                acc = mod(F, mul(F, acc, acc), f)
                t = add(F, t, acc)
            g = gcd(F, t, f)
        else:
            g = gcd(F, h, f)
            if degree(g) < 1:
                e = (F.order ** d - 1) // 2
                g = gcd(F, sub(F, powmod(F, h, e, f), [1]), f)
        if 0 < degree(g) < n:
            left = _split_equal_degree(F, g, d, rng)
            right = _split_equal_degree(F, divmod_poly(F, f, g)[0], d, rng)
            return left + right


def factor(F: FiniteField, f, rng=None) -> list[tuple[list[int], int]]:
    """Monic irreducible factors with multiplicities, sorted deterministically."""
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    f = trim(list(f))
    if degree(f) < 1:
        return []
    found: dict[tuple[int, ...], int] = {}
    for sf, e in squarefree_parts(F, f):
        for block, d in _distinct_degree(F, sf):
            for irr in _split_equal_degree(F, block, d, rng):
                key = tuple(irr)
                found[key] = found.get(key, 0) + e
    return [(list(k), m) for k, m in sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0]))]


def is_irreducible_poly(F: FiniteField, f) -> bool:
    f = monic(F, f)
    if degree(f) < 1:
        return False
    fac = factor(F, f)
    return len(fac) == 1 and fac[0][1] == 1
