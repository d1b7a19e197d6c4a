"""Dense univariate polynomials over a FiniteField.

A polynomial is a Python list of element codes, constant term first, with no
trailing zeros ([] is the zero polynomial).  Only what the irreducibility
and factorization machinery and the set-up of extension fields in `gf`
need lives here: arithmetic, gcd, modular powers, evaluation at a matrix,
and one factoring path.

That path is `irreducible_factors`, a lazy distinct-degree factorization
whose same-degree products are split by Cantor-Zassenhaus.  It yields the
distinct irreducible factors lowest degree first, so the MeatAxe's Norton
test pays only for the degrees it tries; `factor` (multiplicities by
repeated division) and `is_irreducible_poly` (the first factor is f
itself) are built on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .gf import FiniteField

__all__ = [
    "trim", "degree", "add", "sub", "scale", "mul", "divmod_poly", "mod",
    "gcd", "monic", "powmod", "evaluate_matrix", "irreducible_factors",
    "factor", "is_irreducible_poly",
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


def evaluate_matrix(F: FiniteField, f, A: np.ndarray) -> np.ndarray:
    """f(A) by Horner's rule from lead * A: deg f - 1 matrix products."""
    n = A.shape[0]
    eye = F.identity(n)
    if len(f) < 2:
        return F.scale(f[0] if f else 0, eye)
    R = F.scale(f[-1], A)
    for c in reversed(f[1:-1]):
        R = F.mat_mul(F.mat_add(R, F.scale(c, eye)), A)
    return F.mat_add(R, F.scale(f[0], eye))


def _divide_out(F: FiniteField, f, g) -> tuple[list[int], int]:
    """(f / g^m, m) for the largest m with g^m dividing f."""
    m = 0
    while True:
        quo, rem = divmod_poly(F, f, g)
        if rem:
            return f, m
        f, m = quo, m + 1


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


def irreducible_factors(F: FiniteField, f, rng=None):
    """Yield the distinct monic irreducible factors of f, lowest degree first.

    Lazy distinct-degree factorization: for d = 1, 2, ... the product of the
    degree-d factors is gcd(x^(q^d) - x, f), split by Cantor-Zassenhaus and
    yielded in sorted order; every power of them is divided out of f before
    d grows, so once deg f < 2(d + 1) what is left is irreducible.  A caller
    that stops early pays only for the degrees it reached.
    """
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    f = monic(F, f)
    h = [0, 1]  # x^(q^d) mod f
    d = 0
    while degree(f) >= 2 * (d + 1):
        d += 1
        h = powmod(F, h, F.order, f)
        g = gcd(F, sub(F, h, [0, 1]), f)
        if degree(g) < 1:
            continue
        for irr in sorted(_split_equal_degree(F, g, d, rng)):
            yield irr
            f = _divide_out(F, f, irr)[0]
        h = mod(F, h, f)
    if degree(f) > 0:
        yield f


def factor(F: FiniteField, f, rng=None) -> list[tuple[list[int], int]]:
    """Monic irreducible factors with multiplicities, sorted by degree, then
    by coefficients."""
    f = trim(list(f))
    out = []
    for irr in irreducible_factors(F, f, rng):
        f, m = _divide_out(F, f, irr)
        out.append((irr, m))
    return out


def is_irreducible_poly(F: FiniteField, f) -> bool:
    f = monic(F, f)
    return degree(f) >= 1 and next(irreducible_factors(F, f)) == f
