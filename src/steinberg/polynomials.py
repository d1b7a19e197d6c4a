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

The distinct-degree loop runs on numpy arrays of codes, for every field.
Raising to the q-th power is GF(q)-linear, so each modulus f of degree n
gets one n x n Frobenius matrix, whose row i is x^(q i) mod f, built by
doubling with matrix products; each degree then costs one vector-matrix
product for x^(q^d) mod f and one Euclid on arrays for its gcd with f.
Products of list polynomials cost O(n^2) scalar operations in Python,
which dense Norton samples, with certifying factors of degree in the
hundreds, cannot afford.  Cantor-Zassenhaus and the division of factors
out of f stay on lists: they see only the products they split.
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
    f = list(f)
    dg = degree(g)
    inv_lead = F.inv(g[-1])
    q = [0] * max(len(f) - dg, 0)
    # d walks down the dividend's degree in place: no step re-slices f
    for d in range(len(f) - 1, dg - 1, -1):
        if f[d] == 0:
            continue
        c = F.mul(f[d], inv_lead)
        q[d - dg] = c
        for i, b in enumerate(g):
            f[d - dg + i] = F.sub(f[d - dg + i], F.mul(c, b))
    return trim(q), trim(f[:dg])


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


def _trimmed(a: np.ndarray) -> np.ndarray:
    """A code array without its trailing zeros (a view)."""
    end = a.size
    while end and a[end - 1] == 0:
        end -= 1
    return a[:end]


def _gcd_codes(F: FiniteField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Monic gcd of two polynomials given as code arrays: Euclid with one
    array update per quotient coefficient."""
    a, b = _trimmed(a), _trimmed(b)
    while b.size:
        b = F.scale(F.inv(int(b[-1])), b)
        a = a.copy()
        while a.size >= b.size:
            s = a.size - b.size
            a[s:] = F.sub_outer(a[s:], a[-1:], b)[0]
            a = _trimmed(a)
        a, b = b, a
    return F.scale(F.inv(int(a[-1])), a) if a.size else a


def _mulmod_rows(F: FiniteField, A: np.ndarray, b: np.ndarray,
                 fold: np.ndarray) -> np.ndarray:
    """Each row of A times b, modulo the f of `_fold_rows`: one product by
    the Toeplitz matrix of b, then one by `fold` for the high half."""
    n = b.size
    padded = np.zeros(3 * n - 2, dtype=np.int64)
    padded[n - 1:2 * n - 1] = b
    # row i holds b shifted up by i: the matrix of a -> a * b
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, 2 * n - 1)[::-1]
    P = F.mat_mul(A, toeplitz)
    return F.mat_add(P[:, :n], F.mat_mul(P[:, n:], fold))


def _fold_rows(F: FiniteField, f: np.ndarray) -> np.ndarray:
    """Rows x^(n+t) mod f for t < n - 1, for monic f of degree n >= 2.

    A product of two residues has degree at most 2n - 2; these rows fold
    its coefficients of degree n and up back below n.  Row t + 1 is row t
    times x: shifted up, with its top coefficient folded by row 0.
    """
    n = f.size - 1
    fold = np.zeros((n - 1, n), dtype=np.int64)
    fold[0] = F.mat_neg(f[:n])
    for t in range(n - 2):
        fold[t + 1, 1:] = fold[t, :-1]
        fold[t + 1] = F.mat_add(fold[t + 1],
                                F.scale(int(fold[t, -1]), fold[0]))
    return fold


def _frobenius_rows(F: FiniteField, f: np.ndarray) -> np.ndarray:
    """The matrix of h -> h^q mod f for monic f of degree n >= 2: row i is
    x^(q i) mod f, since h^q = sum h_i x^(q i) over GF(q).

    Row 1 is x^q by square and multiply; rows m..2m-1 are rows 0..m-1
    times x^(q m), the square of row m/2, one `_mulmod_rows` per doubling.
    """
    n = f.size - 1
    fold = _fold_rows(F, f)

    def times(a, b):
        return _mulmod_rows(F, a.reshape(1, -1), b, fold)[0]

    Q = np.zeros((n, n), dtype=np.int64)
    Q[0, 0] = 1
    x = np.roll(Q[0], 1)
    beta = Q[0]
    for bit in bin(F.order)[2:]:
        beta = times(beta, beta)
        if bit == "1":
            beta = times(beta, x)
    Q[1] = beta
    m = 2
    while m < n:
        top = min(m, n - m)
        Q[m:m + top] = _mulmod_rows(F, Q[:top], times(Q[m // 2], Q[m // 2]),
                                    fold)
        m *= 2
    return Q


def irreducible_factors(F: FiniteField, f, rng=None):
    """Yield the distinct monic irreducible factors of f, lowest degree first.

    Lazy distinct-degree factorization: for d = 1, 2, ... the product of the
    degree-d factors is gcd(x^(q^d) - x, f), split by Cantor-Zassenhaus and
    yielded in sorted order; every power of them is divided out of f before
    d grows, so once deg f < 2(d + 1) what is left is irreducible.  A caller
    that stops early pays only for the degrees it reached.  The loop runs on
    code arrays: each modulus f gets one Frobenius matrix, each degree one
    vector-matrix product for x^(q^d) mod f and one array Euclid.
    """
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    f = monic(F, f)
    h = [0, 1]  # x^(q^d) mod f
    modulus = None  # f as codes, with its Frobenius matrix
    d = 0
    while degree(f) >= 2 * (d + 1):
        d += 1
        if modulus is None:
            modulus = np.array(f, dtype=np.int64)
            frobenius = _frobenius_rows(F, modulus)
            h = np.array(h + [0] * (degree(f) - len(h)), dtype=np.int64)
        h = F.mat_mul(h.reshape(1, -1), frobenius)[0]
        moved = h.copy()
        moved[1] = F.sub(int(moved[1]), 1)
        g = _gcd_codes(F, moved, modulus).tolist()
        if degree(g) < 1:
            continue
        for irr in sorted(_split_equal_degree(F, g, d, rng)):
            yield irr
            f = _divide_out(F, f, irr)[0]
        modulus = None
        h = mod(F, h.tolist(), f)
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
