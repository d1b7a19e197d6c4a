"""Dense univariate polynomials over a FiniteField.

A polynomial is an int64 numpy array of element codes, constant term first,
with no trailing zeros (an empty array is the zero polynomial).  Every
function takes any sequence of codes and returns such arrays.  Only what
the irreducibility and factorization machinery and the set-up of extension
fields in `gf` need lives here: arithmetic, gcd, modular powers, evaluation
at a matrix, and one factoring path.

Arithmetic runs on whole arrays.  A product is one matrix product by the
Toeplitz matrix of a factor (`_toeplitz`).  A product modulo a monic f of
degree n folds its coefficients of degree n and up back below n with one
more product, by the rows x^(n+t) mod f (`_fold_rows`); `powmod` squares
and multiplies that way, and `gf` builds its reduction rows and the
doublings of its log tables from the same two functions.  Division and
Euclid update one array slice per quotient coefficient, except that
dividing out the powers of a factor g takes matrix products by the rows
x^t mod g.

The factoring path is `irreducible_factors`, a lazy distinct-degree
factorization whose same-degree products are split by Cantor-Zassenhaus.
It yields the distinct irreducible factors lowest degree first, so the
MeatAxe's Norton test pays only for the degrees it tries; `factor`
(multiplicities by repeated division) and `is_irreducible_poly` (the first
factor is f itself) are built on it.  Raising to the q-th power is
GF(q)-linear, so each modulus f of degree n that reaches degree 2 gets
one n x n Frobenius matrix, whose row i is x^(q i) mod f, built by
doubling with matrix products; each degree from 2 on then costs one
vector-matrix product for x^(q^d) mod f and one Euclid for its gcd with
f.  Degree 1 needs only x^q mod f, by squaring, and most factor searches
of the Norton test stop there.
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


def trim(f) -> np.ndarray:
    """f as a code array without its trailing zeros (a view of an array f)."""
    f = np.asarray(f, dtype=np.int64)
    end = f.size
    while end and f[end - 1] == 0:
        end -= 1
    return f[:end]


def degree(f) -> int:
    return len(f) - 1  # zero polynomial: -1


def _padded(f, n: int) -> np.ndarray:
    """The codes of f followed by zeros up to length n >= len(f)."""
    out = np.zeros(n, dtype=np.int64)
    out[:len(f)] = f
    return out


def add(F: FiniteField, f, g) -> np.ndarray:
    n = max(len(f), len(g))
    return trim(F.mat_add(_padded(f, n), _padded(g, n)))


def sub(F: FiniteField, f, g) -> np.ndarray:
    n = max(len(f), len(g))
    return trim(F.mat_sub(_padded(f, n), _padded(g, n)))


def scale(F: FiniteField, c, f) -> np.ndarray:
    return trim(F.scale(c, trim(f)))


def _toeplitz(b: np.ndarray, rows: int) -> np.ndarray:
    """The matrix of a -> a * b for a of length `rows`: entry (i, j) is
    b[j - i], zero outside b.  A read-only strided view of one zero-padded
    copy of b, each row starting one element before the last."""
    padded = np.zeros(2 * rows + b.size - 2, dtype=np.int64)
    padded[rows - 1:rows - 1 + b.size] = b
    step = padded.itemsize
    return np.lib.stride_tricks.as_strided(
        padded[rows - 1:], shape=(rows, rows + b.size - 1),
        strides=(-step, step), writeable=False)


def mul(F: FiniteField, f, g) -> np.ndarray:
    f, g = trim(f), trim(g)
    if not f.size or not g.size:
        return f[:0]
    return F.mat_mul(f.reshape(1, -1), _toeplitz(g, f.size))[0]


def _reduce(F: FiniteField, r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reduce r in place modulo monic g and return the quotient: d walks
    down r's degree, one array update per quotient coefficient, which is
    r's coefficient at d."""
    dg = g.size - 1
    q = np.zeros(max(r.size - dg, 0), dtype=np.int64)
    for d in range(r.size - 1, dg - 1, -1):
        if r[d]:
            s = d - dg
            q[s] = r[d]
            r[s:d + 1] = F.sub_outer(r[s:d + 1], q[s:s + 1], g)[0]
    return q


def divmod_poly(F: FiniteField, f, g) -> tuple[np.ndarray, np.ndarray]:
    g = trim(g)
    if not g.size:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = F.inv(int(g[-1]))
    r = np.array(f, dtype=np.int64)
    q = _reduce(F, r, F.scale(inv_lead, g))
    return scale(F, inv_lead, q), trim(r[:g.size - 1])


def mod(F: FiniteField, f, g) -> np.ndarray:
    return divmod_poly(F, f, g)[1]


def monic(F: FiniteField, f) -> np.ndarray:
    f = trim(f)
    return F.scale(F.inv(int(f[-1])), f) if f.size else f


def gcd(F: FiniteField, f, g) -> np.ndarray:
    """Monic gcd by Euclid, each remainder made monic and reduced in place
    (`monic` returns a new array, so no caller's array is changed)."""
    f, g = monic(F, f), monic(F, g)
    while g.size:
        _reduce(F, f, g)
        f, g = g, monic(F, f[:g.size - 1])
    return f


def _mulmod_rows(F: FiniteField, A: np.ndarray, b: np.ndarray,
                 fold: np.ndarray) -> np.ndarray:
    """Each row of A times b, modulo the f of `_fold_rows`: one product by
    the Toeplitz matrix of b, then one by `fold` for the high part.  The
    rows of A and b are residues padded to length n = deg f."""
    n = fold.shape[1]
    P = F.mat_mul(A, _toeplitz(b, n))
    return F.mat_add(P[:, :n], F.mat_mul(P[:, n:], fold))


def _fold_rows(F: FiniteField, f: np.ndarray) -> np.ndarray:
    """Rows x^(n+t) mod f for t < n - 1, for monic f of degree n >= 1.

    A product of two residues has degree at most 2n - 2; these rows fold
    its coefficients of degree n and up back below n.  Row t + 1 is row t
    times x: shifted up, with its top coefficient folded by row 0.
    """
    n = f.size - 1
    fold = np.zeros((n - 1, n), dtype=np.int64)
    fold[:1] = F.mat_neg(f[:n])  # no rows at all for n = 1
    for t in range(n - 2):
        fold[t + 1, 1:] = fold[t, :-1]
        fold[t + 1] = F.mat_add(fold[t + 1],
                                F.scale(int(fold[t, -1]), fold[0]))
    return fold


def _power(F: FiniteField, b: np.ndarray, e: int,
           fold: np.ndarray) -> np.ndarray:
    """b^e modulo the f of `fold`, b a padded residue: square and multiply."""
    r = b if e else np.eye(1, b.size, dtype=np.int64)[0]
    for bit in bin(e)[3:]:
        r = _mulmod_rows(F, r.reshape(1, -1), r, fold)[0]
        if bit == "1":
            r = _mulmod_rows(F, r.reshape(1, -1), b, fold)[0]
    return r


def _power_rows(F: FiniteField, b: np.ndarray, count: int,
                fold: np.ndarray) -> np.ndarray:
    """Rows b^i modulo the f of `fold` for i < count, b a padded residue:
    rows m..2m-1 are rows 0..m-1 times b^m, one `_mulmod_rows` per
    doubling."""
    R = np.zeros((count, fold.shape[1]), dtype=np.int64)
    R[0, 0] = 1
    m = 1
    while m < count:
        if m > 1:
            b = _power(F, b, 2, fold)
        R[m:2 * m] = _mulmod_rows(F, R[:min(m, count - m)], b, fold)
        m *= 2
    return R


def powmod(F: FiniteField, f, e: int, m) -> np.ndarray:
    """f^e mod m, for m of degree at least 1."""
    m = monic(F, m)
    b = _padded(mod(F, f, m), degree(m))
    return trim(_power(F, b, e, _fold_rows(F, m)))


def evaluate_matrix(F: FiniteField, f, A: np.ndarray) -> np.ndarray:
    """f(A) by Horner's rule from lead * A: deg f - 1 matrix products."""
    f = trim(f)
    n = A.shape[0]
    eye = F.identity(n)
    if f.size < 2:
        return F.scale(int(f[0]) if f.size else 0, eye)
    R = F.scale(int(f[-1]), A)
    for c in reversed(f[1:-1].tolist()):
        R = F.mat_mul(F.mat_add(R, F.scale(c, eye)), A)
    return F.mat_add(R, F.scale(int(f[0]), eye))


def _divide_out(F: FiniteField, f, g) -> tuple[np.ndarray, int]:
    """(f / g^m, m) for the largest m with g^m dividing f, for monic g.

    Division by g of degree k is GF(q)-linear in f.  With X the rows x^t
    mod g for t <= deg f, f mod g is f times X, and the quotient is f's
    coefficients from degree k up times the Toeplitz matrix of X's column
    k - 1, the power series 1 / (x^k g(1/x)).  One X serves every division.
    """
    f, g = trim(f), trim(g)
    k = g.size - 1
    fold = _fold_rows(F, g)
    X = _power_rows(F, _padded(mod(F, [0, 1], g), k), f.size, fold)
    series = X[k - 1:, k - 1]
    m = 0
    while f.size > k and not F.mat_mul(f.reshape(1, -1), X[:f.size]).any():
        top = f.size - k
        f = F.mat_mul(_toeplitz(series[:top], top)[:, :top],
                      f[k:].reshape(-1, 1))[:, 0]
        m += 1
    return f, m


def _split_equal_degree(F: FiniteField, f, d: int, rng) -> list[np.ndarray]:
    """Cantor-Zassenhaus split of a squarefree monic product of degree-d
    irreducibles."""
    f = trim(f)
    n = degree(f)
    if n == d:
        return [monic(F, f)]
    fold = _fold_rows(F, f)
    while True:
        h = trim(rng.integers(0, F.order, size=n))
        if degree(h) < 1:
            continue
        if F.p == 2:
            # trace map over GF(2) inside GF(q^d), q = 2^k
            t = acc = _padded(h, n)
            for _ in range(F.k * d - 1):
                acc = _power(F, acc, 2, fold)
                t = F.mat_add(t, acc)
            g = gcd(F, t, f)
        else:
            g = gcd(F, h, f)
            if degree(g) < 1:
                e = (F.order ** d - 1) // 2
                g = gcd(F, sub(F, _power(F, _padded(h, n), e, fold), [1]), f)
        if 0 < degree(g) < n:
            left = _split_equal_degree(F, g, d, rng)
            right = _split_equal_degree(F, divmod_poly(F, f, g)[0], d, rng)
            return left + right


def _frobenius_rows(F: FiniteField, x_to_q: np.ndarray,
                    fold: np.ndarray) -> np.ndarray:
    """The matrix of h -> h^q mod f, for the monic f of degree n >= 2 of
    `fold`, from x^q mod f padded to length n: row i is x^(q i) mod f,
    since h^q = sum h_i x^(q i) over GF(q)."""
    return _power_rows(F, x_to_q, fold.shape[1], fold)


def irreducible_factors(F: FiniteField, f):
    """Yield the distinct monic irreducible factors of f, lowest degree first.

    Lazy distinct-degree factorization: for d = 1, 2, ... the product of the
    degree-d factors is gcd(x^(q^d) - x, f), split by Cantor-Zassenhaus and
    yielded sorted by coefficients; every power of them is divided out of f
    before d grows, so once deg f < 2(d + 1) what is left is irreducible.  A
    caller that stops early pays only for the degrees it reached.  Degree 1
    raises x to the q-th power modulo f by squaring; from degree 2 on, each
    modulus f gets one Frobenius matrix, and each degree one vector-matrix
    product for x^(q^d) mod f.  Every degree takes one Euclid.  The
    Cantor-Zassenhaus splits draw from a fixed seed.
    """
    rng = np.random.default_rng(0x5EED)
    f = monic(F, f)
    # x^q and x^(q^d) mod f; x^q is computed at d = 1
    x_to_q = h = np.array([0, 1], dtype=np.int64)
    fold = frobenius = None  # of the current f
    d = 0
    while degree(f) >= 2 * (d + 1):
        d += 1
        if fold is None:
            fold = _fold_rows(F, f)
            h, x_to_q = _padded(h, degree(f)), _padded(x_to_q, degree(f))
        if d == 1:
            h = x_to_q = _power(F, h, F.order, fold)
        else:
            if frobenius is None:
                frobenius = _frobenius_rows(F, x_to_q, fold)
            h = F.mat_mul(h.reshape(1, -1), frobenius)[0]
        g = gcd(F, sub(F, h, [0, 1]), f)
        if degree(g) < 1:
            continue
        for irr in sorted(_split_equal_degree(F, g, d, rng), key=tuple):
            yield irr
            f = _divide_out(F, f, irr)[0]
        fold = frobenius = None
        h, x_to_q = mod(F, h, f), mod(F, x_to_q, f)
    if degree(f) > 0:
        yield f


def factor(F: FiniteField, f) -> list[tuple[np.ndarray, int]]:
    """Monic irreducible factors with multiplicities, sorted by degree, then
    by coefficients."""
    f = trim(f)
    out = []
    for irr in irreducible_factors(F, f):
        f, m = _divide_out(F, f, irr)
        out.append((irr, m))
    return out


def is_irreducible_poly(F: FiniteField, f) -> bool:
    f = monic(F, f)
    return degree(f) >= 1 and np.array_equal(
        next(irreducible_factors(F, f)), f)
