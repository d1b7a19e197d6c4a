"""Exact arithmetic in GF(p^k) and dense exact linear algebra on top of numpy.

Field elements are encoded as integers in [0, p^k): the base-p digits of the
code are the coefficients of the residue polynomial, constant term first.
Matrices are plain numpy int64 arrays of codes.  All results are exact.
Elements add digit by digit: arrays through their decoded digit arrays,
scalars on Python ints.  In characteristic 2 a code's bits are its digits,
so arrays add and subtract by XOR, and reduction modulo 2 keeps the low bit.

How elements multiply: a prime field multiplies modulo p.  An extension
field multiplies elementwise (scalars, `hadamard`, `scale`, inverses and
powers) through one pair of discrete-log tables, exp[i] = g^i for the
smallest-coded generator g and log[exp[i]] = i, each of at most q entries
and built on first use; a product is exp[(log a + log b) mod (q - 1)], and
0 where a factor is 0.  Every field also reads `element_order` and its
`inverses` array from these tables.  Every matrix product is one integer
product and one reduction modulo p: over an extension field each entry b
of the right factor becomes the k x k matrix of multiplication by b, whose
row s holds the digits of x^s b, and the left factor's digits multiply
those blocks.  The log tables double by multiplying by g^m modulo the
modulus through `polynomials._mulmod_rows`, which folds by the rows
x^(k+t) mod the modulus, `polynomials._fold_rows`.

Floats appear only inside a matrix product whose every dot product is
bounded below 2**53, where float64 sums of integers are exact.  That
product is float64 `@` with numpy's bundled OpenBLAS pinned to one thread
for the call, or `np.einsum`, which calls no BLAS, where that library or
its thread-count functions cannot be found.

A subspace is held as its canonical basis: its RREF rows, no zero rows.
This module is the one place that reads, reduces and intersects such
bases: `_pivots` reads the pivot columns off canonical rows with no
elimination, `_canonical` eliminates only rows that are not canonical,
`reduce_mod_rowspace` gives residues and coordinates modulo a basis, and
`intersect_rowspaces` solves for the combinations whose residue vanishes.

The modulus for an extension field is chosen deterministically: the monic
irreducible polynomial of degree k whose non-leading coefficient string has
the smallest integer encoding.  GF(4) therefore always means x^2 + x + 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import polynomials
from .caps import MAX_DENSE_DIM, MAX_FIELD_SIZE

__all__ = [
    "FieldError",
    "FiniteField",
    "field",
    "rref",
    "row_basis",
    "rank",
    "kernel",
    "inverse",
    "charpoly",
    "intersect_rowspaces",
    "reduce_mod_rowspace",
]

# a float64 dot product of integers is exact while every sum stays below this
_FLOAT_EXACT = 1 << 53
# products with fewer multiply-adds stay on int64 `@`: converting small
# factors to float64 costs more than the float product saves (without this
# floor both benchmark workloads ran about 7% slower)
_FLOAT_MIN_MADDS = 1 << 15
# the pivot search's first window of columns past an empty one
_SCAN_WIDTH = 64
# codes decoded at once while the log tables double: bounds the transient
# digit arrays (all of GF(2^20)'s 2^19 at once raised peak RSS to 207 MB)
_LOG_SLICE = 1 << 15


class FieldError(ValueError):
    """Bad field parameters or a request outside the supported caps."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n < 2**40."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """Write q = p^k, or raise FieldError."""
    fac = factorize(q)
    if len(fac) != 1:
        raise FieldError(f"{q} is not a prime power")
    ((p, k),) = fac.items()
    return p, k


# ---------------------------------------------------------------------------
# modulus selection: polynomials over GF(p) as little-endian int tuples

def _least_irreducible(p, k):
    """Monic irreducible of degree k with the smallest low-coefficient code."""
    Fp = field(p)
    for code in range(p ** k):
        mod = tuple((code // p ** i) % p for i in range(k)) + (1,)
        if polynomials.is_irreducible_poly(Fp, mod):
            return mod
    raise FieldError(f"no irreducible polynomial found for GF({p}^{k})")


# ---------------------------------------------------------------------------

class FiniteField:
    """GF(p^k) with integer-coded elements and numpy-vectorized matrix ops.

    Do not construct directly; use field(p, k) so instances are cached and
    the modulus stays canonical.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = modulus  # little-endian, length k+1, monic
        self.zero = 0
        self.one = 1
        self._pows = np.array([p ** i for i in range(k)], dtype=np.int64)
        # reduction rows: row m is x^(k+m) in the power basis (none for k = 1)
        self._red = polynomials._fold_rows(
            self if k == 1 else field(p), np.array(modulus, dtype=np.int64))

    @functools.cached_property
    def generator(self) -> int:
        """Smallest-coded multiplicative generator: the first code g with
        g^((q-1)/r) != 1 for every prime r dividing q - 1."""
        Fp = field(self.p)
        n = self.order - 1
        primes = list(factorize(n))
        return next(g for g in range(1, self.order) if all(
            polynomials.powmod(Fp, self._decode(g), n // r,
                               self.modulus).tolist() != [1]
            for r in primes))

    @functools.cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log): exp[i] = g^i for the generator g and i < q - 1, and
        log[exp[i]] = i; log[0] is 0 and means nothing.

        exp doubles, exp[m:2m] = exp[:m] * g^m, and multiplying by the
        fixed element g^m is a k x k linear map of the digits, whose row s
        is x^s g^m mod the modulus, applied to _LOG_SLICE codes at a time;
        its row 0, g^m, squared through the map gives g^(2m).
        """
        Fp = field(self.p)
        n = self.order - 1
        power = self._decode(self.generator)  # digits of g^m
        exp = np.ones(n, dtype=np.int64)
        m = 1
        while m < n:
            top = min(m, n - m)
            times = polynomials._mulmod_rows(
                Fp, np.eye(self.k, dtype=np.int64), power, self._red)
            for lo in range(0, top, _LOG_SLICE):
                hi = min(lo + _LOG_SLICE, top)
                exp[m + lo:m + hi] = self._encode(
                    self._decode(exp[lo:hi]) @ times)
            power = Fp.mat_mul(power.reshape(1, -1), times)[0]
            m *= 2
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n)
        exp.flags.writeable = log.flags.writeable = False
        return exp, log

    @functools.cached_property
    def inverses(self) -> np.ndarray:
        """inverses[c] = 1/c for every nonzero code c, and 0 at 0."""
        exp, _ = self._logs
        out = np.zeros(self.order, dtype=np.int64)
        out[exp] = exp[-np.arange(len(exp)) % len(exp)]
        out.flags.writeable = False
        return out

    # -- scalar arithmetic ------------------------------------------------

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """a + sign * b over an extension field, one base-p digit at a time."""
        p = self.p
        out, weight = 0, 1
        for _ in range(self.k):
            out += (a % p + sign * (b % p)) % p * weight
            a, b, weight = a // p, b // p, weight * p
        return int(out)

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._digitwise(0, a, -1)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        exp, log = self._logs
        return int(exp[(log[a] + log[b]) % (self.order - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + str(self))
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return int(self.inverses[a])

    def pow(self, a: int, e: int) -> int:
        if self.k == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 ** e  # 1 for e = 0; raises for e < 0
        exp, log = self._logs
        return int(exp[int(log[a]) * e % (self.order - 1)])

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def element_order(self, a: int) -> int:
        if a == 0:
            raise FieldError("0 has no multiplicative order")
        n = self.order - 1
        return n // math.gcd(int(self._logs[1][a]), n)

    # -- encode/decode ----------------------------------------------------

    def _decode(self, arr):
        """(..., ) codes -> (..., k) digits."""
        arr = np.asarray(arr, dtype=np.int64)
        return (arr[..., None] // self._pows) % self.p

    def _encode(self, digits):
        """(..., k) digits of a fresh int64 array, reduced in place ->
        (...,) codes."""
        return self._mod(digits) @ self._pows

    def from_int(self, n: int) -> int:
        """Image of an integer under Z -> GF(p^k) (lands in the prime field)."""
        return n % self.p

    # -- array arithmetic -------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        a = np.array(data, dtype=np.int64)
        if a.size and (a.min() < 0 or a.max() >= self.order):
            raise FieldError("entries out of range for " + str(self))
        return a

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def _mod(self, X):
        """Reduce a fresh int64 array X into [0, p) in place.

        X - (X // p) * p: numpy floor-divides by a scalar about twice as
        fast as it takes `%`, and floor division keeps the result in [0, p).
        For p = 2 the low bit is the residue, also of a negative X in two's
        complement, and `&` is several times faster than floor division.
        """
        if self.p == 2:
            X &= 1
            return X
        quot = X // self.p
        quot *= self.p
        X -= quot
        return X

    def _product(self, A, B) -> np.ndarray:
        """Exact integer product of two int64 matrices with entries in [0, p).

        Large products run in float64 when no dot product can reach 2**53,
        so every partial sum is an exactly representable integer: as `@`
        on one OpenBLAS thread, restoring the thread count afterwards, or
        as einsum when `_blas_threads` finds no thread-count functions.
        """
        if A.ndim == 2 and B.ndim == 2:
            inner = A.shape[1]
            if (A.shape[0] * inner * B.shape[1] >= _FLOAT_MIN_MADDS
                    and inner * (self.p - 1) ** 2 < _FLOAT_EXACT):
                threads = _blas_threads()
                if threads is None:
                    # both factors row-major along the summed index:
                    # einsum's contiguous dot loop, fast for narrow B too
                    return np.einsum("ij,kj->ik", A.astype(np.float64),
                                     B.T.astype(np.float64, order="C")
                                     ).astype(np.int64)
                Af, Bf = A.astype(np.float64), B.astype(np.float64)
                get_threads, set_threads = threads
                saved = get_threads()
                set_threads(1)
                try:
                    C = Af @ Bf
                finally:
                    set_threads(saved)
                return C.astype(np.int64)
        return A @ B

    def mat_add(self, A, B) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(A, B)
        if self.k == 1:
            return self._mod(A + B)
        return self._encode(self._decode(A) + self._decode(B))

    def mat_sub(self, A, B) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(A, B)
        if self.k == 1:
            return self._mod(A - B)
        return self._encode(self._decode(A) - self._decode(B))

    def mat_neg(self, A) -> np.ndarray:
        if self.k == 1:
            return self._mod(-np.asarray(A))
        return self._encode(-self._decode(A))

    def scale(self, c: int, A) -> np.ndarray:
        """c * A elementwise for a scalar code c."""
        if self.k == 1:
            return self._mod(c * np.asarray(A))
        return self.hadamard(c, A)

    def hadamard(self, A, B) -> np.ndarray:
        """Elementwise product of two arrays of codes, numpy-broadcast."""
        A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
        if self.k == 1:
            return self._mod(A * B)
        exp, log = self._logs
        return np.where((A == 0) | (B == 0), 0,
                        exp[(log[A] + log[B]) % (self.order - 1)])

    def sub_outer(self, X, col, row) -> np.ndarray:
        """X - outer(col, row): the rank-1 update of elimination."""
        col = np.asarray(col, dtype=np.int64)
        row = np.asarray(row, dtype=np.int64)
        if self.k == 1:
            out = np.multiply.outer(col, row)
            if self.p == 2:
                return np.bitwise_xor(X, out, out=out)
            np.subtract(X, out, out=out)
            return self._mod(out)
        return self.mat_sub(X, self.hadamard(col.reshape(-1, 1), row))

    def mat_mul(self, A, B) -> np.ndarray:
        """A @ B as one `_product` and one reduction.

        Over GF(p^k) row s of block (j, c) of the right factor holds the
        digits of x^s B[j, c], so the left factor's (m, n k) digit matrix
        times that (n k, r k) matrix gives the (m, r, k) digits of A B.
        """
        A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
        if self.k == 1:
            return self._mod(self._product(A, B))
        (m, n), r, k = A.shape, B.shape[1], self.k
        blocks = self._decode(self.hadamard(B[:, None, :], self._pows[:, None]))
        C = self._product(self._decode(A).reshape(m, n * k),
                          blocks.reshape(n * k, r * k))
        return self._encode(C.reshape(m, r, k))

    def mat_vec(self, A, v) -> np.ndarray:
        return self.mat_mul(A, np.reshape(v, (-1, 1))).ravel()

    def random_matrix(self, rng, shape) -> np.ndarray:
        return rng.integers(0, self.order, size=shape, dtype=np.int64)

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    def __hash__(self):
        return hash((self.p, self.k))

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.k) == (other.p, other.k)


@functools.cache
def _blas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None when the library or either function is missing.

    Looked up on the first float product, not at import: loading ctypes
    and glob would lengthen every start-up.
    """
    import ctypes
    import glob
    import os

    libs = sorted(glob.glob(os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs",
        "libscipy_openblas64_*.so")))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@functools.lru_cache(maxsize=None)
def field(p: int, k: int = 1) -> FiniteField:
    """The finite field GF(p^k) with the canonical deterministic modulus."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError("extension degree must be >= 1")
    if p ** k > MAX_FIELD_SIZE:
        raise FieldError(f"field order {p}^{k} exceeds cap {MAX_FIELD_SIZE}")
    if k == 1:
        return FiniteField(p, 1, (0, 1))
    return FiniteField(p, k, _least_irreducible(p, k))


def field_of_order(q: int) -> FiniteField:
    p, k = prime_power(q)
    return field(p, k)


# ---------------------------------------------------------------------------
# dense linear algebra


def _check_dims(A):
    if max(A.shape, default=0) > MAX_DENSE_DIM:
        raise FieldError(f"matrix dimension exceeds cap {MAX_DENSE_DIM}")


def _next_usable_column(R, r, c) -> int:
    """Leftmost column from c on that is nonzero from row r down, else the
    column count.  Windows of doubling width keep each scan proportional to
    the run of zero columns it skips."""
    cols = R.shape[1]
    width = _SCAN_WIDTH
    while c < cols:
        hit = R[r:, c : c + width].any(axis=0).nonzero()[0]
        if len(hit):
            return c + int(hit[0])
        c += width
        width *= 2
    return cols


def rref(F: FiniteField, A) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (same shape, zero rows at the bottom), pivots.

    Pivot search is deterministic: leftmost column, topmost usable row.
    """
    R = np.array(A, dtype=np.int64)
    if R.ndim != 2:
        raise FieldError("rref expects a 2-d array")
    _check_dims(R)
    rows, cols = R.shape
    pivots: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        nz = R[r:, c].nonzero()[0]
        if len(nz) == 0:
            c = _next_usable_column(R, r, c + 1)
            if c == cols:
                break
            nz = R[r:, c].nonzero()[0]
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        # row r is zero left of c, so updates touch columns c: only
        piv = int(R[r, c])
        if piv != 1:
            R[r, c:] = F.scale(F.inv(piv), R[r, c:])
        colvals = R[:, c].copy()
        colvals[r] = 0
        mask = colvals.nonzero()[0]
        if len(mask):
            R[mask, c:] = F.sub_outer(R[mask, c:], colvals[mask], R[r, c:])
        pivots.append(c)
        r += 1
        c += 1
    return R, pivots


def row_basis(F: FiniteField, A) -> np.ndarray:
    """RREF with zero rows trimmed: the canonical basis of the row space."""
    R, piv = rref(F, A)
    return R[: len(piv)]


def rank(F: FiniteField, A) -> int:
    return len(rref(F, A)[1])


def kernel(F: FiniteField, A) -> np.ndarray:
    """Canonical basis (rows, RREF) of {x : A @ x = 0}, from one `rref`.

    The elimination runs on A with its columns reversed.  Free column f of
    the reversed matrix gives the kernel vector with a 1 at original column
    cols - 1 - f and -R[j, f] at the pivot columns, which all lie to the
    right of it there.  So each vector's leading 1 is in a column where
    every other vector is zero, and the vectors sorted by that column are
    already the RREF basis.
    """
    A = np.asarray(A, dtype=np.int64)
    cols = A.shape[1]
    R, piv = rref(F, A[:, ::-1])
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    # descending in the reversed columns: ascending in the original ones
    free = np.flatnonzero(is_free)[::-1]
    K = np.zeros((len(free), cols), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    if piv:
        # free column f sets each pivot variable to -R[j, f]
        K[:, piv] = F.mat_neg(R[: len(piv), free].T)
    return np.ascontiguousarray(K[:, ::-1])


def inverse(F: FiniteField, A) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise FieldError("inverse expects a square matrix")
    aug = np.concatenate([A, F.identity(n)], axis=1)
    R, piv = rref(F, aug)
    if piv[:n] != list(range(n)):
        raise FieldError("matrix is singular")
    return R[:, n:]


def charpoly(F: FiniteField, A) -> np.ndarray:
    """Code array of det(tI - A), ascending, monic (length n+1)."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise FieldError("charpoly expects a square matrix")
    if n == 0:
        return np.ones(1, dtype=np.int64)
    H = A.copy()
    # reduce to upper Hessenberg form by exact similarity transforms: one
    # rank-1 transform per column, H -> L H L^-1 with L = I - f e_{c+1}^T
    for c in range(n - 2):
        nz = np.nonzero(H[c + 1 :, c])[0]
        if len(nz) == 0:
            continue
        i = c + 1 + int(nz[0])
        if i != c + 1:
            H[[c + 1, i]] = H[[i, c + 1]]
            H[:, [c + 1, i]] = H[:, [i, c + 1]]
        f = F.scale(F.inv(int(H[c + 1, c])), H[c + 2 :, c])
        # row c + 1 is zero left of column c, so the rows change from c on
        H[c + 2 :, c:] = F.sub_outer(H[c + 2 :, c:], f, H[c + 1, c:])
        H[:, c + 1] = F.mat_add(
            H[:, c + 1], F.mat_mul(H[:, c + 2 :], f.reshape(-1, 1))[:, 0])
    # row m of P is the charpoly of the leading m x m block of H; betas[i]
    # is the subdiagonal product H[i+1, i] * ... * H[m-1, m-2]
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    betas = np.zeros(0, dtype=np.int64)
    for m in range(1, n + 1):
        prev = P[m - 1]
        cur = np.zeros(n + 1, dtype=np.int64)
        cur[1:] = prev[:-1]  # t * prev
        cur = F.mat_sub(cur, F.scale(int(H[m - 1, m - 1]), prev))
        if m > 1:
            h = int(H[m - 1, m - 2])
            betas = np.append(F.scale(h, betas), h)
            coefs = F.hadamard(H[: m - 1, m - 1], betas).reshape(1, -1)
            cur = F.mat_sub(cur, F.mat_mul(coefs, P[: m - 1])[0])
        P[m] = cur
    return P[n]


def _pivots(basis) -> list:
    """Pivot columns of a canonical basis, read without elimination: the
    first nonzero column of each row.  Raises FieldError when the rows are
    not in reduced row echelon form without zero rows.  The checks read the
    nonzero mask, so no r x r array is formed."""
    nonzero = basis != 0
    # argmax needs a column: rows without any are zero rows
    pivots = (np.argmax(nonzero, axis=1) if nonzero.size
              else np.zeros(0, dtype=np.intp))
    if (len(pivots) != len(basis) or (pivots[1:] <= pivots[:-1]).any()
            or (basis[np.arange(len(pivots)), pivots] != 1).any()
            or (nonzero.sum(axis=0)[pivots] != 1).any()):
        raise FieldError("basis is not in reduced row echelon form")
    return pivots.tolist()


def _free_columns(dim: int, pivots) -> np.ndarray:
    """The columns of an RREF basis that hold no pivot."""
    free = np.ones(dim, dtype=bool)
    free[pivots] = False
    return np.flatnonzero(free)


def _canonical(F: FiniteField, rows) -> tuple[np.ndarray, list[int]]:
    """(basis, pivots): the canonical basis of the row space of `rows` and
    its pivot columns.  Rows already in RREF without zero rows are returned
    as they are; any others get one `rref`."""
    rows = np.asarray(rows, dtype=np.int64)
    try:
        return rows, _pivots(rows)
    except FieldError:
        R, pivots = rref(F, rows)
        return R[: len(pivots)], pivots


def _annihilator(F: FiniteField, basis) -> np.ndarray:
    """Canonical basis of {x : basis @ x = 0} for a canonical `basis`.

    Free column f gives e_f - sum_j basis[j, f] e_{p_j}, p_j the pivot
    columns; one `row_basis` of those rows makes them canonical.
    """
    dim = basis.shape[1]
    pivots = _pivots(basis)
    free = _free_columns(dim, pivots)
    rows = np.zeros((len(free), dim), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, pivots] = F.mat_neg(basis[:, free].T)
    return row_basis(F, rows)


def reduce_mod_rowspace(F: FiniteField, basis, pivots, rows):
    """(residues, coordinates) of one vector or a block of `rows` modulo the
    row space of an RREF `basis` with the given pivot columns:
    (rows - rows[..., pivots] @ basis, rows[..., pivots]).  A residue is
    zero on the pivot columns, and zero everywhere for a row in the span."""
    rows = np.asarray(rows, dtype=np.int64)
    coords = rows[..., pivots]
    spanned = F.mat_mul(np.atleast_2d(coords), basis)
    return F.mat_sub(rows, spanned.reshape(rows.shape)), coords


def intersect_rowspaces(F: FiniteField, U, V) -> np.ndarray:
    """Canonical basis of rowspace(U) meet rowspace(V): the span of the
    combinations a @ U whose residue modulo V's canonical basis vanishes.
    The residue is zero on V's pivot columns, so the a are the kernel of
    its free columns."""
    U = np.asarray(U, dtype=np.int64)
    V, pivots = _canonical(F, V)
    if V.shape[1] != U.shape[1]:
        raise FieldError("ambient dimensions differ")
    residue, _ = reduce_mod_rowspace(F, V, pivots, U)
    free = _free_columns(U.shape[1], pivots)
    return row_basis(F, F.mat_mul(kernel(F, residue[:, free].T), U))
