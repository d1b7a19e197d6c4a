"""Exact arithmetic in GF(p^k) and dense exact linear algebra on top of numpy.

Field elements are encoded as integers in [0, p^k): the base-p digits of the
code are the coefficients of the residue polynomial, constant term first.
Matrices are plain numpy int64 arrays of codes.  All results are exact.
Floats appear only inside a matrix product whose every dot product is
bounded below 2**53, where float64 sums of integers are exact; the product
runs through `np.einsum`, which never calls a (multi-threaded) BLAS.

The modulus for an extension field is chosen deterministically: the monic
irreducible polynomial of degree k whose non-leading coefficient string has
the smallest integer encoding.  GF(4) therefore always means x^2 + x + 1.
"""

from __future__ import annotations

import functools

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

# full multiplication/inverse tables only below this order
_TABLE_LIMIT = 1 << 11
# a float64 dot product of integers is exact while every sum stays below this
_FLOAT_EXACT = 1 << 53
# products with fewer multiply-adds stay on int64 `@`: converting small
# factors to float64 costs more than einsum saves (without this floor both
# benchmark workloads run about 7% slower)
_FLOAT_MIN_MADDS = 1 << 15
# the pivot search's first window of columns past an empty one
_SCAN_WIDTH = 64


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
        if k > 1:
            # reduction rows: x^(k+m) expressed in the power basis
            red = np.zeros((k - 1, k), dtype=np.int64)
            cur = [(-modulus[i]) % p for i in range(k)]  # x^k
            red_rows = [cur]
            for _ in range(k - 2):
                nxt = [0] * k
                for j, c in enumerate(cur[:-1]):
                    nxt[j + 1] = c
                top = cur[-1]
                for j in range(k):
                    nxt[j] = (nxt[j] + top * red_rows[0][j]) % p
                red_rows.append(nxt)
                cur = nxt
            for i, row in enumerate(red_rows):
                red[i] = row
            self._red = red
        self._mul_table = None
        self._inv_table = None
        self._generator = None

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._encode1(( self._decode1(a) + self._decode1(b)) % self.p)

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self._encode1((self._decode1(a) - self._decode1(b)) % self.p)

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._encode1((-self._decode1(a)) % self.p)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        t = self._tables()
        if t is not None:
            return int(t[a, b])
        return self._mul_poly(a, b)

    def _mul_poly(self, a: int, b: int) -> int:
        p = self.p
        fa, fb = self._decode1(a), self._decode1(b)
        conv = np.convolve(fa, fb) % p
        return self._encode1(self._reduce_digits(conv))

    def _reduce_digits(self, digits):
        """Reduce a coefficient vector of length <= 2k-1 to length k."""
        k = self.k
        digits = np.asarray(digits, dtype=np.int64)
        if len(digits) < k:
            digits = np.concatenate([digits, np.zeros(k - len(digits), dtype=np.int64)])
        low, high = digits[:k].copy(), digits[k:]
        for m, c in enumerate(high):
            if c:
                low = (low + c * self._red[m]) % self.p
        return low % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + str(self))
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return int(self._inv_table[a])
        if self.order <= _TABLE_LIMIT:
            self._tables()
            return int(self._inv_table[a])
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        e = e % (self.order - 1) if a != 0 else e
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def _tables(self):
        if self.k == 1 or self.order > _TABLE_LIMIT:
            return self._mul_table
        if self._mul_table is None:
            # the powers of some primitive element, by polynomial products,
            # give discrete logs: a * b = exp[log a + log b]
            q = self.order
            for a in range(2, q):
                exp, x = [1], a
                while x != 1:
                    exp.append(x)
                    x = self._mul_poly(x, a)
                if len(exp) == q - 1:
                    break
            exp = np.array(exp, dtype=np.int64)
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            table = np.zeros((q, q), dtype=np.int64)
            table[1:, 1:] = exp[(log[1:, None] + log[1:]) % (q - 1)]
            self._mul_table = table
            self._inv_table = np.zeros(q, dtype=np.int64)
            self._inv_table[1:] = exp[-log[1:] % (q - 1)]
        return self._mul_table

    @property
    def generator(self) -> int:
        """Smallest-coded multiplicative generator."""
        if self._generator is None:
            n = self.order - 1
            primes = list(factorize(n))
            g = None
            for cand in range(1, self.order):
                if all(self.pow(cand, n // r) != 1 for r in primes):
                    g = cand
                    break
            self._generator = g
        return self._generator

    def element_order(self, a: int) -> int:
        if a == 0:
            raise FieldError("0 has no multiplicative order")
        n = self.order - 1
        o = n
        for r, m in factorize(n).items():
            for _ in range(m):
                if self.pow(a, o // r) == 1:
                    o //= r
                else:
                    break
        return o

    # -- encode/decode ----------------------------------------------------

    def _decode1(self, a: int):
        return np.array([(a // self.p ** i) % self.p for i in range(self.k)],
                        dtype=np.int64)

    def _encode1(self, digits) -> int:
        digits = np.asarray(digits, dtype=np.int64) % self.p
        return int((digits[: self.k] * self._pows[: len(digits[: self.k])]).sum())

    def _decode(self, arr):
        """(..., ) codes -> (..., k) digits."""
        arr = np.asarray(arr, dtype=np.int64)
        return (arr[..., None] // self._pows) % self.p

    def _encode(self, digits):
        """(..., k) digits -> (...,) codes."""
        digits = np.asarray(digits, dtype=np.int64) % self.p
        return (digits * self._pows).sum(axis=-1).astype(np.int64)

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
        """
        quot = X // self.p
        quot *= self.p
        X -= quot
        return X

    def _product(self, A, B) -> np.ndarray:
        """Exact integer product of two int64 matrices with entries in [0, p).

        Large products run as float64 einsum when no dot product can reach
        2**53, so every partial sum is an exactly representable integer.
        """
        if A.ndim == 2 and B.ndim == 2:
            inner = A.shape[1]
            if (A.shape[0] * inner * B.shape[1] >= _FLOAT_MIN_MADDS
                    and inner * (self.p - 1) ** 2 < _FLOAT_EXACT):
                # both factors row-major along the summed index: einsum's
                # contiguous dot loop, fast for narrow B as well
                return np.einsum("ij,kj->ik", A.astype(np.float64),
                                 B.T.astype(np.float64, order="C")
                                 ).astype(np.int64)
        return A @ B

    def mat_add(self, A, B) -> np.ndarray:
        if self.k == 1:
            return self._mod(A + B)
        return self._encode(self._decode(A) + self._decode(B))

    def mat_sub(self, A, B) -> np.ndarray:
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
        dc = self._decode1(c)
        dA = self._decode(A)  # (..., k)
        conv = np.zeros(dA.shape[:-1] + (2 * self.k - 1,), dtype=np.int64)
        for i in range(self.k):
            if dc[i]:
                conv[..., i : i + self.k] += dc[i] * dA
        return self._encode(self._reduce_digit_stack(conv % self.p))

    def _reduce_digit_stack(self, conv):
        """(..., 2k-1) coefficient stacks -> (..., k)."""
        k = self.k
        low = conv[..., :k].copy()
        for m in range(k - 1):
            c = conv[..., k + m]
            low = (low + c[..., None] * self._red[m]) % self.p
        return low

    def hadamard(self, A, B) -> np.ndarray:
        """Elementwise product of two arrays of codes, numpy-broadcast."""
        A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
        if self.k == 1:
            return self._mod(A * B)
        dA, dB = self._decode(A), self._decode(B)
        shape = np.broadcast_shapes(A.shape, B.shape)
        conv = np.zeros(shape + (2 * self.k - 1,), dtype=np.int64)
        for i in range(self.k):
            for j in range(self.k):
                conv[..., i + j] += dA[..., i] * dB[..., j]
        return self._encode(self._reduce_digit_stack(conv % self.p))

    def sub_outer(self, X, col, row) -> np.ndarray:
        """X - outer(col, row): the rank-1 update of elimination."""
        col = np.asarray(col, dtype=np.int64)
        row = np.asarray(row, dtype=np.int64)
        if self.k == 1:
            out = np.multiply.outer(col, row)
            np.subtract(X, out, out=out)
            return self._mod(out)
        return self.mat_sub(X, self.hadamard(col.reshape(-1, 1), row))

    def mat_mul(self, A, B) -> np.ndarray:
        A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
        if self.k == 1:
            return self._mod(self._product(A, B))
        dA = self._decode(A)  # (m, n, k)
        dB = self._decode(B)  # (n, r, k)
        m, n = A.shape
        r = B.shape[1]
        conv = np.zeros((m, r, 2 * self.k - 1), dtype=np.int64)
        for i in range(self.k):
            for j in range(self.k):
                conv[:, :, i + j] += self._product(dA[:, :, i], dB[:, :, j])
        return self._encode(self._reduce_digit_stack(self._mod(conv)))

    def mat_vec(self, A, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        if self.k == 1:
            return self._mod(np.asarray(A, dtype=np.int64) @ v)
        return self.mat_mul(A, v.reshape(-1, 1)).ravel()

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
    """Canonical basis (rows, RREF) of {x : A @ x = 0}."""
    A = np.asarray(A, dtype=np.int64)
    R, piv = rref(F, A)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in piv]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    K = np.zeros((len(free), cols), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    if piv:
        # free column c sets each pivot variable to -R[j, c]
        K[:, piv] = F.mat_neg(R[: len(piv), free].T)
    return row_basis(F, K)


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


def charpoly(F: FiniteField, A) -> list[int]:
    """Coefficients of det(tI - A), ascending, monic (length n+1)."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise FieldError("charpoly expects a square matrix")
    if n == 0:
        return [1]
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
    return [int(x) for x in P[n]]


def reduce_mod_rowspace(F: FiniteField, basis, pivots, v):
    """Reduce v against an RREF row basis; returns (residue, coords)."""
    v = np.array(v, dtype=np.int64)
    coords = np.zeros(len(pivots), dtype=np.int64)
    for i, c in enumerate(pivots):
        x = int(v[c])
        if x:
            coords[i] = x
            v = F.mat_sub(v, F.scale(x, basis[i]))
    return v, coords


def intersect_rowspaces(F: FiniteField, U, V) -> np.ndarray:
    """Canonical basis of rowspace(U) meet rowspace(V) (Zassenhaus)."""
    U = row_basis(F, np.asarray(U, dtype=np.int64))
    V = row_basis(F, np.asarray(V, dtype=np.int64))
    n = U.shape[1]
    if V.shape[1] != n:
        raise FieldError("ambient dimensions differ")
    top = np.concatenate([U, U], axis=1)
    bot = np.concatenate([V, np.zeros_like(V)], axis=1)
    R, piv = rref(F, np.concatenate([top, bot], axis=0))
    out = []
    for i in range(len(piv)):
        if not R[i, :n].any():
            out.append(R[i, n:])
    if not out:
        return np.zeros((0, n), dtype=np.int64)
    return row_basis(F, np.array(out))
