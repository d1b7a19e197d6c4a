"""Partition combinatorics for composition lengths and socle labels.

The central quantity is the quantum characteristic e of (q, l): the least
i >= 2 with 1 + q + ... + q^(i-1) divisible by l.  It controls which
partitions are regular, the label of the Steinberg socle, and the
composition length formulas for GL_n(q) and GU_n(q).

e can be infinite (l = 0, or l does not divide any q-integer); that case is
represented by math.inf, never by a sentinel integer.
"""

from __future__ import annotations

from math import inf

from .gf import is_prime

__all__ = [
    "CombinatError",
    "NonLinearPrimeError",
    "quantum_characteristic",
    "quantum_characteristic_twisted",
    "socle_partition",
    "format_partition",
    "is_regular",
    "dominance_leq",
    "partitions",
    "steinberg_series_partitions",
    "composition_length_gl",
    "composition_length_gu",
    "gelfand_graev_head_cuspidal",
    "is_linear_prime",
    "gaussian_binomial",
    "flag_count",
]


class CombinatError(ValueError):
    pass


class NonLinearPrimeError(CombinatError):
    """Raised when a unitary formula is requested outside the linear-prime case."""


def _check_q_ell(q: int, ell: int) -> None:
    if q < 2:
        raise CombinatError("q must be at least 2")
    if ell != 0 and not is_prime(ell):
        raise CombinatError("l must be 0 or a prime")
    if ell != 0 and q % ell == 0:
        raise CombinatError("l must not divide q")


def quantum_characteristic(q: int, ell: int):
    """Least i >= 2 with 1 + q + ... + q^(i-1) = 0 mod l; inf if none."""
    _check_q_ell(q, ell)
    if ell == 0:
        return inf
    acc = 1  # 1 + q + ... + q^(i-1), built up as acc -> acc*q + 1
    for i in range(2, ell + 1):
        acc = (acc * q + 1) % ell
        if acc == 0:
            return i
    return inf  # unreachable for prime l coprime to q, kept for safety


def quantum_characteristic_twisted(q: int, ell: int):
    """Twisted variant used by the unitary groups: the e-value of q^2."""
    return quantum_characteristic(q * q, ell)


def _check_partition(lam) -> tuple[int, ...]:
    lam = tuple(int(p) for p in lam)
    if any(p <= 0 for p in lam):
        raise CombinatError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise CombinatError(f"partition parts must be non-increasing: {lam}")
    return lam


def format_partition(lam) -> str:
    return "(" + ",".join(str(p) for p in lam) + ")"


def socle_partition(n: int, e) -> tuple[int, ...]:
    """Label of the Steinberg socle for GL_n at quantum characteristic e.

    Write n = (e-1)m + r with 0 <= r < e-1; the label is m+1 repeated r
    times followed by m repeated e-1-r times (zero parts dropped).  For
    e > n, including e infinite, this degenerates to (1, ..., 1).
    """
    if n < 1:
        raise CombinatError("n must be at least 1")
    if e == inf or e > n:
        return (1,) * n
    e = int(e)
    if e < 2:
        raise CombinatError("e must be >= 2 or infinite")
    m, r = divmod(n, e - 1)
    lam = (m + 1,) * r + (m,) * (e - 1 - r)
    return tuple(p for p in lam if p > 0)


def is_regular(lam, e) -> bool:
    """True when no part of lam repeats e or more times (e may be inf)."""
    lam = _check_partition(lam)
    if e == inf:
        return True
    counts: dict[int, int] = {}
    for p in lam:
        counts[p] = counts.get(p, 0) + 1
    return all(c < e for c in counts.values())


def dominance_leq(lam, mu) -> bool:
    """Dominance order: every prefix sum of lam is at most that of mu."""
    lam, mu = _check_partition(lam), _check_partition(mu)
    if sum(lam) != sum(mu):
        raise CombinatError("dominance needs equal weights")
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a > b:
            return False
    return True


def partitions(n: int, max_part: int | None = None):
    """Yield all partitions of n as non-increasing tuples."""
    if n < 0:
        raise CombinatError("n must be non-negative")
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _special_parts(n: int, e, ell: int) -> list[int]:
    """Parts e * l^j that fit below n, largest first."""
    if e == inf:
        return []
    out = []
    part = int(e)
    while part <= n:
        out.append(part)
        if ell == 0:
            break
        part *= ell
    return sorted(set(out), reverse=True)


def steinberg_series_partitions(n: int, e, ell: int) -> list[tuple[int, ...]]:
    """All partitions of n whose parts lie in {1} union {e * l^j}.

    These index the Harish-Chandra series meeting the Steinberg module; the
    list is an explicit enumeration oracle for the generating-function count.
    """
    allowed = _special_parts(n, e, ell) + [1]
    out: list[tuple[int, ...]] = []

    def rec(remaining, max_allowed_idx, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for idx in range(max_allowed_idx, len(allowed)):
            p = allowed[idx]
            if p <= remaining:
                rec(remaining - p, idx, prefix + [p])

    rec(n, 0, [])
    return out


def _series_coefficient(n: int, special: list[int]) -> int:
    """[t^n] 1/(1-t) * prod 1/(1 - t^s) by truncated multiplication."""
    coeffs = [1] * (n + 1)  # 1/(1-t)
    for s in special:
        new = list(coeffs)
        for i in range(s, n + 1):
            new[i] += new[i - s]
        coeffs = new
    return coeffs[n]


def composition_length_gl(n: int, q: int, ell: int) -> int:
    """Composition length of the mod-l Steinberg module of GL_n(q)."""
    if n < 1:
        raise CombinatError("n must be at least 1")
    e = quantum_characteristic(q, ell)
    return _series_coefficient(n, _special_parts(n, e, ell))


def is_linear_prime(delta: int, q: int, ell: int) -> bool:
    """No power q^(delta*m - 1) is -1 mod l; checked over one period."""
    _check_q_ell(q, ell)
    if ell == 0:
        raise CombinatError("linearity is only defined for prime l")
    if delta < 1:
        raise CombinatError("delta must be positive")
    # the multiplicative order of q mod l bounds the period in m
    order = 1
    acc = q % ell
    while acc != 1:
        acc = (acc * q) % ell
        order += 1
    target = ell - 1  # the residue -1
    for m in range(1, order + 1):
        if pow(q, delta * m - 1, ell) == target:
            return False
    return True


def composition_length_gu(n: int, q: int, ell: int) -> int:
    """Composition length of the mod-l Steinberg module of GU_n(q).

    Only valid for linear primes (delta = 2); refuses loudly otherwise.
    """
    if n < 1:
        raise CombinatError("n must be at least 1")
    if ell == 0:
        return 1
    if not is_linear_prime(2, q, ell):
        raise NonLinearPrimeError(
            f"l={ell} is not linear for GU_n({q}); the unitary count only "
            "applies to linear primes")
    m = n // 2
    e_t = quantum_characteristic_twisted(q, ell)
    return _series_coefficient(m, _special_parts(m, e_t, ell))


def gelfand_graev_head_cuspidal(n: int, e, ell: int) -> bool:
    """Whether the Gelfand-Graev head of the GL_n Steinberg module is cuspidal.

    That happens exactly for n = 1 or n = e * l^j.
    """
    if n < 1:
        raise CombinatError("n must be at least 1")
    return n == 1 or n in _special_parts(n, e, ell)


# -- order bookkeeping helpers (shared with the group layer and tests) -------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient [n choose k]_q as an exact integer."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(1, k + 1):
        num *= q ** (n - k + i) - 1
        den *= q ** i - 1
    assert num % den == 0
    return num // den


def flag_count(n: int, q: int) -> int:
    """Number of complete flags in (F_q)^n, i.e. the index of a Borel."""
    out = 1
    for i in range(2, n + 1):
        out *= (q ** i - 1) // (q - 1)
    return out
