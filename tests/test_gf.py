"""Exact field and linear algebra checks.

Expected values are small enough to verify by hand; the structural checks
(Cayley-Hamilton, rank-nullity, Frobenius additivity) act as independent
oracles for the implementation.
"""

import tracemalloc

import numpy as np
import pytest

from steinberg import gf
from steinberg.gf import (
    FieldError,
    charpoly,
    field,
    field_of_order,
    intersect_rowspaces,
    inverse,
    kernel,
    rank,
    row_basis,
    rref,
)
from steinberg import polynomials as poly


def test_prime_validation():
    with pytest.raises(FieldError):
        field(4)
    with pytest.raises(FieldError):
        field(1)
    with pytest.raises(FieldError):
        field(2, 0)
    with pytest.raises(FieldError):
        field(2, 21)  # 2^21 over the cap


def test_gf4_modulus_is_least():
    F = field(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1
    assert F.order == 4


def test_gf9_modulus():
    F = field(3, 2)
    assert F.modulus == (1, 0, 1)  # x^2 + 1 irreducible mod 3


# every extension field up to order 2^12, constant term first; the encoding
# of field elements depends on these, so the choice must never drift
MODULI = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (11, 2): (1, 0, 1), (11, 3): (4, 1, 0, 1),
    (13, 2): (2, 0, 1), (13, 3): (2, 0, 0, 1),
    (17, 2): (3, 0, 1), (19, 2): (1, 0, 1), (23, 2): (1, 0, 1),
    (29, 2): (2, 0, 1), (31, 2): (1, 0, 1), (37, 2): (2, 0, 1),
    (41, 2): (3, 0, 1), (43, 2): (1, 0, 1), (47, 2): (1, 0, 1),
    (53, 2): (2, 0, 1), (59, 2): (1, 0, 1), (61, 2): (2, 0, 1),
}


def test_moduli_are_pinned():
    pairs = [(p, k) for p in range(2, 65) if gf.is_prime(p)
             for k in range(2, 13) if p ** k <= 1 << 12]
    assert sorted(pairs) == sorted(MODULI)
    for (p, k), modulus in MODULI.items():
        assert field(p, k).modulus == modulus


# every extension field of order at most 256, and the largest field
REDUCTION_FIELDS = [(p, k) for p in range(2, 17) if gf.is_prime(p)
                    for k in range(2, 9) if p ** k <= 256] + [(2, 20)]


@pytest.mark.parametrize("p, k", REDUCTION_FIELDS, ids=str)
def test_reduction_rows_are_the_powers_of_x_past_the_modulus(p, k):
    # row t of F._red is x^(k+t) mod the modulus, by long division over GF(p)
    F, Fp = field(p, k), field(p)
    assert F._red.shape == (k - 1, k)
    for t, row in enumerate(F._red):
        rem = poly.mod(Fp, [0] * (k + t) + [1], F.modulus).tolist()
        assert row.tolist() == rem + [0] * (k - len(rem))


def test_prime_field_scalars():
    F = field(7)
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.add(6, 4) == 3
    assert F.neg(2) == 5
    assert F.pow(3, 6) == 1


def test_gf4_scalars():
    F = field(2, 2)
    # codes: 0, 1, 2 = x, 3 = x + 1
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.add(2, 3) == 1
    assert F.inv(2) == 3
    assert F.generator == 2
    assert F.element_order(3) == 3


def test_gf9_scalars():
    F = field(3, 2)
    assert F.mul(3, 3) == 2          # x * x = -1
    assert F.generator == 4          # 1 + x has order 8
    assert F.element_order(4) == 8
    assert F.element_order(2) == 2


def test_field_axioms_sampled():
    rng = np.random.default_rng(7)
    for F in (field(5), field(2, 4), field(3, 3), field(7, 2)):
        q = F.order
        for _ in range(60):
            a, b, c = (int(x) for x in rng.integers(0, q, 3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            if a:
                assert F.mul(a, F.inv(a)) == 1
            # Frobenius is additive
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))


@pytest.mark.parametrize("q", (4, 8, 9, 25, 27))
def test_scalar_sums_match_array_sums_on_every_pair(q):
    F = field_of_order(q)
    codes = np.arange(q)
    add = F.mat_add(codes[:, None], codes[None, :])
    sub = F.mat_sub(codes[:, None], codes[None, :])
    assert [[F.add(a, b) for b in range(q)] for a in range(q)] == add.tolist()
    assert [[F.sub(a, b) for b in range(q)] for a in range(q)] == sub.tolist()
    assert [F.neg(a) for a in range(q)] == F.mat_neg(codes).tolist()


def test_log_tables_of_a_large_field_build_in_bounded_memory():
    # the doublings decode a slice of codes at a time; decoding a whole
    # half of GF(2^20) at once peaked near 11 times the final tables
    F = gf.FiniteField(2, 20, field(2, 20).modulus)
    tracemalloc.start()
    try:
        exp, log = F._logs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (exp.nbytes + log.nbytes)
    assert np.array_equal(np.sort(exp), np.arange(1, F.order))
    assert np.array_equal(exp[log[exp]], exp)


def test_generator_spans_units():
    for F in (field(5), field(2, 3), field(3, 2), field(2, 2)):
        g = F.generator
        seen = set()
        x = 1
        for _ in range(F.order - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert seen == set(range(1, F.order))


def test_matrix_ops_extension_field():
    F = field(2, 2)
    A = F.asarray([[2, 1], [0, 3]])
    B = F.asarray([[1, 2], [3, 0]])
    C = F.mat_mul(A, B)
    # by hand: [[2*1+1*3, 2*2], [3*3, 0]] = [[2+3, 3], [2+... ]]
    expect = [[F.add(F.mul(2, 1), F.mul(1, 3)), F.add(F.mul(2, 2), 0)],
              [F.mul(3, 3), F.mul(3, 0)]]
    assert C.tolist() == expect
    assert F.mat_mul(A, inverse(F, A)).tolist() == F.identity(2).tolist()


def test_rref_rank_one():
    F = field(7)
    R, piv = rref(F, [[2, 4], [1, 2]])
    assert piv == [0]
    assert R.tolist() == [[1, 2], [0, 0]]


def test_rref_identity_and_zero():
    F = field(5)
    A = F.identity(3)
    R, piv = rref(F, A)
    assert R.tolist() == A.tolist() and piv == [0, 1, 2]
    Z = F.zeros((2, 3))
    R, piv = rref(F, Z)
    assert R.tolist() == Z.tolist() and piv == []


def test_rank_invariant_under_row_shuffle():
    rng = np.random.default_rng(11)
    for F in (field(3), field(2, 2), field(13)):
        for _ in range(10):
            A = F.random_matrix(rng, (6, 4))
            r1 = rank(F, A)
            perm = rng.permutation(6)
            assert rank(F, A[perm]) == r1


def test_kernel_annihilates():
    rng = np.random.default_rng(23)
    for F in (field(5), field(2, 2), field(3, 2)):
        for _ in range(8):
            A = F.random_matrix(rng, (4, 6))
            K = kernel(F, A)
            # rank-nullity
            assert K.shape[0] == 6 - rank(F, A)
            if K.shape[0]:
                prod = F.mat_mul(A, K.T)
                assert not prod.any()


def test_kernel_known():
    F = field(7)
    K = kernel(F, [[1, 2]])
    assert K.tolist() == [[1, 3]]  # 1 + 2*3 = 7 = 0


def test_charpoly_zero_and_nilpotent():
    F = field(5)
    assert charpoly(F, F.zeros((2, 2))).tolist() == [0, 0, 1]
    assert charpoly(F, F.asarray([[0, 1], [0, 0]])).tolist() == [0, 0, 1]


def test_charpoly_identity():
    F = field(7)
    # (t-1)^2 = t^2 - 2t + 1
    assert charpoly(F, F.identity(2)).tolist() == [1, 5, 1]


def test_charpoly_companion():
    # companion matrix of t^3 + 2t + 1 over GF(5)
    F = field(5)
    A = F.asarray([[0, 0, 4], [1, 0, 3], [0, 1, 0]])
    assert charpoly(F, A).tolist() == [1, 2, 0, 1]


def test_cayley_hamilton_sampled():
    rng = np.random.default_rng(3)
    for F in (field(3), field(7), field(2, 2), field(3, 2)):
        for n in (2, 3, 4):
            A = F.random_matrix(rng, (n, n))
            f = charpoly(F, A)
            assert len(f) == n + 1 and f[-1] == 1
            assert not poly.evaluate_matrix(F, f, A).any()
            # trace and determinant read off the charpoly
            tr = 0
            for i in range(n):
                tr = F.add(tr, int(A[i, i]))
            assert F.neg(f[n - 1]) == tr


def test_intersect_rowspaces():
    F = field(5)
    U = [[1, 0, 0], [0, 1, 0]]
    V = [[0, 1, 0], [0, 0, 1]]
    W = intersect_rowspaces(F, U, V)
    assert W.tolist() == [[0, 1, 0]]
    # intersection with itself is itself
    B = row_basis(F, U)
    assert intersect_rowspaces(F, U, U).tolist() == B.tolist()


def test_intersect_dimension_formula():
    rng = np.random.default_rng(40)
    F = field(3)
    for _ in range(10):
        U = F.random_matrix(rng, (3, 6))
        V = F.random_matrix(rng, (3, 6))
        together = rank(F, np.concatenate([U, V]))
        meet = intersect_rowspaces(F, U, V).shape[0]
        assert meet == rank(F, U) + rank(F, V) - together


def test_field_of_order():
    assert field_of_order(8) is field(2, 3)
    assert field_of_order(49) is field(7, 2)
    with pytest.raises(FieldError):
        field_of_order(12)


# -- polynomial machinery ----------------------------------------------------

def test_poly_divmod():
    F = field(7)
    f = [1, 0, 3, 1]       # 1 + 3t^2 + t^3
    g = [2, 1]             # 2 + t
    q, r = poly.divmod_poly(F, f, g)
    assert poly.add(F, poly.mul(F, q, g), r).tolist() == f


def test_poly_gcd():
    F = field(5)
    f = poly.mul(F, [1, 1], [2, 1])
    g = poly.mul(F, [1, 1], [3, 1])
    assert poly.gcd(F, f, g).tolist() == [1, 1]


def _factored(factors):
    """`poly.factor` output with its factors as lists."""
    return [(g.tolist(), m) for g, m in factors]


def test_factor_gf2():
    F = field(2)
    assert _factored(poly.factor(F, [1, 1, 1])) == [([1, 1, 1], 1)]  # irred.
    assert _factored(poly.factor(F, [0, 0, 1])) == [([0, 1], 2)]     # x^2
    assert _factored(poly.factor(F, [1, 0, 1])) == [([1, 1], 2)]     # (x+1)^2
    # x^4 + x = x (x+1) (x^2+x+1)
    assert _factored(poly.factor(F, [0, 1, 0, 0, 1])) == [
        ([0, 1], 1), ([1, 1], 1), ([1, 1, 1], 1)]


def test_factor_gf3_and_gf4():
    F3 = field(3)
    # t^2+1 irreducible mod 3
    assert _factored(poly.factor(F3, [1, 0, 1])) == [([1, 0, 1], 1)]
    assert _factored(poly.factor(F3, [2, 0, 1])) == [([1, 1], 1), ([2, 1], 1)]
    F4 = field(2, 2)
    # t^2 + t + 1 splits over GF(4): roots are the two primitive cube roots
    fac = poly.factor(F4, [1, 1, 1])
    assert [m for _, m in fac] == [1, 1]
    assert sorted(f[0] for f, _ in _factored(fac)) == [2, 3]


def test_factor_reconstructs():
    rng = np.random.default_rng(17)
    for F in (field(2), field(3), field(2, 2), field(5)):
        for _ in range(10):
            deg = int(rng.integers(2, 7))
            f = [int(x) for x in rng.integers(0, F.order, deg)] + [1]
            prod = [1]
            for g, m in poly.factor(F, f):
                assert g[-1] == 1
                for _ in range(m):
                    prod = poly.mul(F, prod, g)
            assert prod.tolist() == poly.trim(f).tolist()


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_factor_matches_sympy_gf_factor(p):
    # an independent factorization: sympy's, on dense lists with the leading
    # coefficient first; half the inputs carry a squared factor
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    F = field(p)
    rng = np.random.default_rng(80 + p)

    def draw(top):
        """A random polynomial of degree 1 to top, nonzero lead."""
        f = rng.integers(0, p, int(rng.integers(1, top + 1)) + 1)
        f[-1] = 1 + rng.integers(p - 1)
        return f

    for case in range(12):
        if case % 2:
            g = draw(20)
            f = poly.mul(F, draw(80 - 2 * poly.degree(g)), poly.mul(F, g, g))
        else:
            f = draw(80)
        lead, factors = galoistools.gf_factor(f[::-1].tolist(), p, ZZ)
        assert lead == f[-1]
        expected = sorted(((g[::-1], m) for g, m in factors),
                          key=lambda gm: (len(gm[0]), gm[0]))
        assert _factored(poly.factor(F, f)) == expected


def test_a_pull_ending_at_a_linear_factor_builds_no_frobenius_matrix(
        monkeypatch):
    # degree 1 needs x^q mod f only; the Frobenius matrix of a modulus is
    # built when the search reaches degree 2 on it
    built = []
    frobenius_rows = poly._frobenius_rows

    def counted(F, x_to_q, fold):
        built.append(fold.shape[1])
        return frobenius_rows(F, x_to_q, fold)

    monkeypatch.setattr(poly, "_frobenius_rows", counted)
    F = field(3)
    # (x + 1)(x^2 + 1)(x^3 + 2x + 1), the last two irreducible over GF(3)
    f = poly.mul(F, poly.mul(F, [1, 1], [1, 0, 1]), [1, 2, 0, 1])
    factors = poly.irreducible_factors(F, f)
    assert next(factors).tolist() == [1, 1] and built == []
    assert [g.tolist() for g in factors] == [[1, 0, 1], [1, 2, 0, 1]]
    assert built == [5]  # once, for the quintic left after x + 1


def test_charpoly_factor_degrees_sum():
    rng = np.random.default_rng(29)
    F = field(3)
    A = F.random_matrix(rng, (5, 5))
    f = charpoly(F, A)
    assert sum(poly.degree(g) * m for g, m in poly.factor(F, f)) == 5
