"""Field and MeatAxe kernels against the straightforward versions they replaced.

The oracles below are the earlier implementations, kept verbatim apart from
input checks: `rref` updated whole rows per pivot, `charpoly` applied one
row and one column operation per entry and ran its recurrence in scalar
field arithmetic, `_spin_rows` re-multiplied and re-echelonized its whole
basis every round, sub- and quotient actions reduced one vector at a time,
`hom_space` solved one Kronecker system for all generators at once,
`fixed_points` intersected eigenspaces by Zassenhaus, `factor` ran
square-free, then distinct-degree, then equal-degree factorization,
the Norton test tried every root, every root-free quadratic and, over
fields of at most 3 elements, every root-free cubic, and Harish-Chandra
restriction took the fixed points of the dense radical matrices and
restricted each Levi generator's permutation matrix to them, `kernel` set
its entries in a scalar double loop and echelonized them a second time,
permutation modules were spun, restricted and fixed through their dense
permutation matrices, the eigenspace of the Hecke operators came from the
fixed points of the operators -T_s, as dense matrices or as gathers, and
`mat_mul` multiplied int64 arrays (digit by digit over extension fields)
with no float64 path, elementwise products, inverses, powers and orders
over an extension field came from products of base-p digits reduced by
the modulus, not from discrete-log tables, `canonical_flag` canonicalized one
flag at a time, the flag and G/P orbits moved one coset by one generator
at a time, `coset_permutation` on G/B composed memoized permutations of
the Bruhat factors of g, the G/P action keyed one representative at a
time from row-reduced bases of its prefix column spans, the Bruhat cell
and decomposition came from a scalar elimination to a monomial matrix and
a triangular solve for the unipotent factor, G itself was enumerated
one product at a time, as was its regular action, the distinct-degree loop
of `irreducible_factors` raised x^(q^d) by one `powmod` per degree and
divided factors out by list long division, `divmod_poly` was that list
division, trimming its dividend at every step, algebra words
had two to four terms of one to three generators, a simple factor's
certificate came from a second seeded search after its Norton test, a
Gelfand-Graev head was the dual of a simple submodule of the dual, both
pieces of a split evaluated the Norton words again and took their
characteristic polynomials, the quotient by a witness read off a dual
spin got a Norton test of its own, that witness was the kernel of the
dual spin's basis, characteristic 2 reduced, added and
subtracted by floor division and base-2 digits, `reduce_mod_rowspace`
reduced one vector at a time, `intersect_rowspaces` eliminated the
Zassenhaus block matrix, the unipotent fixed rows solved a residue system
of their own, and the sub- and quotient constructors eliminated every
spanning set once more, canonical or not.  Every
current kernel returns a canonical object (an RREF basis, a characteristic
polynomial, a matrix in a canonical basis, a sorted factor list), so the
outputs must agree exactly; the Norton test must give the old verdict
wherever the old one reached a verdict, and both samplers the same
composition factors.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from steinberg import gf, meataxe, polynomials as poly
from steinberg.bngroup import GroupError, build_gl
from steinberg.caps import (
    MAX_DENSE_DIM,
    MAX_FIELD_SIZE,
    MAX_NORTON_TRIES,
    MAX_REGULAR_ORDER,
)
from steinberg.gf import (
    charpoly,
    field,
    intersect_rowspaces,
    inverse,
    is_prime,
    kernel,
    rank,
    reduce_mod_rowspace,
    row_basis,
    rref,
)
from steinberg.meataxe import (
    DEFAULT_SEED,
    GModule,
    MeatAxeError,
    _perm_matrix,
    _restrict,
    _spin_rows,
    algebra_element,
    composition_factors,
    composition_series,
    factor_of,
    fixed_points,
    hom_space,
    is_irreducible,
    quotient_module,
    same_factor,
    spin,
    submodule_module,
)
from steinberg.hecke import (
    _adjacent_flags,
    _apply_simple,
    act_on_borel_module,
    sign_eigenspace,
)
from steinberg.modrep import (
    _regular_module,
    _unipotent_fixed_rows,
    borel_module,
    gelfand_graev,
    group_elements,
    hc_induce,
    hc_restrict,
    levi_borel_module,
    levi_generators,
    parabolic_perm_module,
    steinberg_element,
    steinberg_module,
)

FIELDS = (field(2), field(3), field(2, 2), field(13))
MAX_DIM = 12
MAX_HOM_DIM = 6
MAX_POLY_DEGREE = 12
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)


# -- oracles -----------------------------------------------------------------


def rref_oracle(F, A):
    R = np.array(A, dtype=np.int64)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r] = F.scale(F.inv(piv), R[r])
        colvals = R[:, c].copy()
        colvals[r] = 0
        mask = np.nonzero(colvals)[0]
        if len(mask):
            R[mask] = F.mat_sub(R[mask], F.mat_mul(colvals[mask].reshape(-1, 1),
                                                   R[r].reshape(1, -1)))
        pivots.append(c)
        r += 1
    return R, pivots


def _digits(F, A):
    """(...,) codes -> (..., k) base-p digits, constant term first."""
    return (np.asarray(A)[..., None] // F.p ** np.arange(F.k)) % F.p


def _fold(F, conv):
    """(..., 2k-1) coefficient stacks -> (..., k) codes: coefficient k + t
    folds onto the digits by the row x^(k+t) mod the modulus, `F._red[t]`
    (checked against long division in test_gf.py)."""
    low = conv[..., :F.k] % F.p
    for t in range(F.k - 1):
        low = (low + conv[..., F.k + t, None] * F._red[t]) % F.p
    return low @ F.p ** np.arange(F.k)


def mat_mul_oracle(F, A, B):
    if F.k == 1:
        return (A @ B) % F.p
    dA, dB = _digits(F, A), _digits(F, B)
    conv = np.zeros((A.shape[0], B.shape[1], 2 * F.k - 1), dtype=np.int64)
    for i in range(F.k):
        for j in range(F.k):
            conv[:, :, i + j] += dA[:, :, i] @ dB[:, :, j]
    return _fold(F, conv)


def hadamard_oracle(F, A, B):
    if F.k == 1:
        return (A * B) % F.p
    dA, dB = _digits(F, A), _digits(F, B)
    conv = np.zeros(A.shape + (2 * F.k - 1,), dtype=np.int64)
    for i in range(F.k):
        for j in range(F.k):
            conv[..., i + j] += dA[..., i] * dB[..., j]
    return _fold(F, conv)


def row_basis_oracle(F, A):
    R, piv = rref_oracle(F, A)
    return R[: len(piv)]


def charpoly_oracle(F, A):
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if n == 0:
        return [1]
    H = A.copy()
    for c in range(n - 2):
        nz = np.nonzero(H[c + 1 :, c])[0]
        if len(nz) == 0:
            continue
        i = c + 1 + int(nz[0])
        if i != c + 1:
            H[[c + 1, i]] = H[[i, c + 1]]
            H[:, [c + 1, i]] = H[:, [i, c + 1]]
        inv_piv = F.inv(int(H[c + 1, c]))
        for r in range(c + 2, n):
            if H[r, c]:
                f = F.mul(int(H[r, c]), inv_piv)
                H[r] = F.mat_sub(H[r], F.scale(f, H[c + 1]))
                H[:, c + 1] = F.mat_add(H[:, c + 1], F.scale(f, H[:, r]))
    polys = [[1]]
    for m in range(1, n + 1):
        d = int(H[m - 1, m - 1])
        prev = polys[m - 1]
        cur = [0] * (m + 1)
        for i, cf in enumerate(prev):
            cur[i + 1] = F.add(cur[i + 1], cf)
            cur[i] = F.sub(cur[i], F.mul(d, cf))
        beta = 1
        for i in range(m - 1, 0, -1):
            beta = F.mul(beta, int(H[i, i - 1]))
            coef = F.mul(int(H[i - 1, m - 1]), beta)
            if coef:
                for j, cf in enumerate(polys[i - 1]):
                    cur[j] = F.sub(cur[j], F.mul(coef, cf))
        polys.append(cur)
    return polys[n]


def spin_rows_oracle(F, mats, dim, seeds):
    basis = row_basis_oracle(F, seeds)
    transposed = [m.T.copy() for m in mats]
    while basis.shape[0]:
        images = [F.mat_mul(basis, t) for t in transposed]
        bigger = row_basis_oracle(F, np.vstack([basis] + images))
        if bigger.shape[0] == basis.shape[0]:
            break
        basis = bigger
    return basis


def reduce_mod_rowspace_oracle(F, basis, pivots, v):
    v = np.array(v, dtype=np.int64)
    coords = np.zeros(len(pivots), dtype=np.int64)
    for i, c in enumerate(pivots):
        x = int(v[c])
        if x:
            coords[i] = x
            v = F.mat_sub(v, F.scale(x, basis[i]))
    return v, coords


def intersect_rowspaces_oracle(F, U, V):
    U = row_basis(F, np.asarray(U, dtype=np.int64))
    V = row_basis(F, np.asarray(V, dtype=np.int64))
    n = U.shape[1]
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


def unipotent_fixed_rows_oracle(G, F, basis):
    piv = gf._pivots(basis)
    free = gf._free_columns(basis.shape[1], piv)
    row0 = G.cell_table[0]
    cells = np.array([row0 == w for w in range(G.weyl.order)],
                     dtype=np.int64)
    residue = F.mat_sub(cells[:, free],
                        F.mat_mul(cells[:, piv], basis[:, free]))
    return row_basis(F, F.mat_mul(kernel(F, residue.T), cells))


def restrict_oracle(F, basis, pivots, A):
    images = F.mat_mul(basis, A.T)
    out = np.zeros((basis.shape[0], basis.shape[0]), dtype=np.int64)
    for i in range(images.shape[0]):
        residue, coords = reduce_mod_rowspace_oracle(F, basis, pivots,
                                                     images[i])
        assert not residue.any()
        out[i] = coords
    return out.T


def project_oracle(F, basis, pivots, A):
    free = [c for c in range(A.shape[0]) if c not in set(pivots)]
    out = np.zeros((len(free), len(free)), dtype=np.int64)
    for jq, j in enumerate(free):
        residue, _ = reduce_mod_rowspace_oracle(F, basis, pivots,
                                                A[:, j].copy())
        out[:, jq] = residue[free]
    return out


def _rref_first(F, rows):
    R, pivots = rref(F, np.asarray(rows, dtype=np.int64))
    return R[: len(pivots)], pivots


def submodule_oracle(M, rows):
    """The generators' matrices on the span of `rows`, eliminated by one
    `rref` whether canonical or not, then restricted one vector at a
    time."""
    F = M.field
    basis, pivots = _rref_first(F, rows)
    return [restrict_oracle(F, basis, pivots, A) for A in M.mats]


def quotient_oracle(M, rows):
    """The generators' matrices on the quotient by the span of `rows`, as
    `submodule_oracle` forms them."""
    F = M.field
    basis, pivots = _rref_first(F, rows)
    return [project_oracle(F, basis, pivots, A) for A in M.mats]


def kron_oracle(F, A, B):
    ra, ca = A.shape
    rb, cb = B.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.int64)
    for i in range(ra):
        for j in range(ca):
            if A[i, j]:
                out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = (
                    F.scale(int(A[i, j]), B))
    return out


def hom_space_oracle(A, B):
    F = A.field
    if A.dim == 0 or B.dim == 0:
        return []
    eye_a = F.identity(A.dim)
    eye_b = F.identity(B.dim)
    blocks = []
    for Ag, Bg in zip(A.mats, B.mats):
        blocks.append(F.mat_sub(kron_oracle(F, eye_b, Ag.T.copy()),
                                kron_oracle(F, Bg, eye_a)))
    if not blocks:
        blocks.append(np.zeros((1, A.dim * B.dim), dtype=np.int64))
    ker = kernel(F, np.vstack(blocks))
    return [k.reshape(B.dim, A.dim) for k in ker]


def kernel_oracle(F, A):
    A = np.asarray(A, dtype=np.int64)
    R, piv = rref(F, A)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in piv]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    K = np.zeros((len(free), cols), dtype=np.int64)
    for i, c in enumerate(free):
        K[i, c] = 1
        for j, pc in enumerate(piv):
            K[i, pc] = F.neg(int(R[j, c]))
    return row_basis(F, K)


def fixed_points_oracle(F, mats, dim):
    basis = F.identity(dim)
    eye = F.identity(dim)
    for A in mats:
        basis = intersect_rowspaces_oracle(F, basis,
                                           kernel(F, F.mat_sub(A, eye)))
        if basis.shape[0] == 0:
            break
    return basis


def sign_eigenspace_oracle(G, ell):
    F = field(ell)
    negated = [lambda rows, adjacent=_adjacent_flags(G, s):
               F.mat_neg(_apply_simple(F, adjacent, rows))
               for s in range(G.weyl.rank)]
    return fixed_points(F, negated, G.index)


def hc_restrict_oracle(G, composition, M):
    F = M.field
    radical = []
    for a, b in G.parabolic(composition).radical_positions():
        for c in range(1, G.q):
            x = G.field.identity(G.n)
            x[a, b] = c
            radical.append(_perm_matrix(M.perm_of(x)))
    basis, pivots = rref(F, fixed_points(F, radical, M.dim))
    basis = basis[:len(pivots)]
    return [_restrict(F, basis, pivots, _perm_matrix(M.perm_of(l)))
            for l in levi_generators(G, composition)]


def squarefree_parts_oracle(F, f):
    f = poly.monic(F, f)
    out = []
    e = 1
    while poly.degree(f) > 0:
        df = poly.trim([F.mul(F.from_int(i), int(f[i]))
                        for i in range(1, len(f))])
        if not df.size:
            # f is a polynomial in x^p: take a p-th root and retry
            f = poly.trim([F.pow(int(f[i]), F.order // F.p)
                           for i in range(0, len(f), F.p)])
            e *= F.p
            continue
        c = poly.gcd(F, f, df)
        w = poly.divmod_poly(F, f, c)[0]
        m = 1
        while poly.degree(w) > 0:
            y = poly.gcd(F, w, c)
            z = poly.divmod_poly(F, w, y)[0]
            if poly.degree(z) > 0:
                out.append((z, e * m))
            c = poly.divmod_poly(F, c, y)[0]
            w = y
            m += 1
        f = c
    return out


def distinct_degree_oracle(F, f):
    out = []
    h = [0, 1]
    d = 0
    f = poly.monic(F, f)
    while poly.degree(f) >= 2 * (d + 1):
        d += 1
        h = poly.powmod(F, h, F.order, f)
        g = poly.gcd(F, poly.sub(F, h, [0, 1]), f)
        if poly.degree(g) > 0:
            out.append((g, d))
            f = poly.divmod_poly(F, f, g)[0]
            h = poly.mod(F, h, f)
    if poly.degree(f) > 0:
        out.append((f, poly.degree(f)))
    return out


def factor_oracle(F, f):
    rng = np.random.default_rng(0x5EED)
    f = poly.trim(list(f))
    if poly.degree(f) < 1:
        return []
    found = {}
    for sf, e in squarefree_parts_oracle(F, f):
        for block, d in distinct_degree_oracle(F, sf):
            for irr in poly._split_equal_degree(F, block, d, rng):
                key = tuple(irr.tolist())
                found[key] = found.get(key, 0) + e
    return [(list(k), m) for k, m in
            sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0]))]


def divmod_poly_oracle(F, f, g):
    g = poly.trim(g).tolist()
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = poly.trim(f).tolist()
    dg = poly.degree(g)
    inv_lead = F.inv(g[-1])
    q = [0] * max(len(f) - dg, 0)
    while poly.degree(f) >= dg:
        d = poly.degree(f)
        c = F.mul(f[-1], inv_lead)
        q[d - dg] = c
        for i, b in enumerate(g):
            f[d - dg + i] = F.sub(f[d - dg + i], F.mul(c, b))
        f = poly.trim(f).tolist()
    return poly.trim(q).tolist(), f


def irreducible_factors_oracle(F, f, rng=None):
    if rng is None:
        rng = np.random.default_rng(0x5EED)
    f = poly.monic(F, f)
    h = [0, 1]  # x^(q^d) mod f
    d = 0
    while poly.degree(f) >= 2 * (d + 1):
        d += 1
        h = poly.powmod(F, h, F.order, f)
        g = poly.gcd(F, poly.sub(F, h, [0, 1]), f)
        if poly.degree(g) < 1:
            continue
        for irr in sorted(part.tolist() for part in
                          poly._split_equal_degree(F, g, d, rng)):
            yield irr
            # every power of irr, by list long division
            quo, rem = divmod_poly_oracle(F, f, irr)
            while not rem:
                f = quo
                quo, rem = divmod_poly_oracle(F, f, irr)
        h = poly.mod(F, h, f)
    if poly.degree(f) > 0:
        yield poly.trim(f).tolist()


def random_word_oracle(M, rng):
    gens = len(M._gens)
    word = []
    for _ in range(int(rng.integers(2, 5))):
        letters = tuple(int(rng.integers(gens))
                        for _ in range(int(rng.integers(1, 4))) if gens)
        word.append((1 + int(rng.integers(M.field.order - 1)), letters))
    return tuple(word)


def poly_eval_oracle(F, coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = F.add(F.mul(out, x), c)
    return out


def monic_no_root_polys_oracle(F, degree):
    for tail in product(range(F.order), repeat=degree):
        coeffs = list(tail) + [1]
        if all(poly_eval_oracle(F, coeffs, x) != 0 for x in range(F.order)):
            yield coeffs


def factor_candidates_oracle(F, theta):
    n = theta.shape[0]
    eye = F.identity(n)
    cp = charpoly(F, theta)
    for lam in range(F.order):
        if poly_eval_oracle(F, cp, lam) == 0:
            fmat = F.mat_sub(theta, F.scale(lam, eye))
            yield fmat, 1, n - rank(F, fmat)
    theta2 = F.mat_mul(theta, theta)
    for b, a, _ in monic_no_root_polys_oracle(F, 2):
        fmat = F.mat_add(theta2,
                         F.mat_add(F.scale(a, theta), F.scale(b, eye)))
        null = n - rank(F, fmat)
        if null:
            yield fmat, 2, null
    if F.order <= 3:
        theta3 = F.mat_mul(theta2, theta)
        for c, b, a, _ in monic_no_root_polys_oracle(F, 3):
            fmat = F.mat_add(
                theta3,
                F.mat_add(F.scale(a, theta2),
                          F.mat_add(F.scale(b, theta), F.scale(c, eye))))
            null = n - rank(F, fmat)
            if null:
                yield fmat, 3, null


def is_irreducible_oracle(M, seed):
    """The old Norton verdict for dim >= 2, or None when it reached none."""
    F = M.field
    rng = np.random.default_rng(seed)
    transposed = [A.T.copy() for A in M.mats]
    for _ in range(MAX_NORTON_TRIES):
        theta = algebra_element(M, meataxe._random_word(M, rng))
        for fmat, deg, null in factor_candidates_oracle(F, theta):
            if null == 0:
                continue
            v = kernel(F, fmat)[0]
            if _spin_rows(F, M.mats, M.dim, v).shape[0] < M.dim:
                return False
            if null != deg:
                continue
            w = kernel(F, fmat.T.copy())[0]
            return _spin_rows(F, transposed, M.dim, w).shape[0] == M.dim
    return None


def canonical_flag_oracle(G, g):
    """One flag at a time: clear earlier pivot rows, scale the bottom-most
    nonzero entry of each column to 1."""
    F = G.field
    A = np.array(g, dtype=np.int64, copy=True)
    pivot_rows = []
    for j in range(G.n):
        for jj, r in enumerate(pivot_rows):
            c = int(A[r, j])
            if c:
                A[:, j] = F.mat_sub(A[:, j:j + 1],
                                    F.scale(c, A[:, jj:jj + 1]))[:, 0]
        nz = np.nonzero(A[:, j])[0]
        if len(nz) == 0:
            raise GroupError("singular matrix does not define a flag")
        r = int(nz[-1])
        c = int(A[r, j])
        if c != 1:
            A[:, j] = F.scale(F.inv(c), A[:, j:j + 1])[:, 0]
        pivot_rows.append(r)
    return A


def coset_key_oracle(P, g):
    """Key of gP from the row-reduced bases of the prefix column spans."""
    F = P.group.field
    parts = []
    for m in P.cutpoints:
        basis = row_basis(F, np.asarray(g)[:, :m].T)
        if basis.shape[0] != m:
            raise GroupError("singular matrix does not define a coset")
        parts.append(basis.tobytes())
    return b"|".join(parts)


def orbit_cosets_oracle(F, generators, start, canon):
    """The breadth-first orbit one coset and one generator at a time;
    canon(g) returns (representative, key)."""
    rep, key = canon(start)
    reps, index = [rep], {key: 0}
    parent, parent_gen = [-1], [-1]
    images = [[] for _ in generators]
    i = 0
    while i < len(reps):
        for k, gen in enumerate(generators):
            rep, key = canon(F.mat_mul(gen, reps[i]))
            j = index.get(key)
            if j is None:
                j = index[key] = len(reps)
                reps.append(rep)
                parent.append(i)
                parent_gen.append(k)
            images[k].append(j)
        i += 1
    return {"reps": reps, "index": index, "size": len(reps),
            "parent": parent, "parent_gen": parent_gen, "gen_perms": images}


def flag_cosets_oracle(G):
    def canon(g):
        flag = canonical_flag_oracle(G, g)
        return flag, flag.tobytes()
    return orbit_cosets_oracle(G.field, G.generators, G.identity_element(),
                               canon)


def monomialize_oracle(G, g):
    """Left unit-upper row ops and right U column ops to a monomial form.

    Returns (pivot rows r with r[j] the row of column j's entry, the
    accumulated right factor R with g * R monomial).  Raises on singular
    input.
    """
    F = G.field
    n = G.n
    A = np.array(g, dtype=np.int64, copy=True)
    if A.shape != (n, n):
        raise GroupError(f"expected a {n}x{n} matrix, got {A.shape}")
    R = F.identity(n)
    pivots = [-1] * n
    for j in range(n):
        nz = np.nonzero(A[:, j])[0]
        if len(nz) == 0:
            raise GroupError("singular matrix has no Bruhat decomposition")
        r = int(nz[-1])
        pivots[j] = r
        inv_p = F.inv(int(A[r, j]))
        for i in range(r):
            c = int(A[i, j])
            if c:
                f = F.mul(c, inv_p)
                A[i, :] = F.mat_sub(A[i:i + 1, :],
                                    F.scale(f, A[r:r + 1, :]))[0]
        for k in range(j + 1, n):
            c = int(A[r, k])
            if c:
                f = F.mul(c, inv_p)
                A[:, k] = F.mat_sub(A[:, k:k + 1],
                                    F.scale(f, A[:, j:j + 1]))[:, 0]
                R[:, k] = F.mat_sub(R[:, k:k + 1],
                                    F.scale(f, R[:, j:j + 1]))[:, 0]
    return pivots, R


def weyl_of_oracle(G, g):
    pivots, _ = monomialize_oracle(G, g)
    return G.weyl.index[tuple(pivots)]


def bruhat_oracle(G, g):
    """g * R monomial; split v = R^-1 = u' * u with u' on the
    non-inversion positions of w and u on its inversions."""
    F = G.field
    n = G.n
    pivots, R = monomialize_oracle(G, g)
    w = G.weyl.index[tuple(pivots)]
    v = inverse(F, R)
    inv_pos = set(G.inversion_positions(w))
    z = F.identity(n)  # will hold u^{-1}
    for d in range(1, n):
        for a in range(n - d):
            b_col = a + d
            if (a, b_col) not in inv_pos:
                continue
            val = 0
            for c in range(a, b_col + 1):
                val = F.add(val, F.mul(int(v[a, c]), int(z[c, b_col])))
            z[a, b_col] = F.neg(val)
    u = inverse(F, z)
    b = F.mat_mul(g, inverse(F, F.mat_mul(G.weyl_rep(w), u)))
    return b, w, u


def group_elements_oracle(G):
    """Breadth-first products of generators, one element at a time."""
    F = G.field
    start = G.identity_element()
    elements = [start]
    index = {start.tobytes(): 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in G.generators:
                cand = F.mat_mul(gen, x)
                key = cand.tobytes()
                if key not in index:
                    index[key] = len(elements)
                    elements.append(cand)
                    nxt.append(cand)
        frontier = nxt
    return elements, index


def cell_table_oracle(G, cosets):
    """Row 0 from the Bruhat cells of the reps, the rest propagated."""
    size = cosets["size"]
    table = np.empty((size, size), dtype=np.int64)
    table[0] = [weyl_of_oracle(G, rep) for rep in cosets["reps"]]
    inv_perms = np.argsort(np.array(cosets["gen_perms"]), axis=1)
    for c in range(1, size):
        table[c] = table[cosets["parent"][c]][
            inv_perms[cosets["parent_gen"][c]]]
    return table


def bruhat_permutation_oracle(G, cosets, memo, g):
    """g = h * u_b * n_w * u acting on the flags as the composition of
    memoized permutations of root elements, single-entry torus elements
    and n_w, each found by canonicalizing every flag."""
    F = G.field

    def factor(x):
        key = x.tobytes()
        if key not in memo:
            memo[key] = np.array(
                [cosets["index"][canonical_flag_oracle(
                    G, F.mat_mul(x, rep)).tobytes()]
                 for rep in cosets["reps"]], dtype=np.int64)
        return memo[key]

    def entry(a, b, c):
        x = F.identity(G.n)
        x[a, b] = c
        return factor(x)

    def unipotent(u, out):
        for b in range(1, G.n):
            for a in range(b):
                if int(u[a, b]):
                    out = entry(a, b, int(u[a, b]))[out]
        return out

    b, w, u = bruhat_oracle(G, g)
    h = [int(c) for c in np.diagonal(b)]
    u_b = F.mat_mul(G.torus_element([F.inv(c) for c in h]), b)
    out = unipotent(u, np.arange(cosets["size"]))
    out = factor(G.weyl_rep(w))[out]
    out = unipotent(u_b, out)
    for i, c in enumerate(h):
        if c != 1:
            out = entry(i, i, c)[out]
    return out


def parabolic_permutation_oracle(P, cosets, g):
    """G/P permutation by keying g * rep for one rep at a time."""
    F = P.group.field
    return np.array([cosets["index"][coset_key_oracle(P, F.mat_mul(g, rep))]
                     for rep in cosets["reps"]], dtype=np.int64)


# -- strategies --------------------------------------------------------------


def codes(F, shape):
    return arrays(np.int64, shape, elements=st.integers(0, F.order - 1))


@st.composite
def square_matrices(draw):
    """A square matrix, often block triangular so Hessenberg steps skip."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, MAX_DIM))
    A = draw(codes(F, (n, n))).copy()
    if draw(st.booleans()):
        split = draw(st.integers(0, n))
        A[split:, :split] = 0
    return F, A


@st.composite
def echelon_inputs(draw):
    """A matrix of any shape, often of rank below both of its dimensions."""
    F = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, MAX_DIM))
    cols = draw(st.integers(0, MAX_DIM))
    if draw(st.booleans()):
        k = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        left = draw(codes(F, (rows, k)))
        right = draw(codes(F, (k, cols)))
        return F, F.mat_mul(left, right)
    return F, draw(codes(F, (rows, cols)))


ROWSPACE_FIELDS = (field(2), field(3), field(2, 2), field(3, 2))


@st.composite
def canonical_bases(draw):
    """(F, basis, rows): a canonical basis of random rank over GF(2), GF(3),
    GF(4) or GF(9) and a block of rows, some random and some in its span."""
    F = draw(st.sampled_from(ROWSPACE_FIELDS))
    n = draw(st.integers(1, MAX_DIM))
    basis = row_basis(F, draw(codes(F, (draw(st.integers(0, n + 2)), n))))
    spanned = F.mat_mul(draw(codes(F, (draw(st.integers(0, 3)),
                                       basis.shape[0]))), basis)
    rows = np.vstack([draw(codes(F, (draw(st.integers(0, 4)), n))), spanned])
    return F, basis, rows


def _rowspace_examples():
    """Empty and full bases over each field, with rows to reduce."""
    out = []
    for F in ROWSPACE_FIELDS:
        rows = np.arange(20, dtype=np.int64).reshape(4, 5) % F.order
        out += [(F, np.zeros((0, 5), dtype=np.int64), rows),
                (F, F.identity(5), rows),
                (F, F.identity(5), rows[:0])]
    return out


@st.composite
def sparse_wide_inputs(draw):
    """Up to 40 columns with runs of zero columns and zero rows, 1 x N and
    N x 1 among them: the shapes where the pivot search skips columns."""
    F = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(0, MAX_DIM), st.integers(0, 40))))
    if draw(st.booleans()):
        k = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        A = F.mat_mul(draw(codes(F, (rows, k))), draw(codes(F, (k, cols))))
    else:
        A = draw(codes(F, (rows, cols))).copy()
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, cols))
        A[:, start:start + draw(st.integers(1, 12))] = 0
    if rows:
        A[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0
    return F, A


@st.composite
def modules_and_seeds(draw):
    """1-4 generators, often sharing an invariant coordinate subspace."""
    F = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(0, MAX_DIM))
    gens = draw(st.integers(1, 4))
    mats = [draw(codes(F, (dim, dim))).copy() for _ in range(gens)]
    if draw(st.booleans()):
        split = draw(st.integers(0, dim))
        for A in mats:
            A[split:, :split] = 0
    seeds = draw(codes(F, (draw(st.integers(1, 3)), dim)))
    return F, mats, dim, seeds


@st.composite
def polynomials_with_repeats(draw, fields=FIELDS):
    """A polynomial of degree at most 12, often with repeated factors.

    Either arbitrary coefficients (the zero polynomial and constants
    included) or a nonzero constant times a product of random monic
    polynomials of degree 1-4, each raised to a power 1-3.
    """
    F = draw(st.sampled_from(fields))
    coeff = st.integers(0, F.order - 1)
    if draw(st.booleans()):
        return F, draw(st.lists(coeff, max_size=MAX_POLY_DEGREE + 1))
    f = [draw(st.integers(1, F.order - 1))]
    while True:
        deg = draw(st.integers(1, 4))
        power = draw(st.integers(1, 3))
        if poly.degree(f) + deg * power > MAX_POLY_DEGREE:
            return F, f
        g = draw(st.lists(coeff, min_size=deg, max_size=deg)) + [1]
        for _ in range(power):
            f = poly.mul(F, f, g).tolist()
        if draw(st.booleans()):
            return F, f


@st.composite
def invertible_matrices(draw, F, n):
    """Unit lower times upper triangular with a nonzero diagonal."""
    lower = np.tril(draw(codes(F, (n, n))), -1) + F.identity(n)
    upper = np.triu(draw(codes(F, (n, n))), 1)
    diag = draw(arrays(np.int64, n, elements=st.integers(1, F.order - 1)))
    return F.mat_mul(lower, upper + np.diag(diag))


@st.composite
def module_pairs(draw):
    """Modules A, B on the same generators, often with nonzero homs.

    B is unrelated to A, a conjugate P A P^-1 of it (homs include P), or
    A plus a trivial summand (homs include the inclusion).
    """
    F = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(0, MAX_HOM_DIM))
    gens = draw(st.integers(1, 3))
    mats = [draw(codes(F, (dim, dim))).copy() for _ in range(gens)]
    if draw(st.booleans()):
        split = draw(st.integers(0, dim))
        for X in mats:
            X[split:, :split] = 0
    kind = draw(st.sampled_from(("unrelated", "conjugate", "plus_trivial")))
    if kind == "unrelated":
        other = draw(st.integers(0, MAX_HOM_DIM))
        others = [draw(codes(F, (other, other))) for _ in range(gens)]
    elif kind == "conjugate":
        P = draw(invertible_matrices(F, dim))
        P_inv = inverse(F, P)
        others = [F.mat_mul(F.mat_mul(P, X), P_inv) for X in mats]
    else:
        others = []
        for X in mats:
            Y = F.identity(dim + 1)
            Y[:dim, :dim] = X
            others.append(Y)
    A = GModule(F, mats, dim=dim, check=False)
    B = GModule(F, others, dim=others[0].shape[0], check=False)
    return A, B


@st.composite
def matrices_with_fixed_points(draw):
    """0-4 matrices, often fixing a shared subspace in a shared basis."""
    F = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(0, MAX_DIM))
    mats = [draw(codes(F, (dim, dim))).copy()
            for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        fixed = draw(st.integers(0, dim))
        P = draw(invertible_matrices(F, dim))
        P_inv = inverse(F, P)
        for i, X in enumerate(mats):
            X[:, :fixed] = F.identity(dim)[:, :fixed]
            mats[i] = F.mat_mul(F.mat_mul(P, X), P_inv)
    return F, mats, dim


# -- properties --------------------------------------------------------------


def _listed(polys):
    """Code arrays as lists, in order, to compare with the list oracles."""
    return [f.tolist() for f in polys]


@SETTINGS
@given(square_matrices())
def test_charpoly_matches_oracle(case):
    F, A = case
    assert charpoly(F, A).tolist() == charpoly_oracle(F, A)


@SETTINGS
@given(echelon_inputs())
def test_rref_matches_oracle(case):
    F, A = case
    R, pivots = rref(F, A)
    R_old, pivots_old = rref_oracle(F, A)
    assert pivots == pivots_old
    assert np.array_equal(R, R_old)


@SETTINGS
@given(sparse_wide_inputs())
def test_rref_matches_oracle_on_sparse_wide_inputs(case):
    F, A = case
    R, pivots = rref(F, A)
    R_old, pivots_old = rref_oracle(F, A)
    assert pivots == pivots_old
    assert np.array_equal(R, R_old)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
@pytest.mark.parametrize("gap", (gf._SCAN_WIDTH - 1, gf._SCAN_WIDTH,
                                 gf._SCAN_WIDTH + 1, 5 * gf._SCAN_WIDTH))
def test_rref_matches_oracle_across_scan_windows(F, gap):
    # runs of zero columns ending just inside, at and past the edges of the
    # pivot search's doubling windows, then a tail of dependent columns
    rng = np.random.default_rng(gap)
    right = F.random_matrix(rng, (8, 3 * gap + 20))
    right[:, 2 : 2 + gap] = 0
    right[:, 5 + gap : 5 + 2 * gap] = 0
    A = F.mat_mul(F.random_matrix(rng, (12, 8)), right)
    R, pivots = rref(F, A)
    R_old, pivots_old = rref_oracle(F, A)
    assert pivots == pivots_old
    assert np.array_equal(R, R_old)


# (rows, inner, columns): empty, below and at the float crossover, narrow
# and wide outputs, and an inner dimension past the float bound of GF(p)
# for p near the field cap
PRODUCT_SHAPES = ((0, 5, 7), (5, 0, 7), (3, 4, 5), (31, 32, 32),
                  (32, 32, 32), (200, 200, 1), (1, 200, 200), (64, 48, 80),
                  (2, 9000, 2))
PRODUCT_FIELDS = FIELDS + (field(3, 2), field(2, 8), field(5, 3), field(2, 10),
                           field(1048573))


@pytest.mark.parametrize("F", PRODUCT_FIELDS, ids=repr)
def test_mat_mul_matches_integer_products(F):
    rng = np.random.default_rng(5)
    madds = {m * n * r for m, n, r in PRODUCT_SHAPES}
    assert min(madds) < gf._FLOAT_MIN_MADDS <= max(madds)
    for m, n, r in PRODUCT_SHAPES:
        A = F.random_matrix(rng, (m, n))
        B = F.random_matrix(rng, (n, r))
        C = F.mat_mul(A, B)
        assert C.dtype == np.int64
        assert np.array_equal(C, mat_mul_oracle(F, A, B))
        # a non-contiguous factor multiplies like its copy
        assert np.array_equal(F.mat_mul(B.T, A.T), C.T)


@pytest.mark.parametrize("F", (field(13), field(2, 2), field(3, 2),
                               field(2, 10)), ids=repr)
@pytest.mark.parametrize("shape", ((3, 4, 5), (40, 40, 40), (5, 60, 1)),
                         ids=str)
def test_mat_mul_is_one_product_and_one_reduction(F, shape, monkeypatch):
    rng = np.random.default_rng(3)
    m, n, r = shape
    A, B = F.random_matrix(rng, (m, n)), F.random_matrix(rng, (n, r))
    C = mat_mul_oracle(F, A, B)
    F.mat_mul(A, B)  # builds the log tables on first use
    calls = []

    def counted(name):
        method = getattr(gf.FiniteField, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(gf.FiniteField, name, wrapper)

    counted("_product")
    counted("_mod")
    assert np.array_equal(F.mat_mul(A, B), C)
    assert calls == ["_product", "_mod"]
    calls.clear()
    assert np.array_equal(F.mat_vec(A, B[:, 0]), C[:, 0])
    assert calls == ["_product", "_mod"]


def test_float_products_run_on_one_blas_thread_and_restore_the_count(
        monkeypatch):
    threads = gf._blas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS thread-count functions are "
                    "missing, so products take the einsum fallback")
    get_threads, set_threads = threads
    requested = []

    def recorded_set(n):
        requested.append(n)
        set_threads(n)

    monkeypatch.setattr(gf, "_blas_threads",
                        lambda: (get_threads, recorded_set))
    F = field(13)
    rng = np.random.default_rng(11)
    A, B = F.random_matrix(rng, (300, 300)), F.random_matrix(rng, (300, 300))
    saved = get_threads()
    try:
        for count in (2, 1):
            set_threads(count)
            requested.clear()
            assert np.array_equal(F.mat_mul(A, B), mat_mul_oracle(F, A, B))
            assert requested == [1, count]
            assert get_threads() == count
    finally:
        set_threads(saved)


@pytest.mark.parametrize("F", PRODUCT_FIELDS, ids=repr)
def test_einsum_fallback_matches_the_blas_products(monkeypatch, F):
    rng = np.random.default_rng(6)
    pairs = [(F.random_matrix(rng, (m, n)), F.random_matrix(rng, (n, r)))
             for m, n, r in PRODUCT_SHAPES]
    products = [F.mat_mul(A, B) for A, B in pairs]
    einsum_calls = []

    def counted_einsum(*args, **kwargs):
        einsum_calls.append(None)
        return einsum(*args, **kwargs)

    einsum = np.einsum
    monkeypatch.setattr(gf, "_blas_threads", lambda: None)
    monkeypatch.setattr(np, "einsum", counted_einsum)
    for (A, B), C in zip(pairs, products):
        assert np.array_equal(F.mat_mul(A, B), C)
    # the shapes past the float crossover took the fallback
    assert einsum_calls


@pytest.mark.parametrize("F", (field(2, 2), field(3, 2), field(2, 4),
                               field(5, 2), field(2, 10), field(3, 7),
                               field(2, 12)), ids=repr)
def test_multiplication_tables_match_scaled_rows(F):
    # GF(9)'s modulus is x^2 + 1, so x is not primitive there; GF(3^7) and
    # GF(2^12) are larger than any field that had a full q x q table
    codes = np.arange(F.order, dtype=np.int64)
    rows = codes if F.order <= 256 else codes[::97]
    products = mat_mul_oracle(F, rows[:, None], codes[None, :])
    assert np.array_equal(F.hadamard(rows[:, None], codes), products)
    for a, expected in zip(rows, products):
        assert np.array_equal(F.scale(int(a), codes), expected)
    assert np.array_equal(
        F.hadamard(codes[1:], F.inverses[1:]), np.ones(F.order - 1))
    assert F.inverses[0] == 0


SMALL_FIELDS = [field(*gf.prime_power(q)) for q in range(2, 257)
                if len(gf.factorize(q)) == 1]


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_generator_orders_and_powers_match_repeated_products(F):
    # powers[e, a] = a^e, from e digit products per code
    q = F.order
    codes = np.arange(q, dtype=np.int64)
    powers = [np.ones(q, dtype=np.int64)]
    for _ in range(q - 1):
        powers.append(hadamard_oracle(F, powers[-1], codes))
    powers = np.array(powers)
    orders = [int(np.argmax(powers[1:, a] == 1)) + 1 for a in range(1, q)]
    assert [F.element_order(a) for a in range(1, q)] == orders
    assert F.generator == 1 + orders.index(q - 1)
    for e in (0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 3):
        assert [F.pow(a, e) for a in range(q)] == (
            [int(e == 0)] + powers[e % (q - 1), 1:].tolist())
    for e in (-1, -5):
        assert [F.pow(a, e) for a in range(1, q)] == (
            powers[e % (q - 1), 1:].tolist())


@pytest.mark.parametrize("F", (field(2), field(3), field(1048573)), ids=repr)
@pytest.mark.parametrize("size", (1, 500, 5000))
def test_prime_field_reductions_match_python_modulo(F, size):
    # every reduction runs in place on a fresh array, never on an input
    rng = np.random.default_rng(size)
    p = F.p
    A, B, X = (F.random_matrix(rng, (50, size // 50 + 1)) for _ in range(3))
    col, row = A[:, 0].copy(), B[0].copy()
    c = int(rng.integers(p))
    inputs = [Y.copy() for Y in (A, B, X)]
    assert np.array_equal(F.mat_add(A, B), (A + B) % p)
    assert np.array_equal(F.mat_sub(A, B), (A - B) % p)
    assert np.array_equal(F.scale(c, A), (c * A) % p)
    assert np.array_equal(F.hadamard(A, B), (A * B) % p)
    assert np.array_equal(F.sub_outer(X, col, row),
                          (X - np.outer(col, row)) % p)
    assert all(np.array_equal(Y, Z) for Y, Z in zip((A, B, X), inputs))


def test_float_products_are_exact_at_the_caps():
    # the largest prime field and the longest dot product the caps admit,
    # every entry p - 1: each dot product is MAX_DENSE_DIM * (p - 1)^2
    p = 1048573
    assert is_prime(p)
    assert not any(is_prime(x) for x in range(p + 1, MAX_FIELD_SIZE))
    F = field(p)
    A = np.full((3, MAX_DENSE_DIM), p - 1, dtype=np.int64)
    B = np.full((MAX_DENSE_DIM, 17), p - 1, dtype=np.int64)
    assert 3 * MAX_DENSE_DIM * 17 >= gf._FLOAT_MIN_MADDS
    C = F.mat_mul(A, B)
    assert np.array_equal(C, (A @ B) % p)
    assert (C == MAX_DENSE_DIM % p).all()  # (p - 1)^2 = 1 mod p


def test_products_beyond_the_float_bound_fall_back_exactly():
    # a 1 x N by N x 1 product whose dot product is far past 2**53, where
    # float64 sums round away the odd last term
    p = 1048573
    F = field(p)
    n = 1 << 17
    A = np.full((1, n), p - 2, dtype=np.int64)
    B = np.full((n, 1), p - 1, dtype=np.int64)
    B[-1] = 1
    assert n >= gf._FLOAT_MIN_MADDS
    assert n * (p - 1) ** 2 >= gf._FLOAT_EXACT
    exact = (n - 1) * (p - 2) * (p - 1) + (p - 2)
    as_float = np.einsum("ij,kj->ik", A.astype(np.float64),
                         B.T.astype(np.float64, order="C"))
    assert int(as_float[0, 0]) % p != exact % p  # the float path is wrong
    assert F.mat_mul(A, B).tolist() == [[exact % p]]
    assert F.mat_mul(A, B).tolist() == ((A @ B) % p).tolist()


def _kernel_examples():
    """Zero-width, empty, full-rank and all-zero matrices over GF(4), GF(9)."""
    out = []
    for F in (field(2, 2), field(3, 2)):
        full = np.triu(np.full((4, 4), F.order - 1, dtype=np.int64), 1)
        full[np.diag_indices(4)] = np.arange(1, 5) % (F.order - 1) + 1
        out += [(F, np.zeros((3, 0), dtype=np.int64)),
                (F, np.zeros((0, 4), dtype=np.int64)),
                (F, full), (F, full[:3]), (F, full[:, 1:]),
                (F, np.zeros((3, 5), dtype=np.int64))]
    return out


def _with_examples(cases):
    """Hypothesis `example` for each case, before the generated inputs."""
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@SETTINGS
@given(echelon_inputs())
@_with_examples(_kernel_examples())
def test_kernel_matches_loop_oracle(case):
    F, A = case
    K = kernel(F, A)
    assert np.array_equal(K, kernel_oracle(F, A))
    assert not F.mat_mul(A, K.T).any()


@SETTINGS
@given(canonical_bases())
@_with_examples(_rowspace_examples())
def test_residues_match_the_vector_loop(case):
    F, basis, rows = case
    pivots = gf._pivots(basis)
    assert pivots == rref(F, basis)[1]
    residue, coords = reduce_mod_rowspace(F, basis, pivots, rows)
    assert residue.shape == rows.shape
    assert coords.shape == (len(rows), len(pivots))
    for row, block_residue, block_coords in zip(rows, residue, coords):
        old_residue, old_coords = reduce_mod_rowspace_oracle(
            F, basis, pivots, row)
        assert np.array_equal(block_residue, old_residue)
        assert np.array_equal(block_coords, old_coords)
        vector_residue, vector_coords = reduce_mod_rowspace(
            F, basis, pivots, row)
        assert np.array_equal(vector_residue, old_residue)
        assert np.array_equal(vector_coords, old_coords)


@SETTINGS
@given(canonical_bases())
@_with_examples(_rowspace_examples())
def test_intersections_match_zassenhaus(case):
    # the block is rarely canonical, so as V it takes the eliminating path
    F, basis, rows = case
    for U, V in ((rows, basis), (basis, rows), (rows, rows)):
        assert np.array_equal(intersect_rowspaces(F, U, V),
                              intersect_rowspaces_oracle(F, U, V))


@SETTINGS
@given(modules_and_seeds(), st.data())
def test_pieces_of_a_canonical_basis_equal_those_of_a_scrambled_span(
        case, data):
    F, mats, dim, seeds = case
    M = GModule(F, mats, dim=dim, check=False)
    basis = spin(M, seeds)
    r = basis.shape[0]
    # an invertible mix of the basis, two more rows of its span, shuffled
    mix = np.vstack([data.draw(invertible_matrices(F, r)),
                     data.draw(codes(F, (2, r)))])
    scrambled = F.mat_mul(mix, basis)[data.draw(st.permutations(range(r + 2)))]
    subs, quos = submodule_oracle(M, scrambled), quotient_oracle(M, scrambled)
    for rows in (basis, scrambled):
        sub, quo = submodule_module(M, rows), quotient_module(M, rows)
        assert (sub.dim, quo.dim) == (r, dim - r)
        for A, B in zip(sub.mats + quo.mats, subs + quos, strict=True):
            assert np.array_equal(A, B)


@SETTINGS
@given(modules_and_seeds())
def test_spin_and_derived_actions_match_oracles(case):
    F, mats, dim, seeds = case
    M = GModule(F, mats, dim=dim, check=False)
    basis = spin(M, seeds)
    assert np.array_equal(basis, spin_rows_oracle(F, mats, dim, seeds))
    pivots = rref(F, basis)[1]
    sub = submodule_module(M, basis)
    quo = quotient_module(M, basis)
    for A, S, Q in zip(mats, sub.mats, quo.mats):
        if basis.shape[0]:
            assert np.array_equal(S, restrict_oracle(F, basis, pivots, A))
        assert np.array_equal(Q, project_oracle(F, basis, pivots, A))


@SETTINGS
@given(module_pairs())
def test_hom_space_matches_kronecker_oracle(case):
    A, B = case
    for X, Y in ((A, B), (B, A)):
        homs = hom_space(X, Y)
        old = hom_space_oracle(X, Y)
        assert len(homs) == len(old)
        for h, h_old in zip(homs, old):
            assert np.array_equal(h, h_old)


@SETTINGS
@given(matrices_with_fixed_points())
def test_fixed_points_match_zassenhaus_oracle(case):
    F, mats, dim = case
    assert np.array_equal(fixed_points(F, mats, dim),
                          fixed_points_oracle(F, mats, dim))


@SETTINGS
@given(polynomials_with_repeats())
def test_factor_matches_oracle(case):
    F, f = case
    old = factor_oracle(F, f)
    assert [(g.tolist(), m) for g, m in poly.factor(F, f)] == old
    # the oracle's list is sorted by degree, so this also checks the order
    assert _listed(poly.irreducible_factors(F, f)) == [g for g, _ in old]
    if poly.degree(poly.trim(f)) >= 1:
        assert poly.is_irreducible_poly(F, f) == (
            len(old) == 1 and old[0][1] == 1)


# the distinct-degree loop on arrays against the list loop, over prime and
# extension fields of both parities
POLY_FIELDS = (field(2), field(3), field(5), field(13), field(2, 2),
               field(2, 3), field(3, 2))


@SETTINGS
@given(polynomials_with_repeats(POLY_FIELDS))
def test_irreducible_factors_match_the_list_loop(case):
    F, f = case
    assert (_listed(poly.irreducible_factors(F, f))
            == list(irreducible_factors_oracle(F, f)))


@pytest.mark.parametrize("F", POLY_FIELDS, ids=repr)
def test_irreducible_factors_of_low_degrees_match_the_list_loop(F):
    top = F.order - 1
    for f in ([], [0, 0], [1], [top], [0, 1], [top, top], [1, 0, 0]):
        assert (_listed(poly.irreducible_factors(F, f))
                == list(irreducible_factors_oracle(F, f))), f


@pytest.mark.parametrize("case", [(3, 5, 2), (4, 2, 3)], ids=str)
def test_irreducible_factors_match_the_list_loop_on_ladder_charpolys(case):
    # both samplers' elements of the Steinberg modules of the ladder rungs
    M = steinberg_module(build_gl(*case[:2]), case[2]).module
    F = M.field
    for sampler in (meataxe._random_word, random_word_oracle):
        rng = np.random.default_rng(5)
        for _ in range(2):
            cp = charpoly(F, algebra_element(M, sampler(M, rng)))
            assert (_listed(poly.irreducible_factors(F, cp))
                    == list(irreducible_factors_oracle(F, cp)))


@SETTINGS
@given(polynomials_with_repeats(POLY_FIELDS),
       polynomials_with_repeats(POLY_FIELDS))
def test_divmod_matches_the_trimming_loop(case, divisor):
    F, f = case
    g = [c % F.order for c in divisor[1]][:4]
    if not poly.trim(g).size:
        with pytest.raises(ZeroDivisionError):
            poly.divmod_poly(F, f, g)
        return
    old = list(divmod_poly_oracle(F, f, g))
    assert _listed(poly.divmod_poly(F, f, g)) == old
    assert _listed(poly.divmod_poly(F, f + [0, 0], g)) == old


# the Steinberg modules of the acceptance matrix and of both ladder rungs
ST_CASES = ((2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 4, 3), (2, 4, 5),
            (3, 2, 3), (3, 2, 7), (3, 3, 2), (3, 3, 13), (3, 5, 2), (4, 2, 3))


@pytest.mark.parametrize("case", ST_CASES + ((3, 7, 2), (3, 7, 19)),
                         ids=str)
def test_unipotent_fixed_rows_match_the_residue_solve(case):
    G = build_gl(*case[:2])
    data = steinberg_module(G, case[2])
    F = data.parent.field
    for basis in (data.basis, F.identity(G.index)):
        assert np.array_equal(_unipotent_fixed_rows(G, F, basis),
                              unipotent_fixed_rows_oracle(G, F, basis))


@pytest.mark.parametrize("case", ST_CASES, ids=str)
def test_both_samplers_give_the_same_composition_factors(case, monkeypatch):
    M = steinberg_module(build_gl(*case[:2]), case[2]).module
    found = []
    for sampler in (meataxe._random_word, random_word_oracle):
        monkeypatch.setattr(meataxe, "_random_word", sampler)
        dims = sorted(f.dim for f in composition_factors(M))
        found.append((is_irreducible(M)[0], dims))
    assert found[0] == found[1]


@SETTINGS
@given(modules_and_seeds(), st.integers(0, 2 ** 16))
def test_norton_verdict_matches_enumerating_oracle(case, seed):
    F, mats, dim, _ = case
    M = GModule(F, mats, dim=dim, check=False)
    if dim < 2:
        return  # no Norton run: dimension 0 is refused, dimension 1 simple
    old = is_irreducible_oracle(M, seed)
    try:
        verdict, witness = is_irreducible(M, seed)
    except MeatAxeError:
        assert old is None
        return
    if old is not None:
        assert verdict == old
    if not verdict:
        assert 0 < rank(F, witness) < dim
        assert spin(M, witness).shape[0] == rank(F, witness)


def compositions(n):
    for cuts in product((False, True), repeat=n - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        yield tuple(parts)


def _restriction_module(case):
    if case == "partial-flags":
        G = build_gl(3, 2)
        return G, parabolic_perm_module(G, (2, 1), 7)
    if case == "induced":
        G = build_gl(3, 2)
        return G, hc_induce(G, (2, 1), levi_borel_module(G, (2, 1), field(3)))
    n, q, ell = case
    G = build_gl(n, q)
    return G, borel_module(G, ell)


@pytest.mark.parametrize("case", [(2, 3, 2), (3, 2, 7), (3, 3, 2), (4, 2, 3),
                                  (3, 4, 5), "partial-flags", "induced"],
                         ids=str)
def test_restriction_matches_dense_fixed_points_oracle(case):
    G, M = _restriction_module(case)
    for comp in compositions(G.n):
        res = hc_restrict(G, comp, M)
        old = hc_restrict_oracle(G, comp, M)
        assert len(res.mats) == len(old), comp
        for A, B in zip(res.mats, old):
            assert np.array_equal(A, B), comp


# -- permutation gathers and Hecke gather-sums against dense matrices ---------

# the nine-case acceptance matrix, GL_3(4) ell=5 and both ladder rungs
GATHER_CASES = ((2, 2, 3), (2, 2, 5), (2, 3, 2), (2, 4, 3), (2, 4, 5),
                (3, 2, 3), (3, 2, 7), (3, 3, 2), (3, 3, 13), (3, 4, 5),
                (3, 5, 2), (4, 2, 3))


def _dense_twin(M):
    """M with its generator permutation matrices: the route gathers replace."""
    return GModule(M.field, [_perm_matrix(p) for p in M.perms], dim=M.dim,
                   check=False)


def _permutation_modules(n, q, ell):
    """(module, seed rows) for the flag, a partial-flag and, where the group
    is small enough, the regular permutation module; every seed spins to a
    proper submodule."""
    G = build_gl(n, q)
    F = field(ell)
    out = [(borel_module(G, ell), steinberg_element(G, ell))]
    partial = parabolic_perm_module(G, (1, n - 1), ell)
    augmentation = np.zeros(partial.dim, dtype=np.int64)
    augmentation[:2] = [1, F.neg(1)]
    out.append((partial, augmentation))
    if G.order_g <= MAX_REGULAR_ORDER:
        elements, index = group_elements(G)
        unipotent = np.zeros(len(elements), dtype=np.int64)
        for u in G.unipotent_elements():
            unipotent[index[u.tobytes()]] = 1
        out.append((_regular_module(G, F, elements, index), unipotent))
    return out


@pytest.mark.parametrize("case", GATHER_CASES, ids=str)
def test_permutation_gathers_match_dense_matrices(case):
    for M, seed in _permutation_modules(*case):
        F, D = M.field, _dense_twin(M)
        basis = spin(M, seed)
        assert 0 < basis.shape[0] < M.dim, M.label
        assert np.array_equal(basis, spin(D, seed)), M.label
        sub, dense_sub = submodule_module(M, basis), submodule_module(D, basis)
        for A, B in zip(sub.mats, dense_sub.mats, strict=True):
            assert np.array_equal(A, B), M.label
        for k in range(len(M.perms)):
            for gens, mats in ((M._gens[:k + 1], D.mats[:k + 1]),
                               (M._gens[k:k + 1], D.mats[k:k + 1])):
                assert np.array_equal(fixed_points(F, gens, M.dim),
                                      fixed_points(F, mats, M.dim)), M.label
        assert M._mats is None, "the gathers built the dense matrices"


@pytest.mark.parametrize("case", GATHER_CASES, ids=str)
def test_sign_eigenspace_matches_dense_operator_fixed_points(case):
    n, q, ell = case
    G = build_gl(n, q)
    F = field(ell)
    negated = [F.mat_neg(act_on_borel_module(G, ell, G.weyl.gen_index(s)))
               for s in range(G.weyl.rank)]
    assert np.array_equal(sign_eigenspace(G, ell),
                          fixed_points(F, negated, G.index))


@pytest.mark.parametrize("n, q", ((1, 3), (2, 2), (2, 9), (3, 2), (3, 3),
                                  (3, 4), (3, 5), (4, 2)))
def test_sign_eigenspace_matches_fixed_points_of_negated_operators(n, q):
    G = build_gl(n, q)
    ells = [ell for ell in sorted({c[2] for c in GATHER_CASES}) if ell != G.p]
    assert len(ells) >= 4
    for ell in ells:
        assert np.array_equal(sign_eigenspace(G, ell),
                              sign_eigenspace_oracle(G, ell)), ell


# -- the flag action against the per-flag and Bruhat-composed routes ----------

FLAG_GROUPS = ((2, 2), (2, 4), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4), (3, 5),
               (4, 2))


def _random_invertibles(G, seed, count):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        g = G.field.random_matrix(rng, (G.n, G.n))
        if G.is_invertible(g):
            out.append(g)
    return out


def _assert_same_cosets(cs, old):
    assert cs.size == old["size"]
    assert cs.reps.shape[0] == cs.size
    for rep, old_rep in zip(cs.reps, old["reps"], strict=True):
        assert np.array_equal(rep, old_rep)
    assert np.array_equal(cs.parent, old["parent"])
    assert np.array_equal(cs.parent_gen, old["parent_gen"])
    assert np.array_equal(cs.gen_perms, np.array(old["gen_perms"]))


@pytest.mark.parametrize("n, q", FLAG_GROUPS, ids=str)
def test_flag_orbit_and_action_match_the_old_routes(n, q):
    G = build_gl(n, q)
    old = flag_cosets_oracle(G)
    _assert_same_cosets(G.cosets, old)
    assert G.cosets.index == old["index"]
    assert np.array_equal(G.cell_table, cell_table_oracle(G, old))

    randoms = _random_invertibles(G, 41, 12)
    stack = np.array(randoms)
    assert np.array_equal(G.canonical_flag(stack),
                          [canonical_flag_oracle(G, g) for g in randoms])
    singular = stack.copy()
    singular[3, :, 1] = 0
    with pytest.raises(GroupError):
        G.canonical_flag(singular)

    memo = {}
    samples = (G.unipotent_elements()
               + [G.weyl_rep(w) for w in range(G.weyl.order)]
               + list(G.generators) + randoms)
    for g in samples:
        assert np.array_equal(G.coset_permutation(g),
                              bruhat_permutation_oracle(G, old, memo, g))


@pytest.mark.parametrize("n, q", FLAG_GROUPS, ids=str)
def test_partial_flag_orbit_and_action_match_the_per_rep_loop(n, q):
    G = build_gl(n, q)
    samples = (list(G.generators)
               + [G.weyl_rep(G.weyl.longest_element())]
               + _random_invertibles(G, 43, 4))
    for comp in compositions(n):
        P = G.parabolic(comp)
        old = orbit_cosets_oracle(G.field, G.generators, G.identity_element(),
                                  lambda g: (g, coset_key_oracle(P, g)))
        cs = P.cosets
        _assert_same_cosets(cs, old)
        assert [cs.index[P.coset_key(rep)] for rep in cs.reps] == list(
            range(cs.size))
        for g in samples:
            assert np.array_equal(P.coset_permutation(g),
                                  parabolic_permutation_oracle(P, old, g))


# -- Bruhat cells and G itself against the monomial form and the BFS loop ---


def _all_matrices(G):
    for codes in product(range(G.q), repeat=G.n * G.n):
        yield np.array(codes, dtype=np.int64).reshape(G.n, G.n)


def _assert_same_bruhat(G, g):
    try:
        expected = bruhat_oracle(G, g)
    except GroupError:
        with pytest.raises(GroupError):
            G.bruhat(g)
        with pytest.raises(GroupError):
            G.weyl_of(g)
        return False
    b, w, u = G.bruhat(g)
    assert w == expected[1] == G.weyl_of(g)
    assert np.array_equal(b, expected[0])
    assert np.array_equal(u, expected[2])
    return True


@pytest.mark.parametrize("n, q", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 4)],
                         ids=str)
def test_bruhat_matches_the_monomial_form_on_every_matrix(n, q):
    G = build_gl(n, q)
    found = sum(_assert_same_bruhat(G, g) for g in _all_matrices(G))
    assert found == G.order_g


@pytest.mark.parametrize("n, q", [(3, 3), (4, 2), (3, 4), (3, 5)], ids=str)
def test_bruhat_matches_the_monomial_form_on_seeded_samples(n, q):
    G = build_gl(n, q)
    rng = np.random.default_rng(1517)
    found = 0
    while found < 500:
        found += _assert_same_bruhat(
            G, G.field.random_matrix(rng, (n, n)))


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5)],
                         ids=str)
def test_group_orbit_matches_the_breadth_first_loop(n, q):
    G = build_gl(n, q)
    old_elements, old_index = group_elements_oracle(G)
    elements, index = group_elements(G)
    assert len(elements) == len(old_elements) == G.order_g
    for x, old in zip(elements, old_elements, strict=True):
        assert np.array_equal(x, old)
    assert index == old_index
    regular = _regular_module(G, field(7), elements, index)
    F = G.field
    for g in list(G.generators) + old_elements[::37]:
        assert regular.perm_of(g).tolist() == [
            old_index[F.mat_mul(g, x).tobytes()] for x in old_elements]


# -- Harish-Chandra induction against the per-coset decomposition ------------


def induced_permutation_oracle(P, X, g):
    """The old `hc_induce` action: g * rep_j = rep_i * p, one coset at a time
    through `ParabolicSubgroup.decompose`."""
    width = X.dim
    out = np.empty(P.cosets.size * width, dtype=np.int64)
    for j, rep in enumerate(P.cosets.reps):
        i, p = P.decompose(P.group.field.mat_mul(g, rep))
        out[j * width:(j + 1) * width] = i * width + X.perm_of(p)
    return out


@pytest.mark.parametrize("n, q, comp", [(3, 2, (2, 1)), (3, 3, (1, 2)),
                                        (3, 4, (2, 1)), (4, 2, (2, 2))],
                         ids=str)
def test_induced_action_matches_per_coset_decomposition(n, q, comp):
    G = build_gl(n, q)
    X = levi_borel_module(G, comp, field(3 if q != 3 else 2))
    ind = hc_induce(G, comp, X)
    P = G.parabolic(comp)
    for g in list(G.generators) + _random_invertibles(G, 47, 4):
        assert np.array_equal(ind.perm_of(g),
                              induced_permutation_oracle(P, X, g))


# -- the factor isomorphism test against hom spaces --------------------------
#
# `same_factor` once settled equal-dimension factors by fingerprints and then
# a hom space; a nonzero module map between simple modules of equal
# dimension is an isomorphism, so `len(hom_space(A, B)) > 0` is the oracle.


def _twists(M):
    """Simple modules on M's space with the same algebra, so simple too, that
    need not be isomorphic to M: the first two generators exchanged, and the
    first generator scaled by each nonzero non-identity scalar."""
    F, mats = M.field, M.mats
    out = [GModule(F, [mats[1], mats[0]] + mats[2:], check=False)]
    for c in range(2, F.order):
        out.append(GModule(F, [F.scale(c, mats[0])] + mats[1:], check=False))
    return out


def _small_simples():
    """Simple modules whose endomorphism ring is bigger than the field: C_7
    over GF(2) on x^3+x+1 and x^3+x^2+1 (End = GF(8)), and x^2+1 over GF(3)
    (End = GF(9)), with conjugates, powers and second generators."""
    F2, F3 = field(2), field(3)
    C = F2.asarray([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    D = F2.asarray([[0, 0, 1], [1, 0, 0], [0, 1, 1]])
    P = F2.asarray([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    conj = F2.mat_mul(F2.mat_mul(P, C), inverse(F2, P))
    square = F2.mat_mul(C, C)
    cube = F2.mat_mul(square, C)
    J, I = F3.asarray([[0, 2], [1, 0]]), F3.identity(2)
    over_2 = ([C], [D], [conj], [cube], [square], [C, C], [C, square],
              [conj, conj], [D, C])
    over_3 = ([J, I], [F3.mat_neg(J), I], [J, F3.mat_neg(I)], [J, J],
              [J, F3.mat_neg(J)])
    return ([GModule(F2, mats) for mats in over_2]
            + [GModule(F3, mats) for mats in over_3])


def _oracle_agrees(a, b):
    assert same_factor(a, b) == (len(hom_space(a.module, b.module)) > 0)


@pytest.mark.parametrize("n, q, ell", [(4, 2, 3), (4, 2, 5), (4, 2, 7),
                                       (3, 3, 2), (3, 3, 13), (3, 4, 5),
                                       (3, 4, 7)], ids=str)
def test_same_factor_matches_hom_space_on_flag_factors(n, q, ell):
    # every factor of dimension up to 20 against the first of its dimension,
    # and that first one against its twists
    first = {}
    for f in composition_factors(borel_module(build_gl(n, q), ell)):
        if f.dim > 20:
            continue
        if f.dim not in first:
            first[f.dim] = f
            for T in _twists(f.module):
                _oracle_agrees(f, factor_of(T))
        _oracle_agrees(first[f.dim], f)


def test_same_factor_matches_hom_space_when_endomorphisms_exceed_the_field():
    simples = [factor_of(M) for M in _small_simples()]
    compared = 0
    for a in simples:
        for b in simples:
            A, B = a.module, b.module
            if (A.dim, A.field, len(A.mats)) == (B.dim, B.field, len(B.mats)):
                _oracle_agrees(a, b)
                compared += 1
    assert compared > len(simples)


# -- recorded certificates and top factors against search and duality -------


def search_certificate_oracle(M, seed=DEFAULT_SEED):
    """(word, f, x) for a simple module M, by a search of its own."""
    rng = np.random.default_rng(seed)
    for _ in range(MAX_NORTON_TRIES):
        word = meataxe._random_word(M, rng)
        theta = algebra_element(M, word)
        for f, _, null_basis in meataxe._factor_candidates(
                M.field, theta, charpoly(M.field, theta)):
            if null_basis.shape[0] == len(f) - 1:
                return word, f, null_basis[0]
    raise MeatAxeError("no certificate")


def dual_oracle(M):
    F = M.field
    return GModule(F, [inverse(F, A).T.copy() for A in M.mats], dim=M.dim,
                   check=False)


def head_oracle(M):
    """A simple quotient: the dual of a simple submodule of the dual,
    found by descending into witnesses."""
    D = dual_oracle(M)
    verdict, witness = is_irreducible(D)
    while not verdict:
        D = submodule_module(D, witness)
        verdict, witness = is_irreducible(D)
    return dual_oracle(D)


def _steinberg_and_flag_modules(case):
    """The Steinberg module and, below 200 flags, the flag module."""
    G = build_gl(*case[:2])
    modules = [steinberg_module(G, case[2]).module]
    if G.index < 200:
        modules.append(borel_module(G, case[2]))
    return modules


@pytest.mark.parametrize("case", ST_CASES + ((3, 7, 2), (3, 7, 19)),
                         ids=str)
def test_recorded_certificates_match_the_search(case):
    for M in _steinberg_and_flag_modules(case):
        for factor in composition_factors(M):
            if factor.dim < 2:
                continue
            word, f, x = factor.certificate
            old_word, old_f, old_x = search_certificate_oracle(factor.module)
            assert word == old_word
            assert np.array_equal(f, old_f) and np.array_equal(x, old_x)


@pytest.mark.parametrize("case", [(3, 5, 2), (4, 2, 3), (3, 3, 2)], ids=str)
def test_certificates_are_searched_at_the_seed_of_their_series(case):
    # a factor the series took without a test of its own searches its
    # certificate when first read, with the words of the series' seed
    M = steinberg_module(build_gl(*case[:2]), case[2]).module
    searched = 0
    for seed in (1, 2, 99):
        for factor in composition_factors(M, seed):
            if factor.dim < 2:
                continue
            assert factor.seed == seed
            searched += factor.module.certificate is None
            word, f, x = factor.certificate
            old_word, old_f, old_x = search_certificate_oracle(
                factor.module, seed)
            assert word == old_word
            assert np.array_equal(f, old_f) and np.array_equal(x, old_x)
    assert searched


@pytest.mark.parametrize("n, q, ell", [(2, 2, 3), (2, 3, 2), (3, 2, 7),
                                       (2, 5, 3), (3, 2, 3), (2, 4, 5)],
                         ids=str)
def test_gelfand_graev_head_matches_the_duality_head(n, q, ell):
    G = build_gl(n, q)
    gg = gelfand_graev(G, ell)
    parent = steinberg_module(G, ell, d=gg.character.degree).parent
    generated = submodule_module(parent, spin(parent, gg.vector))
    old = head_oracle(generated)
    assert gg.head.dim == old.dim
    assert same_factor(factor_of(gg.head), factor_of(old))


@pytest.mark.parametrize("case", ST_CASES + ((3, 7, 2), (3, 7, 19)),
                         ids=str)
def test_handed_down_samples_equal_the_words_evaluated_on_each_piece(
        case, monkeypatch):
    split, handed_down = meataxe._split, []

    def checked_split(M, witness, samples):
        out = split(M, witness, samples)
        for piece, pieces_samples in out[2:]:
            for word, theta, cp in pieces_samples:
                expected = algebra_element(piece, word)
                assert np.array_equal(theta, expected)
                assert np.array_equal(cp, charpoly(piece.field, expected))
                handed_down.append(piece.dim)
        return out

    monkeypatch.setattr(meataxe, "_split", checked_split)
    M = steinberg_module(build_gl(*case[:2]), case[2]).module
    factors = composition_factors(M)
    _, series_factors = composition_series(M)
    assert [f.dim for f in series_factors] == [f.dim for f in factors]
    # every split of both runs hands at least one sample to each piece
    assert len(handed_down) >= 4 * (len(factors) - 1)


# -- proven heads against a Norton test of every quotient ---------------------


def factors_oracle(M, seed, samples):
    if M.dim == 0:
        return []
    verdict, witness = is_irreducible(M, seed, samples)
    if verdict:
        return [factor_of(M)]
    _, _, (sub, sub_samples), (quo, quo_samples) = meataxe._split(
        M, witness, samples)
    return (factors_oracle(sub, seed, sub_samples)
            + factors_oracle(quo, seed, quo_samples))


def series_oracle(M, seed, samples):
    F = M.field
    if M.dim == 0:
        return [], []
    verdict, witness = is_irreducible(M, seed, samples)
    if verdict:
        return [row_basis(F, F.identity(M.dim))], [factor_of(M)]
    wit, free, (sub, sub_samples), (quo, quo_samples) = meataxe._split(
        M, witness, samples)
    sub_bases, sub_factors = series_oracle(sub, seed, sub_samples)
    quo_bases, quo_factors = series_oracle(quo, seed, quo_samples)
    bases = [row_basis(F, F.mat_mul(rows, wit)) for rows in sub_bases]
    for qrows in quo_bases:
        lifted = np.zeros((qrows.shape[0], M.dim), dtype=np.int64)
        lifted[:, free] = qrows
        bases.append(row_basis(F, np.vstack([wit, lifted])))
    return bases, sub_factors + quo_factors


@SETTINGS
@given(echelon_inputs())
def test_annihilator_of_a_canonical_basis_matches_the_kernel(case):
    F, A = case
    if A.shape[1] == 0:
        return  # a dual spin has at least one column
    basis = row_basis(F, A)
    assert np.array_equal(meataxe._annihilator(F, basis), kernel(F, basis))


@pytest.mark.parametrize("case", ST_CASES + ((3, 7, 2), (3, 7, 19)),
                         ids=str)
def test_proven_heads_give_the_factors_and_series_of_full_tests(
        case, monkeypatch):
    annihilator, read_off = meataxe._annihilator, []

    def checked(F, basis):
        out = annihilator(F, basis)
        assert np.array_equal(out, kernel(F, basis))
        read_off.append(basis.shape)
        return out

    monkeypatch.setattr(meataxe, "_annihilator", checked)
    for M in _steinberg_and_flag_modules(case):
        for seed in (DEFAULT_SEED, 1, 2, 99):
            factors = composition_factors(M, seed)
            old = factors_oracle(M, seed, [])
            assert [f.dim for f in factors] == [f.dim for f in old]
            bases, series_factors = composition_series(M, seed)
            old_bases, old_factors = series_oracle(M, seed, [])
            assert [f.dim for f in series_factors] == [f.dim for f in old]
            assert len(bases) == len(old_bases)
            for basis, old_basis in zip(bases, old_bases):
                assert np.array_equal(basis, old_basis)
            # a simple factor of dimension 2 or more that records no
            # certificate is a proven quotient: a test of its own agrees
            for f in factors:
                if f.dim > 1 and f.module.certificate is None:
                    assert is_irreducible(f.module, seed)[0]
    if case[:2] in ((3, 5), (4, 2), (3, 7)):
        assert read_off  # the ladder and GL_3(7) prove some head


@pytest.mark.parametrize("ell, quotient", [(3, [6, 6]), (7, [5, 1, 5])])
def test_reducible_quotients_go_through_a_full_test(ell, quotient,
                                                    monkeypatch):
    # in the flag module of GL_3(2), a split whose witness came from the
    # first spin leaves a reducible quotient: it must be tested itself
    split, test = meataxe._split, meataxe.is_irreducible
    quotients, tested = [], []

    def recorded_split(M, witness, samples):
        out = split(M, witness, samples)
        quotients.append((M.witness_is_radical, out[3][0]))
        return out

    def recorded_test(M, *args):
        tested.append(M)
        return test(M, *args)

    monkeypatch.setattr(meataxe, "_split", recorded_split)
    monkeypatch.setattr(meataxe, "is_irreducible", recorded_test)
    composition_factors(borel_module(build_gl(3, 2), ell))
    monkeypatch.undo()
    reducible = [(radical, quo) for radical, quo in quotients
                 if len(composition_factors(quo)) > 1]
    assert quotient in [[f.dim for f in composition_factors(quo)]
                        for _, quo in reducible]
    for radical, quo in reducible:
        assert not radical
        assert any(quo is M for M in tested)


def test_the_norton_test_runs_only_where_no_head_is_proven(monkeypatch):
    # GL_3(5) ell=2 splits 125 as 1 + 124 and GL_4(2) ell=3 splits 64 as
    # 36 + 28, each by a dual-spin witness; a full test of every quotient
    # ran on [125, 124] and [64, 36, 35, 28]
    test, tested = meataxe.is_irreducible, []

    def recorded(M, *args):
        if M.dim >= 2:
            tested.append(M.dim)
        return test(M, *args)

    monkeypatch.setattr(meataxe, "is_irreducible", recorded)
    for case, dims in (((3, 5, 2), [125]), ((4, 2, 3), [64, 36])):
        tested.clear()
        composition_factors(steinberg_module(build_gl(*case[:2]),
                                             case[2]).module)
        assert tested == dims


# -- characteristic 2 against the floor-division and digit paths -------------


CHAR2_FIELDS = (field(2), field(2, 2), field(2, 3), field(2, 10))
INT64 = np.iinfo(np.int64)


def mod_oracle(F, X):
    X = np.array(X, dtype=np.int64)
    return X - (X // F.p) * F.p


def add_oracle(F, A, B, sign):
    return mod_oracle(F, F._decode(A) + sign * F._decode(B)) @ F._pows


@SETTINGS
@given(st.sampled_from(CHAR2_FIELDS),
       arrays(np.int64, st.tuples(st.integers(0, 5), st.integers(0, 7)),
              elements=st.integers(INT64.min, INT64.max)))
@example(field(2), np.array([[INT64.min, INT64.max, -1, -2, -3, 2**40 + 1]]))
def test_char2_reduction_keeps_the_low_bit(F, X):
    Y = X.copy()
    assert F._mod(Y) is Y
    assert np.array_equal(Y, mod_oracle(F, X))
    assert F._mod(np.int64(-7)) == 1


@SETTINGS
@given(st.data())
def test_char2_addition_and_rank_one_updates_are_xor(data):
    F = data.draw(st.sampled_from(CHAR2_FIELDS))
    m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 7))
    codes = st.integers(0, F.order - 1)
    A = data.draw(arrays(np.int64, (m, n), elements=codes))
    B = data.draw(arrays(np.int64, (m, n), elements=codes))
    col = data.draw(arrays(np.int64, m, elements=codes))
    row = data.draw(arrays(np.int64, n, elements=codes))
    assert np.array_equal(F.mat_add(A, B), add_oracle(F, A, B, 1))
    assert np.array_equal(F.mat_sub(A, B), add_oracle(F, A, B, -1))
    outer = F.hadamard(col[:, None], row[None, :])
    assert np.array_equal(F.sub_outer(A, col, row),
                          add_oracle(F, A, outer, -1))
