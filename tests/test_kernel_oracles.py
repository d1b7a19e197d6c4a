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
with no float64 path, the multiplication table of a small extension field
was built one scaled row at a time, `canonical_flag` canonicalized one
flag at a time, the flag and G/P orbits moved one coset by one generator
at a time, `coset_permutation` on G/B composed memoized permutations of
the Bruhat factors of g, and the G/P action keyed one representative at a
time from row-reduced bases of its prefix column spans.  Every
current kernel returns a canonical object (an RREF basis, a characteristic
polynomial, a matrix in a canonical basis, a sorted factor list), so the
outputs must agree exactly; the Norton test must give the old verdict
wherever the old one reached a verdict.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from steinberg import gf, polynomials as poly
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
    GModule,
    MeatAxeError,
    _perm_matrix,
    _restrict,
    _spin_rows,
    algebra_element,
    composition_factors,
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
    borel_module,
    group_elements,
    hc_induce,
    hc_restrict,
    levi_borel_module,
    levi_generators,
    parabolic_perm_module,
    steinberg_element,
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


def mat_mul_oracle(F, A, B):
    if F.k == 1:
        return (A @ B) % F.p
    dA, dB = F._decode(A), F._decode(B)
    conv = np.zeros((A.shape[0], B.shape[1], 2 * F.k - 1), dtype=np.int64)
    for i in range(F.k):
        for j in range(F.k):
            conv[:, :, i + j] += dA[:, :, i] @ dB[:, :, j]
    return F._encode(F._reduce_digit_stack(conv % F.p))


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


def restrict_oracle(F, basis, pivots, A):
    images = F.mat_mul(basis, A.T)
    out = np.zeros((basis.shape[0], basis.shape[0]), dtype=np.int64)
    for i in range(images.shape[0]):
        residue, coords = reduce_mod_rowspace(F, basis, pivots, images[i])
        assert not residue.any()
        out[i] = coords
    return out.T


def project_oracle(F, basis, pivots, A):
    free = [c for c in range(A.shape[0]) if c not in set(pivots)]
    out = np.zeros((len(free), len(free)), dtype=np.int64)
    for jq, j in enumerate(free):
        residue, _ = reduce_mod_rowspace(F, basis, pivots, A[:, j].copy())
        out[:, jq] = residue[free]
    return out


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
        basis = intersect_rowspaces(F, basis, kernel(F, F.mat_sub(A, eye)))
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
        df = poly.trim([F.mul(F.from_int(i), f[i]) for i in range(1, len(f))])
        if not df:
            # f is a polynomial in x^p: take a p-th root and retry
            f = poly.trim([F.pow(f[i], F.order // F.p)
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
                found[tuple(irr)] = found.get(tuple(irr), 0) + e
    return [(list(k), m) for k, m in
            sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0]))]


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
        theta = algebra_element(M, rng)
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


def cell_table_oracle(G, cosets):
    """Row 0 from the Bruhat cells of the reps, the rest propagated."""
    size = cosets["size"]
    table = np.empty((size, size), dtype=np.int64)
    table[0] = [G.weyl_of(rep) for rep in cosets["reps"]]
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

    b, w, u = G.bruhat(g)
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
def polynomials_with_repeats(draw):
    """A polynomial of degree at most 12, often with repeated factors.

    Either arbitrary coefficients (the zero polynomial and constants
    included) or a nonzero constant times a product of random monic
    polynomials of degree 1-4, each raised to a power 1-3.
    """
    F = draw(st.sampled_from(FIELDS))
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
            f = poly.mul(F, f, g)
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


@SETTINGS
@given(square_matrices())
def test_charpoly_matches_oracle(case):
    F, A = case
    assert charpoly(F, A) == charpoly_oracle(F, A)


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
PRODUCT_FIELDS = FIELDS + (field(3, 2), field(1048573))


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
                               field(5, 2), field(2, 10)), ids=repr)
def test_multiplication_tables_match_scaled_rows(F):
    # GF(9)'s modulus is x^2 + 1, so x is not primitive there
    codes = np.arange(F.order, dtype=np.int64)
    table = F._tables()
    rows = codes if F.order <= 256 else codes[::97]
    for a in rows:
        assert np.array_equal(table[a], F.scale(int(a), codes))
    assert np.array_equal(
        table[codes[1:], F._inv_table[1:]], np.ones(F.order - 1))


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
    assert poly.factor(F, f) == old
    # the oracle's list is sorted by degree, so this also checks the order
    assert list(poly.irreducible_factors(F, f)) == [g for g, _ in old]
    if poly.degree(poly.trim(f)) >= 1:
        assert poly.is_irreducible_poly(F, f) == (
            len(old) == 1 and old[0][1] == 1)


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

FLAG_GROUPS = ((2, 2), (2, 4), (2, 8), (2, 9), (3, 2), (3, 3), (3, 4), (4, 2))


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
