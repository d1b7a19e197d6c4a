"""Exact mini-MeatAxe over finite fields.

Works on matrix modules: a module is a list of invertible action matrices
over GF(p^k), one per generator of whatever algebra or group is acting.
Provides spinning (smallest invariant subspace containing given vectors),
a seeded Norton-style irreducibility test with explicit witnesses,
recursive composition factors with an isomorphism test between them, sub-,
quotient- and dual modules, homomorphism spaces and fixed points.

The Norton test (Parker 1984; Holt & Rees 1994) tries only the actual
irreducible factors of the characteristic polynomial of each sampled
algebra element, lowest degree first, as `polynomials.irreducible_factors`
yields them, and evaluates each with `polynomials.evaluate_matrix`; this
module does no polynomial arithmetic of its own.  A factor whose kernel
has dimension deg f certifies: one spin of its kernel vector, and one of
the transpose's, settle the verdict either way.  A factor of multiplicity
one always certifies, so every sample with such a factor gets a verdict.
The other factors' kernel vectors are spun only when a sample has no
certifying factor; such a spin can only find a witness, as it does for a
direct sum of two copies of one simple module or a scalar action.
Sampled elements are recorded words, so a simple factor's certificate (a
word theta and a factor f with kernel of dimension deg f) replays on
another factor; one spin in A + B^m and a small solve decide isomorphism.

Spinning is incremental (Parker's MeatAxe): each round multiplies only the
vectors added in the previous round and echelonizes their images against
the current basis, so no elimination sees more rows than the module has
dimensions.  A permutation module keeps its generator permutations and
builds no matrix for them unless a caller reads `mats`: spinning,
restriction to a submodule and fixed points apply a permutation as a
column gather, and `fixed_points` also takes any row map, such as the
gather-sum of a Hecke operator.  Hom spaces and fixed points cut their
solution space down one generator at a time (Holt & Rees 1994), so no
system is wider than the space of candidate maps or taller than the
module.

Vectors are rows; a matrix A acts on the column vector v as A @ v, so the
row form of the action is v -> v @ A.T.  All subspaces are returned as
canonical reduced-row-echelon bases, which makes equality of subspaces a
plain array comparison.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .caps import MAX_DENSE_DIM, MAX_NORTON_TRIES
from .gf import (
    FiniteField,
    charpoly,
    inverse,
    kernel,
    rank,
    row_basis,
    rref,
)
from .polynomials import evaluate_matrix, irreducible_factors

__all__ = [
    "MeatAxeError",
    "ZeroModuleError",
    "ModuleCapError",
    "GModule",
    "spin",
    "submodule_module",
    "quotient_module",
    "dual_module",
    "algebra_element",
    "is_irreducible",
    "CompositionFactor",
    "factor_of",
    "composition_factors",
    "composition_series",
    "same_factor",
    "factor_multiplicities",
    "multiplicity_of",
    "hom_space",
    "is_isomorphic",
    "fixed_points",
    "simple_submodule",
    "head_of",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 214003


class MeatAxeError(ValueError):
    pass


class ZeroModuleError(MeatAxeError):
    pass


class ModuleCapError(MeatAxeError):
    pass


class GModule:
    """A matrix module: one invertible action matrix per generator.

    A permutation module is given by `perms` in place of `mats`: generator
    i sends basis vector j to basis vector perms[i][j].  It builds the
    permutation matrices only when `mats` is first read; the MeatAxe
    applies the permutations as gathers.  `perm_of`, set on permutation
    modules only, maps an arbitrary group element to its permutation of
    the basis; derived modules (sub, quotient, dual) carry neither.
    """

    def __init__(self, field: FiniteField, mats=None, dim=None, label="",
                 perm_of=None, check=True, perms=None):
        self.field = field
        self.label = label
        self.perm_of = perm_of
        self.perms = None if perms is None else [
            np.asarray(p, dtype=np.int64) for p in perms]
        self._mats = None if perms is not None else [
            np.array(m, dtype=np.int64) for m in mats]
        if dim is None:
            gens = self._mats if perms is None else self.perms
            if not gens:
                raise MeatAxeError(
                    "dimension is required when there are no generators")
            dim = len(gens[0])
        self.dim = int(dim)
        for p in self.perms or []:
            if not np.array_equal(np.sort(p), np.arange(self.dim)):
                raise MeatAxeError(
                    f"generator is not a permutation of {self.dim} points")
        for m in self._mats or []:
            if m.shape != (self.dim, self.dim):
                raise MeatAxeError(
                    f"action matrix shape {m.shape} does not match dim {self.dim}")
            if m.size and (int(m.min()) < 0 or int(m.max()) >= field.order):
                raise MeatAxeError("matrix entries are not field codes")
        if check:
            for m in self._mats or []:
                if rank(field, m) != self.dim:
                    raise MeatAxeError("action matrix is singular")

    @property
    def mats(self) -> list:
        """The generator matrices; a permutation module builds them here."""
        if self._mats is None:
            self._mats = [_perm_matrix(p) for p in self.perms]
        return self._mats

    @functools.cached_property
    def _gens(self) -> list:
        """What `_image` applies for each generator: the inverse permutation
        for a permutation module, the matrix otherwise."""
        if self.perms is None:
            return self._mats
        return [np.argsort(p) for p in self.perms]

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return (f"GModule(dim={self.dim}, GF({self.field.order}), "
                f"{len(self._gens)} generators{tag})")


def _perm_matrix(perm) -> np.ndarray:
    """The matrix with a one at (perm[i], i): it sends e_i to e_perm[i]."""
    perm = np.asarray(perm, dtype=np.int64)
    out = np.zeros((perm.size, perm.size), dtype=np.int64)
    out[perm, np.arange(perm.size)] = 1
    return out


def _image(F: FiniteField, gen, rows) -> np.ndarray:
    """Row-form image rows @ A.T of a block of rows under one generator A.

    `gen` is A itself, or stands for it: a 1-D index array is the inverse
    of a permutation (A e_i = e_perm[i]), whose image is the column gather
    rows[:, inv_perm]; a callable is a row map, applied as it is.
    """
    if callable(gen):
        return gen(rows)
    if gen.ndim == 1:
        return rows[:, gen]
    return F.mat_mul(rows, gen.T)


def _as_rows(F: FiniteField, dim: int, seeds):
    """RREF basis and pivot columns of the span of the seed rows."""
    if seeds is None:
        return np.zeros((0, dim), dtype=np.int64), []
    arr = np.array(seeds, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.shape[1] != dim:
        raise MeatAxeError(
            f"seed width {arr.shape[1]} does not match dimension {dim}")
    R, pivots = rref(F, arr)
    return R[: len(pivots)], pivots


def _spin_rows(F: FiniteField, gens, dim: int, seeds) -> np.ndarray:
    """Incremental spin: only the rows added last round are multiplied.

    `gens` are what `_image` applies.  The basis stays in RREF throughout.
    Each generator's images of the frontier are reduced against it by
    reading coordinates off the pivot columns; the new echelon rows are
    merged in by clearing their pivot columns from the old rows, so no
    elimination ever sees more than `dim` rows.
    """
    basis, pivots = _as_rows(F, dim, seeds)
    frontier = basis
    while frontier.shape[0]:
        added = []
        for gen in gens:
            if len(pivots) == dim:
                break
            images = _image(F, gen, frontier)
            residue = F.mat_sub(images, F.mat_mul(images[:, pivots], basis))
            new, new_piv = rref(F, residue)
            if not new_piv:
                continue
            new = new[: len(new_piv)]
            basis = F.mat_sub(basis, F.mat_mul(basis[:, new_piv], new))
            order = np.argsort(pivots + new_piv)
            basis = np.vstack([basis, new])[order]
            pivots = sorted(pivots + new_piv)
            added.append(new)
        frontier = np.vstack(added) if added else basis[:0]
    return basis


def spin(M: GModule, seeds) -> np.ndarray:
    """Canonical basis of the smallest invariant subspace containing seeds."""
    return _spin_rows(M.field, M._gens, M.dim, seeds)


def _restrict(F: FiniteField, basis, pivots, gen) -> np.ndarray:
    """Matrix of a generator (as `_image` takes it) on the invariant row
    space spanned by the RREF basis."""
    images = _image(F, gen, basis)
    coords = images[:, pivots]
    if F.mat_sub(images, F.mat_mul(coords, basis)).any():
        raise MeatAxeError("subspace is not invariant under the action")
    return coords.T


def submodule_module(M: GModule, basis, label="") -> GModule:
    """Module structure on an invariant subspace, in basis coordinates."""
    F = M.field
    basis, pivots = rref(F, np.asarray(basis, dtype=np.int64))
    basis = basis[: len(pivots)]
    if basis.shape[0] == 0:
        return GModule(F, [np.zeros((0, 0), dtype=np.int64)
                           for _ in M._gens],
                       dim=0, label=label or f"sub(0) of {M.label}",
                       check=False)
    mats = [_restrict(F, basis, pivots, gen) for gen in M._gens]
    return GModule(F, mats, dim=basis.shape[0],
                   label=label or f"sub({basis.shape[0]}) of {M.label}",
                   check=False)


def quotient_module(M: GModule, basis, label="") -> GModule:
    """Module structure on the quotient by an invariant subspace."""
    F = M.field
    basis, pivots = rref(F, np.asarray(basis, dtype=np.int64))
    basis = basis[: len(pivots)]
    free = [c for c in range(M.dim) if c not in set(pivots)]
    qdim = len(free)

    def project(A):
        # the images of the free basis vectors, as rows, reduced mod basis
        cols = A[:, free].T
        residue = F.mat_sub(cols, F.mat_mul(cols[:, pivots], basis))
        return residue[:, free].T

    mats = [project(A) for A in M.mats]
    return GModule(F, mats, dim=qdim,
                   label=label or f"quo({qdim}) of {M.label}",
                   check=False)


def dual_module(M: GModule, label="") -> GModule:
    """Contragredient module: g acts by the inverse-transpose matrix."""
    F = M.field
    mats = [inverse(F, A).T.copy() for A in M.mats]
    return GModule(F, mats, dim=M.dim, label=label or f"dual of {M.label}",
                   check=False)


# -- seeded algebra sampling -------------------------------------------------


def _random_word(M: GModule, rng) -> tuple:
    """A short random algebra element, recorded as a word: a tuple of
    (coefficient, generator indices) terms, one product per term."""
    gens = len(M._gens)
    word = []
    for _ in range(int(rng.integers(2, 5))):
        letters = tuple(int(rng.integers(gens))
                        for _ in range(int(rng.integers(1, 4))) if gens)
        word.append((1 + int(rng.integers(M.field.order - 1)), letters))
    return tuple(word)


def _evaluate(M: GModule, word) -> np.ndarray:
    """The matrix of a recorded word on M: sum of c * A_i1 @ A_i2 @ ..."""
    F = M.field
    A = np.zeros((M.dim, M.dim), dtype=np.int64)
    for c, letters in word:
        term = M.mats[letters[0]] if letters else F.identity(M.dim)
        for i in letters[1:]:
            term = F.mat_mul(term, M.mats[i])
        A = F.mat_add(A, F.scale(c, term))
    return A


def algebra_element(M: GModule, rng) -> np.ndarray:
    """Short random combination of words in the action matrices."""
    return _evaluate(M, _random_word(M, rng))


def _factor_candidates(F: FiniteField, theta: np.ndarray):
    """Yield (f, f(theta), canonical kernel basis of f(theta)) for the
    distinct irreducible factors f of the characteristic polynomial of
    theta, lowest degree first."""
    for f in irreducible_factors(F, charpoly(F, theta)):
        fmat = evaluate_matrix(F, f, theta)
        yield f, fmat, kernel(F, fmat)


def is_irreducible(M: GModule, seed: int = DEFAULT_SEED):
    """Seeded Norton test.

    Returns (True, None) or (False, witness) where witness is the canonical
    basis of a proper nonzero invariant subspace.  Only the actual
    irreducible factors f of the characteristic polynomial of a sampled
    algebra element theta are tried, lowest degree first.  A factor whose
    kernel dimension equals deg f (always so for a factor of multiplicity
    one) settles the verdict: a kernel vector of f(theta) that spins to a
    proper subspace is a witness, and otherwise the module is simple once a
    kernel vector of the transpose spins to the whole space as well.  The
    first kernel vectors of the other factors are spun, in the same order,
    only when theta has no such factor; one that spins to a proper
    subspace is a witness.
    """
    if M.dim == 0:
        raise ZeroModuleError("the zero module has no irreducibility verdict")
    if not M.mats:
        if M.dim == 1:
            return True, None
        witness = np.zeros((1, M.dim), dtype=np.int64)
        witness[0, 0] = 1
        return False, witness
    if M.dim == 1:
        return True, None
    F = M.field
    rng = np.random.default_rng(seed)
    transposed = [A.T for A in M.mats]
    for _ in range(MAX_NORTON_TRIES):
        theta = algebra_element(M, rng)
        set_aside = []
        for f, fmat, null_basis in _factor_candidates(F, theta):
            if null_basis.shape[0] != len(f) - 1:
                set_aside.append(null_basis[0])
                continue
            sub = _spin_rows(F, M._gens, M.dim, null_basis[0])
            if sub.shape[0] < M.dim:
                return False, sub
            w = kernel(F, fmat.T)[0]
            dual_sub = _spin_rows(F, transposed, M.dim, w)
            if dual_sub.shape[0] < M.dim:
                return False, kernel(F, dual_sub)
            return True, None
        for v in set_aside:
            sub = _spin_rows(F, M._gens, M.dim, v)
            if sub.shape[0] < M.dim:
                return False, sub
    raise MeatAxeError(
        f"no irreducibility verdict within {MAX_NORTON_TRIES} attempts")


# -- composition factors and their identity -------------------------------


@dataclass(eq=False)
class CompositionFactor:
    """A simple factor, identified up to isomorphism by `same_factor`.

    `certificate` is (word, f, x): a recorded algebra element theta, an
    irreducible factor f of its characteristic polynomial whose kernel
    f(theta) has dimension deg f, and the first vector x of that kernel.
    It is searched for with the default seed, without spinning, since the
    module is already known to be simple, and only when a comparison needs
    it: factors of different dimensions never do.
    """

    dim: int
    module: GModule = dc_field(repr=False)

    @functools.cached_property
    def certificate(self) -> tuple:
        M = self.module
        rng = np.random.default_rng(DEFAULT_SEED)
        for _ in range(MAX_NORTON_TRIES):
            word = _random_word(M, rng)
            for f, _, null_basis in _factor_candidates(
                    M.field, _evaluate(M, word)):
                if null_basis.shape[0] == len(f) - 1:
                    return word, f, null_basis[0]
        raise MeatAxeError(
            f"no certificate for a simple factor within {MAX_NORTON_TRIES} "
            "attempts")


def factor_of(M: GModule) -> CompositionFactor:
    return CompositionFactor(dim=M.dim, module=M)


def composition_factors(M: GModule, seed: int = DEFAULT_SEED):
    """Composition factors, bottom layers first along the found series."""
    if M.dim == 0:
        return []
    verdict, witness = is_irreducible(M, seed)
    if verdict:
        return [factor_of(M)]
    sub = submodule_module(M, witness)
    quo = quotient_module(M, witness)
    return composition_factors(sub, seed) + composition_factors(quo, seed)


def composition_series(M: GModule, seed: int = DEFAULT_SEED):
    """Ascending chain of invariant subspaces with simple quotients.

    Returns (bases, factors): bases[i] is the canonical ambient basis of
    the i-th term of the chain, one term per factor, ending with the full
    space; factors[i] identifies bases[i] / bases[i-1].  The factor list
    matches composition_factors on the same seed.
    """
    F = M.field
    if M.dim == 0:
        return [], []
    verdict, witness = is_irreducible(M, seed)
    if verdict:
        return [row_basis(F, F.identity(M.dim))], [factor_of(M)]
    wit, wpiv = rref(F, np.asarray(witness, dtype=np.int64))
    wit = wit[: len(wpiv)]
    sub = submodule_module(M, wit)
    quo = quotient_module(M, wit)
    sub_bases, sub_factors = composition_series(sub, seed)
    quo_bases, quo_factors = composition_series(quo, seed)
    free = [c for c in range(M.dim) if c not in set(wpiv)]
    bases = [row_basis(F, F.mat_mul(rows, wit)) for rows in sub_bases]
    for qrows in quo_bases:
        lifted = np.zeros((qrows.shape[0], M.dim), dtype=np.int64)
        lifted[:, free] = qrows
        bases.append(row_basis(F, np.vstack([wit, lifted])))
    return bases, sub_factors + quo_factors


def same_factor(a: CompositionFactor, b: CompositionFactor) -> bool:
    """Whether two simple factors are isomorphic.

    Dimensions, then equal matrices; different 1-dimensional actions differ.
    Otherwise a's certificate (theta, f, x) is replayed on B, where the
    kernel N = (n_1..n_m) of f(theta) must have m = deg f.  Spinning
    (x, n_1, ..., n_m) in A + B^m gives every (t x, t n_1, ..., t n_m), and
    x -> sum c_i n_i extends to a map, an isomorphism, exactly when
    sum c_i t n_i = 0 on every row with t x = 0.
    """
    if a.dim != b.dim:
        return False
    A, B = a.module, b.module
    F = A.field
    if B.field != F:
        raise MeatAxeError("modules live over different fields")
    if len(A._gens) != len(B._gens):
        raise MeatAxeError("modules have different generator lists")
    if all(np.array_equal(x, y) for x, y in zip(A.mats, B.mats)):
        return True
    if a.dim == 1:
        return False
    word, f, x = a.certificate
    null_b = kernel(F, evaluate_matrix(F, f, _evaluate(B, word)))
    d, m = a.dim, null_b.shape[0]
    if m != len(f) - 1:
        return False
    if (m + 1) * d > MAX_DENSE_DIM:
        raise ModuleCapError(
            f"isomorphism spin of width {(m + 1) * d} exceeds cap "
            f"{MAX_DENSE_DIM}")

    def block(ga, gb):  # A's action on the first block, B's on the others
        return lambda rows: np.hstack([
            _image(F, ga, rows[:, :d]),
            _image(F, gb, rows[:, d:].reshape(-1, d)).reshape(len(rows), -1)])

    seed = np.concatenate([x, null_b.reshape(-1)])
    span = _spin_rows(F, [block(ga, gb) for ga, gb in zip(A._gens, B._gens)],
                      (m + 1) * d, seed)
    killed = span[~span[:, :d].any(axis=1), d:]
    # row r of the system for c is coordinate r % d of one row's t n_i
    system = killed.reshape(-1, m, d).transpose(0, 2, 1).reshape(-1, m)
    found = system[:0]
    step = MAX_DENSE_DIM - m
    for start in range(0, len(system), step):
        found = row_basis(F, np.vstack([found, system[start:start + step]]))
        if len(found) == m:
            return False
    return True


def factor_multiplicities(factors):
    """Group a factor list into (representative, multiplicity) pairs."""
    out = []
    for f in factors:
        for i, (g, _) in enumerate(out):
            if same_factor(g, f):
                out[i] = (g, out[i][1] + 1)
                break
        else:
            out.append((f, 1))
    return out


def multiplicity_of(simple: GModule, factors) -> int:
    target = factor_of(simple)
    return sum(1 for f in factors if same_factor(target, f))


# -- homomorphism spaces -----------------------------------------------------


def hom_space(A: GModule, B: GModule):
    """Basis of the space of module maps A -> B, as dim(B) x dim(A) matrices.

    A map is a matrix X with X @ act_A(g) = act_B(g) @ X for every
    generator.  The first generator's maps are the kernel of its Kronecker
    system; each later generator keeps the combinations of the current
    basis that X -> X A_g - B_g X sends to 0, so no system has more than
    dim(A) * dim(B) rows or columns.
    """
    F = A.field
    if B.field != F:
        raise MeatAxeError("modules live over different fields")
    if len(A.mats) != len(B.mats):
        raise MeatAxeError("modules have different generator lists")
    da, db = A.dim, B.dim
    if da * db > MAX_DENSE_DIM:
        raise ModuleCapError(
            f"hom-space solve of size {da * db} exceeds cap {MAX_DENSE_DIM}")
    if da == 0 or db == 0:
        return []
    pairs = list(zip(A.mats, B.mats))
    if not pairs:
        return [x.reshape(db, da) for x in F.identity(da * db)]
    # row i is the image of matrix unit i under X -> X A_g - B_g X, so the
    # first generator's kernel is the basis itself
    Ag, Bg = pairs[0]
    moved = F.mat_sub(np.kron(F.identity(db), Ag),
                      np.kron(Bg.T, F.identity(da)))
    basis = kernel(F, moved.T)
    for Ag, Bg in pairs[1:]:
        k = basis.shape[0]
        if k == 0:
            break
        X = basis.reshape(k, db, da)
        right = F.mat_mul(X.reshape(k * db, da), Ag).reshape(k, db * da)
        left = F.mat_mul(Bg, X.transpose(1, 0, 2).reshape(db, k * da))
        left = left.reshape(db, k, da).transpose(1, 0, 2).reshape(k, db * da)
        # row i is the image of basis map i; keep the combinations that vanish
        keep = kernel(F, F.mat_sub(right, left).T)
        basis = row_basis(F, F.mat_mul(keep, basis))
    return [x.reshape(db, da) for x in basis]


def is_isomorphic(A: GModule, B: GModule, seed: int = DEFAULT_SEED) -> bool:
    """Whether some module map A -> B is invertible (seeded search)."""
    if A.dim != B.dim:
        return False
    if A.dim == 0:
        return True
    F = A.field
    homs = hom_space(A, B)
    if not homs:
        return False
    for h in homs:
        if rank(F, h) == A.dim:
            return True
    rng = np.random.default_rng(seed)
    for _ in range(MAX_NORTON_TRIES):
        X = np.zeros((B.dim, A.dim), dtype=np.int64)
        for h in homs:
            X = F.mat_add(X, F.scale(int(rng.integers(F.order)), h))
        if rank(F, X) == A.dim:
            return True
    return False


# -- fixed points, socle-side helpers ---------------------------------------


def fixed_points(F: FiniteField, gens, dim: int) -> np.ndarray:
    """Canonical basis of the common eigenvalue-1 space of the generators.

    `gens` are matrices, or anything else `_image` applies.  The first
    generator's fixed space is the kernel of A - I itself: the basis
    starts as the identity, so no product by it is formed.
    """
    basis = None
    for gen in gens:
        if basis is None:
            eye = F.identity(dim)
            rowform = (gen.T if not callable(gen) and gen.ndim == 2
                       else _image(F, gen, eye))
            basis = kernel(F, F.mat_sub(rowform, eye).T)
        else:
            moved = F.mat_sub(_image(F, gen, basis), basis)
            basis = row_basis(F, F.mat_mul(kernel(F, moved.T), basis))
        if basis.shape[0] == 0:
            break
    return F.identity(dim) if basis is None else basis


def simple_submodule(M: GModule, seed: int = DEFAULT_SEED):
    """(ambient basis rows, simple module) for one minimal submodule."""
    verdict, witness = is_irreducible(M, seed)
    if verdict:
        return row_basis(M.field, M.field.identity(M.dim)), M
    sub = submodule_module(M, witness)
    inner_rows, simple = simple_submodule(sub, seed)
    ambient = M.field.mat_mul(inner_rows, witness)
    return row_basis(M.field, ambient), simple


def head_of(M: GModule, seed: int = DEFAULT_SEED) -> GModule:
    """A simple quotient, found as the dual of a simple submodule of the dual.

    Equals the head whenever the head is simple (the only situation the
    callers here rely on).
    """
    D = dual_module(M)
    _, simple = simple_submodule(D, seed)
    return dual_module(simple, label=f"head of {M.label}")
