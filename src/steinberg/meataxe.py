"""Exact mini-MeatAxe over finite fields.

Works on matrix modules: a module is a list of invertible action matrices
over GF(p^k), one per generator of whatever algebra or group is acting.
Provides spinning (smallest invariant subspace containing given vectors),
a seeded Norton-style irreducibility test with explicit witnesses,
recursive composition factors with an isomorphism test between them, sub-
and quotient modules, homomorphism spaces and fixed points.

The Norton test (Parker 1984; Holt & Rees 1994) tries only the actual
irreducible factors of the characteristic polynomial of each sampled
algebra element, lowest degree first, as `polynomials.irreducible_factors`
yields them, and evaluates each with `polynomials.evaluate_matrix`; this
module does no polynomial arithmetic of its own.  A sample theta is a
seeded random word: six to eight nonzero multiples of products of two to
five generators.  Such dense elements almost always have a factor f with
dim ker f(theta) = deg f (Holt & Rees 1994; Ivanyos & Lux 2000), so one
sample settles nearly every test, where short sums of short products
missed often enough to cost a second charpoly, its kernels and spins.
A factor whose kernel has dimension deg f certifies: one spin of its
kernel vector, and one of the transpose's, settle the verdict either way.
A factor of multiplicity one always certifies, so every sample with such
a factor gets a verdict.  The other factors' kernel vectors are spun only
when a sample has no certifying factor; such a spin can only find a
witness, as it does for a direct sum of two copies of one simple module
or a scalar action.
Sampled elements are recorded words, so a simple factor's certificate (a
word theta and a factor f with kernel of dimension deg f) replays on
another factor; one spin in A + B^m and a small solve decide isomorphism.
The Norton test records the certificate on the module it proves simple,
so no second search runs however many comparisons replay it.

A witness read off a dual spin is the radical, and its quotient is the
head.  Let f certify theta, let the kernel vector v of f(theta) spin to
all of M, and let a kernel vector w of f(theta)^T spin under the
transposes to a proper D, whose annihilator W is the witness.  A
submodule U that meets the kernel of f(theta) contains v, which spans
that kernel over F[theta]/(f), so U = M.  On any other U, f(theta) is
invertible, so the whole kernel of f(theta)^T annihilates U; then w does,
D does, and U lies in W.  So W is the unique maximal submodule and M/W is
simple (Holt & Rees 1994): the composition series takes it as a factor
with no Norton test of its own, and its certificate is searched only if
it is read.  A witness from the first spin proves nothing about its
quotient.  W is read off D's canonical basis, with no elimination of D.

Samples pass down the composition series.  A split hands each sample
(word, theta, cp) of the module to both pieces: theta restricted to the
witness and projected to the quotient are the word evaluated there, and
the pieces' characteristic polynomials multiply to cp, so only the smaller
piece gets a `charpoly`.  The pieces draw the same words from the same
seed, so their tests evaluate no word the parent already did.

Spinning is incremental (Parker's MeatAxe): each round multiplies only the
vectors added in the previous round and echelonizes their images against
the current basis, so no elimination sees more rows than the module has
dimensions.  A permutation module keeps its generator permutations and
builds no matrix for them unless a caller reads `mats`: spinning,
restriction to a submodule and fixed points apply a permutation as a
column gather, and `fixed_points` also takes any row map.  No module of
the package calls `fixed_points`: `hecke.sign_eigenspace` takes one kernel
of panel incidence matrices instead.  It stays a library function.  Hom
spaces and fixed points cut their solution space down one generator at a
time (Holt & Rees 1994), so no system is wider than the space of
candidate maps or taller than the module.

Vectors are rows; a matrix A acts on the column vector v as A @ v, so the
row form of the action is v -> v @ A.T.  All subspaces are returned as
canonical reduced-row-echelon bases, which makes equality of subspaces a
plain array comparison.  `gf` reads, reduces and intersects them.
`submodule_module` and `quotient_module` are the one constructor of each
piece: a canonical basis (a witness, a spin) is taken as given, and any
other spanning set is eliminated once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .caps import MAX_DENSE_DIM, MAX_NORTON_TRIES
from .gf import (
    FiniteField,
    _annihilator,
    _canonical,
    _free_columns,
    _pivots,
    charpoly,
    kernel,
    rank,
    reduce_mod_rowspace,
    row_basis,
    rref,
)
from .polynomials import divmod_poly, evaluate_matrix, irreducible_factors

__all__ = [
    "MeatAxeError",
    "ZeroModuleError",
    "ModuleCapError",
    "GModule",
    "spin",
    "submodule_module",
    "quotient_module",
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
    the basis; derived modules (sub, quotient) carry neither.
    `certificate` is None until `is_irreducible` proves the module simple
    through a certifying factor, and stays None on a quotient that a
    radical witness proved simple; see `CompositionFactor`.
    `witness_is_radical` is True when the last `is_irreducible` on the
    module returned a witness read off a dual spin: the unique maximal
    submodule, so the quotient by it is simple.
    """

    def __init__(self, field: FiniteField, mats=None, dim=None, label="",
                 perm_of=None, check=True, perms=None):
        self.field = field
        self.label = label
        self.perm_of = perm_of
        self.certificate = None
        self.witness_is_radical = False
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
            residue, _ = reduce_mod_rowspace(
                F, basis, pivots, _image(F, gen, frontier))
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
    residue, coords = reduce_mod_rowspace(F, basis, pivots,
                                          _image(F, gen, basis))
    if residue.any():
        raise MeatAxeError("subspace is not invariant under the action")
    return coords.T


def submodule_module(M: GModule, basis, label="") -> GModule:
    """Module structure on an invariant subspace, in the coordinates of its
    canonical basis.  `basis` spans the subspace; canonical rows are taken
    as given, any others are eliminated once."""
    F = M.field
    basis, pivots = _canonical(F, basis)
    mats = [_restrict(F, basis, pivots, gen) for gen in M._gens]
    return GModule(F, mats, dim=len(pivots),
                   label=label or f"sub({len(pivots)}) of {M.label}",
                   check=False)


def _project(F: FiniteField, basis, pivots, free, A) -> np.ndarray:
    """Matrix of A on the quotient by the invariant row space spanned by
    the RREF basis, in the coordinates of its free columns."""
    # the images of the free basis vectors, as rows, reduced mod basis
    residue, _ = reduce_mod_rowspace(F, basis, pivots, A[:, free].T)
    return residue[:, free].T


def quotient_module(M: GModule, basis, label="") -> GModule:
    """Module structure on the quotient by an invariant subspace, in the
    coordinates of the free columns of its canonical basis.  `basis` spans
    the subspace; canonical rows are taken as given, any others are
    eliminated once."""
    F = M.field
    basis, pivots = _canonical(F, basis)
    free = _free_columns(M.dim, pivots)
    mats = [_project(F, basis, pivots, free, A) for A in M.mats]
    return GModule(F, mats, dim=len(free),
                   label=label or f"quo({len(free)}) of {M.label}",
                   check=False)


# -- seeded algebra sampling -------------------------------------------------


def _random_word(M: GModule, rng) -> tuple:
    """A random algebra element, recorded as a word: a tuple of six to eight
    (coefficient, generator indices) terms, each a nonzero coefficient times
    a product of two to five generators.

    Dense words are what make one draw enough.  On the 23 modules of
    dimension at least 2 that `verify` tests on the acceptance matrix and
    the ladder, 20 seeds each, the first word had a characteristic-
    polynomial factor f with dim ker f(theta) = deg f 99% of the time;
    words of two to four terms of one to three generators had one 85% of
    the time.
    """
    gens = len(M._gens)
    word = []
    for _ in range(int(rng.integers(6, 9))):
        letters = tuple(int(rng.integers(gens))
                        for _ in range(int(rng.integers(2, 6))) if gens)
        word.append((1 + int(rng.integers(M.field.order - 1)), letters))
    return tuple(word)


def algebra_element(M: GModule, word) -> np.ndarray:
    """The matrix of a recorded word on M: sum of c * A_i1 @ A_i2 @ ..."""
    F = M.field
    A = np.zeros((M.dim, M.dim), dtype=np.int64)
    for c, letters in word:
        term = M.mats[letters[0]] if letters else F.identity(M.dim)
        for i in letters[1:]:
            term = F.mat_mul(term, M.mats[i])
        A = F.mat_add(A, F.scale(c, term))
    return A


def _factor_candidates(F: FiniteField, theta: np.ndarray, cp: np.ndarray):
    """Yield (f, f(theta), canonical kernel basis of f(theta)) for the
    distinct irreducible factors f of cp, the characteristic polynomial of
    theta, lowest degree first."""
    for f in irreducible_factors(F, cp):
        fmat = evaluate_matrix(F, f, theta)
        yield f, fmat, kernel(F, fmat)


def is_irreducible(M: GModule, seed: int = DEFAULT_SEED, samples=None):
    """Seeded Norton test.

    Returns (True, None) or (False, witness) where witness is the canonical
    basis of a proper nonzero invariant subspace.  Only the actual
    irreducible factors f of the characteristic polynomial of a sampled
    algebra element theta are tried, lowest degree first.  A factor whose
    kernel dimension equals deg f (always so for a factor of multiplicity
    one) settles the verdict: a kernel vector of f(theta) that spins to a
    proper subspace is a witness, and otherwise the module is simple once a
    kernel vector of the transpose spins to the whole space as well, and
    then (word, f, kernel vector) is recorded as `M.certificate`.  When
    the transpose's spin is proper instead, its annihilator is the
    witness: the unique maximal submodule, so the quotient by it is simple,
    and `M.witness_is_radical` is set.  Each test clears that flag first.
    The first kernel vectors of the other factors are spun, in the same
    order, only when theta has no such factor; one that spins to a proper
    subspace is a witness.

    `samples`, if given, is a list of Norton samples (word, theta, cp) on
    M in draw order, as `_split` hands them down.  Try i uses sample i when
    it drew the same word, and evaluates the word otherwise.  The list is
    emptied; after a reducible verdict it holds the samples drawn on M.
    """
    known = list(samples or ())
    if samples is not None:
        samples.clear()
    M.witness_is_radical = False
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
    drawn = []
    for i in range(MAX_NORTON_TRIES):
        word = _random_word(M, rng)
        if i < len(known) and known[i][0] == word:
            _, theta, cp = known[i]
        else:
            theta = algebra_element(M, word)
            cp = charpoly(F, theta)
        drawn.append((word, theta, cp))
        verdict = _norton_verdict(M, transposed, word, theta, cp)
        if verdict is None:
            continue
        if not verdict[0] and samples is not None:
            samples.extend(drawn)
        return verdict
    raise MeatAxeError(
        f"no irreducibility verdict within {MAX_NORTON_TRIES} attempts")


def _norton_verdict(M: GModule, transposed, word, theta, cp):
    """The verdict of `is_irreducible` from one sample theta = word on M
    with characteristic polynomial cp, or None when it settles nothing."""
    F = M.field
    set_aside = []
    for f, fmat, null_basis in _factor_candidates(F, theta, cp):
        if null_basis.shape[0] != len(f) - 1:
            set_aside.append(null_basis[0])
            continue
        sub = _spin_rows(F, M._gens, M.dim, null_basis[0])
        if sub.shape[0] < M.dim:
            return False, sub
        w = kernel(F, fmat.T)[0]
        dual_sub = _spin_rows(F, transposed, M.dim, w)
        if dual_sub.shape[0] < M.dim:
            M.witness_is_radical = True
            return False, _annihilator(F, dual_sub)
        M.certificate = (word, f, null_basis[0])
        return True, None
    for v in set_aside:
        sub = _spin_rows(F, M._gens, M.dim, v)
        if sub.shape[0] < M.dim:
            return False, sub
    return None


# -- composition factors and their identity -------------------------------


@dataclass(eq=False)
class CompositionFactor:
    """A simple factor, identified up to isomorphism by `same_factor`.

    `certificate` is (word, f, x): a recorded algebra element theta, an
    irreducible factor f of its characteristic polynomial whose kernel
    f(theta) has dimension deg f, and the first vector x of that kernel.
    `is_irreducible` records it on the module when it proves the module
    simple.  A quotient that a radical witness proves simple has had no
    test and records none.  Such a module, or one that nothing has tested
    yet, is tested when its certificate is first read, at `seed`, the seed
    of the series that found the factor, so the certificate is the one a
    test in that series would have recorded.  A reducible or 1-dimensional
    module has none.  Factors of different dimensions never read it.
    """

    dim: int
    module: GModule = dc_field(repr=False)
    seed: int = DEFAULT_SEED

    @property
    def certificate(self) -> tuple:
        M = self.module
        if M.certificate is None and not is_irreducible(M, self.seed)[0]:
            raise MeatAxeError(f"{M!r} is reducible, so it has no certificate")
        if M.certificate is None:  # dimension 1: simple without a sample
            raise MeatAxeError(f"{M!r} has dimension 1 and no certificate")
        return M.certificate


def factor_of(M: GModule, seed: int = DEFAULT_SEED) -> CompositionFactor:
    return CompositionFactor(dim=M.dim, module=M, seed=seed)


def _split(M: GModule, basis, samples):
    """Split M along the invariant subspace spanned by `basis`, the
    canonical witness `is_irreducible` returns.

    Returns that basis, its free columns, and the
    (submodule, samples) and (quotient, samples) pairs.  `samples`
    holds the Norton samples (word, theta, cp) drawn on M; it is emptied,
    and each is handed down as theta restricted to the subspace and
    projected to the quotient.  A word commutes with both maps, so these
    are the word evaluated on each piece.  Only the smaller piece gets a
    `charpoly`: the other's is the exact quotient, since cp is the product
    of the two.
    """
    F = M.field
    pivots = _pivots(basis)
    free = _free_columns(M.dim, pivots)
    pieces = (submodule_module(M, basis), quotient_module(M, basis))
    small = 0 if pieces[0].dim <= pieces[1].dim else 1
    handed = ([], [])
    while samples:
        word, theta, cp = samples.pop(0)
        thetas = (_restrict(F, basis, pivots, theta),
                  _project(F, basis, pivots, free, theta))
        # M's theta, the largest array alive here, goes before the charpoly
        # (holding it took GL_3(11) ell=2 peak RSS from 367 to 378 MB)
        del theta
        cps = [None, None]
        cps[small] = charpoly(F, thetas[small])
        cps[1 - small], rest = divmod_poly(F, cp, cps[small])
        if rest.size:
            raise MeatAxeError("the characteristic polynomial of a piece "
                               "does not divide that of the module")
        for out, piece_theta, piece_cp in zip(handed, thetas, cps):
            out.append((word, piece_theta, piece_cp))
    return basis, free, (pieces[0], handed[0]), (pieces[1], handed[1])


def composition_factors(M: GModule, seed: int = DEFAULT_SEED):
    """Composition factors, bottom layers first along the found series,
    so the last one is a simple quotient of M."""
    return _factors(M, seed, [])


def _factors(M: GModule, seed: int, samples) -> list:
    if M.dim == 0:
        return []
    verdict, witness = is_irreducible(M, seed, samples)
    if verdict:
        return [factor_of(M, seed)]
    _, _, (sub, sub_samples), (quo, quo_samples) = _split(
        M, witness, samples)
    sub_factors = _factors(sub, seed, sub_samples)
    if M.witness_is_radical:
        return sub_factors + [factor_of(quo, seed)]
    return sub_factors + _factors(quo, seed, quo_samples)


def composition_series(M: GModule, seed: int = DEFAULT_SEED):
    """Ascending chain of invariant subspaces with simple quotients.

    Returns (bases, factors): bases[i] is the canonical ambient basis of
    the i-th term of the chain, one term per factor, ending with the full
    space; factors[i] identifies bases[i] / bases[i-1].  The factor list
    matches composition_factors on the same seed.
    """
    return _series(M, seed, [])


def _series(M: GModule, seed: int, samples) -> tuple:
    F = M.field
    if M.dim == 0:
        return [], []
    verdict, witness = is_irreducible(M, seed, samples)
    if verdict:
        return [row_basis(F, F.identity(M.dim))], [factor_of(M, seed)]
    wit, free, (sub, sub_samples), (quo, quo_samples) = _split(
        M, witness, samples)
    sub_bases, sub_factors = _series(sub, seed, sub_samples)
    if M.witness_is_radical:
        quo_bases = [row_basis(F, F.identity(quo.dim))]
        quo_factors = [factor_of(quo, seed)]
    else:
        quo_bases, quo_factors = _series(quo, seed, quo_samples)
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
    null_b = kernel(F, evaluate_matrix(F, f, algebra_element(B, word)))
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


# -- fixed points ------------------------------------------------------------


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
