"""Symmetric-group action on tensor legs and Schur-Weyl isotypic projectors."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .linalg import LeggedOperator

#: largest tensor power l.  Every Schur-Weyl object is built from one
#: Jucys-Murphy recursion, the copy chain, whose bases have n^l rows and
#: weyl(lambda) columns; the solver's witness and the isotypic projectors
#: hook * Sym(W W^T) are dense n^l x n^l, while the solver's Gram rows, the
#: exponential test's blocks and a sequence's blocks and their transition
#: map (`transition_blocks`) are weyl(lambda) wide.  The bound is about
#: those sizes, not about enumerating S_l
MAX_LEVEL = 8


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def hook_dimension(self) -> int:
        """Dimension of the S_l irrep via the hook-length formula."""
        parts = self.parts
        cols = [0] * (parts[0] if parts else 0)
        for p in parts:
            for j in range(p):
                cols[j] += 1
        dim = math.factorial(self.size)
        for i, p in enumerate(parts):
            for j in range(p):
                dim //= (p - j) + (cols[j] - i) - 1
        return dim

    def weyl_dimension(self, n: int) -> int:
        """Dimension of the U(n) irrep with highest weight (parts, 0, ..., 0)."""
        if len(self.parts) > n:
            return 0
        lam = list(self.parts) + [0] * (n - len(self.parts))
        num, den = 1, 1
        for i in range(n):
            for j in range(i + 1, n):
                num *= lam[i] - lam[j] + j - i
                den *= j - i
        return num // den


def partitions_of(l: int, max_parts: int | None = None):
    """All partitions of l in reverse-lexicographic order."""

    def gen(remaining, first, depth):
        if remaining == 0:
            yield ()
            return
        if max_parts is not None and depth >= max_parts:
            return
        for p in range(min(first, remaining), 0, -1):
            for rest in gen(remaining - p, p, depth + 1):
                yield (p,) + rest

    for parts in gen(l, l, 0):
        yield Partition(parts)


@dataclass(frozen=True)
class LegPermutation:
    """A permutation of {0, ..., l-1} acting on equal-dimension tensor legs."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        object.__setattr__(self, "images", images)

    def __len__(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(l: int) -> "LegPermutation":
        return LegPermutation(range(l))

    def __mul__(self, other: "LegPermutation") -> "LegPermutation":
        """Product such that (sigma * tau) . x == sigma . (tau . x)."""
        if len(self) != len(other):
            raise ValueError("permutation size mismatch")
        return LegPermutation(tuple(other.images[self.images[p]] for p in range(len(self))))


def permute_legs(x: LeggedOperator, sigma: LegPermutation) -> LeggedOperator:
    """Act with sigma on the trailing len(sigma) legs of x.

    Position p of the result carries the factor at position sigma(p), so the
    action matches sigma.(x_1 (x) ... (x) x_l) = x_sigma(1) (x) ... (x) x_sigma(l)
    on the permuted legs; leading legs are fixed.
    """
    l = len(sigma)
    if l > x.nlegs:
        raise ValueError(f"permutation of length {l} exceeds leg count {x.nlegs}")
    fixed = x.nlegs - l
    dims = set(x.legs[fixed:])
    if len(dims) > 1:
        raise ValueError(f"permuted legs must share one dimension, got {x.legs[fixed:]}")
    k = x.nlegs
    row = list(range(fixed)) + [fixed + sigma.images[p] for p in range(l)]
    axes = row + [k + a for a in row]
    ten = np.transpose(x.as_tensor(), axes)
    return LeggedOperator(ten.reshape(x.side, x.side), x.legs)


class Symmetrizer:
    """Group average over permutations of chosen legs, by coset factorization.

    The sum over S_{k+1} factors as (1 + sum_{j<k} (j k)) . (sum over S_k),
    where S_k permutes legs 0..k-1 and the inner sum is the Jucys-Murphy
    element of leg k.  So the average is built one leg at a time: once the
    first k legs are averaged, adding leg k costs k leg swaps.  That is
    l(l-1)/2 transposes in all, instead of the l! terms of the plain
    average, and nothing is enumerated.
    """

    def __init__(self, legs: Sequence[int], leg_indices: Sequence[int]):
        legs = tuple(int(d) for d in legs)
        idx = sorted(set(int(i) for i in leg_indices))
        for i in idx:
            if not 0 <= i < len(legs):
                raise ValueError(f"leg index {i} out of range for legs {legs}")
        if len(set(legs[i] for i in idx)) > 1:
            raise ValueError("symmetrized legs must share one dimension")
        self.legs = legs
        self.indices = idx
        nlegs = len(legs)
        self.side = math.prod(legs)
        # _steps[k-1] holds the axes of the swaps (idx[j] idx[k]) for j < k,
        # acting on row and column axes alike
        self._steps = []
        for k in range(1, len(idx)):
            step = []
            for j in range(k):
                row = list(range(nlegs))
                row[idx[j]], row[idx[k]] = idx[k], idx[j]
                step.append(tuple(row) + tuple(nlegs + a for a in row))
            self._steps.append(step)
        self._shape = legs + legs

    def apply_matrix(self, entries: np.ndarray) -> np.ndarray:
        if not self._steps:
            return entries.copy()
        ten = entries.reshape(self._shape)
        for k, step in enumerate(self._steps, start=1):
            acc = ten + np.transpose(ten, step[0])
            for axes in step[1:]:
                acc += np.transpose(ten, axes)
            ten = acc / (k + 1)
        return ten.reshape(self.side, self.side)

    def apply(self, x: LeggedOperator) -> LeggedOperator:
        if x.legs != self.legs:
            raise ValueError(f"leg mismatch: {x.legs} vs {self.legs}")
        return LeggedOperator(self.apply_matrix(x.entries), x.legs)


# -- Schur-Weyl isotypic projectors ----------------------------------------


def _perm_index_map(n: int, l: int, perm: tuple[int, ...]) -> np.ndarray:
    """Flat index map of the unitary permuting the l tensor factors of C^n."""
    return np.arange(n**l).reshape((n,) * l).transpose(perm).reshape(-1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b over the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, p, r, q, s = out.shape
    return out.reshape(*lead, p * r, q * s)


def _jm_eigenspace(
    prev: np.ndarray, n: int, l: int, content: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real basis of the vectors of range(prev (x) I_n) on which
    the Jucys-Murphy element X_l = sum_{j<l} (j l) takes the value `content`,
    as (basis, coefficients), basis = (prev (x) I_n) @ coefficients.

    `prev` is a copy basis: orthonormal real columns in (C^n)^{(x)(l-1)}
    whose range is a joint eigenspace of X_1..X_{l-1}.  X_l commutes with
    those, so it maps range(prev (x) I_n) to itself.  Its eigenvalues there
    are contents of boxes, so they are integers and the wanted eigenspace is
    the kernel of cols^T X_l cols - content, read off an SVD with a gap of
    at least 1.
    """
    cols = _kron(prev, np.eye(n))  # prev (x) I_n
    # a transposition is an involution, so it acts by a row gather
    jm = np.zeros_like(cols)
    for j in range(l - 1):
        perm = list(range(l))
        perm[j], perm[l - 1] = l - 1, j
        jm += cols[_perm_index_map(n, l, tuple(perm))]
    _, sv, vt = np.linalg.svd(cols.T @ jm - content * np.eye(cols.shape[1]))
    coeffs = vt[sv < 0.5].T
    return cols @ coeffs, coeffs


@dataclass(frozen=True)
class _ChainStep:
    """One copy basis and how it branches from its parent:
    basis = (copy basis of `parent` (x) I_n) @ branching."""

    parent: tuple[int, ...]
    basis: np.ndarray
    branching: np.ndarray


@functools.lru_cache(maxsize=None)
def _copy_chain(n: int, parts: tuple[int, ...]) -> _ChainStep:
    """The copy basis of `parts` with its branching coefficients, built once
    per process; its arrays are read-only, as every caller shares them.

    Branching along one chain of corners, always removing the last row's
    box mu = lambda - box: range(W_mu (x) I_n) is the joint eigenspace of the
    Jucys-Murphy elements X_1..X_{l-1} for the contents of T_mu, X_l
    commutes with those, and its eigenspace for the content of the removed
    box is V_lambda (x) |T>, with weyl(lambda) vectors.
    """
    l = sum(parts)
    if l <= 1:
        step = _ChainStep((), np.eye(n**l), np.eye(n**l))
    else:
        # the last row's box: row i, column p - 1, content p - 1 - i
        i, p = len(parts) - 1, parts[-1]
        mu = parts[:-1] + ((p - 1,) if p > 1 else ())
        basis, branching = _jm_eigenspace(_copy_chain(n, mu).basis, n, l, p - 1 - i)
        step = _ChainStep(mu, basis, branching)
    step.basis.setflags(write=False)
    step.branching.setflags(write=False)
    return step


#: the group-algebra element g of `_alignment`: a seeded combination of the
#: adjacent transpositions and the l-cycle, fixed so every run aligns alike
_ALIGNMENT_SEED = 0


def _alignment(n: int, nu: tuple[int, ...], lam: tuple[int, ...]) -> np.ndarray:
    """A_{nu lam}, of side weyl(nu) n x weyl(lam), with
    (W_nu (x) I_n)^T x (W_nu (x) I_n) = sum over lam = nu + box of
    A_{nu lam} B_lam A_{nu lam}^T for an S_l-invariant x with blocks
    B_lam = W_lam^T x W_lam.  Built once per process, in `_transition_plan`.

    The vectors of range(W_nu (x) I_n) in the lam-isotypic subspace are
    E = (W_nu (x) I_n) C, C from `_jm_eigenspace`: a copy of V_lam, though not
    the copy W_lam when nu is not lam's parent on the chain.  A permutation of
    the legs acts on the multiplicity space alone, so by Schur's lemma
    M = E^T g W_lam is s R with R orthogonal, for every g in the group
    algebra; then E^T x E = R B_lam R^T and A = C R.  g is generic so that
    s != 0, and an R that is not orthogonal raises LinAlgError.
    """
    l = sum(lam)
    step = _copy_chain(n, lam)
    if step.parent == nu:
        return step.branching  # E = W_lam, R = I
    row = next(i for i in range(len(lam)) if i >= len(nu) or lam[i] != nu[i])
    basis, coeffs = _jm_eigenspace(_copy_chain(n, nu).basis, n, l, lam[row] - 1 - row)
    perms = [tuple(range(j)) + (j + 1, j) + tuple(range(j + 2, l)) for j in range(l - 1)]
    perms.append(tuple(range(1, l)) + (0,))
    weights = np.random.default_rng(_ALIGNMENT_SEED).normal(size=len(perms))
    g_w = sum(c * step.basis[_perm_index_map(n, l, p)] for c, p in zip(weights, perms))
    m = basis.T @ g_w
    r = m / np.sqrt(np.trace(m.T @ m) / m.shape[0])
    if np.abs(r.T @ r - np.eye(r.shape[0])).max() > 1e-10:
        raise np.linalg.LinAlgError(f"alignment of {lam} from {nu} on n={n} is not orthogonal")
    return coeffs @ r


@functools.lru_cache(maxsize=None)
def _transition_plan(n: int, l: int) -> tuple:
    """Per partition nu of l - 1 with at most n rows, in `partitions_of`
    order: (weyl(nu), ((k, A_{nu lam}), ...)) over the children
    lam = nu + box with at most n rows, k the position of lam among the
    partitions of l.  Built once per process, its arrays read-only."""
    parts = [lam.parts for lam in partitions_of(l, max_parts=n)]
    plan = []
    for nu in partitions_of(l - 1, max_parts=n):
        children = []
        for k, lam in enumerate(parts):
            # |lam| = |nu| + 1, so lam = nu + box when it contains nu
            if len(lam) >= len(nu) and all(a >= b for a, b in zip(lam, nu.parts)):
                a = _alignment(n, nu.parts, lam)
                a.setflags(write=False)
                children.append((k, a))
        plan.append((nu.weyl_dimension(n), tuple(children)))
    return tuple(plan)


def copy_basis(n: int, lam: Partition) -> np.ndarray:
    """Real isometry W_lambda with n^l rows and weyl(lambda) columns onto one
    copy V_lambda (x) |T> of the U(n) irrep of lambda, T the standard
    tableau grown along the chain of `_copy_chain`.  The array is the
    process-wide cached one and is read-only.

    Raises ValueError when lambda has more than n rows (no copy exists) or
    |lambda| exceeds `MAX_LEVEL`.
    """
    if lam.size > MAX_LEVEL:
        raise ValueError(f"l={lam.size} exceeds the level bound {MAX_LEVEL}")
    if len(lam) > n:
        raise ValueError(f"partition {lam.parts} has more than n={n} rows")
    return _copy_chain(n, lam.parts).basis


def copy_bases(n: int, l: int) -> list[tuple[Partition, np.ndarray]]:
    """`copy_basis` for every partition lambda of l with at most n rows.

    The bases come from one process-wide cache, so sub-chains are shared
    between partitions and calls, and every array is read-only.  An
    S_l-invariant operator b on the n-legs is determined by its compressions
    W^T b W: in Schur-Weyl coordinates b is sum_lambda W^T b W (x) I_hook.
    """
    return [(lam, copy_basis(n, lam)) for lam in partitions_of(l, max_parts=n)]


def schur_weyl_block(x: np.ndarray, m: int, n: int, lam: Partition) -> np.ndarray:
    """B_lambda = F^T x F, F = I_m (x) W_lambda, of side m * weyl(lambda): the
    block of an S_l-invariant x on legs [m, n, ..., n], whose
    lambda-isotypic part is B_lambda (x) I_hook in Schur-Weyl coordinates.
    Reads one copy and does not check the invariance.  Raises ValueError as
    `copy_basis` does.
    """
    f = np.kron(np.eye(m), copy_basis(n, lam))
    return f.T @ x @ f


def from_schur_weyl_blocks(blocks: Sequence[np.ndarray], m: int, n: int, l: int) -> np.ndarray:
    """The S_l-invariant x on legs [m, n, ..., n] with blocks B_lambda
    (`schur_weyl_block`), one per partition in `copy_bases(n, l)` order:
    x = Sym(sum hook(lambda) F B_lambda F^T), F = I_m (x) W_lambda, since
    hook * Sym(F B F^T) is B (x) I_hook.  At l <= 1, W = I and x is the one
    block.
    """
    bases = copy_bases(n, l)
    if len(blocks) != len(bases):
        raise ValueError(f"level {l} on n={n} has {len(bases)} blocks, got {len(blocks)}")
    if l <= 1:
        return np.array(blocks[0])
    total = 0
    for (lam, w), block in zip(bases, blocks):
        f = np.kron(np.eye(m), w)
        total = total + lam.hook_dimension() * (f @ block @ f.T)
    return Symmetrizer((m,) + (n,) * l, range(1, l + 1)).apply_matrix(total)


def transition_blocks(
    blocks: Sequence[np.ndarray], m: int, n: int, l: int, density: np.ndarray
) -> list[np.ndarray]:
    """The blocks of P x at level l - 1 from the blocks B_lam of an
    S_l-invariant x at level l (both as in `schur_weyl_block`, in
    `copy_bases` order), P contracting the last leg with rho(y) = trace(D y):
    block_nu(P x) = tr_last[(sum over lam = nu + box of F B_lam F^T)(I (x) D)],
    F = I_m (x) A_{nu lam} (`_alignment`).  The A come from the cached
    `_transition_plan`; past that, no n^l rows are read.
    """
    if not 1 <= l <= MAX_LEVEL:
        raise ValueError(f"transition_blocks needs 1 <= l <= {MAX_LEVEL}, got l={l}")
    plan = _transition_plan(n, l)
    count = sum(1 for _ in partitions_of(l, max_parts=n))
    if len(blocks) != count:
        raise ValueError(f"level {l} on n={n} has {count} blocks, got {len(blocks)}")
    out = []
    for w, children in plan:
        acc = 0  # F B F^T over the children lam, as (m, m, weyl(nu) n, weyl(nu) n)
        for k, a in children:
            d = a.shape[1]
            acc = acc + a @ blocks[k].reshape(m, d, m, d).transpose(0, 2, 1, 3) @ a.T
        # tr_last[Y (I (x) D)]: row index r of the last leg pairs with D[c, r]
        y = np.einsum("ijprqc,cr->ipjq", acc.reshape(m, m, w, n, w, n), density)
        out.append(y.reshape(m * w, m * w))
    return out


def chain_blocks(n: int, l: int, seed: np.ndarray, grow: Callable) -> Iterator:
    """(lam, C^T grow(x_mu) C) for each partition lam of 1, ..., l with at most
    n rows, level by level in `partitions_of` order: the one place where
    Schur-Weyl blocks grow.  mu is lam's parent on the copy chain, x_mu its
    block (`seed` for mu = ()), C its branching W_lam = (W_mu (x) I_n) C
    (`_copy_chain`).  If grow(x_mu) = (W_mu (x) I_n)^T A (W_mu (x) I_n), the
    block is W_lam^T A W_lam, and no n^l rows are formed: grow(x) = x (x) t
    from [[1]] gives pi_lam(t) = W^T t^{(x)l} W.  Only the previous level is
    kept; blocks are read-only, as their children grow from them.
    """
    if n < 1:
        raise ValueError(f"chain_blocks needs n >= 1, got n={n}")
    level = {(): seed}
    for k in range(1, l + 1):
        prev, level = level, {}
        for lam in partitions_of(k, max_parts=n):
            step = _copy_chain(n, lam.parts)
            block = level[lam.parts] = step.branching.T @ grow(prev[step.parent]) @ step.branching
            block.setflags(write=False)
            yield lam, block


def isotypic_projector(n: int, l: int, lam: Partition) -> LeggedOperator:
    """Orthogonal projector hook(lambda) * Sym(W W^T) onto the
    lambda-isotypic subspace of (C^n)^{(x)l}, W the copy basis of lambda
    (`copy_basis`): twirling one copy over S_l gives the whole block, and
    `Symmetrizer` never sums over S_l.  Returns the zero operator when
    lambda has more than n parts (its Schur-Weyl multiplicity vanishes).
    """
    if l > MAX_LEVEL:
        raise ValueError(f"l={l} exceeds the level bound {MAX_LEVEL}")
    if lam.size != l:
        raise ValueError(f"partition size {lam.size} does not match l={l}")
    legs = (n,) * l
    if len(lam) > n:
        return LeggedOperator(np.zeros((n**l, n**l)), legs)
    w = copy_basis(n, lam)
    twirl = Symmetrizer(legs, range(l)).apply_matrix(w @ w.T)
    return LeggedOperator(lam.hook_dimension() * twirl, legs)


def schur_weyl_table(n: int, l: int) -> list[tuple[Partition, int, int]]:
    """(partition, U(n) block dimension, multiplicity) for each nonzero block.

    Closed forms: the block dimension is the Weyl dimension and the
    multiplicity the hook-length dimension; every partition with at most n
    parts has a nonzero block.  Raises ValueError unless n >= 1 and
    0 <= l <= `MAX_LEVEL`.
    """
    if n < 1 or l < 0:
        raise ValueError(f"schur_weyl_table needs n >= 1 and l >= 0, got n={n}, l={l}")
    if l > MAX_LEVEL:
        raise ValueError(f"l={l} exceeds the level bound {MAX_LEVEL}")
    return [
        (lam, lam.weyl_dimension(n), lam.hook_dimension())
        for lam in partitions_of(l, max_parts=n)
    ]
