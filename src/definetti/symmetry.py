"""Symmetric-group action on tensor legs, the Schur-Weyl copy chain, P in blocks."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .linalg import LeggedOperator

#: largest tensor power l.  Every Schur-Weyl object is built from one
#: Jucys-Murphy recursion, the copy chain, which keeps per partition lambda
#: its branching and the U(n) generators on its copy, weyl(lambda) wide, and
#: forms no n^l rows; so are the solver's Gram rows and its witness check,
#: the exponential test's blocks, a sequence's blocks and the alignment
#: plans of `transition_blocks`.  The bound is on what does form n^l rows:
#: the dense exports (`copy_basis`, the isotypic projectors, the solver's
#: witness and a sequence's entries, n^l x n^l).  It is about those sizes,
#: not about enumerating S_l
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
        # a row i past the last part has lam[i] = lam[j] = 0: a factor 1
        for i in range(len(self.parts)):
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


@functools.lru_cache(maxsize=None)
def level_layout(n: int, l: int) -> tuple[tuple[Partition, int, int], ...]:
    """(lambda, weyl(lambda), hook(lambda)) per partition lambda of l with at
    most n rows, in `partitions_of` order: the one block order of a level."""
    parts = partitions_of(l, max_parts=n)
    return tuple((lam, lam.weyl_dimension(n), lam.hook_dimension()) for lam in parts)


def check_level(value: int, name: str, lowest: int) -> None:
    """Raise ValueError unless lowest <= value <= `MAX_LEVEL`, the level bound."""
    if not lowest <= value <= MAX_LEVEL:
        raise ValueError(f"{name}={value} is outside the level bound {lowest} <= {name} <= {MAX_LEVEL}")


def check_rows(lam: Partition, n: int) -> None:
    """Raise ValueError when lam has more than n rows: it has no U(n) copy."""
    if len(lam) > n:
        raise ValueError(f"partition {lam.parts} has more than n={n} rows")


def check_blocks(blocks: Sequence[np.ndarray], m: int, n: int, l: int) -> None:
    """Raise ValueError unless `blocks` has one block per entry of
    `level_layout(n, l)`, of side m weyl: the blocks of an operator on legs
    [m, n, ..., n]."""
    layout = level_layout(n, l)
    if len(blocks) != len(layout):
        raise ValueError(f"level {l} on n={n} has {len(layout)} blocks, got {len(blocks)}")
    for (lam, weyl, _), b in zip(layout, blocks):
        if np.shape(b) != (m * weyl,) * 2:
            raise ValueError(
                f"block {list(lam.parts)} of level {l} has shape {np.shape(b)}, "
                f"expected {(m * weyl,) * 2}"
            )


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b over the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, p, r, q, s = out.shape
    return out.reshape(*lead, p * r, q * s)


@dataclass(frozen=True)
class _ChainStep:
    """How one copy basis branches from its parent's,
    W_lam = (W_parent (x) I_n) @ branching, and the U(n) generators on it,
    gens[a n + b] = W_lam^T E_ab W_lam with E_ab = sum over the legs of e_ab."""

    parent: tuple[int, ...]
    branching: np.ndarray
    gens: np.ndarray


def _branch(n: int, mu: tuple[int, ...], content: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, gens) of the copy of lambda = mu + box in range(W_mu (x) I_n), the
    box of content `content`: C is weyl(mu) n x weyl(lambda), gens the U(n)
    generators on (W_mu (x) I_n) C.  No n^l rows are formed.

    range(W_mu (x) I_n) is the joint eigenspace of the Jucys-Murphy elements
    X_1..X_{l-1} for the contents of T_mu, X_l commutes with those, and its
    eigenspace for the content of the added box is V_lambda (x) |T>, with
    weyl(lambda) vectors.  The swap (j l) is sum_ab e_ab^(j) e_ba^(l), so
    there X_l = sum_ab gens_mu[a n + b] (x) e_ba.  Its eigenvalues are
    contents of boxes, integers, so the wanted eigenspace is a kernel read
    off an SVD with a gap of at least 1.
    """
    gens = _copy_chain(n, mu).gens
    units = np.eye(n * n).reshape(n * n, n, n)
    w = gens.shape[1]
    jm = gens.reshape(n, n, w, w).transpose(2, 1, 3, 0).reshape(w * n, w * n)
    _, sv, vt = np.linalg.svd(jm - content * np.eye(w * n))
    c = vt[sv < 0.5].T
    # E_ab on (legs of mu) (x) (last leg) is gens_mu (x) I_n + I_w (x) e_ab
    return c, c.T @ (_kron(gens, np.eye(n)) + _kron(np.eye(w), units)) @ c


@functools.lru_cache(maxsize=None)
def _copy_chain(n: int, parts: tuple[int, ...]) -> _ChainStep:
    """The chain step of a nonempty partition `parts`, built once per
    process by `_branch` from its parent's generators, always removing the
    last row's box mu = lambda - box.  Its arrays are read-only, as every
    caller shares them."""
    if sum(parts) == 1:
        step = _ChainStep((), np.eye(n), np.eye(n * n).reshape(n * n, n, n))
    else:
        # the last row's box: row i, column p - 1, content p - 1 - i
        i, p = len(parts) - 1, parts[-1]
        mu = parts[:-1] + ((p - 1,) if p > 1 else ())
        step = _ChainStep(mu, *_branch(n, mu, p - 1 - i))
    step.branching.setflags(write=False)
    step.gens.setflags(write=False)
    return step


def _alignment(n: int, nu: tuple[int, ...], lam: tuple[int, ...]) -> np.ndarray:
    """A_{nu lam}, of side weyl(nu) n x weyl(lam), with
    (W_nu (x) I_n)^T x (W_nu (x) I_n) = sum over lam = nu + box of
    A_{nu lam} B_lam A_{nu lam}^T for an S_l-invariant x with blocks
    B_lam = W_lam^T x W_lam.  Built once per process, in `_transition_plan`.

    The lam-isotypic vectors of range(W_nu (x) I_n) are a copy of V_lam,
    E = (W_nu (x) I_n) C (`_branch`), though not the copy W_lam when nu is
    not lam's parent on the chain.  Then E^T x E = R B_lam R^T and A = C R,
    R the U(n) intertwiner from W_lam's generators to E's, orthogonal and
    unique up to sign (Schur's lemma).  It maps the highest-weight vector,
    the kernel of sum_a E_{a,a+1}^T E_{a,a+1}, of one side to the other's,
    and so every lowering word E_{a+1,a}... of it: depth by depth, each
    orthonormalized on W_lam's side, the words give weyl(lam) columns X
    there and X_E on E's, and R = X_E X^T.  A non-isometry raises LinAlgError.
    """
    step = _copy_chain(n, lam)
    if step.parent == nu:
        return step.branching  # E = W_lam, R = I
    i = next(i for i, p in enumerate(lam) if i == len(nu) or p > nu[i])
    c, gens = _branch(n, nu, lam[i] - 1 - i)
    # gens[1::n + 1] are the E_{a,a+1}, gens[n::n + 1] the E_{a+1,a}; r^T r
    # of the E_{a,a+1} stacked by rows is sum_a E_{a,a+1}^T E_{a,a+1}
    sides, w = (step.gens, gens), c.shape[1]
    raising = [g[1::n + 1].reshape(-1, w) for g in sides]
    x = depth = [np.linalg.eigh(r.T @ r)[1][:, :1] for r in raising]
    while x[0].shape[1] < w and depth[0].size:
        depth = [np.concatenate(g[n::n + 1] @ v, axis=1) for g, v in zip(sides, depth)]
        _, sv, vt = np.linalg.svd(depth[0], full_matrices=False)
        depth = [v @ (vt[sv > 1e-6].T / sv[sv > 1e-6]) for v in depth]
        x = [np.concatenate(pair, axis=1) for pair in zip(x, depth)]
    a = c @ x[1] @ x[0].T
    if np.abs(a.T @ a - np.eye(w)).max() > 1e-10:
        raise np.linalg.LinAlgError(f"alignment of {lam} from {nu} on n={n} is not orthogonal")
    return a


@functools.lru_cache(maxsize=None)
def _transition_plan(n: int, l: int) -> tuple:
    """Per partition nu of l - 1 with at most n rows, in `level_layout`
    order, (weyl(nu), ((k, A_{nu lam}), ...)) over the children
    lam = nu + box with at most n rows, k the position of lam in
    `level_layout(n, l)`.  Built once per process, its arrays read-only."""
    layout = level_layout(n, l)
    plan = []
    for nu, weyl, _ in level_layout(n, l - 1):
        children = []
        for k, (lam, _, _) in enumerate(layout):
            # |lam| = |nu| + 1, so lam = nu + box when it contains nu
            if len(lam) >= len(nu) and all(a >= b for a, b in zip(lam, nu)):
                a = _alignment(n, nu.parts, lam.parts)
                a.setflags(write=False)
                children.append((k, a))
        plan.append((weyl, tuple(children)))
    return tuple(plan)


def copy_basis(n: int, lam: Partition) -> np.ndarray:
    """Real isometry W_lambda with n^l rows and weyl(lambda) columns onto one
    copy V_lambda (x) |T> of the U(n) irrep of lambda, T the standard
    tableau grown along the chain of `_copy_chain`:
    W_lambda = (W_mu (x) I_n) C down the chain's branchings C from
    W_() = [[1]].  Built on each call, for the dense exports.

    Raises ValueError when lambda has more than n rows (`check_rows`) or
    |lambda| exceeds `MAX_LEVEL` (`check_level`).
    """
    check_level(lam.size, "l", 0)
    check_rows(lam, n)
    if not lam.parts:
        return np.eye(1)
    step = _copy_chain(n, lam.parts)
    w = step.branching.shape[1]
    # (W_mu (x) I_n) C, with C's rows split into (column of W_mu, last leg)
    return (copy_basis(n, Partition(step.parent)) @ step.branching.reshape(-1, n * w)).reshape(-1, w)


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
    (`schur_weyl_block`), as `check_blocks` requires:
    x = Sym(sum hook(lambda) F B_lambda F^T), F = I_m (x) W_lambda, since
    hook * Sym(F B F^T) is B (x) I_hook.  At l <= 1, W = I and x is the one
    block.
    """
    check_blocks(blocks, m, n, l)
    if l <= 1:
        return np.array(blocks[0])
    total = 0
    for (lam, _, hook), block in zip(level_layout(n, l), blocks):
        f = np.kron(np.eye(m), copy_basis(n, lam))
        total = total + hook * (f @ block @ f.T)
    return Symmetrizer((m,) + (n,) * l, range(1, l + 1)).apply_matrix(total)


def transition_blocks(
    blocks: Sequence[np.ndarray], m: int, n: int, l: int, density: np.ndarray
) -> list[np.ndarray]:
    """The blocks of P x at level l - 1 from the blocks B_lam of an
    S_l-invariant x at level l (as in `schur_weyl_block`, checked by
    `check_blocks`), P contracting the last leg with rho(y) = trace(D y):
    block_nu(P x) = tr_last[(sum over lam = nu + box of F B_lam F^T)(I (x) D)],
    F = I_m (x) A_{nu lam} (`_alignment`), in the cached `_transition_plan`,
    which reads the copy chain's generators alone: no n^l rows are formed.
    """
    check_level(l, "l", 1)
    check_blocks(blocks, m, n, l)
    out = []
    for w, children in _transition_plan(n, l):
        acc = 0  # F B F^T over the children lam, as (m, m, weyl(nu) n, weyl(nu) n)
        for k, a in children:
            d = a.shape[1]
            acc = acc + a @ blocks[k].reshape(m, d, m, d).transpose(0, 2, 1, 3) @ a.T
        # tr_last[Y (I (x) D)]: row index r of the last leg pairs with D[c, r]
        y = np.einsum("ijprqc,cr->ipjq", acc.reshape(m, m, w, n, w, n), density)
        out.append(y.reshape(m * w, m * w))
    return out


def _power_blocks(t: np.ndarray, l: int) -> Iterator:
    """(lam, pi_lam(t) = W^T t^{(x)l} W) for each partition lam of 1, ..., l
    with at most n rows, t n x n, level by level in `level_layout` order,
    read-only and lazily: pi_lam(t) = C^T (pi_mu(t) (x) t) C from
    pi_() = [[1]], mu lam's parent and C its branching (`_copy_chain`), so
    no n^l rows are formed.  Siblings are adjacent in that order, so each
    parent grows once, and only the previous level is kept."""
    n = t.shape[0]
    level = {(): np.eye(1)}
    for k in range(1, l + 1):
        prev, level, parent, grown = level, {}, None, None
        for lam, _, _ in level_layout(n, k):
            step = _copy_chain(n, lam.parts)
            if step.parent != parent:
                # drop the last grown parent before growing the next, so
                # one is held at a time
                parent, grown = step.parent, None
                grown = _kron(prev[parent], t)
            block = level[lam.parts] = step.branching.T @ grown @ step.branching
            block.setflags(write=False)
            yield lam, block


def isotypic_projector(n: int, l: int, lam: Partition) -> LeggedOperator:
    """Orthogonal projector onto the lambda-isotypic subspace of
    (C^n)^{(x)l}: `from_schur_weyl_blocks` of the unit block at lambda,
    hook(lambda) * Sym(W W^T) with W the copy basis of lambda.  Returns the
    zero operator when lambda has more than n parts (its Schur-Weyl
    multiplicity vanishes).
    """
    check_level(l, "l", 0)
    if lam.size != l:
        raise ValueError(f"partition size {lam.size} does not match l={l}")
    legs = (n,) * l
    if len(lam) > n:
        return LeggedOperator(np.zeros((n**l, n**l)), legs)
    blocks = [np.eye(w) * (mu == lam) for mu, w, _ in level_layout(n, l)]
    return LeggedOperator(from_schur_weyl_blocks(blocks, 1, n, l), legs)


def schur_weyl_table(n: int, l: int) -> list[tuple[Partition, int, int]]:
    """(partition, U(n) block dimension, multiplicity) for each nonzero block.

    `level_layout(n, l)` as a list: every partition with at most n parts
    has a nonzero block.  Raises ValueError unless n >= 1 and
    0 <= l <= `MAX_LEVEL`.
    """
    if n < 1:
        raise ValueError(f"schur_weyl_table needs n >= 1, got n={n}")
    check_level(l, "l", 0)
    return list(level_layout(n, l))
