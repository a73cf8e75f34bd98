"""Symmetric-group action on tensor legs and Schur-Weyl isotypic projectors."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .linalg import LeggedOperator

#: permutations are enumerated exactly; beyond this bound operations error
ENUMERATION_BOUND = 8


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

    def cycle_type(self) -> Partition:
        seen = [False] * len(self.images)
        cycles = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length, p = 0, start
            while not seen[p]:
                seen[p] = True
                p = self.images[p]
                length += 1
            cycles.append(length)
        return Partition(sorted(cycles, reverse=True))


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


def symmetrize(x: LeggedOperator, leg_indices: Sequence[int]) -> LeggedOperator:
    """Average of x over all permutations of the listed legs.

    An HS-orthogonal projection; linear and positivity-preserving.
    """
    return Symmetrizer(x.legs, leg_indices).apply(x)


# -- characters of the symmetric group --------------------------------------


@cache
def _character(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on beta-sets (first-column hook lengths)."""
    if not cycles:
        return 1 if not parts else 0
    r, rest = cycles[0], cycles[1:]
    k = len(parts)
    beta = [parts[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b - r < 0 or (b - r) in beta_set:
            continue
        new_beta = sorted((beta_set - {b}) | {b - r}, reverse=True)
        height = sum(1 for c in beta if b - r < c < b)
        new_parts = tuple(
            nb - (len(new_beta) - 1 - i) for i, nb in enumerate(new_beta)
        )
        new_parts = tuple(p for p in new_parts if p > 0)
        total += (-1) ** height * _character(new_parts, rest)
    return total


def sym_group_character(lam: Partition, cycle_type: Partition) -> int:
    """Integer character value chi_lambda(cycle_type)."""
    if lam.size != cycle_type.size:
        raise ValueError(
            f"partition size {lam.size} does not match cycle type size {cycle_type.size}"
        )
    return _character(lam.parts, cycle_type.parts)


# -- Schur-Weyl isotypic projectors ----------------------------------------


def _perm_index_map(n: int, l: int, perm: tuple[int, ...]) -> np.ndarray:
    """Flat index map of the unitary permuting the l tensor factors of C^n."""
    return np.arange(n**l).reshape((n,) * l).transpose(perm).reshape(-1)


def isotypic_projector(n: int, l: int, lam: Partition) -> LeggedOperator:
    """Projector (d/l!) sum_sigma chi_lambda(sigma) U_sigma on (C^n)^{(x)l}.

    Returns the zero operator when lambda has more than n parts (its
    Schur-Weyl multiplicity vanishes).
    """
    if l > ENUMERATION_BOUND:
        raise ValueError(f"l={l} exceeds enumeration bound {ENUMERATION_BOUND}")
    if lam.size != l:
        raise ValueError(f"partition size {lam.size} does not match l={l}")
    legs = (n,) * l
    if len(lam) > n:
        return LeggedOperator.zeros(legs)
    if l == 0:
        return LeggedOperator(np.eye(1), ())
    dim = n**l
    acc = np.zeros((dim, dim))
    cols = np.arange(dim)
    for perm in itertools.permutations(range(l)):
        chi = sym_group_character(lam, LegPermutation(perm).cycle_type())
        if chi:
            acc[_perm_index_map(n, l, perm), cols] += chi
    d = lam.hook_dimension()
    return LeggedOperator(acc * (d / math.factorial(l)), legs)


def projector_range(p: LeggedOperator) -> np.ndarray:
    """Orthonormal basis (columns) of the range of an orthogonal projector."""
    evals, evecs = np.linalg.eigh((p.entries + p.entries.conj().T) / 2)
    return np.ascontiguousarray(evecs[:, evals > 0.5])


def schur_weyl_table(n: int, l: int) -> list[tuple[Partition, int, int]]:
    """(partition, U(n) block dimension, multiplicity) for each nonzero block.

    Closed forms: the block dimension is the Weyl dimension and the
    multiplicity the hook-length dimension; every partition with at most n
    parts has a nonzero block.
    """
    if l > ENUMERATION_BOUND:
        raise ValueError(f"l={l} exceeds enumeration bound {ENUMERATION_BOUND}")
    return [
        (lam, lam.weyl_dimension(n), lam.hook_dimension())
        for lam in partitions_of(l, max_parts=n)
    ]
