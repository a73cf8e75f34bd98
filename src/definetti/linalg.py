"""Dense complex Hermitian linear algebra with tensor-leg bookkeeping.

Every operator carried around by this package is a square complex matrix
together with an ordered list of tensor-leg dimensions.  The storage
convention is row-major Kronecker: leg 0 is the slowest index, so
``tensor(x, y)`` is literally ``np.kron(x, y)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

#: relative tolerance used by `hermitian-required` operations
HERMITIAN_RTOL = 1e-10

#: default relative PSD tolerance (scaled by matrix side and max entry)
PSD_TOL = 1e-9

#: a Functional is faithful when min eig(D) >= FAITHFUL_RTOL * trace(D)
FAITHFUL_RTOL = 1e-12


def _hermitian_rule(dev, big):
    """The relative Hermitian rule |x - x^H|max <= HERMITIAN_RTOL * |x|max,
    from dev = |x - x^H|max and big = |x|max (elementwise on arrays)."""
    return dev <= HERMITIAN_RTOL * np.maximum(big, 1e-300)


def _psd_rule(least, big, side, tol):
    """The PSD rule: min eig of the Hermitian part >= -tol * side *
    max(1, |x|max), from least = that eigenvalue and big = |x|max
    (elementwise on arrays); side is x's dense side."""
    return least >= -tol * side * np.maximum(1.0, big)


def _hermitian(mat: np.ndarray) -> bool:
    return bool(_hermitian_rule(np.abs(mat - mat.conj().T).max(), np.abs(mat).max()))


def _psd(mat: np.ndarray, tol: float) -> bool:
    least = np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0]
    return bool(_psd_rule(least, np.abs(mat).max(), mat.shape[0], tol))


#: blocks up to this side share one zero-padded stack in `_first_non_psd`:
#: an eigvalsh of side 16 costs about three call overheads (one BLAS thread)
_PAD_SIDE = 16


def _first_non_psd(
    groups: Sequence[Sequence[np.ndarray]], sides: Sequence[int], tol: float
) -> Optional[int]:
    """The index of the first group of blocks that fails the Hermitian rule
    or the PSD rule, else None.  Group i, not empty, is the direct sum of its
    blocks, an operator of dense side sides[i], and gets `_hermitian_rule`
    and `_psd_rule` with its own largest entry; a caller that checks only an
    operator's Hermitian part passes (x + x^H) / 2, which is exactly
    Hermitian.  The blocks of all groups get one eigvalsh per stack: the
    blocks of side <= _PAD_SIDE zero-padded into one (a padded block's
    spectrum is its own and zeros, which pass), the larger ones one stack
    per side, unpadded."""
    blocks = [b for group in groups for b in group]
    if not blocks:
        return None
    stacks: dict[int, list[int]] = {}
    for k, b in enumerate(blocks):
        stacks.setdefault(b.shape[0] if b.shape[0] > _PAD_SIDE else 0, []).append(k)
    big, least, dev = np.empty(len(blocks)), np.empty(len(blocks)), np.empty(len(blocks))
    for ks in stacks.values():
        s = max(blocks[k].shape[0] for k in ks)
        stack = np.zeros((len(ks), s, s), dtype=complex)
        for i, k in enumerate(ks):
            stack[i, : blocks[k].shape[0], : blocks[k].shape[0]] = blocks[k]
        adjoint = stack.conj().swapaxes(-1, -2)
        big[ks] = np.abs(stack).max(axis=(1, 2))
        least[ks] = np.linalg.eigvalsh((stack + adjoint) / 2)[:, 0]
        dev[ks] = np.abs(stack - adjoint).max(axis=(1, 2))
    starts = list(itertools.accumulate((len(group) for group in groups[:-1]), initial=0))
    big = np.maximum.reduceat(big, starts)
    ok = _psd_rule(np.minimum.reduceat(least, starts), big, np.asarray(sides, dtype=float), tol)
    ok &= _hermitian_rule(np.maximum.reduceat(dev, starts), big)
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


def _require_finite(mat: np.ndarray, what: str) -> None:
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} entries must be finite; NaN and Inf are rejected")


def _require_dimension(rho: Functional, n: int) -> None:
    if rho.dim != n:
        raise ValueError(f"functional dimension {rho.dim} does not match n={n}")


def _as_square_complex(entries, what: str) -> np.ndarray:
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
        raise ValueError(f"{what} must be at least 1 x 1")
    return mat


@dataclass(frozen=True)
class LeggedOperator:
    """A dense complex square matrix on a tensor product of legs, with
    finite entries."""

    entries: np.ndarray
    legs: tuple[int, ...]

    def __init__(self, entries, legs: Iterable[int]):
        mat = _as_square_complex(entries, "operator")
        _require_finite(mat, "operator")
        legs = tuple(int(d) for d in legs)
        if any(d <= 0 for d in legs):
            raise ValueError(f"leg dimensions must be positive, got {legs}")
        if math.prod(legs) != mat.shape[0]:
            raise ValueError(
                f"matrix side {mat.shape[0]} does not match product of legs {legs}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "legs", legs)

    # -- basic queries -------------------------------------------------

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    @property
    def nlegs(self) -> int:
        return len(self.legs)

    def norm_max(self) -> float:
        return float(np.abs(self.entries).max()) if self.side else 0.0

    def is_hermitian(self) -> bool:
        return _hermitian(self.entries)

    def require_hermitian(self, what: str = "operation") -> None:
        if not self.is_hermitian():
            raise ValueError(f"{what} requires a Hermitian operator")

    def as_tensor(self) -> np.ndarray:
        """Reshape to one axis per leg: row axes first, then column axes."""
        return self.entries.reshape(self.legs + self.legs)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    # -- arithmetic (legs must match) ----------------------------------

    def _check_same_legs(self, other: "LeggedOperator") -> None:
        if self.legs != other.legs:
            raise ValueError(f"leg mismatch: {self.legs} vs {other.legs}")

    def __add__(self, other: "LeggedOperator") -> "LeggedOperator":
        self._check_same_legs(other)
        return LeggedOperator(self.entries + other.entries, self.legs)

    def __mul__(self, scalar) -> "LeggedOperator":
        return LeggedOperator(self.entries * complex(scalar), self.legs)

    __rmul__ = __mul__

    @staticmethod
    def identity(legs: Iterable[int]) -> "LeggedOperator":
        legs = tuple(int(d) for d in legs)
        return LeggedOperator(np.eye(math.prod(legs)), legs)

    @staticmethod
    def zeros(legs: Iterable[int]) -> "LeggedOperator":
        legs = tuple(int(d) for d in legs)
        side = math.prod(legs)
        return LeggedOperator(np.zeros((side, side)), legs)


@dataclass(frozen=True)
class Functional:
    """A faithful positive linear functional on M_n, rho(x) = trace(D x)."""

    density: np.ndarray
    #: least eigenvalue of D, from the faithfulness check
    least_eig: float = field(compare=False, repr=False)

    def __init__(self, density):
        mat = _as_square_complex(density, "functional density")
        diag = np.diagonal(mat)
        if np.count_nonzero(mat) == np.count_nonzero(diag):
            # a diagonal density is Hermitian when its diagonal is real (the
            # Hermitian rule, with |x - x^H|max = 2 |Im diag|max), and its
            # spectrum is that diagonal; finiteness is read off it alone
            _require_finite(diag, "functional density")
            if not _hermitian_rule(2 * np.abs(diag.imag).max(), np.abs(diag).max()):
                raise ValueError("functional density must be Hermitian")
            diag = diag.real.copy()
            np.fill_diagonal(mat, diag)
            least = float(diag.min())
        else:
            _require_finite(mat, "functional density")
            if not _hermitian(mat):
                raise ValueError("functional density must be Hermitian")
            mat = (mat + mat.conj().T) / 2
            diag = np.diagonal(mat).real
            least = float(np.linalg.eigvalsh(mat)[0])
        tr = float(diag.sum())
        if least < FAITHFUL_RTOL * tr or tr <= 0:
            raise ValueError(
                "functional is not faithful: min eigenvalue "
                f"{least:.3e} below {FAITHFUL_RTOL:.0e} * trace"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "density", mat)
        object.__setattr__(self, "least_eig", least)

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    def value(self, x) -> complex:
        """rho(x) = trace(D x)."""
        mat = x.entries if isinstance(x, LeggedOperator) else np.asarray(x)
        if mat.shape != self.density.shape:
            raise ValueError(f"dimension mismatch: {mat.shape} vs {self.density.shape}")
        return complex(np.trace(self.density @ mat))

    @staticmethod
    def trace(n: int) -> "Functional":
        return Functional(np.eye(n))

    @staticmethod
    def normalized_trace(n: int) -> "Functional":
        return Functional(np.eye(n) / n)

    @staticmethod
    def random_faithful(n: int, rng: np.random.Generator) -> "Functional":
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        d = g @ g.conj().T + 0.1 * np.eye(n)
        return Functional(d / np.trace(d).real)


def tensor(x: LeggedOperator, y: LeggedOperator) -> LeggedOperator:
    """Kronecker product; legs concatenate."""
    return LeggedOperator(np.kron(x.entries, y.entries), x.legs + y.legs)


def min_eig(x: LeggedOperator) -> float:
    x.require_hermitian("min_eig")
    return float(np.linalg.eigvalsh((x.entries + x.entries.conj().T) / 2)[0])


def is_psd(x: LeggedOperator, tol: float = PSD_TOL) -> bool:
    """True iff x is Hermitian and min eig >= -tol * side * max(1, ||x||_max)."""
    return x.is_hermitian() and _psd(x.entries, tol)


def loewner_leq(x: LeggedOperator, y: LeggedOperator, tol: float = PSD_TOL) -> bool:
    """Loewner order: x <= y iff y - x is PSD at tolerance.

    The inputs are validated as Hermitian; the difference is hermitized
    before the eigenvalue check (its own relative asymmetry is meaningless
    when x and y nearly cancel).
    """
    x._check_same_legs(y)
    x.require_hermitian("loewner_leq")
    y.require_hermitian("loewner_leq")
    return _psd(y.entries - x.entries, tol)


def psd_part(mat: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to a Hermitian mat in Hilbert-Schmidt norm (clip
    negative eigenvalues).  Like `eigh`, it reads only the lower triangle, so
    mat must be Hermitian.  A stack of shape (..., s, s) is projected matrix
    by matrix, in one batched eigh."""
    w, v = np.linalg.eigh(mat)
    return (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _contract_one_leg(ten: np.ndarray, nlegs: int, i: int, density: np.ndarray) -> np.ndarray:
    # row axis i pairs with the second index of D, column axis nlegs+i with
    # the first: trace(D b) = sum_{r,c} D[c,r] b[r,c]
    return np.tensordot(ten, density.T, axes=([i, nlegs + i], [0, 1]))


def contract_legs(
    x: LeggedOperator, rho: Functional, leg_indices: Sequence[int]
) -> LeggedOperator:
    """Apply rho to the listed legs (0-based) and the identity elsewhere.

    Removes the contracted legs from the leg list.  Positivity-preserving
    for every Functional.
    """
    idx = sorted(set(int(i) for i in leg_indices))
    for i in idx:
        if not 0 <= i < x.nlegs:
            raise ValueError(f"leg index {i} out of range for legs {x.legs}")
        if x.legs[i] != rho.dim:
            raise ValueError(
                f"leg {i} has dimension {x.legs[i]}, functional expects {rho.dim}"
            )
    ten = x.as_tensor()
    legs = list(x.legs)
    for i in reversed(idx):
        ten = _contract_one_leg(ten, len(legs), i, rho.density)
        del legs[i]
    side = math.prod(legs)
    return LeggedOperator(ten.reshape(side, side), legs)


def partial_transpose(x: LeggedOperator, leg: int) -> LeggedOperator:
    """Transpose the chosen leg's indices; involutive and trace-preserving."""
    if not 0 <= leg < x.nlegs:
        raise ValueError(f"leg index {leg} out of range for legs {x.legs}")
    if x.nlegs < 2:
        raise ValueError("partial transpose needs at least two legs")
    ten = x.as_tensor()
    k = x.nlegs
    ten = np.swapaxes(ten, leg, k + leg)
    return LeggedOperator(ten.reshape(x.side, x.side), x.legs)
