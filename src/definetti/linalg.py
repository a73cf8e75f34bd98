"""Dense complex Hermitian linear algebra with tensor-leg bookkeeping.

Every operator carried around by this package is a square complex matrix
together with an ordered list of tensor-leg dimensions.  The storage
convention is row-major Kronecker: leg 0 is the slowest index, so
``tensor(x, y)`` is literally ``np.kron(x, y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: relative tolerance used by `hermitian-required` operations
HERMITIAN_RTOL = 1e-10

#: default relative PSD tolerance (scaled by matrix side and max entry)
PSD_TOL = 1e-9

#: a Functional is faithful when min eig(D) >= FAITHFUL_RTOL * trace(D)
FAITHFUL_RTOL = 1e-12


def _hermitian(mat: np.ndarray) -> bool:
    """Relative rule: |mat - mat^H|max <= HERMITIAN_RTOL * |mat|max."""
    dev = np.abs(mat - mat.conj().T).max()
    return dev <= HERMITIAN_RTOL * max(np.abs(mat).max(), 1e-300)


def _psd(mat: np.ndarray, tol: float, side: int | None = None) -> bool:
    """Min eig of the Hermitian part >= -tol * side * max(1, |mat|max); side
    is mat's own unless given (the dense side of an operator in blocks)."""
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    side = mat.shape[0] if side is None else side
    return w[0] >= -tol * side * max(1.0, float(np.abs(mat).max()))


def _as_square_complex(entries) -> np.ndarray:
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


@dataclass(frozen=True)
class LeggedOperator:
    """A dense complex square matrix on a tensor product of legs."""

    entries: np.ndarray
    legs: tuple[int, ...]

    def __init__(self, entries, legs: Iterable[int]):
        mat = _as_square_complex(entries)
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
        mat = _as_square_complex(density)
        if not _hermitian(mat):
            raise ValueError("functional density must be Hermitian")
        mat = (mat + mat.conj().T) / 2
        evals = np.linalg.eigvalsh(mat)
        tr = float(np.trace(mat).real)
        if evals[0] < FAITHFUL_RTOL * tr or tr <= 0:
            raise ValueError(
                "functional is not faithful: min eigenvalue "
                f"{evals[0]:.3e} below {FAITHFUL_RTOL:.0e} * trace"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "density", mat)
        object.__setattr__(self, "least_eig", float(evals[0]))

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


def tensor_power(x: LeggedOperator, k: int) -> LeggedOperator:
    if k < 0:
        raise ValueError("tensor power must be non-negative")
    out = LeggedOperator(np.eye(1), ())
    for _ in range(k):
        out = tensor(out, x)
    return out


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
    if x.legs != y.legs:
        raise ValueError(f"leg mismatch: {x.legs} vs {y.legs}")
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
