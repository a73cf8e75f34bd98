"""Matrix-valued Martin-boundary toolkit on the dual of U(n).

Elements of the dual are represented only through their finite image
prefixes on tensor powers of the fundamental representation, i.e. as
SymSequence values.  The transition operator acts on those images by
contracting the last tensor leg with the functional, in Schur-Weyl blocks
(`symmetry.transition_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hierarchy
from .hierarchy import SeparabilityReport, SolverOptions, SymSequence, validate_k_prefix
# contract_legs, isotypic_projector and schur_weyl_table are unused here;
# they stay importable from this module, where benchmarks/spans.py patches them
from .linalg import (
    HERMITIAN_RTOL,
    PSD_TOL,
    Functional,
    LeggedOperator,
    _as_square_complex,
    _first_non_psd,
    _require_dimension,
    _require_finite,
    contract_legs,
    is_psd,
)
from .symmetry import (
    Partition,
    _power_blocks,
    check_level,
    check_rows,
    isotypic_projector,
    level_layout,
    schur_weyl_table,
    transition_blocks,
)

#: a group-like matrix t must satisfy |det t| > INVERTIBILITY_RTOL * ||t||^n
INVERTIBILITY_RTOL = 1e-12


@dataclass(frozen=True)
class GroupLike:
    """An invertible n x n matrix t standing for the evaluation element e_t."""

    t: np.ndarray

    def __init__(self, t):
        mat = _as_square_complex(t, "group-like matrix")
        n = mat.shape[0]
        _require_finite(mat, "group-like matrix")
        norm = float(np.linalg.norm(mat, 2))
        if abs(np.linalg.det(mat)) <= INVERTIBILITY_RTOL * norm**n:
            raise ValueError("group-like matrix must be invertible")
        mat.setflags(write=False)
        object.__setattr__(self, "t", mat)

    @property
    def n(self) -> int:
        return self.t.shape[0]


def grouplike_sequence(
    a: LeggedOperator, g: GroupLike, L: int, rho: Optional[Functional] = None
) -> SymSequence:
    """The sequence (a (x) t^{(x)l})_{l<=L}; each entry is S_l-invariant.

    Its blocks a (x) pi_lam(t) grow along the copy chain
    (`symmetry._power_blocks`); t^{(x)l} is never formed.
    """
    if len(a.legs) != 1:
        raise ValueError(f"expected a single m-leg coefficient, got legs {a.legs}")
    check_level(L, "L", 0)
    blocks = [[a.entries]] + [[] for _ in range(L)]
    for lam, pi in _power_blocks(g.t, L):
        blocks[lam.size].append(np.kron(a.entries, pi))
    rho = rho if rho is not None else Functional.normalized_trace(g.n)
    return SymSequence.from_blocks(a.legs[0], g.n, rho, blocks)


def p_map(seq: SymSequence, rho: Functional) -> SymSequence:
    """Transition operator on image sequences: contract the last leg with rho,
    level by level in Schur-Weyl blocks (`transition_blocks`).

    Positivity-preserving; shortens the prefix by one level.
    """
    if seq.L < 1:
        raise ValueError("p_map needs a prefix of length at least 1")
    _require_dimension(rho, seq.n)
    blocks = [
        transition_blocks(seq.blocks(l + 1), seq.m, seq.n, l + 1, rho.density)
        for l in range(seq.L)
    ]
    return SymSequence.from_blocks(seq.m, seq.n, seq.rho, blocks)


def subharmonic_check(seq: SymSequence, rho: Functional) -> bool:
    """P(x) <= x with PSD entries, decided by `validate_k_prefix`.

    The bridge check (criterion 5, `boundary --verify-bridge`) compares this
    with `validate_k_prefix`, that is, `validate_k_prefix` with itself: it
    holds by definition and is not an independent computation.
    """
    return validate_k_prefix(seq.with_rho(rho)).ok


def e_rho_value(g: GroupLike, rho: Functional) -> float:
    """rho(t) = trace(D t); errors when the imaginary residue is significant."""
    val = rho.value(g.t)
    scale = max(1.0, abs(val))
    if abs(val.imag) > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"rho(t) has imaginary residue {val.imag:.3e}; not an exponential candidate"
        )
    return float(val.real)


def block_compression(g: GroupLike, lam: Partition) -> np.ndarray:
    """pi_lam(t) = W^T t^{(x)l} W, of side weyl(lam), W the copy basis of lam:
    the isotypic block of t^{(x)l} is pi_lam(t) (x) I_hook.  Read off the copy
    chain (`symmetry._power_blocks`) up to lam, forming neither W nor t^{(x)l}.

    For lam = (1,) it is t itself, for lam = () (an empty walk) [[1]].  Raises
    ValueError when |lam| exceeds `MAX_LEVEL` or lam has more than n rows.
    """
    check_level(lam.size, "l", 0)
    check_rows(lam, g.n)
    return next((pi for mu, pi in _power_blocks(g.t, lam.size) if mu == lam), np.eye(1))


@dataclass(frozen=True)
class ExponentialReport:
    is_exponential: bool
    failing_block: Optional[Partition] = None


def exponential_test(g: GroupLike, L: int) -> ExponentialReport:
    """Check that every block pi_lam(t) of t^{(x)l} for 1 <= l <= L is PSD,
    and report the first that is not, in `_power_blocks` order.

    The fundamental block (l=1) is t and settles the classification for t
    itself, Hermiticity included (`is_psd`): a t that fails grows no higher
    level.  The higher blocks, of side weyl(lam), cross-validate it
    numerically.  They inherit Hermiticity from t, up to rounding of order
    |t|^l that can exceed a block made small by cancellation, so only their
    Hermitian parts (b + b^H) / 2 are tested, each with its own side and
    largest entry, all in one `_first_non_psd` call.  They grow along the
    copy chain (`symmetry._power_blocks`); t^{(x)l} is never formed.
    """
    check_level(L, "L", 1)
    walk = _power_blocks(g.t, L)
    lam, t = next(walk)
    if not is_psd(LeggedOperator(t, (g.n,))):
        return ExponentialReport(False, lam)
    higher = list(walk)
    groups, sides = [[(b + b.conj().T) / 2] for _, b in higher], [b.shape[0] for _, b in higher]
    k = _first_non_psd(groups, sides, PSD_TOL)
    return ExponentialReport(True) if k is None else ExponentialReport(False, higher[k][0])


def recover_block(seq: SymSequence, lam: Partition) -> LeggedOperator:
    """Block lam of entry |lam| in Schur-Weyl coordinates, B_lam (x) I_hook,
    of side m * weyl * hook, where B_lam = (I_m (x) W)^T x_l (I_m (x) W) is
    the block a sequence bundle stores for lam (`schur_weyl_block`, W the
    copy basis of lam); no projector is formed and nothing is diagonalized.

    An entry of a SymSequence is S_l-invariant (`validate_k_prefix` checks
    it), so its lam-isotypic block is hook copies of B_lam; this reads one
    copy, from `seq.blocks(l)`, and does not check the invariance.  For a
    group-like sequence the block is exactly a (x) pi_lam(t) (x) I_hook,
    pi_lam(t) being `block_compression(g, lam)`.  Raises ValueError when lam
    has more than n rows (the subspace is zero).
    """
    l = lam.size
    if l > seq.L:
        raise ValueError(f"partition size {l} exceeds prefix length {seq.L}")
    check_rows(lam, seq.n)
    layout = level_layout(seq.n, l)
    k = next(k for k, (mu, _, _) in enumerate(layout) if mu == lam)
    _, weyl, hook = layout[k]
    return LeggedOperator(np.kron(seq.blocks(l)[k], np.eye(hook)), (seq.m, weyl * hook))


@dataclass(frozen=True)
class ImageCheckReport:
    subharmonic: bool
    separability: SeparabilityReport

    @property
    def consistent(self) -> bool:
        """A subharmonic sequence can never earn entangled evidence."""
        return self.separability.verdict != "entangled_evidence"

    def to_json(self) -> dict:
        return {
            "subharmonic": self.subharmonic,
            "separability": self.separability.to_json(),
            "consistent": self.consistent,
        }


def separable_image_check(
    seq: SymSequence,
    rho: Functional,
    max_l: int = 3,
    opts: SolverOptions = SolverOptions(),
) -> ImageCheckReport:
    """Run the hierarchy on the level-1 image of a subharmonic sequence.

    A subharmonic sequence can never earn entangled evidence; `consistent`
    is False exactly when that contradiction occurs.
    """
    if not subharmonic_check(seq, rho):
        raise ValueError("sequence fails the subharmonic check")
    return ImageCheckReport(True, hierarchy.separability_verdict(seq.entry(1), rho, max_l, opts))

