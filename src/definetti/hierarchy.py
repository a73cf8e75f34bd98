"""Sub-extension hierarchy: sequence validation, feasibility solver, probes.

The feasibility solver searches for an S_l-invariant PSD operator b on legs
[m, n, ..., n] whose contraction by rho on the trailing l-1 legs is dominated
by the given bipartite element a, anchored so that the candidate carries the
same rho-mass as a.  Because rho is faithful, the anchor pins the slack
a - Phi(b) to zero at any feasible point, so the solver works directly with
the equality Phi(b) = a (without the anchor b = 0 would always be a witness
and the hierarchy would detect nothing).

Both answers are checked.  `feasible` ships a witness b, PSD and
S_l-invariant by construction, with |Phi(b) - a|max <= tol |a|max, and
validated against a in Schur-Weyl blocks by the rules that check a
sequence (`ExtensionProblem.validate_witness`).  `infeasible_at_tolerance`
ships a separating functional (the dual of Doherty, Parrilo and
Spedalieri): a Hermitian Y on m (x) n with Sym(Y (x) D^{(x)(l-1)}) PSD and
trace(Y a) < 0, so that every feasible b would give
0 <= <Sym(Y (x) D^{(x)(l-1)}), b> = trace(Y Phi(b)) = trace(Y a).
A run that ends with neither is `max_iterations`.  The search is a first
check on the least-norm solution z0 of Phi(b) = a and its PSD part, then a
log-barrier interior-point method on that dual (`sub_extension_feasibility`);
the method changes how fast an answer comes, never how it is checked.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import (
    PSD_TOL,
    Functional,
    LeggedOperator,
    _first_non_psd,
    _require_dimension,
    contract_legs,
    is_psd,
    min_eig,
    partial_transpose,
    psd_part,
)
from .symmetry import (
    Symmetrizer,
    _kron,
    _power_blocks,
    chain_blocks,
    check_blocks,
    check_level,
    from_schur_weyl_blocks,
    level_layout,
    schur_weyl_block,
    transition_blocks,
)

#: dimensions where the PPT criterion is an exact separability test
PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}

#: a certificate Y is accepted when trace(Y a) < -CERTIFICATE_RTOL ||Y|| trace(a),
#: far above the rounding of trace(Y a) and of the eigenvalues behind Y
CERTIFICATE_RTOL = 1e-9
#: a Newton step of the barrier search is damped to 1 / (1 + delta) while its
#: decrement delta is at least DAMPED_DECREMENT, and taken in full below it
DAMPED_DECREMENT = 0.25
#: after a step whose decrement is below CENTRED_DECREMENT the barrier weight
#: mu is divided by BARRIER_SHRINK; the centring is loose, since the bracket's
#: lower end is read off every step (`ExtensionProblem.barrier_search`)
CENTRED_DECREMENT = 2.0
BARRIER_SHRINK = 10.0


def _is_invariant(x: LeggedOperator, tol: float) -> bool:
    """S_l-invariance on legs [m, n, ..., n]: |Sym x - x|max <= tol * max(1, |x|max)."""
    sym = Symmetrizer(x.legs, range(1, x.nlegs)).apply_matrix(x.entries)
    return np.abs(sym - x.entries).max() <= tol * max(1.0, x.norm_max())


class SymSequence:
    """Finite prefix (x_0, ..., x_L) of a candidate sub-martingale sequence.

    Entry l lives on legs [m, n, ..., n] with l copies of n, and is stored as
    its Schur-Weyl blocks, `blocks(l)`: B_lambda = (I_m (x) W)^T x_l (I_m (x) W)
    per partition lambda of l with at most n rows, in `level_layout` order
    (`symmetry.schur_weyl_block`), read-only.  Every check reads the blocks.
    `SymSequence(m, n, rho, entries)` compresses dense entries once, when it
    is built, and keeps them as the dense cache; `SymSequence.from_blocks`
    takes the blocks, and its dense `entries` are rebuilt
    (`symmetry.from_schur_weyl_blocks`) only when first read.  The blocks of
    a dense entry hold only its S_l-invariant part: `asymmetric_level` says
    whether that part is all of it.
    """

    def __init__(self, m: int, n: int, rho: Functional, entries):
        entries = tuple(entries)
        for l, x in enumerate(entries):
            want = (m,) + (n,) * l
            if x.legs != want:
                raise ValueError(f"entry {l} has legs {x.legs}, expected {want}")
        self._init(m, n, rho, [
            [schur_weyl_block(x.entries, m, n, lam) for lam, _, _ in level_layout(n, l)]
            for l, x in enumerate(entries)
        ])
        self._entries[:] = entries

    def _init(self, m: int, n: int, rho: Functional, levels) -> None:
        """Check and store the blocks of each level."""
        if not levels:
            raise ValueError("sequence needs at least the level-0 entry")
        _require_dimension(rho, n)
        self.m, self.n, self.rho = int(m), int(n), rho
        # the blocks, and the dense entries as a cache, are shared with
        # `with_rho` copies: neither depends on rho
        self._blocks: list[tuple[np.ndarray, ...]] = []
        for l, level in enumerate(levels):
            level = tuple(np.array(b, dtype=complex) for b in level)
            check_blocks(level, m, n, l)
            for b in level:
                b.setflags(write=False)
            self._blocks.append(level)
        self._entries: list[Optional[LeggedOperator]] = [None] * len(levels)

    @classmethod
    def from_blocks(cls, m: int, n: int, rho: Functional, blocks) -> "SymSequence":
        """The sequence whose level l has the Schur-Weyl blocks blocks[l],
        each level checked by `check_blocks`."""
        seq = cls.__new__(cls)
        seq._init(m, n, rho, blocks)
        seq.asymmetric_level = None  # blocks are S_l-invariant by construction
        return seq

    @property
    def L(self) -> int:
        return len(self._blocks) - 1

    def blocks(self, l: int) -> tuple[np.ndarray, ...]:
        """The Schur-Weyl blocks of level l, read-only."""
        return self._blocks[l]

    @functools.cached_property
    def asymmetric_level(self) -> Optional[int]:
        """The first level l >= 2 whose dense entry is not S_l-invariant
        (`_is_invariant` at PSD_TOL), else None: checked on first read, then
        kept.  A sequence from blocks has None without a check."""
        for l in range(2, self.L + 1):
            if not _is_invariant(self._entries[l], PSD_TOL):
                return l
        return None

    def entry(self, l: int) -> LeggedOperator:
        """The dense entry x_l; rebuilt once from the blocks when not given."""
        if self._entries[l] is None:
            dense = from_schur_weyl_blocks(self._blocks[l], self.m, self.n, l)
            self._entries[l] = LeggedOperator(dense, (self.m,) + (self.n,) * l)
        return self._entries[l]

    @property
    def entries(self) -> tuple[LeggedOperator, ...]:
        """The dense export (x_0, ..., x_L), of sides m n^l."""
        return tuple(self.entry(l) for l in range(self.L + 1))

    def with_rho(self, rho: Functional) -> "SymSequence":
        _require_dimension(rho, self.n)
        out = copy.copy(self)
        out.rho = rho
        return out


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    condition: Optional[str] = None  # "symmetry" | "psd" | "sub_martingale"
    level: Optional[int] = None
    detail: str = ""


def validate_k_prefix(seq: SymSequence) -> ValidationReport:
    """Check, in this order, S_l-invariance, PSD entries and the
    sub-martingale condition x_l >= P(x_{l+1}), and report the first
    violated condition with the level where it fails.

    Invariance comes first, and only for entries at l >= 2 given densely
    (`SymSequence.asymmetric_level`, run once per sequence): the other two
    checks read the Schur-Weyl blocks, which hold only a dense entry's
    invariant part.  In Schur-Weyl coordinates x_l is the direct sum of
    B_lambda (x) I_hook, so x_l is Hermitian and PSD exactly when the
    direct sum of its blocks is; that sum gets the Hermitian rule and the
    PSD rule with the dense side m n^l in the tolerance.  The sub-martingale
    check applies the same rules to the Hermitian part of the blocks of
    x_l - P(x_{l+1}), P in blocks (`symmetry.transition_blocks`); no dense
    entry is formed.  Both conditions are one `linalg._first_non_psd` call,
    one group per level: the levels 0..L, then the gaps 0..L-1, so the
    first failing group is the condition and level reported.  The solver's
    witness check applies the same rules.
    """
    m, n, L = seq.m, seq.n, seq.L
    l = seq.asymmetric_level
    if l is not None:
        return ValidationReport(
            False, "symmetry", l, f"entry {l} is not S_{l}-invariant at tol {PSD_TOL}"
        )
    sides = [m * n**l for l in range(L + 1)]
    gaps = []
    for l in range(L):
        upper = transition_blocks(seq.blocks(l + 1), m, n, l + 1, seq.rho.density)
        gap = [x - u for x, u in zip(seq.blocks(l), upper)]
        gaps.append([(g + g.conj().T) / 2 for g in gap])
    k = _first_non_psd([seq.blocks(l) for l in range(L + 1)] + gaps, sides + sides[:-1], PSD_TOL)
    if k is None:
        return ValidationReport(True)
    if k <= L:
        return ValidationReport(False, "psd", k, f"entry {k} is not PSD at tol {PSD_TOL}")
    l = k - L - 1
    return ValidationReport(
        False, "sub_martingale", l, f"contraction of entry {l + 1} is not dominated by entry {l}"
    )


# -- feasibility solver -----------------------------------------------------


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-7
    max_iterations: int = 200  # the first check, then Newton steps

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not isinstance(self.max_iterations, int) or isinstance(self.max_iterations, bool):
            raise ValueError(f"max_iterations must be an int, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True)
class FeasibilityReport:
    """One level of the hierarchy: the verdict and what it rests on.

    `iterations` counts the first check and the Newton steps after it
    (`sub_extension_feasibility`), and `residual_history` has one entry per
    iteration, relative to trace(a): first the first check's distance
    ||z0 - psd_part(z0)|| from z0 to the PSD cone, then the duality gap
    trace(Y a) - t of each Newton step.  `final_residual` is the quantity
    the verdict rests on.  For `feasible` it is the witness's relative
    marginal defect |Phi(b) - a|max / |a|max, at most the solver's tol.
    Otherwise it is the last entry of `residual_history`.

    `t_lower` <= t* <= `t_upper` brackets t* = max{t : Phi(X) = a,
    X >= t J} (J the identity of the block stack, `ExtensionProblem`), in
    the units of a: a is level-l extendable exactly when t* >= 0, so the
    bracket says how far the solve was from the opposite verdict.
    `t_upper` is trace(Y a) / trace K(Y) at the certificate or the last dual
    iterate, and `t_lower` the largest t of a primal estimate X >= t J with
    Phi(X) = a read off a Newton step (`ExtensionProblem.barrier_search`);
    each is None when no such object was reached.

    A `feasible` report carries the checked witness b as `witness_blocks`:
    its Schur-Weyl blocks B_lambda (`symmetry.schur_weyl_block`), one per
    partition of l with at most n rows in `level_layout` order, scaled by
    trace(a) and read-only, the format of a sequence bundle's entry.  The
    dense b of side m n^l, `witness`, is built from the blocks only when it
    is first read.
    """

    # "feasible" (with a checked witness) | "infeasible_at_tolerance" (with a
    # checked certificate) | "max_iterations" (neither)
    verdict: str
    witness_blocks: Optional[tuple[np.ndarray, ...]]
    final_residual: float
    residual_history: tuple[float, ...]
    iterations: int
    level: int
    stop_reason: str  # "tol" | "certificate" | "max_iterations"
    certificate: Optional[LeggedOperator]  # separating functional Y on (m, n)
    certificate_margin: Optional[float]  # trace(Y a) / (||Y|| trace(a)) < 0
    t_lower: Optional[float] = None
    t_upper: Optional[float] = None
    # (m, n, trace(a), the checked blocks of the problem for a / trace(a)):
    # `witness` rebuilds these and then scales, since rebuilding the scaled
    # `witness_blocks` would round differently
    witness_source: Optional[tuple] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def witness(self) -> Optional[LeggedOperator]:
        """The dense witness b on legs [m, n, ..., n], None unless
        `feasible`: one `from_schur_weyl_blocks` (a symmetrizer pass of side
        m n^l) on first read, then kept."""
        if self.witness_source is None:
            return None
        m, n, scale, blocks = self.witness_source
        dense = from_schur_weyl_blocks(blocks, m, n, self.level)
        return LeggedOperator(dense, (m,) + (n,) * self.level) * scale

    def to_json(self) -> dict:
        from .serialize import _blocks_to_json, operator_to_json

        out = {
            "verdict": self.verdict,
            "stop_reason": self.stop_reason,
            "final_residual": self.final_residual,
            "iterations": self.iterations,
            "level": self.level,
            "residual_history": list(self.residual_history),
            "certificate": None if self.certificate is None else operator_to_json(self.certificate),
            "certificate_margin": self.certificate_margin,
            "t_lower": self.t_lower,
            "t_upper": self.t_upper,
        }
        if self.witness_blocks is not None:
            m, n = self.witness_source[:2]
            out["witness"] = _blocks_to_json(self.witness_blocks, m, n, self.level)
        return out


#: solver geometries kept per process (`_geometry`); a scan over levels
#: 2..5 under one functional uses four
GEOMETRY_CACHE_SIZE = 8


class _Geometry:
    """Everything the level-l solver precomputes that does not depend on a:
    the stack `shape`, the sqrt(hook) `_weights` of the blocks, the Gram
    rows `_kh` of K, G^{-1} and the right factor `_q` of the affine
    projector.  Its arrays are read-only, because every problem at the same
    (m, n, l, rho) shares them (`_geometry`).  It holds no copy basis: the
    Gram rows grow along the copy chain (`chain_blocks`), weyl(lambda)
    wide.

    Phi and Sym o Phi* act on every m-block E_ik (x) B of b in the same way,
    through the n-side map K(Y) = Sym(Y (x) D^{(x)(l-1)}) on M_n.  Row j of
    `_kh` is, over the blocks, sqrt(hook) conj(W^T K(e_j) W).flat for the
    n^2 matrix units e_j, so kh @ X.flat is K*(B) = Phi(B) and y @ conj(kh)
    is K(y) in block coordinates, with operators on m (x) n as m^2 x n^2
    arrays of m-blocks.  The weights make kh @ kh^H the dense per-block Gram
    matrix K* K, n^2 x n^2 and well conditioned (cond ~ l for faithful rho),
    so a direct inverse gives an exact metric projection onto the
    constraint set.  In gathered coordinates that projection is
    x -> x + z0 - (x kh^T) q, with q = G^{-T} conj(kh), so that kh^T q is
    the projector onto the range of K, and z0 = K(a G^{-T}) = a q its
    offset, the one part that depends on a (`ExtensionProblem`).  The
    projector is kept as its two n^2-row factors, never as the square
    matrix on the blocks.  No K(e_j) of side n^l is formed.

    The barrier search (`ExtensionProblem.barrier_search`) reads, per block,
    `_units`: the same blocks K(e_j) side by side, weyl x n^2 weyl, for the
    blockwise Hessian; the identity J of the blocks' active corners
    (`_eye`) and the identity of the padding (`_pad`), `_rows` = the sum of
    the corners' sides, Phi(J) (`_phi_eye`) and its start `_y0`.
    """

    def __init__(self, m: int, n: int, l: int, density: np.ndarray):
        layout = level_layout(n, l)
        def grow(x):  # S_k(e) = S_{k-1}(e) (x) D + D^{(x)(k-1)} (x) e
            y = _kron(x, density)
            y[1:] += _kron(x[0], np.eye(n * n).reshape(-1, n, n))
            return y
        # per partition lam of l: pi_lam(D) atop the blocks S_lam(e_j) = l K(e_j)
        walk = chain_blocks(n, l, np.eye(n * n + 1, 1)[:, :, None], grow)
        stacks = [x for lam, x in walk if lam.size == l]
        side = m * max(d for _, d, _ in layout)
        self.shape = (len(layout), side, side)
        weights, rows, idx, units = [], [], [], []
        eye = np.zeros(self.shape)
        for k, ((_, d, hook), x) in enumerate(zip(layout, stacks)):
            weight = math.sqrt(hook)
            weights.append(weight)
            rows.append(weight * x[1:].conj().reshape(n * n, d * d) / l)
            # the n-side blocks K(e_j) of lambda as one (d, n^2 d) matrix
            units.append(weight * x[1:].transpose(1, 0, 2).reshape(d, n * n * d) / l)
            # stack position of entry (alpha, beta) of the m-block (i, j) of X
            r = np.arange(m)[:, None] * d + np.arange(d)
            pos = k * side * side + r[:, None, :, None] * side + r[None, :, None, :]
            idx.append(pos.reshape(m * m, d * d))
            eye[k, np.arange(m * d), np.arange(m * d)] = 1.0
        self._kh = np.hstack(rows)
        self._gi = np.linalg.inv(self._kh @ self._kh.conj().T)
        self._idx = np.hstack(idx)
        self._weights = np.array(weights)
        self._q = self._gi.T @ self._kh.conj()
        self._units = tuple(units)
        # the barrier's Hessian reads K(e_j)^H = K(e_j^T) by this permutation
        self._transposed = np.arange(n * n).reshape(n, n).T.reshape(-1)
        # the identity J of the active corners, the identity of the padding,
        # the number of rows of the corners and Phi(J): <Phi(J), y> = trace K(y)
        self._eye = eye
        self._pad = np.eye(side) - self._eye
        self._rows = sum(m * d for _, d, _ in layout)
        self._phi_eye = self._eye.reshape(-1)[self._idx] @ self._kh.T
        # the dual's start: the identity on m (x) n with trace K(Y) = 1
        unit = (np.eye(m)[:, :, None, None] * np.eye(n)).reshape(m * m, n * n)
        self._y0 = unit / np.vdot(self._phi_eye, unit).real
        for arr in (self._kh, self._gi, self._idx, self._weights, self._q, *self._units,
                    self._transposed, self._eye, self._pad, self._phi_eye, self._y0):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _geometry(m: int, n: int, l: int, density: bytes) -> _Geometry:
    """The shared `_Geometry` of level l on legs (m, n), keyed on the exact
    entries of rho's density (the bytes of the complex n x n array), so a
    new `Functional` with the same density finds it."""
    return _Geometry(m, n, l, np.frombuffer(density, dtype=complex).reshape(n, n))


class ExtensionProblem:
    """The level-l sub-extension search for one (a, rho, l).

    The search runs in Schur-Weyl block coordinates.  An S_l-invariant b on
    legs [m, n, ..., n] is a direct sum over the partitions lambda of l with
    at most n rows of blocks B_lambda (x) I_hook(lambda), B_lambda on
    m (x) V_lambda.  The variable for lambda is
    X_lambda = sqrt(hook(lambda)) (I_m (x) W)^T b (I_m (x) W), with W the
    copy basis of lambda (`symmetry.copy_basis`), of side m * weyl(lambda);
    no W is read here, and the blocks are sliced by their sides.  The
    sqrt(hook) weights make the Euclidean norm of the X equal the Frobenius
    norm of b, so the metric projections on the blocks are those on b.  The
    blocks are stored as one zero-padded stack of shape `shape` =
    (k, s, s), with X_lambda in the top-left corner of slice lambda and
    s = m * max weyl.

    `geometry` and the attributes copied from it (`shape`, `_kh`, `_gi`,
    `_idx`, `_weights`, `_q`, and what the barrier search reads: `_units`,
    `_transposed`, `_eye`, `_pad`, `_rows`, `_phi_eye`, `_y0`)
    are built once per (m, n, l, rho density)
    and process (`_geometry`) and shared by every problem there; their
    arrays are read-only.  Only `a`, `_a_blocks` and `_z0` (and the scalar
    `_k_floor`) are built here.
    """

    def __init__(self, a: LeggedOperator, rho: Functional, l: int):
        if len(a.legs) != 2:
            raise ValueError(f"expected a bipartite element with two legs, got {a.legs}")
        check_level(l, "l", 1)
        m, n = a.legs
        _require_dimension(rho, n)
        self.a = a
        self.rho = rho
        self.l = l
        self.m, self.n = m, n
        self._k_floor = rho.least_eig ** (l - 1)  # K(I) >= _k_floor * I
        self.geometry = _geometry(m, n, l, rho.density.tobytes())
        vars(self).update(vars(self.geometry))
        self._a_blocks = a.entries.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
        self._z0 = self._k(self._a_blocks @ self._gi.T)

    def _phi(self, x: np.ndarray) -> np.ndarray:
        """Phi of a block stack, in m-blocks."""
        return x.reshape(-1)[self._idx] @ self._kh.T

    def _k(self, y: np.ndarray) -> np.ndarray:
        """K(y) = Sym(y (x) D^{(x)(l-1)}) of y in m-blocks, as a block stack."""
        out = np.zeros(self.shape, dtype=complex)
        out.reshape(-1)[self._idx] = y @ self._kh.conj()
        return out

    def _blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """The blocks B = X / sqrt(hook) of a block stack (`schur_weyl_block`)."""
        layout = level_layout(self.n, self.l)
        return [
            x[k, : self.m * d, : self.m * d] / weight
            for k, ((_, d, _), weight) in enumerate(zip(layout, self._weights))
        ]

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        """Metric projection of a block stack onto {Phi(b) = a}:
        x + K((a - Phi(x)) G^{-T}), computed as
        x + z0 - scatter((gather(x) kh^T) q) with the precomputed q and z0
        (`_Geometry`).

        Every zero-padded stack is an S_l-invariant b, so invariance needs
        no work here; the correction only touches the blocks, and the
        padding stays as it came in (zero in the solver, because the PSD
        part of a zero-padded block is zero-padded).  Phi and K commute with
        the adjoint, so a Hermitian x gives a Hermitian result.
        """
        out = x + self._z0
        out.reshape(-1)[self._idx] -= self._phi(x) @ self._q
        return out

    def certificate(self, step: np.ndarray) -> Optional[tuple[LeggedOperator, float, float]]:
        """A separating functional read off a block stack (`_certified`):
        the solver's first check, on step = z0 - c, c the PSD part of z0.

        Y is the Hermitian part of the least-squares solution of
        K(Y) = -step, G^{-1} Phi(-step).  For step = z0 - c, K(Y) =
        Pi(c - z0), Pi the orthogonal projector onto range(K): the negative
        part of z0, which is PSD, projected onto range(K), and on most
        clearly infeasible inputs Y already separates.  A shift eps I only
        raises trace(Y a), so a Y with trace(Y a) >= 0 is rejected at once.
        Otherwise one eigvalsh of the stack gives the least eigenvalue of
        K(Y) (block eigenvalue over its sqrt(hook) weight), and since
        K(I) >= lambda_min(D)^{l-1} I, the shift
        eps = max(0, -that) / lambda_min(D)^{l-1} makes K(Y + eps I) PSD.
        Y + eps I then gets the barrier search's rule (`_certified`).
        """
        m, n = self.m, self.n
        y = self._hermitian_part(-self._phi(step) @ self._gi.T)
        if np.vdot(self._a_blocks, y).real >= 0:  # trace(Y a)
            return None
        least = (np.linalg.eigvalsh(self._k(y))[:, 0] / self._weights).min()
        eps = max(0.0, -float(least)) / self._k_floor
        eye = (np.eye(m)[:, :, None, None] * np.eye(n)).reshape(m * m, n * n)  # I, in m-blocks
        return self._certified(y + eps * eye)

    def _certified(self, y: np.ndarray) -> Optional[tuple[LeggedOperator, float, float]]:
        """The one certificate rule, for a Hermitian Y in m-blocks with K(Y)
        PSD: (Y as an operator on m (x) n, margin, t_upper) when the margin
        trace(Y a) / (||Y|| trace(a)) is below -CERTIFICATE_RTOL, else None.
        Then every feasible b would give 0 <= <K(Y), b> = trace(Y a) < 0.
        t_upper = trace(Y a) / <Phi(J), Y> = trace(Y a) / trace K(Y) bounds
        t* from above: X >= t J gives trace(Y a) = <K(Y), X> >= t trace K(Y)."""
        m, n = self.m, self.n
        value = float(np.vdot(self._a_blocks, y).real)
        margin = value / (float(np.linalg.norm(y)) * float(self.a.trace().real))
        if margin >= -CERTIFICATE_RTOL:
            return None
        y_mat = y.reshape(m, m, n, n).transpose(0, 2, 1, 3).reshape(m * n, m * n)
        return LeggedOperator(y_mat, (m, n)), margin, value / float(np.vdot(self._phi_eye, y).real)

    def _hermitian_part(self, y: np.ndarray) -> np.ndarray:
        """(Y + Y^H) / 2 of a Y on m (x) n in m-blocks, in m-blocks."""
        m, n = self.m, self.n
        y = y.reshape(m, m, n, n)
        return ((y + y.transpose(1, 0, 3, 2).conj()) / 2).reshape(m * m, n * n)

    def witness(self, c: np.ndarray, tol: float) -> Optional[tuple[np.ndarray, float]]:
        """An extension read off a block stack c (the PSD part of z0, or a
        primal estimate of the barrier search), with its marginal
        defect: the one place a witness is accepted.

        b = project_affine(c) meets Phi(b) = a to rounding, and its PSD part
        w (one batched eigh of the stack) is PSD and S_l-invariant by
        construction.  Since w - b is the negative part of b and Phi is
        positive, Phi(w) - a = Phi(w - b) is PSD, so the first thing to check
        is its size.  Returns (w, |Phi(w) - a|max / |a|max) when
        |Phi(w) - a|max <= tol |a|max and w passes `validate_witness` at
        10 tol, else None.
        """
        w = psd_part(self.project_affine(c))
        a_max = float(np.abs(self._a_blocks).max())
        dev = float(np.abs(self._phi(w) - self._a_blocks).max())
        if dev > tol * a_max or not self.validate_witness(w, 10 * tol):
            return None
        return w, dev / a_max if a_max > 0 else 0.0

    def validate_witness(self, x: np.ndarray, tol: float) -> bool:
        """Whether the b of a block stack has |Phi(b) - a|max <= tol |a|max
        (the anchor, without which b = 0 would pass), and is PSD with
        Phi(b) <= a: one `linalg._first_non_psd` call over two groups, the
        blocks of b (side m n^l, as for a sequence) and the Hermitian part
        of a - Phi(b) (side m n).  b is S_l-invariant by construction.
        Phi = P^{l-1} runs `transition_blocks` down to level 1, whose one
        block is the marginal: not through `_kh`, which `witness` reads, and
        with no matrix of side m n^l.  The Loewner check reads only the
        Hermitian part: the anti-Hermitian part of the marginal, the rounding
        of a witness far larger than a (under a functional with a small
        eigenvalue), is at most tol |a|max by the anchor check."""
        blocks = marg = self._blocks(x)
        for k in range(self.l, 1, -1):
            marg = transition_blocks(marg, self.m, self.n, k, self.rho.density)
        gap = self.a.entries - marg[0]
        if np.abs(gap).max() > tol * self.a.norm_max():
            return False
        groups = [blocks, [(gap + gap.conj().T) / 2]]
        return _first_non_psd(groups, [self.m * self.n**self.l, self.m * self.n], tol) is None

    def _inverse(self, y: np.ndarray) -> Optional[np.ndarray]:
        """Z = K(y)^{-1} on the active corners, zero-padded, or None when a
        Cholesky factorization shows that K(y) is not positive definite.
        The padding gets the identity first, so the stack factors and
        inverts as a whole, and the padding of the inverse is that identity
        again."""
        k_y = self._k(y) + self._pad
        try:
            np.linalg.cholesky(k_y)
        except np.linalg.LinAlgError:
            return None
        return np.linalg.inv(k_y) - self._pad

    def _hessian(self, z: np.ndarray) -> np.ndarray:
        """The Hessian of -log det K(y) at Z = K(y)^{-1}, from Z in gathered
        coordinates (the m-blocks Z_ai of each block, as `_phi` reads them):
        the matrix of the map y -> Phi(Z K(y) Z) on the (m n)^2 complex
        coordinates of y in m-blocks, built blockwise.

        K(E_ij (x) e) is K(e) in the m-block (i, j), so the m-block (a, b)
        of Z K(E_ij (x) e) Z is Z_ai K(e) Z_jb, and its Phi against the unit
        f is trace(K(e_f)^H Z_ai K(e) Z_jb).  With P[a, i, e] = Z_ai K(e),
        one product per block with the unit blocks side by side (`_units`),
        and K(e_f)^H = K(e_f^T), that is sum over x, v of
        P[a, i, e][x, v] P[j, b, f^T][v, x]: one contraction of P with
        itself.  The cost per block of side m d is m^2 n^2 d^3 + m^4 n^4 d^2,
        against (m n)^2 (m d)^3 for Z K(E) Z on every coordinate E.
        """
        m, nn = self.m, self.n * self.n
        # left[(a, i, e), (x, v)] = P[a, i, e][x, v] and right[..., (x, v)] =
        # P[...][v, x], the blocks side by side along (x, v) as in `_kh`
        left = np.empty((m, m, nn, z.shape[1]), dtype=complex)
        right = np.empty_like(left)
        start = 0
        for units in self._units:
            d = units.shape[0]
            cols = slice(start, start + d * d)
            prod = (z[:, cols].reshape(m * m, d, d) @ units).reshape(m, m, d, nn, d)
            left[..., cols].reshape(m, m, nn, d, d)[...] = prod.transpose(0, 1, 3, 2, 4)
            right[..., cols].reshape(m, m, nn, d, d)[...] = prod.transpose(0, 1, 3, 4, 2)
            start = cols.stop
        total = left.reshape(m * m * nn, -1) @ right.reshape(m * m * nn, -1).T
        # total[a, i, e, j, b, f^T] -> entry ((a, b, f), (i, j, e))
        hess = total.reshape(m, m, nn, m, m, nn)[..., self._transposed].transpose(0, 4, 5, 1, 3, 2)
        return hess.reshape(m * m * nn, m * m * nn)

    def _may_be_psd(self, x: np.ndarray, tol: float) -> bool:
        """The screen before a witness try: whether x + eps J, eps = 10 tol
        max(1, |x|max), has a Cholesky factor (one factorization of the
        stack, padding set to the identity).  A primal estimate far from
        the PSD cone fails it and skips the eigh, the affine projection and
        the checks of `witness`; one that passes still gets all of them."""
        eps = 10 * tol * max(1.0, float(np.abs(x).max()))
        try:
            np.linalg.cholesky(x + eps * self._eye + self._pad)
        except np.linalg.LinAlgError:
            return False
        return True

    def barrier_search(self, tol: float, steps: int, history: list) -> tuple:
        """The dual of the search by a log-barrier method (Boyd and
        Vandenberghe, *Convex Optimization*, 2004, section 11).

        Primal: max t s.t. Phi(X) = a and X >= t J, J the identity of the
        active corners; a is level-l extendable exactly when t* >= 0.  Dual:
        min trace(Y a) s.t. K(Y) >= 0 and trace K(Y) = <Phi(J), Y> = 1, over
        Hermitian Y on m (x) n, (m n)^2 real coordinates whatever l is.  For
        a barrier weight mu the search takes damped Newton steps on
        trace(Y a) / mu - sum_lambda log det K_lambda(Y) under the equality,
        from Y = I scaled to it and mu = trace(Y a) / `_rows`: step
        1 / (1 + delta) while the decrement delta is at least
        DAMPED_DECREMENT, and mu / BARRIER_SHRINK after a step with delta
        below CENTRED_DECREMENT.  Every iterate is Hermitian, rescaled onto
        the equality and shown positive definite by a Cholesky factorization
        (`_inverse`).

        Both answers are read off each step and checked as the first check's
        are:
        - the primal estimate X = mu (Z - Z K(dY) Z) + t J, with Z = K(Y)^{-1},
          dY the Newton step and t = -mu times the multiplier of the
          equality, has Phi(X) = a to rounding, and X - t J >= 0 when
          delta < 1.  Once t >= -10 tol it is screened by one Cholesky
          factorization (`_may_be_psd`) and, if it passes, goes through
          `witness`;
        - each iterate, K(Y) > 0, goes through `_certified`.

        The bracket's lower end comes from the same solve at any delta.  The
        Hessian H maps y to Phi(Z K(y) Z), so H y = Phi(Z) and H^{-1} a =
        (H^{-1} grad + y) mu.  With kappa = <c, H^{-1} a>, cc = <c, H^{-1} c>
        and quad = <a, H^{-1} a> - kappa^2 / cc, the step at weight 1 / s
        instead of mu has t(s) = (kappa - 1 / s) / cc, increasing in s, and
        delta(s)^2 = quad s^2 - 2 s (trace(Y a) - kappa / cc) + `_rows` -
        1 / cc.  At the larger root s+ of delta(s) = 1 the estimate X(s+)
        has Phi(X(s+)) = a and X(s+) >= t(s+) J, so t(s+) <= t*; at
        s = 1 / mu, delta(s) is the step's delta and t(s) its t.

        Appends the duality gap trace(Y a) - t of each step to `history`, and
        returns (stop, found, t_lower, t_upper): stop is "tol" with found =
        (w, defect), "certificate" with found = `_certified(Y)`, or
        "max_iterations" with found None, after `steps` steps or at a
        breakdown (a singular Newton system or an iterate that is not
        positive definite).  t_upper = trace(Y a) of the last iterate and
        t_lower = the largest t(s+) over the steps bracket t* (None when no
        step had a root).
        """
        m, n = self.m, self.n
        a, c = self._a_blocks, self._phi_eye
        y = self._y0
        z = self._inverse(y)
        if z is None:  # K(I) >= lambda_min(D)^(l-1) I is too close to singular
            return "max_iterations", None, None, None
        upper = float(np.vdot(a, y).real)
        mu = upper / self._rows
        lower = None
        for _ in range(steps):
            z_gathered = z.reshape(-1)[self._idx]
            grad = a / mu - z_gathered @ self._kh.T  # a / mu - Phi(Z)
            try:
                hess = self._hessian(z_gathered)
                sol = np.linalg.solve(hess, np.stack([grad.ravel(), c.ravel()], axis=1))
            except np.linalg.LinAlgError:
                break
            step_c, cc = np.vdot(c, sol[:, 0]).real, np.vdot(c, sol[:, 1]).real
            w = -step_c / cc
            dy = -(sol[:, 0] + w * sol[:, 1]).reshape(m * m, n * n)
            dec = math.sqrt(max(0.0, -np.vdot(grad, dy).real))
            if not (math.isfinite(dec) and math.isfinite(w)):
                break
            t = -mu * w
            history.append(upper - t)
            # t(s) and delta(s) for this Y, off the same solve: H^{-1} a =
            # (H^{-1} grad + y) mu, and quad = <a, H^{-1} a> - kappa^2 / cc is
            # read off the part of H^{-1} a off H^{-1} c, since the difference
            # of the two scalars cancels near t*
            kappa = mu * (step_c + 1.0)  # <c, H^{-1} a>, as <c, y> = 1
            off_c = mu * (sol[:, 0] + y.ravel()) - kappa / cc * sol[:, 1]
            quad = max(0.0, np.vdot(a, off_c).real)
            lin = upper - kappa / cc
            disc = lin * lin - quad * (self._rows - 1.0 / cc - 1.0)
            root = lin + math.sqrt(disc) if disc >= 0 else 0.0
            if root > 0:  # t(s) at the larger root s of delta(s) = 1, 1 / s = quad / root
                bound = (kappa - quad / root) / cc
                lower = bound if lower is None else max(lower, bound)
            if t >= -10 * tol:
                x = mu * (z - z @ self._k(dy) @ z)
                x = (x + x.conj().swapaxes(1, 2)) / 2 + t * self._eye
                if self._may_be_psd(x, tol):
                    found = self.witness(x, tol)
                    if found is not None:
                        return "tol", found, lower, upper
            y = self._hermitian_part(y + (dy if dec < DAMPED_DECREMENT else dy / (1 + dec)))
            y = y / np.vdot(c, y).real
            if dec < CENTRED_DECREMENT:
                mu /= BARRIER_SHRINK
            z = self._inverse(y)
            if z is None:
                break
            upper = float(np.vdot(a, y).real)
            found = self._certified(y)
            if found is not None:
                return "certificate", found, lower, upper
        return "max_iterations", None, lower, upper


def sub_extension_feasibility(
    a: LeggedOperator,
    rho: Functional,
    l: int,
    opts: SolverOptions = SolverOptions(),
) -> FeasibilityReport:
    """The level-l sub-extension search: a first check on the least-norm
    solution z0 of Phi(b) = a, then a log-barrier interior-point method on
    the dual.

    The search solves for a / tr(a), so its residuals and tolerance are
    relative to the normalized problem and a verdict does not depend on the
    overall scale of a.  The iterates are block stacks (`ExtensionProblem`),
    so invariance is built in.

    The first check reads both answers off z0 = project_affine(0), the
    least-norm b with Phi(b) = a, and its PSD part c = psd_part(z0), in
    this order:

    - z0 - c yields a checked separating functional (`certificate`, see
      `ExtensionProblem.certificate`): the verdict is
      `infeasible_at_tolerance` and the report carries it and t_upper;
    - c yields an extension w whose marginal defect |Phi(w) - a|max is at
      most tol |a|max (`tol`, see `ExtensionProblem.witness`) and which
      passes `validate_witness` in blocks at 10 tol: the verdict is
      `feasible` and the report carries w's blocks times tr(a)
      (`FeasibilityReport`); no object of side m n^l is formed unless
      `report.witness` is read.

    Most clearly infeasible inputs, and some easy feasible ones, end there.
    Otherwise the search goes on with at most max_iterations - 1 Newton
    steps of `ExtensionProblem.barrier_search`, whose answers get the same
    checks; the report then carries the bracket on t*.  A run that ends
    with neither answer is `max_iterations`.
    """
    a.require_hermitian("sub_extension_feasibility")
    if not is_psd(a):
        raise ValueError("input element must be PSD")
    scale = a.trace().real
    if scale <= 0:
        scale = 1.0  # a PSD a of zero trace is 0, which solves in one step
    prob = ExtensionProblem(a * (1.0 / scale), rho, l)
    z0 = prob._z0  # project_affine(0)
    c = psd_part(z0)
    history = [float(np.linalg.norm(z0 - c))]
    lower = upper = None
    stop, found = "certificate", prob.certificate(z0 - c)
    if found is None:
        stop, found = "tol", prob.witness(c, opts.tol)
    if found is None:
        stop, found, lower, upper = prob.barrier_search(opts.tol, opts.max_iterations - 1, history)
    verdict, blocks, source, certificate, margin = "max_iterations", None, None, None, None
    final = history[-1]
    if stop == "tol":
        w, final = found
        normalized = tuple(prob._blocks(w))
        blocks = tuple(b * scale for b in normalized)
        for b in normalized + blocks:
            b.setflags(write=False)
        source = (prob.m, prob.n, scale, normalized)
        verdict = "feasible"
    elif stop == "certificate":
        verdict = "infeasible_at_tolerance"
        certificate, margin, upper = found
    return FeasibilityReport(
        verdict, blocks, final, tuple(history), len(history), l,
        stop_reason=stop, certificate=certificate, certificate_margin=margin,
        t_lower=None if lower is None else lower * scale,
        t_upper=None if upper is None else upper * scale,
        witness_source=source,
    )


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class SeparabilityReport:
    verdict: str  # "separable_evidence" | "entangled_evidence" | "undetermined"
    levels: dict[int, FeasibilityReport]
    ppt_min_eig: Optional[float] = None

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "levels": {str(l): r.to_json() for l, r in self.levels.items()},
        }
        if self.ppt_min_eig is not None:
            out["ppt_min_eig"] = self.ppt_min_eig
        return out


def separability_verdict(
    a: LeggedOperator,
    rho: Functional,
    max_l: int = 3,
    opts: SolverOptions = SolverOptions(),
) -> SeparabilityReport:
    """Run the hierarchy for l = 2..max_l and aggregate the evidence.

    A level that is `infeasible_at_tolerance` carries a checked separating
    functional, so it proves that a is not level-l extendable, hence
    entangled (`entangled_evidence`).  All-feasible is finite evidence of
    separability only (no finite level is conclusive); anything else is
    `undetermined`.
    """
    check_level(max_l, "max_l", 2)
    reports = {}
    for l in range(2, max_l + 1):
        reports[l] = sub_extension_feasibility(a, rho, l, opts)
    verdicts = {r.verdict for r in reports.values()}
    if "infeasible_at_tolerance" in verdicts:
        overall = "entangled_evidence"
    elif verdicts == {"feasible"}:
        overall = "separable_evidence"
    else:
        overall = "undetermined"
    ppt = ppt_min_eig(a) if tuple(a.legs) in PPT_EXACT_DIMS else None
    return SeparabilityReport(overall, reports, ppt)


@dataclass(frozen=True)
class ProbeResult:
    is_product: bool
    a: LeggedOperator
    b: LeggedOperator


def product_probe(seq: SymSequence) -> ProbeResult:
    """Detect the product normal form x_l = a (x) b^{(x)l} of an extreme ray.

    The candidate b is recovered from x_1 by tracing out the m-leg and
    normalizing by trace(x_0); a is x_0 itself.  Level l is a product when
    ||x_l - a (x) b^{(x)l}||_F <= PSD_TOL ||x_l||_F, read in blocks: x_l is the
    direct sum of B_lam (x) I_hook, so the squares are sums of hook times
    ||B_lam - a (x) pi_lam(b)||_F^2 and ||B_lam||_F^2, pi_lam(b) from the copy
    chain (`symmetry._power_blocks`).  A sequence with an entry that is not
    S_l-invariant (`SymSequence.asymmetric_level`) is not a product.
    """
    if seq.L < 2:
        raise ValueError("product probe needs a prefix of length at least 2")
    x0 = seq.entry(0)
    tr0 = x0.trace().real
    if tr0 <= 0:
        raise ValueError(f"level-0 entry has trace {tr0:.3e}; need a positive trace")
    b = contract_legs(seq.entry(1), Functional.trace(seq.m), [0]) * (1.0 / tr0)
    if seq.asymmetric_level is not None:
        return ProbeResult(False, x0, b)
    models = _power_blocks(b.entries, seq.L)
    for l in range(1, seq.L + 1):  # level 0's model is x_0 itself
        dev = norm = 0.0
        # zip draws from `models` last, so it stops at the level's end
        for (_, _, hook), block, (_, pi) in zip(level_layout(seq.n, l), seq.blocks(l), models):
            dev += hook * np.linalg.norm(block - np.kron(x0.entries, pi)) ** 2
            norm += hook * np.linalg.norm(block) ** 2
        if dev > PSD_TOL**2 * norm:
            return ProbeResult(False, x0, b)
    return ProbeResult(True, x0, b)


def ppt_min_eig(a: LeggedOperator) -> float:
    """Minimum eigenvalue of the partial transpose on the second leg."""
    return min_eig(partial_transpose(a, 1))


def werner_element(p: float) -> LeggedOperator:
    """2x2 Werner family p |psi-><psi-| + (1-p) I/4."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1 / math.sqrt(2)
    psi[2] = -1 / math.sqrt(2)
    mat = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4
    return LeggedOperator(mat, (2, 2))


def bell_projector() -> LeggedOperator:
    """|phi+><phi+| on 2 (x) 2."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    return LeggedOperator(np.outer(psi, psi.conj()), (2, 2))
