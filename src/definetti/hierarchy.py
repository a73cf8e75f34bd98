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
validated against a on the full legs.  `infeasible_at_tolerance` ships a
separating functional (the dual of Doherty, Parrilo and Spedalieri): a
Hermitian Y on m (x) n with Sym(Y (x) D^{(x)(l-1)}) PSD and trace(Y a) < 0,
so that every feasible b would give
0 <= <Sym(Y (x) D^{(x)(l-1)}), b> = trace(Y Phi(b)) = trace(Y a).
A run that ends with neither is `max_iterations`.  The search is
Douglas-Rachford splitting with safeguarded Anderson acceleration
(`sub_extension_feasibility`); the acceleration changes how fast an answer
comes, never how it is checked.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    PSD_TOL,
    Functional,
    LeggedOperator,
    _hermitian,
    _psd,
    contract_legs,
    is_psd,
    loewner_leq,
    min_eig,
    partial_transpose,
    psd_part,
    tensor,
    tensor_power,
)
from .symmetry import (
    MAX_LEVEL,
    Symmetrizer,
    _kron,
    chain_blocks,
    copy_bases,
    from_schur_weyl_blocks,
    partitions_of,
    schur_weyl_block,
    transition_blocks,
)

#: dimensions where the PPT criterion is an exact separability test
PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}

#: at every step k that is a power of two or a multiple of CERTIFICATE_PERIOD
#: (`is_checkpoint`) the DR loop tries to read a separating functional off its
#: step T(z) - z (`ExtensionProblem.certificate`), then an extension off the
#: PSD part of z (`ExtensionProblem.witness`): densely early, where most
#: solves end, and every CERTIFICATE_PERIOD steps later on
CERTIFICATE_PERIOD = 25
#: a certificate Y is accepted when trace(Y a) < -CERTIFICATE_RTOL ||Y|| trace(a),
#: far above the rounding of trace(Y a) and of the eigenvalues behind Y
CERTIFICATE_RTOL = 1e-9
#: after each DR step the loop mixes the differences of its last
#: ANDERSON_MEMORY steps into the next point (`_Anderson`)
ANDERSON_MEMORY = 10
#: Tikhonov weight of the mixing least squares, relative to the summed squared
#: norms of the differences it mixes; it keeps the mix near plain DR where the
#: iterates drift without converging, as on an infeasible problem
ANDERSON_REGULARIZATION = 1e-8
#: a mixed point whose residual ||T(z) - z|| is more than ANDERSON_SAFEGUARD
#: times the previous one is dropped, and the loop restarts from the plain DR
#: point before it
ANDERSON_SAFEGUARD = 2.0


def is_checkpoint(k: int) -> bool:
    """Whether DR step k >= 1 tries both answers: k = 1, 2, 4, 8, 16, 25, 32,
    50, 64, 75, ..."""
    return k & (k - 1) == 0 or k % CERTIFICATE_PERIOD == 0


class SymSequence:
    """Finite prefix (x_0, ..., x_L) of a candidate sub-martingale sequence.

    Entry l lives on legs [m, n, ..., n] with l copies of n.  Every check
    reads a level as its Schur-Weyl blocks, `blocks(l)`: B_lambda =
    (I_m (x) W)^T x_l (I_m (x) W) per partition lambda of l with at most n
    rows, in `partitions_of` order (`symmetry.schur_weyl_block`).  A sequence
    is given either densely, `SymSequence(m, n, rho, entries)`, whose blocks
    are compressed from the entries when first read, or by its blocks,
    `SymSequence.from_blocks`, whose dense `entries` are rebuilt
    (`symmetry.from_schur_weyl_blocks`) only when first read.  The blocks
    of a dense entry hold only its S_l-invariant part; `validate_k_prefix`
    checks that part is all of it.
    """

    def __init__(self, m: int, n: int, rho: Functional, entries):
        entries = tuple(entries)
        for l, x in enumerate(entries):
            want = (m,) + (n,) * l
            if x.legs != want:
                raise ValueError(f"entry {l} has legs {x.legs}, expected {want}")
        self._init(m, n, rho, len(entries))
        self._entries[:] = entries
        self.given_densely = True

    def _init(self, m: int, n: int, rho: Functional, levels: int) -> None:
        if not levels:
            raise ValueError("sequence needs at least the level-0 entry")
        if rho.dim != n:
            raise ValueError(f"functional dimension {rho.dim} does not match n={n}")
        self.m, self.n, self.rho = int(m), int(n), rho
        # per-level caches, shared with `with_rho` copies: neither depends on rho
        self._entries: list[Optional[LeggedOperator]] = [None] * levels
        self._blocks: list[Optional[tuple[np.ndarray, ...]]] = [None] * levels

    @classmethod
    def from_blocks(cls, m: int, n: int, rho: Functional, blocks) -> "SymSequence":
        """The sequence whose level l has the Schur-Weyl blocks blocks[l];
        raises ValueError on a wrong count or side of blocks at some level."""
        seq = cls.__new__(cls)
        seq._init(m, n, rho, len(blocks))
        for l, level in enumerate(blocks):
            parts = list(partitions_of(l, max_parts=n))
            level = tuple(np.array(b, dtype=complex) for b in level)
            if len(level) != len(parts):
                raise ValueError(f"level {l} on n={n} has {len(parts)} blocks, got {len(level)}")
            for lam, b in zip(parts, level):
                side = m * lam.weyl_dimension(n)
                if b.shape != (side, side):
                    raise ValueError(
                        f"block {list(lam.parts)} of level {l} has shape {b.shape}, "
                        f"expected {(side, side)}"
                    )
                b.setflags(write=False)
            seq._blocks[l] = level
        seq.given_densely = False
        return seq

    @property
    def L(self) -> int:
        return len(self._blocks) - 1

    def blocks(self, l: int) -> tuple[np.ndarray, ...]:
        """The Schur-Weyl blocks of level l, read-only; computed once from a
        dense entry."""
        if self._blocks[l] is None:
            x = self._entries[l].entries
            level = tuple(
                schur_weyl_block(x, self.m, self.n, lam)
                for lam in partitions_of(l, max_parts=self.n)
            )
            for b in level:
                b.setflags(write=False)
            self._blocks[l] = level
        return self._blocks[l]

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
        if rho.dim != self.n:
            raise ValueError(f"functional dimension {rho.dim} does not match n={self.n}")
        out = copy.copy(self)
        out.rho = rho
        return out


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    condition: Optional[str] = None  # "symmetry" | "psd" | "sub_martingale"
    level: Optional[int] = None
    detail: str = ""


def _is_invariant(sym: Symmetrizer, mat: np.ndarray, tol: float) -> bool:
    """S_l-invariance: |Sym mat - mat|max <= tol * max(1, |mat|max)."""
    dev = np.abs(sym.apply_matrix(mat) - mat).max()
    return dev <= tol * max(1.0, float(np.abs(mat).max()))


def _asymmetric_level(seq: SymSequence) -> Optional[int]:
    """The first level l >= 2 whose entry was given densely and is not
    S_l-invariant (`_is_invariant` at PSD_TOL), else None.  A sequence
    given by its blocks is invariant by construction and is not rebuilt."""
    if not seq.given_densely:
        return None
    for l in range(2, seq.L + 1):
        x = seq.entry(l)
        if not _is_invariant(Symmetrizer(x.legs, range(1, l + 1)), x.entries, PSD_TOL):
            return l
    return None


def _block_diag(blocks) -> np.ndarray:
    side = sum(b.shape[0] for b in blocks)
    out = np.zeros((side, side), dtype=complex)
    k = 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


def validate_k_prefix(seq: SymSequence) -> ValidationReport:
    """Check, in this order, S_l-invariance, PSD entries and the
    sub-martingale condition x_l >= P(x_{l+1}), and report the first
    violated condition with the level where it fails.

    Invariance comes first, and only for entries at l >= 2 given densely
    (`_asymmetric_level`): the other two checks read the Schur-Weyl blocks,
    which hold only a dense entry's invariant part.  In Schur-Weyl
    coordinates x_l is the direct sum of B_lambda (x) I_hook, so x_l is
    Hermitian and PSD exactly when the block-diagonal matrix of its blocks
    is; that matrix gets the Hermitian rule and the PSD rule
    (`linalg._hermitian`, `linalg._psd`) with the dense side m n^l in the
    tolerance.  The sub-martingale check applies the PSD rule in the same
    way to the blocks of x_l - P(x_{l+1}), P in blocks
    (`symmetry.transition_blocks`); no dense entry is formed.
    """
    m, n = seq.m, seq.n
    l = _asymmetric_level(seq)
    if l is not None:
        return ValidationReport(
            False, "symmetry", l, f"entry {l} is not S_{l}-invariant at tol {PSD_TOL}"
        )
    for l in range(seq.L + 1):
        x = _block_diag(seq.blocks(l))
        if not (_hermitian(x) and _psd(x, PSD_TOL, m * n**l)):
            return ValidationReport(False, "psd", l, f"entry {l} is not PSD at tol {PSD_TOL}")
    for l in range(seq.L):
        upper = transition_blocks(seq.blocks(l + 1), m, n, l + 1, seq.rho.density)
        gap = _block_diag([x - u for x, u in zip(seq.blocks(l), upper)])
        if not _psd(gap, PSD_TOL, m * n**l):
            return ValidationReport(
                False,
                "sub_martingale",
                l,
                f"contraction of entry {l + 1} is not dominated by entry {l}",
            )
    return ValidationReport(True)


# -- feasibility solver -----------------------------------------------------


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-7
    max_iterations: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True)
class FeasibilityReport:
    """One level of the hierarchy: the verdict and what it rests on.

    `final_residual` is the quantity the verdict rests on.  For `feasible`
    it is the witness's relative marginal defect |Phi(b) - a|max / |a|max,
    at most the solver's tol.  Otherwise it is the last fixed-point
    residual ||T(z) - z|| of the DR map, relative to trace(a), the last
    entry of `residual_history`.  `restarts` counts the mixed points the
    solver dropped for plain DR steps (`_Anderson`): how often the
    acceleration backed off.
    """

    # "feasible" (with a checked witness) | "infeasible_at_tolerance" (with a
    # checked certificate) | "max_iterations" (neither)
    verdict: str
    witness: Optional[LeggedOperator]
    final_residual: float
    residual_history: tuple[float, ...]
    iterations: int
    level: int
    stop_reason: str  # "tol" | "certificate" | "max_iterations"
    certificate: Optional[LeggedOperator]  # separating functional Y on (m, n)
    certificate_margin: Optional[float]  # trace(Y a) / (||Y|| trace(a)) < 0
    restarts: int = 0  # safeguard restarts of the Anderson mixing (`_Anderson`)

    def to_json(self) -> dict:
        from .serialize import operator_to_json

        out = {
            "verdict": self.verdict,
            "stop_reason": self.stop_reason,
            "final_residual": self.final_residual,
            "iterations": self.iterations,
            "level": self.level,
            "residual_history": list(self.residual_history),
            "certificate": None if self.certificate is None else operator_to_json(self.certificate),
            "certificate_margin": self.certificate_margin,
            "restarts": self.restarts,
        }
        if self.witness is not None:
            out["witness"] = operator_to_json(self.witness)
        return out


#: solver geometries kept per process (`_geometry`); a scan over levels
#: 2..5 under one functional uses four
GEOMETRY_CACHE_SIZE = 8


class _Geometry:
    """Everything the level-l solver precomputes that does not depend on a:
    the symmetrizer, the copy bases, the Gram rows `_kh` of K, G^{-1} and
    the right factor `_q` of the affine projector.  Its arrays are
    read-only, because every problem at the same (m, n, l, rho) shares them
    (`_geometry`).

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
    matrix on the blocks.  No K(e_j) of side n^l is formed (`chain_blocks`).
    """

    def __init__(self, m: int, n: int, l: int, density: np.ndarray):
        self.big_legs = (m,) + (n,) * l
        self.sym = Symmetrizer(self.big_legs, range(1, l + 1))
        bases = copy_bases(n, l)
        def grow(x):  # S_k(e) = S_{k-1}(e) (x) D + D^{(x)(k-1)} (x) e
            y = _kron(x, density)
            y[1:] += _kron(x[0], np.eye(n * n).reshape(-1, n, n))
            return y
        # per partition lam of l: pi_lam(D) atop the blocks S_lam(e_j) = l K(e_j)
        walk = chain_blocks(n, l, np.eye(n * n + 1, 1)[:, :, None], grow)
        stacks = [x for lam, x in walk if lam.size == l]
        side = m * max(w.shape[1] for _, w in bases)
        self.shape = (len(bases), side, side)
        self._copies, rows, idx = [], [], []
        for k, ((lam, w), x) in enumerate(zip(bases, stacks)):
            weight, d = math.sqrt(lam.hook_dimension()), w.shape[1]
            self._copies.append((weight, w))
            rows.append(weight * x[1:].conj().reshape(n * n, d * d) / l)
            # stack position of entry (alpha, beta) of the m-block (i, j) of X
            r = np.arange(m)[:, None] * d + np.arange(d)
            pos = k * side * side + r[:, None, :, None] * side + r[None, :, None, :]
            idx.append(pos.reshape(m * m, d * d))
        self._kh = np.hstack(rows)
        self._gi = np.linalg.inv(self._kh @ self._kh.conj().T)
        self._idx = np.hstack(idx)
        self._weights = np.array([weight for weight, _ in self._copies])
        self._q = self._gi.T @ self._kh.conj()
        # the copy bases are read-only already (`symmetry.copy_bases`)
        for arr in (self._kh, self._gi, self._idx, self._weights, self._q):
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
    copy basis of lambda (`copy_bases`), of side m * weyl(lambda).  The
    sqrt(hook) weights make the Euclidean norm of the X equal the Frobenius
    norm of b, so Douglas-Rachford on the blocks takes exactly the steps of
    Douglas-Rachford on b.  The blocks are stored as one zero-padded stack
    of shape `shape` = (k, s, s), with X_lambda in the top-left corner of
    slice lambda and s = m * max weyl.

    `geometry` and the attributes copied from it (`big_legs`, `sym`,
    `_copies`, `shape`, `_kh`, `_gi`, `_idx`, `_weights`, `_q`)
    are built once per (m, n, l, rho density) and process (`_geometry`) and
    shared by every problem there; their arrays are read-only.  Only `a`,
    `_a_blocks` and `_z0` (and the scalar `_k_floor`) are built here.
    """

    def __init__(self, a: LeggedOperator, rho: Functional, l: int):
        if len(a.legs) != 2:
            raise ValueError(f"expected a bipartite element with two legs, got {a.legs}")
        if l < 1:
            raise ValueError("extension level must be at least 1")
        if l > MAX_LEVEL:
            raise ValueError(f"level {l} exceeds the level bound {MAX_LEVEL}")
        m, n = a.legs
        if rho.dim != n:
            raise ValueError(f"functional dimension {rho.dim} does not match n={n}")
        self.a = a
        self.rho = rho
        self.l = l
        self.m, self.n = m, n
        self._trailing = list(range(2, l + 1))
        self._k_floor = rho.least_eig ** (l - 1)  # K(I) >= _k_floor * I
        self.geometry = _geometry(m, n, l, rho.density.tobytes())
        vars(self).update(vars(self.geometry))
        self._a_blocks = a.entries.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
        self._z0 = self._k(self._a_blocks @ self._gi.T)

    # Phi contracts the trailing l-1 legs with rho.
    def phi(self, b_mat: np.ndarray) -> np.ndarray:
        if not self._trailing:
            return b_mat
        x = LeggedOperator(b_mat, self.big_legs)
        return contract_legs(x, self.rho, self._trailing).entries

    def _phi(self, x: np.ndarray) -> np.ndarray:
        """Phi of a block stack, in m-blocks."""
        return x.reshape(-1)[self._idx] @ self._kh.T

    def _k(self, y: np.ndarray) -> np.ndarray:
        """K(y) = Sym(y (x) D^{(x)(l-1)}) of y in m-blocks, as a block stack."""
        out = np.zeros(self.shape, dtype=complex)
        out.reshape(-1)[self._idx] = y @ self._kh.conj()
        return out

    def to_dense(self, x: np.ndarray) -> np.ndarray:
        """The S_l-invariant b of a block stack, whose blocks are
        B = X / sqrt(hook) (`from_schur_weyl_blocks`)."""
        blocks = []
        for k, (weight, w) in enumerate(self._copies):
            side = self.m * w.shape[1]
            blocks.append(x[k, :side, :side] / weight)
        return from_schur_weyl_blocks(blocks, self.m, self.n, self.l)

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        """Metric projection of a block stack onto {Phi(b) = a}:
        x + K((a - Phi(x)) G^{-T}), computed as
        x + z0 - scatter((gather(x) kh^T) q) with the precomputed q and z0
        (`_Geometry`).

        Every zero-padded stack is an S_l-invariant b, so invariance needs
        no work here; the correction only touches the blocks, and the
        padding stays as it came in (zero in the DR loop, because the PSD
        part of a zero-padded block is zero-padded).  Phi and K commute with
        the adjoint, so a Hermitian x gives a Hermitian result.
        """
        out = x + self._z0
        out.reshape(-1)[self._idx] -= self._phi(x) @ self._q
        return out

    def certificate(self, step: np.ndarray) -> Optional[tuple[LeggedOperator, float]]:
        """A separating functional read off a DR step, with its margin.

        On an infeasible problem the DR step T(z) - z tends to the gap
        vector between the PSD cone and the affine set (Banjac et al., JOTA
        183, 2019), which is -K(Y) for a separating Y; at a mixed point too,
        since the mixing then stays near plain DR (`_Anderson`).  Y is the
        least-squares solution of K(Y) = -step, G^{-1} Phi(-step).  One
        eigvalsh of the stack gives the least eigenvalue of K(Y) (block
        eigenvalue over its sqrt(hook) weight), and since
        K(I) >= lambda_min(D)^{l-1} I, adding
        eps I with eps = max(0, -that) / lambda_min(D)^{l-1} makes K(Y) PSD
        (`_shift`).  eps only raises trace(Y a), so a Y with trace(Y a) >= 0
        is rejected before the eigvalsh.  So is a Y that the shift read off
        the stack's diagonal already lifts to trace(Y a) >= 0: a block's
        diagonal entries bound its least eigenvalue from above, so that
        shift is at most eps (the padding's zero diagonal only lowers it).
        Returns (Y, trace(Y a) / (||Y|| trace(a))) when that margin is below
        -CERTIFICATE_RTOL, else None.
        """
        m, n = self.m, self.n
        y = (-self._phi(step) @ self._gi.T).reshape(m, m, n, n)
        y = (y + y.transpose(1, 0, 3, 2).conj()) / 2  # Hermitian part, in m-blocks
        value = float(np.vdot(self._a_blocks, y).real)  # trace(Y a)
        if value >= 0:
            return None
        k_y = self._k(y.reshape(m * m, n * n))
        tr_a = float(self.a.trace().real)
        if value + self._shift(np.diagonal(k_y, axis1=1, axis2=2).real) * tr_a >= 0:
            return None
        eps = self._shift(np.linalg.eigvalsh(k_y))
        y_mat = y.transpose(0, 2, 1, 3).reshape(m * n, m * n) + eps * np.eye(m * n)
        margin = (value + eps * tr_a) / (float(np.linalg.norm(y_mat)) * tr_a)
        if margin >= -CERTIFICATE_RTOL:
            return None
        return LeggedOperator(y_mat, (m, n)), margin

    def _shift(self, values: np.ndarray) -> float:
        """max(0, -least) / lambda_min(D)^{l-1}, with least the minimum over
        the blocks of the least entry of the block's row of `values` over
        its sqrt(hook) weight."""
        least = (values.min(axis=1) / self._weights).min()
        return max(0.0, -float(least)) / self._k_floor

    def witness(self, c: np.ndarray, tol: float) -> Optional[tuple[np.ndarray, float]]:
        """An extension read off a DR iterate, with its marginal defect.

        b = project_affine(c) meets Phi(b) = a to rounding, and its PSD part
        w (one batched eigh of the stack) is PSD and S_l-invariant by
        construction.  Since w - b is the negative part of b and Phi is
        positive, Phi(w) - a = Phi(w - b) is PSD, so the only thing to check
        is its size.  Returns (w, |Phi(w) - a|max / |a|max) when
        |Phi(w) - a|max <= tol |a|max, else None.
        """
        w = psd_part(self.project_affine(c))
        a_max = float(np.abs(self._a_blocks).max())
        dev = float(np.abs(self._phi(w) - self._a_blocks).max())
        if dev > tol * a_max:
            return None
        return w, dev / a_max if a_max > 0 else 0.0

    def validate_witness(self, witness: LeggedOperator, tol: float) -> bool:
        """PSD, S_l-invariant, Phi(b) <= a, and |Phi(b) - a|max <= tol |a|max:
        the anchor, without which b = 0 would pass."""
        if not is_psd(witness, tol) or not _is_invariant(self.sym, witness.entries, tol):
            return False
        marg = LeggedOperator(self.phi(witness.entries), (self.m, self.n))
        if np.abs(marg.entries - self.a.entries).max() > tol * self.a.norm_max():
            return False
        return loewner_leq(marg, self.a, tol)


def _real(x: np.ndarray) -> np.ndarray:
    """The flat float view of a contiguous complex array: its dot products
    are the real Frobenius inner products Re trace(x^H y)."""
    return x.reshape(-1).view(np.float64)


class _Anderson:
    """Safeguarded type-II Anderson mixing of a fixed-point map T (Walker and
    Ni, SIAM J. Numer. Anal. 49, 2011; Zhang, O'Donoghue and Boyd, SIAM J.
    Optim. 30, 2020).

    `update(g, f, residual)` takes g = T(z) and f = g - z at the point z
    just evaluated, with residual = ||f||, and returns the next point
    g - sum_i gamma_i dg_i.  The dg_i and df_i are the differences of
    consecutive g and f over the last ANDERSON_MEMORY evaluations, and gamma
    minimizes ||f - sum_i gamma_i df_i||^2 + reg ||gamma||^2, with
    reg = ANDERSON_REGULARIZATION sum_i (||df_i||^2 + ||dg_i||^2), the
    weight of Zhang et al. with the dg_i in place of the differences of the
    points.  Where the iterates drift without converging, as on an
    infeasible problem, the dg_i tend to the gap vector while the df_i
    vanish, so this weight keeps the mix near plain DR instead of
    extrapolating along the drift.  Inner products are real Frobenius
    products (`_real`), so gamma is real and Hermitian g give Hermitian
    points.  The Gram matrix of the df_i gains one row per evaluation, and
    the differences live in ring buffers allocated at the first difference,
    so nothing of the size of z is allocated after that.

    Safeguard: when the point just evaluated was mixed and its residual is
    more than ANDERSON_SAFEGUARD times the previous one, the mix is dropped.
    The next point is then the previous plain DR point, T of the point
    before, and the memory is cleared (`restarts` counts these).
    """

    def __init__(self):
        self.restarts = 0
        self._prev = None  # (g, `_real` views of g and f, residual) of the last evaluation
        self._mixed = False  # whether the last evaluated point was mixed
        self._count = 0  # differences stored since the last (re)start
        self._df = None

    def update(self, g: np.ndarray, f: np.ndarray, residual: float) -> np.ndarray:
        prev = self._prev
        if self._mixed and residual > ANDERSON_SAFEGUARD * prev[3]:
            self.restarts += 1
            self._prev, self._mixed, self._count = None, False, 0
            return prev[0]
        gv, fv = _real(g), _real(f)
        self._prev, self._mixed = (g, gv, fv, residual), False
        if prev is None:
            return g
        if self._df is None:
            self._df = np.empty((ANDERSON_MEMORY, gv.size))
            self._dg = np.empty_like(self._df)
            self._gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
            self._sq = [0.0] * ANDERSON_MEMORY  # ||df_i||^2 + ||dg_i||^2
            self._mix = np.empty(gv.size)
            self._z = np.empty_like(g)
            self._zv = _real(self._z)
        slot = self._count % ANDERSON_MEMORY
        self._count += 1
        k = min(self._count, ANDERSON_MEMORY)
        df = self._df[:k]
        np.subtract(fv, prev[2], out=df[slot])
        dg = self._dg[slot]
        np.subtract(gv, prev[1], out=dg)
        row = df @ df[slot]
        self._gram[slot, :k] = row
        self._gram[:k, slot] = row
        self._sq[slot] = float(row[slot] + dg @ dg)
        reg = ANDERSON_REGULARIZATION * sum(self._sq[:k])
        if reg == 0:
            return g
        gram = self._gram[:k, :k].copy()
        gram.flat[:: k + 1] += reg
        gamma = np.linalg.solve(gram, df @ fv)
        np.dot(gamma, self._dg[:k], out=self._mix)
        np.subtract(gv, self._mix, out=self._zv)
        self._mixed = True
        return self._z


def sub_extension_feasibility(
    a: LeggedOperator,
    rho: Functional,
    l: int,
    opts: SolverOptions = SolverOptions(),
) -> FeasibilityReport:
    """Douglas-Rachford splitting for the level-l sub-extension search.

    Alternates reflections between the cone {b PSD} and the affine set
    {b S_l-invariant, Phi(b) = a}; the rho-mass anchor pins the slack
    a - Phi(b) to zero, so the slack variable is eliminated rather than
    carried along.  The iterates are block stacks (`ExtensionProblem`), so
    invariance is built in and the PSD projection is one batched eigh of
    small blocks.  One step evaluates the DR map at the current point z:
    c = psd_part(z) and T(z) = z + project_affine(2c - z) - c.  The residual
    is the fixed-point residual ||T(z) - z|| at that point.  Plain DR would
    continue from T(z); the loop instead continues from the safeguarded
    Anderson mix of T over its last ANDERSON_MEMORY points (`_Anderson`),
    which cuts the steps of a slowly converging solve several-fold.  The
    first two steps are plain, and a mixed point whose residual is more than
    ANDERSON_SAFEGUARD times the previous one is dropped for the plain DR
    point before it (`FeasibilityReport.restarts` counts these).  A step is
    one eigh, two thin matmuls by the precomputed affine projector's
    factors and one small least-squares solve; the iterates stay Hermitian
    by construction, so no step re-symmetrizes them.

    DR is positively homogeneous in a, so the loop solves for a / tr(a):
    the residuals and the tolerance are relative to the normalized problem,
    and a verdict does not depend on the overall scale of a.  At every step
    k that `is_checkpoint` (k = 1, 2, 4, 8, 16, 25, 32, 50, 64, 75, ...: the
    powers of two, where most solves can already answer, and every
    CERTIFICATE_PERIOD steps) the loop tries both answers, in this order:

    - the step T(z) - z yields a checked separating functional
      (`certificate`, see `ExtensionProblem.certificate`): the verdict is
      `infeasible_at_tolerance` and the report carries it;
    - c, the PSD part of z, yields an extension w whose marginal defect
      |Phi(w) - a|max is at most tol |a|max (`tol`, see
      `ExtensionProblem.witness`): the witness is tr(a) times the dense form
      of w, validated against the normalized problem; the verdict is
      `feasible` if it passes.

    A step whose residual is below tol runs the witness check at once.  A
    run that ends with neither is `max_iterations`.
    """
    a.require_hermitian("sub_extension_feasibility")
    if not is_psd(a):
        raise ValueError("input element must be PSD")
    scale = a.trace().real
    if scale <= 0:
        scale = 1.0  # a PSD a of zero trace is 0, which solves in one step
    prob = ExtensionProblem(a * (1.0 / scale), rho, l)
    z = prob.project_affine(np.zeros(prob.shape))
    history: list[float] = []
    stop, found = "max_iterations", None
    mixer = _Anderson()
    for it in range(opts.max_iterations):
        c = psd_part(z)
        step = prob.project_affine(2 * c - z) - c
        residual = float(np.linalg.norm(step))
        history.append(residual)
        checkpoint = is_checkpoint(it + 1)
        if checkpoint:
            found = prob.certificate(step)
            if found is not None:
                stop = "certificate"
                break
        if checkpoint or residual < opts.tol:
            found = prob.witness(c, opts.tol)
            if found is not None:
                stop = "tol"
                break
        z = mixer.update(z + step, step, residual)
    verdict, witness, certificate, margin = "max_iterations", None, None, None
    final = history[-1] if history else 0.0
    if stop == "tol":
        w, defect = found
        witness = LeggedOperator(prob.to_dense(w), prob.big_legs)
        if prob.validate_witness(witness, 10 * opts.tol):
            verdict, witness, final = "feasible", witness * scale, defect
        else:
            witness = None
    elif stop == "certificate":
        verdict = "infeasible_at_tolerance"
        certificate, margin = found
    return FeasibilityReport(
        verdict, witness, final, tuple(history), len(history), l,
        stop_reason=stop, certificate=certificate, certificate_margin=margin,
        restarts=mixer.restarts,
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
    if max_l < 2:
        raise ValueError(f"max_l must be at least 2, got {max_l}")
    if max_l > MAX_LEVEL:
        raise ValueError(f"max_l={max_l} exceeds the level bound {MAX_LEVEL}")
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


def compress_chain(x_k: LeggedOperator, rho: Functional, l: int) -> LeggedOperator:
    """Contract the trailing k-l legs with rho; keeps PSD and symmetry."""
    k = len(x_k.legs) - 1
    if l > k:
        raise ValueError(f"cannot compress level {k} chain member to level {l}")
    if l == k:
        return x_k
    return contract_legs(x_k, rho, range(l + 1, k + 1))


@dataclass(frozen=True)
class ProbeResult:
    is_product: bool
    a: LeggedOperator
    b: LeggedOperator


def product_probe(seq: SymSequence) -> ProbeResult:
    """Detect the product normal form x_l = a (x) b^{(x)l} of an extreme ray.

    The candidate b is recovered from x_1 by tracing out the m-leg and
    normalizing by trace(x_0); a is x_0 itself.
    """
    if seq.L < 2:
        raise ValueError("product probe needs a prefix of length at least 2")
    x0 = seq.entries[0]
    tr0 = x0.trace().real
    if tr0 <= 0:
        raise ValueError(f"level-0 entry has trace {tr0:.3e}; need a positive trace")
    b = contract_legs(seq.entries[1], Functional.trace(seq.m), [0]) * (1.0 / tr0)
    is_product = True
    for l, x in enumerate(seq.entries):
        model = tensor(x0, tensor_power(b, l))
        dev = np.abs(x.entries - model.entries).max()
        if dev > PSD_TOL * max(x.norm_max(), 1e-300):
            is_product = False
            break
    return ProbeResult(is_product, x0, b)


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
