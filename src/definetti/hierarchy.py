"""Sub-extension hierarchy: sequence validation, feasibility solver, probes.

The feasibility solver searches for an S_l-invariant PSD operator b on legs
[m, n, ..., n] whose contraction by rho on the trailing l-1 legs is dominated
by the given bipartite element a, anchored so that the candidate carries the
same rho-mass as a.  Because rho is faithful, the anchor pins the slack
a - Phi(b) to zero at any feasible point, so the solver works directly with
the equality Phi(b) = a (without the anchor b = 0 would always be a witness
and the hierarchy would detect nothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    Functional,
    LeggedOperator,
    contract_legs,
    is_psd,
    loewner_leq,
    min_eig,
    partial_transpose,
    psd_part,
    psd_project,
    tensor,
    tensor_power,
)
from .symmetry import ENUMERATION_BOUND, Symmetrizer

#: dimensions where the PPT criterion is an exact separability test
PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}


@dataclass(frozen=True)
class SymSequence:
    """Finite prefix (x_0, ..., x_L) of a candidate sub-martingale sequence.

    Entry l lives on legs [m, n, ..., n] with l copies of n.
    """

    m: int
    n: int
    rho: Functional
    entries: tuple[LeggedOperator, ...]

    def __init__(self, m: int, n: int, rho: Functional, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("sequence needs at least the level-0 entry")
        if rho.dim != n:
            raise ValueError(f"functional dimension {rho.dim} does not match n={n}")
        for l, x in enumerate(entries):
            want = (m,) + (n,) * l
            if x.legs != want:
                raise ValueError(f"entry {l} has legs {x.legs}, expected {want}")
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "entries", entries)

    @property
    def L(self) -> int:
        return len(self.entries) - 1

    def with_rho(self, rho: Functional) -> "SymSequence":
        return SymSequence(self.m, self.n, rho, self.entries)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    condition: Optional[str] = None  # "psd" | "symmetry" | "sub_martingale"
    level: Optional[int] = None
    detail: str = ""


def validate_k_prefix(seq: SymSequence, tol: float = 1e-9) -> ValidationReport:
    """Check PSD entries, S_l-invariance, and the sub-martingale condition.

    Reports the first violated condition and the level where it fails.
    """
    for l, x in enumerate(seq.entries):
        if not x.is_hermitian() or not is_psd(x, tol):
            return ValidationReport(False, "psd", l, f"entry {l} is not PSD at tol {tol}")
    for l, x in enumerate(seq.entries):
        if l < 2:
            continue
        sym = Symmetrizer(x.legs, range(1, l + 1))
        dev = np.abs(sym.apply(x).entries - x.entries).max()
        if dev > tol * max(1.0, x.norm_max()):
            return ValidationReport(
                False, "symmetry", l, f"entry {l} deviates from its symmetrization by {dev:.3e}"
            )
    for l in range(seq.L):
        upper = contract_legs(seq.entries[l + 1], seq.rho, [l + 1])
        if not loewner_leq(upper, seq.entries[l], tol):
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
    plateau_window: int = 500
    plateau_threshold: float = 1e-3


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: str  # "feasible" | "infeasible_at_tolerance" | "max_iterations"
    witness: Optional[LeggedOperator]
    final_residual: float
    residual_history: tuple[float, ...]
    iterations: int
    level: int

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "final_residual": self.final_residual,
            "iterations": self.iterations,
            "level": self.level,
            "residual_history": list(self.residual_history),
        }
        if self.witness is not None:
            from .serialize import operator_to_json

            out["witness"] = operator_to_json(self.witness)
        return out


def _neg_norm(mat: np.ndarray) -> float:
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    return float(np.sqrt(np.sum(np.minimum(w, 0.0) ** 2)))


class ExtensionProblem:
    """Geometry of the level-l sub-extension search for one (a, rho, l)."""

    def __init__(self, a: LeggedOperator, rho: Functional, l: int):
        if len(a.legs) != 2:
            raise ValueError(f"expected a bipartite element with two legs, got {a.legs}")
        if l < 1:
            raise ValueError("extension level must be at least 1")
        if l > ENUMERATION_BOUND:
            raise ValueError(f"level {l} exceeds enumeration bound {ENUMERATION_BOUND}")
        m, n = a.legs
        if rho.dim != n:
            raise ValueError(f"functional dimension {rho.dim} does not match n={n}")
        self.a = a
        self.rho = rho
        self.l = l
        self.m, self.n = m, n
        self.big_legs = (m,) + (n,) * l
        self.sym = Symmetrizer(self.big_legs, range(1, l + 1))
        self._trailing = list(range(2, l + 1))
        d = rho.density
        self._d_pow = np.array([[1.0]])
        for _ in range(l - 1):
            self._d_pow = np.kron(self._d_pow, d)
        self.phi_scale = float(np.trace(d @ d).real) ** (l - 1)
        self._build_affine_solver()

    # Phi contracts the trailing l-1 legs with rho.
    def phi(self, b_mat: np.ndarray) -> np.ndarray:
        if not self._trailing:
            return b_mat
        x = LeggedOperator(b_mat, self.big_legs)
        return contract_legs(x, self.rho, self._trailing).entries

    def phi_star(self, y_mat: np.ndarray) -> np.ndarray:
        return np.kron(y_mat, self._d_pow)

    def _build_affine_solver(self) -> None:
        # Phi and Sym o Phi* act on every m-block E_ik (x) B of b in the same
        # way, through the n-side map K(Y) = Sym(Y (x) D^{(x)(l-1)}) on M_n.
        # Row j of `_kh` is conj(K(e_j)).flat over the n^2 matrix units e_j,
        # so kh @ B.flat is K*(B) = Phi(Sym B) and y @ conj(kh) is K(y).flat.
        # The per-block Gram matrix K* K = kh @ kh^H is n^2 x n^2 and well
        # conditioned (cond ~ l for faithful rho), so a direct inverse gives
        # an exact metric projection onto the constraint set.
        n, l = self.n, self.l
        sym_n = Symmetrizer((n,) * l, range(l))
        basis = np.zeros((n, n), dtype=complex)
        kh = np.empty((n * n, n ** (2 * l)), dtype=complex)
        for j in range(n * n):
            basis.flat[j] = 1.0
            kh[j] = sym_n.apply_matrix(np.kron(basis, self._d_pow)).conj().reshape(-1)
            basis.flat[j] = 0.0
        self._kh = kh
        self._gi = np.linalg.inv(kh @ kh.conj().T)
        self._a_blocks = self._blocks(self.a.entries, n)

    def _blocks(self, mat: np.ndarray, side: int) -> np.ndarray:
        """Rows are the flattened side x side blocks of mat, one per (i, k) in m x m."""
        m = self.m
        return mat.reshape(m, side, m, side).transpose(0, 2, 1, 3).reshape(m * m, side * side)

    def project_affine(self, b: np.ndarray) -> np.ndarray:
        """Metric projection of an S_l-invariant b onto {b S_l-invariant, Phi(b) = a}.

        b is not symmetrized here: the DR iterates are invariant, because
        the PSD part of an invariant matrix is invariant.
        """
        m, big = self.m, self.n**self.l
        c = self._a_blocks - self._blocks(b, big) @ self._kh.T
        y = c @ self._gi.T
        corr = (y @ self._kh.conj()).reshape(m, m, big, big).transpose(0, 2, 1, 3)
        out = b + corr.reshape(m * big, m * big)
        return (out + out.conj().T) / 2

    def start(self) -> np.ndarray:
        """Minimum-norm point of the affine set, the projection of 0."""
        side = self.sym.side
        return self.project_affine(np.zeros((side, side), dtype=complex))

    def validate_witness(self, witness: LeggedOperator, tol: float) -> bool:
        if not witness.is_hermitian() or not is_psd(witness, tol):
            return False
        dev = np.abs(self.sym.apply_matrix(witness.entries) - witness.entries).max()
        if dev > tol * max(1.0, witness.norm_max()):
            return False
        marg = LeggedOperator(self.phi(witness.entries), (self.m, self.n))
        return loewner_leq(marg, self.a, tol)


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
    carried along.  On infeasible instances the residual settles at the
    gap between the two sets, which the plateau detector reports as
    `infeasible_at_tolerance` -- a numerical statement, not a
    separating-functional certificate.
    """
    a.require_hermitian("sub_extension_feasibility")
    if not is_psd(a):
        raise ValueError("input element must be PSD")
    if a.norm_max() == 0.0:
        return FeasibilityReport(
            "feasible",
            LeggedOperator.zeros((a.legs[0],) + (a.legs[1],) * l),
            0.0,
            (0.0,),
            0,
            l,
        )
    prob = ExtensionProblem(a, rho, l)
    z = prob.start()
    b = z
    history: list[float] = []
    window = opts.plateau_window
    verdict = "max_iterations"
    iterations = opts.max_iterations
    for it in range(opts.max_iterations):
        c = psd_part(z)
        refl = prob.project_affine(2 * c - z)
        z = z + refl - c
        b = prob.project_affine(c)
        residual = float(np.linalg.norm(b - c)) + _neg_norm(b)
        history.append(residual)
        if residual < opts.tol:
            verdict = "feasible"
            iterations = it + 1
            break
        if it + 1 >= 2 * window:
            prev = history[-window - 1]
            if abs(residual - prev) < opts.plateau_threshold * max(prev, opts.tol):
                verdict = "infeasible_at_tolerance"
                iterations = it + 1
                break
    witness = None
    if verdict == "feasible":
        witness = psd_project(LeggedOperator(prob.sym.apply_matrix(b), prob.big_legs))
        if not prob.validate_witness(witness, 10 * opts.tol):
            verdict = "max_iterations"
            witness = None
    return FeasibilityReport(verdict, witness, history[-1] if history else 0.0, tuple(history), iterations, l)


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

    Any infeasible level is entanglement evidence; all-feasible is finite
    evidence of separability only (no finite level is conclusive).
    """
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


def product_probe(seq: SymSequence, tol: float = 1e-9) -> ProbeResult:
    """Detect the product normal form x_l = a (x) b^{(x)l} of an extreme ray.

    The candidate b is recovered from x_1 by tracing out the m-leg and
    normalizing by trace(x_0); a is x_0 itself.
    """
    if seq.L < 2:
        raise ValueError("product probe needs a prefix of length at least 2")
    x0 = seq.entries[0]
    tr0 = x0.trace().real
    if x0.norm_max() == 0.0:
        raise ValueError("level-0 entry is zero")
    b = contract_legs(seq.entries[1], Functional.trace(seq.m), [0]) * (1.0 / tr0)
    is_product = True
    for l, x in enumerate(seq.entries):
        model = tensor(x0, tensor_power(b, l))
        dev = np.abs(x.entries - model.entries).max()
        if dev > tol * max(x.norm_max(), 1e-300):
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
