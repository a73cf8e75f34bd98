"""Shared sampling helpers and the dense reference solver for the test suite."""

import numpy as np
import pytest

from definetti import LeggedOperator, Symmetrizer
from definetti.hierarchy import (
    ANDERSON_MEMORY,
    ANDERSON_REGULARIZATION,
    ANDERSON_SAFEGUARD,
    CERTIFICATE_RTOL,
    ValidationReport,
    _is_invariant,
    is_checkpoint,
)
from definetti.linalg import PSD_TOL, contract_legs, is_psd, loewner_leq, psd_part
from definetti.symmetry import copy_bases


def rand_psd(n, rng, floor=0.0):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T + floor * np.eye(n)


def rand_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def schur_polynomial(parts, x):
    """s_lambda(x_1..x_n) by the bialternant formula; 0 beyond n parts."""
    n = len(x)
    if len(parts) > n:
        return 0.0
    lam = list(parts) + [0] * (n - len(parts))
    alt = np.array([[xi ** (lam[j] + n - 1 - j) for j in range(n)] for xi in x])
    vandermonde = np.array([[xi ** (n - 1 - j) for j in range(n)] for xi in x])
    return np.linalg.det(alt) / np.linalg.det(vandermonde)


def random_separable(rng, max_terms=5):
    """Convex combination of <= max_terms product PSD elements on 2 (x) 2,
    rescaled so the largest entry is 1."""
    nterms = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(nterms))
    mat = sum(
        w * np.kron(rand_psd(2, rng), rand_psd(2, rng)) for w, _ in zip(weights, range(nterms))
    )
    mat = mat / np.abs(mat).max()
    return LeggedOperator(mat, (2, 2))


def d_power(density, k):
    """D^(x)k by dense Kronecker products."""
    out = np.eye(1)
    for _ in range(k):
        out = np.kron(out, density)
    return out


def phi_star(prob, y):
    """Phi*(y) = y (x) D^(l-1), from rho's density alone."""
    return np.kron(y, d_power(prob.rho.density, prob.l - 1))


def to_blocks(prob, b):
    """The zero-padded block stack of an S_l-invariant b on the full legs,
    sqrt(hook) (I_m (x) W)^T b (I_m (x) W) per copy basis W, from
    `copy_bases` alone."""
    bases = copy_bases(prob.n, prob.l)
    side = prob.m * max(w.shape[1] for _, w in bases)
    out = np.zeros((len(bases), side, side), dtype=complex)
    for k, (lam, w) in enumerate(bases):
        f = np.kron(np.eye(prob.m), w)
        out[k, : f.shape[1], : f.shape[1]] = np.sqrt(lam.hook_dimension()) * (f.T @ b @ f)
    return out


def dense_gram_rows(n, l, density):
    """Rows sqrt(hook) conj(W^T Sym(e_j (x) D^(l-1)) W).flat over the copy
    bases W, one per n x n matrix unit e_j, each K(e_j) built densely on the
    n^l-side legs."""
    d_pow = d_power(density, l - 1)
    sym = Symmetrizer((n,) * l, range(l))
    rows = []
    for unit in np.eye(n * n).reshape(-1, n, n):
        k = sym.apply_matrix(np.kron(unit, d_pow))
        blocks = [np.sqrt(lam.hook_dimension()) * (w.T @ k @ w) for lam, w in copy_bases(n, l)]
        rows.append(np.hstack([block.conj().reshape(-1) for block in blocks]))
    return np.array(rows)


def dense_validate_k_prefix(seq):
    """The dense reference for `validate_k_prefix`: PSD entries, then
    S_l-invariance, then x_l >= P(x_{l+1}), each on the dense entries of
    side m n^l, P by `contract_legs`."""
    for l, x in enumerate(seq.entries):
        if not is_psd(x):
            return ValidationReport(False, "psd", l, f"entry {l} is not PSD at tol {PSD_TOL}")
    for l, x in enumerate(seq.entries[2:], start=2):
        if not _is_invariant(Symmetrizer(x.legs, range(1, l + 1)), x.entries, PSD_TOL):
            return ValidationReport(
                False, "symmetry", l, f"entry {l} is not S_{l}-invariant at tol {PSD_TOL}"
            )
    for l in range(seq.L):
        upper = contract_legs(seq.entries[l + 1], seq.rho, [l + 1])
        if not loewner_leq(upper, seq.entries[l]):
            return ValidationReport(
                False,
                "sub_martingale",
                l,
                f"contraction of entry {l + 1} is not dominated by entry {l}",
            )
    return ValidationReport(True)


class DenseDR:
    """Anderson-accelerated Douglas-Rachford on dense operators on the full
    legs: an independent cross-check of the block solver of
    `ExtensionProblem`.  The sqrt(hook) weights of the blocks make their
    inner products those of the dense operators, so both take the same
    steps.

    The affine projection comes from the dense Gram operator
    Phi o Sym o Phi* on m (x) n, built column by column, and symmetrizes
    its input, so it assumes nothing about the block coordinates.  The
    certificate test is the solver's rule on dense operators: Y solves the
    Gram system for Phi(-step), and the shift that makes Sym(Y (x) D^(l-1))
    PSD comes from a dense eigvalsh of that operator.  So is the witness
    test: the PSD part of the affine projection, by a dense eigh, with its
    marginal defect.
    """

    def __init__(self, prob):
        self.prob = prob
        self.sym = Symmetrizer((prob.m,) + (prob.n,) * prob.l, range(1, prob.l + 1))
        mn = prob.m * prob.n
        self.gram = np.empty((mn * mn, mn * mn), dtype=complex)
        unit = np.zeros((mn, mn), dtype=complex)
        for k in range(mn * mn):
            unit.flat[k] = 1.0
            self.gram[:, k] = prob.phi(self.sym.apply_matrix(phi_star(prob, unit))).reshape(-1)
            unit.flat[k] = 0.0
        # Sym(I (x) D^(l-1)) >= lambda_min(D)^(l-1) I
        self.floor = np.linalg.eigvalsh(prob.rho.density)[0] ** (prob.l - 1)

    def project_affine(self, b):
        """Metric projection onto {Sym b = b, Phi(b) = a}."""
        prob, mn = self.prob, self.prob.m * self.prob.n
        sb = self.sym.apply_matrix(b)
        c = prob.a.entries - prob.phi(sb)
        y = np.linalg.solve(self.gram, c.reshape(-1)).reshape(mn, mn)
        return sb + self.sym.apply_matrix(phi_star(prob, y))

    def certificate(self, step):
        """Y + eps I when its margin trace(Y a) / (||Y|| trace(a)) is below
        -CERTIFICATE_RTOL, else None."""
        prob, mn = self.prob, self.prob.m * self.prob.n
        y = np.linalg.solve(self.gram, prob.phi(-step).reshape(-1)).reshape(mn, mn)
        y = (y + y.conj().T) / 2
        a = prob.a.entries
        if np.trace(y @ a).real >= 0:
            return None
        k = self.sym.apply_matrix(phi_star(prob, y))
        eps = max(0.0, -np.linalg.eigvalsh((k + k.conj().T) / 2)[0]) / self.floor
        y = y + eps * np.eye(mn)
        margin = np.trace(y @ a).real / (np.linalg.norm(y) * np.trace(a).real)
        return y if margin < -CERTIFICATE_RTOL else None

    def witness(self, c, tol):
        """Whether psd_part(project_affine(c)) has |Phi(w) - a|max <= tol |a|max."""
        w = psd_part(self.project_affine(c))
        a = self.prob.a.entries
        return np.abs(self.prob.phi(w) - a).max() <= tol * np.abs(a).max()

    def start(self):
        side = self.sym.side
        return self.project_affine(np.zeros((side, side), dtype=complex))

    def solve(self, opts):
        """The solver's stopping rule and its safeguarded Anderson mixing on
        the dense iterates: returns the verdict before the dense witness
        validation and the iteration count, and keeps the residuals
        ||T(z) - z|| in `history` and the safeguard restarts in `restarts`.

        The mixing is written out afresh: the last ANDERSON_MEMORY differences
        are kept in a list, and their Gram matrix, in the real Frobenius
        product Re trace(x^H y), is rebuilt at every step."""
        z = self.start()
        self.history, self.restarts = [], 0
        memory, prev, mixed = [], None, False  # prev = (g, f, ||f||)
        for it in range(opts.max_iterations):
            c = psd_part(z)
            g = z + self.project_affine(2 * c - z) - c
            f = g - z
            residual = np.linalg.norm(f)
            self.history.append(residual)
            checkpoint = is_checkpoint(it + 1)
            if checkpoint and self.certificate(f) is not None:
                return "infeasible_at_tolerance", it + 1
            if (checkpoint or residual < opts.tol) and self.witness(c, opts.tol):
                return "feasible", it + 1
            if mixed and residual > ANDERSON_SAFEGUARD * prev[2]:
                z, memory, prev, mixed = prev[0], [], None, False
                self.restarts += 1
                continue
            if prev is not None:
                memory = (memory + [(f - prev[1], g - prev[0])])[-ANDERSON_MEMORY:]
            prev = (g, f, residual)
            gram = np.array([[np.vdot(x, y).real for y, _ in memory] for x, _ in memory])
            sq = sum(np.linalg.norm(df) ** 2 + np.linalg.norm(dg) ** 2 for df, dg in memory)
            reg = ANDERSON_REGULARIZATION * sq
            if reg == 0:
                z, mixed = g, False
                continue
            rhs = [np.vdot(df, f).real for df, _ in memory]
            gamma = np.linalg.solve(gram + reg * np.eye(len(memory)), rhs)
            z, mixed = g - sum(gm * dg for gm, (_, dg) in zip(gamma, memory)), True
        return "max_iterations", opts.max_iterations


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
