"""Shared sampling helpers and the dense references for the test suite."""

import base64
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

import numpy as np
import pytest

from definetti import Functional, LeggedOperator, Symmetrizer
from definetti import boundary, cli, hierarchy, serialize, symmetry
from definetti.hierarchy import (
    BARRIER_SHRINK,
    CENTRED_DECREMENT,
    CERTIFICATE_RTOL,
    DAMPED_DECREMENT,
    ValidationReport,
    _is_invariant,
)
from definetti.linalg import PSD_TOL, contract_legs, is_psd, loewner_leq, psd_part, tensor
from definetti.symmetry import copy_basis, from_schur_weyl_blocks, level_layout


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


def tensor_power(x, k):
    """x^(x)k by dense Kronecker products, legs repeated k times; k = 0
    gives the scalar identity on no legs."""
    if k < 0:
        raise ValueError("tensor power must be non-negative")
    out = LeggedOperator(np.eye(1), ())
    for _ in range(k):
        out = tensor(out, x)
    return out


def dense_block_compression(g, lam):
    """The dense reference for `boundary.block_compression`:
    pi_lam(t) = W^T t^(x)l W, W = `copy_basis(n, lam)`, from the n^l-side
    t^(x)l."""
    w = copy_basis(g.n, lam)
    return w.T @ tensor_power(LeggedOperator(g.t, (g.n,)), lam.size).entries @ w


def dense_copy_basis(n, parts):
    """The dense reference for `symmetry.copy_basis`: the Jucys-Murphy step
    on n^l rows.  On cols = W_mu (x) I_n, mu the chain parent of `parts` (its
    last row's box removed), X_l = sum_{j<l} (j l) acts by gathering the
    rows of cols, and the copy is cols times the kernel of
    cols^T X_l cols - content, read off an SVD."""
    l = sum(parts)
    if l <= 1:
        return np.eye(n**l)
    i, p = len(parts) - 1, parts[-1]
    mu = parts[:-1] + ((p - 1,) if p > 1 else ())
    cols = np.kron(dense_copy_basis(n, mu), np.eye(n))
    jm = np.zeros_like(cols)
    for j in range(l - 1):
        perm = list(range(l))
        perm[j], perm[l - 1] = l - 1, j
        jm += cols[np.arange(n**l).reshape((n,) * l).transpose(perm).reshape(-1)]
    _, sv, vt = np.linalg.svd(cols.T @ jm - (p - 1 - i) * np.eye(cols.shape[1]))
    return cols @ vt[sv < 0.5].T


def dense_generators(w, n, l):
    """W^T E_ab W stacked at a n + b, E_ab = sum over the l legs of the
    matrix unit e_ab, from the n^l rows of W: the dense reference for a
    chain step's `gens`."""
    d = w.shape[1]
    out = np.zeros((n, n, d, d))
    for j in range(l):
        wt = w.reshape(n**j, n, n ** (l - 1 - j), d)
        out += np.einsum("rask,rbsm->abkm", wt, wt)
    return out.reshape(n * n, d, d)


def congruence_root(density, m, l):
    """S = I_m (x) E^(1/2) / c^((l-1)/2), c = trace(D) / n and E = D / c, by
    a dense eigh of E: the problem under rho at level l is the problem of
    S a S under the trace."""
    c = np.trace(density).real / density.shape[0]
    w, v = np.linalg.eigh(density / c)
    return np.kron(np.eye(m), (v * np.sqrt(w)) @ v.conj().T) / c ** ((l - 1) / 2)


def solved_problem(prob):
    """The problem that an `ExtensionProblem` solves, as the attributes the
    dense references read: S a S under the trace (`congruence_root`)."""
    s = congruence_root(prob.rho.density, prob.m, prob.l)
    return SimpleNamespace(
        m=prob.m, n=prob.n, l=prob.l, rho=Functional.trace(prob.n), a=LeggedOperator(s @ prob.a.entries @ s, prob.a.legs)
    )


def dense_sym(prob):
    """The symmetrizer of legs 1..l on the full legs [m, n, ..., n]."""
    return Symmetrizer((prob.m,) + (prob.n,) * prob.l, range(1, prob.l + 1))


def dense_phi(prob, b):
    """Phi(b): rho on the trailing l-1 legs of a dense b, by `contract_legs`."""
    x = LeggedOperator(b, (prob.m,) + (prob.n,) * prob.l)
    return contract_legs(x, prob.rho, range(2, prob.l + 1)).entries


def phi_star(prob, y):
    """Phi*(y) = y (x) D^(l-1), from rho's density alone."""
    return np.kron(y, d_power(prob.rho.density, prob.l - 1))


def copy_bases(n, l):
    """(lambda, `copy_basis(n, lambda)`) for every partition lambda of l with
    at most n rows, in `level_layout` order: the n^l-row bases of the dense
    references.  An S_l-invariant b on the n-legs is
    sum_lambda W^T b W (x) I_hook in Schur-Weyl coordinates."""
    return [(lam, copy_basis(n, lam)) for lam, _, _ in level_layout(n, l)]


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


def to_dense(prob, x):
    """The S_l-invariant b on the full legs of a zero-padded block stack, the
    inverse of `to_blocks`: `from_schur_weyl_blocks` of X / sqrt(hook)."""
    blocks = []
    for k, (lam, w) in enumerate(copy_bases(prob.n, prob.l)):
        side = prob.m * w.shape[1]
        blocks.append(x[k, :side, :side] / np.sqrt(lam.hook_dimension()))
    return from_schur_weyl_blocks(blocks, prob.m, prob.n, prob.l)


def dense_t_upper(y, a, rho, l):
    """trace(Y a) / trace K(Y) for a certificate Y on legs (m, n), with
    K(Y) = Sym(Y (x) D^(l-1)) built densely on the full legs and its block
    trace the sum over the copy bases W of sqrt(hook) tr(F^T K(Y) F),
    F = I_m (x) W."""
    m, n = a.legs
    k = np.kron(y, tensor_power(LeggedOperator(rho.density, (n,)), l - 1).entries)
    k = Symmetrizer((m,) + (n,) * l, range(1, l + 1)).apply_matrix(k)
    total = 0.0
    for lam, w in copy_bases(n, l):
        f = np.kron(np.eye(m), w)
        total += np.sqrt(lam.hook_dimension()) * np.trace(f.T @ k @ f).real
    return np.trace(y @ a.entries).real / total


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
        if not _is_invariant(x, PSD_TOL):
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


def dense_validate_witness(prob, witness, tol):
    """The dense reference for `ExtensionProblem.validate_witness`, on a
    witness on the full legs: PSD (`is_psd`), S_l-invariant, Phi(b) <= a and
    |Phi(b) - a|max <= tol |a|max, Phi by `contract_legs`."""
    if not is_psd(witness, tol) or not _is_invariant(witness, tol):
        return False
    marg = LeggedOperator(dense_phi(prob, witness.entries), (prob.m, prob.n))
    if np.abs(marg.entries - prob.a.entries).max() > tol * prob.a.norm_max():
        return False
    return loewner_leq(marg, prob.a, tol)


@dataclass(frozen=True)
class LegPermutation:
    """A permutation of {0, ..., l-1} acting on equal-dimension tensor legs:
    with `permute_legs`, the one-permutation-at-a-time reference that the
    `Symmetrizer` tests average over."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        object.__setattr__(self, "images", images)

    def __len__(self) -> int:
        return len(self.images)

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


class DenseSolver:
    """The solver on dense operators on the full legs: an independent
    cross-check of `sub_extension_feasibility`.

    The first check is a Douglas-Rachford step.  Its affine projection comes
    from the dense Gram operator Phi o Sym o Phi* on m (x) n, built column
    by column, and symmetrizes its input, so it assumes nothing about the
    block coordinates.  The certificate test is the solver's rule on dense
    operators: Y solves the Gram system for Phi(-step), and the shift that
    makes Sym(Y (x) D^(l-1)) PSD comes from a dense eigvalsh of that
    operator.  So is the witness test: the PSD part of the affine
    projection, by a dense eigh, with its marginal defect, then
    `dense_validate_witness`.

    The barrier search is written out afresh on the blocks of the copy
    bases (`to_blocks`): K(E_k) = Sym(E_k (x) D^(l-1)) of every matrix unit
    E_k on m (x) n is built densely and cut into blocks once, Phi(X) is read
    as <K(E_k), X>, and the Hessian is <K(E_j), Z K(E_k) Z> on every pair of
    units, with no use of the solver's Gram rows, unit blocks or m-block
    layout.  The Newton steps, the schedule and both answers follow
    `ExtensionProblem.barrier_search`, except that every try goes to the
    witness test with no Cholesky screen (`ExtensionProblem._may_be_psd`),
    so equal iteration counts also show that the screen lost no witness.
    """

    def __init__(self, prob):
        self.prob = prob
        self.sym = dense_sym(prob)
        mn = prob.m * prob.n
        # K(E_k) = Sym(E_k (x) D^(l-1)) for the matrix units E_k on m (x) n:
        # the columns Phi(K(E_k)) of the Gram operator, and K(E_k) in blocks
        k_units = [self.sym.apply_matrix(phi_star(prob, e)) for e in np.eye(mn * mn).reshape(-1, mn, mn)]
        self.gram = np.stack([dense_phi(prob, k).reshape(-1) for k in k_units], axis=1)
        self.units = np.array([to_blocks(prob, k) for k in k_units])
        # Sym(I (x) D^(l-1)) >= lambda_min(D)^(l-1) I
        self.floor = np.linalg.eigvalsh(prob.rho.density)[0] ** (prob.l - 1)
        self.sides = [prob.m * w.shape[1] for _, w in copy_bases(prob.n, prob.l)]

    def project_affine(self, b):
        """Metric projection onto {Sym b = b, Phi(b) = a}."""
        prob, mn = self.prob, self.prob.m * self.prob.n
        sb = self.sym.apply_matrix(b)
        c = prob.a.entries - dense_phi(prob, sb)
        y = np.linalg.solve(self.gram, c.reshape(-1)).reshape(mn, mn)
        return sb + self.sym.apply_matrix(phi_star(prob, y))

    def certificate(self, step):
        """Y + eps I when its margin trace(Y a) / (||Y|| trace(a)) is below
        -CERTIFICATE_RTOL, else None."""
        prob, mn = self.prob, self.prob.m * self.prob.n
        y = np.linalg.solve(self.gram, dense_phi(prob, -step).reshape(-1)).reshape(mn, mn)
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
        """Whether w = psd_part(project_affine(c)) has |Phi(w) - a|max <=
        tol |a|max and passes `dense_validate_witness` at 10 tol."""
        prob = self.prob
        w = psd_part(self.project_affine(c))
        a = prob.a.entries
        if np.abs(dense_phi(prob, w) - a).max() > tol * np.abs(a).max():
            return False
        legs = (prob.m,) + (prob.n,) * prob.l
        return dense_validate_witness(prob, LeggedOperator(w, legs), 10 * tol)

    def start(self):
        side = self.sym.side
        return self.project_affine(np.zeros((side, side), dtype=complex))

    def _k(self, y):
        return np.tensordot(y.reshape(-1), self.units, axes=1)

    def _phi(self, x):
        p = len(self.units)
        return (self.units.reshape(p, -1).conj() @ x.reshape(-1)).reshape(self.prob.a.entries.shape)

    def _inverse(self, y):
        """The blockwise inverse of K(y), or None unless every block has a
        Cholesky factor."""
        k_y = self._k(y)
        z = np.zeros_like(k_y)
        for j, side in enumerate(self.sides):
            try:
                np.linalg.cholesky(k_y[j, :side, :side])
            except np.linalg.LinAlgError:
                return None
            z[j, :side, :side] = np.linalg.inv(k_y[j, :side, :side])
        return z

    def solve(self, opts):
        """The solver's first check and barrier search on these references:
        returns the verdict and the iteration count, and keeps the residuals
        in `history`."""
        z = self.start()
        c = psd_part(z)
        step = self.project_affine(2 * c - z) - c
        self.history = [np.linalg.norm(step)]
        if self.certificate(step) is not None:
            return "infeasible_at_tolerance", 1
        if self.witness(c, opts.tol):
            return "feasible", 1
        prob, p = self.prob, len(self.units)
        a = prob.a.entries
        eye = np.zeros_like(self.units[0])
        for j, side in enumerate(self.sides):
            eye[j, :side, :side] = np.eye(side)
        phi_eye = self._phi(eye)
        y = np.eye(a.shape[0]) / np.trace(phi_eye).real
        z = self._inverse(y)
        mu = np.trace(y @ a).real / sum(self.sides)
        flat = self.units.reshape(p, -1)
        for _ in range(opts.max_iterations - 1):
            grad = a / mu - self._phi(z)
            hess = flat.conj() @ (z @ self.units @ z).reshape(p, -1).T
            sol = np.linalg.solve(hess, np.stack([grad.reshape(-1), phi_eye.reshape(-1)], axis=1))
            w = -np.vdot(phi_eye, sol[:, 0]).real / np.vdot(phi_eye, sol[:, 1]).real
            dy = -(sol[:, 0] + w * sol[:, 1]).reshape(a.shape)
            dec = np.sqrt(max(0.0, -np.vdot(grad, dy).real))
            t = -mu * w
            self.history.append(np.trace(y @ a).real - t)
            if t >= -10 * opts.tol:
                x = mu * (z - z @ self._k(dy) @ z) + t * eye
                if self.witness(to_dense(prob, x), opts.tol):
                    return "feasible", len(self.history)
            y = y + (dy if dec < DAMPED_DECREMENT else dy / (1 + dec))
            y = (y + y.conj().T) / 2
            y = y / np.vdot(phi_eye, y).real
            if dec < CENTRED_DECREMENT:
                mu /= BARRIER_SHRINK
            z = self._inverse(y)
            if z is None:
                break
            value = np.trace(y @ a).real
            if value / (np.linalg.norm(y) * np.trace(a).real) < -CERTIFICATE_RTOL:
                return "infeasible_at_tolerance", len(self.history)
        return "max_iterations", len(self.history)


def payload(x) -> str:
    """A block's `data`: the base64 of its entries as row-major `<c16`."""
    return base64.b64encode(np.asarray(x, dtype="<c16").tobytes()).decode("ascii")


def block_entries(block) -> np.ndarray:
    """The entries of a payload block object, decoded without the library."""
    side = math.prod(block["legs"])
    return np.frombuffer(base64.b64decode(block["data"]), dtype="<c16").reshape(side, side)


def list_encoded(bundle) -> dict:
    """A copy of a bundle whose blocks hold `"re"` and `"im"` lists in place
    of `data`, as bundles written before the payload hold them."""

    def lists(block):
        x = block_entries(block)
        return {
            "partition": block["partition"],
            "legs": block["legs"],
            "re": x.real.tolist(),
            "im": x.imag.tolist(),
        }

    return dict(bundle, entries=[[lists(b) for b in entry] for entry in bundle["entries"]])


def forbid_enumeration(monkeypatch):
    """Make `partitions_of` raise AssertionError wherever the package looks
    it up, so a call that enumerates a level's partitions fails."""

    def enumerated(*args, **kwargs):
        raise AssertionError("partitions_of called")

    for module in (symmetry, hierarchy, boundary, serialize, cli):
        if hasattr(module, "partitions_of"):
            monkeypatch.setattr(module, "partitions_of", enumerated)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
