"""Independent reference answers and witness checks, using numpy only.

Nothing here calls a checker of the package under test: verdicts are compared
with exact mathematical references, and witnesses are verified from their
entries alone.  Every check returns ``None`` when the output is right and a
one-line reason when it is wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: relative tolerance for Hermiticity, positivity, leg symmetry and marginals
WITNESS_RTOL = 1e-6


# -- reference verdicts -------------------------------------------------------


def werner_threshold(l: int) -> Fraction:
    """Largest p for which the 2x2 Werner element is level-l extendable."""
    return Fraction(l + 2, 3 * l)


def werner_extendable(p: float, l: int) -> bool:
    return Fraction(p) <= werner_threshold(l)


def expected_feasibility(extendable: bool) -> str:
    return "feasible" if extendable else "infeasible_at_tolerance"


# -- witness verification -----------------------------------------------------


def rho_marginal(b: np.ndarray, m: int, n: int, l: int, density: np.ndarray) -> np.ndarray:
    """Contract the trailing l-1 n-legs of b with rho(x) = trace(D x)."""
    k = l + 1
    ten = b.reshape((m,) + (n,) * l + (m,) + (n,) * l)
    for _ in range(l - 1):
        # the last row leg sits at axis k-1, its column partner at the end
        ten = np.einsum(ten, list(range(2 * k)), density, [2 * k - 1, k - 1],
                        list(range(k - 1)) + list(range(k, 2 * k - 1)))
        k -= 1
    return ten.reshape(m * n, m * n)


def check_witness(b: np.ndarray, a: np.ndarray, m: int, n: int, l: int,
                  density: np.ndarray, rtol: float = WITNESS_RTOL) -> str | None:
    """Verify that b is a level-l symmetric extension of a for rho = trace(D .)."""
    side = m * n**l
    if b.shape != (side, side):
        return f"witness shape {b.shape}, expected ({side}, {side})"
    scale = float(np.abs(b).max())
    if scale == 0.0:
        return "witness is zero" if np.abs(a).max() > 0 else None
    if np.abs(b - b.conj().T).max() > rtol * scale:
        return "witness is not Hermitian"
    w = np.linalg.eigvalsh((b + b.conj().T) / 2)
    if w[0] < -rtol * max(abs(w[-1]), scale):
        return f"witness has eigenvalue {w[0]:.3e} (largest {w[-1]:.3e})"
    ten = b.reshape((m,) + (n,) * l + (m,) + (n,) * l)
    k = l + 1
    for j in range(1, l):
        perm = list(range(2 * k))
        perm[j], perm[j + 1] = j + 1, j
        perm[k + j], perm[k + j + 1] = k + j + 1, k + j
        if np.abs(np.transpose(ten, perm) - ten).max() > rtol * scale:
            return f"witness is not invariant under swapping n-legs {j} and {j + 1}"
    marg = rho_marginal(b, m, n, l, density)
    dev = float(np.abs(marg - a).max())
    if dev > rtol * float(np.abs(a).max()):
        return f"witness marginal deviates from a by {dev:.3e} (|a|max {np.abs(a).max():.3e})"
    return None


def check_feasibility(report, a: np.ndarray, m: int, n: int, l: int,
                      density: np.ndarray, extendable: bool) -> str | None:
    """Compare one level's verdict with the reference and verify its witness."""
    want = expected_feasibility(extendable)
    if report.verdict != want:
        return f"level {l}: verdict {report.verdict}, reference {want}"
    if report.verdict == "feasible":
        if report.witness is None:
            return f"level {l}: feasible without a witness"
        why = check_witness(np.asarray(report.witness.entries), a, m, n, l, density)
        if why:
            return f"level {l}: {why}"
    return None


# -- representation theory, computed independently ------------------------------


def hook_dimension(parts: tuple[int, ...]) -> int:
    """Dimension of the S_l irrep by the hook-length formula."""
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(sum(parts)) // hooks


def weyl_dimension(parts: tuple[int, ...], n: int) -> int:
    """Dimension of the U(n) irrep of highest weight parts (0 if too many rows)."""
    if len(parts) > n:
        return 0
    lam = list(parts) + [0] * (n - len(parts))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def schur_polynomial_2(parts: tuple[int, ...], x: float, y: float) -> float:
    """s_lambda(x, y) for a partition with at most two rows."""
    a, b = (tuple(parts) + (0, 0))[:2]
    r = a - b
    if abs(x - y) < 1e-12 * max(abs(x), abs(y), 1.0):
        complete = (r + 1) * x**r
    else:
        complete = (x ** (r + 1) - y ** (r + 1)) / (x - y)
    return (x * y) ** b * complete


def check_schur_table(rows: list[dict], n: int, l: int) -> str | None:
    """Each block: dimension = Weyl dimension, multiplicity = hook dimension,
    and the blocks fill (C^n)^{(x)l}."""
    total = 0
    for row in rows:
        parts = tuple(row["partition"])
        if sum(parts) != l:
            return f"partition {parts} is not a partition of {l}"
        if row["block_dim"] != weyl_dimension(parts, n):
            return f"block_dim {row['block_dim']} for {parts}, reference {weyl_dimension(parts, n)}"
        if row["multiplicity"] != hook_dimension(parts):
            return f"multiplicity {row['multiplicity']} for {parts}, reference {hook_dimension(parts)}"
        total += row["block_dim"] * row["multiplicity"]
    if total != n**l:
        return f"sum of weyl * multiplicity is {total}, reference {n**l}"
    return None


def check_recovered_block(block: np.ndarray, parts: tuple[int, ...], a: np.ndarray,
                          t: np.ndarray, rtol: float = 1e-9) -> str | None:
    """Block of a (x) t^{(x)l} on an isotypic subspace, for n = 2 and PSD a, t.

    Its side is m * weyl * hook and its trace is trace(a) * hook * s_lambda(t).
    """
    m = a.shape[0]
    hook, weyl = hook_dimension(parts), weyl_dimension(parts, 2)
    if block.shape != (m * weyl * hook,) * 2:
        return f"block for {parts} has shape {block.shape}, reference side {m * weyl * hook}"
    x, y = np.linalg.eigvalsh((t + t.conj().T) / 2)
    want = float(np.trace(a).real) * hook * schur_polynomial_2(parts, x, y)
    got = complex(np.trace(block))
    if abs(got - want) > rtol * abs(want):
        return f"block for {parts} has trace {got:.12g}, reference {want:.12g}"
    scale = float(np.abs(block).max())
    if np.abs(block - block.conj().T).max() > rtol * scale:
        return f"block for {parts} is not Hermitian"
    if np.linalg.eigvalsh((block + block.conj().T) / 2)[0] < -rtol * scale * block.shape[0]:
        return f"block for {parts} of a positive element is not PSD"
    return None
