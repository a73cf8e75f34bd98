"""Seeded inputs, timed operations and reference checks for each workload.

The seed draws local unitaries U (x) V that rotate every input, and co-rotates
a non-trace functional with the same V.  The solver is covariant under these
rotations, so its iteration counts, and with them the cost of an operation,
depend only on each input's local-unitary invariants (spectra, Schmidt
coefficients, mixture weights).  Those come from the fixed `SHAPE_SEED`, so a
run's cost does not change with the workload seed while its inputs do.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import oracle

#: seed of the local-unitary invariants of every random input (see module doc)
SHAPE_SEED = 0


@dataclass
class Op:
    """One top-level public call and how to judge its result.

    `klass` is the reference class of the input ("extendable" or
    "nonextendable"), fixed by the input and never by the answer returned.
    `check` covers exact facts (shapes, identities, exit codes): a failure
    there means the program is broken.  `verdict` compares a solver verdict
    and its witness with the reference: a failure there is an unsound verdict.
    """

    name: str
    klass: Optional[str]
    call: Callable[[], object]
    check: Optional[Callable[[object], Optional[str]]] = None
    verdict: Optional[Callable[[object], Optional[str]]] = None


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate(mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ mat @ u.conj().T


def werner_matrix(p: float) -> np.ndarray:
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    return p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4


def bell_matrix() -> np.ndarray:
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return np.outer(psi, psi).astype(complex)


def separable_matrix(shape: np.random.Generator, m: int, n: int, terms: int) -> np.ndarray:
    """Convex mixture of `terms` random pure product states."""
    mat = np.zeros((m * n, m * n), dtype=complex)
    for w in shape.dirichlet(np.ones(terms)):
        x = np.kron(haar_unitary(shape, m)[:, 0], haar_unitary(shape, n)[:, 0])
        mat += w * np.outer(x, x.conj())
    return mat


def _feasibility_op(pkg, rng, name, mat, m, n, l, extendable, density=None) -> Op:
    """sub_extension_feasibility on a local rotation of `mat`; a given density
    is co-rotated with the same V, so the problem stays equivalent."""
    u, v = haar_unitary(rng, m), haar_unitary(rng, n)
    a_mat = rotate(mat, np.kron(u, v))
    if density is None:
        rho = pkg.Functional.normalized_trace(n)
    else:
        rho = pkg.Functional(rotate(density, v))
    a = pkg.LeggedOperator(a_mat, (m, n))
    d = np.array(rho.density)
    return Op(
        f"{name}@l{l}",
        "extendable" if extendable else "nonextendable",
        lambda: pkg.hierarchy.sub_extension_feasibility(a, rho, l),
        verdict=lambda rep: oracle.check_feasibility(rep, a_mat, m, n, l, d, extendable),
    )


def deep_extension(pkg, seed: int, workdir: str) -> list[Op]:
    """2x2 solves at l = 4, 5: threshold, scale and separable probes."""
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(SHAPE_SEED)
    ext = oracle.werner_extendable
    below4, above4 = 0.5 - 1e-3, 0.5 + 1e-3
    below5 = 7 / 15 - 0.02
    # Werner 0.9 runs at l = 4: at l = 5 its 1000-iteration plateau costs
    # ~10 s, and the run could not time every op more than once.
    cases = [
        ("werner-0.9", werner_matrix(0.9), 4, ext(0.9, 4)),
        ("bell", bell_matrix(), 4, ext(1.0, 4)),
        (f"werner-{below4:.3f}", werner_matrix(below4), 4, ext(below4, 4)),
        (f"werner-{above4:.3f}", werner_matrix(above4), 4, ext(above4, 4)),
        (f"werner-{below5:.4f}", werner_matrix(below5), 5, ext(below5, 5)),
    ]
    # l = 4 rather than 5 for the mixtures: a level-5 solve that runs to the
    # 1000-iteration plateau costs ~14 s, which would not fit a run.
    cases += [(f"separable-{i}", separable_matrix(shape, 2, 2, 4), 4, True) for i in range(4)]
    # a verdict must not depend on the overall scale of the input
    cases += [
        ("werner-0.9-x1e-8", werner_matrix(0.9) * 1e-8, 5, ext(0.9, 5)),
        ("bell-x1e-7", bell_matrix() * 1e-7, 2, ext(1.0, 2)),
    ]
    return [_feasibility_op(pkg, rng, name, mat, 2, 2, l, e) for name, mat, l, e in cases]


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cli_op(pkg, name, klass, argv, out_path, check) -> Op:
    def run():
        if os.path.exists(out_path):
            os.remove(out_path)
        return pkg.cli.main(argv)

    def checked(code):
        if code != 0:
            return f"exit code {code}"
        return check(_read_json(out_path))

    return Op(name, klass, run, check=checked)


def boundary_l8(pkg, seed: int, workdir: str) -> list[Op]:
    """Exponential test at L = 8, block recovery, and two in-process CLI calls."""
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(SHAPE_SEED)
    bd = pkg.boundary
    w = haar_unitary(rng, 2)
    t_pos = rotate(np.diag([1.0, 0.55]), w)
    t_neg = rotate(np.diag([1.0, -0.6]), w)
    g_pos, g_neg = bd.GroupLike(t_pos), bd.GroupLike(t_neg)

    coeff = rotate(np.diag([1.0, 0.4]), haar_unitary(rng, 2))
    seq = bd.grouplike_sequence(pkg.LeggedOperator(coeff, (2,)), g_pos, 6)
    partitions = list(pkg.symmetry.partitions_of(6, max_parts=2))

    def recover_all():
        return [(lam, bd.recover_block(seq, lam)) for lam in partitions]

    def check_blocks(blocks):
        for lam, block in blocks:
            why = oracle.check_recovered_block(np.asarray(block.entries), lam.parts, coeff, t_pos)
            if why:
                return why
        return None

    def check_exponential(want, failing):
        def check(rep):
            got = rep.failing_block.parts if rep.failing_block is not None else None
            if rep.is_exponential != want or got != failing:
                return f"exponential={rep.is_exponential} failing={got}, reference {want} {failing}"
            return None
        return check

    schur_out = os.path.join(workdir, "schur.json")

    def check_subharmonic(rep):
        for key in ("subharmonic", "bridge_agrees"):
            if rep.get(key) is not True:
                return f"{key} is {rep.get(key)}"
        if "image_check" not in rep:
            return "no image check in the report"
        return None

    # a 6-level mixture whose components all have rho(t_i) < 1, so it is
    # subharmonic; at 7 levels it costs ~4 s, and a run fits fewer passes
    bundle = os.path.join(workdir, "bundle.json")
    bundle_out = os.path.join(workdir, "bundle-report.json")
    mixture = grouplike_mixture(pkg, rng, shape, (0.7, 0.95), L=6)
    pkg.serialize.dump_json(pkg.serialize.sequence_to_json(mixture), bundle)
    # klass: whether the input element is positive and subharmonic, so that
    # its image is extendable at every level; schur-table has no input element
    sub_op = _cli_op(pkg, "cli-boundary-subharmonic", "extendable",
                     ["boundary", "--bundle", bundle, "--verify-bridge", "--out", bundle_out],
                     bundle_out, check_subharmonic)

    def check_consistent(code):
        check = _read_json(bundle_out).get("image_check", {}) if code == 0 else {}
        if check.get("consistent") is not True:
            verdict = check.get("separability", {}).get("verdict")
            return f"image check inconsistent (level-1 verdict {verdict})"
        return None

    sub_op.verdict = check_consistent
    return [
        Op("exponential-positive-t", "extendable", lambda: bd.exponential_test(g_pos, 8),
           check=check_exponential(True, None)),
        sub_op,
        Op("exponential-negative-t", "nonextendable", lambda: bd.exponential_test(g_neg, 8),
           check=check_exponential(False, (1,))),
        Op("recover-blocks-l6", "extendable", recover_all, check=check_blocks),
        _cli_op(pkg, "cli-schur-table", None, ["schur-table", "--n", "2", "--l", "7", "--out", schur_out],
                schur_out, lambda rep: oracle.check_schur_table(rep["blocks"], 2, 7)),
    ]


def grouplike_mixture(pkg, rng, shape, mass, terms: int = 3, L: int = 7):
    """x_l = sum_i w_i a_i (x) t_i^{(x)l} with PSD a_i, t_i and rho(t_i) drawn
    from `mass`; the sequence is subharmonic when every rho(t_i) < 1."""
    u, v = haar_unitary(rng, 2), haar_unitary(rng, 2)
    rho = pkg.Functional.normalized_trace(2)
    entries = [np.zeros((2 * 2**l,) * 2, dtype=complex) for l in range(L + 1)]
    for w in shape.dirichlet(np.ones(terms)):
        a = rotate(rotate(np.diag(shape.uniform(0.2, 1.0, 2)), haar_unitary(shape, 2)), u)
        lam = shape.uniform(0.3, 1.0, 2)
        lam *= shape.uniform(*mass) * 2 / lam.sum()
        t = rotate(rotate(np.diag(lam), haar_unitary(shape, 2)), v)
        power = np.eye(1)
        for l in range(L + 1):
            entries[l] += w * np.kron(a, power)
            power = np.kron(power, t)
    ops = [pkg.LeggedOperator(x, (2,) + (2,) * l) for l, x in enumerate(entries)]
    return pkg.SymSequence(2, 2, rho, ops)


WORKLOADS = {
    "deep_extension": deep_extension,
    "boundary_l8": boundary_l8,
}
