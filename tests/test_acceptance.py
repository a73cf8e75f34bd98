"""Acceptance suite: one test per stated criterion, each emitting a single
PASS/FAIL line.  Random instances are drawn from fixed seeds so reruns are
reproducible.

Criterion 3b checks the exact level-l detection region of the 2 (x) 2 Werner
family: level l is extendable exactly for p <= (l+2)/(3l) (2/3 at l = 2, 5/9
at l = 3; Johnson-Viola 2013, DPS 2004), so a grid point is flagged at level l
iff it lies above that threshold.  The PPT test is exact in 2 (x) 2, yet the
PPT-negative band 1/3 < p <= 5/9 is level-3 extendable: a sound solver must
answer `feasible` there with a witness, and flagging the band would be a false
claim of non-extendability.
"""

import time
from typing import NamedTuple

import numpy as np
import pytest

from definetti import (
    Functional,
    GroupLike,
    LeggedOperator,
    Partition,
    SymSequence,
    bell_projector,
    block_compression,
    e_rho_value,
    exponential_test,
    grouplike_sequence,
    is_psd,
    isotypic_projector,
    p_map,
    ppt_min_eig,
    separability_verdict,
    sub_extension_feasibility,
    subharmonic_check,
    validate_k_prefix,
    werner_element,
)
from definetti.hierarchy import ExtensionProblem
from definetti.symmetry import partitions_of

from conftest import dense_phi, dense_validate_k_prefix, phi_star, rand_psd, random_separable

RHO = Functional.normalized_trace(2)
WERNER_GRID = np.linspace(0.0, 1.0, 21)
WERNER_LEVELS = (2, 3)


def werner_threshold(l):
    """Largest Werner weight p that is level-l extendable on 2 (x) 2."""
    return (l + 2) / (3 * l)


class WernerPoint(NamedTuple):
    p: float
    flagged: bool  # infeasible_at_tolerance at some level in WERNER_LEVELS
    eig: float  # ppt_min_eig
    verdicts: dict  # level -> verdict
    witnessed: dict  # level -> whether a witness was returned


def emit(criterion, ok, detail):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# -- shared fixtures ---------------------------------------------------------


@pytest.fixture(scope="module")
def werner_scan():
    """Hierarchy verdicts on the Werner grid at levels 2 and 3, timed."""
    # No expectation may hinge on a solve at a threshold itself.
    for l in WERNER_LEVELS:
        gap = np.abs(WERNER_GRID - werner_threshold(l)).min()
        assert gap > 1e-3, f"grid point within {gap:.1e} of the level-{l} threshold"
    t0 = time.time()
    rows = []
    for p in WERNER_GRID:
        a = werner_element(float(p))
        reports = {l: sub_extension_feasibility(a, RHO, l) for l in WERNER_LEVELS}
        verdicts = {l: r.verdict for l, r in reports.items()}
        rows.append(
            WernerPoint(
                float(p),
                "infeasible_at_tolerance" in verdicts.values(),
                ppt_min_eig(a),
                verdicts,
                {l: r.witness is not None for l, r in reports.items()},
            )
        )
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def subharmonic_suite():
    """100 random subharmonic sequences: mixtures of group-like generators."""
    rng = np.random.default_rng(20260823)
    suite = []
    for _ in range(100):
        seqs = []
        for _ in range(3):
            t = rand_psd(2, rng, floor=0.05)
            t = t / max(1.0, np.trace(t).real / 2)  # rho(t) <= 1
            a = LeggedOperator(rand_psd(2, rng), (2,))
            seqs.append(grouplike_sequence(a, GroupLike(t), 4, RHO))
        w = rng.dirichlet(np.ones(3))
        entries = [
            sum((w[i] * s.entries[l] for i, s in enumerate(seqs[1:], 1)), w[0] * seqs[0].entries[l])
            for l in range(5)
        ]
        suite.append(SymSequence(2, 2, RHO, entries))
    return suite


# -- criteria ----------------------------------------------------------------


def test_criterion_01_forward_de_finetti():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        a = random_separable(rng)
        for l in (2, 3, 4):
            report = sub_extension_feasibility(a, RHO, l)
            if report.verdict != "feasible" or report.final_residual >= 1e-7:
                emit(
                    "criterion 1",
                    False,
                    f"separable element not feasible at l={l}: "
                    f"{report.verdict}, residual {report.final_residual:.2e}",
                )
            worst = max(worst, report.final_residual)
    elapsed = time.time() - t0
    emit(
        "criterion 1",
        elapsed < 300.0,
        f"50 separable elements feasible at l=2,3,4; worst residual "
        f"{worst:.2e}; {elapsed:.1f}s (< 300s)",
    )


def test_criterion_02_bell_detection():
    report = sub_extension_feasibility(bell_projector(), RHO, 2)
    eig = ppt_min_eig(bell_projector())
    ok = report.verdict == "infeasible_at_tolerance" and abs(eig + 0.5) < 1e-9
    emit(
        "criterion 2",
        ok,
        f"Bell projector {report.verdict} at l=2; ppt_min_eig={eig:.12f}",
    )


def test_criterion_03a_ppt_crossing(werner_scan):
    rows, elapsed = werner_scan
    signs = [row.eig > 0 for row in rows]
    crossings = sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)
    lo, hi = 0.0, 1.0
    while hi - lo > 5e-7:
        mid = (lo + hi) / 2
        if ppt_min_eig(werner_element(mid)) > 0:
            lo = mid
        else:
            hi = mid
    p_star = (lo + hi) / 2
    ok = crossings == 1 and abs(p_star - 1 / 3) < 1e-6 and elapsed < 900.0
    emit(
        "criterion 3a",
        ok,
        f"single PPT sign change on grid; p*={p_star:.7f} (1/3 +- 1e-6); "
        f"scan took {elapsed:.1f}s (< 900s)",
    )


def test_criterion_03b_all_ppt_negative_flagged(werner_scan):
    rows, _ = werner_scan
    wrong_level = [
        (row.p, l, row.verdicts[l])
        for row in rows
        for l in WERNER_LEVELS
        if (row.verdicts[l] == "infeasible_at_tolerance") != (row.p > werner_threshold(l))
    ]
    band_unwitnessed = [
        (row.p, row.verdicts[3])
        for row in rows
        if 1 / 3 < row.p <= werner_threshold(3)
        and (row.verdicts[3] != "feasible" or not row.witnessed[3])
    ]
    missed = [
        row.p for row in rows if row.eig < 0 and row.p > werner_threshold(3) and not row.flagged
    ]
    flagged_sets = "; ".join(
        f"l={l} flags "
        f"{[round(row.p, 2) for row in rows if row.verdicts[l] == 'infeasible_at_tolerance']} "
        f"(threshold {werner_threshold(l):.4f})"
        for l in WERNER_LEVELS
    )
    emit(
        "criterion 3b",
        not (wrong_level or band_unwitnessed or missed),
        f"{flagged_sets}; flagged off the region p > (l+2)/(3l): {wrong_level}; "
        f"band 1/3 < p <= 5/9 not feasible with witness at l=3: {band_unwitnessed}; "
        f"PPT-negative points above 5/9 missed: {missed}",
    )


def test_criterion_03c_no_false_entanglement(werner_scan):
    rows, _ = werner_scan
    false_claims = [row.p for row in rows if row.flagged and row.eig >= 0]
    emit(
        "criterion 3c",
        not false_claims,
        f"entangled_evidence only at PPT-negative points; false claims: {false_claims}",
    )


def test_criterion_04_functional_independence():
    rng = np.random.default_rng(404)
    rho_a = Functional.trace(2)
    rho_b = Functional.random_faithful(2, rng)
    suite = [random_separable(rng) for _ in range(14)]
    suite += [bell_projector(), werner_element(1.0), werner_element(0.95), werner_element(0.9)]
    for _ in range(2):
        # maximally entangled pure states in a random local basis
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        w = np.kron(u, v)
        suite.append(LeggedOperator(w @ bell_projector().entries @ w.conj().T, (2, 2)))
    mismatches = 0
    for idx, a in enumerate(suite):
        for l in (2, 3):
            va = sub_extension_feasibility(a, rho_a, l).verdict
            vb = sub_extension_feasibility(a, rho_b, l).verdict
            mismatches += va != vb
    emit(
        "criterion 4",
        mismatches == 0,
        f"verdicts agree between trace and random faithful functional on "
        f"{len(suite)} instances at l=2,3 ({mismatches} mismatches)",
    )


def test_criterion_05_bridge_identity(subharmonic_suite):
    agree = 0
    psd_ok = 0
    for seq in subharmonic_suite:
        sub = subharmonic_check(seq, RHO)
        agree += sub == validate_k_prefix(seq).ok
        image = p_map(seq, RHO)
        psd_ok += all(is_psd(x) for x in image.entries)
    ok = agree == 100 and psd_ok == 100
    emit(
        "criterion 5",
        ok,
        f"bridge agreement {agree}/100, transition images PSD {psd_ok}/100",
    )


def test_blockwise_validation_agrees_with_the_dense_reference(subharmonic_suite):
    # the bridge suite, given densely and by its blocks, and its transition
    # images under P (given by blocks)
    for seq in subharmonic_suite:
        blocks = SymSequence.from_blocks(2, 2, RHO, [seq.blocks(l) for l in range(seq.L + 1)])
        for s in (seq, blocks, p_map(seq, RHO)):
            want, got = dense_validate_k_prefix(s), validate_k_prefix(s)
            assert (got.ok, got.condition, got.level) == (want.ok, want.condition, want.level)


def test_criterion_06_exponential_classification():
    rng = np.random.default_rng(606)
    psd_pass = 0
    for _ in range(200):
        t = rand_psd(2, rng, floor=0.05)
        psd_pass += exponential_test(GroupLike(t), 4).is_exponential
    mixed_fail = 0
    for _ in range(200):
        w = np.array([rng.uniform(0.2, 2.0), -rng.uniform(0.2, 2.0)])
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        report = exponential_test(GroupLike((u * w) @ u.conj().T), 4)
        mixed_fail += (not report.is_exponential) and report.failing_block is not None
    g = GroupLike(np.diag([1.0, -1.0]))
    fund = sorted(np.linalg.eigvalsh(block_compression(g, Partition((1,)))).round(12))
    sym2 = sorted(np.linalg.eigvalsh(block_compression(g, Partition((2,)))).round(12))
    diag_ok = fund == [-1.0, 1.0] and sym2 == [-1.0, 1.0, 1.0]
    ok = psd_pass == 200 and mixed_fail == 200 and diag_ok
    emit(
        "criterion 6",
        ok,
        f"PSD pass {psd_pass}/200, mixed-sign fail {mixed_fail}/200, "
        f"diag(1,-1) blocks {fund} and {sym2}",
    )


def test_criterion_07_schur_weyl_table():
    from definetti import schur_weyl_table

    table = schur_weyl_table(2, 3)
    got = {(lam.parts, d, m) for lam, d, m in table}
    table_ok = got == {((3,), 4, 1), ((2, 1), 2, 2)} and sum(d * m for _, d, m in table) == 8
    projs = [isotypic_projector(2, 3, lam).entries for lam in partitions_of(3, max_parts=2)]
    worst = 0.0
    for i, p in enumerate(projs):
        worst = max(worst, np.abs(p @ p - p).max())
        for q in projs[i + 1 :]:
            worst = max(worst, np.abs(p @ q).max())
    ok = table_ok and worst < 1e-10
    emit(
        "criterion 7",
        ok,
        f"blocks {sorted(got)}, sum dim*mult = 8, projector residuals {worst:.2e}",
    )


def test_criterion_08_eigen_relation():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        t = rand_psd(2, rng, floor=0.02)
        t = t / np.linalg.norm(t, 2)
        g = GroupLike(t)
        rho = Functional.random_faithful(2, rng)
        a = LeggedOperator(rand_psd(2, rng), (2,))
        a = a * (1.0 / a.norm_max())
        seq = grouplike_sequence(a, g, 4, rho)
        shifted = p_map(seq, rho)
        val = e_rho_value(g, rho)
        for l in range(4):
            dev = np.abs(shifted.entries[l].entries - val * seq.entries[l].entries).max()
            worst = max(worst, dev)
    emit(
        "criterion 8",
        worst < 1e-10,
        f"transition operator rescales 50 group-like sequences by rho(t); "
        f"max elementwise error {worst:.2e} (< 1e-10)",
    )


def test_criterion_09_adjoint_identity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for l in (2, 3, 4):
        for _ in range(5):
            rho = Functional.random_faithful(2, rng)
            prob = ExtensionProblem(LeggedOperator(np.eye(4), (2, 2)), rho, l)
            y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = dense_phi(prob, phi_star(prob, y))
            scale = float(np.trace(rho.density @ rho.density).real) ** (l - 1)
            worst = max(worst, np.abs(lhs - scale * y).max() / scale)
    emit(
        "criterion 9",
        worst < 1e-12,
        f"Phi o Phi* = trace(D^2)^(l-1) id for l <= 4; relative error {worst:.2e}",
    )


def test_criterion_10_boundary_hierarchy_consistency(subharmonic_suite):
    contradictions = 0
    for seq in subharmonic_suite:
        report = separability_verdict(seq.entries[1], RHO, max_l=3)
        contradictions += report.verdict == "entangled_evidence"
    emit(
        "criterion 10",
        contradictions == 0,
        f"no subharmonic sequence earns entangled evidence on its level-1 "
        f"image ({contradictions}/100 contradictions)",
    )
