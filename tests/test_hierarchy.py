"""Tests for sequence validation, the feasibility solver, and probes."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from definetti import (
    Functional,
    LeggedOperator,
    SolverOptions,
    SymSequence,
    Symmetrizer,
    bell_projector,
    contract_legs,
    is_psd,
    loewner_leq,
    partitions_of,
    ppt_min_eig,
    product_probe,
    separability_verdict,
    sub_extension_feasibility,
    tensor,
    validate_k_prefix,
    werner_element,
)
from definetti import hierarchy, symmetry
from definetti.boundary import GroupLike, grouplike_sequence
from definetti.serialize import sequence_to_json
from definetti.hierarchy import ExtensionProblem
from definetti.linalg import psd_part
from definetti.symmetry import MAX_LEVEL, level_layout, schur_weyl_block

from conftest import (
    DenseSolver,
    congruence_root,
    copy_bases,
    dense_gram_rows,
    dense_phi,
    dense_sym,
    dense_t_upper,
    dense_validate_k_prefix,
    dense_validate_witness,
    forbid_enumeration,
    phi_star,
    rand_hermitian,
    rand_psd,
    random_separable,
    solved_problem,
    tensor_power,
    to_blocks,
    to_dense,
)

RHO = Functional.normalized_trace(2)


def product_chain(p, q, rho, L):
    """The canonical chain a (x) (q/rho(q))^{(x)l} extending a = p (x) q."""
    a = tensor(LeggedOperator(p, (2,)), LeggedOperator(q, (2,)))
    unit = LeggedOperator(q / rho.value(q).real, (2,))
    entries = [LeggedOperator(p * rho.value(q).real, (2,))]
    for l in range(1, L + 1):
        entries.append(
            tensor(tensor(LeggedOperator(p, (2,)), LeggedOperator(q, (2,))), tensor_power(unit, l - 1))
        )
    return SymSequence(2, 2, rho, entries), a


# -- sequence validation -----------------------------------------------------


def test_sequence_leg_shape_enforced(rng):
    with pytest.raises(ValueError):
        SymSequence(2, 2, RHO, [LeggedOperator(np.eye(4), (2, 2))])
    with pytest.raises(ValueError):
        SymSequence(2, 2, RHO, [])


def test_validate_accepts_product_chain(rng):
    p = rand_psd(2, rng)
    q = rand_psd(2, rng)
    seq, _ = product_chain(p, q, RHO, 4)
    report = validate_k_prefix(seq)
    assert report.ok


def test_validate_flags_psd_violation(rng):
    entries = [LeggedOperator(np.diag([1.0, -0.2]), (2,))]
    report = validate_k_prefix(SymSequence(2, 2, RHO, entries))
    assert not report.ok and report.condition == "psd" and report.level == 0


def test_validate_flags_symmetry_violation(rng):
    x0 = LeggedOperator(np.eye(2), (2,))
    x1 = LeggedOperator(np.eye(4) / 2, (2, 2))
    # an asymmetric but PSD level-2 entry with small enough marginal
    bad = np.diag([0.1, 0.2, 0.05, 0.02, 0.01, 0.02, 0.03, 0.04])
    x2 = LeggedOperator(bad, (2, 2, 2))
    report = validate_k_prefix(SymSequence(2, 2, RHO, [x0, x1, x2]))
    assert not report.ok and report.condition == "symmetry" and report.level == 2


def test_validate_flags_martingale_violation(rng):
    x0 = LeggedOperator(np.eye(2) * 0.1, (2,))
    x1 = LeggedOperator(np.eye(4), (2, 2))  # contraction is I > x0
    report = validate_k_prefix(SymSequence(2, 2, RHO, [x0, x1]))
    assert not report.ok and report.condition == "sub_martingale" and report.level == 0


def test_validate_reports_first_violation_only():
    x0 = LeggedOperator(np.diag([1.0, -0.5]), (2,))
    x1 = LeggedOperator(np.eye(4) * 100, (2, 2))
    report = validate_k_prefix(SymSequence(2, 2, RHO, [x0, x1]))
    assert report.condition == "psd" and report.level == 0


def test_validate_never_sees_an_entry_that_is_not_finite(rng):
    # a level-1 entry with an Inf used to reach the block compression, whose
    # matmul warned "invalid value encountered in matmul"; the entry is now
    # rejected when it is built
    seq, _ = product_chain(rand_psd(2, rng), rand_psd(2, rng), RHO, 2)
    mat = np.array(seq.entry(1).entries)
    mat[0, 0] = np.inf
    with pytest.raises(ValueError, match="must be finite; NaN and Inf are rejected"):
        validate_k_prefix(SymSequence(2, 2, RHO, [seq.entry(0), LeggedOperator(mat, (2, 2)), seq.entry(2)]))


def _verdict(report):
    return report.ok, report.condition, report.level


def _as_blocks(seq):
    """The same sequence given by its Schur-Weyl blocks."""
    return SymSequence.from_blocks(seq.m, seq.n, seq.rho, [seq.blocks(l) for l in range(seq.L + 1)])


def _mixture(m, n, L, rho, rng, terms=3):
    """sum_i w_i a_i (x) t_i^{(x)l} with rho(t_i) in [0.6, 0.95]: PSD and
    strictly subharmonic, so each gap x_l - P(x_{l+1}) is positive definite."""
    entries = [0] * (L + 1)
    for w in rng.dirichlet(np.ones(terms)):
        t = rand_psd(n, rng, floor=0.1)
        t *= rng.uniform(0.6, 0.95) / rho.value(t).real
        a = LeggedOperator(rand_psd(m, rng, floor=0.1), (m,))
        power = LeggedOperator(np.eye(1), ())
        for l in range(L + 1):
            entries[l] = entries[l] + w * tensor(a, power).entries
            power = tensor(power, LeggedOperator(t, (n,)))
    return [LeggedOperator(x, (m,) + (n,) * l) for l, x in enumerate(entries)]


def test_validate_agrees_with_the_dense_reference_on_product_chains(rng):
    for rho in (RHO, Functional.random_faithful(2, rng)):
        for _ in range(5):
            seq, _ = product_chain(rand_psd(2, rng), rand_psd(2, rng), rho, 4)
            want = _verdict(dense_validate_k_prefix(seq))
            assert want == (True, None, None)
            assert _verdict(validate_k_prefix(seq)) == want
            assert _verdict(validate_k_prefix(_as_blocks(seq))) == want


@pytest.mark.parametrize("m, n, L", [(2, 2, 4), (2, 3, 3), (1, 3, 3)])
def test_validate_agrees_with_the_dense_reference_across_the_boundaries(rng, m, n, L):
    # shift one entry by a multiple of I (invariant) so that the least
    # eigenvalue of x_l, or of the gap x_l - P(x_{l+1}), lands at -+1e-6
    # times its scale: just outside the PSD rule's band on either side; and
    # make one entry slightly non-Hermitian.  Then push two levels across at
    # once: each condition is checked over all levels in one batch, and must
    # still report the first level that fails
    rho = Functional.random_faithful(n, rng)
    entries = _mixture(m, n, L, rho, rng)

    def shifted(shifts):
        out = list(entries)
        for l, c in shifts.items():
            out[l] = LeggedOperator(out[l].entries - c * np.eye(out[l].side), out[l].legs)
        return SymSequence(m, n, rho, out)

    cases, across = [], {}
    for l in range(L + 1):
        x = entries[l].entries
        gaps = [("psd", np.linalg.eigvalsh(x)[0])]
        if l < L:
            gap = x - contract_legs(entries[l + 1], rho, [l + 1]).entries
            gaps.append(("sub_martingale", np.linalg.eigvalsh(gap)[0]))
        for condition, least in gaps:
            delta = 1e-6 * np.abs(x).max()
            across[condition, l] = least + delta
            for sign in (1, -1):
                cases.append((condition, l, sign, shifted({l: least + sign * delta})))
        # invariant but not Hermitian: only the Hermitian rule rejects it
        skewed = list(entries)
        skewed[l] = LeggedOperator(x + 1e-6j * np.abs(x).max() * np.eye(len(x)), entries[l].legs)
        cases.append(("psd", l, 1, SymSequence(m, n, rho, skewed)))
    for condition, l, sign, seq in cases:
        want = _verdict(dense_validate_k_prefix(seq))
        if sign == 1:  # just across the rule: least eigenvalue -delta, or skewed
            assert want == (False, condition, l)
        assert _verdict(validate_k_prefix(seq)) == want
        assert _verdict(validate_k_prefix(_as_blocks(seq))) == want
    pairs = 0
    for (first, l), (second, k) in itertools.combinations(across, 2):
        if l == k:
            continue
        seq = shifted({l: across[first, l], k: across[second, k]})
        want = _verdict(dense_validate_k_prefix(seq))
        if first == second == "psd":
            assert want == (False, "psd", l)
        else:  # a psd failure comes before any sub_martingale failure
            assert want[:2] == (False, "psd" if "psd" in (first, second) else "sub_martingale")
        assert _verdict(validate_k_prefix(seq)) == want
        assert _verdict(validate_k_prefix(_as_blocks(seq))) == want
        pairs += 1
    assert pairs == L * (L + 1) // 2 + L * L + L * (L - 1) // 2


def test_validate_checks_the_symmetry_of_dense_entries_first(rng):
    # the blocks of a dense entry hold only its invariant part, so invariance
    # is checked before them: an entry that is neither S_2-invariant nor PSD
    # fails on symmetry, where the dense reference (PSD first) says psd
    entries = _mixture(2, 2, 3, RHO, rng)
    bump = np.zeros((8, 8))
    bump[1, 1] = -2 * np.abs(entries[2].entries).max()
    entries[2] = LeggedOperator(entries[2].entries + bump, (2, 2, 2))
    seq = SymSequence(2, 2, RHO, entries)
    assert _verdict(dense_validate_k_prefix(seq)) == (False, "psd", 2)
    assert _verdict(validate_k_prefix(seq)) == (False, "symmetry", 2)


def test_a_dense_sequence_is_compressed_at_once_and_checked_once(rng, monkeypatch):
    # the blocks are computed when the sequence is built, and the invariance
    # of its L - 1 entries at l >= 2 is checked on first need, once for every
    # later validation and export
    seq = SymSequence(2, 2, RHO, _mixture(2, 2, 4, RHO, rng))

    def compressed(*args):
        raise AssertionError("schur_weyl_block called after construction")

    calls = []
    apply = Symmetrizer.apply_matrix

    def counted(self, entries):
        calls.append(len(self.indices))
        return apply(self, entries)

    monkeypatch.setattr(hierarchy, "schur_weyl_block", compressed)
    monkeypatch.setattr(Symmetrizer, "apply_matrix", counted)
    assert validate_k_prefix(seq).ok and validate_k_prefix(seq).ok
    bundle = sequence_to_json(seq)
    assert len(bundle["entries"]) == 5
    assert sorted(calls) == [2, 3, 4]


def test_a_sequence_given_by_blocks_rebuilds_entries_only_when_read(rng, monkeypatch):
    dense = SymSequence(2, 2, RHO, _mixture(2, 2, 4, RHO, rng))
    rebuilt = []
    inner = hierarchy.from_schur_weyl_blocks

    def counted(blocks, m, n, l):
        rebuilt.append(l)
        return inner(blocks, m, n, l)

    monkeypatch.setattr(hierarchy, "from_schur_weyl_blocks", counted)
    seq = _as_blocks(dense)
    assert validate_k_prefix(seq).ok and seq.with_rho(RHO).L == 4
    assert seq.blocks(3) is seq.blocks(3) and not seq.blocks(3)[0].flags.writeable
    assert rebuilt == []
    assert seq.entry(1).legs == (2, 2) and rebuilt == [1]
    for want, got in zip(dense.entries, seq.entries):
        assert np.abs(got.entries - want.entries).max() <= 1e-13 * np.abs(want.entries).max()
    assert sorted(rebuilt) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="has 2 blocks, got 1"):
        SymSequence.from_blocks(2, 2, RHO, [[np.eye(2)], [np.eye(4)], [np.eye(6)]])
    with pytest.raises(ValueError, match=r"expected \(6, 6\)"):
        SymSequence.from_blocks(2, 2, RHO, [[np.eye(2)], [np.eye(4)], [np.eye(4), np.eye(2)]])


# -- the feasibility solver --------------------------------------------------


def test_adjoint_identity(rng):
    # Phi o Phi* = trace(D^2)^(l-1) * id, checked before trusting the solver
    for l in (2, 3, 4):
        rho = Functional.random_faithful(2, rng)
        prob = ExtensionProblem(LeggedOperator(np.eye(4), (2, 2)), rho, l)
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = dense_phi(prob, phi_star(prob, y))
        scale = float(np.trace(rho.density @ rho.density).real) ** (l - 1)
        assert np.abs(lhs - scale * y).max() < 1e-12 * scale


def _padding(prob):
    """Mask of the stack entries outside every block."""
    mask = np.ones(prob.shape, dtype=bool)
    for k, lam in enumerate(partitions_of(prob.l, max_parts=prob.n)):
        side = prob.m * lam.weyl_dimension(prob.n)
        mask[k, :side, :side] = False
    return mask


def _random_invariant(prob, rng):
    sym = dense_sym(prob)
    g = rng.normal(size=(sym.side, sym.side)) + 1j * rng.normal(size=(sym.side, sym.side))
    return sym.apply_matrix((g + g.conj().T) / 2)


@pytest.mark.parametrize("m, n, l", [(3, 2, 3), (2, 3, 3)])
def test_project_affine_per_block(rng, m, n, l):
    # m != n: a reshape that mixes the m-blocks with the n-legs shows here.
    # The solver's stacks live in the problem it solves under the trace,
    # which the dense references rebuild from rho's density
    rho = Functional.random_faithful(n, rng)
    a = LeggedOperator(rand_psd(m * n, rng), (m, n))
    prob = ExtensionProblem(a, rho, l)
    solved = solved_problem(prob)
    b = _random_invariant(prob, rng)
    out_blocks = prob.project_affine(to_blocks(prob, b))
    out = to_dense(prob, out_blocks)
    scale = np.abs(out).max()
    a_s = solved.a
    assert np.abs(dense_sym(prob).apply_matrix(out) - out).max() < 1e-12 * scale
    assert np.abs(dense_phi(solved, out) - a_s.entries).max() < 1e-10 * max(1.0, a_s.norm_max())
    assert np.abs(prob.project_affine(out_blocks) - out_blocks).max() < 1e-10 * scale
    assert np.abs(out - DenseSolver(solved).project_affine(b)).max() < 1e-10 * scale


@pytest.mark.parametrize("m, n, l", [(2, 2, 3), (3, 2, 3), (2, 3, 3), (2, 2, 6)])
def test_the_congruence_carries_rho_to_the_trace(rng, m, n, l):
    # a = Phi_rho(b) for an invariant PSD b: the solved problem is a_s =
    # S a S under the trace, met by b' = T b T, T = I_m (x) E^{(1/2)(x)l}
    # (`congruence_root`); its blocks map back to those of b, and a
    # certificate Y' maps to S Y' S with trace(S Y' S a) = trace(Y' a_s)
    rho = Functional.random_faithful(n, rng)
    prob = ExtensionProblem(LeggedOperator(np.eye(m * n), (m, n)), rho, l)
    b = _random_invariant(prob, rng)
    b = b @ b.conj().T
    a = LeggedOperator(dense_phi(prob, b), (m, n))
    prob = ExtensionProblem(a, rho, l)
    s = congruence_root(rho.density, m, l)
    assert np.abs(prob.congruence.root - s).max() <= 1e-12 * np.abs(s).max()
    half = LeggedOperator(congruence_root(rho.density, 1, 1), (n,))  # E^(1/2)
    t = np.kron(np.eye(m), tensor_power(half, l).entries)
    x = to_blocks(prob, t @ b @ t)
    a_max = np.abs(prob._a_blocks).max()
    assert np.abs(prob._phi(x) - prob._a_blocks).max() <= 1e-10 * a_max
    back = prob.congruence.inverse_blocks @ x @ prob.congruence.inverse_blocks
    assert np.abs(back - to_blocks(prob, b)).max() <= 1e-10 * np.abs(b).max()
    y = rand_hermitian(m * n, rng)
    y_blocks = y.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    mapped = s @ y @ s
    want = np.vdot(prob._a_blocks, y_blocks)
    assert abs(np.trace(mapped @ a.entries) - want) <= 1e-10 * np.abs(mapped).max() * a.norm_max()


@pytest.mark.parametrize("m, n, l", [(2, 2, 1), (2, 2, 4), (3, 2, 3), (2, 3, 3), (1, 3, 4)])
def test_block_coordinates_round_trip(rng, m, n, l):
    # blocks -> dense -> blocks and dense -> blocks -> dense are identities,
    # and the sqrt(hook) weights make the block norm the Frobenius norm
    rho = Functional.random_faithful(n, rng)
    prob = ExtensionProblem(LeggedOperator(rand_psd(m * n, rng), (m, n)), rho, l)
    b = _random_invariant(prob, rng)
    blocks = to_blocks(prob, b)
    assert (blocks[_padding(prob)] == 0).all()
    assert np.abs(to_dense(prob, blocks) - b).max() < 1e-12 * np.abs(b).max()
    assert abs(np.linalg.norm(blocks) - np.linalg.norm(b)) < 1e-12 * np.linalg.norm(b)
    x = rng.normal(size=prob.shape) + 1j * rng.normal(size=prob.shape)
    x[_padding(prob)] = 0
    dense = to_dense(prob, x)
    assert np.abs(to_blocks(prob, dense) - x).max() < 1e-12 * np.abs(x).max()
    assert abs(np.linalg.norm(dense) - np.linalg.norm(x)) < 1e-12 * np.linalg.norm(x)


def test_dr_iterates_stay_invariant():
    # the first check never symmetrizes: the PSD part of a zero-padded stack
    # is zero-padded, so its DR step is an S_l-invariant operator, and
    # neither the PSD part nor the affine projection is re-hermitized, so
    # the step stays Hermitian only by construction; so does the barrier
    # search's primal estimate, whose padding K(y) never touches
    prob = ExtensionProblem(werner_element(0.499), RHO, 4)
    z = prob.project_affine(np.zeros(prob.shape))
    c = psd_part(z)
    step = prob.project_affine(2 * c - z) - c
    seen = []
    witness = ExtensionProblem.witness
    prob.witness = lambda x, tol: seen.append(x) or witness(prob, x, tol)
    assert prob.barrier_search(1e-7, 50, [])[0] == "tol"
    for x in [z, c, step] + seen:
        assert (x[_padding(prob)] == 0).all()
        assert np.abs(x - x.conj().swapaxes(-1, -2)).max() <= 1e-12 * np.abs(x).max()
        dense = to_dense(prob, x)
        assert np.abs(dense_sym(prob).apply_matrix(dense) - dense).max() <= 1e-10 * np.abs(dense).max()


PARITY_CASES = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (3, 2, 3), (2, 3, 3)]


@pytest.mark.parametrize("m, n, l", PARITY_CASES)
def test_project_affine_is_the_gram_projection(rng, m, n, l):
    # the precomputed projector form x + z0 - scatter(gather(x) P) equals
    # x + K((a - Phi(x)) G^{-T}) and lands on Phi = a
    rho = Functional.random_faithful(n, rng)
    prob = ExtensionProblem(LeggedOperator(rand_psd(m * n, rng), (m, n)), rho, l)
    for _ in range(3):
        g = rng.normal(size=prob.shape) + 1j * rng.normal(size=prob.shape)
        x = (g + g.conj().swapaxes(-1, -2)) / 2
        out = prob.project_affine(x)
        want = x + prob._k((prob._a_blocks - prob._phi(x)) @ prob._gi.T)
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
        a_max = np.abs(prob._a_blocks).max()
        assert np.abs(prob._phi(out) - prob._a_blocks).max() <= 1e-12 * max(a_max, np.abs(x).max())


@pytest.mark.parametrize("m, n, l", PARITY_CASES)
def test_block_solver_matches_dense_replay(m, n, l):
    # under a random functional the block solver solves the congruent
    # problem under the trace and the dense replay solves under rho itself,
    # so their iterates differ: the verdicts agree, and the witness passes
    # the dense reference check under rho
    rng = np.random.default_rng(100 * m + 10 * n + l)
    rho = Functional.random_faithful(n, rng)
    a = LeggedOperator(rand_psd(m * n, rng), (m, n))
    report = sub_extension_feasibility(a, rho, l)
    dense = DenseSolver(ExtensionProblem(a * (1 / a.trace().real), rho, l))
    verdict, _ = dense.solve(SolverOptions())
    assert report.verdict == verdict == "feasible"
    assert dense_validate_witness(ExtensionProblem(a, rho, l), report.witness, 1e-6)


def test_block_solver_matches_dense_replay_on_a_flat_residual():
    # 0.499 <= 1/2 is level-4 extendable, and the residual of plain DR stays
    # flat for about a thousand steps there; the first check answers
    # neither way, and the barrier search is witnessed at Newton step 14
    a = werner_element(0.499)
    report = sub_extension_feasibility(a, RHO, 4)
    dense = DenseSolver(ExtensionProblem(a, RHO, 4))
    verdict, iterations = dense.solve(SolverOptions())
    assert (report.verdict, report.iterations) == (verdict, iterations) == ("feasible", 15)
    assert report.stop_reason == "tol" and report.certificate is None
    assert np.allclose(report.residual_history, dense.history, rtol=1e-5, atol=0)


CERTIFICATE_CASES = [
    (werner_element(0.9), 3, False),
    (bell_projector(), 2, False),
    (werner_element(0.501), 4, False),
    (bell_projector(), 3, True),
]
CERTIFICATE_IDS = ["werner-0.9@3", "bell@2", "werner-0.501@4", "bell@3-random-rho"]


@pytest.mark.parametrize("a, l, random_rho", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_block_solver_matches_dense_replay_on_certificates(rng, a, l, random_rho):
    # under a scalar rho both solve the same problem, step for step; under a
    # random one the verdicts agree and the certificate is checked under rho
    rho = Functional.random_faithful(2, rng) if random_rho else RHO
    report = sub_extension_feasibility(a, rho, l)
    verdict, iterations = DenseSolver(ExtensionProblem(a, rho, l)).solve(SolverOptions())
    assert report.verdict == verdict == "infeasible_at_tolerance"
    _check_certificate(report, a, rho, l)
    if not random_rho:
        assert report.iterations == iterations


def _certificate_steps(prob, steps=50):
    """The first DR steps z_{k+1} - z_k of a block problem."""
    z = prob.project_affine(np.zeros(prob.shape))
    for _ in range(steps):
        c = psd_part(z)
        step = prob.project_affine(2 * c - z) - c
        z = z + step
        yield step


def _assert_block_accepts_dense_certificates(prob):
    # the dense check has no diagonal screen: whatever it accepts on the
    # problem the block solver solves, the block check must accept too
    dense = DenseSolver(solved_problem(prob))
    accepted = 0
    for step in _certificate_steps(prob):
        if dense.certificate(to_dense(prob, step)) is not None:
            accepted += 1
            assert prob.certificate(step) is not None
    return accepted


@pytest.mark.parametrize("m, n, l", PARITY_CASES)
def test_block_certificate_accepts_every_step_the_dense_one_accepts(m, n, l):
    rng = np.random.default_rng(100 * m + 10 * n + l)
    rho = Functional.random_faithful(n, rng)
    a = LeggedOperator(rand_psd(m * n, rng), (m, n))
    _assert_block_accepts_dense_certificates(ExtensionProblem(a * (1 / a.trace().real), rho, l))


@pytest.mark.parametrize("a, l, random_rho", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_block_certificate_accepts_every_dense_certificate_step(rng, a, l, random_rho):
    rho = Functional.random_faithful(2, rng) if random_rho else RHO
    assert _assert_block_accepts_dense_certificates(ExtensionProblem(a, rho, l)) > 0


def _assert_first_check_matches_the_reflected_step(prob):
    # the Douglas-Rachford step from z0 is v = project_affine(2c - z0) - c =
    # (I - 2 Pi)(c - z0), Pi the projector onto range(K): a reflection keeps
    # the norm, and Phi Pi = Phi, so v and z0 - c have the same norm and the
    # same Phi, which is all that `certificate` reads
    z0 = prob._z0
    c = psd_part(z0)
    step = prob.project_affine(2 * c - z0) - c
    norm = np.linalg.norm(z0 - c)
    assert abs(np.linalg.norm(step) - norm) <= 1e-12 * norm
    phi = prob._phi(z0 - c)
    assert np.abs(prob._phi(step) - phi).max() <= 1e-12 * np.abs(phi).max()
    got, want = prob.certificate(z0 - c), prob.certificate(step)
    assert (got is None) == (want is None)
    if got is not None:
        assert abs(got[1] - want[1]) <= 1e-12 * abs(want[1])
    return got is not None


@pytest.mark.parametrize("m, n, l", PARITY_CASES)
def test_the_first_check_reads_the_reflected_step_off_z0(rng, m, n, l):
    rho = Functional.random_faithful(n, rng)
    pure = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
    for mat in (rand_psd(m * n, rng), np.outer(pure, pure.conj())):
        a = LeggedOperator(mat / np.trace(mat).real, (m, n))
        _assert_first_check_matches_the_reflected_step(ExtensionProblem(a, rho, l))


@pytest.mark.parametrize("a, l, random_rho", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_the_first_check_certifies_as_the_reflected_step_does(rng, a, l, random_rho):
    # under the trace the first check's shift is exact, and it certifies
    # all four, Bell at l = 3 under a random functional too
    rho = Functional.random_faithful(2, rng) if random_rho else RHO
    assert _assert_first_check_matches_the_reflected_step(ExtensionProblem(a, rho, l))


# -- the shared solver geometry ------------------------------------------------


def test_problems_at_one_level_share_one_geometry(rng):
    # keyed on (m, n, l) alone: every functional at one level finds the same
    # geometry, another level does not.  The congruence is keyed on the
    # density's entries too: a new Functional with the same density finds it
    rho = Functional.random_faithful(2, rng)
    first = ExtensionProblem(werner_element(0.3), rho, 4)
    second = ExtensionProblem(bell_projector(), Functional(rho.density.copy()), 4)
    assert second.geometry is first.geometry and second.congruence is first.congruence
    assert second._q is first._q and second._weights is first._weights
    assert ExtensionProblem(werner_element(0.3), rho, 3).geometry is not first.geometry
    for other in (RHO, Functional.trace(2), Functional(np.diag([1e-3, 1.0]))):
        prob = ExtensionProblem(werner_element(0.3), other, 4)
        assert prob.geometry is first.geometry and prob.congruence is not first.congruence
    assert second._z0 is not first._z0


GEOMETRY_ARRAYS = ["_kh", "_gi", "_idx", "_weights", "_q"]


@pytest.mark.parametrize("m, n, l", [(2, 2, 4), (3, 2, 3), (2, 3, 3)])
def test_a_rebuilt_geometry_is_bit_identical(rng, m, n, l):
    rho = Functional.random_faithful(n, rng)
    a = LeggedOperator(rand_psd(m * n, rng), (m, n))
    before = ExtensionProblem(a, rho, l)
    hierarchy._geometry.cache_clear()
    after = ExtensionProblem(a, rho, l)
    assert after.geometry is not before.geometry
    for name in GEOMETRY_ARRAYS + ["_z0"]:
        assert getattr(after, name).tobytes() == getattr(before, name).tobytes(), name
    assert after.shape == before.shape
    sides = [[b.shape for b in prob._blocks(np.zeros(prob.shape))] for prob in (before, after)]
    assert sides[0] == sides[1]


def test_a_cold_geometry_holds_few_dense_matrices():
    # the Gram rows are the copy chain's generators, weyl(lambda) wide, and
    # the affine projector is kept as two n^2-row factors, so with the copy
    # chain warm a cold build at (m, n, l) = (2, 3, 6) peaks below one
    # complex 3^6 x 3^6 matrix (the n^2 = 9 dense K(e_j) would be 9 of them)
    copy_bases(3, 6)
    tracemalloc.start()
    try:
        hierarchy._Geometry(2, 3, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 3 ** 12


@pytest.mark.parametrize("m, n, l", [(2, 2, 1), (2, 2, 8), (2, 3, 5), (3, 3, 4), (2, 4, 3)])
def test_gram_rows_equal_the_dense_definition(rng, m, n, l):
    # row j is sqrt(hook) conj(W^T Sym(e_j (x) D^(l-1)) W).flat over the
    # blocks, with D = I: the solver's functional is the trace
    want = dense_gram_rows(n, l, np.eye(n))
    got = hierarchy._Geometry(m, n, l)._kh
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_cached_arrays_are_read_only():
    prob = ExtensionProblem(werner_element(0.3), RHO, 3)
    for name in GEOMETRY_ARRAYS:
        with pytest.raises(ValueError):
            getattr(prob, name)[(0,) * getattr(prob, name).ndim] = 1


def test_a_solve_and_its_report_read_no_copy_basis(monkeypatch):
    # the geometry grows its Gram rows along the copy chain and slices the
    # blocks by their sides: a cold solve builds no n^l-row basis
    def forbidden(*args):
        raise AssertionError("copy_basis called")

    hierarchy._geometry.cache_clear()
    monkeypatch.setattr(symmetry, "copy_basis", forbidden)
    monkeypatch.setattr(hierarchy, "copy_basis", forbidden, raising=False)
    report = sub_extension_feasibility(werner_element(0.4), RHO, 5)
    assert report.verdict == "feasible"
    assert report.to_json()["verdict"] == "feasible"


def _report_key(report):
    witness = None if report.witness is None else report.witness.entries.tobytes()
    return report.verdict, report.iterations, report.residual_history, witness


def test_reused_geometries_give_the_reports_of_fresh_ones(rng):
    # solves alternating between two functionals at the same (n, l) reuse
    # both geometries; each report equals the one from an emptied cache
    rhos = [RHO, Functional.random_faithful(2, rng)]
    inputs = [werner_element(0.45), bell_projector(), random_separable(rng), werner_element(0.3)]
    runs = [(a, rhos[k % 2], l) for k, a in enumerate(inputs) for l in (3, 4)]
    warm = [_report_key(sub_extension_feasibility(a, rho, l)) for a, rho, l in runs]
    for (a, rho, l), want in zip(runs, warm):
        hierarchy._geometry.cache_clear()
        assert _report_key(sub_extension_feasibility(a, rho, l)) == want


def test_werner_level6_feasible_below_threshold():
    # level 6 extends exactly for p <= 4/9
    a = werner_element(0.4)
    report = sub_extension_feasibility(a, RHO, 6)
    assert report.verdict == "feasible"
    assert report.witness.legs == (2,) * 7
    assert dense_validate_witness(ExtensionProblem(a, RHO, 6), report.witness, 1e-6)


def test_product_element_feasible(rng):
    a = tensor(LeggedOperator(rand_psd(2, rng), (2,)), LeggedOperator(rand_psd(2, rng), (2,)))
    a = a * (1.0 / a.norm_max())
    for l in (2, 3, 4):
        report = sub_extension_feasibility(a, RHO, l)
        assert report.verdict == "feasible"
        assert report.final_residual < 1e-7


def test_validate_witness_rejects_asymmetric_and_non_hermitian():
    # base = p (x) I (x) I is a witness for a = Phi(base) = p (x) I; adding
    # p (x) (X (x) Z - Z (x) X) keeps z PSD with the same marginal (X and Z
    # are traceless), so only the S_2-invariance differs.  A block stack is
    # invariant by construction, so only the dense reference can see that
    x, zz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    p = np.diag([1.0, 0.5])
    base = LeggedOperator(np.kron(p, np.eye(4)), (2, 2, 2))
    z = LeggedOperator(base.entries + 0.1 * np.kron(p, np.kron(x, zz) - np.kron(zz, x)), base.legs)
    a = LeggedOperator(np.kron(p, np.eye(2)), (2, 2))
    prob = ExtensionProblem(a, RHO, 2)
    assert dense_validate_witness(prob, base, 1e-6)
    assert prob.validate_witness(to_blocks(prob, base.entries), 1e-6)
    assert is_psd(z) and np.abs(dense_phi(prob, z.entries) - a.entries).max() < 1e-15
    assert not dense_validate_witness(prob, z, 1e-6)
    # an invariant matrix of marginal zero, added with its Hermitian part or
    # alone: only the Hermitian rule rejects the second, densely and in blocks
    skew = 1e-3 * np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.kron(x, x))
    herm_part = base.entries + (skew + skew.T) / 2
    assert dense_validate_witness(prob, LeggedOperator(herm_part, base.legs), 1e-6)
    assert prob.validate_witness(to_blocks(prob, herm_part), 1e-6)
    assert not dense_validate_witness(prob, LeggedOperator(base.entries + skew, base.legs), 1e-6)
    assert not prob.validate_witness(to_blocks(prob, base.entries + skew), 1e-6)


@pytest.mark.parametrize("l", [2, 3])
def test_validate_witness_checks_the_anchor(l):
    # b = 0 is PSD, invariant and has Phi(b) = 0 <= a: only |Phi(b) - a|
    # rejects it, in blocks and densely
    prob = ExtensionProblem(werner_element(0.9), RHO, l)
    assert not prob.validate_witness(np.zeros(prob.shape), 1e-6)
    legs = (prob.m,) + (prob.n,) * prob.l
    assert not dense_validate_witness(prob, LeggedOperator.zeros(legs), 1e-6)


def _record_witness_checks(monkeypatch):
    """(problem, block stack, tol, verdict) of every `validate_witness` call."""
    seen = []
    inner = ExtensionProblem.validate_witness

    def recorded(prob, x, tol):
        ok = inner(prob, x, tol)
        seen.append((prob, x, tol, ok))
        return ok

    monkeypatch.setattr(ExtensionProblem, "validate_witness", recorded)
    return seen


def _assert_checks_agree_with_the_dense_reference(seen):
    assert seen
    for prob, x, tol, ok in seen:
        dense = LeggedOperator(to_dense(prob, x), (prob.m,) + (prob.n,) * prob.l)
        assert ok and dense_validate_witness(prob, dense, tol)


@pytest.mark.parametrize("m, n, l", PARITY_CASES)
def test_witness_check_agrees_with_the_dense_reference_on_parity_cases(monkeypatch, m, n, l):
    # the inputs of `test_block_solver_matches_dense_replay`, all feasible
    seen = _record_witness_checks(monkeypatch)
    rng = np.random.default_rng(100 * m + 10 * n + l)
    rho = Functional.random_faithful(n, rng)
    a = LeggedOperator(rand_psd(m * n, rng), (m, n))
    assert sub_extension_feasibility(a, rho, l).verdict == "feasible"
    _assert_checks_agree_with_the_dense_reference(seen)


@pytest.mark.parametrize("m, n, l", [(2, 3, 3), (2, 3, 4), (3, 2, 4), (2, 2, 8)])
def test_witness_check_agrees_with_the_dense_reference_on_separable_mixtures(
    monkeypatch, m, n, l
):
    seen = _record_witness_checks(monkeypatch)
    rng = np.random.default_rng(7)
    rho = Functional.random_faithful(n, rng)
    for _ in range(3):
        weights = rng.dirichlet(np.ones(3))
        mat = sum(w * np.kron(rand_psd(m, rng), rand_psd(n, rng)) for w in weights)
        report = sub_extension_feasibility(LeggedOperator(mat, (m, n)), rho, l)
        assert report.verdict == "feasible"
    assert len(seen) == 3
    _assert_checks_agree_with_the_dense_reference(seen)


def _random_block_stack(prob, rng):
    """sqrt(hook) B per block, B random PSD of norm 1/2: every entry of the
    blocks and of the dense b is then at most 1/2, so the PSD rule's
    max(1, .) floor is 1 on both."""
    x = np.zeros(prob.shape, dtype=complex)
    for k, (weight, (_, d, _)) in enumerate(zip(prob._weights, level_layout(prob.n, prob.l))):
        side = prob.m * d
        b = rand_psd(side, rng)
        x[k, :side, :side] = weight * b / (2 * np.linalg.norm(b, 2))
    return x


def _problem_of(prob, x):
    """The problem at prob's (rho, l) whose a is the marginal of x, so the
    anchor and the Loewner check hold and only the PSD rule can fail."""
    a = dense_phi(prob, to_dense(prob, x))
    return ExtensionProblem(LeggedOperator(a, (prob.m, prob.n)), prob.rho, prob.l)


@pytest.mark.parametrize("m, n, l", [(2, 2, 4), (2, 3, 3), (3, 2, 3)])
def test_witness_check_rejects_a_block_just_past_the_psd_rule(rng, m, n, l):
    # one block shifted so its least eigenvalue is -(1 -+ 1e-3) tol m n^l:
    # accepted just inside the rule and rejected just past it, in blocks and
    # densely (the dense spectrum is the union of the blocks')
    tol = 1e-6
    rho = Functional.random_faithful(n, rng)
    prob = ExtensionProblem(LeggedOperator(np.eye(m * n), (m, n)), rho, l)
    for k, (weight, (_, d, _)) in enumerate(zip(prob._weights, level_layout(prob.n, prob.l))):
        side = prob.m * d
        for factor, want in ((1 - 1e-3, True), (1 + 1e-3, False)):
            x = _random_block_stack(prob, rng)
            block = x[k, :side, :side] / weight
            shift = np.linalg.eigvalsh(block)[0] + factor * tol * m * n**l
            x[k, :side, :side] -= weight * shift * np.eye(side)
            target = _problem_of(prob, x)
            assert target.validate_witness(x, tol) == want
            dense = LeggedOperator(to_dense(prob, x), (prob.m,) + (prob.n,) * prob.l)
            assert dense_validate_witness(target, dense, tol) == want


@pytest.mark.parametrize("m, n, l", [(2, 2, 4), (2, 3, 3), (3, 2, 3)])
def test_witness_check_rejects_a_marginal_past_the_anchor(rng, m, n, l):
    # (1 - kappa) b has Phi((1 - kappa) b) <= a and is PSD, and its marginal
    # is off by kappa |a|max: accepted below tol, rejected above it
    tol = 1e-6
    rho = Functional.random_faithful(n, rng)
    base = ExtensionProblem(LeggedOperator(np.eye(m * n), (m, n)), rho, l)
    x = _random_block_stack(base, rng)
    prob = _problem_of(base, x)
    assert prob.validate_witness(x, tol)
    assert prob.validate_witness((1 - tol / 2) * x, tol)
    assert not prob.validate_witness((1 - 2 * tol) * x, tol)
    assert not prob.validate_witness(np.zeros(prob.shape), tol)


def test_witness_properties(rng):
    a = random_separable(rng)
    report = sub_extension_feasibility(a, RHO, 3)
    assert report.verdict == "feasible"
    w = report.witness
    assert w.legs == (2, 2, 2, 2)
    assert is_psd(w)
    sym = Symmetrizer(w.legs, [1, 2, 3]).apply(w)
    assert np.abs(sym.entries - w.entries).max() < 1e-6
    marg = contract_legs(w, RHO, [2, 3])
    assert loewner_leq(marg, a, tol=1e-6)


def _parity_input(m, n, l):
    """The input of `test_block_solver_matches_dense_replay` at (m, n, l)."""
    rng = np.random.default_rng(100 * m + 10 * n + l)
    rho = Functional.random_faithful(n, rng)
    return LeggedOperator(rand_psd(m * n, rng), (m, n)), rho, l


# the parity inputs, and criterion 3b's Werner solves (tests/test_acceptance.py)
LAZY_WITNESS_CASES = [_parity_input(*case) for case in PARITY_CASES] + [
    (werner_element(float(p)), RHO, l) for p in np.linspace(0.0, 1.0, 21) for l in (2, 3)
]


def test_witness_is_the_eager_export_built_on_first_read(monkeypatch):
    # a solve forms no dense witness; the first read of report.witness builds
    # it once, byte for byte the export the solver used to build at once,
    # to_dense of the checked block stack times trace(a), and the dense
    # reference check accepts it
    rebuilds = []
    rebuild = hierarchy.from_schur_weyl_blocks

    def counted(blocks, m, n, l):
        rebuilds.append(l)
        return rebuild(blocks, m, n, l)

    checked = []
    validate = ExtensionProblem.validate_witness

    def record(prob, x, tol):
        checked.append((prob, x))
        return validate(prob, x, tol)

    monkeypatch.setattr(hierarchy, "from_schur_weyl_blocks", counted)
    monkeypatch.setattr(ExtensionProblem, "validate_witness", record)
    feasible = 0
    for a, rho, l in LAZY_WITNESS_CASES:
        rebuilds.clear()
        report = sub_extension_feasibility(a, rho, l)
        assert rebuilds == []
        if report.verdict != "feasible":
            assert report.witness is None and report.witness_blocks is None
            continue
        feasible += 1
        w = report.witness
        assert rebuilds == [l]
        assert report.witness is w and rebuilds == [l]
        prob, x = checked[-1]
        eager = LeggedOperator(to_dense(prob, x), (prob.m,) + (prob.n,) * prob.l) * a.trace().real
        assert w.legs == eager.legs and w.entries.tobytes() == eager.entries.tobytes()
        assert dense_validate_witness(ExtensionProblem(a, rho, l), w, 1e-6)
    # Werner p <= (l + 2) / (3l): 14 grid points at l = 2 and 12 at l = 3
    assert feasible == len(PARITY_CASES) + 14 + 12


def test_a_warm_solve_and_its_report_enumerate_no_partition(monkeypatch):
    a = werner_element(0.4)
    want = sub_extension_feasibility(a, RHO, 4)
    forbid_enumeration(monkeypatch)
    got = sub_extension_feasibility(a, RHO, 4)
    assert got.verdict == want.verdict == "feasible"
    assert got.residual_history == want.residual_history
    assert got.to_json() == want.to_json()


def test_witness_blocks_are_the_scaled_read_only_blocks_of_the_witness():
    a = werner_element(0.4) * 3.0
    report = sub_extension_feasibility(a, RHO, 4)
    parts = list(partitions_of(4, max_parts=2))
    assert len(report.witness_blocks) == len(parts)
    for lam, block in zip(parts, report.witness_blocks):
        want = schur_weyl_block(report.witness.entries, 2, 2, lam)
        assert block.shape == want.shape == (2 * lam.weyl_dimension(2),) * 2
        assert np.abs(block - want).max() <= 1e-12 * np.abs(want).max()
        with pytest.raises(ValueError):
            block[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.witness_blocks = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.witness = None


def test_bell_projector_infeasible():
    report = sub_extension_feasibility(bell_projector(), RHO, 2)
    assert report.verdict == "infeasible_at_tolerance"
    assert report.stop_reason == "certificate"
    assert report.final_residual > 1e-3
    assert report.witness is None


def _check_certificate(report, a, rho, l):
    """Sym(Y (x) D^(l-1)) is PSD to 1e-12 relative and trace(Y a) < 0, from
    the entries of Y alone."""
    assert report.verdict == "infeasible_at_tolerance" and report.stop_reason == "certificate"
    y = report.certificate
    assert y.legs == a.legs and y.is_hermitian()
    m, n = a.legs
    k = np.kron(y.entries, tensor_power(LeggedOperator(rho.density, (n,)), l - 1).entries)
    k = Symmetrizer((m,) + (n,) * l, range(1, l + 1)).apply_matrix(k)
    w = np.linalg.eigvalsh((k + k.conj().T) / 2)
    assert w[0] >= -1e-12 * np.abs(w).max()
    value = np.trace(y.entries @ a.entries).real
    assert value < 0
    want = value / (np.linalg.norm(y.entries) * a.trace().real)
    assert abs(report.certificate_margin - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("l", range(2, 7))
def test_werner_certificates_just_above_the_threshold(l):
    a = werner_element((l + 2) / (3 * l) + 1e-3)
    report = sub_extension_feasibility(a, RHO, l)
    _check_certificate(report, a, RHO, l)
    # the first check certifies: no primal estimate gives t_lower, and the
    # certificate bounds t* <= trace(Y a) / trace K(Y) < 0
    assert report.iterations == 1
    assert report.t_lower is None and report.t_upper < 0
    want = dense_t_upper(report.certificate.entries, a, RHO, l)
    assert report.t_upper == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("l", range(2, 7))
def test_werner_just_below_the_threshold_is_never_certified(l):
    report = sub_extension_feasibility(werner_element((l + 2) / (3 * l) - 1e-3), RHO, l)
    assert report.verdict != "infeasible_at_tolerance"
    assert report.certificate is None


@pytest.mark.parametrize("l", range(2, 7))
def test_werner_witnesses_just_below_the_threshold(l):
    a = werner_element((l + 2) / (3 * l) - 1e-3)
    report = sub_extension_feasibility(a, RHO, l)
    assert report.verdict == "feasible" and report.stop_reason == "tol"
    assert dense_validate_witness(ExtensionProblem(a, RHO, l), report.witness, 1e-6)
    assert report.final_residual <= SolverOptions().tol
    # the barrier search needs 11-22 iterations this close to t* = 0
    assert report.iterations <= 30


@pytest.mark.parametrize("l", [2, 3])
def test_certificates_under_random_functionals(rng, l):
    for _ in range(3):
        rho = Functional.random_faithful(2, rng)
        for a in (bell_projector(), werner_element(0.9)):
            _check_certificate(sub_extension_feasibility(a, rho, l), a, rho, l)


def test_certificates_under_random_functionals_come_within_twenty_iterations():
    # Douglas-Rachford with Anderson mixing needed 2-150 steps here; the
    # barrier search certifies within 3-8 iterations
    for seed in (100, 101, 102):
        rho = Functional.random_faithful(2, np.random.default_rng(seed))
        for a in (bell_projector(), werner_element(0.9)):
            report = sub_extension_feasibility(a, rho, 3)
            _check_certificate(report, a, rho, 3)
            assert report.iterations <= 20


def _pure_product_mixture(rng, m, n, terms):
    """A convex mixture of `terms` random pure product states on m (x) n."""
    def unit(d):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

    mat = 0
    for w in rng.dirichlet(np.ones(terms)):
        x = np.kron(unit(m), unit(n))
        mat = mat + w * np.outer(x, x.conj())
    return LeggedOperator(mat, (m, n))


@pytest.mark.parametrize("seed", [0, 1])
def test_rank_four_mixtures_on_2x3_are_witnessed_within_a_hundred_iterations(seed):
    # rank-deficient separable inputs have t* = 0; Douglas-Rachford with
    # Anderson mixing needed 650 and 150 steps on these two
    a = _pure_product_mixture(np.random.default_rng(seed), 2, 3, 4)
    assert np.linalg.matrix_rank(a.entries) == 4
    rho = Functional.normalized_trace(3)
    report = sub_extension_feasibility(a, rho, 3)
    assert report.verdict == "feasible" and report.iterations <= 100
    assert dense_validate_witness(ExtensionProblem(a, rho, 3), report.witness, 1e-6)


def test_the_report_brackets_t_star():
    # t_lower <= t* <= t_upper, t* that of the solved problem (t* of a under
    # rho when rho is a multiple of the trace), with t* >= 0 exactly when a
    # is level-l extendable; a certificate of the first check gives t_upper
    # and no t_lower.  Bell at l = 3 under this functional is certified by
    # the first check; Werner 0.8 takes Newton steps
    random_rho = Functional.random_faithful(2, np.random.default_rng(101))
    for a, rho, l, want in ((werner_element(0.8), random_rho, 3, "infeasible_at_tolerance"),
                            (werner_element(0.499), RHO, 4, "feasible")):
        report = sub_extension_feasibility(a, rho, l)
        assert report.verdict == want and report.iterations > 1
        assert report.t_lower <= report.t_upper
        assert (report.t_upper < 0) == (want == "infeasible_at_tolerance")
        out = report.to_json()
        assert (out["t_lower"], out["t_upper"]) == (report.t_lower, report.t_upper)
        scaled = sub_extension_feasibility(a * 3.0, rho, l)
        assert scaled.t_lower == pytest.approx(3 * report.t_lower, rel=1e-6)
        assert scaled.t_upper == pytest.approx(3 * report.t_upper, rel=1e-6)
    first = sub_extension_feasibility(bell_projector(), RHO, 2)
    assert first.iterations == 1 and first.t_lower is None and first.t_upper < 0
    want = dense_t_upper(first.certificate.entries, bell_projector(), RHO, 2)
    assert first.t_upper == pytest.approx(want, rel=1e-10)
    scaled = sub_extension_feasibility(bell_projector() * 3.0, RHO, 2)
    assert scaled.t_upper == pytest.approx(3 * first.t_upper, rel=1e-6)


@pytest.mark.parametrize(
    "a, l", [(bell_projector(), 2), (werner_element(0.9), 4)], ids=["bell@2", "werner-0.9@4"]
)
def test_a_first_check_bound_lies_in_the_converged_bracket(a, l):
    # with both answers switched off the barrier search runs on to a bracket
    # t_lower <= t* <= t_upper; the first check's bound t* <= trace(Y a) /
    # trace K(Y) lies inside it, at its upper end
    first = sub_extension_feasibility(a, RHO, l)
    assert first.iterations == 1 and first.stop_reason == "certificate"
    prob = ExtensionProblem(a, RHO, l)
    prob._certified = lambda y: None
    prob.witness = lambda c, tol: None
    stop, _, lower, upper = prob.barrier_search(1e-7, 100, [])
    assert stop == "max_iterations" and lower <= first.t_upper <= upper
    assert first.t_upper == pytest.approx(upper, rel=1e-6)


@pytest.mark.parametrize("m, n, l", [(2, 2, 1), (2, 2, 3), (2, 3, 3), (3, 2, 4), (1, 3, 3)])
def test_the_blockwise_hessian_is_its_definition(rng, m, n, l):
    # column j of the Hessian of -log det K(y) at Z = K(y)^{-1} is
    # Phi(Z K(e_j) Z), e_j the j-th complex coordinate of y in m-blocks
    rho = Functional.random_faithful(n, rng)
    prob = ExtensionProblem(LeggedOperator(rand_psd(m * n, rng), (m, n)), rho, l)
    y = prob._y0 + 0.01 * rng.normal(size=prob._y0.shape)
    y4 = y.reshape(m, m, n, n)
    z = prob._inverse(((y4 + y4.transpose(1, 0, 3, 2).conj()) / 2).reshape(m * m, n * n))
    units = np.eye(m * m * n * n).reshape(-1, m * m, n * n)
    want = np.stack([prob._phi(z @ prob._k(e) @ z).reshape(-1) for e in units], axis=1)
    got = prob._hessian(z.reshape(-1)[prob._idx])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("m, n, l", PARITY_CASES)
def test_the_hessian_maps_y_to_phi_of_its_inverse(rng, m, n, l):
    # H y = Phi(Z K(y) Z) = Phi(Z) at Z = K(y)^{-1}, and <y, Phi(Z)> =
    # trace(Z K(y)) is the number of rows of the active corners: the
    # barrier search reads H^{-1} a off its Newton solve by these identities
    rho = Functional.random_faithful(n, rng)
    prob = ExtensionProblem(LeggedOperator(rand_psd(m * n, rng), (m, n)), rho, l)
    y4 = (prob._y0 + 0.01 * rng.normal(size=prob._y0.shape)).reshape(m, m, n, n)
    y = ((y4 + y4.transpose(1, 0, 3, 2).conj()) / 2).reshape(m * m, n * n)
    z = prob._inverse(y)
    want = prob._phi(z)
    got = (prob._hessian(z.reshape(-1)[prob._idx]) @ y.reshape(-1)).reshape(want.shape)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert abs(np.vdot(y, want).real - prob._rows) <= 1e-12 * prob._rows


def _bound_of_iterate(prob, y):
    """The lower bound on t* read off the dual iterate y, from direct solves:
    the Newton step at weight 1 / s, its decrement delta(s), and the primal
    estimate X(s) at the larger root s of delta(s) = 1.  Returns (t(s),
    X(s), delta(s) recomputed from the step), or None without a root."""
    m, n = prob.m, prob.n
    a, c = prob._a_blocks.reshape(-1), prob._phi_eye.reshape(-1)
    z = prob._inverse(y)
    hess = prob._hessian(z.reshape(-1)[prob._idx])
    phi_z = prob._phi(z).reshape(-1)
    p, q, r = np.linalg.solve(hess, np.stack([a, c, phi_z], axis=1)).T
    cc = np.vdot(c, q).real

    def projected(u, hu, v, hv):  # <u, H^{-1} v> off the direction H^{-1} c
        return np.vdot(u, hv).real - np.vdot(c, hu).real * np.vdot(c, hv).real / cc

    # delta(s)^2 = <g, P g> for g = s a - Phi(Z), P = H^{-1} off H^{-1} c
    quad, lin, const = projected(a, p, a, p), projected(a, p, phi_z, r), projected(phi_z, r, phi_z, r)
    disc = lin * lin - quad * (const - 1)
    if disc < 0 or lin + np.sqrt(disc) <= 0:
        return None
    s = (lin + np.sqrt(disc)) / quad
    h_grad = s * p - r  # H^{-1} (s a - Phi(Z))
    w = -np.vdot(c, h_grad).real / cc
    dy = -(h_grad + w * q)
    t = -w / s
    x = (z - z @ prob._k(dy.reshape(m * m, n * n)) @ z) / s
    x = (x + x.conj().swapaxes(1, 2)) / 2
    return t, x + t * prob._eye, np.sqrt(np.vdot(dy, hess @ dy).real)


@pytest.mark.parametrize(
    "a, rho, l, want",
    [(werner_element(0.499), RHO, 4, "feasible"),
     (werner_element(0.8), Functional.random_faithful(2, np.random.default_rng(101)), 3, "infeasible_at_tolerance")],
    ids=["werner-0.499@4", "werner-0.8@3-random-rho"],
)
def test_every_barrier_iterate_bounds_t_star_from_below(monkeypatch, a, rho, l, want):
    # at each dual iterate the estimate X(s+) at the larger root of
    # delta(s) = 1 has Phi(X(s+)) = a and X(s+) >= t(s+) J, so t(s+) <= t*;
    # the report's t_lower is the largest of these over the Newton steps
    iterates = []
    inverse = ExtensionProblem._inverse
    monkeypatch.setattr(ExtensionProblem, "_inverse", lambda prob, y: iterates.append(y) or inverse(prob, y))
    report = sub_extension_feasibility(a, rho, l)
    monkeypatch.undo()
    assert report.verdict == want and report.iterations > 1
    if want == "infeasible_at_tolerance":
        iterates.pop()  # the certified iterate, where no step was taken
    assert len(iterates) == report.iterations - 1
    prob = ExtensionProblem(a, rho, l)
    bounds = []
    for y in iterates:
        got = _bound_of_iterate(prob, y)
        if got is None:
            continue
        t, x, dec = got
        assert dec == pytest.approx(1.0, rel=1e-8)
        assert np.abs(prob._phi(x) - prob._a_blocks).max() <= 1e-10 * np.abs(prob._a_blocks).max()
        least = np.linalg.eigvalsh(x - t * prob._eye)[:, 0].min()
        assert least >= -1e-10 * np.abs(x).max()
        bounds.append(t)
    assert bounds and report.t_lower == pytest.approx(max(bounds), rel=1e-8)
    assert report.t_lower <= report.t_upper


def _haar_product_mixture(rng, m, n, terms):
    """A convex mixture of `terms` pure products, each factor the first
    column of a Haar unitary (QR of a complex Gaussian matrix with the phases
    of R's diagonal taken out): the input drawn by the benchmark's
    `separable_matrix`, draw for draw."""
    def unit(d):
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q[:, 0] * (r[0, 0] / abs(r[0, 0]))

    mat = np.zeros((m * n, m * n), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        x = np.kron(unit(m), unit(n))
        mat += w * np.outer(x, x.conj())
    return LeggedOperator(mat, (m, n))


def test_a_witnessed_solve_can_bracket_t_star_above_zero():
    # 8 pure products on 2 (x) 3 at l = 5: the bound read at the root of
    # delta(s) = 1 proves t* > 0, which the estimates at delta < 1 did not
    # (their best t was -0.0065)
    a = _haar_product_mixture(np.random.default_rng(12), 2, 3, 8)
    report = sub_extension_feasibility(a, Functional.normalized_trace(3), 5)
    assert report.verdict == "feasible"
    assert 0 < report.t_lower <= report.t_upper


def _separable_mixtures(m, n, l):
    """The inputs of `test_witness_check_agrees_with_the_dense_reference_on_separable_mixtures`."""
    rng = np.random.default_rng(7)
    rho = Functional.random_faithful(n, rng)
    for _ in range(3):
        weights = rng.dirichlet(np.ones(3))
        mat = sum(w * np.kron(rand_psd(m, rng), rand_psd(n, rng)) for w in weights)
        yield LeggedOperator(mat, (m, n)), rho, l


SCREEN_CASES = [_parity_input(*case) for case in PARITY_CASES] + [
    case for shape in [(2, 3, 3), (2, 3, 4), (3, 2, 4), (2, 2, 8)] for case in _separable_mixtures(*shape)
]


def test_the_witness_screen_loses_no_witness(monkeypatch):
    # the Cholesky screen only skips tries that `witness` would reject: with
    # it passing every try, verdicts and iteration counts are the same
    want = [sub_extension_feasibility(a, rho, l) for a, rho, l in SCREEN_CASES]
    monkeypatch.setattr(ExtensionProblem, "_may_be_psd", lambda prob, x, tol: True)
    got = [sub_extension_feasibility(a, rho, l) for a, rho, l in SCREEN_CASES]
    assert [(r.verdict, r.iterations) for r in got] == [(r.verdict, r.iterations) for r in want]
    assert {r.verdict for r in want} == {"feasible"}


def test_a_singular_newton_system_ends_as_max_iterations(monkeypatch):
    # a breakdown is never a verdict
    a = werner_element(0.499)
    monkeypatch.setattr(ExtensionProblem, "_hessian", lambda prob, z: np.zeros((16, 16), dtype=complex))
    report = sub_extension_feasibility(a, RHO, 4)
    assert (report.verdict, report.stop_reason, report.iterations) == ("max_iterations", "max_iterations", 1)
    assert report.witness is None and report.certificate is None


def test_a_skewed_functional_is_solved_under_the_trace():
    # the solver works on the congruent problem under the trace, so a
    # density with a small eigenvalue never enters its geometry.  Werner
    # 0.45 under D = diag(1e-3, 1) is witnessed up to l = 6 (a geometry
    # built on D broke down after 75 Newton steps at l = 6 and could not
    # start at l = 8), each witness checked by the dense reference under
    # rho.  At l = 8 the witnesses mapped back to rho's coordinates have
    # entries near 1e19, whose rounding fails the check under rho: the
    # solve is never a wrong verdict, and its bracket shows t* > 0
    a = werner_element(0.45)
    rho = Functional(np.diag([1e-3, 1.0]))
    for l in range(2, 7):
        report = sub_extension_feasibility(a, rho, l)
        assert report.verdict == "feasible"
        assert dense_validate_witness(ExtensionProblem(a, rho, l), report.witness, 1e-6)
    report = sub_extension_feasibility(a, rho, 8)
    assert report.verdict != "infeasible_at_tolerance" and report.certificate is None
    assert 0 < report.t_lower <= report.t_upper
    # Werner 0.9 under D = diag(0.05, 0.95) is certified at l = 3 and 4, at
    # l = 4 by the first check; each certificate is checked densely under rho
    rho = Functional(np.diag([0.05, 0.95]))
    a = werner_element(0.9)
    for l in (3, 4):
        report = sub_extension_feasibility(a, rho, l)
        _check_certificate(report, a, rho, l)
    assert report.iterations == 1


def test_a_warm_witness_try_walks_no_chain(monkeypatch):
    # the blocks that map a witness back are built once per density and
    # level, on the first witness try: a second solve under a new
    # Functional with the same density walks no copy chain
    hierarchy._congruence.cache_clear()
    a, rho = werner_element(0.3), Functional(np.diag([0.3, 0.7]))
    assert sub_extension_feasibility(a, rho, 4).verdict == "feasible"

    def forbidden(*args):
        raise AssertionError("_power_blocks called")

    monkeypatch.setattr(hierarchy, "_power_blocks", forbidden)
    assert sub_extension_feasibility(a, Functional(np.diag([0.3, 0.7])), 4).verdict == "feasible"
    with pytest.raises(AssertionError, match="_power_blocks"):
        sub_extension_feasibility(a, rho, 5)


def test_zero_element_trivially_feasible():
    report = sub_extension_feasibility(LeggedOperator.zeros((2, 2)), RHO, 3)
    assert report.verdict == "feasible" and report.stop_reason == "tol"
    assert report.witness.legs == (2, 2, 2, 2)


def test_solver_rejects_bad_input():
    with pytest.raises(ValueError):
        sub_extension_feasibility(LeggedOperator(np.diag([1.0, 1, 1, -1]), (2, 2)), RHO, 2)
    with pytest.raises(ValueError):
        sub_extension_feasibility(LeggedOperator.identity((2, 2)), RHO, 0)
    with pytest.raises(ValueError):
        sub_extension_feasibility(LeggedOperator.identity((2, 2)), Functional.trace(3), 2)
    # the zero element goes through the same checks as any other input
    zero = LeggedOperator.zeros((2, 2))
    with pytest.raises(ValueError):
        sub_extension_feasibility(zero, Functional.trace(3), 2)
    for l in (0, -1, MAX_LEVEL + 1):
        with pytest.raises(ValueError):
            sub_extension_feasibility(zero, RHO, l)
    with pytest.raises(ValueError):
        sub_extension_feasibility(LeggedOperator.zeros((2,)), RHO, 2)
    for tol in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            SolverOptions(tol=tol)
    for max_iterations in (0, -5):
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=max_iterations)
    assert SolverOptions(tol=1e-16, max_iterations=1).max_iterations == 1


def test_solver_rejects_an_input_that_is_not_finite():
    # an Inf entry used to warn in the Hermitian check and then be called
    # not Hermitian; a NaN was called not Hermitian
    for bad in (np.inf, np.nan, -np.inf):
        mat = np.eye(4, dtype=complex) / 4
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="must be finite; NaN and Inf are rejected"):
            sub_extension_feasibility(LeggedOperator(mat, (2, 2)), RHO, 2)


def test_solver_options_reject_a_max_iterations_that_is_not_an_int():
    # a float or a bool used to construct, and a float then failed the solve
    for max_iterations in (10.0, 1.5, True, False, "10", None):
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=max_iterations)


def _count_eigendecompositions(monkeypatch, names=("eigh", "eigvalsh")):
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def _count_witness_checks(monkeypatch):
    checks = []
    inner = ExtensionProblem.witness

    def counted(prob, c, tol):
        checks.append(tol)
        return inner(prob, c, tol)

    monkeypatch.setattr(ExtensionProblem, "witness", counted)
    return checks


def _count_screens(monkeypatch):
    screens = []
    inner = ExtensionProblem._may_be_psd

    def counted(prob, x, tol):
        screens.append(inner(prob, x, tol))
        return screens[-1]

    monkeypatch.setattr(ExtensionProblem, "_may_be_psd", counted)
    return screens


def test_a_newton_step_runs_no_eigendecomposition(monkeypatch):
    # Werner 0.499 at l = 4 is witnessed at Newton step 14.  The first
    # check's PSD part of z0 is one eigh and each witness check one more; a
    # Newton step factors K(Y) by one Cholesky (at the start and after every
    # step but the last) and runs no eigh or eigvalsh, and each witness try
    # of a step is screened by one more Cholesky: the try at step 1 fails
    # it, so only the one at step 14 is a witness check.  The eigvalsh are
    # the input's PSD check, the first check's witness failing the PSD rule,
    # and the accepted witness's one grouped PSD and Loewner check
    calls = _count_eigendecompositions(monkeypatch, ("eigh", "eigvalsh", "cholesky"))
    checks = _count_witness_checks(monkeypatch)
    screens = _count_screens(monkeypatch)
    report = sub_extension_feasibility(werner_element(0.499), RHO, 4)
    assert (report.verdict, report.iterations) == ("feasible", 15)
    assert len(checks) == 2 and screens == [False, True]
    steps = report.iterations - 1
    assert calls == {"eigh": 1 + 2, "eigvalsh": 1 + 1 + 1, "cholesky": 1 + (steps - 1) + len(screens)}


def test_witness_is_accepted_only_through_validate_witness(monkeypatch):
    # the first check's candidate for Werner 0.3 at l = 2 is a witness; with
    # `validate_witness` saying no, `witness` gives none, so no caller can
    # accept a witness that the check has not passed
    prob = ExtensionProblem(werner_element(0.3), RHO, 2)
    c = psd_part(prob.project_affine(np.zeros(prob.shape)))
    assert prob.witness(c, 1e-7) is not None
    tols = []
    monkeypatch.setattr(ExtensionProblem, "validate_witness", lambda self, x, tol: tols.append(tol) or False)
    assert prob.witness(c, 1e-7) is None
    assert tols == [1e-6]


def test_a_certified_solve_adds_one_eigvalsh(monkeypatch):
    # the certificate check at step 1 is one eigvalsh of the block stack
    calls = _count_eigendecompositions(monkeypatch)
    report = sub_extension_feasibility(bell_projector(), RHO, 2)
    assert (report.verdict, report.iterations) == ("infeasible_at_tolerance", 1)
    assert calls == {"eigh": 1, "eigvalsh": 2}


def test_the_first_check_projects_only_inside_witness(monkeypatch):
    # the first check reads both answers off z0 and its PSD part: a solve
    # certified there projects nothing, and one witnessed there projects
    # once, inside `witness`
    calls, inside = [], []
    project, witness = ExtensionProblem.project_affine, ExtensionProblem.witness

    def spied_project(prob, x):
        calls.append(bool(inside))
        return project(prob, x)

    def spied_witness(prob, c, tol):
        inside.append(c)
        try:
            return witness(prob, c, tol)
        finally:
            inside.pop()

    monkeypatch.setattr(ExtensionProblem, "project_affine", spied_project)
    monkeypatch.setattr(ExtensionProblem, "witness", spied_witness)
    report = sub_extension_feasibility(bell_projector(), RHO, 2)
    assert (report.verdict, report.iterations, calls) == ("infeasible_at_tolerance", 1, [])
    report = sub_extension_feasibility(werner_element(0.3), RHO, 2)
    assert (report.verdict, report.iterations, calls) == ("feasible", 1, [True])


def test_a_witnessed_solve_adds_one_block_eigh_per_check(monkeypatch):
    # Werner 0.499 at l = 4 is witnessed at Newton step 14, after the first
    # check; the barrier search's one earlier try, at step 1, fails the
    # Cholesky screen and runs no eigh: the eigh of the PSD part of z0 and
    # one per witness check, each of the block stack, none of side m n^l
    prob = ExtensionProblem(werner_element(0.499), RHO, 4)
    shapes = []
    inner = np.linalg.eigh

    def counted(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return inner(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    checks = _count_witness_checks(monkeypatch)
    report = sub_extension_feasibility(werner_element(0.499), RHO, 4)
    assert (report.verdict, report.iterations) == ("feasible", 15)
    assert shapes == [prob.shape] * (1 + len(checks)) and len(checks) == 2


def test_residual_is_dr_displacement():
    # residual 1 is the first check's ||z0 - psd_part(z0)||, which the dense
    # replay computes as ||T(z) - z|| of one Douglas-Rachford step from z0,
    # and residual k > 1 the duality gap trace(Y a) - t of Newton step k - 1,
    # as the dense replay computes them on the full legs
    a = werner_element(0.499)
    opts = SolverOptions(tol=1e-16, max_iterations=12)
    report = sub_extension_feasibility(a, RHO, 4, opts)
    dense = DenseSolver(ExtensionProblem(a, RHO, 4))
    assert dense.solve(opts) == ("max_iterations", 12)
    assert report.iterations == len(report.residual_history) == 12
    want = np.array(dense.history)
    assert np.abs(np.array(report.residual_history) - want).max() <= 1e-10 * want.max()
    assert report.final_residual == report.residual_history[-1]


def isotropic_element(fidelity, n=3):
    """F |phi+><phi+| + (1 - F) (I - |phi+><phi+|) / (n^2 - 1) on n (x) n."""
    phi = np.eye(n).reshape(-1) / np.sqrt(n)
    proj = np.outer(phi, phi)
    mat = fidelity * proj + (1 - fidelity) * (np.eye(n * n) - proj) / (n * n - 1)
    return LeggedOperator(mat, (n, n))


def test_the_barrier_search_certifies_an_isotropic_state():
    # 3 (x) 3 isotropic at F = 5/9 + 1e-3, the level-3 threshold under the
    # trace; under this functional it is not level-3 extendable.  The first
    # check does not answer (the Douglas-Rachford loop this solver replaced
    # read a certificate off its step 125 with Anderson mixing, 375 without);
    # the barrier search certifies within 30 Newton steps, and so does the
    # dense replay, which solves under rho itself
    rho = Functional.random_faithful(3, np.random.default_rng(4))
    a = isotropic_element(5 / 9 + 1e-3)
    report = sub_extension_feasibility(a, rho, 3)
    assert report.verdict == "infeasible_at_tolerance" and 1 < report.iterations <= 30
    _check_certificate(report, a, rho, 3)
    verdict, iterations = DenseSolver(ExtensionProblem(a, rho, 3)).solve(SolverOptions())
    assert verdict == "infeasible_at_tolerance" and iterations <= 30


def test_residual_history_monotone_tail(rng):
    a = random_separable(rng)
    report = sub_extension_feasibility(a, RHO, 2)
    assert report.verdict == "feasible"
    assert len(report.residual_history) == report.iterations
    # a feasible solve ends at its first checked witness, not at a small
    # displacement: the verdict rests on the witness's marginal defect
    assert report.final_residual <= SolverOptions().tol
    assert dense_validate_witness(ExtensionProblem(a, RHO, 2), report.witness, 1e-6)


def test_max_iterations_verdict(rng):
    a = random_separable(rng)
    opts = SolverOptions(tol=1e-16, max_iterations=5)
    report = sub_extension_feasibility(a, RHO, 2, opts)
    assert report.verdict == "max_iterations"
    assert report.iterations == 5
    assert report.stop_reason == "max_iterations"


# -- werner family and PPT ---------------------------------------------------


def test_werner_trace_and_purity():
    for p in (0.0, 0.5, 1.0):
        w = werner_element(p)
        assert np.isclose(w.trace(), 1.0)
        assert is_psd(w)
    assert np.isclose(werner_element(1.0).entries[1, 2], -0.5)


def test_ppt_min_eig_closed_form():
    # min eig of the partial transpose is (1 - 3p)/4, affine in p
    for p in (0.0, 0.2, 1 / 3, 0.6, 1.0):
        assert np.isclose(ppt_min_eig(werner_element(p)), (1 - 3 * p) / 4, atol=1e-12)


def test_werner_known_extendability_thresholds():
    # level-l extendability holds exactly for p <= (l+2)/(3l):
    # p2 = 2/3, p3 = 5/9; probe both sides at a safe margin
    for l, thr in ((2, 2 / 3), (3, 5 / 9)):
        below = sub_extension_feasibility(werner_element(thr - 0.05), RHO, l)
        above = sub_extension_feasibility(werner_element(thr + 0.05), RHO, l)
        assert below.verdict == "feasible"
        assert above.verdict == "infeasible_at_tolerance"


def test_cvxpy_oracle_agrees_at_level2():
    # independent SDP formulation of the same level-2 feasibility question
    cp = pytest.importorskip("cvxpy")
    for p, expect in ((0.6, True), (0.75, False)):
        a = werner_element(p)
        b = cp.Variable((8, 8), hermitian=True)
        swap = np.zeros((8, 8))
        src = np.arange(8).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
        swap[src, np.arange(8)] = 1.0
        x = cp.partial_trace(b, [4, 2], 1)
        prob = cp.Problem(
            cp.Minimize(0),
            [b >> 0, b == swap @ b @ swap.T, x == cp.Constant(a.entries)],
        )
        prob.solve(solver=cp.CLARABEL)
        feasible = prob.status in ("optimal", "optimal_inaccurate")
        assert feasible == expect
        report = sub_extension_feasibility(a, RHO, 2)
        assert (report.verdict == "feasible") == expect


def test_separability_verdict_aggregation(rng):
    sep = separability_verdict(random_separable(rng), RHO, max_l=3)
    assert sep.verdict == "separable_evidence"
    assert sep.ppt_min_eig is not None and sep.ppt_min_eig > -1e-9
    ent = separability_verdict(bell_projector(), RHO, max_l=2)
    assert ent.verdict == "entangled_evidence"
    assert ent.ppt_min_eig < -0.4


def test_separability_verdict_is_undetermined_when_a_level_runs_out_of_iterations():
    # Werner 0.499 is extendable at levels 2-4 (thresholds 2/3, 5/9, 1/2).
    # One iteration is the first check alone: it witnesses level 2, while
    # levels 3 and 4 need the barrier search.  max_iterations proves
    # nothing, so the aggregate is undetermined
    report = separability_verdict(werner_element(0.499), RHO, max_l=4, opts=SolverOptions(max_iterations=1))
    assert {l: r.verdict for l, r in report.levels.items()} == {
        2: "feasible", 3: "max_iterations", 4: "max_iterations"
    }
    assert report.verdict == "undetermined"


def test_separability_verdict_needs_a_level():
    for max_l in (1, 0):
        with pytest.raises(ValueError):
            separability_verdict(werner_element(0.3), RHO, max_l=max_l)


def test_separability_verdict_rejects_levels_above_the_bound_up_front(monkeypatch):
    # no level is solved before the bad max_l is reported
    import definetti.hierarchy as hy

    calls = []
    monkeypatch.setattr(hy, "sub_extension_feasibility", lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        separability_verdict(werner_element(0.3), RHO, max_l=MAX_LEVEL + 1)
    assert calls == []


# -- nested levels ------------------------------------------------------------


def _product_mixture(rng, m, n, terms):
    weights = rng.dirichlet(np.ones(terms))
    mat = sum(w * np.kron(rand_psd(m, rng), rand_psd(n, rng)) for w in weights)
    return LeggedOperator(mat, (m, n))


def _assert_nested_equals_level_by_level(a, rho, max_l):
    """The per-level verdicts of `separability_verdict` equal those of
    `sub_extension_feasibility` at every level; each derived level is
    feasible with a witness P^k b of a solved level above it, and those at
    l <= 4 pass the dense reference check."""
    report = separability_verdict(a, rho, max_l)
    assert list(report.levels) == list(range(2, max_l + 1))
    for l, got in report.levels.items():
        assert got.verdict == sub_extension_feasibility(a, rho, l).verdict
        if got.stop_reason != "derived":
            assert got.derived_from is None
            continue
        top = report.levels[got.derived_from]
        assert got.derived_from > l and top.stop_reason == "tol"
        assert got.verdict == "feasible" and got.iterations == 0 and got.residual_history == ()
        assert got.final_residual == top.final_residual
        assert got.t_lower is None and got.t_upper is None and got.certificate is None
        if l <= 4:
            assert dense_validate_witness(ExtensionProblem(a, rho, l), got.witness, 1e-6)
    return report


@pytest.mark.parametrize("max_l", [3, 5, 8])
def test_nested_levels_equal_level_by_level_on_the_werner_scan(max_l):
    derived = 0
    for p in np.linspace(0, 1, 21):
        report = _assert_nested_equals_level_by_level(werner_element(float(p)), RHO, max_l)
        derived += sum(r.stop_reason == "derived" for r in report.levels.values())
    assert derived > 0


def test_nested_levels_equal_level_by_level_on_mixtures_bell_and_a_random_functional(rng):
    cases = [(_product_mixture(rng, 2, n, 3), Functional.normalized_trace(n), "separable_evidence")
             for n in (2, 2, 3, 3)]
    cases += [
        (bell_projector(), RHO, "entangled_evidence"),
        (werner_element(0.3), Functional.random_faithful(2, rng), "separable_evidence"),
    ]
    for a, rho, want in cases:
        assert _assert_nested_equals_level_by_level(a, rho, 4).verdict == want


def test_the_levels_below_a_feasible_top_level_are_derived_from_it():
    report = separability_verdict(werner_element(0.3), RHO, 5)
    assert report.levels[5].stop_reason == "tol"
    m, n, scale, chain = report.levels[5].witness_source
    for l in (2, 3, 4):
        level = report.levels[l]
        assert (level.stop_reason, level.derived_from) == ("derived", 5)
        # the chain of level 5's witness check, scaled, and its suffix
        assert all(np.array_equal(b, c * scale) for b, c in zip(level.witness_blocks, chain[5 - l]))
        assert level.witness_source[3] == chain[5 - l :]
        out = level.to_json()
        assert (out["stop_reason"], out["derived_from"], out["iterations"]) == ("derived", 5, 0)
        assert out["residual_history"] == [] and "witness" in out
    assert report.levels[5].to_json()["derived_from"] is None


def test_a_derived_level_that_fails_its_psd_check_is_solved(monkeypatch):
    # the check of the levels derived from level 5 says level 3 fails, so
    # level 4 is derived from 5, level 3 is solved, and level 2 is derived
    # from 3; the verdicts do not change
    check, calls = hierarchy._first_non_psd, []

    def failing_level_3(groups, sides, tol):
        if list(sides) == [32, 16, 8]:  # the derived levels 4, 3, 2 of 2 (x) 2
            calls.append(tol)
            return 1
        return check(groups, sides, tol)

    monkeypatch.setattr(hierarchy, "_first_non_psd", failing_level_3)
    report = separability_verdict(werner_element(0.3), RHO, 5, SolverOptions(tol=1e-8))
    assert calls == [pytest.approx(1e-7)]
    got = {l: (r.verdict, r.stop_reason, r.derived_from) for l, r in report.levels.items()}
    assert got == {
        2: ("feasible", "derived", 3),
        3: ("feasible", "tol", None),
        4: ("feasible", "derived", 5),
        5: ("feasible", "tol", None),
    }
    assert report.levels[3].iterations > 0
    assert report.verdict == "separable_evidence"


def test_levels_below_one_that_is_not_feasible_are_solved():
    # Werner 0.6 is extendable at level 2 only (thresholds 2/3, 5/9, 1/2)
    report = separability_verdict(werner_element(0.6), RHO, 4)
    got = {l: (r.verdict, r.stop_reason) for l, r in report.levels.items()}
    assert got == {
        2: ("feasible", "tol"),
        3: ("infeasible_at_tolerance", "certificate"),
        4: ("infeasible_at_tolerance", "certificate"),
    }


@pytest.mark.parametrize("s", [1e-10, 1e-7, 1.0, 1e4, 1e10])
def test_verdicts_do_not_depend_on_the_scale_of_the_input(s):
    for a, l in ((bell_projector() * s, 2), (werner_element(0.9) * s, 3)):
        report = sub_extension_feasibility(a, RHO, l)
        assert report.verdict == "infeasible_at_tolerance"
        assert report.certificate is not None
        assert np.trace(report.certificate.entries @ a.entries).real < 0
    a = werner_element(0.3) * s
    report = sub_extension_feasibility(a, RHO, 3)
    assert report.verdict == "feasible"
    marg = contract_legs(report.witness, RHO, [2, 3])
    assert np.abs(marg.entries - a.entries).max() <= 1e-6 * a.norm_max()
    assert separability_verdict(werner_element(0.9) * s, RHO, max_l=3).verdict == "entangled_evidence"


# -- the product probe ------------------------------------------------------


def test_product_probe_accepts_product_chain(rng):
    p = rand_psd(2, rng)
    q = rand_psd(2, rng)
    x0 = LeggedOperator(p, (2,))
    b = LeggedOperator(q, (2,))
    entries = [tensor(x0, tensor_power(b, l)) for l in range(4)]
    probe = product_probe(SymSequence(2, 2, RHO, entries))
    assert probe.is_product
    # recovered factor matches q up to the trace normalization used
    ratio = probe.b.entries / q
    assert np.abs(ratio - ratio.flat[0]).max() < 1e-9


def test_product_probe_rejects_non_positive_trace():
    for x0 in (np.diag([1.0, -1.0]), np.zeros((2, 2))):
        x0 = LeggedOperator(x0, (2,))
        entries = [tensor(x0, LeggedOperator.identity((2,) * l)) for l in range(3)]
        with pytest.raises(ValueError):
            product_probe(SymSequence(2, 2, RHO, entries))


def test_product_probe_rejects_mixture(rng):
    # equal mixture of two distinct product chains is not product;
    # the deviation at level 2 is an explicit nonzero cross term
    p1, q1 = np.eye(2), np.diag([1.0, 0.0]) + 1e-3 * np.eye(2)
    p2, q2 = np.eye(2), np.diag([0.0, 1.0]) + 1e-3 * np.eye(2)
    entries = []
    for l in range(3):
        e1 = tensor(LeggedOperator(p1, (2,)), tensor_power(LeggedOperator(q1, (2,)), l))
        e2 = tensor(LeggedOperator(p2, (2,)), tensor_power(LeggedOperator(q2, (2,)), l))
        entries.append((e1 + e2) * 0.5)
    probe = product_probe(SymSequence(2, 2, RHO, entries))
    assert not probe.is_product


def test_product_probe_reads_blocks_and_forms_no_dense_entry(rng, monkeypatch):
    # a (x) t^{(x)8} on m, n = 2, 3 has dense entries of side 2 * 3^8; the
    # probe compares the blocks with a (x) pi_lam(b) and reads only x_0 and
    # x_1, each of which is a single block
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    t /= np.linalg.norm(t, 2)
    a = LeggedOperator(rand_psd(2, rng), (2,))
    seq = grouplike_sequence(a, GroupLike(t), 8)
    dense = hierarchy.from_schur_weyl_blocks

    def level_one_at_most(blocks, m, n, l):
        assert l <= 1, f"dense entry {l} formed"
        return dense(blocks, m, n, l)

    monkeypatch.setattr(hierarchy, "from_schur_weyl_blocks", level_one_at_most)
    probe = product_probe(seq)
    assert probe.is_product
    assert np.abs(probe.b.entries - t).max() < 1e-12
    # a relative 1e-6 change of one level-8 block is seen
    blocks = [list(seq.blocks(l)) for l in range(9)]
    blocks[8][-1] = blocks[8][-1] * (1 + 1e-6)
    assert not product_probe(SymSequence.from_blocks(2, 3, seq.rho, blocks)).is_product


def test_product_probe_rejects_a_non_invariant_dense_entry(rng):
    # x_2 = p (x) (q (x) q + eps C) with C = q (x) r - r (x) q: C is odd
    # under the swap, so its blocks vanish and the blocks are a product's,
    # but the dense entry is not S_2-invariant
    p, q, r = (rand_psd(2, rng) for _ in range(3))
    c = np.kron(q, r) - np.kron(r, q)
    entries = [p, np.kron(p, q), np.kron(p, np.kron(q, q) + 1e-3 * c)]
    seq = SymSequence(2, 2, RHO, [LeggedOperator(x, (2,) * (l + 1)) for l, x in enumerate(entries)])
    assert seq.asymmetric_level == 2
    assert not product_probe(seq).is_product
