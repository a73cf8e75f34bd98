"""Tests for sequence validation, the feasibility solver, and probes."""

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
    compress_chain,
    contract_legs,
    is_psd,
    loewner_leq,
    partitions_of,
    ppt_min_eig,
    product_probe,
    separability_verdict,
    sub_extension_feasibility,
    tensor,
    tensor_power,
    validate_k_prefix,
    werner_element,
)
from definetti import hierarchy
from definetti.hierarchy import CERTIFICATE_PERIOD, ExtensionProblem, is_checkpoint
from definetti.linalg import psd_part
from definetti.symmetry import MAX_LEVEL, copy_bases

from conftest import (
    DenseDR,
    dense_gram_rows,
    dense_validate_k_prefix,
    phi_star,
    rand_psd,
    random_separable,
    to_blocks,
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
    # make one entry slightly non-Hermitian
    rho = Functional.random_faithful(n, rng)
    entries = _mixture(m, n, L, rho, rng)
    cases = []
    for l in range(L + 1):
        x = entries[l].entries
        gaps = [("psd", np.linalg.eigvalsh(x)[0])]
        if l < L:
            gap = x - contract_legs(entries[l + 1], rho, [l + 1]).entries
            gaps.append(("sub_martingale", np.linalg.eigvalsh(gap)[0]))
        for condition, least in gaps:
            delta = 1e-6 * np.abs(x).max()
            for sign in (1, -1):
                shifted = list(entries)
                shifted[l] = LeggedOperator(x - (least + sign * delta) * np.eye(len(x)), entries[l].legs)
                cases.append((condition, l, sign, SymSequence(m, n, rho, shifted)))
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
        lhs = prob.phi(phi_star(prob, y))
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
    side = prob.sym.side
    g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return prob.sym.apply_matrix((g + g.conj().T) / 2)


@pytest.mark.parametrize("m, n, l", [(3, 2, 3), (2, 3, 3)])
def test_project_affine_per_block(rng, m, n, l):
    # m != n: a reshape that mixes the m-blocks with the n-legs shows here
    rho = Functional.random_faithful(n, rng)
    a = LeggedOperator(rand_psd(m * n, rng), (m, n))
    prob = ExtensionProblem(a, rho, l)
    b = _random_invariant(prob, rng)
    out_blocks = prob.project_affine(to_blocks(prob, b))
    out = prob.to_dense(out_blocks)
    scale = np.abs(out).max()
    assert np.abs(prob.sym.apply_matrix(out) - out).max() < 1e-12 * scale
    assert np.abs(prob.phi(out) - a.entries).max() < 1e-10 * max(1.0, a.norm_max())
    assert np.abs(prob.project_affine(out_blocks) - out_blocks).max() < 1e-10 * scale
    assert np.abs(out - DenseDR(prob).project_affine(b)).max() < 1e-10 * scale


@pytest.mark.parametrize("m, n, l", [(2, 2, 1), (2, 2, 4), (3, 2, 3), (2, 3, 3), (1, 3, 4)])
def test_block_coordinates_round_trip(rng, m, n, l):
    # blocks -> dense -> blocks and dense -> blocks -> dense are identities,
    # and the sqrt(hook) weights make the block norm the Frobenius norm
    rho = Functional.random_faithful(n, rng)
    prob = ExtensionProblem(LeggedOperator(rand_psd(m * n, rng), (m, n)), rho, l)
    b = _random_invariant(prob, rng)
    blocks = to_blocks(prob, b)
    assert (blocks[_padding(prob)] == 0).all()
    assert np.abs(prob.to_dense(blocks) - b).max() < 1e-12 * np.abs(b).max()
    assert abs(np.linalg.norm(blocks) - np.linalg.norm(b)) < 1e-12 * np.linalg.norm(b)
    x = rng.normal(size=prob.shape) + 1j * rng.normal(size=prob.shape)
    x[_padding(prob)] = 0
    dense = prob.to_dense(x)
    assert np.abs(to_blocks(prob, dense) - x).max() < 1e-12 * np.abs(x).max()
    assert abs(np.linalg.norm(dense) - np.linalg.norm(x)) < 1e-12 * np.linalg.norm(x)


def _solver_iterate(prob, steps=1000):
    """The point the solver's mixed DR loop reaches after `steps` steps,
    with no stopping test."""
    z = prob.project_affine(np.zeros(prob.shape))
    mixer = hierarchy._Anderson()
    for _ in range(steps):
        c = psd_part(z)
        step = prob.project_affine(2 * c - z) - c
        z = mixer.update(z + step, step, float(np.linalg.norm(step)))
    return z


def test_dr_iterates_stay_invariant():
    # the loop never symmetrizes: the PSD part of a zero-padded stack is
    # zero-padded, so every iterate is an S_l-invariant operator, and
    # neither the PSD part nor the affine projection is re-hermitized, so the
    # iterates stay Hermitian only by construction (the mixing coefficients
    # are real, so a mixed point is a real combination of Hermitian stacks)
    prob = ExtensionProblem(werner_element(0.499), RHO, 4)
    z = _solver_iterate(prob)
    assert (z[_padding(prob)] == 0).all()
    assert np.abs(z - z.conj().swapaxes(-1, -2)).max() <= 1e-12 * np.abs(z).max()
    dense = prob.to_dense(z)
    assert np.abs(prob.sym.apply_matrix(dense) - dense).max() <= 1e-10 * np.abs(dense).max()


def test_mixed_iterates_do_not_run_off_on_an_infeasible_input():
    # the iterates drift along the gap vector; the regularization keeps the
    # mixing near plain DR there (whose |z|max is about 190 after 1000
    # steps) rather than extrapolating along the drift
    prob = ExtensionProblem(werner_element(0.9), RHO, 3)
    z = _solver_iterate(prob)
    assert np.abs(z).max() < 1e3
    assert np.abs(z - z.conj().swapaxes(-1, -2)).max() <= 1e-12 * np.abs(z).max()


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


def test_checkpoints_are_the_powers_of_two_and_the_period_multiples():
    assert {k for k in range(1, 101) if is_checkpoint(k)} == {1, 2, 4, 8, 16, 25, 32, 50, 64, 75, 100}


@pytest.mark.parametrize("m, n, l", PARITY_CASES)
def test_block_solver_matches_dense_replay(m, n, l):
    rng = np.random.default_rng(100 * m + 10 * n + l)
    rho = Functional.random_faithful(n, rng)
    a = LeggedOperator(rand_psd(m * n, rng), (m, n))
    report = sub_extension_feasibility(a, rho, l)
    verdict, iterations = DenseDR(ExtensionProblem(a * (1 / a.trace().real), rho, l)).solve(SolverOptions())
    assert (report.verdict, report.iterations) == (verdict, iterations)


def test_block_solver_matches_dense_replay_on_a_flat_residual():
    # 0.499 <= 1/2 is level-4 extendable, and the residual of plain DR stays
    # flat for about a thousand steps (its witness check at step 32 settled
    # it); the mixed iteration falls below tol at step 12, after one
    # safeguard restart
    a = werner_element(0.499)
    report = sub_extension_feasibility(a, RHO, 4)
    dense = DenseDR(ExtensionProblem(a, RHO, 4))
    verdict, iterations = dense.solve(SolverOptions())
    assert (report.verdict, report.iterations) == (verdict, iterations) == ("feasible", 12)
    assert report.restarts == dense.restarts == 1
    assert report.stop_reason == "tol" and report.certificate is None


CERTIFICATE_CASES = [
    (werner_element(0.9), 3, False),
    (bell_projector(), 2, False),
    (werner_element(0.501), 4, False),
    (bell_projector(), 3, True),
]
CERTIFICATE_IDS = ["werner-0.9@3", "bell@2", "werner-0.501@4", "bell@3-random-rho"]


@pytest.mark.parametrize("a, l, random_rho", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_block_solver_matches_dense_replay_on_certificates(rng, a, l, random_rho):
    rho = Functional.random_faithful(2, rng) if random_rho else RHO
    report = sub_extension_feasibility(a, rho, l)
    verdict, iterations = DenseDR(ExtensionProblem(a, rho, l)).solve(SolverOptions())
    assert (report.verdict, report.iterations) == (verdict, iterations)
    assert report.verdict == "infeasible_at_tolerance"


def _certificate_steps(prob, steps=50):
    """The first DR steps z_{k+1} - z_k of a block problem."""
    z = prob.project_affine(np.zeros(prob.shape))
    for _ in range(steps):
        c = psd_part(z)
        step = prob.project_affine(2 * c - z) - c
        z = z + step
        yield step


def _assert_screen_keeps_every_certificate(prob):
    # the dense check has no diagonal screen: whatever it accepts, the block
    # check must accept too
    dense = DenseDR(prob)
    accepted = 0
    for step in _certificate_steps(prob):
        if dense.certificate(prob.to_dense(step)) is not None:
            accepted += 1
            assert prob.certificate(step) is not None
    return accepted


@pytest.mark.parametrize("m, n, l", PARITY_CASES)
def test_certificate_screen_rejects_no_accepted_step(m, n, l):
    rng = np.random.default_rng(100 * m + 10 * n + l)
    rho = Functional.random_faithful(n, rng)
    a = LeggedOperator(rand_psd(m * n, rng), (m, n))
    _assert_screen_keeps_every_certificate(ExtensionProblem(a * (1 / a.trace().real), rho, l))


@pytest.mark.parametrize("a, l, random_rho", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_certificate_screen_rejects_no_accepted_certificate_step(rng, a, l, random_rho):
    rho = Functional.random_faithful(2, rng) if random_rho else RHO
    assert _assert_screen_keeps_every_certificate(ExtensionProblem(a, rho, l)) > 0


# -- the shared solver geometry ------------------------------------------------


def test_problems_at_one_level_share_one_geometry(rng):
    # keyed on the density's entries: a new Functional with the same density
    # finds the same geometry, another level or functional does not
    rho = Functional.random_faithful(2, rng)
    first = ExtensionProblem(werner_element(0.3), rho, 4)
    second = ExtensionProblem(bell_projector(), Functional(rho.density.copy()), 4)
    assert second.geometry is first.geometry
    assert second._q is first._q and second.sym is first.sym
    assert ExtensionProblem(werner_element(0.3), rho, 3).geometry is not first.geometry
    assert ExtensionProblem(werner_element(0.3), RHO, 4).geometry is not first.geometry
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
    assert [w.tobytes() for _, w in after._copies] == [w.tobytes() for _, w in before._copies]
    assert after.shape == before.shape


def test_a_cold_geometry_holds_few_dense_matrices():
    # the Gram rows grow along the copy chain, weyl(lambda) wide, and the
    # affine projector is kept as two n^2-row factors, so with the copy
    # chain warm a cold build at (m, n, l) = (2, 3, 6) peaks below one
    # complex 3^6 x 3^6 matrix (the n^2 = 9 dense K(e_j) would be 9 of them)
    rho = Functional.random_faithful(3, np.random.default_rng(5))
    copy_bases(3, 6)
    tracemalloc.start()
    try:
        hierarchy._Geometry(2, 3, 6, rho.density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 3 ** 12


@pytest.mark.parametrize("m, n, l", [(2, 2, 1), (2, 2, 8), (2, 3, 5), (3, 3, 4), (2, 4, 3)])
def test_gram_rows_equal_the_dense_definition(rng, m, n, l):
    # row j is sqrt(hook) conj(W^T Sym(e_j (x) D^(l-1)) W).flat over the
    # blocks, whatever the recursion that builds it
    rho = Functional.random_faithful(n, rng)
    want = dense_gram_rows(n, l, rho.density)
    got = hierarchy._Geometry(m, n, l, rho.density)._kh
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_cached_arrays_are_read_only():
    prob = ExtensionProblem(werner_element(0.3), RHO, 3)
    for name in GEOMETRY_ARRAYS:
        with pytest.raises(ValueError):
            getattr(prob, name)[(0,) * getattr(prob, name).ndim] = 1
    with pytest.raises(ValueError):
        prob._copies[0][1][0, 0] = 1


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
    assert ExtensionProblem(a, RHO, 6).validate_witness(report.witness, 1e-6)


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
    # are traceless), so only the S_2-invariance differs
    x, zz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    p = np.diag([1.0, 0.5])
    base = LeggedOperator(np.kron(p, np.eye(4)), (2, 2, 2))
    z = LeggedOperator(base.entries + 0.1 * np.kron(p, np.kron(x, zz) - np.kron(zz, x)), base.legs)
    a = LeggedOperator(np.kron(p, np.eye(2)), (2, 2))
    prob = ExtensionProblem(a, RHO, 2)
    assert prob.validate_witness(base, 1e-6)
    assert is_psd(z) and np.abs(prob.phi(z.entries) - a.entries).max() < 1e-15
    assert not prob.validate_witness(z, 1e-6)
    # an invariant matrix of marginal zero, added with its Hermitian part or alone
    skew = 1e-3 * np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.kron(x, x))
    herm_part = LeggedOperator(base.entries + (skew + skew.T) / 2, base.legs)
    assert prob.validate_witness(herm_part, 1e-6)
    assert not prob.validate_witness(LeggedOperator(base.entries + skew, base.legs), 1e-6)


@pytest.mark.parametrize("l", [2, 3])
def test_validate_witness_checks_the_anchor(l):
    # b = 0 is PSD, invariant and has Phi(b) = 0 <= a: only |Phi(b) - a|
    # rejects it
    prob = ExtensionProblem(werner_element(0.9), RHO, l)
    assert not prob.validate_witness(LeggedOperator.zeros(prob.big_legs), 1e-6)


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
    assert report.iterations < CERTIFICATE_PERIOD


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
    assert ExtensionProblem(a, RHO, l).validate_witness(report.witness, 1e-6)
    assert report.final_residual <= SolverOptions().tol
    assert report.iterations <= CERTIFICATE_PERIOD


@pytest.mark.parametrize("l", [2, 3])
def test_certificates_under_random_functionals(rng, l):
    for _ in range(3):
        rho = Functional.random_faithful(2, rng)
        for a in (bell_projector(), werner_element(0.9)):
            _check_certificate(sub_extension_feasibility(a, rho, l), a, rho, l)


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


def _count_eigendecompositions(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        inner = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def test_one_eigendecomposition_per_step(monkeypatch):
    # a DR step is one eigh; steps 1, 2 and 4 are checkpoints, each adding
    # one witness eigh, and Werner 0.3 at l = 5 is witnessed at step 4 (the
    # witness's relative defects are about 2e-2, 6e-3 and 2e-16).  No
    # certificate eigvalsh runs.  At step 2 trace(Y a) is about +0.06.  At
    # steps 1 and 4 it is about -0.11 and -0.005, but the shift read off the
    # diagonal of K(Y) lifts it to about +0.04 and +0.24, so the screen
    # decides on values far above rounding.  The three eigvalsh are the
    # input's PSD check and the witness's PSD and Loewner checks
    calls = _count_eigendecompositions(monkeypatch)
    report = sub_extension_feasibility(werner_element(0.3), RHO, 5)
    assert (report.verdict, report.iterations) == ("feasible", 4)
    assert calls == {"eigh": 4 + 3, "eigvalsh": 1 + 2}


def test_a_certified_solve_adds_one_eigvalsh(monkeypatch):
    # the certificate check at step 1 is one eigvalsh of the block stack
    calls = _count_eigendecompositions(monkeypatch)
    report = sub_extension_feasibility(bell_projector(), RHO, 2)
    assert (report.verdict, report.iterations) == ("infeasible_at_tolerance", 1)
    assert calls == {"eigh": 1, "eigvalsh": 2}


def test_a_witnessed_solve_adds_one_block_eigh_per_check(monkeypatch):
    # Werner 0.499 at l = 4 is witnessed at step 12, where the residual falls
    # below tol, after the checkpoints 1, 2, 4 and 8: 12 step eighs and 5
    # witness eighs, each of the block stack, none of side m n^l
    prob = ExtensionProblem(werner_element(0.499), RHO, 4)
    shapes = []
    inner = np.linalg.eigh

    def counted(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return inner(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    report = sub_extension_feasibility(werner_element(0.499), RHO, 4)
    assert (report.verdict, report.iterations) == ("feasible", 12)
    assert shapes == [prob.shape] * (12 + 5)


def test_residual_is_dr_displacement():
    # residual k is ||T(z_k) - z_k|| at the k-th evaluated point of the mixed
    # recursion, as the dense replay computes it on the full legs
    a = werner_element(0.499)
    opts = SolverOptions(tol=1e-16, max_iterations=20)
    report = sub_extension_feasibility(a, RHO, 4, opts)
    dense = DenseDR(ExtensionProblem(a, RHO, 4))
    assert dense.solve(opts) == ("max_iterations", 20)
    # to 1e-12 of the largest residual: from step 13 on, the residuals are
    # rounding noise near 1e-14
    want = np.array(dense.history)
    assert np.abs(np.array(report.residual_history) - want).max() <= 1e-12 * want.max()
    assert report.restarts == dense.restarts


class _PlainDR:
    """Stand-in for `hierarchy._Anderson` that never mixes: plain DR."""

    restarts = 0

    def update(self, g, f, residual):
        return g


def isotropic_element(fidelity, n=3):
    """F |phi+><phi+| + (1 - F) (I - |phi+><phi+|) / (n^2 - 1) on n (x) n."""
    phi = np.eye(n).reshape(-1) / np.sqrt(n)
    proj = np.outer(phi, phi)
    mat = fidelity * proj + (1 - fidelity) * (np.eye(n * n) - proj) / (n * n - 1)
    return LeggedOperator(mat, (n, n))


def test_mixing_certifies_an_isotropic_state_sooner(monkeypatch):
    # 3 (x) 3 isotropic at F = 5/9 + 1e-3, the level-3 threshold under the
    # trace; under this functional it is not level-3 extendable.  Plain DR
    # reads a certificate off its step at 375, the mixed iteration at 125
    rho = Functional.random_faithful(3, np.random.default_rng(4))
    a = isotropic_element(5 / 9 + 1e-3)
    report = sub_extension_feasibility(a, rho, 3)
    assert (report.verdict, report.iterations) == ("infeasible_at_tolerance", 125)
    _check_certificate(report, a, rho, 3)
    dense = DenseDR(ExtensionProblem(a, rho, 3))
    assert dense.solve(SolverOptions()) == ("infeasible_at_tolerance", 125)
    monkeypatch.setattr(hierarchy, "_Anderson", _PlainDR)
    plain = sub_extension_feasibility(a, rho, 3)
    assert (plain.verdict, plain.iterations) == ("infeasible_at_tolerance", 375)


def test_a_solve_with_safeguard_restarts_ends_checked():
    # Werner just below the level-5 threshold: two mixed points overshoot and
    # are dropped, and the witness found after them passes the dense checks
    a = werner_element(7 / 15 - 1e-3)
    report = sub_extension_feasibility(a, RHO, 5)
    assert report.restarts >= 1
    assert report.verdict == "feasible" and report.stop_reason == "tol"
    assert ExtensionProblem(a, RHO, 5).validate_witness(report.witness, 1e-6)
    dense = DenseDR(ExtensionProblem(a, RHO, 5))
    assert dense.solve(SolverOptions()) == ("feasible", report.iterations)
    assert dense.restarts == report.restarts
    assert report.to_json()["restarts"] == report.restarts


def test_residual_history_monotone_tail(rng):
    a = random_separable(rng)
    report = sub_extension_feasibility(a, RHO, 2)
    assert report.verdict == "feasible"
    assert len(report.residual_history) == report.iterations
    # a feasible solve ends at its first checked witness, not at a small
    # displacement: the verdict rests on the witness's marginal defect
    assert report.final_residual <= SolverOptions().tol
    assert ExtensionProblem(a, RHO, 2).validate_witness(report.witness, 1e-6)


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


# -- chain compression and the product probe ---------------------------------


def test_compress_chain_walks_down(rng):
    p = rand_psd(2, rng)
    q = rand_psd(2, rng)
    seq, _ = product_chain(p, q, RHO, 4)
    x4 = seq.entries[4]
    for l in (3, 2, 1):
        got = compress_chain(x4, RHO, l)
        assert np.abs(got.entries - seq.entries[l].entries).max() < 1e-10 * max(
            1.0, seq.entries[l].norm_max()
        )
    with pytest.raises(ValueError):
        compress_chain(seq.entries[2], RHO, 3)


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
