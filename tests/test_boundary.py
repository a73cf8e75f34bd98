"""Tests for the boundary toolkit: group-like sequences, the transition
operator, exponential classification, and block recovery."""

import numpy as np
import pytest

from definetti import (
    Functional,
    GroupLike,
    LeggedOperator,
    Partition,
    SymSequence,
    block_compression,
    determinant_twist,
    e_rho_value,
    exponential_test,
    grouplike_sequence,
    is_psd,
    p_map,
    recover_block,
    separable_image_check,
    subharmonic_check,
    validate_k_prefix,
)

from definetti import boundary, symmetry
from definetti.symmetry import partitions_of, schur_weyl_table

from conftest import rand_psd, schur_polynomial

RHO = Functional.normalized_trace(2)


def random_grouplike(rng, n=2):
    """Random full-rank PSD matrix scaled so rho(t) <= 1."""
    t = rand_psd(n, rng, floor=0.05)
    t = t / max(1.0, np.trace(t).real / n)
    return GroupLike(t)


def mixed_sign_matrix(rng, n=2):
    """Hermitian with eigenvalues of both signs, bounded away from zero."""
    w = np.concatenate([rng.uniform(0.2, 2.0, size=n - 1), [-rng.uniform(0.2, 2.0)]])
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (u * w) @ u.conj().T


# -- group-like sequences and the transition operator ------------------------


def test_grouplike_rejects_singular():
    with pytest.raises(ValueError):
        GroupLike(np.diag([1.0, 0.0]))


def test_grouplike_rejects_an_empty_matrix():
    # the determinant of a 0 x 0 matrix is 1, so it passed the invertibility
    # test, and an exponential test on it would check no block at all
    with pytest.raises(ValueError):
        GroupLike(np.zeros((0, 0)))


def test_grouplike_sequence_shape(rng):
    g = random_grouplike(rng)
    a = LeggedOperator(rand_psd(2, rng), (2,))
    seq = grouplike_sequence(a, g, 4, RHO)
    assert seq.L == 4
    assert seq.entries[3].legs == (2, 2, 2, 2)
    expect = np.kron(a.entries, np.kron(g.t, g.t))
    assert np.abs(seq.entries[2].entries - expect).max() < 1e-13


def test_p_map_eigen_relation(rng):
    # the transition operator scales a group-like sequence by rho(t)
    for _ in range(5):
        g = random_grouplike(rng)
        a = LeggedOperator(rand_psd(2, rng), (2,))
        seq = grouplike_sequence(a, g, 4, RHO)
        shifted = p_map(seq, RHO)
        val = e_rho_value(g, RHO)
        for l in range(4):
            dev = np.abs(shifted.entries[l].entries - val * seq.entries[l].entries).max()
            assert dev < 1e-10


def test_p_map_is_positivity_preserving(rng):
    g = random_grouplike(rng)
    a = LeggedOperator(rand_psd(2, rng), (2,))
    seq = grouplike_sequence(a, g, 3, RHO)
    out = p_map(seq, RHO)
    assert out.L == 2
    assert all(is_psd(x) for x in out.entries)


def test_p_map_needs_positive_length():
    seq = SymSequence(2, 2, RHO, [LeggedOperator(np.eye(2), (2,))])
    with pytest.raises(ValueError):
        p_map(seq, RHO)


def test_e_rho_value_rejects_complex(rng):
    g = GroupLike(np.diag([1.0j, 1.0]))
    with pytest.raises(ValueError):
        e_rho_value(g, RHO)


# -- subharmonicity and the bridge to the hierarchy cone ---------------------


def test_subharmonic_iff_rho_value_at_most_one(rng):
    a = LeggedOperator(rand_psd(2, rng), (2,))
    small = GroupLike(np.diag([0.5, 0.8]))
    big = GroupLike(np.diag([1.5, 1.2]))
    assert subharmonic_check(grouplike_sequence(a, small, 3, RHO), RHO)
    assert not subharmonic_check(grouplike_sequence(a, big, 3, RHO), RHO)


def test_bridge_identity_on_random_mixtures(rng):
    # subharmonic_check must agree with the K-cone prefix validation
    for _ in range(20):
        seqs = []
        for _ in range(3):
            g = random_grouplike(rng)
            a = LeggedOperator(rand_psd(2, rng), (2,))
            seqs.append(grouplike_sequence(a, g, 4, RHO))
        w = rng.dirichlet(np.ones(3))
        entries = [
            sum((w[i] * s.entries[l] for i, s in enumerate(seqs[1:], 1)), w[0] * seqs[0].entries[l])
            for l in range(5)
        ]
        seq = SymSequence(2, 2, RHO, entries)
        assert subharmonic_check(seq, RHO) == validate_k_prefix(seq).ok


# -- exponential classification ----------------------------------------------


def test_psd_grouplike_is_exponential(rng):
    for _ in range(10):
        g = random_grouplike(rng)
        report = exponential_test(g, 4)
        assert report.is_exponential
        assert report.failing_block is None


def test_mixed_sign_fails_with_block(rng):
    for _ in range(10):
        g = GroupLike(mixed_sign_matrix(rng))
        report = exponential_test(g, 4)
        assert not report.is_exponential
        assert report.failing_block is not None


def test_diag_1_minus1_fails_at_both_levels():
    g = GroupLike(np.diag([1.0, -1.0]))
    # fundamental block has eigenvalues {1, -1}
    fund = block_compression(g, Partition((1,)))
    assert sorted(np.linalg.eigvalsh(fund).round(12)) == [-1.0, 1.0]
    # Sym^2 block of diag(x, y) has eigenvalues {x^2, xy, y^2} = {1, -1, 1}
    sym2 = block_compression(g, Partition((2,)))
    assert sorted(np.linalg.eigvalsh(sym2).round(12)) == [-1.0, 1.0, 1.0]
    report = exponential_test(g, 2)
    assert not report.is_exponential


def test_block_compression_is_the_irrep_block():
    # pi_(2,1)(diag(x, y)) on C^2 has the weights of the two semistandard
    # tableaux of shape (2, 1): x^2 y and x y^2; the isotypic block would be
    # that twice, of side 4
    x, y = 1.3, 0.4
    block = block_compression(GroupLike(np.diag([x, y])), Partition((2, 1)))
    assert block.shape == (2, 2)
    got = sorted(np.linalg.eigvalsh((block + block.conj().T) / 2))
    assert np.allclose(got, sorted([x * x * y, x * y * y]))
    # the fundamental block is t itself, bit for bit
    t = np.array([[1.0, 0.3 - 0.2j], [0.5j, -0.7]])
    assert np.array_equal(block_compression(GroupLike(t), Partition((1,))), t)


def test_block_compression_rejects_missing_blocks_and_deep_levels():
    g = GroupLike(np.diag([1.0, 0.5]))
    with pytest.raises(ValueError):
        block_compression(g, Partition((1, 1, 1)))  # more rows than n = 2
    with pytest.raises(ValueError):
        block_compression(g, Partition((9,)))  # beyond MAX_LEVEL


def test_exponential_test_rejects_levels_below_one():
    g = GroupLike(np.diag([1.0, -1.0]))
    for L in (0, -3):
        with pytest.raises(ValueError):
            exponential_test(g, L)


def test_exponential_test_uses_the_relative_hermitian_rule():
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # relative anti-Hermitian part 4e-10, above HERMITIAN_RTOL = 1e-10
    report = exponential_test(GroupLike(np.diag([1.0, 0.5]) + 2e-10 * skew), 2)
    assert not report.is_exponential
    assert report.failing_block == Partition((1,))
    # 4e-11 is below it
    assert exponential_test(GroupLike(np.diag([1.0, 0.5]) + 2e-11 * skew), 2).is_exponential


def test_exponential_test_accepts_ill_conditioned_positive_t():
    # higher blocks of t = U diag(1, 1e-7) U^H are small by cancellation, so
    # their rounding (~1e-16 |t|^l) is large relative to the block itself
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    phase = np.diag([1.0, np.exp(0.3j)])
    for u in (rot, rot @ phase @ rot.T):
        g = GroupLike((u * [1.0, 1e-7]) @ u.conj().T)
        report = exponential_test(g, 3)
        assert report.is_exponential, report.failing_block


@pytest.mark.parametrize("n, L", [(2, 8), (3, 5)])
def test_exponential_test_checks_each_block_compression_once(monkeypatch, rng, n, L):
    # every block it tests is block_compression(g, lam) (its Hermitian part
    # above l = 1); from a cold cache the first call builds each copy chain
    # once, and a second call builds none
    g = random_grouplike(rng, n)
    want = [block_compression(g, lam) for l in range(1, L + 1) for lam, _, _ in schur_weyl_table(n, l)]
    distinct = sum(len(schur_weyl_table(n, l)) for l in range(2, L + 1))
    symmetry._copy_chain.cache_clear()
    seen, filters = [], []
    inner = symmetry._jm_eigenspace
    monkeypatch.setattr(boundary, "is_psd", lambda x: seen.append(x.entries) or True)
    monkeypatch.setattr(symmetry, "_jm_eigenspace", lambda *args: filters.append(args) or inner(*args))
    assert exponential_test(g, L).is_exponential
    assert len(seen) == len(want) and len(filters) == distinct
    for got, block in zip(seen, want):
        herm = (block + block.conj().T) / 2
        assert np.abs(got - herm).max() <= 1e-12 * np.abs(block).max()
    assert exponential_test(g, L).is_exponential
    assert len(filters) == distinct


def test_non_normal_grouplike_detected(rng):
    # an invertible matrix with non-real spectrum is not an exponential
    g = GroupLike(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    report = exponential_test(g, 2)
    assert not report.is_exponential


# -- block recovery ----------------------------------------------------------


def test_recover_block_spectrum(rng):
    x, y = 1.3, 0.4
    g = GroupLike(np.diag([x, y]))
    a = LeggedOperator(np.eye(2), (2,))
    seq = grouplike_sequence(a, g, 3, RHO)
    block = recover_block(seq, Partition((2,)))
    # I_2 (x) Sym^2(t): eigenvalues {x^2, xy, y^2}, each doubled by the m-leg
    got = sorted(np.linalg.eigvalsh((block.entries + block.entries.conj().T) / 2).round(10))
    expect = sorted([x * x, x * y, y * y] * 2)
    assert np.allclose(got, expect)
    assert block.legs == (2, 3)


def test_recover_block_at_level_six_has_the_character(rng):
    # each block of a (x) t^{(x)6} on an isotypic subspace has side
    # m * weyl * hook and trace tr(a) * hook * s_lam(t)
    g = random_grouplike(rng)
    a = LeggedOperator(rand_psd(2, rng), (2,))
    seq = grouplike_sequence(a, g, 6, RHO)
    eigs = np.linalg.eigvals(g.t)
    for lam in partitions_of(6, max_parts=2):
        hook = lam.hook_dimension()
        block = recover_block(seq, lam)
        assert block.legs == (2, lam.weyl_dimension(2) * hook)
        want = np.trace(a.entries) * hook * schur_polynomial(lam.parts, eigs)
        assert abs(np.trace(block.entries) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("n, L", [(2, 6), (3, 4)])
def test_recover_block_is_a_times_the_irrep_block(rng, n, L):
    # on the copy basis the block of a (x) t^{(x)l} is exactly
    # a (x) pi_lam(t) (x) I_hook, with no rotation inside the isotypic
    # subspace, for a complex t that is neither Hermitian nor PSD
    t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = GroupLike(t / np.linalg.norm(t, 2))
    a = rand_psd(2, rng)
    seq = grouplike_sequence(LeggedOperator(a, (2,)), g, L)
    for l in range(1, L + 1):
        for lam in partitions_of(l, max_parts=n):
            want = np.kron(a, np.kron(block_compression(g, lam), np.eye(lam.hook_dimension())))
            got = recover_block(seq, lam).entries
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_recover_block_injectivity(rng):
    # two group-like matrices agreeing on all l <= 2 blocks must coincide
    g1 = random_grouplike(rng)
    a = LeggedOperator(np.eye(2), (2,))
    seq1 = grouplike_sequence(a, g1, 2, RHO)
    fund = recover_block(seq1, Partition((1,)))
    # the fundamental block determines t directly (up to the fixed basis)
    t_rec = fund.entries[:2, :2]
    assert np.abs(t_rec - g1.t).max() < 1e-12


def test_recover_block_needs_long_enough_prefix(rng):
    g = random_grouplike(rng)
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), g, 1, RHO)
    with pytest.raises(ValueError):
        recover_block(seq, Partition((2,)))


def test_recover_block_rejects_more_rows_than_n(rng):
    g = random_grouplike(rng)
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), g, 3, RHO)
    with pytest.raises(ValueError):
        recover_block(seq, Partition((1, 1, 1)))


def test_determinant_twist():
    g = GroupLike(np.diag([2.0, 3.0]))
    block = LeggedOperator(np.eye(2), (2,))
    out = determinant_twist(block, g, 1)
    assert np.allclose(out.entries, np.eye(2) / 6.0)
    back = determinant_twist(out, g, -1)
    assert np.allclose(back.entries, np.eye(2))


# -- consistency of the boundary with the hierarchy --------------------------


def test_separable_image_check_consistent(rng):
    g = random_grouplike(rng)
    a = LeggedOperator(rand_psd(2, rng), (2,))
    seq = grouplike_sequence(a, g, 4, RHO)
    report = separable_image_check(seq, RHO)
    assert report.subharmonic
    assert report.consistent
    assert report.separability.verdict != "entangled_evidence"


def test_separable_image_check_requires_subharmonic(rng):
    g = GroupLike(np.diag([2.0, 2.0]))
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), g, 3, RHO)
    with pytest.raises(ValueError):
        separable_image_check(seq, RHO)
