"""Unit tests for partitions, permutation actions, and isotypic projectors."""

import itertools
import math

import numpy as np
import pytest

from definetti import (
    Functional,
    LeggedOperator,
    LegPermutation,
    Partition,
    Symmetrizer,
    contract_legs,
    isotypic_projector,
    partitions_of,
    permute_legs,
    schur_weyl_table,
    tensor,
    tensor_power,
)
from definetti import symmetry
from definetti.boundary import GroupLike, block_compression
from definetti.symmetry import (
    _kron,
    chain_blocks,
    copy_basis,
    copy_bases,
    from_schur_weyl_blocks,
    schur_weyl_block,
    transition_blocks,
)

from conftest import rand_hermitian, rand_psd, schur_polynomial


# -- partitions --------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 1)).size == 4


def test_partitions_of_counts():
    # partition numbers p(1..8) = 1, 2, 3, 5, 7, 11, 15, 22
    counts = [sum(1 for _ in partitions_of(l)) for l in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]
    # reverse-lexicographic order starts at (l) and ends at (1,...,1)
    parts = [p.parts for p in partitions_of(4)]
    assert parts[0] == (4,) and parts[-1] == (1, 1, 1, 1)


def test_hook_dimensions_s4():
    dims = {p.parts: p.hook_dimension() for p in partitions_of(4)}
    assert dims == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}
    # dimensions square-sum to |S_4|
    assert sum(d * d for d in dims.values()) == math.factorial(4)


def test_weyl_dimensions_n2():
    assert Partition((3,)).weyl_dimension(2) == 4  # Sym^3 of C^2
    assert Partition((2, 1)).weyl_dimension(2) == 2
    assert Partition((1, 1, 1)).weyl_dimension(2) == 0  # too many rows


# -- leg permutations --------------------------------------------------------


def test_permutation_validation_and_cycles():
    with pytest.raises(ValueError):
        LegPermutation((0, 0, 1))


def test_permutation_product_is_composition(rng):
    sigma = LegPermutation((1, 2, 0))
    tau = LegPermutation((0, 2, 1))
    x = LeggedOperator(rand_hermitian(8, rng), (2, 2, 2))
    lhs = permute_legs(x, sigma * tau)
    rhs = permute_legs(permute_legs(x, tau), sigma)
    assert np.abs(lhs.entries - rhs.entries).max() < 1e-14


def test_permute_legs_on_product(rng):
    facs = [rand_hermitian(2, rng) for _ in range(3)]
    x = tensor(
        tensor(LeggedOperator(facs[0], (2,)), LeggedOperator(facs[1], (2,))),
        LeggedOperator(facs[2], (2,)),
    )
    sigma = LegPermutation((2, 0, 1))
    got = permute_legs(x, sigma)
    expect = np.kron(np.kron(facs[2], facs[0]), facs[1])
    assert np.abs(got.entries - expect).max() < 1e-13


def test_permute_trailing_legs_only(rng):
    # a fixed leading leg of different dimension
    x = LeggedOperator(rand_hermitian(12, rng), (3, 2, 2))
    sigma = LegPermutation((1, 0))
    got = permute_legs(x, sigma)
    assert got.legs == (3, 2, 2)
    back = permute_legs(got, sigma)
    assert np.abs(back.entries - x.entries).max() < 1e-14


def test_symmetrize_is_projection(rng):
    x = LeggedOperator(rand_hermitian(8, rng), (2, 2, 2))
    sym = Symmetrizer(x.legs, [0, 1, 2])
    s = sym.apply(x)
    again = sym.apply(s)
    assert np.abs(again.entries - s.entries).max() < 1e-13
    # invariant under each transposition
    for perm in ((1, 0, 2), (0, 2, 1)):
        moved = permute_legs(s, LegPermutation(perm))
        assert np.abs(moved.entries - s.entries).max() < 1e-13


def _explicit_average(x, leg_indices):
    """The l!-term average over permutations of the listed legs, one
    permute_legs call per permutation.  Legs from the first listed one on
    must share a dimension; unlisted legs among them stay fixed."""
    first = min(leg_indices)
    acc = np.zeros_like(x.entries)
    perms = list(itertools.permutations(leg_indices))
    for perm in perms:
        images = list(range(x.nlegs - first))
        for pos, src in zip(leg_indices, perm):
            images[pos - first] = src - first
        acc += permute_legs(x, LegPermutation(images)).entries
    return acc / len(perms)


def _rand_complex(side, rng):
    return rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))


@pytest.mark.parametrize(
    "legs, leg_indices",
    [((3,) + (2,) * l, list(range(1, l + 1))) for l in range(2, 6)]
    + [((3, 2, 2, 2, 2), [1, 2, 4]), ((3, 2, 2, 2, 2, 2, 2), [1, 2, 4, 5, 6])],
)
def test_factorized_symmetrizer_matches_explicit_average(rng, legs, leg_indices):
    # complex, non-Hermitian input with a fixed leading leg of another dimension
    x = LeggedOperator(_rand_complex(math.prod(legs), rng), legs)
    got = Symmetrizer(legs, leg_indices).apply(x)
    assert np.abs(got.entries - _explicit_average(x, leg_indices)).max() < 1e-12


def test_symmetrizer_is_not_bounded_by_enumeration(rng):
    # 9! terms are never formed: the coset steps need 36 transposes
    legs = (2,) * 9
    x = LeggedOperator(rng.normal(size=(512, 512)), legs)
    s = Symmetrizer(legs, range(9)).apply(x)
    swap = permute_legs(s, LegPermutation((8, 1, 2, 3, 4, 5, 6, 7, 0)))
    assert np.abs(swap.entries - s.entries).max() < 1e-12 * s.norm_max()


def test_symmetrize_preserves_positivity(rng):
    x = LeggedOperator(rand_psd(8, rng), (2, 2, 2))
    s = Symmetrizer(x.legs, [1, 2]).apply(x)
    evals = np.linalg.eigvalsh((s.entries + s.entries.conj().T) / 2)
    assert evals[0] > -1e-12


# -- isotypic projectors -----------------------------------------------------


def test_projectors_resolve_identity_n2_l3():
    projs = [isotypic_projector(2, 3, lam).entries for lam in partitions_of(3, max_parts=2)]
    total = sum(projs)
    assert np.abs(total - np.eye(8)).max() < 1e-12
    for p in projs:
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-13
    assert np.abs(projs[0] @ projs[1]).max() < 1e-12


def test_projector_too_many_rows_is_zero():
    p = isotypic_projector(2, 3, Partition((1, 1, 1)))
    assert np.abs(p.entries).max() == 0.0


def test_symmetric_projector_is_average_of_permutation_unitaries():
    # the top partition's projector averages the leg-permutation unitaries
    p = isotypic_projector(2, 3, Partition((3,)))
    acc = np.zeros((8, 8))
    for perm in itertools.permutations(range(3)):
        u = np.zeros((8, 8))
        src = np.arange(8).reshape(2, 2, 2).transpose(perm).reshape(-1)
        u[src, np.arange(8)] = 1.0
        acc += u
    assert np.abs(p.entries - acc / 6).max() < 1e-13


def test_schur_weyl_table_n2_l3():
    table = schur_weyl_table(2, 3)
    got = {(lam.parts, d, m) for lam, d, m in table}
    assert got == {((3,), 4, 1), ((2, 1), 2, 2)}
    assert sum(d * m for _, d, m in table) == 8


@pytest.mark.parametrize("n, l", [(2, l) for l in range(1, 9)] + [(3, l) for l in range(1, 7)])
def test_schur_weyl_table_matches_projectors(n, l):
    # the closed-form table against ranks of the dense isotypic projectors,
    # over every partition of l; those with more than n parts have rank 0
    expected = []
    for lam in partitions_of(l):
        trace = float(np.trace(isotypic_projector(n, l, lam).entries).real)
        rank = round(trace)
        assert abs(trace - rank) < 1e-6
        if rank:
            weyl = lam.weyl_dimension(n)
            assert rank % weyl == 0
            expected.append((lam, weyl, rank // weyl))
    table = schur_weyl_table(n, l)
    assert table == expected
    assert sum(d * m for _, d, m in table) == n**l


@pytest.mark.parametrize(
    "n, l",
    [(2, l) for l in range(1, 9)] + [(3, l) for l in range(1, 7)] + [(4, l) for l in range(1, 5)],
)
def test_isotypic_projector_has_the_unitary_group_character(rng, n, l):
    # a Hermitian idempotent commuting with every t^{(x)l} has a U(n)-invariant
    # range; if its character is hook(lam) * s_lam and the projectors resolve
    # the identity, that range is the lam-isotypic subspace
    powers = []
    for _ in range(2):
        t = _rand_complex(n, rng)
        t /= np.linalg.norm(t, 2)
        powers.append((np.linalg.eigvals(t), tensor_power(LeggedOperator(t, (n,)), l).entries))
    total = np.zeros((n**l, n**l))
    for lam in partitions_of(l):
        p = isotypic_projector(n, l, lam).entries
        total = total + p
        assert np.abs(p - p.conj().T).max() < 1e-13
        assert np.abs(p @ p - p).max() < 1e-12
        for eigs, t_pow in powers:
            assert np.abs(p @ t_pow - t_pow @ p).max() < 1e-12
            expect = lam.hook_dimension() * schur_polynomial(lam.parts, eigs)
            assert abs(np.trace(p @ t_pow) - expect) < 1e-9
    assert np.abs(total - np.eye(n**l)).max() < 1e-12


@pytest.mark.parametrize(
    "n, l",
    [(2, l) for l in range(1, 9)]
    + [(3, l) for l in range(1, 7)]
    + [(1, l) for l in range(1, 5)]
    + [(4, l) for l in range(1, 5)],
)
def test_copy_bases_fill_the_isotypic_subspaces(rng, n, l):
    # W has weyl(lam) orthonormal columns; that twirling one copy,
    # hook(lam) * Sym(W W^T), gives the whole block is checked by the
    # isotypic projector tests
    lams = [lam for lam, _ in copy_bases(n, l)]
    assert lams == list(partitions_of(l, max_parts=n))
    t = _rand_complex(n, rng)
    t /= np.linalg.norm(t, 2)
    eigs = np.linalg.eigvals(t)
    t_pow = tensor_power(LeggedOperator(t, (n,)), l).entries
    for lam, w in copy_bases(n, l):
        assert w.shape == (n**l, lam.weyl_dimension(n)) and w.dtype == float
        assert np.array_equal(w, copy_basis(n, lam))
        assert np.abs(w.T @ w - np.eye(w.shape[1])).max() < 1e-12
        # independently of the projector: range(W) is invariant under
        # t^{(x)l}, and the compression there has the character s_lam(t)
        block = w.T @ t_pow @ w
        assert np.abs(t_pow @ w - w @ block).max() < 1e-12
        assert abs(np.trace(block) - schur_polynomial(lam.parts, eigs)) < 1e-9
    for lam in partitions_of(l):
        if len(lam) > n:
            with pytest.raises(ValueError):
                copy_basis(n, lam)


def test_cached_bases_are_read_only():
    # every caller, `hierarchy._Geometry` among them, shares the cached arrays
    lam = Partition((2, 1))
    step = symmetry._copy_chain(2, lam.parts)
    cached = [copy_basis(2, lam), step.branching]
    cached += [w for _, w in copy_bases(2, 3)]
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("n, L", [(2, 8), (3, 5)])
def test_chain_blocks_grow_the_irrep_blocks(rng, n, L):
    # grow = x (x) t from [[1]] gives pi_lam(t) = W^T t^{(x)l} W for every
    # partition of 1..L, in schur_weyl_table order; a seed stack of two
    # grows both, each with its own factor
    ts = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    want = [lam for l in range(1, L + 1) for lam, _, _ in schur_weyl_table(n, l)]
    walk = list(chain_blocks(n, L, np.ones((2, 1, 1)), lambda x: _kron(x, ts)))
    assert [lam for lam, _ in walk] == want
    for lam, blocks in walk:
        assert blocks.shape == (2,) + (lam.weyl_dimension(n),) * 2
        assert not blocks.flags.writeable
        for t, block in zip(ts, blocks):
            ref = block_compression(GroupLike(t), lam)
            assert np.abs(block - ref).max() <= 1e-12 * np.abs(ref).max()


def test_chain_blocks_needs_a_positive_dimension():
    assert list(chain_blocks(2, 0, np.eye(1), lambda x: x)) == []
    with pytest.raises(ValueError):
        list(chain_blocks(0, 3, np.eye(1), lambda x: x))


@pytest.mark.parametrize(
    "m, n, l", [(2, 2, 3), (2, 2, 6), (2, 3, 4), (3, 3, 4), (2, 2, 8), (1, 4, 4), (2, 3, 6)]
)
def test_transition_blocks_match_the_dense_contraction(rng, m, n, l):
    # P x by contract_legs on the dense x of side m n^l, then compressed,
    # against P on the blocks, under a complex faithful rho (D^T != D)
    rho = Functional.random_faithful(n, rng)
    blocks = []
    for lam in partitions_of(l, max_parts=n):
        side = m * lam.weyl_dimension(n)
        blocks.append(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    legs = (m,) + (n,) * l
    x = LeggedOperator(from_schur_weyl_blocks(blocks, m, n, l), legs)
    px = contract_legs(x, rho, [l]).entries
    want = [schur_weyl_block(px, m, n, nu) for nu in partitions_of(l - 1, max_parts=n)]
    got = transition_blocks(blocks, m, n, l, rho.density)
    scale = max(np.abs(b).max() for b in want)
    assert [b.shape for b in got] == [b.shape for b in want]
    assert max(np.abs(g - w).max() for g, w in zip(got, want)) <= 1e-13 * scale


def test_transition_blocks_rejects_a_bad_level():
    blocks = [np.eye(2 * lam.weyl_dimension(2)) for lam in partitions_of(3, max_parts=2)]
    density = np.eye(2) / 2
    with pytest.raises(ValueError, match="has 2 blocks, got 1"):
        transition_blocks(blocks[:1], 2, 2, 3, density)
    with pytest.raises(ValueError, match="1 <= l"):
        transition_blocks([np.eye(2)], 2, 2, 0, density)


def test_enumeration_bound_guard():
    with pytest.raises(ValueError):
        isotypic_projector(2, 9, Partition((9,)))
    with pytest.raises(ValueError):
        schur_weyl_table(2, 9)
