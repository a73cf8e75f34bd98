"""Unit tests for partitions, permutation actions, and isotypic projectors."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from definetti import (
    Functional,
    LeggedOperator,
    Partition,
    SymSequence,
    Symmetrizer,
    contract_legs,
    isotypic_projector,
    partitions_of,
    schur_weyl_table,
    tensor,
)
from definetti import bell_projector, boundary, hierarchy, separability_verdict, symmetry
from definetti.boundary import GroupLike
from definetti.cli import EXIT_INPUT, main
from definetti.serialize import (
    dump_json,
    functional_to_json,
    operator_to_json,
    resolve_functional,
    sequence_from_json,
)
from definetti.symmetry import (
    _kron,
    chain_blocks,
    copy_basis,
    from_schur_weyl_blocks,
    schur_weyl_block,
    transition_blocks,
)

from conftest import (
    LegPermutation,
    copy_bases,
    dense_block_compression,
    dense_copy_basis,
    dense_generators,
    permute_legs,
    rand_hermitian,
    rand_psd,
    schur_polynomial,
    tensor_power,
)


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


def test_weyl_dimension_against_the_full_product():
    # the product over every pair of rows i < j of (lam_i - lam_j + j - i)
    # / (j - i), zero rows included
    for n in range(1, 7):
        for l in range(7):
            for lam in partitions_of(l, max_parts=n):
                rows = list(lam.parts) + [0] * (n - len(lam))
                want = math.prod(
                    Fraction(rows[i] - rows[j] + j - i, j - i)
                    for i in range(n)
                    for j in range(i + 1, n)
                )
                assert lam.weyl_dimension(n) == want


def test_weyl_dimension_is_linear_in_n_past_the_rows():
    # only the partition's rows contribute, so a wide n is cheap
    assert Partition(()).weyl_dimension(2000) == 1
    assert Partition((2, 1)).weyl_dimension(2000) == 2000 * (2000**2 - 1) // 3


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


@pytest.mark.parametrize("n, L", [(2, 8), (3, 6), (4, 5)])
def test_copy_chain_matches_the_dense_jucys_murphy_step(n, L):
    # the chain grows from U(n) generators alone: each copy basis spans the
    # copy of the Jucys-Murphy step on n^l rows, and each step's generators
    # are W^T E_ab W on that basis
    for l in range(1, L + 1):
        for lam, _, _ in symmetry.level_layout(n, l):
            w, ref = copy_basis(n, lam), dense_copy_basis(n, lam.parts)
            assert np.abs(w @ w.T - ref @ ref.T).max() < 1e-12
            gens = symmetry._copy_chain(n, lam.parts).gens
            assert np.abs(gens - dense_generators(w, n, l)).max() < 1e-12


def test_a_cold_chain_walk_forms_no_matrix_with_n_to_the_l_rows(monkeypatch, rng):
    # from a cold cache, the exponential test at (n, L) = (3, 8), a level-6
    # solver geometry on n = 3 and the sequence check of a group-like
    # sequence at (3, 8), which builds every transition plan, build every
    # chain step and walk the chain; every Kronecker product they form is at
    # most n * weyl(lam) wide, lam of level L - 1, far below n^(L-1) rows,
    # and no copy basis is formed
    def forbidden(*args):
        raise AssertionError("an n^l-row matrix was formed")

    rows = []

    def kron(a, b):
        out = _kron(a, b)
        rows.append(out.shape[-2])
        return out

    for module in (symmetry, hierarchy):
        monkeypatch.setattr(module, "_kron", kron)
    monkeypatch.setattr(symmetry, "copy_basis", forbidden)
    n = 3
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    density = Functional.random_faithful(n, rng).density
    t = x @ x.conj().T
    t /= 2 * np.trace(t).real
    one = LeggedOperator(np.eye(1), [1])
    reports = []
    for L, walk in [
        (8, lambda: boundary.exponential_test(GroupLike(x @ x.conj().T + np.eye(n)), 8)),
        (6, lambda: hierarchy._Geometry(2, n, 6, density)),
        (8, lambda: hierarchy.validate_k_prefix(boundary.grouplike_sequence(one, GroupLike(t), 8))),
    ]:
        symmetry._copy_chain.cache_clear()
        symmetry._transition_plan.cache_clear()
        rows.clear()
        reports.append(walk())
        bound = n * max(w for _, w, _ in symmetry.level_layout(n, L - 1))
        assert rows and max(rows) <= bound < n ** (L - 1)
    assert reports[0].is_exponential and reports[2].ok


def test_cached_bases_are_read_only():
    # every caller shares the cached chain steps and alignment plans
    step = symmetry._copy_chain(2, (2, 1))
    cached = [step.branching, step.gens]
    cached += [a for _, children in symmetry._transition_plan(2, 3) for _, a in children]
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
            ref = dense_block_compression(GroupLike(t), lam)
            assert np.abs(block - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n, L", [(2, 8), (3, 5)])
def test_chain_blocks_grow_each_parent_once(rng, n, L):
    # a parent with two children, as (k,) has (k + 1,) and (k, 1), is grown
    # once; the walk stays lazy, growing nothing past the block it yields
    t = rng.normal(size=(n, n))
    grown = []
    walk = chain_blocks(n, L, np.eye(1), lambda x: grown.append(x.shape) or _kron(x, t))
    blocks = []
    for lam, _ in walk:
        blocks.append(lam)
        assert len(grown) == len({(mu.size, symmetry._copy_chain(n, mu.parts).parent) for mu in blocks})
    assert len(grown) < len(blocks)


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


@pytest.mark.parametrize("m, n, L", [(2, 3, 8), (1, 4, 6)])
def test_transition_blocks_scale_a_grouplike_sequence_past_the_dense_reference(rng, m, n, L):
    # no dense reference reaches these sizes, where most edges of the plans
    # are not chain edges; P(a (x) t^{(x)l}) = tr(D t) a (x) t^{(x)(l-1)} for
    # a generic complex t under a complex faithful rho, level by level, and
    # every alignment of the plans is an isometry
    rho = Functional.random_faithful(n, rng)
    t = _rand_complex(n, rng)
    seq = boundary.grouplike_sequence(LeggedOperator(_rand_complex(m, rng), [m]), GroupLike(t), L, rho)
    for l in range(1, L + 1):
        got = transition_blocks(seq.blocks(l), m, n, l, rho.density)
        want = [rho.value(t) * b for b in seq.blocks(l - 1)]
        scale = max(np.abs(b).max() for b in want)
        assert max(np.abs(g - w).max() for g, w in zip(got, want)) <= 1e-13 * scale
        for _, children in symmetry._transition_plan(n, l):
            for _, a in children:
                assert np.abs(a.T @ a - np.eye(a.shape[1])).max() <= 1e-12


def test_transition_blocks_rejects_a_bad_level():
    blocks = [np.eye(2 * lam.weyl_dimension(2)) for lam in partitions_of(3, max_parts=2)]
    density = np.eye(2) / 2
    with pytest.raises(ValueError, match="has 2 blocks, got 1"):
        transition_blocks(blocks[:1], 2, 2, 3, density)
    with pytest.raises(ValueError, match="1 <= l"):
        transition_blocks([np.eye(2)], 2, 2, 0, density)


def test_transition_blocks_count_the_blocks_from_the_cached_plan(monkeypatch):
    # the block count comes from the cached `level_layout`, so once the plan
    # is built a call enumerates no partition
    blocks = [np.eye(2 * lam.weyl_dimension(2)) for lam in partitions_of(4, max_parts=2)]
    density = np.eye(2) / 2
    transition_blocks(blocks, 2, 2, 4, density)

    def counted(*args, **kwargs):
        raise AssertionError("partitions_of called")

    monkeypatch.setattr(symmetry, "partitions_of", counted)
    assert len(transition_blocks(blocks, 2, 2, 4, density)) == 2
    with pytest.raises(ValueError, match="has 3 blocks, got 2"):
        transition_blocks(blocks[:2], 2, 2, 4, density)


def test_level_layout_is_the_cached_table_without_the_level_bound():
    layout = symmetry.level_layout(2, 9)
    assert layout is symmetry.level_layout(2, 9)
    assert [lam for lam, _, _ in layout] == list(partitions_of(9, max_parts=2))
    assert [(d, h) for _, d, h in layout] == [
        (lam.weyl_dimension(2), lam.hook_dimension()) for lam in partitions_of(9, max_parts=2)
    ]
    assert schur_weyl_table(3, 4) == list(symmetry.level_layout(3, 4))


@pytest.mark.parametrize(
    "swap, message",
    [
        (lambda blocks: blocks[:1], "level 3 on n=2 has 2 blocks, got 1"),
        (
            lambda blocks: [blocks[0], np.eye(6)],
            "block [2, 1] of level 3 has shape (6, 6), expected (4, 4)",
        ),
    ],
    ids=["count", "side"],
)
def test_every_reader_of_a_block_list_raises_the_one_shape_error(swap, message):
    # `check_blocks` is the one count and side check: a sequence given by
    # its blocks, the dense rebuild and the transition map raise its
    # ValueError before a numpy reshape or matmul sees a wrong side
    blocks = swap([np.eye(2 * lam.weyl_dimension(2)) for lam in partitions_of(3, max_parts=2)])
    lower = [[np.eye(2)], [np.eye(4)], [np.eye(6), np.eye(2)]]
    readers = [
        lambda: symmetry.check_blocks(blocks, 2, 2, 3),
        lambda: SymSequence.from_blocks(2, 2, Functional.normalized_trace(2), lower + [blocks]),
        lambda: from_schur_weyl_blocks(blocks, 2, 2, 3),
        lambda: transition_blocks(blocks, 2, 2, 3, np.eye(2) / 2),
    ]
    for read in readers:
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == message


def test_enumeration_bound_guard():
    with pytest.raises(ValueError):
        isotypic_projector(2, 9, Partition((9,)))
    with pytest.raises(ValueError):
        schur_weyl_table(2, 9)


def _bundle_of(L):
    return {"m": 1, "n": 1, "rho": "trace", "entries": [[]] * (L + 1)}


def _cli_state(path):
    state = str(path / "bell.json")
    dump_json(operator_to_json(bell_projector()), state)
    return state


def _cli_grouplike(path):
    t = str(path / "t.json")
    dump_json(operator_to_json(LeggedOperator(np.diag([0.9, 0.5]), (2,))), t)
    return t


_G = GroupLike(np.diag([0.9, 0.5]))
_RHO = Functional.normalized_trace(2)
_ONE = LeggedOperator(np.eye(1), (1,))

#: every entry point of the level bound: (argument name, least value, call).
#: A call raises ValueError, or returns the exit code of a CLI run
LEVEL_ENTRY_POINTS = {
    "grouplike_sequence": ("L", 0, lambda L, _: boundary.grouplike_sequence(_ONE, _G, L, _RHO)),
    "exponential_test": ("L", 1, lambda L, _: boundary.exponential_test(_G, L)),
    "ExtensionProblem": ("l", 1, lambda l, _: hierarchy.ExtensionProblem(bell_projector(), _RHO, l)),
    "separability_verdict": ("max_l", 2, lambda l, _: separability_verdict(bell_projector(), _RHO, l)),
    "transition_blocks": ("l", 1, lambda l, _: transition_blocks([np.eye(2)], 2, 2, l, _RHO.density)),
    "schur_weyl_table": ("l", 0, lambda l, _: schur_weyl_table(2, l)),
    "isotypic_projector": ("l", 0, lambda l, _: isotypic_projector(2, l, Partition((l,) if l > 0 else ()))),
    "sequence_from_json": ("L", 0, lambda L, _: sequence_from_json(_bundle_of(L))),
    "copy_basis": ("l", 0, lambda l, _: copy_basis(2, Partition((l,)))),
    "block_compression": ("l", 0, lambda l, _: boundary.block_compression(_G, Partition((l,)))),
    "cli_extend_check_levels": ("max_l", 2, lambda l, path: main(
        ["extend-check", "--state", _cli_state(path), "--levels", str(l)])),
    "cli_boundary_grouplike_levels": ("L", 1, lambda L, path: main(
        ["boundary", "--grouplike", _cli_grouplike(path), "--levels", str(L)])),
    "cli_schur_table_l": ("l", 0, lambda l, _: main(["schur-table", "--n", "2", "--l", str(l)])),
}
#: the entry points whose level is a partition's size, which is never negative
SIZE_LEVELS = {"copy_basis", "block_compression"}


def _level_tries():
    # one past each end of the range, or past the top alone for SIZE_LEVELS
    for entry, (_, lowest, _) in LEVEL_ENTRY_POINTS.items():
        for value in ([] if entry in SIZE_LEVELS else [lowest - 1]) + [symmetry.MAX_LEVEL + 1]:
            yield pytest.param(entry, value, id=f"{entry}={value}")


@pytest.mark.parametrize("entry, value", _level_tries())
def test_every_entry_point_raises_the_one_level_bound_error(entry, value, tmp_path, capsys):
    # `check_level` is the one level bound: each library entry point raises
    # its ValueError, and each CLI flag exits 2 with its message
    name, lowest, call = LEVEL_ENTRY_POINTS[entry]
    message = f"{name}={value} is outside the level bound {lowest} <= {name} <= {symmetry.MAX_LEVEL}"
    if entry.startswith("cli_"):
        assert call(value, tmp_path) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValueError) as info:
            call(value, tmp_path)
        assert str(info.value) == message


def test_every_reader_of_a_partition_raises_the_one_rows_error():
    # `check_rows`: a partition with more than n rows has no copy
    lam = Partition((1, 1, 1))
    seq = boundary.grouplike_sequence(_ONE, _G, 3, _RHO)
    readers = [
        lambda: copy_basis(2, lam),
        lambda: boundary.block_compression(_G, lam),
        lambda: boundary.recover_block(seq, lam),
    ]
    for read in readers:
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == "partition (1, 1, 1) has more than n=2 rows"
    # the isotypic projector of such a partition is the zero operator instead
    assert not isotypic_projector(2, 3, lam).entries.any()


def test_every_reader_of_a_functional_raises_the_one_dimension_error():
    # `linalg._require_dimension`: a functional on M_3 against legs of n = 2
    rho3 = Functional.normalized_trace(3)
    seq = boundary.grouplike_sequence(_ONE, _G, 1, _RHO)
    readers = [
        lambda: SymSequence(1, 2, rho3, [_ONE]),
        lambda: seq.with_rho(rho3),
        lambda: hierarchy.ExtensionProblem(bell_projector(), rho3, 2),
        lambda: boundary.p_map(seq, rho3),
        lambda: resolve_functional(functional_to_json(rho3), 2),
    ]
    for read in readers:
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == "functional dimension 3 does not match n=2"
