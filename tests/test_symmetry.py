"""Unit tests for permutation actions, characters, and isotypic projectors."""

import itertools
import math

import numpy as np
import pytest

from definetti import (
    LeggedOperator,
    LegPermutation,
    Partition,
    Symmetrizer,
    isotypic_projector,
    partitions_of,
    permute_legs,
    schur_weyl_table,
    sym_group_character,
    symmetrize,
    tensor,
)
from definetti.symmetry import projector_range

from conftest import rand_hermitian, rand_psd


# -- partitions and characters ----------------------------------------------


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


def test_character_table_s3():
    # rows: lambda, columns: cycle types (1,1,1), (2,1), (3)
    expect = {
        (3,): [1, 1, 1],
        (2, 1): [2, 0, -1],
        (1, 1, 1): [1, -1, 1],
    }
    classes = [Partition((1, 1, 1)), Partition((2, 1)), Partition((3,))]
    for parts, row in expect.items():
        got = [sym_group_character(Partition(parts), mu) for mu in classes]
        assert got == row


def test_character_orthogonality_s5():
    # first orthogonality relation over the full group
    lams = list(partitions_of(5))
    chars = {}
    for perm in itertools.permutations(range(5)):
        ct = LegPermutation(perm).cycle_type()
        chars[perm] = {lam.parts: sym_group_character(lam, ct) for lam in lams}
    for a in lams:
        for b in lams:
            inner = sum(chars[p][a.parts] * chars[p][b.parts] for p in chars)
            assert inner == (math.factorial(5) if a == b else 0)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        sym_group_character(Partition((2, 1)), Partition((2,)))


# -- leg permutations --------------------------------------------------------


def test_permutation_validation_and_cycles():
    with pytest.raises(ValueError):
        LegPermutation((0, 0, 1))
    sigma = LegPermutation((1, 2, 0))
    assert sigma.cycle_type().parts == (3,)
    assert LegPermutation.identity(3).cycle_type().parts == (1, 1, 1)


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
    s = symmetrize(x, [0, 1, 2])
    again = symmetrize(s, [0, 1, 2])
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
    s = symmetrize(x, [1, 2])
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


def test_schur_weyl_table_n3_l4_dimension_count():
    table = schur_weyl_table(3, 4)
    assert sum(d * m for _, d, m in table) == 81
    mult = {lam.parts: m for lam, _, m in table}
    # multiplicities equal the S_4 irrep dimensions for every surviving block
    for lam, _, m in table:
        assert m == lam.hook_dimension()
    assert (1, 1, 1, 1) not in mult  # needs four rows, n = 3


def test_projector_range_is_orthonormal():
    p = isotypic_projector(2, 3, Partition((2, 1)))
    basis = projector_range(p)
    assert basis.shape == (8, 4)
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_enumeration_bound_guard():
    with pytest.raises(ValueError):
        isotypic_projector(2, 9, Partition((9,)))
    with pytest.raises(ValueError):
        schur_weyl_table(2, 9)
