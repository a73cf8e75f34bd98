"""Unit tests for the legged-operator linear algebra layer."""

import numpy as np
import pytest

from definetti import (
    Functional,
    LeggedOperator,
    contract_legs,
    is_psd,
    loewner_leq,
    min_eig,
    partial_transpose,
    tensor,
)
from definetti.boundary import GroupLike
from definetti.linalg import _PAD_SIDE, PSD_TOL, _first_non_psd, _hermitian, psd_part

from conftest import rand_hermitian, rand_psd, tensor_power


def test_legs_must_match_matrix_side():
    with pytest.raises(ValueError):
        LeggedOperator(np.eye(4), (2, 3))
    with pytest.raises(ValueError):
        LeggedOperator(np.ones((2, 3)), (2,))
    x = LeggedOperator(np.eye(6), (2, 3))
    assert x.side == 6 and x.nlegs == 2


def test_entries_are_read_only():
    x = LeggedOperator(np.eye(2), (2,))
    with pytest.raises(ValueError):
        x.entries[0, 0] = 5.0


def test_kron_convention_leg0_slowest():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 5.0])
    t = tensor(LeggedOperator(a, (2,)), LeggedOperator(b, (2,)))
    assert t.legs == (2, 2)
    assert np.allclose(t.entries, np.kron(a, b))
    # leg 0 is the slowest index: entry (0,0) pairs a[0,0] with b[0,0],
    # entry (1,1) keeps a[0,0] and moves to b[1,1]
    assert t.entries[1, 1] == a[0, 0] * b[1, 1]


def test_tensor_power_zero_is_scalar_identity():
    x = LeggedOperator(np.diag([2.0, 3.0]), (2,))
    p0 = tensor_power(x, 0)
    assert p0.legs == () and p0.entries.shape == (1, 1)
    p3 = tensor_power(x, 3)
    assert p3.legs == (2, 2, 2)
    assert np.isclose(p3.entries[-1, -1], 27.0)


def test_psd_predicates(rng):
    p = LeggedOperator(rand_psd(4, rng), (4,))
    assert is_psd(p)
    assert min_eig(p) >= 0
    neg = LeggedOperator(np.diag([1.0, -0.5]), (2,))
    assert not is_psd(neg)
    # a tiny negative eigenvalue within tolerance still counts as PSD
    eps = LeggedOperator(np.diag([1.0, -1e-12]), (2,))
    assert is_psd(eps)


def test_is_psd_rejects_non_hermitian():
    # PSD symmetric part, but the antisymmetric part is far above 1e-10
    x = LeggedOperator(np.array([[1.0, 0.5], [0.0, 1.0]]), (2,))
    assert np.linalg.eigvalsh((x.entries + x.entries.T) / 2)[0] > 0
    assert not is_psd(x)
    # a relative asymmetry below HERMITIAN_RTOL still counts as Hermitian
    near = LeggedOperator(np.array([[1.0, 1e-12], [0.0, 1.0]]), (2,))
    assert is_psd(near)
    with pytest.raises(ValueError):
        min_eig(x)


def _direct_sum(blocks):
    side = sum(b.shape[0] for b in blocks)
    out, k = np.zeros((side, side), dtype=complex), 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


def test_first_non_psd_applies_each_groups_own_rule():
    # each group gets the rules with its own largest entry and dense side:
    # a block at -1e-7 fails beside a group whose entries reach 1e3, passes
    # in a group that reaches 1e3 itself, and passes with a dense side of 1e3
    big, small = np.array([[1e3]]), np.array([[-1e-7]])
    assert _first_non_psd([[big], [small]], [1, 1], PSD_TOL) == 1
    assert _first_non_psd([[big, small]], [2], PSD_TOL) is None
    assert _first_non_psd([[big], [small]], [1, 1000], PSD_TOL) is None
    # the Hermitian rule on every group; a caller that checks only the
    # Hermitian part passes it, which is exactly Hermitian
    skew = np.array([[1.0, 1e-6], [0.0, 1.0]])
    assert _first_non_psd([[np.eye(1)], [skew]], [1, 2], PSD_TOL) == 1
    assert _first_non_psd([[np.eye(1)], [(skew + skew.T) / 2]], [1, 2], PSD_TOL) is None
    assert _first_non_psd([], [], PSD_TOL) is None


def test_first_non_psd_pads_only_narrow_blocks(monkeypatch):
    # blocks up to _PAD_SIDE share one padded stack; wider ones are stacked
    # by side, unpadded, whatever group they are in
    shapes, inner = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or inner(a))
    w = _PAD_SIDE + 1
    groups = [[np.eye(2), np.eye(w)], [np.eye(30), np.eye(_PAD_SIDE)], [np.eye(w)]]
    assert _first_non_psd(groups, [100, 100, 100], PSD_TOL) is None
    assert sorted(shapes) == sorted([(2, _PAD_SIDE, _PAD_SIDE), (2, w, w), (1, 30, 30)])


def test_first_non_psd_agrees_with_the_rules_on_the_direct_sums(rng):
    # random groups of blocks of mixed sides, on both sides of the padded
    # stack's bound, some pushed just across the PSD or the Hermitian rule:
    # the first group whose direct sum fails `_hermitian` or the PSD rule
    # with the group's side is the one reported
    wide = 0
    for _ in range(40):
        groups, sides = [], []
        for _ in range(rng.integers(1, 6)):
            widths = rng.integers(1, 21, rng.integers(1, 4))
            blocks = [rand_hermitian(int(s), rng) + 3 * np.eye(int(s)) for s in widths]
            wide += sum(len(b) > _PAD_SIDE for b in blocks)
            side = int(rng.integers(1, 50))
            dense = _direct_sum(blocks)
            least = np.linalg.eigvalsh(dense)[0]
            scale = PSD_TOL * side * max(1.0, np.abs(dense).max())
            kind = rng.integers(4)
            if kind == 1:  # just outside or inside the PSD band
                shift = least + scale * rng.choice([0.5, 2.0])
                blocks = [b - shift * np.eye(len(b)) for b in blocks]
            elif kind == 2:  # an anti-Hermitian part just above or below the rule
                b = blocks[0]
                b[0, -1] += np.abs(dense).max() * 1e-10 * rng.choice([0.3, 3.0]) * (1 + 1j)
            groups.append(blocks)
            sides.append(side)
        want = None
        for i, (blocks, side) in enumerate(zip(groups, sides)):
            dense = _direct_sum(blocks)
            herm = (dense + dense.conj().T) / 2
            ok = _hermitian(dense) and np.linalg.eigvalsh(herm)[0] >= -PSD_TOL * side * max(
                1.0, np.abs(dense).max()
            )
            if not ok:
                want = i
                break
        assert _first_non_psd(groups, sides, PSD_TOL) == want
    assert wide >= 10


def test_psd_part_clips_negative_part():
    p = psd_part(np.diag([2.0, -3.0]))
    assert np.allclose(p, np.diag([2.0, 0.0]))
    # projection is the HS-nearest PSD matrix, so it fixes PSD inputs
    q = psd_part(p)
    assert np.abs(q - p).max() < 1e-14


def test_loewner_order(rng):
    a = rand_psd(3, rng)
    x = LeggedOperator(a, (3,))
    y = LeggedOperator(a + 0.5 * np.eye(3), (3,))
    assert loewner_leq(x, y)
    assert not loewner_leq(y, x)
    # near-equal operators compare both ways at tolerance
    z = LeggedOperator(a + 1e-14 * np.eye(3), (3,))
    assert loewner_leq(x, z) and loewner_leq(z, x)


def test_functional_faithfulness_guard():
    with pytest.raises(ValueError):
        Functional(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        Functional(np.diag([1.0, -0.1]))
    rho = Functional.normalized_trace(3)
    assert np.isclose(rho.value(np.eye(3)), 1.0)
    assert np.isclose(Functional.trace(3).value(np.eye(3)), 3.0)


def test_diagonal_densities_are_checked_without_eigvalsh(monkeypatch):
    # a diagonal density's least eigenvalue is its least diagonal entry; a
    # non-diagonal one still gets the eigenvalue check
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    assert Functional.trace(300).least_eig == 1.0
    assert Functional(np.diag([0.5, 0.2, 0.3])).least_eig == 0.2
    for bad in ([1.0, 0.0], [1.0, -0.1], [0.0, 0.0]):
        with pytest.raises(ValueError, match="not faithful"):
            Functional(np.diag(bad))
    assert calls == []
    # eigenvalues 1 +- 1 and 1 +- 0.9, while every diagonal entry is 1
    with pytest.raises(ValueError, match="not faithful"):
        Functional(np.array([[1.0, 1.0], [1.0, 1.0]]))
    rho = Functional(np.array([[1.0, 0.9j], [-0.9j, 1.0]]))
    assert np.isclose(rho.least_eig, 0.1) and len(calls) == 2


def test_a_diagonal_density_gets_the_hermitian_rule():
    # |x - x^H|max = 2 |Im diag|max: a non-real diagonal entry above the
    # relative rule is rejected, one below it is dropped, as the dense
    # hermitization (x + x^H) / 2 would drop it
    for bad in ([1.0, 0.5 + 1e-3j], [1.0, 1e-9j + 0.5], [2.0 + 1j, 1.0]):
        with pytest.raises(ValueError, match="must be Hermitian"):
            Functional(np.diag(bad))
    rho = Functional(np.diag([1.0, 0.5 + 2e-11j]))
    assert np.array_equal(rho.density, np.diag([1.0, 0.5])) and rho.least_eig == 0.5
    assert rho.density.dtype == complex and not rho.density.flags.writeable


def test_a_density_that_is_not_finite_or_is_empty_is_rejected_as_such():
    # an Inf on the diagonal used to fail the faithfulness check, and an
    # empty density numpy's reduction; NaN and Inf are rejected as such on a
    # diagonal density and off its diagonal alike
    for bad in (np.diag([np.inf, 1.0]), np.diag([1.0, np.nan]), np.diag([1.0, 1.0 + 1j * np.inf]),
                np.array([[1.0, np.inf], [np.inf, 1.0]]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(ValueError, match="must be finite; NaN and Inf are rejected"):
            Functional(bad)
    with pytest.raises(ValueError, match="at least 1 x 1"):
        Functional(np.zeros((0, 0)))


def test_every_builder_of_a_square_matrix_rejects_an_empty_one_with_one_message():
    # `linalg._as_square_complex` is the one square-and-nonempty rule
    builders = [
        (lambda m: LeggedOperator(m, ()), "operator"),
        (Functional, "functional density"),
        (GroupLike, "group-like matrix"),
    ]
    for build, what in builders:
        with pytest.raises(ValueError) as info:
            build(np.zeros((0, 0)))
        assert str(info.value) == f"{what} must be at least 1 x 1"
        with pytest.raises(ValueError) as info:
            build(np.zeros((2, 3)))
        assert str(info.value) == "expected a square matrix, got shape (2, 3)"


def test_an_operator_that_is_not_finite_is_rejected_when_built():
    # an Inf entry used to reach `is_psd`, whose Hermitian check then warned
    # "invalid value encountered in subtract" (an error under this suite's
    # warning filter)
    for bad in (np.diag([np.inf, 1.0]), np.diag([1.0, np.nan]), np.diag([1.0, 1.0 + 1j * np.inf])):
        with pytest.raises(ValueError, match="must be finite; NaN and Inf are rejected"):
            is_psd(LeggedOperator(bad, (2,)))


def test_random_faithful_is_a_state(rng):
    rho = Functional.random_faithful(4, rng)
    assert np.isclose(np.trace(rho.density).real, 1.0)
    assert np.linalg.eigvalsh(rho.density)[0] > 0


def test_contract_legs_is_partial_trace_for_tracial_density(rng):
    x = LeggedOperator(rand_psd(4, rng), (2, 2))
    out = contract_legs(x, Functional.trace(2), [1])
    expect = np.trace(x.entries.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    assert np.abs(out.entries - expect).max() < 1e-13
    assert out.legs == (2,)


def test_contract_legs_weighted_density(rng):
    d = rand_psd(2, rng, floor=0.1)
    rho = Functional(d)
    p = rand_psd(2, rng)
    q = rand_psd(2, rng)
    x = tensor(LeggedOperator(p, (2,)), LeggedOperator(q, (2,)))
    out = contract_legs(x, rho, [1])
    assert np.abs(out.entries - p * np.trace(d @ q)).max() < 1e-12 * np.abs(p).max()


def test_contract_legs_preserves_positivity(rng):
    rho = Functional.random_faithful(2, rng)
    x = LeggedOperator(rand_psd(8, rng), (2, 2, 2))
    out = contract_legs(x, rho, [1, 2])
    assert out.legs == (2,)
    assert is_psd(out)


def test_contract_legs_validates_indices(rng):
    x = LeggedOperator(rand_psd(4, rng), (2, 2))
    with pytest.raises(ValueError):
        contract_legs(x, Functional.trace(2), [2])
    with pytest.raises(ValueError):
        contract_legs(x, Functional.trace(3), [1])


def test_partial_transpose_involution_and_trace(rng):
    x = LeggedOperator(rand_hermitian(6, rng), (2, 3))
    pt = partial_transpose(x, 1)
    assert np.isclose(pt.trace(), x.trace())
    back = partial_transpose(pt, 1)
    assert np.abs(back.entries - x.entries).max() < 1e-15


def test_partial_transpose_needs_two_legs():
    with pytest.raises(ValueError):
        partial_transpose(LeggedOperator(np.eye(2), (2,)), 0)
