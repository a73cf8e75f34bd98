"""Unit tests for the legged-operator linear algebra layer."""

import numpy as np
import pytest

from definetti import (
    Functional,
    LeggedOperator,
    contract_legs,
    eig_hermitian,
    hs_inner,
    is_psd,
    loewner_leq,
    min_eig,
    partial_transpose,
    psd_project,
    tensor,
    tensor_power,
)

from conftest import rand_hermitian, rand_psd


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


def test_eig_hermitian_reconstructs(rng):
    x = LeggedOperator(rand_hermitian(8, rng), (8,))
    evals, evecs = eig_hermitian(x)
    rebuilt = (evecs * evals) @ evecs.conj().T
    assert np.abs(rebuilt - x.entries).max() < 1e-12 * max(1.0, x.norm_max())
    # eigenvalues ascend and the eigenvector matrix is unitary
    assert np.all(np.diff(evals) >= 0)
    gram = evecs.conj().T @ evecs
    assert np.abs(gram - np.eye(8)).max() < 1e-12


def test_eig_hermitian_rejects_non_hermitian():
    x = LeggedOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
    with pytest.raises(ValueError):
        eig_hermitian(x)


def test_psd_predicates(rng):
    p = LeggedOperator(rand_psd(4, rng), (4,))
    assert is_psd(p)
    assert min_eig(p) >= 0
    neg = LeggedOperator(np.diag([1.0, -0.5]), (2,))
    assert not is_psd(neg)
    # a tiny negative eigenvalue within tolerance still counts as PSD
    eps = LeggedOperator(np.diag([1.0, -1e-12]), (2,))
    assert is_psd(eps)


def test_psd_project_clips_negative_part():
    x = LeggedOperator(np.diag([2.0, -3.0]), (2,))
    p = psd_project(x)
    assert np.allclose(p.entries, np.diag([2.0, 0.0]))
    # projection is the HS-nearest PSD matrix, so it fixes PSD inputs
    q = psd_project(p)
    assert np.abs(q.entries - p.entries).max() < 1e-14


def test_loewner_order(rng):
    a = rand_psd(3, rng)
    x = LeggedOperator(a, (3,))
    y = LeggedOperator(a + 0.5 * np.eye(3), (3,))
    assert loewner_leq(x, y)
    assert not loewner_leq(y, x)
    # near-equal operators compare both ways at tolerance
    z = LeggedOperator(a + 1e-14 * np.eye(3), (3,))
    assert loewner_leq(x, z) and loewner_leq(z, x)


def test_hs_inner_matches_trace(rng):
    x = rand_hermitian(4, rng)
    y = rand_hermitian(4, rng)
    got = hs_inner(LeggedOperator(x, (4,)), LeggedOperator(y, (4,)))
    assert np.isclose(got, np.trace(y.conj().T @ x))


def test_functional_faithfulness_guard():
    with pytest.raises(ValueError):
        Functional(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        Functional(np.diag([1.0, -0.1]))
    rho = Functional.normalized_trace(3)
    assert np.isclose(rho.value(np.eye(3)), 1.0)
    assert np.isclose(Functional.trace(3).value(np.eye(3)), 3.0)


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
