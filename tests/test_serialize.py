"""Round-trip tests for the shared JSON formats."""

import numpy as np
import pytest

from definetti import Functional, LeggedOperator, SymSequence, bell_projector
from definetti.serialize import (
    dump_json,
    functional_from_json,
    functional_to_json,
    load_json,
    operator_from_json,
    operator_to_json,
    resolve_functional,
    sequence_from_json,
    sequence_to_json,
)

from conftest import rand_psd


def test_operator_round_trip(rng):
    x = LeggedOperator(rand_psd(4, rng), (2, 2))
    back = operator_from_json(operator_to_json(x))
    assert back.legs == x.legs
    assert np.abs(back.entries - x.entries).max() < 1e-15


def test_operator_from_json_validation():
    good = operator_to_json(bell_projector())
    for key in ("legs", "re", "im"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ValueError):
            operator_from_json(broken)
    broken = dict(good, legs=[2, 3])
    with pytest.raises(ValueError):
        operator_from_json(broken)
    broken = dict(good, im=[[0.0] * 3] * 3)
    with pytest.raises(ValueError):
        operator_from_json(broken)


def test_functional_round_trip(rng):
    rho = Functional.random_faithful(3, rng)
    back = functional_from_json(functional_to_json(rho))
    assert np.abs(back.density - rho.density).max() < 1e-15


def test_resolve_functional_presets():
    assert np.allclose(resolve_functional("trace", 2).density, np.eye(2))
    assert np.allclose(resolve_functional("normalized-trace", 2).density, np.eye(2) / 2)
    with pytest.raises(ValueError):
        resolve_functional("weighted", 2)
    with pytest.raises(ValueError):
        resolve_functional(functional_to_json(Functional.trace(3)), 2)


def test_sequence_round_trip(rng):
    rho = Functional.normalized_trace(2)
    b = LeggedOperator(rand_psd(2, rng), (2,))
    entries = [
        LeggedOperator(rand_psd(2, rng), (2,)),
        LeggedOperator(rand_psd(4, rng), (2, 2)),
    ]
    seq = SymSequence(2, 2, rho, entries)
    back = sequence_from_json(sequence_to_json(seq))
    assert back.m == 2 and back.n == 2 and back.L == 1
    for a, b_ in zip(seq.entries, back.entries):
        assert np.abs(a.entries - b_.entries).max() < 1e-15


def test_sequence_missing_key():
    obj = sequence_to_json(
        SymSequence(2, 2, Functional.normalized_trace(2), [LeggedOperator(np.eye(2), (2,))])
    )
    del obj["rho"]
    with pytest.raises(ValueError):
        sequence_from_json(obj)


def _bundle():
    entries = [LeggedOperator(np.eye(2), (2,)), LeggedOperator(np.eye(4) / 2, (2, 2))]
    return sequence_to_json(SymSequence(2, 2, Functional.normalized_trace(2), entries))


def test_sequence_rejects_a_non_integer_dimension():
    # 2.5 was read as m = 2
    for key, value in (("m", 2.5), ("m", 0), ("n", "2"), ("n", -2)):
        with pytest.raises(ValueError):
            sequence_from_json(dict(_bundle(), **{key: value}))


def test_sequence_rejects_a_length_that_disagrees_with_the_entries():
    # L = 3 was ignored for a two-entry bundle; a bundle without L is fine
    for value in (3, 0, 1.5):
        with pytest.raises(ValueError):
            sequence_from_json(dict(_bundle(), L=value))
    bundle = _bundle()
    del bundle["L"]
    assert sequence_from_json(bundle).L == 1


def test_file_round_trip(tmp_path, rng):
    path = str(tmp_path / "op.json")
    x = bell_projector()
    dump_json(operator_to_json(x), path)
    back = operator_from_json(load_json(path))
    assert np.abs(back.entries - x.entries).max() < 1e-15
