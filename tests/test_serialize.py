"""Round-trip tests for the shared JSON formats."""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from definetti import Functional, LeggedOperator, SymSequence, Symmetrizer, bell_projector
from definetti.boundary import GroupLike, grouplike_sequence
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
from definetti.symmetry import MAX_LEVEL, partitions_of

from conftest import block_entries, list_encoded, payload, rand_hermitian, rand_psd


def test_dump_json_writes_what_json_dump_writes(tmp_path, rng):
    seq = grouplike_sequence(LeggedOperator(rand_psd(2, rng), (2,)), GroupLike(rand_psd(2, rng)), 4)
    obj = sequence_to_json(seq)
    path = tmp_path / "bundle.json"
    dump_json(obj, str(path))
    with open(tmp_path / "streamed.json", "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()
    assert load_json(str(path)) == obj


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


def test_readers_reject_booleans_for_integers():
    # a JSON true is a Python bool, an int subclass: "legs": [true, 2] was
    # read as legs (1, 2), and "m": true as m = 1
    op = operator_to_json(LeggedOperator(np.eye(2), (1, 2)))
    assert operator_from_json(op).legs == (1, 2)
    with pytest.raises(ValueError):
        operator_from_json(dict(op, legs=[True, 2]))
    entries = [LeggedOperator(np.eye(1), (1,)), LeggedOperator(np.eye(1), (1, 1))]
    bundle = sequence_to_json(SymSequence(1, 1, Functional.trace(1), entries))
    assert sequence_from_json(bundle).L == 1
    for key in ("m", "n", "L"):
        with pytest.raises(ValueError):
            sequence_from_json(dict(bundle, **{key: True}))


def test_file_round_trip(tmp_path, rng):
    path = str(tmp_path / "op.json")
    x = bell_projector()
    dump_json(operator_to_json(x), path)
    back = operator_from_json(load_json(path))
    assert np.abs(back.entries - x.entries).max() < 1e-15


def test_operator_from_json_rejects_non_finite_entries():
    # Python's json reads NaN and Infinity; a NaN entry used to come out as a
    # "not PSD" verdict, an infinite one as a RuntimeWarning
    good = operator_to_json(bell_projector())
    for key in ("re", "im"):
        for bad in (float("nan"), float("inf"), -float("inf"), None):
            rows = [list(r) for r in good[key]]
            rows[1][2] = bad
            with pytest.raises(ValueError, match="finite"):
                operator_from_json(dict(good, **{key: rows}))
    with pytest.raises(ValueError):
        operator_from_json(dict(good, re=[[{}] * 4] * 4))


def test_operator_from_json_names_each_fault_of_re_and_im():
    # each fault of 're' and 'im' gets its own message
    good = operator_to_json(LeggedOperator(np.eye(2), (2,)))
    zeros = [[0, 0], [0, 0]]
    for bad, message in [
        (dict(good, re=5), "nested lists of numbers: 'int' object is not iterable"),
        (dict(good, im=[1, 0]), "nested lists of numbers: 'int' object is not iterable"),
        (dict(good, re=[[1, "1"], [True, 1]]), "nested lists of numbers: got bool, str"),
        (dict(good, im=[[True, 0], [0, 0]]), "nested lists of numbers: got bool"),
        (dict(good, re=[{}, {}]), "nested lists of numbers: float"),
        (dict(good, re=[{}, {}], im=[{}, {}]), "nested lists of numbers: float"),
        (dict(good, re=[[1, 0], [0]]), "nested lists of numbers: setting an array element"),
        (dict(good, im=[[0, 0]]), r"'re' shape \(2, 2\) does not match 'im' shape \(1, 2\)"),
        (dict(good, re=[[1, None]], im=zeros), "finite"),
        (dict(good, legs=[3], im=zeros), r"matrix shape \(2, 2\) does not match legs \[3\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            operator_from_json(bad)


def _invariant_sequence(m, n, L, rng):
    """Random Hermitian entries x_l on legs [m, n, ..., n], symmetrized over
    the n-legs: invariant, and more general than a group-like sequence."""
    entries = []
    for l in range(L + 1):
        legs = (m,) + (n,) * l
        x = rand_hermitian(m * n**l, rng)
        entries.append(LeggedOperator(Symmetrizer(legs, range(1, l + 1)).apply_matrix(x), legs))
    return SymSequence(m, n, Functional.normalized_trace(n), entries)


@pytest.mark.parametrize("m, n, L", [(2, 2, 6), (2, 3, 4), (3, 2, 3), (1, 1, 2)])
def test_block_bundle_round_trip(rng, m, n, L):
    random = _invariant_sequence(m, n, L, rng)
    t = rand_psd(n, rng) + 1j * rand_hermitian(n, rng)
    grouplike = grouplike_sequence(LeggedOperator(rand_psd(m, rng), (m,)), GroupLike(t), L)
    for seq in (random, grouplike):
        obj = sequence_to_json(seq)
        assert [[b["partition"] for b in entry] for entry in obj["entries"]] == [
            [list(lam.parts) for lam in partitions_of(l, max_parts=n)] for l in range(L + 1)
        ]
        back = sequence_from_json(json.loads(json.dumps(obj)))
        assert (back.m, back.n, back.L) == (m, n, L)
        for l in range(L + 1):
            for want, got in zip(seq.blocks(l), back.blocks(l), strict=True):
                assert np.array_equal(got, want)
        for want, got in zip(seq.entries, back.entries):
            assert got.legs == want.legs
            assert np.abs(got.entries - want.entries).max() <= 1e-13 * np.abs(want.entries).max()


def test_block_bundle_size():
    # the dense (2, 2, 6) bundle held sum_l (2 * 2^l)^2 = 21 844 complex numbers
    seq = _invariant_sequence(2, 2, 6, np.random.default_rng(0))
    obj = sequence_to_json(seq)
    assert sum(block_entries(b).size for entry in obj["entries"] for b in entry) == 840
    assert sum(len(base64.b64decode(b["data"])) for entry in obj["entries"] for b in entry) == 13_440
    assert [b["legs"] for b in obj["entries"][6]] == [[2, 7], [2, 5], [2, 3], [2, 1]]
    assert np.array_equal(block_entries(obj["entries"][1][0]), seq.entries[1].entries)


def test_list_and_payload_bundles_read_to_equal_blocks(rng):
    # a bundle written before the payload holds "re" and "im" lists; both
    # encodings of one sequence read to the same blocks, bit for bit
    t = rand_psd(2, rng) + 1j * rand_hermitian(2, rng)
    for seq in (
        _invariant_sequence(2, 3, 4, rng),
        grouplike_sequence(LeggedOperator(rand_psd(2, rng), (2,)), GroupLike(t), 6),
    ):
        obj = sequence_to_json(seq)
        lists = list_encoded(obj)
        assert all("data" not in b and "re" in b for entry in lists["entries"] for b in entry)
        from_payload = sequence_from_json(json.loads(json.dumps(obj)))
        from_lists = sequence_from_json(json.loads(json.dumps(lists)))
        for l in range(seq.L + 1):
            for want, a, b in zip(seq.blocks(l), from_payload.blocks(l), from_lists.blocks(l), strict=True):
                assert np.array_equal(a, want) and np.array_equal(b, want)


def test_reader_rejects_malformed_payloads(rng):
    # each fault of a block's "data" gets its one message
    good = sequence_to_json(_invariant_sequence(2, 2, 3, rng))
    block = good["entries"][3][1]  # partition [2, 1], legs [2, 2]: 16 * 4^2 bytes
    assert block["partition"] == [2, 1] and block["legs"] == [2, 2]
    x = block_entries(block)
    for bad, message in [
        (dict(block, data=5), "'data' must be a base64 string, got int"),
        (dict(block, data=[block["data"]]), "'data' must be a base64 string, got list"),
        (dict(block, data="@" + block["data"][1:]), "'data' is not valid base64"),
        (dict(block, data=block["data"][:-1]), "'data' is not valid base64"),
        (dict(block, data="é" + block["data"][1:]), "'data' is not valid base64"),
        (dict(block, data=payload(x[:3])), r"'data' holds 192 bytes, expected 16 \* 4\^2 = 256"),
        (dict(block, data=""), r"'data' holds 0 bytes, expected 16 \* 4\^2 = 256"),
        (dict(block, re=x.real.tolist()), r"block \[2, 1\] of entry 3 .* got both"),
        ({"partition": [2, 1], "legs": [2, 2]}, r"block \[2, 1\] of entry 3 .* got neither"),
        ({"partition": [2, 1], "data": block["data"]}, "missing key 'legs'"),
        (dict(block, legs=[2, True]), "'legs' must be a list of positive integers"),
        (dict(block, legs=[2, 1], data=payload(x[:2, :2])), r"legs \[2, 1\], expected \[2, 2\]"),
    ]:
        obj = json.loads(json.dumps(good))
        obj["entries"][3][1] = bad
        with pytest.raises(ValueError, match=message):
            sequence_from_json(obj)
    for value in (np.nan, np.inf):
        y = x.copy()
        y[0, 1] = value
        obj = json.loads(json.dumps(good))
        obj["entries"][3][1]["data"] = payload(y)
        with pytest.raises(ValueError, match="finite"):
            sequence_from_json(obj)


def test_json_files_are_utf_8(tmp_path):
    # open() without an encoding reads and writes in the locale's encoding,
    # which EncodingWarning flags; JSON is UTF-8
    state = dict(operator_to_json(bell_projector()), note="Werner ρ, p ≥ 1/2")
    path = tmp_path / "state.json"
    path.write_bytes(json.dumps(state, ensure_ascii=False).encode("utf-8"))
    script = (
        "import sys\n"
        "from definetti.cli import main\n"
        "from definetti.serialize import dump_json, load_json\n"
        "state = load_json(sys.argv[1])\n"
        "assert state['note'] == 'Werner \\u03c1, p \\u2265 1/2', state['note']\n"
        "dump_json(state, sys.argv[2])\n"
        "sys.exit(main(['extend-check', '--state', sys.argv[2], '--levels', '2', '--out', sys.argv[3]]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, str(path), str(tmp_path / "copy.json"), str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert load_json(str(tmp_path / "copy.json"))["note"] == state["note"]
    assert json.loads(out.read_text(encoding="utf-8"))["verdict"] == "entangled_evidence"


def test_writer_rejects_a_non_invariant_entry(rng):
    entries = list(_invariant_sequence(2, 2, 3, rng).entries)
    entries[2] = LeggedOperator(rand_psd(8, rng), (2, 2, 2))
    with pytest.raises(ValueError, match="entry 2 is not S_2-invariant"):
        sequence_to_json(SymSequence(2, 2, Functional.normalized_trace(2), entries))


def test_reader_rejects_malformed_blocks(rng):
    good = sequence_to_json(_invariant_sequence(2, 2, 3, rng))

    def broken(edit):
        obj = json.loads(json.dumps(good))
        edit(obj["entries"][3])
        return obj

    def swap(entry):
        entry[0], entry[1] = entry[1], entry[0]

    def relabel(entry):
        entry[0]["partition"] = [True, 2]

    def resize(entry):
        block = sequence_to_json(_invariant_sequence(2, 2, 2, rng))["entries"][2][0]
        entry[0] = dict(block, partition=[3])

    cases = [
        (swap, r"partition \[3\]"),
        (relabel, r"partition \[3\]"),
        (lambda entry: entry.pop(), "has 1 blocks, expected 2"),
        (resize, r"legs \[2, 3\], expected \[2, 4\]"),
        (lambda entry: entry.append(entry[0]), "has 3 blocks"),
    ]
    for edit, message in cases:
        with pytest.raises(ValueError, match=message):
            sequence_from_json(broken(edit))


def test_reader_rejects_a_prefix_beyond_the_level_bound():
    entries = [LeggedOperator(np.eye(1), (1,) * (l + 1)) for l in range(MAX_LEVEL + 1)]
    obj = sequence_to_json(SymSequence(1, 1, Functional.trace(1), entries))
    assert sequence_from_json(obj).L == MAX_LEVEL
    obj["entries"].append(obj["entries"][-1])
    obj["L"] = MAX_LEVEL + 1
    with pytest.raises(ValueError, match="level bound"):
        sequence_from_json(obj)


def test_reader_rejects_a_dense_bundle():
    obj = _bundle()
    obj["entries"] = [operator_to_json(LeggedOperator(np.eye(2), (2,)))] + obj["entries"][1:]
    with pytest.raises(ValueError, match="entry 0 must be a list of Schur-Weyl blocks"):
        sequence_from_json(obj)


def test_reader_rejects_a_malformed_container():
    # both used to raise TypeError
    with pytest.raises(ValueError, match="JSON object"):
        sequence_from_json(5)
    with pytest.raises(ValueError, match="'entries' must be a list"):
        sequence_from_json(dict(_bundle(), entries=5))
