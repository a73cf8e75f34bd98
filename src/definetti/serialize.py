"""Shared JSON file formats: matrices, functionals, sequence bundles.

A matrix is `{"legs", "re", "im"}` with finite entries.  A sequence bundle
is `{"m", "n", "L", "rho", "entries"}`, and entry l, an S_l-invariant
operator on legs [m, n, ..., n], is stored as its Schur-Weyl blocks: a list
of block objects `{"partition", "legs": [m, weyl], "data"}`, one per
partition lambda of l with at most n rows in `symmetry.level_layout(n, l)`
order, the one block order, holding B_lambda = (I_m (x) W)^T x_l (I_m (x) W),
W the copy basis of lambda (`symmetry.schur_weyl_block`).  `data` is the
base64 of the block's entries as little-endian complex128 (`<c16`),
row-major.  At l <= 1 the one block is x_l itself.  The reader also takes a
block in the matrix format, `"re"` and `"im"` lists in place of `data`, as
files written before the payload hold them.  It checks the labels and legs,
and keeps the blocks (`SymSequence.from_blocks`, whose shape check is
`symmetry.check_blocks`); it rebuilds no dense entry.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
from typing import Union

import numpy as np

from .hierarchy import SymSequence
from .linalg import PSD_TOL, Functional, LeggedOperator, _require_dimension
from .symmetry import check_level, level_layout


def _is_int(x) -> bool:
    """A JSON integer; JSON's true and false are Python bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _numbers(rows) -> np.ndarray:
    """Rows of JSON numbers as a float array.  JSON strings and booleans,
    which numpy would convert, raise ValueError, and so does a null, which
    numpy would read as NaN; a NaN or an Infinity is kept, and
    `LeggedOperator` rejects it."""
    kinds = set(map(type, itertools.chain.from_iterable(rows))) - {int, float}
    if type(None) in kinds:
        raise ValueError("got null; entries must be finite")
    if kinds:
        raise ValueError(f"got {', '.join(sorted(k.__name__ for k in kinds))}")
    return np.array(rows, dtype=float)


def operator_to_json(x: LeggedOperator) -> dict:
    return {
        "legs": list(x.legs),
        "re": x.entries.real.tolist(),
        "im": x.entries.imag.tolist(),
    }


def _legs(obj: dict) -> list[int]:
    if "legs" not in obj:
        raise ValueError("matrix object is missing key 'legs'")
    legs = obj["legs"]
    if not isinstance(legs, list) or not all(_is_int(d) and d > 0 for d in legs):
        raise ValueError("'legs' must be a list of positive integers")
    return legs


def operator_from_json(obj: dict) -> LeggedOperator:
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    legs = _legs(obj)
    for key in ("re", "im"):
        if key not in obj:
            raise ValueError(f"matrix object is missing key '{key}'")
    try:
        re, im = _numbers(obj["re"]), _numbers(obj["im"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'re' and 'im' must be nested lists of numbers: {exc}") from None
    if re.shape != im.shape:
        raise ValueError(f"'re' shape {re.shape} does not match 'im' shape {im.shape}")
    side = math.prod(legs)
    if re.ndim != 2 or re.shape != (side, side):
        raise ValueError(f"matrix shape {re.shape} does not match legs {legs}")
    mat = re.astype(complex)
    mat.imag = im  # not re + 1j im, where an infinite im gives NaN with a warning
    return LeggedOperator(mat, legs)


def functional_to_json(rho: Functional) -> dict:
    return operator_to_json(LeggedOperator(rho.density, (rho.dim,)))


def functional_from_json(obj: dict) -> Functional:
    op = operator_from_json(obj)
    if len(op.legs) != 1:
        raise ValueError(f"a functional density has a single leg, got {op.legs}")
    return Functional(op.entries)


def resolve_functional(spec: Union[str, dict], n: int) -> Functional:
    """Accept the presets 'trace' / 'normalized-trace' or a density object;
    any other string raises ValueError."""
    if spec == "trace":
        return Functional.trace(n)
    if spec == "normalized-trace":
        return Functional.normalized_trace(n)
    if isinstance(spec, str):
        raise ValueError(f"unknown functional preset '{spec}' (presets: trace, normalized-trace)")
    rho = functional_from_json(spec)
    _require_dimension(rho, n)
    return rho


def _blocks_to_json(blocks, m: int, n: int, l: int) -> list[dict]:
    """The Schur-Weyl blocks of an S_l-invariant operator on legs
    [m, n, ..., n], in `level_layout(n, l)` order, as block objects
    `{"partition", "legs": [m, weyl], "data"}`, data the base64 of the
    entries as row-major `<c16`: a bundle's entry, and a solver report's
    witness (`FeasibilityReport.to_json`)."""
    out = []
    for (lam, weyl, _), block in zip(level_layout(n, l), blocks):
        entries = LeggedOperator(block, (m, weyl)).entries.astype("<c16", copy=False)
        data = base64.b64encode(entries.tobytes()).decode("ascii")
        out.append({"partition": list(lam.parts), "legs": [m, weyl], "data": data})
    return out


def _payload_from_json(obj: dict) -> LeggedOperator:
    """A block object's `data`: one ValueError for data that is not a
    string, is not base64, or does not hold 16 side^2 bytes, and
    `LeggedOperator`'s for a non-finite entry."""
    legs = _legs(obj)
    data = obj["data"]
    if not isinstance(data, str):
        raise ValueError(f"'data' must be a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"'data' is not valid base64: {exc}") from None
    side = math.prod(legs)
    if len(raw) != 16 * side * side:
        raise ValueError(
            f"'data' holds {len(raw)} bytes, expected 16 * {side}^2 = {16 * side * side} "
            f"for legs {legs}"
        )
    return LeggedOperator(np.frombuffer(raw, dtype="<c16").reshape(side, side), legs)


def sequence_to_json(seq: SymSequence) -> dict:
    """The bundle of seq, from `seq.blocks`; raises ValueError when an entry
    given densely at l >= 2 is not S_l-invariant
    (`SymSequence.asymmetric_level`), as its blocks hold only its invariant
    part."""
    l = seq.asymmetric_level
    if l is not None:
        raise ValueError(
            f"entry {l} is not S_{l}-invariant at tol {PSD_TOL}; a bundle stores only its blocks"
        )
    return {
        "m": seq.m,
        "n": seq.n,
        "L": seq.L,
        "rho": functional_to_json(seq.rho),
        "entries": [_blocks_to_json(seq.blocks(l), seq.m, seq.n, l) for l in range(seq.L + 1)],
    }


def _entry_from_json(obj, m: int, n: int, l: int) -> list[np.ndarray]:
    """The blocks of entry l, each checked; no copy basis is built.  A block
    holds its entries either as `data` or as `"re"` and `"im"` lists."""
    layout = level_layout(n, l)
    labels = [list(lam.parts) for lam, _, _ in layout]
    if not isinstance(obj, list):
        raise ValueError(
            f"entry {l} must be a list of Schur-Weyl blocks, one per partition {labels}; "
            "dense matrix entries are not read"
        )
    if len(obj) != len(layout):
        raise ValueError(f"entry {l} has {len(obj)} blocks, expected {len(layout)}: {labels}")
    blocks = []
    for i, ((_, weyl, _), label, block) in enumerate(zip(layout, labels, obj)):
        got = block.get("partition") if isinstance(block, dict) else None
        if not (isinstance(got, list) and all(_is_int(p) for p in got) and got == label):
            raise ValueError(f"block {i} of entry {l} must have partition {label}, got {got!r}")
        has_data, has_lists = "data" in block, "re" in block or "im" in block
        if has_data == has_lists:
            raise ValueError(
                f"block {label} of entry {l} must hold either 'data' or 're' and 'im', "
                f"got {'both' if has_data else 'neither'}"
            )
        op = _payload_from_json(block) if has_data else operator_from_json(block)
        want = (m, weyl)
        if op.legs != want:
            raise ValueError(
                f"block {label} of entry {l} has legs {list(op.legs)}, expected {list(want)}"
            )
        blocks.append(op.entries)
    return blocks


def sequence_from_json(obj: dict) -> SymSequence:
    if not isinstance(obj, dict):
        raise ValueError("sequence bundle must be a JSON object")
    for key in ("m", "n", "rho", "entries"):
        if key not in obj:
            raise ValueError(f"sequence bundle is missing key '{key}'")
    m, n = obj["m"], obj["n"]
    if not all(_is_int(d) and d > 0 for d in (m, n)):
        raise ValueError(f"'m' and 'n' must be positive integers, got {m!r} and {n!r}")
    rho = resolve_functional(obj["rho"], n)
    raw = obj["entries"]
    if not isinstance(raw, list):
        raise ValueError("'entries' must be a list, one item per level")
    if "L" in obj and (not _is_int(obj["L"]) or obj["L"] != len(raw) - 1):
        raise ValueError(f"'L' is {obj['L']!r} but the bundle has {len(raw)} entries")
    check_level(len(raw) - 1, "L", 0)
    blocks = [_entry_from_json(e, m, n, l) for l, e in enumerate(raw)]
    return SymSequence.from_blocks(m, n, rho, blocks)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj: dict, path: str) -> None:
    """Write obj as one line of JSON.  `json.dumps` encodes in C; `json.dump`
    would stream the same text through the pure-Python encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
