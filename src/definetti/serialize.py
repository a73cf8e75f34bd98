"""Shared JSON file formats: matrices, functionals, sequence bundles.

A matrix is `{"legs", "re", "im"}` with finite entries.  A sequence bundle
is `{"m", "n", "L", "rho", "entries"}`, and entry l, an S_l-invariant
operator on legs [m, n, ..., n], is stored as its Schur-Weyl blocks: a list
of matrix objects `{"partition", "legs": [m, weyl], "re", "im"}`, one per
partition lambda of l with at most n rows in `partitions_of(l, max_parts=n)`
order, holding B_lambda = (I_m (x) W)^T x_l (I_m (x) W), W the copy basis of
lambda (`symmetry.schur_weyl_block`).  At l <= 1 the one block is x_l
itself.  The reader rebuilds each dense entry from its blocks
(`symmetry.from_schur_weyl_blocks`).
"""

from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from .hierarchy import SymSequence, _is_invariant
from .linalg import PSD_TOL, Functional, LeggedOperator
from .symmetry import (
    MAX_LEVEL,
    Symmetrizer,
    from_schur_weyl_blocks,
    partitions_of,
    schur_weyl_block,
)


def _is_int(x) -> bool:
    """A JSON integer; JSON's true and false are Python bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def operator_to_json(x: LeggedOperator) -> dict:
    return {
        "legs": list(x.legs),
        "re": x.entries.real.tolist(),
        "im": x.entries.imag.tolist(),
    }


def operator_from_json(obj: dict) -> LeggedOperator:
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    for key in ("legs", "re", "im"):
        if key not in obj:
            raise ValueError(f"matrix object is missing key '{key}'")
    legs = obj["legs"]
    if not isinstance(legs, list) or not all(_is_int(d) and d > 0 for d in legs):
        raise ValueError("'legs' must be a list of positive integers")
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'re' and 'im' must be nested lists of numbers: {exc}") from None
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite; NaN and Infinity are rejected")
    if re.shape != im.shape:
        raise ValueError(f"'re' shape {re.shape} does not match 'im' shape {im.shape}")
    side = math.prod(legs)
    if re.ndim != 2 or re.shape != (side, side):
        raise ValueError(f"matrix shape {re.shape} does not match legs {legs}")
    return LeggedOperator(re + 1j * im, legs)


def functional_to_json(rho: Functional) -> dict:
    return operator_to_json(LeggedOperator(rho.density, (rho.dim,)))


def functional_from_json(obj: dict) -> Functional:
    op = operator_from_json(obj)
    if len(op.legs) != 1:
        raise ValueError(f"a functional density has a single leg, got {op.legs}")
    return Functional(op.entries)


def resolve_functional(spec: Union[str, dict], n: int) -> Functional:
    """Accept the presets 'trace' / 'normalized-trace' or a density object."""
    if spec == "trace":
        return Functional.trace(n)
    if spec == "normalized-trace":
        return Functional.normalized_trace(n)
    if isinstance(spec, str):
        raise ValueError(f"unknown functional preset '{spec}'")
    rho = functional_from_json(spec)
    if rho.dim != n:
        raise ValueError(f"functional dimension {rho.dim} does not match n={n}")
    return rho


def _blocks_to_json(seq: SymSequence, l: int) -> list[dict]:
    x = seq.entries[l]
    if l >= 2 and not _is_invariant(Symmetrizer(x.legs, range(1, l + 1)), x.entries, PSD_TOL):
        raise ValueError(
            f"entry {l} is not S_{l}-invariant at tol {PSD_TOL}; a bundle stores only its blocks"
        )
    out = []
    for lam in partitions_of(l, max_parts=seq.n):
        block = schur_weyl_block(x.entries, seq.m, seq.n, lam)
        op = LeggedOperator(block, (seq.m, lam.weyl_dimension(seq.n)))
        out.append({"partition": list(lam.parts), **operator_to_json(op)})
    return out


def sequence_to_json(seq: SymSequence) -> dict:
    """The bundle of seq; raises ValueError when an entry at l >= 2 is not
    S_l-invariant (`hierarchy._is_invariant` at PSD_TOL), as its blocks
    would hold only its invariant part."""
    return {
        "m": seq.m,
        "n": seq.n,
        "L": seq.L,
        "rho": functional_to_json(seq.rho),
        "entries": [_blocks_to_json(seq, l) for l in range(seq.L + 1)],
    }


def _entry_from_json(obj, m: int, n: int, l: int) -> LeggedOperator:
    """Entry l from its blocks; every block is checked before any copy basis
    is built."""
    partitions = list(partitions_of(l, max_parts=n))
    labels = [list(lam.parts) for lam in partitions]
    if not isinstance(obj, list):
        raise ValueError(
            f"entry {l} must be a list of Schur-Weyl blocks, one per partition {labels}; "
            "dense matrix entries are not read"
        )
    if len(obj) != len(partitions):
        raise ValueError(f"entry {l} has {len(obj)} blocks, expected {len(partitions)}: {labels}")
    blocks = []
    for i, (lam, label, block) in enumerate(zip(partitions, labels, obj)):
        got = block.get("partition") if isinstance(block, dict) else None
        if not (isinstance(got, list) and all(_is_int(p) for p in got) and got == label):
            raise ValueError(f"block {i} of entry {l} must have partition {label}, got {got!r}")
        op = operator_from_json(block)
        want = (m, lam.weyl_dimension(n))
        if op.legs != want:
            raise ValueError(
                f"block {label} of entry {l} has legs {list(op.legs)}, expected {list(want)}"
            )
        blocks.append(op.entries)
    return LeggedOperator(from_schur_weyl_blocks(blocks, m, n, l), (m,) + (n,) * l)


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
    if len(raw) - 1 > MAX_LEVEL:
        raise ValueError(f"L={len(raw) - 1} exceeds the level bound {MAX_LEVEL}")
    return SymSequence(m, n, rho, [_entry_from_json(e, m, n, l) for l, e in enumerate(raw)])


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
