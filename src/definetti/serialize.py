"""Shared JSON file formats: matrices, functionals, sequence bundles."""

from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from .hierarchy import SymSequence
from .linalg import Functional, LeggedOperator


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
    if not isinstance(legs, list) or not all(isinstance(d, int) and d > 0 for d in legs):
        raise ValueError("'legs' must be a list of positive integers")
    re = np.array(obj["re"], dtype=float)
    im = np.array(obj["im"], dtype=float)
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


def sequence_to_json(seq: SymSequence) -> dict:
    return {
        "m": seq.m,
        "n": seq.n,
        "L": seq.L,
        "rho": functional_to_json(seq.rho),
        "entries": [operator_to_json(x) for x in seq.entries],
    }


def sequence_from_json(obj: dict) -> SymSequence:
    for key in ("m", "n", "rho", "entries"):
        if key not in obj:
            raise ValueError(f"sequence bundle is missing key '{key}'")
    m, n = obj["m"], obj["n"]
    if not all(isinstance(d, int) and d > 0 for d in (m, n)):
        raise ValueError(f"'m' and 'n' must be positive integers, got {m!r} and {n!r}")
    rho = resolve_functional(obj["rho"], n)
    entries = [operator_from_json(e) for e in obj["entries"]]
    if "L" in obj and obj["L"] != len(entries) - 1:
        raise ValueError(f"'L' is {obj['L']!r} but the bundle has {len(entries)} entries")
    return SymSequence(m, n, rho, entries)


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
