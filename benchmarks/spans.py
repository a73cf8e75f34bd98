"""Spans around the package's public calls, with exact self-time accounting.

A span's self time is its duration minus the time covered by the spans it
caused, so the self times of nested spans never count the same interval
twice.  Wrappers are installed where the caller resolves the name (a module
global, a class attribute, or the ``np`` global a module looks ``linalg`` up
through), so code outside the package, such as the oracle, is never counted.
"""

from __future__ import annotations

import os
import time
import types
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    keys: set = field(default_factory=set)


class Tracer:
    """In-memory span recorder; read `stats` and `counters` after a pass."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._children: list[float] = []  # child time of each open span

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, key=None, on_return=None):
        """Return fn wrapped in a span; `key(args)` feeds a distinct-argument
        count and `on_return(tracer, args, result)` records counters."""
        stack = self._children

        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = stack.pop()
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = SpanStats()
                st.calls += 1
                st.self_s += duration - child
                if key is not None:
                    st.keys.add(key(args))
                if stack:
                    stack[-1] += duration
            if on_return is not None:
                on_return(self, args, result)
            return result

        spanned.__wrapped__ = fn
        return spanned


def _numpy_with_traced_linalg(tracer: Tracer) -> types.ModuleType:
    """A stand-in for the `np` global whose linalg.eigh/eigvalsh are spans."""
    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(np.linalg.__dict__)
    linalg.eigh = tracer.wrap("linalg.eigh", np.linalg.eigh)
    linalg.eigvalsh = tracer.wrap("linalg.eigvalsh", np.linalg.eigvalsh)
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.linalg = linalg
    return proxy


def _iterations(tracer: Tracer, args, report) -> None:
    tracer.count("hierarchy.dr_iterations", report.iterations)


def _file_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("serialize.bundle_bytes", os.path.getsize(args[0]))


def _projector_key(args):
    n, l, lam = args[:3]
    return (n, l, tuple(lam.parts))


def install(tracer: Tracer, pkg) -> list[tuple[object, str, object]]:
    """Patch the package's layer boundaries; returns what `uninstall` restores."""
    hy, sym, bd, io, cli, la = pkg.hierarchy, pkg.symmetry, pkg.boundary, pkg.serialize, pkg.cli, pkg.linalg
    targets = [
        # (owner, attribute, span name, key, on_return)
        (sym.Symmetrizer, "apply_matrix", "symmetry.symmetrizer", None, None),
        (sym, "isotypic_projector", "symmetry.isotypic_projector", _projector_key, None),
        (bd, "isotypic_projector", "symmetry.isotypic_projector", _projector_key, None),
        (bd, "schur_weyl_table", "symmetry.schur_weyl_table", None, None),
        (cli, "schur_weyl_table", "symmetry.schur_weyl_table", None, None),
        (hy, "contract_legs", "linalg.contract_legs", None, None),
        (bd, "contract_legs", "linalg.contract_legs", None, None),
        (hy.ExtensionProblem, "__init__", "hierarchy.problem_setup", None, None),
        (hy.ExtensionProblem, "project_affine", "hierarchy.project_affine", None, None),
        (hy.ExtensionProblem, "validate_witness", "hierarchy.validate_witness", None, None),
        (hy, "sub_extension_feasibility", "hierarchy.solve", None, _iterations),
        (hy, "separability_verdict", "hierarchy.separability_verdict", None, None),
        (hy, "validate_k_prefix", "hierarchy.validate_k_prefix", None, None),
        (bd, "validate_k_prefix", "hierarchy.validate_k_prefix", None, None),
        (bd, "exponential_test", "boundary.exponential_test", None, None),
        (bd, "block_compression", "boundary.block_compression", None, None),
        (bd, "recover_block", "boundary.recover_block", None, None),
        (io, "load_json", "serialize.load_json", None, _file_bytes),
        (io, "sequence_from_json", "serialize.sequence_from_json", None, None),
        (io, "operator_to_json", "serialize.operator_to_json", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    saved = []
    for owner, attr, name, key, on_return in targets:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, key, on_return))
    proxy = _numpy_with_traced_linalg(tracer)
    for mod in (la, sym, hy, bd):
        saved.append((mod, "np", mod.np))
        mod.np = proxy
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
