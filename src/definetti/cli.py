"""Batch command-line front end.

Commands emit a JSON report (stdout or --out) plus one human summary line.
Exit codes: 0 ran to completion, 2 input/validation error, 3 internal
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import boundary as bd
from . import hierarchy as hy
from . import serialize as io
from .linalg import Functional, LeggedOperator
from .symmetry import schur_weyl_table

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
GROUPLIKE_LEVELS = 4  # `boundary --grouplike` prefix length without --levels


def _solver_opts(args) -> hy.SolverOptions:
    """The solver flags; `boundary` leaves those not given as None."""
    given = {"tol": args.tol, "max_iterations": args.max_iter}
    return hy.SolverOptions(**{k: v for k, v in given.items() if v is not None})


def _load_rho(spec: str, n: int) -> Functional:
    """A preset of `serialize.resolve_functional` or a density file's path;
    'bundle' names a bundle's own functional, which only `boundary --bundle`
    has, and is rejected here.  The error for a spec that is neither names
    the presets and the missing file."""
    if spec == "bundle":
        raise ValueError("--rho bundle applies to boundary --bundle only")
    try:
        return io.resolve_functional(spec, n)
    except ValueError as unknown:
        try:
            density = io.load_json(spec)
        except OSError as exc:
            raise ValueError(f"{unknown}, and no density file '{spec}': {exc.strerror}") from None
    return io.resolve_functional(density, n)


def _emit(report: dict, out_path: str | None, summary: str) -> None:
    text = json.dumps(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


def _config(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg.update(extra)
    return cfg


def cmd_extend_check(args) -> int:
    state = io.operator_from_json(io.load_json(args.state))
    if len(state.legs) != 2:
        raise ValueError(f"extend-check expects a bipartite state, got legs {state.legs}")
    rho = _load_rho(args.rho, state.legs[1])
    report = hy.separability_verdict(state, rho, args.levels, _solver_opts(args))
    out = {"config": _config(args), **report.to_json()}
    levels = report.levels.values()
    # the blocks, not `r.witness`, whose first read builds the dense witness
    witnessed = sum(r.witness_blocks is not None for r in levels)
    certified = sum(r.certificate is not None for r in levels)
    _emit(
        out,
        args.out,
        f"extend-check: verdict={report.verdict}, {witnessed} of {len(levels)} levels witnessed, "
        f"{certified} of {len(levels)} levels certified",
    )
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"invalid grid '{spec}', expected start:stop:step") from exc
    if step <= 0 or stop < start or not (0 <= start <= 1 and 0 <= stop <= 1):
        raise ValueError(f"invalid grid '{spec}': need 0 <= start <= stop <= 1, step > 0")
    ratio = (stop - start) / step
    count = round(ratio)
    if abs(ratio - count) > 1e-9 * ratio:
        raise ValueError(f"invalid grid '{spec}': step does not divide stop - start")
    return np.linspace(start, stop, count + 1)


def _ppt_zero_crossing() -> float:
    tol = 1e-6  # accuracy of the returned crossing
    lo, hi = 0.0, 1.0
    f = lambda p: hy.ppt_min_eig(hy.werner_element(p))
    while hi - lo > tol / 2:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def cmd_scan_werner(args) -> int:
    grid = _parse_grid(args.grid)
    rho = _load_rho(args.rho, 2)
    opts = _solver_opts(args)
    rows = []
    for p in grid:
        state = hy.werner_element(float(p))
        report = hy.separability_verdict(state, rho, args.levels, opts)
        rows.append(
            {
                "p": float(p),
                "verdict": report.verdict,
                "per_level": {str(l): r.verdict for l, r in report.levels.items()},
                "ppt_min_eig": report.ppt_min_eig,
            }
        )
    p_star = _ppt_zero_crossing()
    out = {"config": _config(args), "rows": rows, "ppt_zero_crossing": p_star}
    flagged = sum(r["verdict"] == "entangled_evidence" for r in rows)
    _emit(out, args.out, f"scan-werner: {len(rows)} points, {flagged} entangled, p*={p_star:.6f}")
    return EXIT_OK


def cmd_boundary(args) -> int:
    if bool(args.grouplike) == bool(args.bundle):
        raise ValueError("boundary needs exactly one of --grouplike or --bundle")
    if args.bundle and args.levels is not None:
        raise ValueError("--levels applies to --grouplike only; a bundle's prefix is its entries")
    if args.grouplike and (args.tol is not None or args.max_iter is not None):
        raise ValueError("--tol and --max-iter apply to --bundle only; --grouplike runs no solver")
    if args.grouplike:
        levels = GROUPLIKE_LEVELS if args.levels is None else args.levels
        t_op = io.operator_from_json(io.load_json(args.grouplike))
        if len(t_op.legs) != 1:
            raise ValueError(f"group-like file must carry a single leg, got {t_op.legs}")
        g = bd.GroupLike(t_op.entries)
        spec = args.rho or "normalized-trace"
        rho = _load_rho(spec, g.n)
        exp = bd.exponential_test(g, levels)
        report = {
            "config": _config(args, levels=levels, rho=spec),
            "is_exponential": exp.is_exponential,
            "failing_block": list(exp.failing_block.parts) if exp.failing_block else None,
        }
        try:
            val = bd.e_rho_value(g, rho)
            report["rho_value"] = val
            report["in_e_rho"] = bool(exp.is_exponential and val <= 1 + 1e-12)
        except ValueError:
            report["rho_value"] = None
            report["in_e_rho"] = False
        seq = bd.grouplike_sequence(LeggedOperator([[1.0]], [1]), g, levels, rho)
        validation = hy.validate_k_prefix(seq)
        subharmonic = validation.ok  # what `subharmonic_check` decides
        report["subharmonic"] = subharmonic
        if args.verify_bridge:
            report["bridge_agrees"] = subharmonic == validation.ok
        _emit(report, args.out, f"boundary: exponential={exp.is_exponential} subharmonic={subharmonic}")
        return EXIT_OK
    opts = _solver_opts(args)
    seq = io.sequence_from_json(io.load_json(args.bundle))
    spec = args.rho or "bundle"
    rho = seq.rho if spec == "bundle" else _load_rho(spec, seq.n)
    validation = hy.validate_k_prefix(seq.with_rho(rho))
    subharmonic = validation.ok  # what `subharmonic_check` decides
    report = {
        "config": _config(args, tol=opts.tol, max_iter=opts.max_iterations, rho=spec),
        "subharmonic": subharmonic,
        "validation": {
            "ok": validation.ok,
            "condition": validation.condition,
            "level": validation.level,
            "detail": validation.detail,
        },
    }
    if args.verify_bridge:
        report["bridge_agrees"] = subharmonic == validation.ok
    if subharmonic and seq.L >= 1:
        # `separable_image_check` without its second prefix validation; the
        # level-1 entry is its one m n block, so no dense entry is rebuilt
        sep = hy.separability_verdict(seq.entry(1), rho, opts=opts)
        report["image_check"] = bd.ImageCheckReport(True, sep).to_json()
    _emit(report, args.out, f"boundary: subharmonic={subharmonic}")
    return EXIT_OK


def cmd_schur_table(args) -> int:
    table = schur_weyl_table(args.n, args.l)
    rows = [
        {"partition": list(lam.parts), "block_dim": dim, "multiplicity": mult}
        for lam, dim, mult in table
    ]
    out = {"config": _config(args), "blocks": rows}
    _emit(out, args.out, f"schur-table: n={args.n} l={args.l}, {len(rows)} blocks")
    return EXIT_OK


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=hy.SolverOptions.tol)
    p.add_argument("--max-iter", type=int, default=hy.SolverOptions.max_iterations)
    p.add_argument("--out", default=None)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: `parse_args`
    gives each call a fresh namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(prog="definetti")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend-check", help="run the sub-extension hierarchy on a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--rho", default="normalized-trace")
    p.add_argument("--levels", type=int, default=3)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_extend_check)

    p = sub.add_parser("scan-werner", help="scan the 2x2 Werner family")
    p.add_argument("--grid", default="0:1:0.05")
    p.add_argument("--rho", default="normalized-trace")
    p.add_argument("--levels", type=int, default=3)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_scan_werner)

    p = sub.add_parser("boundary", help="boundary report for a group-like matrix or bundle")
    p.add_argument("--grouplike", default=None)
    p.add_argument("--bundle", default=None)
    p.add_argument(
        "--rho",
        default=None,
        help="a preset, a density file, or 'bundle': the bundle's own functional "
        "(--bundle only); default 'bundle' with --bundle, 'normalized-trace' with --grouplike",
    )
    p.add_argument("--levels", type=int, help=f"--grouplike prefix (default {GROUPLIKE_LEVELS})")
    p.add_argument(
        "--verify-bridge",
        action="store_true",
        help="also report bridge_agrees; definitional: the subharmonic check is "
        "validate_k_prefix, so this compares validate_k_prefix with itself",
    )
    _add_solver_flags(p)
    p.set_defaults(func=cmd_boundary, tol=None, max_iter=None)

    p = sub.add_parser("schur-table", help="Schur-Weyl block table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schur_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
