"""Benchmark of the definetti package: one seeded workload per process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.

With `--trace 0` every op, and the set-up, is timed next to the same work
done by a frozen copy of the package (`reference/`), so that the times can be
corrected for the machine's speed at that moment.  `--calibrate` prints the
reference's times for `reference/times.json`.
"""

from __future__ import annotations

import os

# Operators here have side <= 256: on a small shared machine BLAS threads add
# jitter, not speed.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
#: the frozen copy of the package that untraced runs time every op against
REFERENCE_PKG = "definetti_seed"
SUBMODULES = ("hierarchy", "symmetry", "boundary", "serialize", "cli", "linalg")

#: interpreter launches per side and run; `setup_s` compares their medians
SETUP_REPEATS = 3
#: an op faster than this is repeated in untraced runs (see time_op)
MIN_OP_S = 0.1

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "extendable_s": "s",
    "nonextendable_s": "s",
    "peak_rss_mb": "MB",
}

#: span name -> emitted metrics; `.s` is self time
LAYER_METRICS = {
    "symmetry.symmetrizer": ("calls", "s"),
    "symmetry.isotypic_projector": ("calls", "distinct", "s"),
    "symmetry.schur_weyl_table": ("calls", "s"),
    "linalg.eigh": ("calls", "s"),
    "linalg.eigvalsh": ("calls", "s"),
    "linalg.contract_legs": ("calls", "s"),
    "hierarchy.problem_setup": ("calls", "s"),
    "hierarchy.project_affine": ("calls", "s"),
    "hierarchy.solve": ("calls", "self_s"),
    "hierarchy.separability_verdict": ("calls", "s"),
    "hierarchy.validate_witness": ("calls", "s"),
    "hierarchy.validate_k_prefix": ("calls", "s"),
    "boundary.exponential_test": ("calls", "s"),
    "boundary.block_compression": ("calls", "s"),
    "boundary.recover_block": ("calls", "s"),
    "serialize.load_json": ("calls", "s"),
    "serialize.sequence_from_json": ("calls", "s"),
    "serialize.operator_to_json": ("calls", "s"),
    "cli.main": ("calls", "self_s"),
}
COUNTERS = {"hierarchy.dr_iterations": "count", "serialize.bundle_bytes": "bytes"}
TRACE_TOTALS = {"trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_frac": "ratio"}


def layer_units() -> dict[str, str]:
    units = {}
    for span, kinds in LAYER_METRICS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "count" if kind in ("calls", "distinct") else "s"
    units.update(COUNTERS)
    units.update(TRACE_TOTALS)
    return units


def import_package():
    """Import definetti from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "definetti" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}/definetti; run from a source checkout")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("definetti")
    if Path(pkg.__file__).resolve().parent != (src / "definetti").resolve():
        raise SystemExit(f"error: imported definetti from {pkg.__file__}, not from {src}")
    for name in SUBMODULES:
        importlib.import_module(f"definetti.{name}")
    return pkg


def import_reference():
    """Import the frozen copy of the package that ops are timed against."""
    sys.path.insert(0, str(REFERENCE_DIR))
    ref = importlib.import_module(REFERENCE_PKG)
    for name in SUBMODULES:
        importlib.import_module(f"{REFERENCE_PKG}.{name}")
    return ref


def reference_times(workload: str) -> dict:
    """The reference's setup time (`setup_s`) and the time of each op (`ops`),
    in seconds, when `times.json` was written."""
    return json.loads((REFERENCE_DIR / "times.json").read_text())[workload]


# -- timing ---------------------------------------------------------------------


def time_op(op, repeat_small: bool):
    """Run op.call; returns (result, seconds, error or None).

    A call faster than MIN_OP_S is repeated until MIN_OP_S has passed and the
    fastest call is taken: on a shared machine noise only ever adds time.
    """
    times = []
    while True:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if not repeat_small or sum(times) >= MIN_OP_S:
            return result, min(times), None


def run_pass(ops, repeat_small: bool, ref_ops=None, parity=0):
    """Time every op once, then judge each result; returns one record per op.

    With `ref_ops`, each op is timed next to its reference op.  The second of
    the two runs a little faster, on memory the first has just freed, so which
    goes first alternates from op to op, and `parity` flips the pattern from
    pass to pass.  Reference results are not judged.
    """
    records = []
    for i, op in enumerate(ops):
        ref_first = (i + parity) % 2 == 1
        if ref_ops is not None and ref_first:
            ref_seconds = time_reference(ref_ops[i])
        result, seconds, error = time_op(op, repeat_small)
        if ref_ops is not None and not ref_first:
            ref_seconds = time_reference(ref_ops[i])
        rec = {"op": op, "seconds": seconds, "result": result, "error": error}
        if ref_ops is not None:
            rec["ref_seconds"] = ref_seconds
        records.append(rec)
    for rec in records:
        op = rec["op"]
        rec["broken"] = rec["error"]
        rec["unsound"] = None
        if rec["error"] is None:
            rec["broken"] = op.check(rec["result"]) if op.check else None
            rec["unsound"] = op.verdict(rec["result"]) if op.verdict else None
        rec["result"] = None  # free witnesses before the next pass
    return records


def time_reference(op) -> float:
    _, seconds, error = time_op(op, repeat_small=True)
    if error is not None:
        raise RuntimeError(f"reference op {op.name} raised {error}")
    return seconds


def run_passes(ops, seconds: float, repeat_small: bool):
    """Whole passes, at least one, while the next should end within `seconds`."""
    passes, start, last = [], time.perf_counter(), 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        records = run_pass(ops, repeat_small)
        last = time.perf_counter() - begin
        passes.append({"records": records, "wall": sum(r["seconds"] for r in records)})
    return passes


def run_paired_passes(ops, make_ref_ops, seconds: float):
    """A warm-up pass, then rounds of two passes in which every op is timed
    next to its reference op: at least one round, and more while the next
    should end within `seconds`.

    The warm-up pass runs the program alone, so the peak memory read after it
    is the program's own.  The two passes of a round flip `parity`, so every
    op runs as often before its reference as after it.  Returns the passes
    (the warm-up first) and the program's peak RSS in MB.
    """
    start = time.perf_counter()
    warm = run_pass(ops, repeat_small=True)
    rss = peak_rss_mb()
    ref_ops = make_ref_ops()
    passes = [{"records": warm, "wall": sum(r["seconds"] for r in warm)}]
    last_round = 0.0
    while len(passes) == 1 or time.perf_counter() - start + last_round <= seconds:
        begin = time.perf_counter()
        for parity in (0, 1):
            records = run_pass(ops, True, ref_ops, parity)
            passes.append({"records": records, "wall": sum(r["seconds"] for r in records)})
        last_round = time.perf_counter() - begin
    return passes, rss


# -- metrics ----------------------------------------------------------------------


def op_times(passes, ref_times: dict[str, float]) -> list[tuple[object, float]]:
    """Each op with its time corrected for the machine's speed.

    In every paired pass the op's time is divided by its reference's time,
    measured right next to it: a slow spell of the machine slows both, so it
    cancels.  The median of these ratios over the passes, scaled by the
    reference's time in `times.json`, is the op's time.
    """
    paired = [p["records"] for p in passes if "ref_seconds" in p["records"][0]]
    return [(recs[0]["op"], ref_times[recs[0]["op"].name]
             * statistics.median(r["seconds"] / r["ref_seconds"] for r in recs))
            for recs in zip(*paired)]


def end_to_end(passes, ref_times, setup_ratio: float, peak_rss_mb: float) -> dict[str, float]:
    """`ref_times` is the workload's entry of `times.json`; `setup_ratio` is
    the program's setup time over the reference's, measured side by side."""
    times = op_times(passes, ref_times["ops"])
    return {
        "setup_s": ref_times["setup_s"] * setup_ratio,
        "wall_s": sum(t for _, t in times),
        "extendable_s": sum(t for op, t in times if op.klass == "extendable"),
        "nonextendable_s": sum(t for op, t in times if op.klass == "nonextendable"),
        "peak_rss_mb": peak_rss_mb,
    }


def raw_times(passes) -> tuple[float, float]:
    """Uncorrected per-pass means of the program's and the reference's time,
    over the paired passes."""
    paired = [p["records"] for p in passes if "ref_seconds" in p["records"][0]]
    return (sum(r["seconds"] for recs in paired for r in recs) / len(paired),
            sum(r["ref_seconds"] for recs in paired for r in recs) / len(paired))


def per_layer(stats, counters, traced, untraced) -> dict[str, float]:
    """Per-pass means of each layer metric; stats and counters sum all traced passes."""
    k = len(traced)
    out = {}
    attributed = 0.0
    for span, kinds in LAYER_METRICS.items():
        st = stats.get(span)
        for kind in kinds:
            if kind == "calls":
                value = st.calls if st else 0
            elif kind == "distinct":
                value = len(st.keys) if st else 0
            else:
                value = st.self_s if st else 0.0
            out[f"{span}.{kind}"] = value / k if kind != "distinct" else value
        attributed += st.self_s if st else 0.0
    for name in COUNTERS:
        out[name] = counters.get(name, 0) / k
    wall = sum(p["wall"] for p in traced) / k
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed / k
    out["trace.overhead_frac"] = statistics.median(p["wall"] for p in traced) / untraced["wall"] - 1
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- environment --------------------------------------------------------------------


def machine_info(workload: str, seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = None
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
    }


# -- main ---------------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall times of fresh interpreters that import the package and
    build the inputs: the program's and the reference's, launched in turn."""
    times = {"program": [], "reference": []}
    for _ in range(SETUP_REPEATS):
        for side in times:
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-only", side,
                 "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                check=True, stdout=subprocess.DEVNULL,
            )
            times[side].append(time.perf_counter() - start)
    return statistics.median(times["program"]), statistics.median(times["reference"])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes that `setup_s` times
    p.add_argument("--setup-only", choices=("program", "reference"), help=argparse.SUPPRESS)
    p.add_argument("--calibrate", action="store_true",
                   help="time the reference's ops for --seconds and print them for reference/times.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = import_reference() if args.setup_only == "reference" else import_package()
    build = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as workdir, \
            tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH_DIR) as ref_workdir:
        ops = build(pkg, args.seed, workdir)
        if args.setup_only:
            return 0
        if args.calibrate:
            return calibrate(args, build(import_reference(), args.seed, ref_workdir))
        if args.trace:
            passes = run_passes(ops, 0, repeat_small=False)
            tracer = spans.Tracer()
            saved = spans.install(tracer, pkg)
            try:
                traced = run_passes(ops, args.seconds - passes[0]["wall"], repeat_small=False)
            finally:
                spans.uninstall(saved)
            metrics = per_layer(tracer.stats, tracer.counters, traced, passes[0])
            passes += traced
            units = layer_units()
        else:
            passes, rss = run_paired_passes(
                ops, lambda: build(import_reference(), args.seed, ref_workdir), args.seconds)
            program_s, reference_s = raw_times(passes)
            print(f"{len(passes) - 1} paired passes, uncorrected time per pass:"
                  f" program {program_s:.4f} s, reference {reference_s:.4f} s")
            setup_s, ref_setup_s = measure_setup(args.workload, args.seed)
            print(f"uncorrected setup: program {setup_s:.4f} s, reference {ref_setup_s:.4f} s")
            metrics = end_to_end(passes, reference_times(args.workload), setup_s / ref_setup_s, rss)
            units = E2E_UNITS
    return report(args, passes, metrics, units)


def calibrate(args, ref_ops) -> int:
    """Print the reference's setup time and the fastest time of each op over
    --seconds of passes."""
    names = [op.name for op in ref_ops]
    if len(set(names)) != len(names):
        raise SystemExit(f"error: op names of {args.workload} are not unique")
    passes = run_passes(ref_ops, args.seconds, repeat_small=True)
    fastest = {op.name: min(r["seconds"] for r in recs)
               for op, recs in zip(ref_ops, zip(*(p["records"] for p in passes)))}
    setup_s = measure_setup(args.workload, args.seed)[1]
    print(json.dumps({args.workload: {"setup_s": setup_s, "ops": fastest}}, indent=1))
    return 0


def report(args, passes, metrics, units) -> int:
    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if r["broken"] or r["unsound"]]
    print(json.dumps({"machine": machine_info(args.workload, args.seed)}))
    print(f"passes {len(passes)}, ops {len(records)}, failed_frac {len(failed)}/{len(records)}"
          f" = {len(failed) / len(records):.4f}")
    seen = set()
    for r in failed:
        if r["op"].name not in seen:
            seen.add(r["op"].name)
            print(f"  failed {r['op'].name}: {r['broken'] or r['unsound']}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not any(r["broken"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
