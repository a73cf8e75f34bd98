"""Tests of the benchmark's own machinery; none runs a whole workload.

    python3 -m pytest benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PKG = run.import_package()


def _density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T + 0.1 * np.eye(n)


def _extension(rng, density, l, broken=False):
    """a = sum_i p_i x_i (x) y_i and its extension sum_i p_i x_i (x) y_i^{(x)l}.

    With `broken`, the trailing legs carry z_i != y_i instead: still PSD with
    the right marginal, but not invariant under swapping n-legs 1 and 2.
    """
    m, n = 2, density.shape[0]
    a = np.zeros((m * n,) * 2, dtype=complex)
    b = np.zeros((m * n**l,) * 2, dtype=complex)
    for p in (0.6, 0.4):
        x = _density(rng, m)
        y, z = _density(rng, n), _density(rng, n)
        y, z = y / np.trace(density @ y), z / np.trace(density @ z)
        a += p * np.kron(x, y)
        tail = z if broken else y
        big = np.kron(x, y)
        for _ in range(l - 1):
            big = np.kron(big, tail)
        b += p * big
    return a, b


def test_rho_marginal_contracts_trailing_legs():
    rng = np.random.default_rng(0)
    d = _density(rng, 2)
    x, y, z = _density(rng, 2), _density(rng, 2), _density(rng, 2)
    got = oracle.rho_marginal(np.kron(np.kron(x, y), z), 2, 2, 2, d)
    assert np.allclose(got, np.kron(x, y) * np.trace(d @ z))


def test_oracle_accepts_a_true_extension():
    rng = np.random.default_rng(1)
    d = _density(rng, 2)
    a, b = _extension(rng, d, 3)
    assert oracle.check_witness(b, a, 2, 2, 3, d) is None


def test_oracle_rejects_one_broken_transposition():
    rng = np.random.default_rng(1)
    d = _density(rng, 2)
    a, b = _extension(rng, d, 3, broken=True)
    assert np.allclose(oracle.rho_marginal(b, 2, 2, 3, d), a)
    assert np.linalg.eigvalsh(b)[0] > -1e-12
    assert "swapping n-legs 1 and 2" in oracle.check_witness(b, a, 2, 2, 3, d)


def test_oracle_marginal_tolerance_is_relative():
    rng = np.random.default_rng(2)
    d = _density(rng, 2)
    a, b = _extension(rng, d, 2)
    scale = 1e-7
    proj = np.diag([1.0, 0.0])
    off = 1e-9 * np.kron(np.eye(2), np.kron(proj, proj))  # symmetric PSD, relative size ~1e-2
    assert oracle.check_witness(b * scale, a * scale, 2, 2, 2, d) is None
    assert "marginal" in oracle.check_witness(b * scale + off, a * scale, 2, 2, 2, d)


def test_oracle_rejects_planted_wrong_verdicts():
    d = np.eye(2) / 2
    a = workloads.werner_matrix(0.9)
    planted = SimpleNamespace(verdict="feasible", witness=None)
    assert "reference infeasible_at_tolerance" in oracle.check_feasibility(planted, a, 2, 2, 5, d, False)
    planted = SimpleNamespace(verdict="infeasible_at_tolerance", witness=None)
    assert oracle.check_feasibility(planted, a, 2, 2, 5, d, False) is None
    planted = SimpleNamespace(verdict="max_iterations", witness=None)
    assert "reference feasible" in oracle.check_feasibility(planted, a, 2, 2, 2, d, True)


def test_werner_reference_thresholds():
    assert oracle.werner_extendable(0.5 - 1e-3, 4) and not oracle.werner_extendable(0.5 + 1e-3, 4)
    assert oracle.werner_extendable(0.55, 3) and not oracle.werner_extendable(0.6, 3)
    assert oracle.werner_extendable(7 / 15 - 0.02, 5) and not oracle.werner_extendable(0.9, 5)


def test_schur_table_reference():
    good = [{"partition": [3], "block_dim": 4, "multiplicity": 1},
            {"partition": [2, 1], "block_dim": 2, "multiplicity": 2}]
    assert oracle.check_schur_table(good, 2, 3) is None
    bad = [dict(good[0]), dict(good[1], multiplicity=1)]
    assert "multiplicity" in oracle.check_schur_table(bad, 2, 3)
    assert [oracle.hook_dimension(p) for p in ((4,), (3, 1), (2, 2), (2, 1, 1))] == [1, 3, 2, 3]


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_span_self_times_never_double_count():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.01))

    def inner_body(depth):
        _busy(0.005)
        leaf()
        if depth:
            inner(depth - 1)

    inner = tracer.wrap("inner", inner_body)

    def outer_body():
        _busy(0.005)
        inner(2)
        with pytest.raises(ZeroDivisionError):
            tracer.wrap("raises", lambda: 1 / 0)()

    outer = tracer.wrap("outer", outer_body)
    start = time.perf_counter()
    outer()
    total = time.perf_counter() - start
    st = tracer.stats
    assert (st["outer"].calls, st["inner"].calls, st["leaf"].calls, st["raises"].calls) == (1, 3, 3, 1)
    assert all(s.self_s >= 0 for s in st.values())
    attributed = sum(s.self_s for s in st.values())
    assert attributed <= total
    assert attributed == pytest.approx(total, rel=0.05)
    assert st["leaf"].self_s == pytest.approx(0.03, rel=0.3)
    assert st["inner"].self_s == pytest.approx(0.015, rel=0.5)
    assert tracer._children == []


def test_spans_count_package_calls_but_not_the_oracle():
    tracer = spans.Tracer()
    original = PKG.hierarchy.sub_extension_feasibility
    saved = spans.install(tracer, PKG)
    try:
        rho = PKG.Functional.normalized_trace(2)
        PKG.hierarchy.sub_extension_feasibility(PKG.bell_projector() * 1e-7, rho, 2)
        rng = np.random.default_rng(3)
        a, b = _extension(rng, np.eye(2) / 2, 2)
        before = dict((k, v.calls) for k, v in tracer.stats.items())
        oracle.check_witness(b, a, 2, 2, 2, np.eye(2) / 2)
        assert {k: v.calls for k, v in tracer.stats.items()} == before
    finally:
        spans.uninstall(saved)
    assert PKG.hierarchy.sub_extension_feasibility is original
    assert PKG.linalg.np is np and PKG.hierarchy.np is np
    assert "__init__" in PKG.hierarchy.ExtensionProblem.__dict__
    assert tracer.stats["hierarchy.solve"].calls == 1
    assert tracer.stats["linalg.eigh"].calls >= 1
    assert tracer.counters["hierarchy.dr_iterations"] >= 1


FAKE_OPS = [SimpleNamespace(name="x", klass="extendable"), SimpleNamespace(name="y", klass="nonextendable"),
            SimpleNamespace(name="z", klass=None)]
FAKE_REF_TIMES = {"setup_s": 0.5, "ops": {"x": 1.0, "y": 2.0, "z": 0.5}}


def _fake_pass(seconds, ref_seconds=None):
    records = [{"op": op, "seconds": s, "broken": None, "unsound": None} for op, s in zip(FAKE_OPS, seconds)]
    if ref_seconds is not None:
        for rec, r in zip(records, ref_seconds):
            rec["ref_seconds"] = r
    return {"records": records, "wall": sum(seconds)}


def _fake_passes():
    return [_fake_pass((1.0, 2.0, 0.5), (1.0, 2.0, 0.5))]


def test_op_times_cancel_the_machine_speed_and_skip_the_warm_up():
    passes = [
        _fake_pass((9.0, 9.0, 9.0)),  # warm-up: no reference, not counted
        _fake_pass((1.5, 6.0, 0.5), (1.0, 4.0, 1.0)),  # a slow spell slows both sides
        _fake_pass((0.75, 3.0, 0.25), (0.5, 2.0, 0.5)),
        _fake_pass((3.0, 3.0, 0.25), (0.5, 2.0, 0.5)),  # a burst that hit one side only
    ]
    times = dict((op.name, t) for op, t in run.op_times(passes, FAKE_REF_TIMES["ops"]))
    assert times == pytest.approx({"x": 1.5, "y": 3.0, "z": 0.25})
    metrics = run.end_to_end(passes, FAKE_REF_TIMES, 1.2, 40.0)
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert metrics["wall_s"] == pytest.approx(4.75)
    assert metrics["extendable_s"] == pytest.approx(1.5)
    assert metrics["nonextendable_s"] == pytest.approx(3.0)
    assert run.raw_times(passes) == pytest.approx(((8.0 + 4.0 + 6.25) / 3, (6.0 + 3.0 + 3.0) / 3))


def test_reference_times_cover_every_op_of_every_workload(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        ops = build(PKG, 1, str(tmp_path))
        assert sorted(op.name for op in ops) == sorted(run.reference_times(name)["ops"]), name
        assert run.reference_times(name)["setup_s"] > 0


def test_reference_is_a_separate_package():
    ref = run.import_reference()
    assert ref.__name__ == run.REFERENCE_PKG != PKG.__name__
    assert ref.hierarchy.sub_extension_feasibility is not PKG.hierarchy.sub_extension_feasibility


def test_every_named_metric_is_emitted_with_its_unit(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = SimpleNamespace(workload="deep_extension", seed=1)

    metrics = run.end_to_end(_fake_passes(), FAKE_REF_TIMES, 1.0, 40.0)
    run.report(args, _fake_passes(), metrics, run.E2E_UNITS)
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in out["metrics"].items()}

    tracer = spans.Tracer()
    tracer.wrap("linalg.eigh", lambda: None)()
    metrics = run.per_layer(tracer.stats, tracer.counters, _fake_passes(), _fake_passes()[0])
    run.report(args, _fake_passes(), metrics, run.layer_units())
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in out["metrics"].items()}


def test_workload_inputs_depend_on_the_seed_but_not_their_cost():
    ops = {s: workloads.deep_extension(PKG, s, "") for s in (1, 2)}
    assert len(ops[1]) == 11
    assert [o.klass for o in ops[1]].count("extendable") == 6
    op = {s: ops[s][6] for s in ops}  # a separable mixture at l = 4
    assert op[1].name == "separable-1@l4"
    reports = {s: op[s].call() for s in ops}
    w1, w2 = (reports[s].witness.entries for s in ops)
    assert not np.allclose(w1, w2)
    assert reports[1].iterations == reports[2].iterations > 10


@pytest.mark.parametrize("side", ["program", "reference"])
def test_setup_only_child_builds_inputs_and_prints_no_result(side):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--setup-only", side, "--workload", "deep_extension",
         "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "deep_extension", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
