"""End-to-end tests of the command-line front end via main(argv)."""

import json

import numpy as np
from definetti import Functional, LeggedOperator, bell_projector
from definetti.cli import EXIT_INPUT, EXIT_OK, _parse_grid, main
from definetti.serialize import dump_json, operator_from_json, operator_to_json, sequence_to_json
from definetti import boundary, hierarchy, serialize, symmetry
from definetti.boundary import GroupLike, grouplike_sequence, separable_image_check

from conftest import rand_psd, random_separable


def write_op(path, op):
    dump_json(operator_to_json(op), str(path))
    return str(path)


def test_extend_check_entangled(tmp_path, capsys):
    state = write_op(tmp_path / "bell.json", bell_projector())
    out = tmp_path / "report.json"
    rc = main(["extend-check", "--state", state, "--levels", "2", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert report["verdict"] == "entangled_evidence"
    level = report["levels"]["2"]
    assert level["verdict"] == "infeasible_at_tolerance"
    assert level["stop_reason"] == "certificate"
    assert level["certificate"]["legs"] == [2, 2]
    y = operator_from_json(level["certificate"]).entries
    assert np.isclose(np.trace(y @ bell_projector().entries).real / np.linalg.norm(y), level["certificate_margin"])
    assert level["certificate_margin"] < 0
    assert level["restarts"] == 0
    assert "0 of 1 levels witnessed, 1 of 1 levels certified" in capsys.readouterr().err
    assert np.isclose(report["ppt_min_eig"], -0.5)
    assert report["config"]["levels"] == 2


def test_extend_check_separable(tmp_path, rng, capsys):
    state = write_op(tmp_path / "sep.json", random_separable(rng))
    out = tmp_path / "report.json"
    rc = main(["extend-check", "--state", state, "--levels", "3", "--out", str(out)])
    assert rc == EXIT_OK
    assert "2 of 2 levels witnessed, 0 of 2 levels certified" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["verdict"] == "separable_evidence"
    assert "witness" in report["levels"]["3"]
    assert report["levels"]["3"]["stop_reason"] == "tol"
    assert report["levels"]["3"]["certificate"] is None
    assert report["levels"]["3"]["certificate_margin"] is None
    assert report["levels"]["3"]["restarts"] >= 0


def test_extend_check_rejects_level_below_two(tmp_path):
    state = write_op(tmp_path / "bell.json", bell_projector())
    assert main(["extend-check", "--state", state, "--levels", "1"]) == EXIT_INPUT


def test_extend_check_rejects_levels_above_the_bound(tmp_path):
    state = write_op(tmp_path / "bell.json", bell_projector())
    assert main(["extend-check", "--state", state, "--levels", "9"]) == EXIT_INPUT


def test_extend_check_missing_file(tmp_path):
    rc = main(["extend-check", "--state", str(tmp_path / "nope.json")])
    assert rc == EXIT_INPUT


def test_extend_check_wrong_legs(tmp_path):
    state = write_op(tmp_path / "one.json", LeggedOperator(np.eye(2), (2,)))
    assert main(["extend-check", "--state", state]) == EXIT_INPUT


def test_extend_check_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["extend-check", "--state", str(bad)]) == EXIT_INPUT


def test_scan_werner_grid(tmp_path):
    out = tmp_path / "scan.json"
    rc = main(
        ["scan-werner", "--grid", "0:1:0.25", "--levels", "2", "--out", str(out)]
    )
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert len(report["rows"]) == 5
    assert np.isclose(report["ppt_zero_crossing"], 1 / 3, atol=1e-5)
    by_p = {row["p"]: row for row in report["rows"]}
    assert by_p[0.0]["verdict"] == "separable_evidence"
    assert by_p[1.0]["verdict"] == "entangled_evidence"


def test_scan_werner_builds_one_geometry_per_level(tmp_path):
    # the 21-point scan at levels 2..5 makes 84 solves on four geometries
    hierarchy._geometry.cache_clear()
    assert main(["scan-werner", "--levels", "5", "--out", str(tmp_path / "scan.json")]) == EXIT_OK
    info = hierarchy._geometry.cache_info()
    assert (info.misses, info.hits) == (4, 80)


def test_scan_werner_bad_grid():
    assert main(["scan-werner", "--grid", "0:2:0.5"]) == EXIT_INPUT
    assert main(["scan-werner", "--grid", "oops"]) == EXIT_INPUT
    # a step that does not divide stop - start is an error, not a new step
    assert main(["scan-werner", "--grid", "0:0.5:0.2"]) == EXIT_INPUT
    assert main(["scan-werner", "--grid", "0:1:0.3"]) == EXIT_INPUT


def test_parse_grid_default_has_21_points():
    grid = _parse_grid("0:1:0.05")
    assert len(grid) == 21
    assert np.allclose(np.diff(grid), 0.05)


def test_boundary_rejects_levels_below_one(tmp_path):
    t = write_op(tmp_path / "t.json", LeggedOperator(np.diag([1.0, -1.0]), (2,)))
    assert main(["boundary", "--grouplike", t, "--levels", "0"]) == EXIT_INPUT


def test_boundary_grouplike(tmp_path, monkeypatch):
    t = write_op(tmp_path / "t.json", LeggedOperator(np.diag([1.0, 0.5]), (2,)))
    calls = []
    inner = hierarchy.validate_k_prefix

    def counted(seq):
        calls.append(seq)
        return inner(seq)

    # the subharmonic check and the bridge share one prefix validation
    monkeypatch.setattr(hierarchy, "validate_k_prefix", counted)
    monkeypatch.setattr(boundary, "validate_k_prefix", counted)
    out = tmp_path / "bd.json"
    rc = main(["boundary", "--grouplike", t, "--verify-bridge", "--out", str(out)])
    assert rc == EXIT_OK
    assert len(calls) == 1
    report = json.loads(out.read_text())
    assert report["is_exponential"] is True
    assert report["subharmonic"] is True
    assert report["bridge_agrees"] is True
    assert np.isclose(report["rho_value"], 0.75)
    assert report["in_e_rho"] is True


def test_boundary_grouplike_not_exponential(tmp_path):
    t = write_op(tmp_path / "t.json", LeggedOperator(np.diag([1.0, -1.0]), (2,)))
    out = tmp_path / "bd.json"
    rc = main(["boundary", "--grouplike", t, "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert report["is_exponential"] is False
    assert report["failing_block"] == [1]
    assert report["in_e_rho"] is False


def test_boundary_bundle(tmp_path, rng):
    rho = Functional.normalized_trace(2)
    g = GroupLike(np.diag([0.9, 0.7]))
    a = LeggedOperator(rand_psd(2, rng), (2,))
    seq = grouplike_sequence(a, g, 3, rho)
    path = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(path))
    out = tmp_path / "bd.json"
    rc = main(
        ["boundary", "--bundle", str(path), "--rho", "bundle", "--verify-bridge", "--out", str(out)]
    )
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    assert report["subharmonic"] is True
    assert report["validation"]["ok"] is True
    assert report["bridge_agrees"] is True
    assert report["image_check"]["consistent"] is True


def test_boundary_bundle_validates_the_prefix_once(tmp_path, rng, monkeypatch):
    # the report's validation is the subharmonic check, so the image check
    # does not validate the prefix again; the report is what the library
    # functions give
    rho = Functional.normalized_trace(2)
    a = LeggedOperator(rand_psd(2, rng), (2,))
    seq = grouplike_sequence(a, GroupLike(np.diag([0.9, 0.7])), 3, rho)
    path = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(path))
    want = separable_image_check(seq, rho).to_json()
    calls = []
    inner = hierarchy.validate_k_prefix

    def counted(seq):
        calls.append(seq)
        return inner(seq)

    monkeypatch.setattr(hierarchy, "validate_k_prefix", counted)
    monkeypatch.setattr(boundary, "validate_k_prefix", counted)
    out = tmp_path / "bd.json"
    argv = ["boundary", "--bundle", str(path), "--rho", "bundle", "--verify-bridge", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1
    report = json.loads(out.read_text())
    assert set(report) == {"config", "subharmonic", "validation", "bridge_agrees", "image_check"}
    assert report["subharmonic"] is True and report["bridge_agrees"] is True
    assert report["validation"] == {"ok": True, "condition": None, "level": None, "detail": ""}
    assert report["image_check"] == json.loads(json.dumps(want))


def test_boundary_bundle_checks_the_blocks_without_dense_entries(tmp_path, rng, monkeypatch):
    # outside the image check, which solves on the level-1 entry, reading and
    # validating a bundle rebuilds no entry at l >= 2 and symmetrizes nothing
    seq = grouplike_sequence(LeggedOperator(rand_psd(2, rng), (2,)), GroupLike(np.diag([0.9, 0.7])), 5)
    path = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(path))
    seen, in_image_check = [], []

    def record(what, l):
        if l >= 2 and not in_image_check:
            seen.append((what, l))

    for module in (symmetry, hierarchy, serialize):
        inner = getattr(module, "from_schur_weyl_blocks", None)
        if inner is not None:
            def rebuild(blocks, m, n, l, inner=inner):
                record("from_schur_weyl_blocks", l)
                return inner(blocks, m, n, l)

            monkeypatch.setattr(module, "from_schur_weyl_blocks", rebuild)
    apply_matrix = symmetry.Symmetrizer.apply_matrix

    def symmetrize(self, entries):
        record("Symmetrizer.apply_matrix", len(self.indices))
        return apply_matrix(self, entries)

    monkeypatch.setattr(symmetry.Symmetrizer, "apply_matrix", symmetrize)
    verdict = hierarchy.separability_verdict

    def image_check(a, *args, **kwargs):
        in_image_check.append(a)
        try:
            return verdict(a, *args, **kwargs)
        finally:
            in_image_check.pop()

    monkeypatch.setattr(hierarchy, "separability_verdict", image_check)
    out = tmp_path / "bd.json"
    assert main(["boundary", "--bundle", str(path), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["subharmonic"] is True and report["image_check"]["consistent"] is True
    assert seen == []


def test_an_operator_file_must_hold_json_numbers(tmp_path, capsys):
    # numpy read a JSON true as 1 and "0.5" as 0.5, so this state was Bell's
    state = operator_to_json(bell_projector())
    state["re"][0][0], state["re"][3][3] = True, "0.5"
    path = tmp_path / "state.json"
    dump_json(state, str(path))
    assert main(["extend-check", "--state", str(path), "--levels", "2"]) == EXIT_INPUT
    assert "nested lists of numbers: got bool, str" in capsys.readouterr().err


def test_a_bundle_block_must_hold_json_numbers(tmp_path, capsys):
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(np.diag([0.9, 0.7])), 2)
    for bad in (False, "0.5"):
        bundle = sequence_to_json(seq)
        bundle["entries"][2][1]["im"][0][0] = bad
        path = tmp_path / "bundle.json"
        dump_json(bundle, str(path))
        assert main(["boundary", "--bundle", str(path)]) == EXIT_INPUT
        assert "nested lists of numbers" in capsys.readouterr().err


def test_boundary_rejects_levels_with_a_bundle(tmp_path, capsys):
    # --levels sets the prefix of a --grouplike sequence; a bundle's prefix
    # is its entries, so a --levels there used to be parsed and ignored
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(np.diag([0.9, 0.7])), 2)
    path = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(path))
    assert main(["boundary", "--bundle", str(path), "--levels", "7"]) == EXIT_INPUT
    assert "--levels" in capsys.readouterr().err
    t = write_op(tmp_path / "t.json", LeggedOperator(np.diag([1.0, 0.5]), (2,)))
    out = tmp_path / "bd.json"
    assert main(["boundary", "--grouplike", t, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["levels"] == 4


def test_boundary_rejects_solver_flags_with_a_grouplike(tmp_path, capsys):
    # --grouplike runs no solver, so --tol and --max-iter used to be parsed,
    # recorded in the config and ignored; a bundle still uses them
    t = write_op(tmp_path / "t.json", LeggedOperator(np.diag([1.0, 0.5]), (2,)))
    for flags in (["--tol", "5"], ["--max-iter", "1"], ["--tol", "1e-7"]):
        assert main(["boundary", "--grouplike", t, *flags]) == EXIT_INPUT
        assert "--tol and --max-iter" in capsys.readouterr().err
    out = tmp_path / "bd.json"
    assert main(["boundary", "--grouplike", t, "--out", str(out)]) == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert (config["tol"], config["max_iter"]) == (None, None)
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(np.diag([0.9, 0.7])), 2)
    path = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(path))
    for flags, want in (([], (1e-7, 20000)), (["--tol", "1e-5", "--max-iter", "30"], (1e-5, 30))):
        assert main(["boundary", "--bundle", str(path), "--out", str(out), *flags]) == EXIT_OK
        config = json.loads(out.read_text())["config"]
        assert (config["tol"], config["max_iter"]) == want


def test_boundary_bundle_rejects_a_malformed_bundle(tmp_path, capsys):
    # a top-level number and a non-list "entries" used to end in a TypeError
    # traceback and exit 1
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(np.diag([0.9, 0.7])), 2)
    bundle = sequence_to_json(seq)
    dense = [operator_to_json(x) for x in seq.entries]
    for name, obj, message in (
        ("m", dict(bundle, m=2.5), "'m' and 'n' must be positive integers"),
        ("L", dict(bundle, L=5), "'L' is 5"),
        ("number", 5, "JSON object"),
        ("entries", dict(bundle, entries=5), "'entries' must be a list"),
        ("dense", dict(bundle, entries=dense), "Schur-Weyl blocks"),
    ):
        path = tmp_path / f"bundle-{name}.json"
        dump_json(obj, str(path))
        assert main(["boundary", "--bundle", str(path)]) == EXIT_INPUT
        assert message in capsys.readouterr().err


def test_boundary_bundle_reports_a_non_psd_block(tmp_path):
    # the rebuilt entry carries the block, so validation names its level
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(np.diag([0.9, 0.7])), 3)
    bundle = sequence_to_json(seq)
    block = bundle["entries"][2][1]
    assert block["partition"] == [1, 1]
    block["re"] = (-np.eye(2)).tolist()
    path = tmp_path / "bundle.json"
    dump_json(bundle, str(path))
    out = tmp_path / "bd.json"
    assert main(["boundary", "--bundle", str(path), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["subharmonic"] is False
    assert report["validation"]["condition"] == "psd" and report["validation"]["level"] == 2


def test_non_finite_numbers_are_input_errors(tmp_path, capsys):
    # a NaN in a bundle used to give "entry 2 is not PSD" with exit 0, and an
    # Infinity in a state a RuntimeWarning before "requires a Hermitian operator"
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(np.diag([0.9, 0.7])), 2)
    bundle = sequence_to_json(seq)
    bundle["entries"][2][0]["re"][0][0] = float("nan")
    path = tmp_path / "bundle.json"
    dump_json(bundle, str(path))
    assert "NaN" in path.read_text()
    assert main(["boundary", "--bundle", str(path)]) == EXIT_INPUT
    assert "finite" in capsys.readouterr().err
    for bad in (float("nan"), float("inf")):
        state = operator_to_json(bell_projector())
        state["re"][0][0] = bad
        path = tmp_path / "state.json"
        dump_json(state, str(path))
        # pytest turns warnings into errors (pyproject.toml)
        assert main(["extend-check", "--state", str(path), "--levels", "2"]) == EXIT_INPUT
        assert "finite" in capsys.readouterr().err


def test_boundary_needs_exactly_one_input(tmp_path):
    t = write_op(tmp_path / "t.json", LeggedOperator(np.eye(2), (2,)))
    assert main(["boundary"]) == EXIT_INPUT
    assert main(["boundary", "--grouplike", t, "--bundle", t]) == EXIT_INPUT


def test_schur_table(tmp_path):
    out = tmp_path / "table.json"
    rc = main(["schur-table", "--n", "2", "--l", "3", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text())
    blocks = {tuple(b["partition"]): (b["block_dim"], b["multiplicity"]) for b in report["blocks"]}
    assert blocks == {(3,): (4, 1), (2, 1): (2, 2)}


def test_schur_table_beyond_bound():
    assert main(["schur-table", "--n", "2", "--l", "9"]) == EXIT_INPUT
    assert main(["schur-table", "--n", "0", "--l", "3"]) == EXIT_INPUT
    assert main(["schur-table", "--n", "2", "--l", "-1"]) == EXIT_INPUT


def test_solver_flags_are_validated(tmp_path):
    state = write_op(tmp_path / "bell.json", bell_projector())
    for flags in (["--tol", "nan"], ["--tol", "-1"], ["--tol", "0"], ["--tol", "inf"], ["--max-iter", "0"]):
        assert main(["extend-check", "--state", state, "--levels", "2", *flags]) == EXIT_INPUT


def test_stdout_emission(tmp_path, capsys):
    state = write_op(tmp_path / "bell.json", bell_projector())
    rc = main(["extend-check", "--state", state, "--levels", "2"])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["verdict"] == "entangled_evidence"
    assert "extend-check" in captured.err
