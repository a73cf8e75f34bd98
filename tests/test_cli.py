"""End-to-end tests of the command-line front end via main(argv)."""

import json

import numpy as np
import pytest
from definetti import Functional, LeggedOperator, bell_projector, werner_element
from definetti.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, MAX_GRID_POINTS, _parse_grid, main
from definetti.serialize import dump_json, operator_from_json, operator_to_json, sequence_to_json
from definetti import boundary, cli, hierarchy, serialize, symmetry
from definetti.boundary import GroupLike, grouplike_sequence, separable_image_check

from conftest import (
    block_entries,
    dense_t_upper,
    forbid_enumeration,
    list_encoded,
    payload,
    rand_psd,
    random_separable,
)


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
    # certified by the first check: the certificate bounds t* from above,
    # and no primal estimate bounds it from below
    assert "restarts" not in level
    assert level["t_lower"] is None and level["t_upper"] < 0
    want = dense_t_upper(y, bell_projector(), Functional.normalized_trace(2), 2)  # the default --rho
    assert level["t_upper"] == pytest.approx(want, rel=1e-10)
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
    lower, upper = report["levels"]["3"]["t_lower"], report["levels"]["3"]["t_upper"]
    assert upper is None or upper >= 0
    assert lower is None or upper is None or lower <= upper


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
    assert report["ppt_zero_crossing"] == 1 / 3
    by_p = {row["p"]: row for row in report["rows"]}
    assert by_p[0.0]["verdict"] == "separable_evidence"
    assert by_p[1.0]["verdict"] == "entangled_evidence"


def test_the_ppt_crossing_is_the_root_of_the_closed_form():
    # scan-werner reports 1/3 without a search: the least eigenvalue of the
    # Werner partial transpose is (1 - 3p) / 4 on all of [0, 1]
    for p in np.linspace(0, 1, 21):
        assert abs(hierarchy.ppt_min_eig(werner_element(p)) - (1 - 3 * p) / 4) <= 1e-15


def test_rho_bundle_is_rejected_without_a_bundle(tmp_path, capsys):
    # 'bundle' is not read as a density file's path: one input error
    state = write_op(tmp_path / "w.json", werner_element(0.3))
    for argv in (["extend-check", "--state", state], ["scan-werner", "--grid", "0:0.1:0.1"]):
        assert main([*argv, "--rho", "bundle"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--rho bundle applies to boundary --bundle only" in err and "Errno" not in err


def test_rho_that_is_neither_a_preset_nor_a_file_names_both(tmp_path, capsys):
    # a misspelt preset is not reported as a bare missing file
    state = write_op(tmp_path / "w.json", werner_element(0.3))
    assert main(["extend-check", "--state", state, "--rho", "normalised-trace"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "unknown functional preset 'normalised-trace' (presets: trace, normalized-trace)" in err
    assert "no density file 'normalised-trace'" in err and "Errno" not in err


def test_extend_check_reads_a_density_file(tmp_path, capsys):
    # --rho names a density file: the verdicts are the library's under it
    state = write_op(tmp_path / "w.json", werner_element(0.3))
    rho = Functional(np.diag([0.3, 0.7]))
    density = write_op(tmp_path / "d.json", LeggedOperator(rho.density, (2,)))
    out = tmp_path / "report.json"
    assert main(["extend-check", "--state", state, "--rho", density, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    want = hierarchy.separability_verdict(werner_element(0.3), rho, 3)
    assert report["verdict"] == want.verdict == "separable_evidence"
    assert {l: r["verdict"] for l, r in report["levels"].items()} == {
        str(l): r.verdict for l, r in want.levels.items()
    }
    # a density on M_3 against a 2 (x) 2 state is an input error
    density = write_op(tmp_path / "d3.json", LeggedOperator(np.diag([0.3, 0.3, 0.4]), (3,)))
    capsys.readouterr()
    assert main(["extend-check", "--state", state, "--rho", density]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: functional dimension 3 does not match n=2\n"


def test_scan_werner_builds_one_geometry_per_level(tmp_path):
    # the 21-point scan at levels 2..5 makes 51 solves on four geometries:
    # the top level of each point, and the next level down after one that
    # is not feasible (p = 0..0.45 one, 0.5 two, 0.55 three, 0.6..1 four);
    # the levels below a feasible one are derived from its witness
    hierarchy._geometry.cache_clear()
    assert main(["scan-werner", "--levels", "5", "--out", str(tmp_path / "scan.json")]) == EXIT_OK
    info = hierarchy._geometry.cache_info()
    assert (info.misses, info.hits) == (4, 47)


def test_scan_werner_bad_grid(capsys):
    assert main(["scan-werner", "--grid", "0:2:0.5"]) == EXIT_INPUT
    assert main(["scan-werner", "--grid", "oops"]) == EXIT_INPUT
    # a step that does not divide stop - start is an error, not a new step
    assert main(["scan-werner", "--grid", "0:0.5:0.2"]) == EXIT_INPUT
    assert main(["scan-werner", "--grid", "0:1:0.3"]) == EXIT_INPUT
    # a non-finite step gets the grid message too
    capsys.readouterr()
    for grid in ("0:1:inf", "0:1:nan"):
        assert main(["scan-werner", "--grid", grid]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: invalid grid '{grid}'")


def test_scan_werner_caps_the_grid_point_count(capsys):
    # 20 001 points, past the cap: rejected with the grid message
    # before any point is made; 10 001 points parse
    assert main(["scan-werner", "--grid", "0:1:0.00005"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: invalid grid '0:1:0.00005'")
    assert len(_parse_grid("0:1:0.0001")) == MAX_GRID_POINTS == 10_001


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


def test_boundary_grouplike_with_a_complex_rho_value(tmp_path):
    # rho(t) = (0.9 + 0.3i + 0.5) / 2 is not real: t is no exponential
    # candidate, and the report says so instead of failing
    t = write_op(tmp_path / "t.json", LeggedOperator(np.diag([0.9 + 0.3j, 0.5]), (2,)))
    out = tmp_path / "bd.json"
    assert main(["boundary", "--grouplike", t, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["rho_value"] is None
    assert report["in_e_rho"] is False
    assert report["is_exponential"] is False and report["failing_block"] == [1]


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


def test_boundary_bundle_defaults_to_the_bundles_functional(tmp_path):
    # rho(t) is 0.1 * 2.0 + 0.9 * 0.1 = 0.29 under the bundle's functional
    # but 1.05 under the normalized trace: without --rho, the bundle's own
    # functional decides, as in subharmonic_check(seq, seq.rho); a
    # group-like matrix has no bundle to read one from
    rho = Functional(np.diag([0.1, 0.9]))
    t = np.diag([2.0, 0.1])
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(t), 3, rho)
    path = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(path))
    out = tmp_path / "bd.json"

    def report(*argv):
        assert main(["boundary", *argv, "--out", str(out)]) == EXIT_OK
        return json.loads(out.read_text())

    assert boundary.subharmonic_check(seq, seq.rho) is True
    default = report("--bundle", str(path))
    assert default["subharmonic"] is True and default["config"]["rho"] == "bundle"
    assert report("--bundle", str(path), "--rho", "bundle")["subharmonic"] is True
    traced = report("--bundle", str(path), "--rho", "normalized-trace")
    assert traced["subharmonic"] is False and traced["validation"]["condition"] == "sub_martingale"
    t_path = write_op(tmp_path / "t.json", LeggedOperator(t, (2,)))
    assert report("--grouplike", t_path)["config"]["rho"] == "normalized-trace"
    assert main(["boundary", "--grouplike", t_path, "--rho", "bundle"]) == EXIT_INPUT


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


def _record_dense_rebuilds(monkeypatch, seen):
    """Append (what, l) to `seen` for every `from_schur_weyl_blocks` and
    `Symmetrizer.apply_matrix` call at l >= 2, wherever it is looked up."""
    for module in (symmetry, hierarchy, serialize):
        inner = getattr(module, "from_schur_weyl_blocks", None)
        if inner is not None:
            def rebuild(blocks, m, n, l, inner=inner):
                if l >= 2:
                    seen.append(("from_schur_weyl_blocks", l))
                return inner(blocks, m, n, l)

            monkeypatch.setattr(module, "from_schur_weyl_blocks", rebuild)
    apply_matrix = symmetry.Symmetrizer.apply_matrix

    def symmetrize(self, entries):
        if len(self.indices) >= 2:
            seen.append(("Symmetrizer.apply_matrix", len(self.indices)))
        return apply_matrix(self, entries)

    monkeypatch.setattr(symmetry.Symmetrizer, "apply_matrix", symmetrize)


def test_boundary_bundle_forms_no_dense_object_image_check_included(tmp_path, rng, monkeypatch):
    # the image check's solves report their witnesses as blocks, so the whole
    # op, reading, validating and the image check, rebuilds no operator at
    # l >= 2 and symmetrizes nothing
    seq = grouplike_sequence(LeggedOperator(rand_psd(2, rng), (2,)), GroupLike(np.diag([0.9, 0.7])), 5)
    path = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(path))
    seen = []
    _record_dense_rebuilds(monkeypatch, seen)
    out = tmp_path / "bd.json"
    assert main(["boundary", "--bundle", str(path), "--out", str(out)]) == EXIT_OK
    assert seen == []
    levels = json.loads(out.read_text())["image_check"]["separability"]["levels"]
    assert {l: r["verdict"] for l, r in levels.items()} == {"2": "feasible", "3": "feasible"}
    for l, r in levels.items():
        assert [b["partition"] for b in r["witness"]] == [
            list(lam.parts) for lam in symmetry.partitions_of(int(l), max_parts=2)
        ]


def test_a_warm_boundary_bundle_call_enumerates_no_partition(tmp_path, rng, monkeypatch):
    # reading, checking and writing blocks all follow the cached
    # `symmetry.level_layout`, so a second call enumerates nothing
    seq = grouplike_sequence(LeggedOperator(rand_psd(2, rng), (2,)), GroupLike(np.diag([0.9, 0.7])), 5)
    path = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(path))
    out = tmp_path / "bd.json"
    argv = ["boundary", "--bundle", str(path), "--verify-bridge", "--out", str(out)]
    assert main(argv) == EXIT_OK
    want = out.read_text()
    forbid_enumeration(monkeypatch)
    assert main(argv) == EXIT_OK
    assert out.read_text() == want
    assert "image_check" in json.loads(want)


def test_extend_check_writes_the_witnesses_as_bundle_blocks(tmp_path, capsys):
    # Werner 0.3 is extendable at every level to 8; its report holds each
    # witness as the blocks of a bundle entry (the dense witnesses made it
    # 18.4 MB), which the bundle reader accepts as they are
    state = write_op(tmp_path / "w.json", werner_element(0.3))
    out = tmp_path / "report.json"
    assert main(["extend-check", "--state", state, "--levels", "8", "--out", str(out)]) == EXIT_OK
    assert "7 of 7 levels witnessed" in capsys.readouterr().err
    assert out.stat().st_size < 1_000_000
    report = json.loads(out.read_text())
    assert report["verdict"] == "separable_evidence"
    want = hierarchy.separability_verdict(werner_element(0.3), Functional.normalized_trace(2), 8)
    for l in range(2, 9):
        blocks = serialize._entry_from_json(report["levels"][str(l)]["witness"], 2, 2, l)
        for got, block in zip(blocks, want.levels[l].witness_blocks, strict=True):
            assert np.array_equal(got, block)


def test_consecutive_calls_share_one_parser_and_leak_no_defaults(tmp_path, rng, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    t = write_op(tmp_path / "t.json", LeggedOperator(np.diag([1.0, 0.5]), (2,)))
    seq = grouplike_sequence(LeggedOperator(rand_psd(2, rng), (2,)), GroupLike(np.diag([0.9, 0.7])), 3)
    bundle = tmp_path / "bundle.json"
    dump_json(sequence_to_json(seq), str(bundle))
    state = write_op(tmp_path / "bell.json", bell_projector())
    out = tmp_path / "out.json"

    def config(argv):
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        return json.loads(out.read_text())["config"]

    defaults = hierarchy.SolverOptions()
    assert config(["extend-check", "--state", state, "--levels", "2", "--tol", "1e-5"])["tol"] == 1e-5
    grouplike = config(["boundary", "--grouplike", t, "--levels", "2"])
    assert (grouplike["tol"], grouplike["max_iter"], grouplike["levels"]) == (None, None, 2)
    bundled = config(["boundary", "--bundle", str(bundle)])
    assert (bundled["tol"], bundled["max_iter"]) == (defaults.tol, defaults.max_iterations)
    assert bundled["levels"] is None and bundled["grouplike"] is None
    checked = config(["extend-check", "--state", state, "--levels", "2"])
    assert checked["tol"] == defaults.tol
    assert set(checked) == {"command", "state", "rho", "levels", "tol", "max_iter", "out"}
    assert config(["boundary", "--grouplike", t])["levels"] == cli.GROUPLIKE_LEVELS
    # a usage error still exits 2 through argparse, and the next call parses
    for argv in (["extend-check"], ["no-such-command"], ["boundary", "--levels", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
    assert main(["boundary", "--grouplike", t, "--tol", "1e-5"]) == EXIT_INPUT

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("planted")

    monkeypatch.setattr(hierarchy, "separability_verdict", fail)
    assert main(["extend-check", "--state", state, "--levels", "2"]) == EXIT_NUMERICAL
    monkeypatch.undo()
    assert config(["extend-check", "--state", state, "--levels", "2"])["levels"] == 2


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
    # the lists of a bundle written before the payload
    for bad in (False, "0.5"):
        bundle = list_encoded(sequence_to_json(seq))
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
    for flags, want in (([], (1e-7, 200)), (["--tol", "1e-5", "--max-iter", "30"], (1e-5, 30))):
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


def test_boundary_bundle_rejects_a_malformed_payload(tmp_path, capsys):
    # each fault of a block's "data" is an input error with its one message
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(np.diag([0.9, 0.7])), 3)
    good = sequence_to_json(seq)
    block = good["entries"][2][1]
    x = block_entries(block)
    for name, bad, message in (
        ("not-a-string", dict(block, data=None), "'data' must be a base64 string, got NoneType"),
        ("invalid", dict(block, data="!" + block["data"][1:]), "'data' is not valid base64"),
        ("short", dict(block, data=payload(x[:1])), "'data' holds 32 bytes, expected 16 * 2^2 = 64"),
        ("both", dict(block, im=x.imag.tolist()), "must hold either 'data' or 're' and 'im', got both"),
        ("neither", {"partition": [1, 1], "legs": [2, 1]}, "got neither"),
    ):
        bundle = json.loads(json.dumps(good))
        bundle["entries"][2][1] = bad
        path = tmp_path / f"bundle-{name}.json"
        dump_json(bundle, str(path))
        assert main(["boundary", "--bundle", str(path)]) == EXIT_INPUT
        assert message in capsys.readouterr().err


def test_boundary_bundle_reports_a_non_psd_block(tmp_path):
    # the rebuilt entry carries the block, so validation names its level
    # (-I written as lists, as before the payload, and into the payload)
    seq = grouplike_sequence(LeggedOperator(np.eye(2), (2,)), GroupLike(np.diag([0.9, 0.7])), 3)
    lists = list_encoded(sequence_to_json(seq))
    lists["entries"][2][1]["re"] = (-np.eye(2)).tolist()
    lists["entries"][2][1]["im"] = np.zeros((2, 2)).tolist()
    packed = sequence_to_json(seq)
    packed["entries"][2][1]["data"] = payload(-np.eye(2))
    for bundle in (lists, packed):
        block = bundle["entries"][2][1]
        assert block["partition"] == [1, 1]
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
    bundle = list_encoded(sequence_to_json(seq))
    bundle["entries"][2][0]["re"][0][0] = float("nan")
    path = tmp_path / "bundle.json"
    dump_json(bundle, str(path))
    assert "NaN" in path.read_text()
    assert main(["boundary", "--bundle", str(path)]) == EXIT_INPUT
    assert "finite" in capsys.readouterr().err
    # the same entries written into the payload
    for bad in (float("nan"), float("inf")):
        bundle = sequence_to_json(seq)
        x = block_entries(bundle["entries"][2][0]).copy()
        x[0, 0] = bad
        bundle["entries"][2][0]["data"] = payload(x)
        dump_json(bundle, str(path))
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
