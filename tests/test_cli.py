import json
import math
import os
import subprocess
import sys

import pytest

from shadowgeo import cli
from shadowgeo.cli import CliError, dispatch, main
from shadowgeo.sceneio import SceneFormatError, dump_scene, load_scene_text
from shadowgeo.constructions import build_lemma, random_equal_balls
from shadowgeo.geometry import GeometryError, unit


@pytest.fixture()
def lemma_file(tmp_path):
    path = tmp_path / "lemma.json"
    path.write_text(dump_scene(build_lemma(1.0).scene))
    return str(path)


@pytest.fixture()
def octa_file(tmp_path):
    axes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    balls = [
        {"center": [3.0 * a for a in axis], "radius": 2.0, "topology": "closed"}
        for axis in axes
    ]
    doc = {"dim": 3, "label": "octa6", "balls": balls}
    path = tmp_path / "octa.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "shadowgeo", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_shadow_check_shadowed_point(lemma_file):
    res = dispatch(["shadow", "check", "--scene", lemma_file,
                    "--point", "0.5,0.28867513459481287"])
    assert res.exit_code == 0
    assert res.payload["verdict"] == "shadowed"
    assert res.payload["shadowed"] is True
    assert res.payload["status"] == "ok"


def test_shadow_check_escaping_point(lemma_file):
    res = dispatch(["shadow", "check", "--scene", lemma_file, "--point", "9,9"])
    assert res.exit_code == 0
    assert res.payload["verdict"] == "not_shadowed"
    assert res.payload["margin"] > 0
    assert len(res.payload["witness_direction"]) == 2


def test_shadow_tangent_subcommand(tmp_path):
    cube = dispatch(["scene", "gen", "cube14"]).payload
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(cube))
    w = 1 / math.sqrt(2)
    res = dispatch(["shadow", "tangent", "--scene", str(path), "--point", f"{w},{w},0"])
    assert res.exit_code == 0
    assert res.payload["verdict"] == "not_shadowed"
    assert res.payload["gap"] == pytest.approx(0.07092131293722148, abs=1e-9)


def test_shadow_tangent_prints_the_normalised_point(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(dispatch(["scene", "gen", "cube14"]).payload))
    for point, verdict in (([0.18, 0.694, 1.867], "shadowed"),
                           ([1.5, 1.5, 0.0], "not_shadowed")):
        res = dispatch(["shadow", "tangent", "--scene", str(path),
                        "--point", ",".join(map(repr, point))])
        assert res.payload["verdict"] == verdict
        assert res.payload["point"] == unit(point).tolist()


def test_shadow_tangent_in_r2_and_r4(tmp_path):
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"dim": 2, "balls": [{"center": [1.0, 3.0], "radius": 1.0}]}))
    res = dispatch(["shadow", "tangent", "--scene", str(plane), "--point", "2,0"])
    assert res.exit_code == 0
    assert res.payload["point"] == [1.0, 0.0]
    assert res.payload["verdict"] == "shadowed"
    assert res.payload["method"] == "tangent"
    four = tmp_path / "four.json"
    four.write_text(json.dumps({"dim": 4, "balls": [
        {"center": [3.0, 0.0, 0.0, 1.0], "radius": 1.0},
        {"center": [0.0, 3.0, 0.0, 1.0], "radius": 1.0}]}))
    res = dispatch(["shadow", "tangent", "--scene", str(four), "--point", "0,0,0,1"])
    assert res.exit_code == 0
    assert res.payload["verdict"] == "not_shadowed"
    assert res.payload["method"] == "polar-hull"
    assert abs(res.payload["witness_direction"][3]) < 1e-12
    assert res.payload["margin"] > 0


def test_shadow_tangent_keys_match_shadow_check(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(dispatch(["scene", "gen", "cube14"]).payload))
    check = dispatch(["shadow", "check", "--scene", str(path), "--point", "0,0,0"])
    tangent = dispatch(["shadow", "tangent", "--scene", str(path), "--point", "0.3,0.2,1"])
    assert list(tangent.payload) == list(check.payload)
    assert tangent.payload["command"] == "shadow tangent"


def test_shadow_tangent_exits_2_when_indeterminate(monkeypatch, capsys, tmp_path):
    from shadowgeo.shadow import INDETERMINATE, ShadowVerdict

    path = tmp_path / "cube.json"
    path.write_text(json.dumps(dispatch(["scene", "gen", "cube14"]).payload))
    monkeypatch.setattr(cli, "tangent_shadow",
                        lambda *args: ShadowVerdict(INDETERMINATE, method="polar-hull"))
    code = main(["shadow", "tangent", "--scene", str(path), "--point", "0.3,0.2,1"])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "indeterminate"
    assert out["verdict"] == "indeterminate"
    assert out["shadowed"] is None


def test_plane_find_exact_and_heuristic(octa_file):
    found = dispatch(["plane", "find", "--scene", octa_file, "--point", "0,0,0", "--m", "1"])
    assert found.exit_code == 0
    assert found.payload["found"] is True
    assert found.payload["exact"] is True
    assert min(found.payload["clearances"]) > 0
    blocked = dispatch(["plane", "find", "--scene", octa_file, "--point", "0,0,0", "--m", "2"])
    assert blocked.exit_code == 2
    assert blocked.payload["found"] is False
    assert blocked.payload["status"] == "indeterminate"


def test_plane_find_closed_form_keeps_the_point_clearances(capsys, tmp_path):
    # two offsets in R^4 leave a free 2-plane, so no ascent runs and the seed is inert
    doc = {"dim": 4, "balls": [{"center": [3.0, 0.0, 0.0, 0.0], "radius": 1.0},
                               {"center": [0.0, 3.0, 1.0, 0.0], "radius": 1.5}]}
    path = tmp_path / "four.json"
    path.write_text(json.dumps(doc))
    outs = []
    for seed in ("0", "5"):
        code = main(["plane", "find", "--scene", str(path), "--point", "0,0,0,0", "--m", "2",
                     "--seed", seed])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["found"] is True
    point = [math.dist(b["center"], [0.0] * 4) - b["radius"] for b in doc["balls"]]
    assert payload["clearances"] == pytest.approx(point, abs=1e-12)


def test_shadow_check_on_a_ball_centred_at_the_point(tmp_path):
    doc = {"dim": 3, "balls": [{"center": [0.0, 0.0, 0.0], "radius": 1e-10, "topology": "open"},
                               {"center": [3.0, 0.0, 0.0], "radius": 1.0}]}
    path = tmp_path / "centred.json"
    path.write_text(json.dumps(doc))
    res = run_cli("shadow", "check", "--scene", str(path), "--point", "0,0,0")
    assert (res.returncode, res.stderr) == (0, "")
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "shadowed"
    assert payload["method"] == "boundary-pinched"


def test_coordinates_may_start_with_a_minus_sign(lemma_file, octa_file):
    check = dispatch(["shadow", "check", "--scene", lemma_file, "--point", "-1,0.4"])
    assert check.exit_code == 0
    assert check.payload["point"] == [-1.0, 0.4]
    assert check.payload["verdict"] == "not_shadowed"
    found = dispatch(["plane", "find", "--scene", octa_file, "--point", "-0.5,0,0", "--m", "1"])
    assert found.exit_code == 0
    assert found.payload["point"] == [-0.5, 0.0, 0.0]
    assert found.payload["found"] is True
    cut = dispatch(["slice", "--scene", octa_file, "--plane-point", "-0.1,0,0",
                    "--plane-normal", "-1,0,0", "--window", "2", "--resolution", "64"])
    assert cut.payload["plane_point"] == [-0.1, 0.0, 0.0]
    assert cut.payload["plane_normal"] == [-1.0, 0.0, 0.0]
    assert cut.payload["components"] == 1


@pytest.mark.parametrize("command,option", [
    (["shadow", "check", "--point", "-1,x,0"], "--point"),
    (["slice", "--plane-point", "-1,x,0", "--plane-normal", "0,0,1",
      "--window", "2", "--resolution", "8"], "--plane-point"),
    (["slice", "--plane-point", "0,0,0", "--plane-normal", "-1,x,0",
      "--window", "2", "--resolution", "8"], "--plane-normal"),
])
def test_main_rejects_non_numeric_negative_coordinates_with_exit_3(capsys, octa_file,
                                                                    command, option):
    code = main([*command, "--scene", octa_file])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert option in out.err


@pytest.mark.parametrize("command", [
    ["verify", "theorem3", "--trials", "0"],
    ["verify", "theorem4", "--trials", "0"],
    ["verify", "theorem4", "--trials", "-1"],
    ["verify", "lower-bound", "--k", "2", "--dim", "3", "--trials", "0"],
    ["plane", "find", "--point", "9,9", "--m", "1", "--restarts", "-5"],
    ["plane", "find", "--point", "9,9", "--m", "1", "--restarts", "0"],
])
def test_main_rejects_counts_below_one_with_exit_3(capsys, lemma_file, command):
    code = main([*command, "--scene", lemma_file] if command[0] == "plane" else command)
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert command[-2] in out.err


@pytest.mark.parametrize("command", [
    ["plane", "find", "--point", "9,9", "--m", "1", "--seed", "-1"],
    ["scene", "gen", "random", "--dim", "3", "--k", "3", "--radius", "0.5", "--seed", "-1"],
    ["verify", "theorem3", "--trials", "1", "--seed", "-1"],
    ["verify", "theorem4", "--trials", "1", "--seed", "-1"],
    ["verify", "lower-bound", "--k", "2", "--dim", "3", "--trials", "1", "--seed", "-1"],
    ["analyze", "example2", "--seed", "-1"],
])
def test_main_rejects_negative_seeds_with_exit_3(capsys, lemma_file, command):
    code = main([*command, "--scene", lemma_file] if command[0] == "plane" else command)
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert "--seed" in out.err


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_main_rejects_non_finite_random_radius_with_exit_3(capsys, radius):
    code = main(["scene", "gen", "random", "--dim", "3", "--k", "3",
                 "--radius", radius, "--seed", "0"])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert "finite positive radius" in out.err


def test_scene_gen_emits_raw_scene_document():
    res = dispatch(["scene", "gen", "cube14"])
    assert res.exit_code == 0
    assert "status" not in res.payload
    scene = load_scene_text(json.dumps(res.payload))
    assert len(scene.balls) == 14
    # floats survive the JSON round trip exactly
    assert scene.balls[0].radius == 1 / math.sqrt(3)


def test_scene_gen_random_matches_library():
    res = dispatch(["scene", "gen", "random", "--dim", "2", "--k", "3",
                    "--radius", "0.7", "--seed", "11"])
    scene = load_scene_text(json.dumps(res.payload))
    lib = random_equal_balls(2, 3, 0.7, 11)
    for a, b in zip(scene.balls, lib.balls):
        assert list(a.center) == list(b.center)


def test_verify_lemma_passes():
    res = dispatch(["verify", "lemma", "--grid-step", "0.05"])
    assert res.exit_code == 0
    assert res.payload["status"] == "ok"
    assert res.payload["failures"] == []


def test_verify_theorem_subcommands():
    for name in ("theorem3", "theorem4"):
        res = dispatch(["verify", name, "--trials", "3", "--seed", "1"])
        assert res.exit_code == 0, name
        assert res.payload["passes"] == 3
    res = dispatch(["verify", "lower-bound", "--k", "2", "--dim", "3",
                    "--trials", "3", "--seed", "1"])
    assert res.exit_code == 0
    assert res.payload["passes"] == 3


def test_report_exit_codes_cover_failure_and_indeterminate():
    from shadowgeo.analysis import PropertyReport
    from shadowgeo.cli import _report_result

    failing = PropertyReport(name="x", trials=1, passes=0, failures=[{"trial": 0}])
    assert _report_result(failing).exit_code == 1
    abstaining = PropertyReport(name="x", trials=1, passes=0, indeterminates=1)
    assert _report_result(abstaining).exit_code == 2


def test_analyze_example2_with_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    # --falsifier-grid is accepted and ignored, so even 0 runs
    res = dispatch(["analyze", "example2", "--tangent-grid", "500",
                    "--area-samples", "20000", "--falsifier-grid", "0", "--csv", str(out)])
    assert res.exit_code == 0
    assert res.payload["sphere_coverage"]["verdict"] == "uncovered"
    assert res.payload["tangent_failures"] >= 0
    header = out.read_text().splitlines()[0]
    assert header == "px,py,pz,verdict,gap"


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_csv_path_exits_3(capsys, tmp_path, where):
    path = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    argv = ["analyze", "example2", "--tangent-grid", "100", "--area-samples", "100",
            "--csv", str(path)]
    with pytest.raises(CliError, match="could not write CSV file"):
        dispatch(argv)
    assert main(argv) == 3
    out = capsys.readouterr()
    err = out.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: could not write CSV file {path}: ")
    assert json.loads(out.out)["status"] == "error"


def test_slice_command(octa_file):
    res = dispatch(["slice", "--scene", octa_file, "--plane-point", "0,0,0",
                    "--plane-normal", "0,0,1", "--window", "2", "--resolution", "64"])
    assert res.exit_code == 0
    assert res.payload["components"] == 1


def test_infinite_margin_serializes_as_null(tmp_path):
    doc = {"dim": 2, "balls": [{"center": [5.0, 0.0], "radius": 1.0, "topology": "open"}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    res = dispatch(["shadow", "check", "--scene", str(path), "--point", "4,0"])
    assert res.payload["verdict"] == "not_shadowed"
    assert res.payload["margin"] is None
    json.dumps(res.payload)


def test_bad_inputs_raise_cli_errors(lemma_file):
    with pytest.raises(CliError):
        dispatch(["shadow", "check", "--scene", lemma_file, "--point", "1,2,3"])
    with pytest.raises(CliError):
        dispatch(["shadow", "check", "--scene", lemma_file, "--point", "a,b"])
    with pytest.raises(CliError):
        dispatch(["shadow", "check", "--scene", "/nonexistent.json", "--point", "1,2"])
    with pytest.raises(CliError):
        dispatch(["bogus"])
    with pytest.raises(CliError, match="point has 3 coordinates, scene dimension is 2"):
        dispatch(["shadow", "tangent", "--scene", lemma_file, "--point", "1,0,0"])


def test_main_maps_errors_to_exit_3(capsys, lemma_file):
    code = main(["shadow", "check", "--scene", lemma_file, "--point", "nope"])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert "error:" in out.err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [
    ["shadow", "check", "--point", "9,9"],
    ["shadow", "tangent", "--point", "1,0,0"],
    ["plane", "find", "--point", "9,9", "--m", "1"],
])
def test_main_rejects_bad_tolerance_with_exit_3(capsys, lemma_file, command, tol):
    code = main([*command, "--scene", lemma_file, "--tol", tol])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert "--tol" in out.err


@pytest.mark.parametrize("option,value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--eps", "-1"),
    ("--grid-step", "nan"), ("--grid-step", "inf"),
])
def test_main_rejects_bad_lemma_grid_with_exit_3(capsys, option, value):
    code = main(["verify", "lemma", option, value])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert option.lstrip("-").replace("-", "_") in out.err


@pytest.mark.parametrize("window", ["nan", "inf", "0"])
def test_main_rejects_bad_slice_window_with_exit_3(capsys, octa_file, window):
    code = main(["slice", "--scene", octa_file, "--plane-point", "0,0,0",
                 "--plane-normal", "0,0,1", "--window", window, "--resolution", "64"])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert "window" in out.err


def test_main_rejects_zero_slice_normal_with_exit_3(capsys, octa_file):
    code = main(["slice", "--scene", octa_file, "--plane-point", "0,0,0",
                 "--plane-normal", "0,0,0", "--window", "2", "--resolution", "64"])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert "plane normal must be nonzero" in out.err
    assert "Warning" not in out.err


@pytest.mark.parametrize("field,value", [
    ("dim", True), ("center", [0.0, True]), ("radius", True),
])
def test_main_rejects_boolean_scene_numbers_with_exit_3(capsys, tmp_path, field, value):
    doc = {"dim": 2, "balls": [{"center": [3.0, 0.0], "radius": 1.0}]}
    if field == "dim":
        doc["dim"] = value
    else:
        doc["balls"][0][field] = value
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code = main(["shadow", "check", "--scene", str(path), "--point", "0,0"])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out.strip())["status"] == "error"
    assert f"'{field}'" in out.err


def test_shadow_check_dim4_is_exact(tmp_path):
    doc = {"dim": 4, "balls": [{"center": [3.0, 0.0, 0.0, 0.0], "radius": 1.0},
                               {"center": [0.0, 3.0, 0.0, 0.0], "radius": 1.0}]}
    path = tmp_path / "four.json"
    path.write_text(json.dumps(doc))
    res = dispatch(["shadow", "check", "--scene", str(path), "--point", "0,0,0,0"])
    assert res.exit_code == 0
    assert res.payload["verdict"] == "not_shadowed"
    assert res.payload["method"] == "polar-hull"
    assert res.payload["margin"] > 0
    found = dispatch(["plane", "find", "--scene", str(path), "--point", "0,0,0,0", "--m", "1"])
    assert found.payload["exact"] is True
    assert found.payload["found"] is True


def test_main_maps_point_inside_ball_to_exit_3(capsys, lemma_file):
    code = main(["shadow", "check", "--scene", lemma_file, "--point", "0,0"])
    assert code == 3
    assert json.loads(capsys.readouterr().out.strip())["status"] == "error"


def test_main_warns_on_overlapping_scene(capsys, tmp_path):
    doc = {"dim": 2, "balls": [
        {"center": [0.0, 0.0], "radius": 1.0},
        {"center": [1.0, 0.0], "radius": 1.0},
    ]}
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    code = main(["shadow", "check", "--scene", str(path), "--point", "5,5"])
    assert code == 0
    captured = capsys.readouterr()
    assert "overlapping ball pairs (0,1)" in captured.err
    assert json.loads(captured.out)["verdict"] in ("shadowed", "not_shadowed")


@pytest.mark.parametrize("error", [
    CliError("bad invocation"),
    GeometryError("bad geometry"),
    SceneFormatError("bad scene"),
    ValueError("bad value"),
    IndexError("bad index"),
], ids=lambda error: type(error).__name__)
def test_main_maps_each_input_error_kind_to_exit_3(monkeypatch, capsys, lemma_file, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "point_shadow", fail)
    code = main(["shadow", "check", "--scene", lemma_file, "--point", "9,9"])
    assert code == 3
    out = capsys.readouterr()
    assert json.loads(out.out) == {"status": "error", "message": str(error)}
    assert out.err == f"error: {error}\n"


def test_main_reraises_errors_that_are_not_input_errors(monkeypatch, lemma_file):
    def fail(*args, **kwargs):
        raise RuntimeError("decision broke")

    monkeypatch.setattr(cli, "point_shadow", fail)
    with pytest.raises(RuntimeError, match="decision broke"):
        main(["shadow", "check", "--scene", lemma_file, "--point", "9,9"])


def test_console_entry_point_and_stdin_pipe():
    gen = run_cli("scene", "gen", "lemma", "--side", "1")
    assert gen.returncode == 0
    check = subprocess.run(
        [sys.executable, "-m", "shadowgeo", "shadow", "check", "--scene", "-",
         "--point", "9,9"],
        input=gen.stdout, capture_output=True, text=True, timeout=300,
    )
    assert check.returncode == 0
    assert json.loads(check.stdout)["verdict"] == "not_shadowed"


def test_cli_runs_are_byte_identical():
    a = run_cli("scene", "gen", "random", "--dim", "3", "--k", "4",
                "--radius", "0.5", "--seed", "9")
    b = run_cli("scene", "gen", "random", "--dim", "3", "--k", "4",
                "--radius", "0.5", "--seed", "9")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    v1 = run_cli("verify", "theorem4", "--trials", "3", "--seed", "5")
    v2 = run_cli("verify", "theorem4", "--trials", "3", "--seed", "5")
    assert v1.stdout == v2.stdout


def test_output_into_a_closed_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "shadowgeo", "scene", "gen", "lemma"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in res.stderr
    assert res.stderr == ""
    assert res.returncode == 0
