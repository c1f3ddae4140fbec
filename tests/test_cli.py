import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from shapecal import calib, cli, pipeline, sdp
from shapecal.distortion import (DistortionModel, NoRootError, PoleError,
                                 distort, save_model, undistort)

from util import common_root_mustache, synth_correspondences


def run_cli(*argv):
    return cli.main(list(argv))


def test_synth_writes_scene_and_correspondences(tmp_path, capsys):
    out = tmp_path / "scene.json"
    code = run_cli("synth", "--out", str(out), "--seed", "7")
    assert code == 0
    assert out.exists()
    corr = tmp_path / "scene_corr.csv"
    assert corr.exists()
    data = calib.read_correspondences(corr)
    assert data.shape == (9 * 256, 4)
    echo = capsys.readouterr().out
    assert "256 points" in echo and "seed=7" in echo


@pytest.mark.parametrize("out, corr", [
    ("./scene", "./scene_corr.csv"),
    ("run.v2/scene", "run.v2/scene_corr.csv"),
    ("scene.json", "scene_corr.csv")])
def test_synth_writes_correspondences_beside_the_scene(tmp_path, monkeypatch,
                                                       out, corr):
    # The default path drops only the scene file's extension: a dot in a
    # directory name or a leading "./" is not one.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    code = run_cli("synth", "--out", out, "--cameras", "1",
                   "--target", "2x2")
    assert code == 0
    written = {p.relative_to(tmp_path) for p in tmp_path.rglob("*")
               if p.is_file()}
    assert written == {Path(out), Path(corr)}


def test_synth_minimal_scene(tmp_path):
    out = tmp_path / "s.json"
    code = run_cli("synth", "--out", str(out), "--cameras", "1",
                   "--target", "2x2")
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["target"]) == 4
    assert len(doc["cameras"]) == 1


def test_synth_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("synth", "--out", str(a), "--seed", "3", "--sigma", "0.5")
    run_cli("synth", "--out", str(b), "--seed", "3", "--sigma", "0.5")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a_corr.csv").read_bytes() == \
        (tmp_path / "b_corr.csv").read_bytes()


def test_calibrate_unconstrained(tmp_path, capsys):
    data = synth_correspondences(
        DistortionModel("rational", (-0.2, 0.08, 0.06, -0.15, 0.07, 0.05)),
        (0.05, 2.0), n=200, seed=0)
    path = tmp_path / "data.csv"
    calib.write_correspondences(path, data)
    model_out = tmp_path / "model.json"
    code = run_cli("calibrate", "--shape", "none", str(path),
                   "--out", str(model_out))
    assert code == 0
    assert "status: optimal" in capsys.readouterr().out
    assert model_out.exists()


def test_calibrate_barrel_end_to_end(tmp_path, capsys):
    true = DistortionModel("polynomial", (-0.15, -0.05, 0, 0, 0, 0))
    data = synth_correspondences(true, (0.02, 0.6), n=300, seed=1)
    path = tmp_path / "data.csv"
    calib.write_correspondences(path, data)
    model_out = tmp_path / "model.json"
    code = run_cli("calibrate", "--shape", "barrel", "--rbar", "1.0",
                   str(path), "--out", str(model_out))
    assert code == 0
    out = capsys.readouterr().out
    assert "shape_max_violation: 0" in out
    doc = json.loads(model_out.read_text())
    assert doc["kind"] == "polynomial"
    assert np.abs(np.array(doc["k"]) - true.k).max() <= 1e-4


def test_calibrate_positivity_with_paper_parameters(tmp_path):
    model = common_root_mustache(rho=2.0, a=-0.16, b=0.10, c=-0.28, d=0.14)
    data = synth_correspondences(model, (0.05, 1.2), n=300, seed=10,
                                 noise=0.5 / 540)
    path = tmp_path / "m.csv"
    calib.write_correspondences(path, data)
    out = tmp_path / "model.json"
    code = run_cli("calibrate", "--shape", "positivity", "--rbar", "4",
                   "--p", "0.1", str(path), "--out", str(out))
    assert code == 0
    fit = json.loads(out.read_text())
    g = np.array([1.0] + list(fit["k"][3:]))
    rs = np.linspace(0, 4, 2001)
    assert np.polyval(g[::-1], rs).min() >= 0.1 - 1e-6


def test_calibrate_requires_rbar_for_shapes(tmp_path, capsys):
    path = tmp_path / "d.csv"
    calib.write_correspondences(path, [(0.1, 0.1, 0.1, 0.1)])
    code = run_cli("calibrate", "--shape", "barrel", str(path))
    assert code == cli.EXIT_USAGE


def test_calibrate_malformed_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,xhat,yhat\n1,2,3\n")
    code = run_cli("calibrate", "--shape", "none", str(path))
    assert code == cli.EXIT_DATA
    assert ":2:" in capsys.readouterr().err


def test_calibrate_non_finite_field_exits_3(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("x,y,xhat,yhat\n0.1,0.2,0.1,0.2\n0.3,nan,0.3,0.4\n")
    code = run_cli("calibrate", "--shape", "none", str(path))
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        f"data error: {path}:3: non-finite coordinate")


def test_calibrate_missing_file_exits_io(tmp_path):
    code = run_cli("calibrate", "--shape", "none",
                   str(tmp_path / "missing.csv"))
    assert code == cli.EXIT_IO


# The two dumps below, as written when each block stored one dense matrix
# per variable; the triplet storage must write the same bytes.
DUMP_SHA256 = {
    "barrel":
        "5ddb8ae0d1c4822ecda16d81cf2dc14a9901d0e9e1706d755a24a3103cbda443",
    "positivity":
        "1cfae94bc7c6a9ade950aa1c0eeb7b4b325afb867c3bb3386e80e1d2baa750c2",
}


def test_calibrate_dump_sdp(tmp_path):
    data = synth_correspondences(
        DistortionModel("polynomial", (-0.1, -0.02, 0, 0, 0, 0)),
        (0.05, 0.6), n=50, seed=2)
    path = tmp_path / "d.csv"
    calib.write_correspondences(path, data)
    dump = tmp_path / "prog.json"
    code = run_cli("calibrate", "--shape", "barrel", "--rbar", "1.0",
                   str(path), "--dump-sdp", str(dump))
    assert code == 0
    doc = json.loads(dump.read_text())
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == DUMP_SHA256[
        "barrel"]
    assert doc["nvars"] == 10
    assert len(doc["blocks"]) == 5
    assert len(doc["equalities"]) == 5


def test_calibrate_dump_sdp_positivity(tmp_path):
    data = synth_correspondences(
        DistortionModel("rational", (-0.2, 0.08, 0.06, -0.15, 0.07, 0.05)),
        (0.05, 0.6), n=50, seed=2)
    path = tmp_path / "d.csv"
    calib.write_correspondences(path, data)
    dump = tmp_path / "prog.json"
    code = run_cli("calibrate", "--shape", "positivity", "--rbar", "1.0",
                   str(path), "--dump-sdp", str(dump))
    assert code == 0
    doc = json.loads(dump.read_text())
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == DUMP_SHA256[
        "positivity"]
    assert doc["nvars"] == 13
    assert len(doc["blocks"]) == 3
    assert len(doc["equalities"]) == 4


@pytest.mark.parametrize("shape, systems, model", [
    ("barrel", "barrel_systems",
     DistortionModel("polynomial", (-0.1, -0.02, 0, 0, 0, 0))),
    ("positivity", "zero_crossing_systems",
     DistortionModel("rational", (-0.2, 0.08, 0.06, -0.15, 0.07, 0.05))),
])
def test_calibrate_dump_sdp_builds_the_program_once(tmp_path, capsys,
                                                    monkeypatch, shape,
                                                    systems, model):
    # The solve takes the dumped program: one symbolic build per run, the
    # same dump as a fresh shape_program and the same printed result as a
    # run without the dump.
    data = synth_correspondences(model, (0.05, 0.6), n=200, seed=2)
    path = tmp_path / "d.csv"
    calib.write_correspondences(path, data)
    args = ["calibrate", "--shape", shape, "--rbar", "1.0", str(path)]
    assert run_cli(*args) == 0
    plain = capsys.readouterr().out
    cfg = calib.CalibConfig(rbar=1.0, shape=shape)
    expected = sdp.program_to_json(calib.shape_program(
        calib.assemble_cost(data), shape, cfg)[0]) + "\n"

    calls = []
    build = getattr(calib, systems)

    def counting(*a):
        calls.append(a)
        return build(*a)

    monkeypatch.setattr(calib, systems, counting)
    dump = tmp_path / "prog.json"
    assert run_cli(*args, "--dump-sdp", str(dump)) == 0
    assert len(calls) == 1
    assert dump.read_text() == expected
    assert capsys.readouterr().out == plain


def test_calibrate_dump_sdp_solves_the_dumped_program(tmp_path, capsys,
                                                      monkeypatch):
    # Barrel on pincushion data: the least-squares point lacks the shape, so
    # the fit solves, and it solves the dumped build rather than a new one.
    data = synth_correspondences(
        DistortionModel("polynomial", (0.1, 0.05, 0, 0, 0, 0)),
        (0.02, 0.5), n=200, seed=5)
    path = tmp_path / "d.csv"
    calib.write_correspondences(path, data)
    args = ["calibrate", "--shape", "barrel", "--rbar", "1.0", str(path)]
    assert run_cli(*args) == 0
    plain = capsys.readouterr().out

    builds, solved = [], []
    build, solve = calib.barrel_systems, sdp.solve
    monkeypatch.setattr(calib, "barrel_systems",
                        lambda *a: builds.append(a) or build(*a))
    monkeypatch.setattr(sdp, "solve",
                        lambda program, *a: solved.append(program)
                        or solve(program, *a))
    dump = tmp_path / "prog.json"
    assert run_cli(*args, "--dump-sdp", str(dump)) == 0
    assert len(builds) == 1
    assert len(solved) == 1
    assert dump.read_text() == sdp.program_to_json(solved[0]) + "\n"
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("shape", ["none", "pincushion"])
def test_calibrate_dump_sdp_other_shapes_exit_2(tmp_path, capsys,
                                                 monkeypatch, shape):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran despite the usage error")

    monkeypatch.setattr(calib, "solve_shape", no_solve)
    monkeypatch.setattr(calib, "solve_unconstrained", no_solve)
    path = tmp_path / "d.csv"
    calib.write_correspondences(path, [(0.1, 0.1, 0.1, 0.1)])
    dump = tmp_path / "prog.json"
    code = run_cli("calibrate", "--shape", shape, "--rbar", "1.0",
                   str(path), "--dump-sdp", str(dump))
    assert code == cli.EXIT_USAGE
    assert "--dump-sdp" in capsys.readouterr().err
    assert not dump.exists()


def test_calibrate_solver_failure_exits_solver_code(tmp_path, capsys,
                                                    monkeypatch):
    def failed(program, options=None):
        return sdp.SdpSolution(np.zeros(program.nvars), math.nan, math.nan,
                               "numericalFailure", 0)

    monkeypatch.setattr(sdp, "solve", failed)
    path = tmp_path / "d.csv"
    # The generator's k3 leaves the least-squares point without the barrel
    # shape, so the fit reaches the solver.
    calib.write_correspondences(path, synth_correspondences(
        DistortionModel("polynomial", (-0.15, -0.05, 0.1, 0, 0, 0)),
        (0.02, 0.6), n=50, seed=1))
    code = run_cli("calibrate", "--shape", "barrel", "--rbar", "1", str(path))
    assert code == cli.EXIT_SOLVER
    assert capsys.readouterr().err == (
        "solver error: barrel solve failed: numericalFailure\n"
        '{"reason": "numericalFailure"}\n')


def test_calibrate_prints_data_warnings(tmp_path, capsys):
    path = tmp_path / "d.csv"
    calib.write_correspondences(path, np.zeros((2, 4)))
    assert run_cli("calibrate", "--shape", "none", str(path)) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "warning: degenerate data: only 2 correspondence(s)\n" in out
    assert "warning: all points at zero radius: model is unconstrained " \
        "by data\n" in out


def test_undistort_identity(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(DistortionModel.identity(), model_path)
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.3,0.4\n-0.1,0.2\n")
    out = tmp_path / "out.csv"
    code = run_cli("undistort", "--model", str(model_path),
                   "--points", str(pts), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,error"
    vals = [list(map(float, ln.split(",")[:2])) for ln in lines[1:]]
    assert np.allclose(vals, [[0.3, 0.4], [-0.1, 0.2]], atol=1e-12)


def test_undistort_roundtrip_grid(tmp_path):
    model = DistortionModel("polynomial", (-0.15, -0.05, 0, 0, 0, 0))
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    grid = np.stack(np.meshgrid(np.linspace(-0.5, 0.5, 7),
                                np.linspace(-0.5, 0.5, 7)), axis=-1)
    pts = grid.reshape(-1, 2)
    distorted = distort(model, pts)
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n" + "\n".join(f"{u},{v}" for u, v in distorted)
                    + "\n")
    out = tmp_path / "out.csv"
    assert run_cli("undistort", "--model", str(model_path), "--points",
                   str(path), "--out", str(out)) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    back = np.array([[float(a), float(b)] for a, b, _ in rows])
    assert np.abs(back - pts).max() <= 1e-8


def test_undistort_marks_pole_rows(tmp_path):
    # f and g share the factor (1 - r/0.5): pole at radius 0.5 in range.
    s = -1.0 / 0.5
    model = DistortionModel("rational", (s, 0, 0, s, 0, 0))
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.1,0.0\n0.9,0.0\n")
    out = tmp_path / "out.csv"
    assert run_cli("undistort", "--model", str(model_path), "--points",
                   str(pts), "--out", str(out)) == 0
    lines = out.read_text().splitlines()[1:]
    assert lines[0].endswith(",")        # first row inverts fine
    assert lines[1].endswith("Error")    # second is beyond the pole


def test_undistort_two_crossings_in_one_scan_interval(tmp_path):
    # r L(r) meets the target radius at r = 0.5 and r = 0.5005, within one
    # interval of a 512-interval scan of [0, 1].
    model = DistortionModel("polynomial", (-1.0794786710910327,
                                           -7.99584216207129e-05,
                                           0.15991684324151442, 0, 0, 0))
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.2401151401271339,0\n")
    out = tmp_path / "out.csv"
    assert run_cli("undistort", "--model", str(model_path), "--points",
                   str(pts), "--out", str(out), "--search-max", "1") == 0
    x, y, error = out.read_text().splitlines()[1].split(",")
    assert error == ""
    assert abs(float(x) - 0.5) <= 1e-12 and float(y) == 0.0


def test_undistort_non_numeric_field_exits_3(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    save_model(DistortionModel.identity(), model_path)
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.3,0.4\n0.1,abc\n")
    out = tmp_path / "out.csv"
    code = run_cli("undistort", "--model", str(model_path),
                   "--points", str(pts), "--out", str(out))
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert f"{pts}:3:" in err and "abc" in err
    assert not out.exists()


@pytest.mark.parametrize("row", ["nan,0.1", "inf,0", "0.2,-inf"])
def test_undistort_non_finite_field_exits_3(tmp_path, capsys, row):
    model_path = tmp_path / "model.json"
    save_model(DistortionModel.identity(), model_path)
    pts = tmp_path / "pts.csv"
    pts.write_text(f"x,y\n0.3,0.4\n{row}\n")
    out = tmp_path / "out.csv"
    code = run_cli("undistort", "--model", str(model_path),
                   "--points", str(pts), "--out", str(out))
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {pts}:3: non-finite coordinate")
    assert not out.exists()


def test_experiment_bad_sigmas_exits_3(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("experiment ran despite the data error")

    monkeypatch.setattr(pipeline, "run_experiment", no_run)
    out = tmp_path / "rep"
    code = run_cli("experiment", "--sigmas", "0,abc", "--out", str(out))
    assert code == cli.EXIT_DATA
    assert "bad --sigmas '0,abc'" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--trials", "0", "bad --trials 0, need at least 1"),
    ("--target", "1x1", "bad --target '1x1', need at least 2x2"),
    ("--seed", "-1", "bad --seed -1, need at least 0"),
    ("--sigmas", "-1", "bad --sigmas -1.0, need a non-negative value"),
    ("--sigmas", "0,nan", "bad --sigmas nan, need a non-negative value"),
    ("--sigmas", "inf,1", "bad --sigmas inf, need a non-negative value"),
])
def test_experiment_out_of_range_exits_3(tmp_path, capsys, monkeypatch,
                                         option, value, message):
    def no_run(cfg):
        raise AssertionError("experiment ran despite the data error")

    monkeypatch.setattr(pipeline, "run_experiment", no_run)
    code = run_cli("experiment", option, value, "--out",
                   str(tmp_path / "rep"))
    assert code == cli.EXIT_DATA
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_synth_zero_cameras_exits_3(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run_cli("synth", "--out", str(out), "--cameras", "0")
    assert code == cli.EXIT_DATA
    assert "bad --cameras 0, need at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_curve_negative_samples_exits_3(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    save_model(DistortionModel.identity(), model_path)
    out = tmp_path / "curve.csv"
    code = run_cli("curve", "--model", str(model_path), "--rmax", "1.0",
                   "--samples", "-1", "--out", str(out))
    assert code == cli.EXIT_DATA
    assert "bad --samples -1, need at least 1" in capsys.readouterr().err
    assert not out.exists()


def _no_experiment(monkeypatch):
    def no_run(cfg):
        raise AssertionError("experiment ran despite the data error")

    monkeypatch.setattr(pipeline, "run_experiment", no_run)


def _no_data_read(monkeypatch):
    def no_read(path):
        raise AssertionError("calibrate read data despite the data error")

    monkeypatch.setattr(calib, "read_correspondences", no_read)


@pytest.mark.parametrize("command", ["calibrate", "experiment"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_nonpositive_rbar_exits_3(tmp_path, capsys, monkeypatch, command,
                                  value):
    _no_experiment(monkeypatch)
    _no_data_read(monkeypatch)
    if command == "calibrate":
        args = ["calibrate", "--shape", "barrel", str(tmp_path / "d.csv")]
    else:
        args = ["experiment", "--out", str(tmp_path / "rep")]
    assert run_cli(*args, "--rbar", value) == cli.EXIT_DATA
    assert f"bad --rbar {float(value)}, need a positive value" in \
        capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("command", ["calibrate", "experiment"])
@pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.1"])
def test_margin_outside_unit_interval_exits_3(tmp_path, capsys, monkeypatch,
                                             command, value):
    _no_experiment(monkeypatch)
    _no_data_read(monkeypatch)
    if command == "calibrate":
        args = ["calibrate", "--shape", "positivity", "--rbar", "1",
                str(tmp_path / "d.csv")]
    else:
        args = ["experiment", "--shape", "positivity", "--out",
                str(tmp_path / "rep")]
    assert run_cli(*args, "--p", value) == cli.EXIT_DATA
    assert f"bad --p {float(value)}, need 0 < p < 1" in \
        capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "3", "7"])
def test_calibrate_delta_max_below_one_exits_3(tmp_path, capsys, monkeypatch,
                                              value):
    _no_data_read(monkeypatch)
    args = ["calibrate", "--shape", "pincushion", "--rbar", "1",
            str(tmp_path / "d.csv")]
    assert run_cli(*args, "--delta-max", value) == cli.EXIT_DATA
    assert f"bad --delta-max {value}, need 1 or 2" in \
        capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2", "inf", "nan"])
def test_undistort_nonpositive_search_max_exits_3(tmp_path, capsys, value):
    model_path = tmp_path / "model.json"
    save_model(DistortionModel.identity(), model_path)
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.3,0.4\n")
    out = tmp_path / "out.csv"
    code = run_cli("undistort", "--model", str(model_path), "--points",
                   str(pts), "--out", str(out), "--search-max", value)
    assert code == cli.EXIT_DATA
    assert f"bad --search-max {float(value)}, need a positive value" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-0.5", "inf", "nan"])
def test_synth_nonpositive_coverage_exits_3(tmp_path, capsys, value):
    out = tmp_path / "s.json"
    code = run_cli("synth", "--out", str(out), "--coverage", value)
    assert code == cli.EXIT_DATA
    assert f"bad --coverage {float(value)}, need a positive value" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_synth_bad_sigma_exits_3(tmp_path, capsys, value):
    out = tmp_path / "s.json"
    code = run_cli("synth", "--out", str(out), "--sigma", value)
    assert code == cli.EXIT_DATA
    assert f"bad --sigma {float(value)}, need a non-negative value" in \
        capsys.readouterr().err
    assert not out.exists()


def test_synth_negative_seed_exits_3(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = run_cli("synth", "--out", str(out), "--seed", "-1")
    assert code == cli.EXIT_DATA
    assert "bad --seed -1, need at least 0" in capsys.readouterr().err
    assert not out.exists()


def _model_command(command, tmp_path, model_path):
    out = tmp_path / "out.csv"
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.3,0.4\n")
    return out, {
        "synth": ["synth", "--out", str(out), "--model", str(model_path)],
        "undistort": ["undistort", "--model", str(model_path), "--points",
                      str(pts), "--out", str(out)],
        "curve": ["curve", "--model", str(model_path), "--rmax", "1",
                  "--out", str(out)],
    }[command]


@pytest.mark.parametrize("command", ["synth", "undistort", "curve"])
@pytest.mark.parametrize("text, reason", [
    ("not json", "JSONDecodeError"),
    ('{"kind": "spline", "k": [0, 0, 0, 0, 0, 0]}', "unknown model kind"),
    ('{"kind": "rational"}', "KeyError"),
    ('{"kind": "rational", "k": [0, 0, 0, "nan", 0, 0]}',
     "ValueError: k must be finite"),
    ('{"kind": "rational", "k": [0, Infinity, 0, 0, 0, 0]}',
     "ValueError: k must be finite"),
])
def test_bad_model_file_exits_3(tmp_path, capsys, command, text, reason):
    model_path = tmp_path / "model.json"
    model_path.write_text(text)
    out, args = _model_command(command, tmp_path, model_path)
    assert run_cli(*args) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {model_path}: ")
    assert reason in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "undistort", "curve"])
def test_missing_model_file_exits_io(tmp_path, command):
    out, args = _model_command(command, tmp_path, tmp_path / "absent.json")
    assert run_cli(*args) == cli.EXIT_IO
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_curve_bad_rmax_exits_3(tmp_path, capsys, value):
    model_path = tmp_path / "model.json"
    save_model(DistortionModel.identity(), model_path)
    out = tmp_path / "curve.csv"
    code = run_cli("curve", "--model", str(model_path), "--rmax", value,
                   "--out", str(out))
    assert code == cli.EXIT_DATA
    assert f"bad --rmax {float(value)}, need a positive value" in \
        capsys.readouterr().err
    assert not out.exists()


def test_experiment_small_and_deterministic(tmp_path):
    out1 = tmp_path / "rep1"
    out2 = tmp_path / "rep2"
    args = ["experiment", "--trials", "1", "--sigmas", "0", "--shape",
            "barrel", "--seed", "5", "--target", "6x6", "--cameras", "3"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    csv1 = (tmp_path / "rep1.csv").read_bytes()
    assert csv1 == (tmp_path / "rep2.csv").read_bytes()
    lines = csv1.decode().splitlines()
    assert lines[0] == "method,sigma,trial,calib_rms,valid_rms,shape_violations"
    assert len(lines) == 1 + 3  # three methods, one sigma, one trial


def test_experiment_lists_failed_trials(tmp_path, capsys, monkeypatch):
    original = pipeline._one_trial

    def one_trial(cfg, sigma, trial):
        if trial == 0:
            raise RuntimeError("injected failure")
        return original(cfg, sigma, trial)

    monkeypatch.setattr(pipeline, "_one_trial", one_trial)
    out = tmp_path / "rep"
    code = run_cli("experiment", "--trials", "2", "--sigmas", "0",
                   "--cameras", "2", "--target", "4x4", "--out", str(out))
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == (
        "1 trial(s) failed:\n"
        '{"sigma": 0.0, "trial": 0, "error": '
        '"RuntimeError: injected failure"}\n')


def test_curve_identity_constant(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(DistortionModel.identity(), model_path)
    out = tmp_path / "curve.csv"
    assert run_cli("curve", "--model", str(model_path), "--rmax", "2.0",
                   "--samples", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,L,L1,L2"
    assert len(lines) == 3  # two endpoint samples only
    for ln in lines[1:]:
        r, L, L1, L2 = map(float, ln.split(","))
        assert L == 1.0 and L1 == 0.0 and L2 == 0.0
    assert float(lines[2].split(",")[0]) == 2.0


def test_curve_barrel_derivative_nonpositive(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(DistortionModel("polynomial", (-0.15, -0.05, 0, 0, 0, 0)),
               model_path)
    out = tmp_path / "curve.csv"
    assert run_cli("curve", "--model", str(model_path), "--rmax", "1.0",
                   "--samples", "64", "--out", str(out)) == 0
    for ln in out.read_text().splitlines()[1:]:
        assert float(ln.split(",")[2]) <= 1e-12


def test_curve_marks_pole_rows(tmp_path):
    s = -1.0 / 0.5
    model_path = tmp_path / "model.json"
    save_model(DistortionModel("rational", (s, 0, 0, s, 0, 0)), model_path)
    out = tmp_path / "curve.csv"
    assert run_cli("curve", "--model", str(model_path), "--rmax", "1.0",
                   "--samples", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[2].endswith("pole,pole,pole")


def _undistort_row_by_row(model, rows, search_max):
    """The undistort file as written one ``undistort`` call per row."""
    lines = ["x,y,error"]
    for row in rows:
        try:
            pt = undistort(model, np.array(row), search_max)
            lines.append(f"{cli._fmt(pt[0])},{cli._fmt(pt[1])},")
        except NoRootError as exc:
            lines.append(f",,{type(exc).__name__}")
    return "\n".join(lines) + "\n"


def test_undistort_in_one_call_writes_the_row_by_row_file(tmp_path, capsys):
    # The barrel true model: r L(r) folds back at r = 1.37, where it reaches
    # 0.79, so the rows beyond that radius fail and the others invert.
    model = pipeline.DEFAULT_TRUE_MODELS["barrel"]
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    rows = np.random.default_rng(5).uniform(-1.0, 1.0, size=(300, 2))
    rows[:3] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]]
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n" + "".join("%r,%r\n" % (float(u), float(v))
                                      for u, v in rows))
    out = tmp_path / "out.csv"
    assert run_cli("undistort", "--model", str(model_path), "--points",
                   str(pts), "--out", str(out), "--search-max", "3") == 0
    text = out.read_text()
    assert text == _undistort_row_by_row(model, rows, 3.0)
    lines = text.splitlines()
    assert lines[1:4] == ["0,0,", "-0,0,", "0,-0,"]
    failed = sum(ln == ",,NoRootError" for ln in lines)
    assert 0 < failed < len(rows) - 3
    assert f"({len(rows)} rows, {failed} failed)" in capsys.readouterr().out


def test_undistort_with_no_rows_writes_the_header(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(pipeline.DEFAULT_TRUE_MODELS["barrel"], model_path)
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n")
    out = tmp_path / "out.csv"
    assert run_cli("undistort", "--model", str(model_path), "--points",
                   str(pts), "--out", str(out)) == 0
    assert out.read_text() == "x,y,error\n"


def _curve_row_by_row(model, rmax, samples):
    """The curve file as written one ``L_derivatives`` call per sample."""
    lines = ["r,L,L1,L2"]
    for r in np.linspace(0.0, rmax, samples):
        try:
            L, L1, L2 = model.L_derivatives(np.array([r]))
            lines.append(",".join([cli._fmt(r), cli._fmt(L[0]),
                                   cli._fmt(L1[0]), cli._fmt(L2[0])]))
        except PoleError:
            lines.append(f"{cli._fmt(r)},pole,pole,pole")
    return "\n".join(lines) + "\n"


def test_curve_in_one_call_writes_the_row_by_row_file(tmp_path):
    # g(r) = 1 - 2 r vanishes at the sample r = 0.5 inside [0, 1].
    model = DistortionModel("division", (0, 0, 0, -2.0, 0, 0))
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    out = tmp_path / "curve.csv"
    assert run_cli("curve", "--model", str(model_path), "--rmax", "1.0",
                   "--samples", "41", "--out", str(out)) == 0
    text = out.read_text()
    assert text == _curve_row_by_row(model, 1.0, 41)
    assert "0.5,pole,pole,pole" in text.splitlines()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate", "--no-such-flag"])
    assert exc.value.code == cli.EXIT_USAGE


def _noisy_pincushion_csv(tmp_path):
    """A noisy set whose order-1 candidate does not certify."""
    true = DistortionModel("division", (0, 0, 0, -0.08, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=256, seed=5,
                                 noise=2.0 / 540)
    path = tmp_path / "d.csv"
    calib.write_correspondences(path, data)
    return path


def test_calibrate_uncertified_exits_solver_code(tmp_path, capsys):
    path = _noisy_pincushion_csv(tmp_path)
    code = run_cli("calibrate", "--shape", "pincushion", "--rbar", "1.0",
                   "--delta-max", "1", str(path))
    assert code == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "uncertified" in captured.err


def test_calibrate_prints_the_certifying_pass(tmp_path, capsys):
    # At the default --delta-max the same set certifies at the structured
    # pass, between order 1 and the full order 2.
    path = _noisy_pincushion_csv(tmp_path)
    code = run_cli("calibrate", "--shape", "pincushion", "--rbar", "1.0",
                   str(path))
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "relaxation_order: 2\nrelaxation_pass: structured\n" in out
    assert "certified: True" in out
