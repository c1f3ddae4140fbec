import json
import math
import multiprocessing
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapecal import calib, pipeline
from shapecal.distortion import DistortionModel, shape_check
from shapecal.pipeline import (Camera, ExperimentConfig, ExperimentReport,
                               SceneConfig, add_noise, aso_loop, ba_full,
                               ba_refine, bootstrap_poses, correspondences,
                               generate_scene, ideal_normalized,
                               levenberg_marquardt,
                               perturb_cameras, project, reprojection_rms,
                               rodrigues, rodrigues_inverse, run_experiment,
                               scene_from_json, scene_to_json,
                               validation_points, validation_rms)
from util import (forward_step, num_jacobian, per_camera_normal_blocks,
                  pose_block_jacobian, reference_pixel_errors,
                  with_difference_normals)

BARREL = pipeline.DEFAULT_TRUE_MODELS["barrel"]


def small_scene(seed=7, model=BARREL, cameras=3):
    cfg = SceneConfig(target_rows=8, target_cols=8, cameras=cameras)
    return generate_scene(cfg, model, seed)


def test_rodrigues_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0.01, 3.0)
        R = rodrigues(v)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rodrigues_inverse(R), v, atol=1e-9)


@pytest.mark.parametrize("axis", [(1, 0, 0), (0, 1, 1), (0, 1, -1),
                                  (0, 1e-9, 1), (1, 1, 1), (1, -2, 3)])
def test_rodrigues_roundtrip_near_pi(axis):
    # Within 1e-6 of pi the axis comes from the symmetric part of R; an axis
    # perpendicular to x must not take its signs from rounding noise.
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    for eps in (0.0, 1e-9, 1e-7, 5e-7, 9.9e-7):
        R = rodrigues((math.pi - eps) * axis)
        assert np.abs(rodrigues(rodrigues_inverse(R)) - R).max() < 1e-7


@pytest.mark.parametrize("axis", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                  (0, 1, -1), (0, 1e-9, 1), (1, 1, 1),
                                  (1, -2, 3), (-3, 0.5, 0.25)])
def test_rodrigues_roundtrip_within_1e_3_of_pi(axis):
    # Just outside the old near-pi window (1e-6) the angle from acos and the
    # division by sin(theta) lost about 1e-4 of the rotation.
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    for eps in np.concatenate([[0.0], np.geomspace(1e-12, 1e-3, 28)]):
        R = rodrigues((math.pi - eps) * axis)
        assert np.abs(rodrigues(rodrigues_inverse(R)) - R).max() <= 1e-9


@pytest.mark.parametrize("field", ["spacing", "focal", "coverage"])
@pytest.mark.parametrize("value", [0.0, -0.5, np.inf, np.nan])
def test_scene_config_rejects_what_generate_scene_cannot_use(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        SceneConfig(**{field: value})


def test_generate_scene_default_protocol():
    cfg = SceneConfig()
    scene = generate_scene(cfg, BARREL, 0)
    assert len(scene.target) == 256
    assert len(scene.cameras) == 9
    w, h = cfg.image_width, cfg.image_height
    for pix in scene.pixels:
        assert pix[:, 0].min() >= 0 and pix[:, 0].max() <= w
        assert pix[:, 1].min() >= 0 and pix[:, 1].max() <= h


def test_generate_scene_coverage():
    cfg = SceneConfig()
    scene = generate_scene(cfg, BARREL, 3)
    half_diag = np.hypot(320, 240)
    for cam, pix in zip(scene.cameras, scene.pixels):
        radius = np.hypot(*(pix - cam.principal).T).max()
        assert 0.35 * half_diag <= radius <= 0.65 * half_diag


def test_minimal_scene():
    cfg = SceneConfig(target_rows=2, target_cols=2, cameras=1)
    scene = generate_scene(cfg, DistortionModel.identity(), 1)
    assert len(scene.target) == 4
    assert len(scene.pixels) == 1
    assert scene.pixels[0].shape == (4, 2)


def test_scene_determinism():
    a = generate_scene(SceneConfig(), BARREL, 42)
    b = generate_scene(SceneConfig(), BARREL, 42)
    for pa, pb in zip(a.pixels, b.pixels):
        assert np.array_equal(pa, pb)


def test_project_on_axis_hits_principal_point():
    cfg = SceneConfig(target_rows=2, target_cols=2, cameras=1)
    scene = generate_scene(cfg, DistortionModel.identity(), 5)
    cam = scene.cameras[0]
    center = -cam.R.T @ cam.t
    axis_point = center + cam.R.T @ np.array([0.0, 0.0, 2.0])
    pix = project(cam, axis_point[None, :], DistortionModel.identity())
    assert np.allclose(pix[0], cam.principal, atol=1e-9)


def test_project_identity_K():
    cam = Camera(np.eye(3), np.array([0.0, 0.0, 2.0]), np.eye(3))
    X = np.array([[0.3, -0.2, 0.0]])
    pix = project(cam, X, DistortionModel.identity())
    assert np.allclose(pix[0], [0.15, -0.1], atol=1e-12)


def test_project_rejects_nonpositive_depth():
    cam = Camera(np.eye(3), np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        ideal_normalized(cam, np.array([[0.0, 0.0, -1.0]]))


def test_barrel_pulls_points_inward():
    scene = small_scene(model=DistortionModel.identity())
    cam = scene.cameras[0]
    straight = project(cam, scene.target, DistortionModel.identity())
    curved = project(cam, scene.target, BARREL)
    r0 = np.hypot(*(straight - cam.principal).T)
    r1 = np.hypot(*(curved - cam.principal).T)
    off_axis = r0 > 1.0
    assert (r1[off_axis] < r0[off_axis]).all()


def test_add_noise_zero_sigma_identity():
    scene = small_scene()
    noisy = add_noise(scene, 0.0)
    for a, b in zip(scene.pixels, noisy.pixels):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("sigma", [-0.5, np.inf, np.nan])
def test_add_noise_rejects_a_sigma_not_nonnegative_and_finite(sigma):
    with pytest.raises(ValueError,
                       match="sigma must be nonnegative and finite"):
        add_noise(small_scene(), sigma)


def test_add_noise_statistics():
    cfg = SceneConfig(target_rows=24, target_cols=24, cameras=9)
    scene = generate_scene(cfg, DistortionModel.identity(), 11)
    noisy = add_noise(scene, 1.0)
    deltas = np.concatenate([(a - b).ravel()
                             for a, b in zip(noisy.pixels, scene.pixels)])
    assert deltas.size >= 10000
    assert 0.95 <= deltas.std() <= 1.05


def test_add_noise_seeded_streams():
    scene = small_scene()
    n1 = add_noise(scene, 1.0)
    n2 = add_noise(scene, 1.0)
    assert np.array_equal(n1.pixels[0], n2.pixels[0])
    other = add_noise(generate_scene(scene.config, BARREL, scene.seed + 1),
                      1.0)
    assert not np.array_equal(n1.pixels[0], other.pixels[0])


def test_levenberg_marquardt_monotone_trace():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(20, 3))
    b = rng.normal(size=20)

    def fun(x):
        return A @ x - b + 0.1 * np.sin(x).sum()

    x, trace, status = levenberg_marquardt(with_difference_normals(fun),
                                           np.zeros(3))
    assert all(t2 <= t1 + 1e-12 for t1, t2 in zip(trace, trace[1:]))


def test_levenberg_marquardt_stops_at_an_undefined_start():
    # A start with no normal equations is where the run ends: x0 bit for
    # bit, after the one pass that found it so.
    x0 = np.array([0.1, -2.0, 3e-7])
    calls = []

    def fun(x):
        calls.append(x.copy())
        return np.full(4, 1e8), None

    x, trace, status = levenberg_marquardt(fun, x0)
    assert status == "undefined" and trace == [4e16] and len(calls) == 1
    assert x.tobytes() == x0.tobytes()


def test_ba_refine_fixed_point_at_truth():
    scene = small_scene()
    cams, rms, statuses = ba_refine(scene, scene.cameras, BARREL)
    assert rms <= 1e-6
    for cam, ref in zip(scene.cameras, cams):
        assert np.abs(cam.R - ref.R).max() <= 1e-9
        assert np.abs(cam.t - ref.t).max() <= 1e-8
        assert abs(cam.focal - ref.focal) <= 1e-6


def test_ba_refine_recovers_perturbed_poses():
    scene = small_scene(seed=3)
    cams0 = perturb_cameras(scene.cameras, 3)
    cams, rms, statuses = ba_refine(scene, cams0, BARREL)
    assert rms <= 1e-6


def test_ba_refine_wrong_model_has_higher_rms():
    scene = small_scene(seed=4)
    cams0 = perturb_cameras(scene.cameras, 4)
    _, rms_true, _ = ba_refine(scene, cams0, BARREL)
    _, rms_wrong, _ = ba_refine(scene, cams0, DistortionModel.identity())
    assert rms_wrong > rms_true + 0.01


def test_ba_full_recovers_distortion():
    scene = small_scene(seed=5, cameras=4)
    cams0 = perturb_cameras(scene.cameras, 5)
    cams_init, _, _ = ba_refine(scene, cams0, DistortionModel.identity())
    cams, model, rms = ba_full(scene, cams_init, "polynomial")
    assert rms <= 1e-5
    assert np.abs(np.array(model.k) - BARREL.k).max() <= 1e-3


def _ba_start(seed=5, cameras=4):
    scene = add_noise(small_scene(seed=seed, cameras=cameras), 0.5)
    cams0 = perturb_cameras(scene.cameras, seed)
    cams_init, _, _ = ba_refine(scene, cams0, DistortionModel.identity())
    return scene, cams_init


# Start models of the joint problems: every free coefficient nonzero, so
# that both halves of the quotient rule carry weight.
START_MODELS = {
    "polynomial": DistortionModel("polynomial", (-0.2, -0.08, 0.01, 0, 0, 0)),
    "division": DistortionModel("division", (0, 0, 0, 0.15, 0.02, -0.01)),
    "rational": DistortionModel("rational",
                                (-0.3, 0.1, 0.01, -0.15, 0.04, 0.01)),
}


def _ba_full_problem(scene, cams, kind, weight, model=None):
    """The joint problem's arguments and the problem itself."""
    args = (scene, cams, model or DistortionModel.identity(kind),
            calib.KIND_INDICES[kind], weight)
    return args, pipeline._pose_problem(*args)


def _residual(problem):
    """The residual alone of a pose problem's one-pass ``fun``."""
    fun = problem[1]
    return lambda x: fun(x)[0]


def _assert_oracle_is_the_dense_difference(args, problem, x):
    # The block oracle is the forward difference of the whole residual,
    # sentinel columns included.
    resid = _residual(problem)
    assert np.array_equal(pose_block_jacobian(*args, x),
                          num_jacobian(resid, x, resid(x)))


def _assert_normals_match_oracle(args, problem, x):
    """Closed-form (J'J, J'r), from the residual's own pass, against the
    same products of the forward differences, within 1e-5 of each entry's
    scale (|J|'|J| and |J|'|r|)."""
    _assert_oracle_is_the_dense_difference(args, problem, x)
    oracle = pose_block_jacobian(*args, x)
    r, (H, g) = problem[1](x)
    scale = np.abs(oracle)
    assert (np.abs(H - oracle.T @ oracle) <= 1e-5 * (scale.T @ scale)).all()
    assert (np.abs(g - oracle.T @ r) <= 1e-5 * (scale.T @ np.abs(r))).all()


def _assert_sentinel_pass(problem, x):
    # At a sentinel residual the pass gives no normal equations, so an LM
    # run stops there as undefined.
    r0, normals = problem[1](x)
    assert np.all(r0 == 1e8) and normals is None


def _assert_finite_where_a_step_fails(problem, x):
    # The forward difference needs a sentinel column here; the closed form
    # needs no step.
    normals = problem[1](x)[1]
    assert normals is not None and all(np.isfinite(a).all() for a in normals)


@pytest.mark.parametrize("kind, weight", [("polynomial", 0.0),
                                          ("division", 1.0),
                                          ("rational", 0.0),
                                          ("rational", 1.0)])
def test_ba_full_block_jacobian_at_start_point(kind, weight):
    scene, cams = _ba_start()
    args, problem = _ba_full_problem(scene, cams, kind, weight,
                                     START_MODELS[kind])
    _assert_normals_match_oracle(args, problem, problem[0])


def _unequal_counts(scene):
    """The scene with camera i seeing only its first 64 - 9 i points, so
    that every camera but the first is padded in a pixel-error stack."""
    keep = [64 - 9 * i for i in range(len(scene.pixels))]
    return replace(scene,
                   pixels=[p[:n] for p, n in zip(scene.pixels, keep)],
                   point_indices=[q[:n] for q, n in
                                  zip(scene.point_indices, keep)])


def test_ba_full_normal_equations_with_unequal_observation_counts():
    # A padded camera's blocks must still run over its own rows only.
    scene, cams = _ba_start()
    args, problem = _ba_full_problem(_unequal_counts(scene), cams,
                                     "rational", 1.0,
                                     START_MODELS["rational"])
    _assert_normals_match_oracle(args, problem, problem[0])


def test_ba_full_block_jacobian_when_a_camera_column_raises():
    scene, cams = _ba_start()
    args, problem = _ba_full_problem(scene, cams, "polynomial", 1.0)
    x0, resid = problem[0], _residual(problem)
    # Camera 1 faces the target plane from 1e-9 away: every point is in
    # front, but tilting it by one difference step puts some behind it.
    x = x0.copy()
    x[7:13] = [0.0, 0.0, 0.0, 0.0, 0.0, 1e-9]
    assert not np.all(resid(x) == 1e8)
    xp, _ = forward_step(x, 7)
    assert np.all(resid(xp) == 1e8)
    _assert_oracle_is_the_dense_difference(args, problem, x)
    _assert_finite_where_a_step_fails(problem, x)


def test_ba_full_block_jacobian_when_a_focal_crosses_zero():
    scene, cams = _ba_start()
    args, problem = _ba_full_problem(scene, cams, "polynomial", 1.0)
    x0, resid = problem[0], _residual(problem)
    x = x0.copy()
    x[6] = -0.5e-7
    xp, _ = forward_step(x, 6)
    assert xp[6] > 0 and not np.all(resid(xp) == 1e8)
    _assert_sentinel_pass(problem, x)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("j", [0, 4, 6, 28],
                         ids=["rotation", "translation", "focal", "k1"])
def test_pose_residual_is_the_sentinel_at_a_non_finite_parameter(j, value):
    scene, cams = _ba_start()
    x0, fun = _ba_full_problem(scene, cams, "polynomial", 1.0)[1][:2]
    x = x0.copy()
    x[j] = value
    r, normals = fun(x)
    assert np.all(r == 1e8) and normals is None


def test_ba_full_block_jacobian_at_sentinel_residual():
    scene, cams = _ba_start()
    problem = _ba_full_problem(scene, cams, "division", 0.0)[1]
    x = problem[0].copy()
    x[7 * 2 + 5] = -100.0  # camera 2 behind the target plane
    _assert_sentinel_pass(problem, x)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case", ["pole", "model_raises"])
def test_ba_full_block_jacobian_when_a_coefficient_column_fails(case):
    # Stepping k4 either puts a pole of g on a point's radius (|g| below
    # POLE_EPS) or overflows k4 so the model refuses it; the base residual
    # is finite either way, and the oracle's column is the sentinel
    # difference.
    scene, cams = _ba_start()
    args, problem = _ba_full_problem(scene, cams, "division", 0.0)
    x0, resid = problem[0], _residual(problem)
    x = x0.copy()
    if case == "pole":
        xy = pipeline.ideal_normalized(cams[0], scene.target[
            scene.point_indices[0][:1]])
        r = float(np.hypot(*xy[0]))
        x[7 * len(cams)] = (-1.0 / r - 1e-7) / (1.0 - 1e-7)
    else:
        x[7 * len(cams)] = np.finfo(float).max
    assert np.isfinite(resid(x)).all() and not np.all(resid(x) == 1e8)
    xp, _ = forward_step(x, 7 * len(cams))
    assert np.all(resid(xp) == 1e8)
    _assert_oracle_is_the_dense_difference(args, problem, x)
    if case == "pole":
        _assert_finite_where_a_step_fails(problem, x)


def test_ba_full_block_jacobian_gives_the_dense_iterates():
    # The closed form and the forward differences lead the LM to the same
    # minimum; ba_full is the closed-form run.
    scene, cams = _ba_start()
    problem = _ba_full_problem(scene, cams, "polynomial", 0.0)[1]
    x0, fun, unpack = problem
    x_closed, trace_closed, status_closed = levenberg_marquardt(fun, x0)
    x_dense, trace_dense, status_dense = levenberg_marquardt(
        with_difference_normals(_residual(problem)), x0)
    assert status_closed == status_dense == "converged"
    assert trace_closed[-1] == pytest.approx(trace_dense[-1], rel=1e-9)
    assert np.abs(x_closed - x_dense).max() <= 1e-6 * np.abs(x_dense).max()
    cams_closed, model_closed = unpack(x_closed)
    cams_ba, model_ba, rms_ba = ba_full(scene, cams, "polynomial")
    assert model_ba.k == model_closed.k
    assert rms_ba == reprojection_rms(scene, cams_closed, model_closed)
    for a, b in zip(cams_ba, cams_closed):
        assert np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t) \
            and np.array_equal(a.K, b.K)


def test_ba_full_peaks_below_one_dense_jacobian():
    # The normal equations are assembled from camera blocks, so ba_full on
    # the default scene never holds a (residual rows x parameters) array.
    scene = add_noise(generate_scene(SceneConfig(), BARREL, 11), 1.0)
    cams = bootstrap_poses(scene, 11)
    problem = _ba_full_problem(scene, cams, "polynomial", 0.0)[1]
    dense = problem[1](problem[0])[0].nbytes * len(problem[0])
    tracemalloc.start()
    try:
        ba_full(scene, cams, "polynomial")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense


def test_ba_full_takes_one_pixel_error_pass_per_lm_point():
    # The start and every trial point get their residual and normal
    # equations from one pass; an accepted point is not projected again.
    scene, cams = _ba_start()
    passes, points = [], []
    pixel_errors, lm = pipeline._pixel_errors, pipeline.levenberg_marquardt

    def counted_errors(*args):
        passes.append(args[0].shape)
        return pixel_errors(*args)

    def counted_lm(fun, x0):
        def counted_fun(x):
            points.append(x)
            return fun(x)
        return lm(counted_fun, x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_pixel_errors", counted_errors)
        mp.setattr(pipeline, "levenberg_marquardt", counted_lm)
        ba_full(scene, cams, "polynomial")
    assert len(points) > 2
    assert 1 <= len(passes) <= len(points)


def _camera_at(cam, p):
    """``cam`` moved to the pose and focal of the 7 parameters ``p``, its
    rotation from ``rodrigues``."""
    K = cam.K.copy()
    K[0, 0] = K[1, 1] = p[6]
    return Camera(rodrigues(p[:3]), p[3:6], K)


def _one_camera_problem(weight, i=1, rotation=None):
    """ba_refine's problem for camera i: one camera, the model fixed, no
    coefficient columns.  Given ``rotation``, the world is turned so that
    the camera's rotation is ``rotation`` and its camera-frame points stay
    as they were."""
    scene, cams = _ba_start()
    view = replace(scene, pixels=[scene.pixels[i]],
                   point_indices=[scene.point_indices[i]])
    cam = cams[i]
    if rotation is not None:
        turn = rotation.T @ cam.R
        view = replace(view, target=scene.target @ turn.T)
        cam = Camera(rotation, cam.t, cam.K)
    args = (view, [cam], BARREL, (), weight)
    return args, pipeline._pose_problem(*args)


def _assert_refine_pass_agrees(args, problem, x):
    """ba_refine's row of the camera (``_camera_rows`` over the one camera,
    as ba_refine's lock-step passes call it) is its one-camera pose
    problem's residual and normal equations, bit for bit, or neither has
    normal equations."""
    scene, cams, model, _, weight = args
    rows = pipeline._camera_rows(scene, cams, (), weight)
    _, [(r, normals)] = rows(x[None], np.array([0]), model, True)
    r_joint, normals_joint = problem[1](x)
    assert np.array_equal(r, r_joint)
    assert (normals is None) == (normals_joint is None)
    for a, b in zip(normals or (), normals_joint or (), strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("weight", [0.0, 1.0])
@pytest.mark.parametrize("case", ["start", "column_raises",
                                  "focal_crosses_zero", "sentinel"])
def test_one_camera_block_jacobian(case, weight):
    args, problem = _one_camera_problem(weight)
    x0, resid = problem[0], _residual(problem)
    x = x0.copy()
    if case == "start":
        _assert_normals_match_oracle(args, problem, x)
    elif case == "column_raises":
        x[:6] = [0.0, 0.0, 0.0, 0.0, 0.0, 1e-9]
        assert not np.all(resid(x) == 1e8)
        assert np.all(resid(forward_step(x, 0)[0]) == 1e8)
        _assert_oracle_is_the_dense_difference(args, problem, x)
        _assert_finite_where_a_step_fails(problem, x)
    elif case == "focal_crosses_zero":
        x[6] = -0.5e-7
        xp, _ = forward_step(x, 6)
        assert xp[6] > 0 and not np.all(resid(xp) == 1e8)
        _assert_sentinel_pass(problem, x)
    else:
        x[5] = -100.0  # the camera behind the target plane
        _assert_sentinel_pass(problem, x)
    _assert_refine_pass_agrees(args, problem, x)


@pytest.mark.parametrize("weight", [0.0, 1.0])
@pytest.mark.parametrize("angle", [0.0, math.pi - 1e-3, math.pi - 1e-9],
                         ids=["zero", "pi-1e-3", "pi-1e-9"])
def test_one_camera_jacobian_at_extreme_rotations(angle, weight):
    # v = 0 takes the series of the left Jacobian; near pi the axis-angle
    # vector comes from the symmetric part of R.
    rotation = rodrigues(angle * np.array([1.0, -2.0, 2.0]) / 3.0)
    args, problem = _one_camera_problem(weight, rotation=rotation)
    x0 = problem[0]
    assert np.linalg.norm(x0[:3]) == pytest.approx(angle, abs=1e-12)
    _assert_normals_match_oracle(args, problem, x0)
    _assert_refine_pass_agrees(args, problem, x0)


def _pole_column_problem(column, weight, i=1):
    """The one-camera problem on a division model whose pole is the radius
    of the camera's first point under ``column``'s forward step."""
    scene, cams = _ba_start()
    view = replace(scene, pixels=[scene.pixels[i]],
                   point_indices=[scene.point_indices[i]])
    xp, _ = forward_step(pipeline._cam_params(cams[i]), column)
    stepped = _camera_at(cams[i], xp)
    xy = ideal_normalized(stepped, scene.target[scene.point_indices[i][:1]])
    r_pole = np.hypot(xy[0, 0], xy[0, 1])
    model = DistortionModel("division", (0, 0, 0, -1.0 / r_pole, 0, 0))
    args = (view, [cams[i]], model, (), weight)
    return args, pipeline._pose_problem(*args)


@pytest.mark.parametrize("weight", [0.0, 1.0])
@pytest.mark.parametrize("column", [1, 3], ids=["rotation", "translation"])
def test_one_camera_block_jacobian_when_one_column_crosses_a_pole(column,
                                                                  weight):
    # Only the stepped column raises PoleError; the oracle's stacked
    # projection must mask exactly that column.  A translation step cannot
    # put a point behind the camera (tx, ty keep depths, tz grows them),
    # so the translation column fails through the pole.
    args, problem = _pole_column_problem(column, weight)
    x0, resid = problem[0], _residual(problem)
    assert not np.all(resid(x0) == 1e8)
    crossed = [j for j in range(7)
               if np.all(resid(forward_step(x0, j)[0]) == 1e8)]
    assert crossed == [column]
    _assert_oracle_is_the_dense_difference(args, problem, x0)
    _assert_finite_where_a_step_fails(problem, x0)
    _assert_refine_pass_agrees(args, problem, x0)


def _refine_oracle(scene, cameras, model, weight):
    """ba_refine as a per-camera residual closure and a dense LM."""
    refined, statuses = [], []
    for cam, pix, idx in zip(cameras, scene.pixels, scene.point_indices):
        pts = scene.target[idx]

        def resid(p, cam=cam, pts=pts, pix=pix):
            if p[6] <= 0:
                return np.full(pix.size + 1, 1e8)
            try:
                trial = _camera_at(cam, p)
                err = (project(trial, pts, model) - pix).ravel()
            except (ValueError, ArithmeticError):
                return np.full(pix.size + 1, 1e8)
            return np.concatenate([err, [weight * math.log(p[6] / cam.focal)]])

        p, _, status = levenberg_marquardt(with_difference_normals(resid),
                                           pipeline._cam_params(cam))
        if not cam.focal / 4.0 <= p[6] <= cam.focal * 4.0:
            refined.append(cam)
            statuses.append("reverted")
            continue
        refined.append(_camera_at(cam, p))
        statuses.append(status)
    return refined, reprojection_rms(scene, refined, model), statuses


def _assert_batch_is_each_camera_alone(scene, cams0, model, weight):
    """ba_refine over all cameras equals ba_refine of each camera's own
    view, bit for bit, with the same statuses and LM traces."""
    traces = []
    lockstep = pipeline._lm_lockstep

    def traced(*a):
        out = lockstep(*a)
        traces.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_lm_lockstep", traced)
        cams, rms, statuses = ba_refine(scene, cams0, model, weight)
        for i, cam in enumerate(cams0):
            view = replace(scene, pixels=[scene.pixels[i]],
                           point_indices=[scene.point_indices[i]])
            alone, _, status = ba_refine(view, [cam], model, weight)
            assert status == [statuses[i]]
            assert traces[-1] == [traces[0][i]]
            assert np.array_equal(alone[0].R, cams[i].R) \
                and np.array_equal(alone[0].t, cams[i].t) \
                and np.array_equal(alone[0].K, cams[i].K)
    return cams, rms, statuses


@pytest.mark.parametrize("model, weight", [
    (BARREL, 0.0), (DistortionModel.identity(), 1.0)])
def test_ba_refine_matches_the_dense_oracle(model, weight):
    scene = add_noise(small_scene(seed=5, cameras=4), 0.5)
    cams0 = perturb_cameras(scene.cameras, 5)
    cams, rms, statuses = _assert_batch_is_each_camera_alone(scene, cams0,
                                                             model, weight)
    cams_ref, rms_ref, statuses_ref = _refine_oracle(scene, cams0, model,
                                                     weight)
    # Both runs stop on the relative cost improvement, so they stop at
    # slightly different points along the weakly determined focal-depth
    # direction (up to 3e-6 relative on this scene); the cost agrees far
    # closer.
    assert statuses == statuses_ref
    assert rms == pytest.approx(rms_ref, rel=1e-8)
    for a, b in zip(cams, cams_ref):
        assert np.abs(a.R - b.R).max() <= 1e-6
        assert np.abs(a.t - b.t).max() <= 1e-5 * np.abs(b.t).max()
        assert a.focal == pytest.approx(b.focal, rel=1e-5)


@pytest.mark.parametrize("weight", [0.0, 1.0])
def test_ba_refine_batches_cameras_that_see_different_point_counts(weight):
    # The batch pads every camera but the first; padding must change no
    # bit of any camera.
    scene = _unequal_counts(add_noise(small_scene(seed=5, cameras=4), 0.5))
    cams0 = perturb_cameras(scene.cameras, 5)
    cams, rms, statuses = _assert_batch_is_each_camera_alone(scene, cams0,
                                                             BARREL, weight)
    assert statuses == ["converged"] * 4
    assert rms <= 1.0


def _same_bits(a, b):
    """Equal shapes and equal bits, signed zeros included; NaNs match NaNs
    whatever their payload."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64),
                               b[~nan].view(np.int64)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(sorted(calib.KIND_INDICES)),
       derivatives=st.booleans(), behind=st.booleans(), pole=st.booleans(),
       focal=st.sampled_from([500.0, np.inf, -np.inf, np.nan]),
       unserved=st.booleans())
def test_pixel_errors_and_normal_blocks_match_their_oracles(
        seed, kind, derivatives, behind, pole, focal, unserved):
    # A stack of 5 cameras over at most 9 points, each camera its own count.
    # Camera 1 may have a non-finite focal, camera 2 may see its points
    # behind it, and camera 3, at the identity rotation, may put its first
    # point on a pole of g; the normal blocks may serve no rows of one
    # camera.  Every output equals the oracle's, bit for bit.
    rng = np.random.default_rng(seed)
    B, N = 5, 9
    counts = rng.integers(1, N + 1, size=B)
    counts[:2] = N, rng.integers(1, N)
    valid = np.arange(N) < counts[:, None]
    pts = np.zeros((B, N, 3))
    pts[..., :2] = rng.uniform(-1.0, 1.0, (B, N, 2))
    pix = rng.uniform(0.0, 640.0, (B, N, 2))
    pts[~valid], pix[~valid] = 0.0, 0.0
    angles = rng.choice([0.0, 1e-13, 1e-6, 3e-5, 1e-3, 0.3, 3.0], size=(B, 1))
    P = np.column_stack([rng.normal(size=(B, 3)) * angles,
                         rng.uniform(-0.5, 0.5, (B, 2)),
                         rng.uniform(4.0, 8.0, B), rng.uniform(400, 600, B)])
    principal = rng.uniform(300.0, 340.0, (B, 2))
    k = np.zeros(6)
    free = list(calib.KIND_INDICES["rational" if pole else kind])
    k[free] = rng.uniform(-0.05, 0.05, len(free))
    if pole:
        # R = I, so the point's radius is 0.5 exactly and g(0.5) = 0.
        k[3:] = -2.0, 0.0, 0.0
        P[3, :6] = 0.0, 0.0, 0.0, 0.0, 0.0, 1.0
        pts[3, 0] = 0.5, 0.0, 0.0
    P[1, 6] = focal
    if behind:
        P[2, 5] = -10.0
    model = DistortionModel("rational" if pole else kind, tuple(k))
    args = (valid, principal, model, free if derivatives else None)
    out = pipeline._pixel_errors(P, pts.transpose(2, 0, 1),
                                 pix.transpose(2, 0, 1), *args)
    oracle = reference_pixel_errors(P, pts, pix, *args)
    assert len(out) == len(oracle) == (3 if derivatives else 2)
    ok = out[0]
    assert np.array_equal(ok, oracle[0])
    assert list(ok[1:4]) == [focal == 500.0, not behind, not pole]
    for a, b in zip(out[1:], oracle[1:]):
        assert _same_bits(a, b)
    if derivatives:
        # As ``_camera_rows`` calls it: a camera that is not defined is not
        # served.
        served = np.where(ok, counts, 0)
        if unserved:
            served[rng.integers(B)] = 0
        for a, b in zip(pipeline._normal_blocks(out[1], out[2], served),
                        per_camera_normal_blocks(out[1], out[2], served),
                        strict=True):
            assert _same_bits(a, b)


def _refine_returning(monkeypatch, change):
    """Make ba_refine's lock-step LM return its parameters changed in place
    by ``change``."""
    lockstep = pipeline._lm_lockstep

    def changed(*args):
        X, traces, statuses = lockstep(*args)
        change(X)
        return X, traces, statuses

    monkeypatch.setattr(pipeline, "_lm_lockstep", changed)


def test_ba_refine_rms_is_the_reprojection_rms(monkeypatch):
    # The RMS comes from one pixel-error pass at the returned cameras, a
    # reverted camera at its start, and projects no point.
    scene = add_noise(small_scene(seed=5, cameras=4), 0.5)
    cams0 = perturb_cameras(scene.cameras, 5)
    projections, project_ = [], pipeline.project
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "project",
                   lambda *a: projections.append(a) or project_(*a))
        cams, rms, statuses = ba_refine(scene, cams0, BARREL)
    assert not projections and "reverted" not in statuses
    assert rms == pytest.approx(reprojection_rms(scene, cams, BARREL),
                                rel=1e-12)

    def escape(X):
        X[2, 6] *= 5.0

    _refine_returning(monkeypatch, escape)
    cams, rms, statuses = ba_refine(scene, cams0, BARREL, 1.0)
    assert statuses[2] == "reverted" and cams[2] is cams0[2]
    assert rms == pytest.approx(reprojection_rms(scene, cams, BARREL),
                                rel=1e-12)


def test_ba_refine_rms_raises_where_a_returned_camera_sees_behind_it(
        monkeypatch):
    scene = add_noise(small_scene(seed=5, cameras=4), 0.5)
    cams0 = perturb_cameras(scene.cameras, 5)

    def flip(X):
        X[1, 5] = -X[1, 5]

    _refine_returning(monkeypatch, flip)
    with pytest.raises(ValueError, match="point behind the camera"):
        ba_refine(scene, cams0, BARREL)


@pytest.mark.parametrize("start", ["behind", "negative_focal"])
def test_refinement_stops_a_camera_at_an_undefined_start(monkeypatch, start):
    # Camera 1 starts with its points behind it, or with a negative focal:
    # its residual has no normal equations there, so its LM problem stops
    # at once as undefined.  The other cameras refine as they do without
    # it, in as many pixel-error passes.  A camera with a negative focal
    # cannot be built, so that start goes to ``ba_refine``'s LM problem as
    # parameters.
    scene = add_noise(small_scene(seed=5, cameras=4), 0.5)
    cams0 = perturb_cameras(scene.cameras, 5)
    cam = cams0[1]
    runs, passes = [], []
    lockstep, pixel_errors = pipeline._lm_lockstep, pipeline._pixel_errors

    def traced(*a):
        X, traces, statuses = lockstep(*a)
        runs.append((X.copy(), traces, statuses))  # before any revert
        return X, traces, statuses

    monkeypatch.setattr(pipeline, "_lm_lockstep", traced)
    monkeypatch.setattr(pipeline, "_pixel_errors",
                        lambda *a: passes.append(a) or pixel_errors(*a))
    keep = [0, 2, 3]
    others = replace(scene, pixels=[scene.pixels[i] for i in keep],
                     point_indices=[scene.point_indices[i] for i in keep])
    ba_refine(others, [cams0[i] for i in keep], BARREL)
    passes_without = len(passes)
    passes.clear()
    if start == "behind":
        cams0[1] = Camera(cam.R, cam.t * [1.0, 1.0, -1.0], cam.K)
        X0 = np.array([pipeline._cam_params(c) for c in cams0])
        with pytest.raises(ValueError, match="point behind the camera"):
            ba_refine(scene, cams0, BARREL)
    else:
        with pytest.raises(ValueError, match="focal length must be positive"):
            Camera(cam.R, cam.t, cam.K * [[-1.0], [-1.0], [1.0]])
        rows = pipeline._camera_rows(scene, cams0, (), 0.0)
        X0 = np.array([pipeline._cam_params(c) for c in cams0])
        X0[1, 6] = -X0[1, 6]
        pipeline._lm_lockstep(lambda X, cams: rows(X, cams, BARREL, True)[1],
                              X0.copy())
        passes.append("rms")  # the pass ba_refine takes after its LM
    assert len(passes) == passes_without
    (X_without, _, statuses_without), (X, traces, statuses) = runs
    assert statuses[1] == "undefined" and len(traces[1]) == 1
    assert X[1].tobytes() == X0[1].tobytes()
    assert X[keep].tobytes() == X_without.tobytes()
    assert [statuses[i] for i in keep] == statuses_without
    if start == "behind":
        with pytest.raises(ValueError, match="point behind the camera"):
            ba_full(scene, cams0, "polynomial")
        assert runs[-1][2] == ["undefined"]


def test_camera_rejects_what_the_projection_cannot_use():
    R, t = rodrigues([0.1, -0.2, 0.3]), np.array([0.5, -0.1, 12.0])
    K = np.array([[512.5, 0.0, 320.0], [0.0, 512.5, 240.0], [0.0, 0.0, 1.0]])
    Camera(R, t, K)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="orthonormal"):
            Camera(rodrigues([np.nan, 0.0, 0.0]), t, K)
        with pytest.raises(ValueError):
            rodrigues([np.inf, 0.0, 0.0])
    for bad_t in ([0.0, np.inf, 1.0], [np.nan, 0.0, 5.0]):
        with pytest.raises(ValueError, match="finite"):
            Camera(R, bad_t, K)
    for (row, col), value, reason in (((0, 0), np.nan, "finite"),
                                      ((1, 1), np.inf, "finite"),
                                      ((0, 1), 0.5, "no skew")):
        bad = K.copy()
        bad[row, col] = value
        with pytest.raises(ValueError, match=reason):
            Camera(R, t, bad)
    # The pose residual is undefined at a focal that is not positive.
    for focal in (-512.5, 0.0):
        bad = K.copy()
        bad[0, 0] = bad[1, 1] = focal
        with pytest.raises(ValueError, match="focal length must be positive"):
            Camera(R, t, bad)
    # An fy that differs from fx would be ignored by ``project``.
    with pytest.raises(ValueError, match="equal focal lengths"):
        Camera(np.eye(3), [0, 0, 5], [[500, 0, 320], [0, 1000, 240],
                                      [0, 0, 1]])
    with pytest.raises(ValueError, match="proper rotation"):
        Camera(np.diag([1.0, 1.0, -1.0]), t, K)
    with pytest.raises(ValueError, match="orthonormal"):
        Camera(1.01 * np.eye(3), t, K)
    with pytest.raises(ValueError, match="orthonormal"):
        Camera(np.full((3, 3), np.nan), t, K)
    # np.allclose's relative tolerance of 1e-5 holds on the diagonal.
    Camera(np.diag([1 + 4e-6] * 3), t, K)


def test_correspondences_shapes_and_units():
    scene = small_scene()
    data = correspondences(scene, scene.cameras)
    assert data.shape == (3 * 64, 4)
    r_ideal = np.hypot(data[:, 0], data[:, 1])
    r_obs = np.hypot(data[:, 2], data[:, 3])
    # Barrel distortion shrinks radii.
    assert (r_obs <= r_ideal + 1e-12).all()


def test_validation_rms_zero_at_truth():
    scene = small_scene(seed=8)
    val = validation_points(scene, grid=15)
    assert validation_rms(val, scene.cameras, scene.true_model) <= 1e-9
    for X, pix in val:
        assert len(X) == len(pix)
        assert len(X) >= 0.9 * 15 * 15


def _counted_undistortion(monkeypatch):
    """Count the undistortions ``validation_points`` asks for."""
    calls, undistort = [], pipeline.undistort_points

    def counted(*args):
        calls.append(args)
        return undistort(*args)

    monkeypatch.setattr(pipeline, "undistort_points", counted)
    return calls


def _assert_lattices_are_each_cameras_own(scene, val):
    # What undistorting each camera alone gives, bit for bit.
    for cam, (X, pix) in zip(scene.cameras, val, strict=True):
        [(X_own, pix_own)] = validation_points(replace(scene, cameras=[cam]),
                                               grid=15)
        assert np.array_equal(X, X_own) and np.array_equal(pix, pix_own)


def test_validation_points_undistort_once_for_cameras_that_share_k(
        monkeypatch):
    scene = small_scene(seed=8)
    calls = _counted_undistortion(monkeypatch)
    val = validation_points(scene, grid=15)
    assert len(calls) == 1
    _assert_lattices_are_each_cameras_own(scene, val)


def test_validation_points_of_a_camera_with_its_own_focal(monkeypatch):
    scene = small_scene(seed=8)
    cam = scene.cameras[1]
    K = cam.K.copy()
    K[0, 0] = K[1, 1] = 600.0
    scene = replace(scene, cameras=[scene.cameras[0], Camera(cam.R, cam.t, K),
                                    scene.cameras[2]])
    calls = _counted_undistortion(monkeypatch)
    val = validation_points(scene, grid=15)
    assert len(calls) == 2
    _assert_lattices_are_each_cameras_own(scene, val)
    [(X_shared, _)] = validation_points(replace(scene, cameras=[cam]),
                                        grid=15)
    assert not np.array_equal(val[1][0], X_shared)


def _so_fit(scene, cameras, cfg):
    """The shape-constrained fit of the correspondences at ``cameras``."""
    return calib.solve_shape(
        calib.assemble_cost(correspondences(scene, cameras)), cfg)


def test_aso_loop_noiseless_trace_non_increasing():
    scene = small_scene(seed=9)
    cams0 = perturb_cameras(scene.cameras, 9)
    cams_init, _, _ = ba_refine(scene, cams0, DistortionModel.identity())
    cfg = calib.CalibConfig(rbar=1.0, shape="barrel")
    result, cams, trace = aso_loop(scene, cams_init, cfg,
                                   _so_fit(scene, cams_init, cfg), 4)
    assert result.solver_status == "optimal"
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9


def test_aso_after_full_ba_reaches_truth_on_noiseless_data():
    scene = small_scene(seed=9)
    cams0 = perturb_cameras(scene.cameras, 9)
    cams_init, _, _ = ba_refine(scene, cams0, DistortionModel.identity())
    cams_ba, _, _ = ba_full(scene, cams_init, "polynomial")
    cfg = calib.CalibConfig(rbar=1.0, shape="barrel")
    result, cams, trace = aso_loop(scene, cams_ba, cfg,
                                   _so_fit(scene, cams_ba, cfg), 3)
    assert trace[-1] <= 1e-4
    assert np.abs(np.array(result.model.k) - BARREL.k).max() <= 1e-3


def test_aso_single_iteration_is_so_composition():
    # One pass returns the fit it was handed and refines the cameras with
    # its model.
    scene = small_scene(seed=10)
    cams0 = perturb_cameras(scene.cameras, 10)
    cfg = calib.CalibConfig(rbar=1.0, shape="barrel")
    first = _so_fit(scene, cams0, cfg)
    result, cams, trace = aso_loop(scene, cams0, cfg, first, 1)
    assert result is first
    cams_ref, rms_ref, _ = ba_refine(scene, cams0, first.model)
    assert trace == [rms_ref]
    for a, b in zip(cams, cams_ref):
        assert np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t) \
            and np.array_equal(a.K, b.K)


def test_run_experiment_noiseless_consistency():
    cfg = ExperimentConfig(shape="barrel", sigmas=(0.0,), trials=1, seed=1,
                           scene=SceneConfig(target_rows=8, target_cols=8,
                                             cameras=4))
    report = run_experiment(cfg)
    assert not report.config["errors"]
    methods = {r["method"] for r in report.records}
    assert methods == {"BA", "SO", "ASO"}
    for rec in report.records:
        assert rec["calib_rms"] <= 1e-3
        if rec["method"] in ("SO", "ASO"):
            assert rec["shape_violations"] == 0


def test_experiment_report_roundtrip_and_csv():
    cfg = ExperimentConfig(shape="barrel", sigmas=(0.0,), trials=1, seed=2,
                           scene=SceneConfig(target_rows=6, target_cols=6,
                                             cameras=3))
    report = run_experiment(cfg)
    text = report.to_json()
    back = ExperimentReport.from_json(text)
    assert back.to_json() == text
    csv = report.to_csv()
    assert csv.splitlines()[0] == \
        "method,sigma,trial,calib_rms,valid_rms,shape_violations"
    assert len(csv.splitlines()) == len(report.records) + 1


@pytest.mark.parametrize("kwargs, message", [
    ({"shape": "none"}, "unknown shape 'none'"),
    ({"shape": "bogus"}, "unknown shape 'bogus'"),
    ({"sigmas": (0.5, -1.0)}, "sigmas must be nonnegative and finite"),
    ({"sigmas": (np.inf,)}, "sigmas must be nonnegative and finite"),
    ({"sigmas": (0.0, np.nan)}, "sigmas must be nonnegative and finite"),
    ({"rbar": -1.0}, "rbar must be positive and finite"),
    ({"margin_p": 1.5}, "margin_p must lie strictly between 0 and 1"),
    ({"trials": 0}, "need at least one trial"),
    ({"aso_iterations": 0}, "need at least one ASO iteration"),
])
def test_experiment_config_rejects_what_it_cannot_run(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_run_experiment_records_a_failed_trial(monkeypatch, procs):
    # The report is the same bytes whichever process ran which job.
    cfg = ExperimentConfig(shape="barrel", sigmas=(0.0, 0.5), trials=2,
                           seed=4, aso_iterations=1,
                           scene=SceneConfig(target_rows=6, target_cols=6,
                                             cameras=3))
    original = pipeline._one_trial

    def one_trial(cfg, sigma, trial):
        if (sigma, trial) == (0.5, 0):
            raise RuntimeError("injected failure")
        return original(cfg, sigma, trial)

    monkeypatch.setattr(pipeline, "_one_trial", one_trial)
    monkeypatch.setattr(pipeline, "_process_count", lambda jobs: procs)
    report = run_experiment(cfg)
    assert multiprocessing.active_children() == []
    assert report.config["errors"] == [
        {"sigma": 0.5, "trial": 0,
         "error": "RuntimeError: injected failure"}]
    assert [(r["sigma"], r["trial"], r["method"]) for r in report.records] \
        == [(sigma, trial, method)
            for sigma, trial in [(0.0, 0), (0.0, 1), (0.5, 1)]
            for method in ("BA", "SO", "ASO")]
    monkeypatch.setattr(pipeline, "_process_count", lambda jobs: 1)
    assert run_experiment(cfg).to_json() == report.to_json()


def _job_record(sigma, trial):
    return [{"method": "BA", "sigma": float(sigma), "trial": trial,
             "calib_rms": 0.0, "valid_rms": 0.0, "shape_violations": 0}]


def test_run_experiment_records_a_worker_that_exits(monkeypatch, tmp_path):
    # This process runs job 0 and waits in it until the one worker has
    # claimed jobs 1 to 3: it reports job 1, job 2 raises, and it exits
    # with code 3 in job 3.  This process then runs jobs 4 and 5.
    cfg = ExperimentConfig(shape="barrel", sigmas=(0.0, 0.5), trials=3)
    parent, exited = os.getpid(), tmp_path / "exited"

    def one_trial(cfg, sigma, trial):
        job = cfg.sigmas.index(sigma) * cfg.trials + trial
        if os.getpid() == parent:
            deadline = time.monotonic() + 60.0
            while job == 0 and not exited.exists() \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
        elif job == 2:
            raise RuntimeError("injected failure")
        elif job == 3:
            exited.touch()
            os._exit(3)
        return _job_record(sigma, trial)

    monkeypatch.setattr(pipeline, "_one_trial", one_trial)
    monkeypatch.setattr(pipeline, "_process_count", lambda jobs: 2)
    report = run_experiment(cfg)
    assert multiprocessing.active_children() == []
    assert report.config["errors"] == [
        {"sigma": 0.0, "trial": 2, "error": "RuntimeError: injected failure"},
        {"sigma": 0.5, "trial": 0, "error": "WorkerExited: exit code 3"}]
    assert [(r["sigma"], r["trial"]) for r in report.records] == [
        (0.0, 0), (0.0, 1), (0.5, 1), (0.5, 2)]


def test_run_experiment_runs_each_job_once_in_more_processes_than_cpus(
        monkeypatch, tmp_path):
    # A lost update of the shared counter would run some job twice.
    cfg = ExperimentConfig(shape="barrel", sigmas=(0.0, 0.5), trials=100)
    ran = tmp_path / "ran"

    def one_trial(cfg, sigma, trial):
        with open(ran, "a") as fh:   # one short O_APPEND write per job
            fh.write(f"{sigma} {trial}\n")
        return _job_record(sigma, trial)

    monkeypatch.setattr(pipeline, "_one_trial", one_trial)
    monkeypatch.setattr(pipeline, "_process_count",
                        lambda jobs: 2 * len(os.sched_getaffinity(0)) + 1)
    start = time.monotonic()
    report = run_experiment(cfg)
    assert time.monotonic() - start < 60.0
    assert multiprocessing.active_children() == []
    assert not report.config["errors"]
    jobs = [(sigma, trial) for sigma in cfg.sigmas
            for trial in range(cfg.trials)]
    assert [(r["sigma"], r["trial"]) for r in report.records] == jobs
    assert sorted(ran.read_text().splitlines()) \
        == sorted(f"{sigma} {trial}" for sigma, trial in jobs)


def test_run_experiment_stops_its_workers_on_an_interrupt(monkeypatch):
    cfg = ExperimentConfig(shape="barrel", sigmas=(0.0,), trials=4)
    parent = os.getpid()

    def one_trial(cfg, sigma, trial):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60.0)
        return _job_record(sigma, trial)

    monkeypatch.setattr(pipeline, "_one_trial", one_trial)
    monkeypatch.setattr(pipeline, "_process_count", lambda jobs: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg)
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30.0


@pytest.mark.parametrize("env, jobs, methods, expected", [
    ({}, 12, None, 1),                     # BLAS threads default to the CPUs
    ({"OPENBLAS_NUM_THREADS": "1"}, 12, None, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 12, None, 2),
    ({"OPENBLAS_NUM_THREADS": "8"}, 12, None, 1),
    ({"OPENBLAS_NUM_THREADS": "one"}, 12, None, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 12, None, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 12, None, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"}, 12, None, 2),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 12, None, 2),
    ({"GOTO_NUM_THREADS": "-1", "OMP_NUM_THREADS": "1"}, 12, None, 4),
    ({"OMP_NUM_THREADS": "1"}, 3, None, 3),  # fewer jobs than CPUs
    ({"OMP_NUM_THREADS": "1"}, 1, None, 1),
    ({"OMP_NUM_THREADS": "1"}, 12, ["spawn", "forkserver"], 1),
])
def test_process_count_divides_the_cpus_by_the_blas_threads(
        monkeypatch, env, jobs, methods, expected):
    for name in pipeline.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    if methods is not None:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: methods)
    assert pipeline._process_count(jobs) == expected


def test_trial_hands_its_so_fit_to_the_first_aso_pass(monkeypatch):
    cfg = ExperimentConfig(shape="barrel", sigmas=(0.5,), trials=1, seed=4,
                           aso_iterations=3,
                           scene=SceneConfig(target_rows=6, target_cols=6,
                                             cameras=3))
    fits, passes = [], []
    solve_shape, loop = calib.solve_shape, pipeline.aso_loop

    def counted(cost, ccfg):
        fits.append(cost)
        return solve_shape(cost, ccfg)

    def traced(*args, **kwargs):
        out = loop(*args, **kwargs)
        passes.append(len(out[2]))
        return out

    monkeypatch.setattr(calib, "solve_shape", counted)
    monkeypatch.setattr(pipeline, "aso_loop", traced)
    records = pipeline._one_trial(cfg, 0.5, 0)
    assert passes == [3] and len(fits) == 3
    # Handing the loop a freshly solved first fit in place of the SO fit
    # gives the same records byte for byte.
    monkeypatch.setattr(pipeline, "aso_loop",
                        lambda scene, cams, ccfg, first, iterations: loop(
                            scene, cams, ccfg, _so_fit(scene, cams, ccfg),
                            iterations))
    fits.clear()
    assert json.dumps(pipeline._one_trial(cfg, 0.5, 0)) == json.dumps(records)
    assert len(fits) == 4


def test_scene_json_roundtrip():
    scene = small_scene(seed=12)
    text = scene_to_json(scene)
    back = scene_from_json(text)
    assert np.array_equal(back.target, scene.target)
    assert np.array_equal(back.pixels[0], scene.pixels[0])
    assert back.true_model == scene.true_model
    assert scene_to_json(back) == text


def test_positivity_aso_keeps_denominator_clear():
    model = pipeline.DEFAULT_TRUE_MODELS["positivity"]
    cfg = SceneConfig(target_rows=8, target_cols=8, cameras=3)
    scene = generate_scene(cfg, model, 13)
    noisy = add_noise(scene, 1.0)
    cams0 = perturb_cameras(scene.cameras, 13)
    cams_init, _, _ = ba_refine(noisy, cams0, DistortionModel.identity())
    ccfg = calib.CalibConfig(rbar=1.0, margin_p=0.1, shape="positivity")
    result, cams, trace = aso_loop(noisy, cams_init, ccfg,
                                   _so_fit(noisy, cams_init, ccfg), 3)
    rs = np.linspace(0, 1.0, 2001)
    g = np.polyval(np.array(result.model.g_coeffs)[::-1], rs)
    assert g.min() >= 0.1 - 1e-6
