"""Synthetic calibration scenes and the alternating shape-optimization loop.

A scene is a planar point target observed by pinhole cameras placed on a
hemisphere around it and rotated to face its center, with a ground-truth
radial distortion applied to every projection and optional Gaussian pixel
noise.  Camera distances are adjusted so the target covers a configurable
fraction of the field of view; the default half covers the middle of the
image, which leaves the corners unconstrained by calibration data and makes
extrapolation quality measurable.

On top of the scene generator sit the pose estimation pieces:

* ``ba_refine``: per-camera Levenberg-Marquardt over (rotation, translation,
  focal length) with the distortion model held fixed;
* ``ba_full``: the classical joint bundle adjustment baseline with the
  distortion coefficients as free variables;
* both refinements solve a ``_pose_problem``, which gives them one residual
  and one block forward-difference Jacobian, both from one pixel-error
  function;
* ``aso_loop``: alternation of the shape-constrained distortion solve with
  ``ba_refine``;
* ``run_experiment``: the BA / SO / ASO comparison over noise levels, with
  per-trial seeds split deterministically from one master seed and the
  trials run one after another in job order, so reports are
  byte-reproducible.

Validation error is measured on a fresh per-camera grid of ground-truth
points whose true projections cover the full image including the corners.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import calib
from .distortion import (POLE_EPS, SHAPES, DistortionModel, shape_check,
                         undistort_points)


@dataclass
class SceneConfig:
    target_rows: int = 16
    target_cols: int = 16
    spacing: float = 1.0
    cameras: int = 9
    image_width: int = 640
    image_height: int = 480
    focal: float = 540.0
    # Fraction of the image half-diagonal the target's projection spans.
    coverage: float = 0.5
    # Hemisphere polar angle range for camera placement, degrees from the
    # target normal.
    polar_max_deg: float = 50.0

    def __post_init__(self):
        if self.target_rows < 2 or self.target_cols < 2:
            raise ValueError("target must be at least 2x2")
        if self.cameras < 1:
            raise ValueError("need at least one camera")
        for name in ("spacing", "focal", "coverage"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class Camera:
    R: np.ndarray
    t: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.K = np.asarray(self.K, dtype=float)
        # np.allclose(R R', I, atol=1e-10) written out; False for NaN too.
        eye = np.eye(3)
        if not (np.abs(self.R @ self.R.T - eye) <= 1e-10 + 1e-5 * eye).all():
            raise ValueError("R is not orthonormal")
        if np.linalg.det(self.R) < 0:
            raise ValueError("R must be a proper rotation")
        if not (np.isfinite(self.t).all() and np.isfinite(self.K).all()):
            raise ValueError("t and K must be finite")
        if abs(self.K[2, 2] - 1.0) > 1e-12 or abs(self.K[1, 0]) > 1e-12 \
                or abs(self.K[2, 0]) > 1e-12 or abs(self.K[2, 1]) > 1e-12:
            raise ValueError("K must be upper triangular with K[2,2] = 1")
        # ``project`` scales both axes by K[0,0].
        if abs(self.K[1, 1] - self.K[0, 0]) > 1e-12 \
                or abs(self.K[0, 1]) > 1e-12:
            raise ValueError("K must have equal focal lengths and no skew")

    @property
    def focal(self):
        return float(self.K[0, 0])

    @property
    def principal(self):
        return np.array([self.K[0, 2], self.K[1, 2]])


@dataclass
class Scene:
    config: SceneConfig
    target: np.ndarray           # (N, 3) planar points, z = 0
    cameras: list
    true_model: DistortionModel
    point_indices: list          # per camera, (N,) indices into target
    pixels: list                 # per camera, (N, 2) observed pixels
    noise_sigma: float
    seed: int


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

def rodrigues(rvec):
    """Axis-angle vector to rotation matrix."""
    rvec = np.asarray(rvec, dtype=float)
    theta = np.linalg.norm(rvec)
    if theta < 1e-12:
        K = _hat(rvec)
        return np.eye(3) + K  # first order; exact at zero
    k = rvec / theta
    K = _hat(k)
    return np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)


def rodrigues_inverse(R):
    """Rotation matrix to axis-angle vector."""
    cos_theta = max(-1.0, min(1.0, (np.trace(R) - 1.0) / 2.0))
    theta = math.acos(cos_theta)
    skew = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < 1e-12:
        return skew / 2.0
    if abs(theta - math.pi) < 1e-6:
        # Near pi the skew part 2 sin(theta) a vanishes.  The symmetric part
        # B = (1 - cos theta) a a' gives the axis up to sign from its row of
        # largest diagonal; the skew part still carries the overall sign.
        B = (R + R.T) / 2.0 - cos_theta * np.eye(3)
        axis = B[int(np.argmax(np.diag(B)))]
        axis = axis / np.linalg.norm(axis)
        if axis @ skew < 0:
            axis = -axis
        return axis * theta
    return skew / (2.0 * math.sin(theta)) * theta


def _hat(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def look_at(position, target_point, up_hint):
    """Rotation of a camera at ``position`` whose z axis points at the target."""
    z = np.asarray(target_point, dtype=float) - np.asarray(position, dtype=float)
    z = z / np.linalg.norm(z)
    x = np.cross(up_hint, z)
    nx = np.linalg.norm(x)
    if nx < 1e-9:
        x = np.cross(np.array([1.0, 0.0, 0.0]), z)
        nx = np.linalg.norm(x)
    x = x / nx
    y = np.cross(z, x)
    R_wc = np.stack([x, y, z], axis=0)   # world -> camera axes as rows
    return R_wc


# ---------------------------------------------------------------------------
# Projection and scene synthesis
# ---------------------------------------------------------------------------

def ideal_normalized(camera, X):
    """Undistorted normalized coordinates of world points; depth must be > 0."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pc = X @ camera.R.T + camera.t
    if np.any(pc[:, 2] <= 0):
        raise ValueError("point behind the camera (non-positive depth)")
    return pc[:, :2] / pc[:, 2:3]


def project(camera, X, model):
    """Pixel projections of world points under a radial distortion model."""
    xy = ideal_normalized(camera, X)
    r = np.hypot(xy[:, 0], xy[:, 1])
    scaled = xy * model.L(r)[:, None]
    return scaled * camera.focal + camera.principal


def _rng(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tags))


def _target_grid(cfg):
    xs = (np.arange(cfg.target_cols) - (cfg.target_cols - 1) / 2.0) * cfg.spacing
    ys = (np.arange(cfg.target_rows) - (cfg.target_rows - 1) / 2.0) * cfg.spacing
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)


def generate_scene(cfg, model, seed):
    """Deterministic synthetic scene; same seed, same bytes.

    Cameras sit on a hemisphere over the target plane, face the target
    center with a randomized roll, and have their distances tuned so the
    undistorted projection of the target spans ``coverage`` of the image
    half-diagonal.  All observations stay inside the image.
    """
    rng = _rng(seed, 0)
    target = _target_grid(cfg)
    half_diag_norm = math.hypot(cfg.image_width / 2.0, cfg.image_height / 2.0) \
        / cfg.focal
    rho_target = cfg.coverage * half_diag_norm
    K = np.array([[cfg.focal, 0.0, cfg.image_width / 2.0],
                  [0.0, cfg.focal, cfg.image_height / 2.0],
                  [0.0, 0.0, 1.0]])
    target_radius = float(np.linalg.norm(target[:, :2], axis=1).max())

    cameras = []
    pixels = []
    indices = []
    for _ in range(cfg.cameras):
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        polar = math.radians(rng.uniform(0.0, cfg.polar_max_deg))
        direction = np.array([math.sin(polar) * math.cos(azimuth),
                              math.sin(polar) * math.sin(azimuth),
                              math.cos(polar)])
        roll = rng.uniform(0.0, 2.0 * math.pi)
        up = np.array([math.cos(roll), math.sin(roll), 0.0])
        distance = 3.0 * target_radius
        cam = None
        for _ in range(3):
            position = direction * distance
            R = look_at(position, np.zeros(3), up)
            cam = Camera(R, -R @ position, K)
            xy = ideal_normalized(cam, target)
            rho = float(np.hypot(xy[:, 0], xy[:, 1]).max())
            distance *= rho / rho_target
        position = direction * distance
        R = look_at(position, np.zeros(3), up)
        cam = Camera(R, -R @ position, K)
        cameras.append(cam)
        pixels.append(project(cam, target, model))
        indices.append(np.arange(len(target)))

    return Scene(cfg, target, cameras, model, indices, pixels, 0.0, int(seed))


def add_noise(scene, sigma):
    """Additive i.i.d. Gaussian pixel noise, seeded from the scene seed.

    sigma = 0 returns an identical copy; the noise stream depends on the
    scene seed and sigma only, so repeated calls agree bit for bit.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative and finite")
    if sigma == 0:
        return replace(scene, pixels=[p.copy() for p in scene.pixels])
    rng = _rng(scene.seed, 1, int(round(sigma * 1e9)))
    noisy = [p + rng.normal(scale=sigma, size=p.shape) for p in scene.pixels]
    return replace(scene, pixels=noisy, noise_sigma=float(sigma))


# Pose error of ``perturb_cameras``: rotation in degrees, relative
# translation and focal-length scales.
PERTURB_ROT_DEG = 0.5
PERTURB_TRANS_FRAC = 0.005
PERTURB_FOCAL_FRAC = 0.01


def perturb_cameras(cameras, seed):
    """Randomly perturbed copies of ground-truth cameras.

    Stand-in for an external pose bootstrap: rotations by
    ``PERTURB_ROT_DEG`` degrees around random axes, translations and focal
    lengths by the ``PERTURB_*_FRAC`` relative fractions.
    """
    rng = _rng(seed, 2)
    out = []
    for cam in cameras:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        dR = rodrigues(axis * math.radians(PERTURB_ROT_DEG))
        t = cam.t * (1.0 + PERTURB_TRANS_FRAC * rng.normal(size=3))
        f = cam.focal * (1.0 + PERTURB_FOCAL_FRAC * rng.normal())
        K = cam.K.copy()
        K[0, 0] = K[1, 1] = f
        out.append(Camera(dR @ cam.R, t, K))
    return out


# ---------------------------------------------------------------------------
# Levenberg-Marquardt
# ---------------------------------------------------------------------------

# Every Levenberg-Marquardt run: iteration cap, relative-improvement stop,
# initial damping, and the damping past which no step can help (diverged).
LM_MAX_ITERATIONS = 100
LM_REL_TOL = 1e-10
LM_DAMPING = 1e-3
LM_DAMPING_MAX = 1e12


def levenberg_marquardt(fun, x0, jacobian):
    """Damped least squares on the residual vector ``fun(x)``.

    ``jacobian(x, r)`` returns the Jacobian of ``fun`` at ``x``, given
    ``r = fun(x)``; the pose refinements pass their problem's block
    forward differences (``_pose_problem``).  Only improving steps are
    accepted, so the cost trace is non-increasing; stops on relative
    improvement below ``LM_REL_TOL``, after ``LM_MAX_ITERATIONS``
    iterations, or with the damping exceeding ``LM_DAMPING_MAX`` (reported
    as diverged).
    """
    x = np.asarray(x0, dtype=float).copy()
    r = fun(x)
    cost = float(r @ r)
    trace = [cost]
    damping = LM_DAMPING
    status = "maxIterations"
    for _ in range(LM_MAX_ITERATIONS):
        J = jacobian(x, r)
        g = J.T @ r
        H = J.T @ J
        accepted = False
        while damping <= LM_DAMPING_MAX:
            try:
                step = np.linalg.solve(H + damping * np.diag(np.maximum(
                    np.diag(H), 1e-12)), -g)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            x_new = x + step
            r_new = fun(x_new)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                x, r, cost = x_new, r_new, cost_new
                damping = max(damping / 3.0, 1e-12)
                accepted = True
                break
            damping *= 10.0
        trace.append(cost)
        if not accepted:
            status = "diverged" if damping > LM_DAMPING_MAX else "stalled"
            break
        if len(trace) >= 2 and \
                trace[-2] - trace[-1] <= LM_REL_TOL * (1.0 + trace[-2]):
            status = "converged"
            break
    return x, trace, status


def _num_jacobian(fun, x, r0):
    n = len(x)
    J = np.empty((len(r0), n))
    for j in range(n):
        xp, h = _forward_step(x, j)
        J[:, j] = (fun(xp) - r0) / h
    return J


def _step_size(v):
    """Forward-difference step for parameters of value v."""
    return 1e-7 * (1.0 + np.abs(v))


def _forward_step(x, j):
    h = _step_size(x[j])
    xp = x.copy()
    xp[j] += h
    return xp, h


def _cam_params(cam):
    return np.concatenate([rodrigues_inverse(cam.R), cam.t, [cam.focal]])


# Weight of the optional log-focal prior used by the distortion-blind
# bootstrap: near-frontal planar views leave the focal-depth gauge almost
# free, and at high noise a refinement that ignores distortion can slide
# down it; one unit is far below the pixel noise for observable changes.
BOOTSTRAP_FOCAL_PRIOR = 1.0


def ba_refine(scene, cameras, model, focal_prior_weight=0.0):
    """Pose refinement with the distortion model frozen.

    Cameras decouple given a fixed model and fixed target, so each runs its
    own Levenberg-Marquardt over (axis-angle rotation, translation, focal)
    on its one-camera ``_pose_problem`` with no free coefficients.
    ``focal_prior_weight`` optionally weights the log-focal residual against
    the starting value, which pins the focal-depth gauge of near-frontal
    planar views; a camera whose focal escapes a factor of four regardless
    is reverted to its starting pose and reported as such.  Returns
    (refined cameras, pixel RMS, per-camera LM statuses).
    """
    refined = []
    statuses = []
    for cam, pix, idx in zip(cameras, scene.pixels, scene.point_indices):
        view = replace(scene, pixels=[pix], point_indices=[idx])
        x0, resid, jacobian, unpack = _pose_problem(view, [cam], model, (),
                                                    focal_prior_weight)
        p_opt, trace, status = levenberg_marquardt(resid, x0, jacobian)
        if not (cam.focal / 4.0 <= p_opt[6] <= cam.focal * 4.0):
            refined.append(cam)
            statuses.append("reverted")
            continue
        refined.append(unpack(p_opt)[0][0])
        statuses.append(status)
    return refined, reprojection_rms(scene, refined, model), statuses


def ba_full(scene, cameras, kind):
    """Classical joint bundle adjustment with free distortion coefficients.

    One Levenberg-Marquardt over all camera parameters plus the active
    coefficients of the model kind, on the same ``_pose_problem`` as
    ``ba_refine``; its log-focal prior rows carry weight zero.  Returns
    (cameras, model, pixel RMS).
    """
    x0, resid, jacobian, unpack = _pose_problem(
        scene, cameras, DistortionModel.identity(kind),
        calib.KIND_INDICES[kind], 0.0)
    p_opt = levenberg_marquardt(resid, x0, jacobian)[0]
    cams, model = unpack(p_opt)
    return cams, model, reprojection_rms(scene, cams, model)


def _pose_problem(scene, cameras, model, free, focal_prior_weight):
    """Start point, residual, Jacobian and unpacking of a pose refinement.

    The cameras pair with the scene's observation lists in order.  The
    parameters are 7 per camera (axis-angle, translation, focal), then the
    coefficients of ``model`` indexed by ``free``; the others stay fixed.
    The residual stacks each camera's pixel errors, then one log-focal
    prior row per camera, ``focal_prior_weight * log(focal / start)``; any
    failure gives the sentinel vector of 1e8.  One function, ``errors``,
    gives the pixel errors for the residual and for both kinds of Jacobian
    column, in ``project``'s arithmetic.  ``jacobian(x, r0)`` with
    ``r0 = resid(x)`` equals ``_num_jacobian(resid, x, r0)`` bit for bit:
    a camera's 7 columns come from one stacked (7, N, 3) array of stepped
    camera-frame points, a coefficient column re-evaluates the base points
    with the stepped coefficient, and a column whose step fails as
    ``resid`` would gets the sentinel difference.  Every column at a
    sentinel or non-finite ``r0`` differences the whole residual.  Returns
    ``(x0, resid, jacobian, unpack)``.
    """
    free = list(free)
    ncam = len(cameras)
    f0s = np.array([c.focal for c in cameras])
    x0 = np.concatenate([_cam_params(c) for c in cameras]
                        + [np.array(model.k)[free]])
    pts = [scene.target[idx] for idx in scene.point_indices]
    principals = [c.principal for c in cameras]
    bounds = np.cumsum([0] + [p.size for p in scene.pixels])
    pixel_rows = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    nres = int(bounds[-1]) + ncam

    def errors(i, pc, focal, coeffs):
        """Camera i's pixel errors at camera-frame points pc (..., N, 3).

        Also returns, per leading layer, whether ``resid`` fails there: a
        point at depth <= 0 or |g| < POLE_EPS.
        """
        xy = pc[..., :2] / pc[..., 2:3]
        r = np.hypot(xy[..., 0], xy[..., 1])
        fv = np.polyval(coeffs.f_coeffs[::-1], r)
        gv = np.polyval(coeffs.g_coeffs[::-1], r)
        failed = ((pc[..., 2] <= 0).any(axis=-1)
                  | (np.abs(gv) < POLE_EPS).any(axis=-1))
        return (xy * (fv / gv)[..., None] * focal + principals[i]
                - scene.pixels[i]), failed

    def prior(focal, i):
        return focal_prior_weight * math.log(focal / f0s[i])

    def model_at(p):
        if not free:
            return model
        k = np.array(model.k)
        k[free] = p[7 * ncam:]
        return DistortionModel(model.kind, tuple(k))

    def unpack(p):
        cams = []
        for i, cam in enumerate(cameras):
            K = cam.K.copy()
            K[0, 0] = K[1, 1] = p[7 * i + 6]
            cams.append(Camera(rodrigues(p[7 * i:7 * i + 3]),
                               p[7 * i + 3:7 * i + 6], K))
        return cams, model_at(p)

    def resid(p):
        if not np.isfinite(p).all() or (p[6:7 * ncam:7] <= 0).any():
            return np.full(nres, 1e8)
        rows = []
        # ``errors`` divides before it tests for failure.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                coeffs = model_at(p)
                for i in range(ncam):
                    c = p[7 * i:7 * i + 7]
                    err, failed = errors(i, pts[i] @ rodrigues(c[:3]).T
                                         + c[3:6], c[6], coeffs)
                    if failed:
                        return np.full(nres, 1e8)
                    rows.append(err.ravel())
                rows.append([prior(p[7 * i + 6], i) for i in range(ncam)])
            except (ValueError, ArithmeticError):
                return np.full(nres, 1e8)
        return np.concatenate(rows)

    def camera_columns(J, x, r0, i, coeffs):
        """Fill camera i's 7 columns of J from one stacked projection.

        Column k steps parameter 7 i + k as ``_forward_step`` does, and
        layer k of ``pc`` holds its camera-frame points.  The base rotation
        product X R0' serves the three translation columns and the focal
        column; each rotation column keeps its own 2-D product X R' + t,
        since a 3-D stacked matmul may sum in another order and change
        bits.  Returns layer 6, the base points, whose step moves only the
        focal.
        """
        cols = slice(7 * i, 7 * i + 7)
        xi = x[cols]
        hs = _step_size(xi)
        stepped = xi + hs
        failed = ~np.isfinite(stepped)
        failed[6] |= stepped[6] <= 0
        X, t = pts[i], xi[3:6]
        ts = np.tile(t, (7, 1))
        ts[[3, 4, 5], [0, 1, 2]] = stepped[3:6]
        pc = X @ rodrigues(xi[:3]).T + ts[:, None, :]
        for k in range(3):
            rv = xi[:3].copy()
            rv[k] = stepped[k]
            try:
                pc[k] = X @ rodrigues(rv).T + t
            except (ValueError, ArithmeticError):
                failed[k] = True
        focals = np.full(7, xi[6])
        focals[6] = stepped[6]
        err, layer_failed = errors(i, pc, focals[:, None, None], coeffs)
        failed |= layer_failed
        rows = pixel_rows[i]
        J[rows, cols] = ((err.reshape(7, -1) - r0[rows]) / hs[:, None]).T
        prior_row = nres - ncam + i
        priors = np.full(7, prior(xi[6], i))
        if not failed[6]:
            priors[6] = prior(stepped[6], i)
        J[prior_row, cols] = (priors - r0[prior_row]) / hs
        bad = np.flatnonzero(failed)
        J[:, 7 * i + bad] = (1e8 - r0)[:, None] / hs[bad]
        return pc[6]

    def coefficient_column(x, r0, j, frames):
        """Coefficient column j of the difference, at the base ``frames``."""
        xp, h = _forward_step(x, j)
        try:
            coeffs = model_at(xp)
        except (ValueError, ArithmeticError):
            return (1e8 - r0) / h
        rp = r0.copy()
        for i, pc in enumerate(frames):
            err, failed = errors(i, pc, x[7 * i + 6], coeffs)
            if failed:
                return (1e8 - r0) / h
            rp[pixel_rows[i]] = err.ravel()
        return (rp - r0) / h

    def jacobian(x, r0):
        if not np.isfinite(r0).all() or np.all(r0 == 1e8):
            return _num_jacobian(resid, x, r0)
        J = np.zeros((nres, len(x)))
        coeffs = model_at(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            frames = [camera_columns(J, x, r0, i, coeffs)
                      for i in range(ncam)]
            for j in range(7 * ncam, len(x)):
                J[:, j] = coefficient_column(x, r0, j, frames)
        return J

    return x0, resid, jacobian, unpack


def _pixel_rms(cameras, pairs, model):
    """Pixel RMS over one (points, pixels) pair per camera."""
    total = 0.0
    count = 0
    for cam, (X, pix) in zip(cameras, pairs):
        pred = project(cam, X, model)
        total += float(((pred - pix) ** 2).sum())
        count += len(X)
    return math.sqrt(total / max(count * 2, 1))


def reprojection_rms(scene, cameras, model):
    """Pixel RMS between predicted projections and the scene observations."""
    return _pixel_rms(cameras, ((scene.target[idx], pix) for pix, idx
                                in zip(scene.pixels, scene.point_indices)),
                      model)


def correspondences(scene, cameras):
    """Ideal/observed normalized pairs induced by the given poses.

    Ideal points come from projecting the target through the poses without
    distortion; observed points are the measured pixels mapped through the
    camera intrinsics.
    """
    rows = []
    for cam, pix, idx in zip(cameras, scene.pixels, scene.point_indices):
        ideal = ideal_normalized(cam, scene.target[idx])
        observed = (pix - cam.principal) / cam.focal
        rows.append(np.concatenate([ideal, observed], axis=1))
    return np.concatenate(rows, axis=0)


# ---------------------------------------------------------------------------
# Validation grid
# ---------------------------------------------------------------------------

# Side of the per-camera validation lattice, in points.
VALIDATION_GRID = 41


def validation_points(scene, grid=VALIDATION_GRID):
    """Ground-truth 3D points whose true projections tile the full image.

    Per camera: a ``grid`` x ``grid`` pixel lattice including the corners is
    undistorted with the true model and intersected with the target plane,
    so the true projection of the returned points is the lattice itself.
    Points whose inverse mapping fails (outside the distortion range) are
    dropped; returns a list of (points, true_pixels) per camera.
    """
    cfg = scene.config
    us = np.linspace(0.0, cfg.image_width, grid)
    vs = np.linspace(0.0, cfg.image_height, grid)
    gu, gv = np.meshgrid(us, vs)
    lattice = np.stack([gu.ravel(), gv.ravel()], axis=1)
    out = []
    for cam in scene.cameras:
        distorted = (lattice - cam.principal) / cam.focal
        search_max = 3.0 * float(np.hypot(*distorted.T).max())
        ideal, ok = undistort_points(scene.true_model, distorted, search_max)
        ideal = ideal[ok]
        pix = lattice[ok]
        # Ray through the ideal direction, intersected with the plane z = 0.
        Rt = cam.R.T
        dirs = np.concatenate([ideal, np.ones((len(ideal), 1))], axis=1)
        denom = dirs @ Rt[2]
        lam = (Rt[2] @ cam.t) / denom
        Xc = dirs * lam[:, None]
        X = (Xc - cam.t) @ cam.R
        keep = lam > 0
        out.append((X[keep], pix[keep]))
    return out


def validation_rms(val_points, cameras, model):
    """Pixel RMS of estimated (cameras, model) on the validation lattice."""
    return _pixel_rms(cameras, val_points, model)


# ---------------------------------------------------------------------------
# Alternating shape optimization
# ---------------------------------------------------------------------------

def bootstrap_poses(scene, seed):
    """Initial poses: perturbed ground truth refined with distortion ignored.

    Stand-in for an external plane-based calibration; the refinement runs
    with the identity model and the gauge-pinning focal prior.
    """
    cams0 = perturb_cameras(scene.cameras, seed)
    cams, _, _ = ba_refine(scene, cams0, DistortionModel.identity(),
                           focal_prior_weight=BOOTSTRAP_FOCAL_PRIOR)
    return cams


def aso_loop(scene, cameras, cfg, first, iterations=10):
    """Alternate the shape-constrained fit with frozen-model pose refinement.

    Each pass fits the distortion on correspondences induced by the current
    poses, then re-refines the poses with the new model fixed.  ``first``
    is the fit of the correspondences at ``cameras`` (an experiment trial's
    SO fit), which the first pass takes.  Returns the final fit, the final
    cameras, and the pixel-RMS trace (one entry per completed pass).
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    result = first
    trace = []
    cams = list(cameras)
    for i in range(iterations):
        if i > 0:
            cost = calib.assemble_cost(correspondences(scene, cams))
            result = calib.solve_shape(cost, cfg)
        if result.model is None:
            break
        cams, rms, _ = ba_refine(scene, cams, result.model)
        trace.append(rms)
    return result, cams, trace


# ---------------------------------------------------------------------------
# The BA / SO / ASO experiment
# ---------------------------------------------------------------------------

DEFAULT_TRUE_MODELS = {
    "barrel": DistortionModel("polynomial", (-0.2, -0.08, 0.0, 0, 0, 0)),
    "pincushion": DistortionModel("division", (0, 0, 0, -0.15, 0.0, 0.0)),
    "positivity": DistortionModel("rational",
                                  (-0.35, 0.15, 0.0, -0.2, 0.05, 0.0)),
}


@dataclass
class ExperimentConfig:
    shape: str = "barrel"
    sigmas: tuple = (0.0, 0.5, 1.0, 1.5, 2.0)
    trials: int = 20
    seed: int = 0
    scene: SceneConfig = field(default_factory=SceneConfig)
    true_model: DistortionModel | None = None
    rbar: float = 1.0
    margin_p: float = 0.1
    aso_iterations: int = 10

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not all(0 <= s < math.inf for s in self.sigmas):
            raise ValueError("sigmas must be nonnegative and finite")

    def resolved_model(self):
        return self.true_model or DEFAULT_TRUE_MODELS[self.shape]


@dataclass
class ExperimentReport:
    config: dict
    records: list   # dicts: method, sigma, trial, calib_rms, valid_rms,
                    # shape_violations

    def summary(self):
        """Mean, standard deviation, and median RMS per method and sigma."""
        out = {}
        for rec in self.records:
            key = (rec["method"], rec["sigma"])
            out.setdefault(key, []).append(rec)
        table = {}
        for (method, sigma), rows in sorted(out.items()):
            cal = np.array([r["calib_rms"] for r in rows])
            val = np.array([r["valid_rms"] for r in rows])
            table[f"{method}:{sigma:g}"] = {
                "trials": len(rows),
                "calib_rms_mean": float(cal.mean()),
                "calib_rms_std": float(cal.std()),
                "calib_rms_median": float(np.median(cal)),
                "valid_rms_mean": float(val.mean()),
                "valid_rms_std": float(val.std()),
                "valid_rms_median": float(np.median(val)),
            }
        return table

    def to_json(self):
        return json.dumps({"config": self.config, "records": self.records,
                           "summary": self.summary()},
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(doc["config"], doc["records"])

    def to_csv(self):
        lines = ["method,sigma,trial,calib_rms,valid_rms,shape_violations"]
        for r in self.records:
            lines.append("%s,%.17g,%d,%.17g,%.17g,%d" % (
                r["method"], r["sigma"], r["trial"], r["calib_rms"],
                r["valid_rms"], r["shape_violations"]))
        return "\n".join(lines) + "\n"


def _one_trial(cfg, sigma, trial):
    model_true = cfg.resolved_model()
    seed = int(np.random.SeedSequence((cfg.seed, trial)).generate_state(1)[0])
    scene = generate_scene(cfg.scene, model_true, seed)
    noisy = add_noise(scene, sigma)
    kind = calib.SHAPE_KINDS[cfg.shape]
    ccfg = calib.CalibConfig(rbar=cfg.rbar, margin_p=cfg.margin_p,
                             shape=cfg.shape)
    val_points = validation_points(scene)

    cams_init = bootstrap_poses(noisy, seed)

    records = []

    def record(method, cameras, model):
        report = shape_check(model, cfg.shape, cfg.rbar,
                             margin=cfg.margin_p)
        records.append({
            "method": method,
            "sigma": float(sigma),
            "trial": int(trial),
            "calib_rms": reprojection_rms(noisy, cameras, model),
            "valid_rms": validation_rms(val_points, cameras, model),
            "shape_violations": len(report.violating_radii),
        })

    cams_ba, model_ba, _ = ba_full(noisy, cams_init, kind)
    record("BA", cams_ba, model_ba)

    cost_so = calib.assemble_cost(correspondences(noisy, cams_ba))
    so = calib.solve_shape(cost_so, ccfg)
    if so.model is not None:
        record("SO", cams_ba, so.model)

    aso, cams_aso, _ = aso_loop(noisy, cams_ba, ccfg, so, cfg.aso_iterations)
    if aso.model is not None:
        record("ASO", cams_aso, aso.model)
    return records


def run_experiment(cfg):
    """BA / SO / ASO comparison over the configured noise levels.

    Trials are independent (seeds split per trial index) and run one after
    another in job order: sigma-major, then trial.  Per-trial failures are
    recorded as error entries rather than aborting the run.
    """
    if cfg.trials < 1:
        raise ValueError("need at least one trial")
    records = []
    errors = []
    for sigma in cfg.sigmas:
        for trial in range(cfg.trials):
            try:
                records.extend(_one_trial(cfg, sigma, trial))
            except Exception as exc:  # per-trial failures are data, not fatal
                errors.append({"sigma": sigma, "trial": trial,
                               "error": f"{type(exc).__name__}: {exc}"})

    config_doc = {
        "shape": cfg.shape,
        "sigmas": list(cfg.sigmas),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "rbar": cfg.rbar,
        "margin_p": cfg.margin_p,
        "delta_max": calib.CalibConfig.delta_max,
        "aso_iterations": cfg.aso_iterations,
        "validation_grid": VALIDATION_GRID,
        "true_model": {"kind": cfg.resolved_model().kind,
                       "k": list(cfg.resolved_model().k)},
        # Reports written so far carry no target spacing; keep their bytes.
        "scene": {k: v for k, v in asdict(cfg.scene).items()
                  if k != "spacing"},
        "errors": errors,
    }
    return ExperimentReport(config_doc, records)


# ---------------------------------------------------------------------------
# Scene files
# ---------------------------------------------------------------------------

def scene_to_json(scene):
    doc = {
        "seed": scene.seed,
        "noise_sigma": scene.noise_sigma,
        "true_model": {"kind": scene.true_model.kind,
                       "k": list(scene.true_model.k)},
        "target": scene.target.tolist(),
        "cameras": [{"R": c.R.tolist(), "t": c.t.tolist(), "K": c.K.tolist()}
                    for c in scene.cameras],
        "observations": [
            {"indices": idx.tolist(), "pixels": pix.tolist()}
            for idx, pix in zip(scene.point_indices, scene.pixels)
        ],
        "config": asdict(scene.config),
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def scene_from_json(text):
    doc = json.loads(text)
    cfg = SceneConfig(**doc["config"])
    model = DistortionModel(doc["true_model"]["kind"],
                            tuple(doc["true_model"]["k"]))
    cameras = [Camera(np.array(c["R"]), np.array(c["t"]), np.array(c["K"]))
               for c in doc["cameras"]]
    indices = [np.array(o["indices"], dtype=int) for o in doc["observations"]]
    pixels = [np.array(o["pixels"]) for o in doc["observations"]]
    return Scene(cfg, np.array(doc["target"]), cameras, model, indices,
                 pixels, doc["noise_sigma"], doc["seed"])
