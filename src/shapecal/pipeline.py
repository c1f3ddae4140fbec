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
  focal length) with the distortion model held fixed, every camera its own
  problem in one lock-step run;
* ``ba_full``: the classical joint bundle adjustment baseline with the
  distortion coefficients as free variables;
* both refinements take each trial point's residual from one row function,
  ``_camera_rows``: one pixel-error pass over a stack of cameras gives each
  camera its pixel rows, its log-focal prior row and, from the closed-form
  derivatives of the same pass, its block of the normal equations, so no
  Jacobian of the whole residual is formed;
* ``aso_loop``: alternation of the shape-constrained distortion solve with
  ``ba_refine``;
* ``run_experiment``: the BA / SO / ASO comparison over noise levels, with
  per-trial seeds split deterministically from one master seed.  Its
  trials run in up to CPUs / BLAS threads processes (``_process_count``),
  and the report is assembled in job order, so its bytes do not depend on
  how many processes ran it.

Validation error is measured on a fresh per-camera grid of ground-truth
points whose true projections cover the full image including the corners.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import signal
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
        if self.K[0, 0] <= 0:
            raise ValueError("the focal length must be positive")

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
    """Axis-angle vector to rotation matrix: ``_rotations`` of one vector.

    A NaN vector gives a NaN matrix; an infinite angle raises ValueError.
    """
    rvec = np.asarray(rvec, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        (R,), (ok,) = _rotations(rvec[None])
    if not ok and not np.isnan(rvec).any():
        raise ValueError("rotation angle is infinite")
    return R


def rodrigues_inverse(R):
    """Rotation matrix to axis-angle vector.

    The skew part of R is 2 sin(theta) a and its trace 1 + 2 cos(theta), so
    theta comes from atan2 of the two, which keeps full precision at every
    angle.  Near pi, where the skew part vanishes, the axis comes from the
    symmetric part instead.
    """
    skew = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    sin_theta = float(np.linalg.norm(skew)) / 2.0
    cos_theta = (np.trace(R) - 1.0) / 2.0
    theta = math.atan2(sin_theta, cos_theta)
    if cos_theta < 0 and sin_theta < 1e-3:
        # The symmetric part B = (1 - cos theta) a a' gives the axis up to
        # sign from its row of largest diagonal; the skew part still
        # carries the overall sign.
        B = (R + R.T) / 2.0 - cos_theta * np.eye(3)
        axis = B[int(np.argmax(np.diag(B)))]
        axis = axis / np.linalg.norm(axis)
        if axis @ skew < 0:
            axis = -axis
        return axis * theta
    if sin_theta < 1e-12:
        return skew / 2.0
    return skew * (theta / (2.0 * sin_theta))


# Row-order entries of I and of [v]x, the latter _HAT_SIGN * v[_HAT].
_EYE, _HAT = np.eye(3).ravel(), np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_HAT_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


def _rotations(V, jacobians=False):
    """Rotation matrices of the axis-angle rows of V (B, 3), which angles
    are finite and, given ``jacobians``, each row's SO(3) left Jacobian.

    R = I + sin(theta) [k]x + (1 - cos(theta)) (k k' - I), k the unit axis,
    or I + [v]x below theta = 1e-12.  J_l(v) = I + a [v]x + b [v]x^2, with
    d(R X)/dv = -[R X]x J_l(v), shares R's angle terms; a and b take their
    series below theta^2 = 1e-8, where the closed forms cancel.  Entrywise,
    so a row's matrices do not depend on the stack.
    """
    theta2 = V[:, 0] ** 2 + V[:, 1] ** 2 + V[:, 2] ** 2
    theta = np.sqrt(theta2)
    ok = np.isfinite(theta)
    small = theta < 1e-12
    t = np.where(ok & ~small, theta, 1.0)[:, None]
    s = np.where(small, 1.0, np.sin(t[:, 0]))[:, None]
    c = np.where(small, 1.0, np.cos(t[:, 0]))[:, None]
    k = V / t
    R = _EYE + s * (k[:, _HAT] * _HAT_SIGN) + (1.0 - c) * (
        (k[:, :, None] * k[:, None]).reshape(-1, 9) - _EYE)
    if not jacobians:
        return R.reshape(-1, 3, 3), ok
    theta2 = theta2[:, None]
    series = theta2 < 1e-8
    a = np.where(series, 0.5 - theta2 / 24.0, (1.0 - c) / t ** 2)
    b = np.where(series, 1.0 / 6.0 - theta2 / 120.0, (t - s) / t ** 3)
    # [v]x^2 = v v' - |v|^2 I.
    J = _EYE + a * (V[:, _HAT] * _HAT_SIGN) + b * (
        (V[:, :, None] * V[:, None]).reshape(-1, 9) - theta2 * _EYE)
    return R.reshape(-1, 3, 3), ok, J.reshape(-1, 3, 3)


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
    return np.stack([x, y, z], axis=0)   # world -> camera axes as rows


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


def levenberg_marquardt(fun, x0):
    """Damped least squares on the residual vector of ``fun``.

    ``fun(x)`` returns ``(r, normals)`` from one pass: the residual vector
    at x and the normal equations (J'J, J'r) of its Jacobian J, or None
    where they are not defined; ``ba_full`` passes its ``_pose_problem``'s.
    This is ``_lm_lockstep`` on a batch of one problem: only improving
    steps are accepted, so the cost trace is non-increasing.  Returns (x,
    cost trace, status), the status one of "converged" (relative
    improvement below ``LM_REL_TOL``), "maxIterations" (after
    ``LM_MAX_ITERATIONS``), "diverged" (no step helps up to a damping of
    ``LM_DAMPING_MAX``) or "undefined" (x has no normal equations, so the
    run stops there).
    """
    X, traces, statuses = _lm_lockstep(
        lambda X, rows: [fun(X[0])], np.asarray(x0, dtype=float)[None])
    return X[0], traces[0], statuses[0]


def _lm_lockstep(fun, X0):
    """Levenberg-Marquardt on a batch of independent problems in lock step.

    Row b of ``X0`` starts problem b.  ``fun(X, rows)`` returns a list of
    one ``(r, normals)`` pair per problem of ``rows``, at its row of ``X``:
    the residual and, from the same pass, its normal equations (J'J, J'r)
    or None.  Each problem keeps its own damping, steps, cost trace and
    stop, as ``levenberg_marquardt`` describes, and takes the steps it
    would take alone: the batch shares the calls and the damped solves.  A
    problem stops as "undefined" at a point it would step from that has no
    normal equations.  Returns (X, traces, statuses), one row or entry per
    problem.
    """
    X = np.array(X0, dtype=float)
    R, N = (list(out) for out in zip(*fun(X, np.arange(len(X)))))
    cost = [float(r @ r) for r in R]
    traces = [[c] for c in cost]
    damping = np.full(len(X), LM_DAMPING)
    statuses = ["maxIterations"] * len(X)
    active = np.arange(len(X))
    H, G = np.zeros(X.shape + X.shape[1:]), np.zeros_like(X)
    for _ in range(LM_MAX_ITERATIONS):
        for b in active:
            if N[b] is None:
                statuses[b] = "undefined"
            else:
                H[b], G[b] = N[b]
        active = active[[N[b] is not None for b in active]]
        if not len(active):
            break
        accepted = np.zeros(len(X), dtype=bool)
        pending = active
        while True:
            pending = pending[damping[pending] <= LM_DAMPING_MAX]
            if not len(pending):
                break
            steps, solved = _damped_steps(H[pending], G[pending],
                                          damping[pending])
            damping[pending[~solved]] *= 10.0
            tried = pending[solved]
            X_new = X[tried] + steps[solved]
            out = fun(X_new, tried) if len(tried) else []
            for j, (b, (r, normals)) in enumerate(zip(tried, out)):
                cost_new = float(r @ r)
                if cost_new < cost[b]:
                    X[b], R[b], N[b], cost[b] = X_new[j], r, normals, cost_new
                    damping[b] = max(damping[b] / 3.0, 1e-12)
                    accepted[b] = True
                else:
                    damping[b] *= 10.0
            pending = pending[~accepted[pending]]
        for b in active:
            trace = traces[b]
            trace.append(cost[b])
            if not accepted[b]:
                # The damping loop above gave up on it: past LM_DAMPING_MAX.
                statuses[b] = "diverged"
            elif trace[-2] - trace[-1] <= LM_REL_TOL * (1.0 + trace[-2]):
                statuses[b] = "converged"
        active = active[[statuses[b] == "maxIterations" for b in active]]
    return X, traces, statuses


def _damped_steps(H, G, damping):
    """Steps solving (H + d diag(max(diag H, 1e-12))) s = -g per problem.

    Also returns which problems solved; a singular one gets no step.
    """
    D = np.maximum(np.diagonal(H, axis1=1, axis2=2), 1e-12)
    A = H + damping[:, None, None] * (D[:, :, None] * np.eye(H.shape[1]))
    solved = np.ones(len(A), dtype=bool)
    try:
        return np.linalg.solve(A, -G[..., None])[..., 0], solved
    except np.linalg.LinAlgError:
        steps = np.zeros_like(G)
        for j in range(len(A)):
            try:
                steps[j] = np.linalg.solve(A[j:j + 1],
                                           -G[j:j + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                solved[j] = False
        return steps, solved


def _normal_blocks(err, D, counts):
    """Each camera's share of the normal equations, over its own rows.

    ``err`` (B, N, 2) and ``D`` (B, N, 2, m) are ``_pixel_errors``' errors
    and their derivatives with respect to m parameters (the camera's 7,
    then any free coefficients); camera b's own observations are its first
    ``counts[b]``.  Returns J_b'J_b (B, m, m) and J_b'e_b (B, m), where J_b
    stacks the x rows, then the y rows, of camera b's own observations.
    The cameras of one count take one batched product over their own rows,
    which gives each the bits of its product alone; count 0 gives zeros.
    So a camera's blocks depend neither on its padding nor on the stack.
    """
    E, A = err.transpose(2, 0, 1)[..., None], D.transpose(2, 0, 3, 1)
    H = np.zeros((len(counts),) + D.shape[-1:] * 2)
    g = np.zeros((len(counts), D.shape[-1]))
    for n in np.unique(counts[counts > 0]):
        group = counts == n
        cams = slice(None) if group.all() else group
        (x, y), (ex, ey) = A[:, cams, :, :n], E[:, cams, :n]
        H[group] = x @ x.swapaxes(1, 2) + y @ y.swapaxes(1, 2)
        g[group] = (x @ ex + y @ ey)[..., 0]
    return H, g


def _cam_params(cam):
    return np.concatenate([rodrigues_inverse(cam.R), cam.t, [cam.focal]])


def _cameras_at(cameras, X):
    """``cameras`` at the 7 parameters of each row of X, one rotation stack."""
    out = []
    for cam, x, R in zip(cameras, X, _rotations(X[:, :3])[0]):
        K = cam.K.copy()
        K[0, 0] = K[1, 1] = x[6]
        out.append(Camera(R, x[3:6], K))
    return out


# Weight of the optional log-focal prior used by the distortion-blind
# bootstrap: near-frontal planar views leave the focal-depth gauge almost
# free, and at high noise a refinement that ignores distortion can slide
# down it; one unit is far below the pixel noise for observable changes.
BOOTSTRAP_FOCAL_PRIOR = 1.0


def ba_refine(scene, cameras, model, focal_prior_weight=0.0):
    """Pose refinement with the distortion model frozen.

    Cameras decouple given a fixed model and fixed target, so each camera
    is its own problem over (axis-angle rotation, translation, focal): one
    ``_lm_lockstep`` runs all of them, each of its passes one
    ``_camera_rows`` pass over the cameras it evaluates; a camera with no
    normal equations at its start stops there as "undefined".
    ``focal_prior_weight`` optionally weights the log-focal residual against
    the starting value, which pins the focal-depth gauge of near-frontal
    planar views; a camera whose focal escapes a factor of four regardless
    is reverted to its starting pose and reported as such.  The pixel RMS
    comes from one more pass at the refined cameras, or, where one is not
    defined, from ``reprojection_rms``, which may raise.  Returns (refined
    cameras, pixel RMS, per-camera LM statuses).
    """
    rows = _camera_rows(scene, cameras, (), focal_prior_weight)
    X0 = np.array([_cam_params(c) for c in cameras]).reshape(-1, 7)
    X, _, statuses = _lm_lockstep(
        lambda X, cams: rows(X, cams, model, True)[1], X0)
    keep = (X0[:, 6] / 4.0 <= X[:, 6]) & (X[:, 6] <= X0[:, 6] * 4.0)
    X[~keep] = X0[~keep]
    refined = [m if k else c
               for c, m, k in zip(cameras, _cameras_at(cameras, X), keep)]
    statuses = [s if k else "reverted" for s, k in zip(statuses, keep)]
    ok, pairs = rows(X, np.arange(len(X)), model)
    if not ok.all():
        # An undefined camera raises, or not, as ``reprojection_rms`` does.
        return refined, reprojection_rms(scene, refined, model), statuses
    e = np.concatenate([r[:-1] for r, _ in pairs])
    return refined, math.sqrt(float(e @ e) / max(len(e), 1)), statuses


def ba_full(scene, cameras, kind):
    """Classical joint bundle adjustment with free distortion coefficients.

    One Levenberg-Marquardt over all camera parameters plus the active
    coefficients of the model kind, on the joint ``_pose_problem``; its
    log-focal prior rows carry weight zero.  Returns (cameras, model,
    pixel RMS).
    """
    x0, fun, unpack = _pose_problem(
        scene, cameras, DistortionModel.identity(kind),
        calib.KIND_INDICES[kind], 0.0)
    p_opt = levenberg_marquardt(fun, x0)[0]
    cams, model = unpack(p_opt)
    return cams, model, reprojection_rms(scene, cams, model)


def _observations(scene):
    """The scene's observations stacked per camera, padded to one count.

    Returns world points (3, C, N) and pixels (2, C, N), coordinate first,
    and ``valid`` (C, N), which marks each camera's own observations;
    padding entries are zero.
    """
    counts = np.array([len(idx) for idx in scene.point_indices])
    n = int(counts.max(initial=0))
    pts = np.zeros((3, len(counts), n))
    pix = np.zeros((2, len(counts), n))
    for i, (idx, p) in enumerate(zip(scene.point_indices, scene.pixels)):
        pts[:, i, :len(idx)] = scene.target[idx].T
        pix[:, i, :len(idx)] = p.T
    return pts, pix, np.arange(n) < counts[:, None]


# The errors are computed before they are tested for failure.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _pixel_errors(P, pts, pix, valid, principal, model, free=None):
    """Pixel errors of a stack of cameras and, on request, their derivatives.

    Camera b has the 7 parameters in row b of ``P`` (axis-angle,
    translation, focal), world points ``pts[:, b]`` and observed pixels
    ``pix[:, b]`` (coordinate first: (3, B, N) and (2, B, N)), of which
    ``valid[b]`` marks its own, and principal point ``principal[b]``.
    Returns ``ok`` (B,), whether camera b's residual is defined: finite
    parameters, a positive focal, and every valid point at depth > 0 with
    |g(r)| >= POLE_EPS; and the errors xy L(r) focal + principal - pix
    (B, N, 2), in ``project``'s arithmetic, meaningless where not ``ok``.
    Given ``free``, coefficient indices, also returns in closed form the
    derivatives of the errors with respect to each camera's parameters,
    then to ``model.k[free]`` (B, N, 2, 7 + len(free)).  The chain runs
    through d(R X + t)/dv = -[R X]x J_l(v) and d(R X + t)/dt = I (Triggs et
    al. 2000), the division by depth and L(r); the focal column is xy L
    and the coefficient columns take the quotient rule on f / g.  The
    arithmetic is elementwise, with every sum in a fixed order, so a
    camera's values do not depend on the rest of the stack.
    """
    R, ok, *W = _rotations(P[:, :3], free is not None)
    Rc = R.transpose(1, 2, 0)[..., None]             # Rc[i, k] = R[:, i, k]
    q = Rc[:, 0] * pts[0]                            # R X
    q += Rc[:, 1] * pts[1]
    q += Rc[:, 2] * pts[2]
    pc = q + P[:, 3:6].T[..., None]
    xy = pc[:2] / pc[2]
    r = np.hypot(xy[0], xy[1])
    fc, gc = model.f_coeffs, model.g_coeffs
    fv = np.polyval(fc[::-1], r)
    gv = np.polyval(gc[::-1], r)
    ok &= np.isfinite(P[:, 3:]).all(axis=1) & (P[:, 6] > 0)
    ok &= ~(((pc[2] <= 0) | (np.abs(gv) < POLE_EPS)) & valid).any(axis=1)
    L = fv / gv
    focal = P[:, 6, None]
    xyL = xy * L
    err = xyL * focal + principal.T[..., None] - pix
    if free is None:
        return ok, err.transpose(1, 2, 0)
    powers = np.arange(1, 4)
    L1 = (np.polyval((fc[1:] * powers)[::-1], r) * gv
          - fv * np.polyval((gc[1:] * powers)[::-1], r)) / gv ** 2
    s = focal / pc[2]
    u = xy / np.where(r > 0, r, 1.0)                 # xy / r, 0 at r = 0
    D = np.empty((2, 7 + len(free)) + r.shape)
    # d err / d(R X + t) = D's translation columns, G[a, c]: s (L e_a +
    # L' xy_a u) in the x and y columns, -s (L + L' r) xy_a in the depth one.
    G = D[:, 3:6]
    np.multiply((s * L1 * xy)[:, None], u, out=G[:, :2])
    sL = s * L
    G[0, 0] += sL
    G[1, 1] += sL
    np.multiply(-s * (L + L1 * r), xy, out=G[:, 2])
    # d(R X)/dv: C[c, j] is entry c of J_l[:, j] x R X, summed against G.
    W = W[0].transpose(1, 2, 0)[..., None]           # W[i, j] = J_l[:, i, j]
    C, GC = np.empty(q.shape), np.empty((2, 3) + r.shape)
    for c in range(3):
        np.multiply(W[c - 2], q[c - 1], out=C)
        C -= W[c - 1] * q[c - 2]
        np.multiply(G[:, c, None], C, out=GC if c else D[:, :3])
        if c:
            D[:, :3] += GC
    D[:, 6] = xyL
    for col, j in enumerate(free, 7):
        dL = r ** (j % 3 + 1) / gv
        np.multiply(xy, (dL if j < 3 else dL * -L) * focal, out=D[:, col])
    return ok, err.transpose(1, 2, 0), D.transpose(2, 3, 0, 1)


def _camera_rows(scene, cameras, free, focal_prior_weight):
    """Each camera's rows of the pose residual, for both bundle adjustments.

    The cameras pair with the scene's observation lists in order; a
    camera's parameters are its 7 (axis-angle, translation, focal), and
    ``free`` indexes the coefficients of the model that vary with the
    problem.  Returns ``rows(P, cams, model, derivatives=False)``: one
    ``_pixel_errors`` pass over the cameras ``cams`` (an index array) at the
    parameter rows of ``P`` under ``model``, padded to the largest
    observation count.  It returns whether each camera is defined, and one
    ``(r, normals)`` pair per camera.  The residual r is its valid pixel
    errors, x then y of each point, then its log-focal prior row
    ``focal_prior_weight * log(focal / start)``, or 1e8 in every row where
    the camera is not defined.  Given ``derivatives`` and a finite r,
    ``normals`` is J_b'J_b and J_b'r_b of its own rows (``_normal_blocks``,
    batched per observation count), over its 7 parameters and then the
    coefficients ``free``, plus its prior row's share: d * d on the focal's
    diagonal entry and d times the prior on the focal's entry of J'r, d =
    ``focal_prior_weight / focal``; otherwise it is None, and a
    Levenberg-Marquardt problem at that point stops as "undefined".
    """
    pts, pix, valid = _observations(scene)
    principal = np.array([c.principal for c in cameras])
    f0s = np.array([c.focal for c in cameras])
    counts = valid.sum(axis=1)
    width = 2 * valid.shape[1]

    def rows(P, cams, model, derivatives=False):
        sel = slice(None) if len(cams) == len(valid) else cams  # stack: views
        ok, err, *D = _pixel_errors(P, pts[:, sel], pix[:, sel], valid[sel],
                                    principal[sel], model,
                                    free if derivatives else None)
        out = np.zeros((len(cams), width + 1))
        pixel_rows = out[:, :width].reshape(err.shape)
        pixel_rows[...] = err
        pixel_rows[~valid[sel]] = 0.0
        ends, live = 2 * counts[cams], np.flatnonzero(ok)
        out[live, ends[live]] = [focal_prior_weight * math.log(f) for f
                                 in (P[live, 6] / f0s[cams[live]]).tolist()]
        out[~ok] = 1e8
        usable = ok & np.isfinite(out).all(axis=1) & derivatives
        if derivatives:
            # A camera the pass does not serve sums over none of its rows.
            H, g = _normal_blocks(err, D[0], np.where(usable, counts[cams], 0))
            u = np.flatnonzero(usable)
            d = focal_prior_weight / P[u, 6]
            H[u, 6, 6] += d * d
            g[u, 6] += d * out[u, ends[u]]
        return ok, [(out[j, :e + 1], (H[j], g[j]) if usable[j] else None)
                    for j, e in enumerate(ends)]

    return rows


def _pose_problem(scene, cameras, model, free, focal_prior_weight):
    """Start point, one-pass residual and unpacking of a joint refinement.

    The parameters are 7 per camera, then the coefficients of ``model``
    indexed by ``free``; the others stay fixed.  ``fun(x)`` evaluates every
    camera in one ``_camera_rows`` pass and returns ``(r, normals)``.  The
    residual r stacks every camera's pixel rows, then every camera's prior
    row, or is the sentinel vector of 1e8 where a camera is not defined or
    a coefficient is not finite.  ``normals`` is (J'J, J'r) of r's Jacobian
    J, assembled without forming J: a camera's rows touch only its own 7
    parameters and the coefficients, so J'J holds each camera's J_c'J_c on
    the diagonal, its J_c'J_k beside it and the sum of the J_k'J_k, and J'r
    likewise.  Where r is the sentinel or a camera's pass gives none,
    ``normals`` is None.  Returns ``(x0, fun, unpack)``.
    """
    free = list(free)
    ncam = len(cameras)
    rows = _camera_rows(scene, cameras, free, focal_prior_weight)
    x0 = np.concatenate([_cam_params(c) for c in cameras]
                        + [np.array(model.k)[free]])
    nres = sum(2 * len(idx) + 1 for idx in scene.point_indices)

    def model_at(p):
        if not free:
            return model
        k = np.array(model.k)
        k[free] = p[7 * ncam:]
        return DistortionModel(model.kind, tuple(k))

    def unpack(p):
        return (_cameras_at(cameras, p[:7 * ncam].reshape(ncam, 7)),
                model_at(p))

    def fun(p):
        if not np.isfinite(p[7 * ncam:]).all():
            return np.full(nres, 1e8), None
        ok, pairs = rows(p[:7 * ncam].reshape(ncam, 7), np.arange(ncam),
                         model_at(p), True)
        if not ok.all():
            return np.full(nres, 1e8), None
        R, N = zip(*pairs)
        r = np.concatenate([r[:-1] for r in R] + [[r[-1] for r in R]])
        if None in N:
            return r, None
        H, g = np.zeros((len(p), len(p))), np.zeros(len(p))
        k = slice(7 * ncam, None)
        for i, (Hc, gc) in enumerate(N):
            c = slice(7 * i, 7 * i + 7)
            H[c, c] = Hc[:7, :7]
            H[c, k] = Hc[:7, 7:]
            H[k, c] = Hc[7:, :7]
            H[k, k] += Hc[7:, 7:]
            g[c] = gc[:7]
            g[k] += gc[7:]
        return r, (H, g)

    return x0, fun, unpack


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
    dropped; cameras of one K share one undistortion.  Returns a list of
    (points, true_pixels) per camera.
    """
    cfg = scene.config
    us = np.linspace(0.0, cfg.image_width, grid)
    vs = np.linspace(0.0, cfg.image_height, grid)
    gu, gv = np.meshgrid(us, vs)
    lattice = np.stack([gu.ravel(), gv.ravel()], axis=1)
    out, undistorted = [], {}
    for cam in scene.cameras:
        if cam.K.tobytes() not in undistorted:
            distorted = (lattice - cam.principal) / cam.focal
            search_max = 3.0 * float(np.hypot(*distorted.T).max())
            undistorted[cam.K.tobytes()] = undistort_points(
                scene.true_model, distorted, search_max)
        ideal, ok = undistorted[cam.K.tobytes()]
        ideal, pix = ideal[ok], lattice[ok]
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
        if self.trials < 1:
            raise ValueError("need at least one trial")
        # Every trial's fit and ASO loop take this configuration: refuse up
        # front what they would refuse in each trial.
        if self.aso_iterations < 1:
            raise ValueError("need at least one ASO iteration")
        calib.CalibConfig(rbar=self.rbar, margin_p=self.margin_p,
                          shape=self.shape)

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


# Environment variables OpenBLAS takes its thread count from, in the order
# it reads them.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


def _process_count(jobs):
    """Processes that run ``jobs`` experiment trials.

    min(jobs, CPUs // BLAS threads), and at least 1.  The CPUs are those
    this process may run on; the BLAS thread count is read as OpenBLAS
    reads it, from the first of ``BLAS_THREAD_VARIABLES`` that holds a
    positive integer, and is the CPU count, OpenBLAS's default, where none
    does.  So trials overlap only where BLAS is pinned: the SDP solver's
    small triangular solves stall when BLAS threads share cores with other
    work.  Without the ``fork`` start method or the CPU affinity call it is
    1.
    """
    if "fork" not in multiprocessing.get_all_start_methods() \
            or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    threads = cpus
    for name in BLAS_THREAD_VARIABLES:
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            threads = value
            break
    return max(1, min(jobs, cpus // threads))


def _attempt(job, i):
    """``(job(i), None)``, or ``(None, error text)`` if it raises."""
    try:
        return job(i), None
    except Exception as exc:  # per-trial failures are data, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _work(job, count, claim, slot, conn):
    """A worker's loop: claim an index, run it, send ``(i, _attempt)``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops workers
    while (i := claim(slot)) < count:
        conn.send((i, _attempt(job, i)))


def _run_jobs(job, count):
    """``_attempt(job, i)`` for every i in range(count), in index order.

    The jobs run in ``_process_count(count)`` processes: this one and, past
    one process, workers forked from it.  Every process claims the next
    index from one shared counter, this one index 0 before any worker
    starts, so it always runs at least one whole job.  A worker sends each
    result over its pipe as soon as the job ends, and this process reads
    them between its own jobs.  A job that a worker claimed but never
    reported, because the worker exited first, gets the error
    ``WorkerExited: exit code N``; the unclaimed jobs go to the processes
    that remain.  Every worker is joined before this returns or raises, and
    on an exception here (KeyboardInterrupt among them) it is terminated
    first.
    """
    procs = _process_count(count)
    # Locks of the fork context start no resource-tracker process.
    forks = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if forks else None)
    counter = ctx.Value("q", 0)
    owner = ctx.Array("i", count, lock=False)  # slot of the claiming process

    def claim(slot):
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i < count:
            owner[i] = slot
        return i

    results = [None] * count

    def read(conn, until_closed):
        while until_closed or conn.poll():
            try:
                i, result = conn.recv()
            except EOFError:
                return
            results[i] = result

    workers = []
    i = claim(0)
    try:
        for slot in range(1, procs):
            conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_work, daemon=True,
                               args=(job, count, claim, slot, child_conn))
            proc.start()
            child_conn.close()
            workers.append((proc, conn))
        while i < count:
            results[i] = _attempt(job, i)
            for _, conn in workers:
                read(conn, False)
            i = claim(0)
        for _, conn in workers:
            read(conn, True)
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, conn in workers:
            proc.join()
            conn.close()
    return [result or (None, "WorkerExited: exit code "
                       f"{workers[owner[i] - 1][0].exitcode}")
            for i, result in enumerate(results)]


def run_experiment(cfg):
    """BA / SO / ASO comparison over the configured noise levels.

    Trials are independent (seeds split per trial index), and the jobs,
    sigma-major, then trial, run in ``_run_jobs``' processes.  The report
    takes their records and errors in job order, so its bytes do not depend
    on the process count or on which process ran a job.  Per-trial
    failures, a worker that exits before it reports its job among them, are
    recorded as error entries rather than aborting the run.
    """
    jobs = [(sigma, trial) for sigma in cfg.sigmas
            for trial in range(cfg.trials)]
    records = []
    errors = []
    for (sigma, trial), (recs, error) in zip(
            jobs, _run_jobs(lambda i: _one_trial(cfg, *jobs[i]), len(jobs))):
        if error is None:
            records.extend(recs)
        else:
            errors.append({"sigma": sigma, "trial": trial, "error": error})

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
