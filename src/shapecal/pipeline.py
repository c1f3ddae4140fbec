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
* both refinements solve the ``_pose_problem`` residual, whose Jacobian is
  in closed form; one pixel-error function projects a stack of cameras and,
  on request, also gives the derivatives;
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


def _hats(V):
    """The cross-product matrix [v]x of each row v of V, (B, 3, 3)."""
    Z = np.zeros(len(V))
    return np.stack([Z, -V[:, 2], V[:, 1], V[:, 2], Z, -V[:, 0],
                     -V[:, 1], V[:, 0], Z], axis=1).reshape(-1, 3, 3)


def _rotations(V):
    """Rotation matrices of the axis-angle rows of V (B, 3), and which
    angles are finite.

    R = I + sin(theta) [k]x + (1 - cos(theta)) (k k' - I) with k the unit
    axis, and first order, I + [v]x, below theta = 1e-12.  Elementwise, so
    a row's matrix does not depend on the rest of the stack.
    """
    theta = np.sqrt(V[:, 0] ** 2 + V[:, 1] ** 2 + V[:, 2] ** 2)
    ok = np.isfinite(theta)
    small = theta < 1e-12
    t = np.where(ok & ~small, theta, 1.0)[:, None, None]
    k = V / t[:, :, 0]
    # Below 1e-12, t = 1 and k = v.
    s = np.where(small[:, None, None], 1.0, np.sin(t))
    c = np.where(small[:, None, None], 1.0, np.cos(t))
    kk = k[:, :, None] * k[:, None, :] - np.eye(3)
    return np.eye(3) + s * _hats(k) + (1.0 - c) * kk, ok


def _left_jacobians(V):
    """SO(3) left Jacobian J_l(v) of each axis-angle row v of V.

    d(rodrigues(v) X)/dv = -[rodrigues(v) X]x J_l(v).  Near zero the two
    coefficients come from their series, which the closed forms lose to
    cancellation.
    """
    theta2 = V[:, 0] ** 2 + V[:, 1] ** 2 + V[:, 2] ** 2
    small = theta2 < 1e-8
    t = np.where(small, 1.0, np.sqrt(theta2))
    a = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(t)) / t ** 2)
    b = np.where(small, 1.0 / 6.0 - theta2 / 120.0,
                 (t - np.sin(t)) / t ** 3)
    # [v]x^2 = v v' - |v|^2 I.
    vv = V[:, :, None] * V[:, None, :] - theta2[:, None, None] * np.eye(3)
    return np.eye(3) + a[:, None, None] * _hats(V) + b[:, None, None] * vv


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
    ``r = fun(x)``; ``ba_full`` passes its ``_pose_problem``'s closed form.
    This is ``_lm_lockstep`` on a batch of one problem: only improving
    steps are accepted, so the cost trace is non-increasing; stops on
    relative improvement below ``LM_REL_TOL``, after ``LM_MAX_ITERATIONS``
    iterations, or with the damping exceeding ``LM_DAMPING_MAX`` (reported
    as diverged).  Returns (x, cost trace, status).
    """
    X, traces, statuses = _lm_lockstep(
        lambda X, rows: [fun(X[0])], np.asarray(x0, dtype=float)[None],
        lambda X, R, rows: [jacobian(X[0], R[0])])
    return X[0], traces[0], statuses[0]


def _lm_lockstep(fun, X0, jacobian):
    """Levenberg-Marquardt on a batch of independent problems in lock step.

    Row b of ``X0`` starts problem b.  ``fun(X, rows)`` returns, as a list,
    the residual vectors of the problems ``rows`` at their parameter rows
    ``X``; ``jacobian(X, R, rows)`` returns their Jacobians, given
    ``R = fun(X, rows)``.  Each problem keeps its own damping, accepted
    steps, cost trace and stop, as ``levenberg_marquardt`` describes, and
    takes the steps it would take alone: the batch shares the calls and
    the damped solves, while each problem's products run over its own
    residual only.  Returns (X, traces, statuses), one row or entry per
    problem.
    """
    X = np.array(X0, dtype=float)
    R = fun(X, np.arange(len(X)))
    cost = [float(r @ r) for r in R]
    traces = [[c] for c in cost]
    damping = np.full(len(X), LM_DAMPING)
    statuses = ["maxIterations"] * len(X)
    active = np.arange(len(X))
    for _ in range(LM_MAX_ITERATIONS):
        if not len(active):
            break
        Js = jacobian(X[active], [R[b] for b in active], active)
        G, H = np.zeros_like(X), np.zeros(X.shape + X.shape[1:])
        for b, J in zip(active, Js):
            G[b], H[b] = J.T @ R[b], J.T @ J
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
            R_new = fun(X_new, tried) if len(tried) else []
            for j, (b, r) in enumerate(zip(tried, R_new)):
                cost_new = float(r @ r)
                if cost_new < cost[b]:
                    X[b], R[b], cost[b] = X_new[j], r, cost_new
                    damping[b] = max(damping[b] / 3.0, 1e-12)
                    accepted[b] = True
                else:
                    damping[b] *= 10.0
            pending = pending[~accepted[pending]]
        for b in active:
            trace = traces[b]
            trace.append(cost[b])
            if not accepted[b]:
                statuses[b] = ("diverged" if damping[b] > LM_DAMPING_MAX
                               else "stalled")
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


def _camera_at(cam, p):
    """``cam`` moved to the pose and focal of the 7 parameters ``p``."""
    K = cam.K.copy()
    K[0, 0] = K[1, 1] = p[6]
    return Camera(rodrigues(p[:3]), p[3:6], K)


# Weight of the optional log-focal prior used by the distortion-blind
# bootstrap: near-frontal planar views leave the focal-depth gauge almost
# free, and at high noise a refinement that ignores distortion can slide
# down it; one unit is far below the pixel noise for observable changes.
BOOTSTRAP_FOCAL_PRIOR = 1.0


def ba_refine(scene, cameras, model, focal_prior_weight=0.0):
    """Pose refinement with the distortion model frozen.

    Cameras decouple given a fixed model and fixed target, so each camera
    is its own problem over (axis-angle rotation, translation, focal), and
    one ``_lm_lockstep`` runs all of them (``_camera_problems``).
    ``focal_prior_weight`` optionally weights the log-focal residual against
    the starting value, which pins the focal-depth gauge of near-frontal
    planar views; a camera whose focal escapes a factor of four regardless
    is reverted to its starting pose and reported as such.  Returns
    (refined cameras, pixel RMS, per-camera LM statuses).
    """
    X0, fun, jacobian = _camera_problems(scene, cameras, model,
                                         focal_prior_weight)
    X, _, statuses = _lm_lockstep(fun, X0, jacobian)
    refined = []
    for i, (cam, x) in enumerate(zip(cameras, X)):
        if cam.focal / 4.0 <= x[6] <= cam.focal * 4.0:
            refined.append(_camera_at(cam, x))
        else:
            refined.append(cam)
            statuses[i] = "reverted"
    return refined, reprojection_rms(scene, refined, model), statuses


def ba_full(scene, cameras, kind):
    """Classical joint bundle adjustment with free distortion coefficients.

    One Levenberg-Marquardt over all camera parameters plus the active
    coefficients of the model kind, on the joint ``_pose_problem``; its
    log-focal prior rows carry weight zero.  Returns (cameras, model,
    pixel RMS).
    """
    x0, resid, jacobian, unpack = _pose_problem(
        scene, cameras, DistortionModel.identity(kind),
        calib.KIND_INDICES[kind], 0.0)
    p_opt = levenberg_marquardt(resid, x0, jacobian)[0]
    cams, model = unpack(p_opt)
    return cams, model, reprojection_rms(scene, cams, model)


def _observations(scene):
    """The scene's observations stacked per camera, padded to one count.

    Returns world points (C, N, 3), pixels (C, N, 2) and ``valid`` (C, N),
    which marks each camera's own observations; padding rows are zero.
    """
    counts = np.array([len(idx) for idx in scene.point_indices])
    n = int(counts.max(initial=0))
    pts = np.zeros((len(counts), n, 3))
    pix = np.zeros((len(counts), n, 2))
    for i, (idx, p) in enumerate(zip(scene.point_indices, scene.pixels)):
        pts[i, :len(idx)] = scene.target[idx]
        pix[i, :len(idx)] = p
    return pts, pix, np.arange(n) < counts[:, None]


# The errors are computed before they are tested for failure.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _pixel_errors(P, pts, pix, valid, principal, model, free=None):
    """Pixel errors of a stack of cameras and, on request, their derivatives.

    Row b of ``P`` holds camera b's 7 parameters (axis-angle, translation,
    focal); ``pts`` (B, N, 3) are its world points and ``pix`` (B, N, 2)
    its observed pixels, of which ``valid`` (B, N) marks its own, and
    ``principal`` (B, 2) is its principal point.  Returns ``ok`` (B,),
    whether camera b's residual is defined: finite parameters, a positive
    focal, and every valid point at depth > 0 with |g(r)| >= POLE_EPS; and
    the errors xy L(r) focal + principal - pix (B, N, 2), in ``project``'s
    arithmetic, meaningless where not ``ok``.
    Given ``free``, coefficient indices, also returns in closed form the
    derivatives of the errors with respect to each camera's parameters
    (B, N, 2, 7) and to ``model.k[free]`` (B, N, 2, len(free)).  The chain
    runs through d(R X + t)/dv = -[R X]x J_l(v) and d(R X + t)/dt = I
    (Triggs et al. 2000), the division by depth and L(r); the focal column
    is xy L and the coefficient columns take the quotient rule on f / g.
    The arithmetic runs on coordinate-leading arrays, elementwise and with
    every sum in a fixed order, so a camera's values do not depend on the
    rest of the stack.
    """
    R, ok = _rotations(P[:, :3])
    X = np.moveaxis(pts, -1, 0)
    Rc = np.moveaxis(R, 0, -1)[..., None]            # Rc[i, k] = R[:, i, k]
    q = Rc[:, 0] * X[0] + Rc[:, 1] * X[1] + Rc[:, 2] * X[2]      # R X
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
    err = xy * L * focal + principal.T[..., None] - np.moveaxis(pix, -1, 0)
    if free is None:
        return ok, np.moveaxis(err, 0, -1)
    powers = np.arange(1, 4)
    L1 = (np.polyval((fc[1:] * powers)[::-1], r) * gv
          - fv * np.polyval((gc[1:] * powers)[::-1], r)) / gv ** 2
    s = focal / pc[2]
    u = xy / np.where(r > 0, r, 1.0)                 # xy / r, 0 at r = 0
    # d err / d(R X + t), G[a, c]: s (L e_a + L' xy_a u) in the x and y
    # columns, -s (L + L' r) xy_a in the depth column.
    G = np.empty((2, 3) + r.shape)
    G[:, :2] = s * L1 * xy[:, None] * u
    G[0, 0] += s * L
    G[1, 1] += s * L
    G[:, 2] = -s * (L + L1 * r) * xy
    # d(R X)/dv, C[c, j]: column j is J_l[:, j] x R X.
    W = np.moveaxis(_left_jacobians(P[:, :3]), 0, -1)[..., None]
    C = W[[1, 2, 0]] * q[[2, 0, 1], None] - W[[2, 0, 1]] * q[[1, 2, 0], None]
    D = np.empty((2, 7) + r.shape)
    D[:, :3] = G[:, 0, None] * C[0]
    D[:, :3] += G[:, 1, None] * C[1]
    D[:, :3] += G[:, 2, None] * C[2]
    D[:, 3:6] = G
    D[:, 6] = xy * L
    dL = np.array([r ** (j % 3 + 1) / gv * (1.0 if j < 3 else -L)
                   for j in free]).reshape((len(free),) + r.shape)
    Dk = xy[:, None] * (dL * focal)
    return (ok, np.moveaxis(err, 0, -1), np.moveaxis(D, (0, 1), (2, 3)),
            np.moveaxis(Dk, (0, 1), (2, 3)))


def _pose_problem(scene, cameras, model, free, focal_prior_weight):
    """Start point, residual, Jacobian and unpacking of a joint refinement.

    The cameras pair with the scene's observation lists in order.  The
    parameters are 7 per camera (axis-angle, translation, focal), then the
    coefficients of ``model`` indexed by ``free``; the others stay fixed.
    The residual stacks each camera's pixel errors, then one log-focal
    prior row per camera, ``focal_prior_weight * log(focal / start)``; any
    failure gives the sentinel vector of 1e8.  ``_pixel_errors`` gives the
    pixel errors of every camera at once, and with them, for
    ``jacobian(x, r0)`` (``r0 = resid(x)``), their closed-form derivatives;
    a prior row's derivative is ``focal_prior_weight / focal``.  At a
    sentinel or non-finite ``r0`` the Jacobian differences the whole
    residual (``_num_jacobian``).  Returns ``(x0, resid, jacobian,
    unpack)``.
    """
    free = list(free)
    ncam = len(cameras)
    pts, pix, valid = _observations(scene)
    principal = np.array([c.principal for c in cameras])
    f0s = np.array([c.focal for c in cameras])
    x0 = np.concatenate([_cam_params(c) for c in cameras]
                        + [np.array(model.k)[free]])
    bounds = np.cumsum([0] + [2 * int(n) for n in valid.sum(axis=1)])
    nres = int(bounds[-1]) + ncam

    def model_at(p):
        if not free:
            return model
        k = np.array(model.k)
        k[free] = p[7 * ncam:]
        return DistortionModel(model.kind, tuple(k))

    def unpack(p):
        return ([_camera_at(cam, p[7 * i:7 * i + 7])
                 for i, cam in enumerate(cameras)], model_at(p))

    def evaluate(p, derivatives):
        """``_pixel_errors`` of every camera at p, or None where ``resid``
        fails."""
        if not np.isfinite(p[7 * ncam:]).all():
            return None
        ok, *out = _pixel_errors(p[:7 * ncam].reshape(ncam, 7), pts, pix,
                                 valid, principal, model_at(p),
                                 free if derivatives else None)
        return out if ok.all() else None

    def resid(p):
        out = evaluate(p, False)
        if out is None:
            return np.full(nres, 1e8)
        priors = [focal_prior_weight * math.log(p[7 * i + 6] / f0s[i])
                  for i in range(ncam)]
        return np.concatenate([out[0][valid].ravel(), priors])

    def jacobian(x, r0):
        if not np.isfinite(r0).all() or np.all(r0 == 1e8):
            return _num_jacobian(resid, x, r0)
        _, D, Dk = evaluate(x, True)
        J = np.zeros((nres, len(x)))
        for i in range(ncam):
            rows = slice(bounds[i], bounds[i + 1])
            n = bounds[i + 1] - bounds[i]
            J[rows, 7 * i:7 * i + 7] = D[i, valid[i]].reshape(n, 7)
            J[rows, 7 * ncam:] = Dk[i, valid[i]].reshape(n, len(free))
            J[bounds[-1] + i, 7 * i + 6] = focal_prior_weight / x[7 * i + 6]
        return J

    return x0, resid, jacobian, unpack


def _camera_problems(scene, cameras, model, focal_prior_weight):
    """``_pose_problem`` with ``model`` fixed, one problem per camera.

    With no free coefficient, a camera's pixel errors and its prior row
    depend on its own 7 parameters only.  So camera b is problem b of an
    ``_lm_lockstep`` batch: row b of ``X0`` holds its parameters, and its
    residual is its own rows of the joint residual, pixel errors then the
    prior row, or 1e8 in each where they fail.  The cameras of one call
    share one ``_pixel_errors`` stack, padded to the largest observation
    count, and each problem gets back only its own rows.  A problem whose
    residual is the sentinel or non-finite differences its residual
    (``_num_jacobian``).  Returns ``(X0, fun, jacobian)``.
    """
    pts, pix, valid = _observations(scene)
    principal = np.array([c.principal for c in cameras])
    f0s = np.array([c.focal for c in cameras])
    X0 = np.array([_cam_params(c) for c in cameras]).reshape(-1, 7)
    sizes = 2 * valid.sum(axis=1) + 1
    width = 2 * valid.shape[1]

    def evaluate(X, rows, derivatives):
        return _pixel_errors(X, pts[rows], pix[rows], valid[rows],
                             principal[rows], model,
                             () if derivatives else None)

    def split(stacked, rows):
        """Each problem's own rows: its valid pixel rows then its prior."""
        return [stacked[j, :sizes[b]] for j, b in enumerate(rows)]

    def fun(X, rows):
        ok, err = evaluate(X, rows, False)
        out = np.zeros((len(rows), width + 1))
        pixel_rows = out[:, :width].reshape(err.shape)
        pixel_rows[...] = err
        pixel_rows[~valid[rows]] = 0.0
        for j in np.flatnonzero(ok):
            out[j, sizes[rows[j]] - 1] = focal_prior_weight * math.log(
                X[j, 6] / f0s[rows[j]])
        out[~ok] = 1e8
        return split(out, rows)

    def jacobian(X, R, rows):
        ok, _, D, _ = evaluate(X, rows, True)
        J = np.zeros((len(rows), width + 1, 7))
        pixel_rows = J[:, :width].reshape(D.shape)
        pixel_rows[...] = D
        pixel_rows[~valid[rows]] = 0.0
        J[ok, sizes[rows[ok]] - 1, 6] = focal_prior_weight / X[ok, 6]
        Js = split(J, rows)
        for j, (b, r) in enumerate(zip(rows, R)):
            if not np.isfinite(r).all() or np.all(r == 1e8):
                Js[j] = _num_jacobian(
                    lambda x, b=b: fun(x[None], np.array([b]))[0], X[j], r)
        return Js

    return X0, fun, jacobian


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
        # Every trial's fit takes this configuration: refuse up front what
        # it would refuse in each trial.
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
