"""Radial distortion models and shape diagnostics.

The distortion multiplier is a rational function of the radius,

    L(r) = f(r) / g(r),   f(r) = 1 + k1 r + k2 r^2 + k3 r^3,
                          g(r) = 1 + k4 r + k5 r^2 + k6 r^3,

applied to normalized image coordinates as (xh, yh) = L(r) (x, y) with
r = sqrt(x^2 + y^2).  Both numerator and denominator have constant term 1,
so L(0) = 1 for every well-formed model.  The 'polynomial' kind fixes
k4..k6 = 0, the 'division' kind fixes k1..k3 = 0, and 'rational' uses all
six coefficients.

Derivatives for the shape checks are computed analytically with the
quotient rule on the polynomial halves; shape certification must not be
confounded by finite-difference error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

KINDS = ("polynomial", "division", "rational")
SHAPES = ("barrel", "pincushion", "positivity")

POLE_EPS = 1e-12


class PoleError(ArithmeticError):
    """Denominator vanished at some radius: the zero-crossing pathology."""

    def __init__(self, radius):
        super().__init__(f"distortion denominator vanishes near r = {radius:.6g}")
        self.radius = float(radius)


class NoRootError(ValueError):
    """Radius equation r * L(r) = rhat has no root in the search bracket."""


@dataclass(frozen=True)
class DistortionModel:
    kind: str
    k: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        k = tuple(float(v) for v in self.k)
        if len(k) != 6:
            raise ValueError("k must have 6 entries")
        if not all(math.isfinite(v) for v in k):
            raise ValueError("k must be finite")
        if self.kind == "polynomial" and any(abs(v) > 0 for v in k[3:]):
            raise ValueError("polynomial kind requires k4 = k5 = k6 = 0")
        if self.kind == "division" and any(abs(v) > 0 for v in k[:3]):
            raise ValueError("division kind requires k1 = k2 = k3 = 0")
        object.__setattr__(self, "k", k)

    @classmethod
    def identity(cls, kind="rational"):
        return cls(kind, (0.0,) * 6)

    @property
    def f_coeffs(self):
        return np.array([1.0, self.k[0], self.k[1], self.k[2]])

    @property
    def g_coeffs(self):
        return np.array([1.0, self.k[3], self.k[4], self.k[5]])

    def L(self, r):
        """Distortion multiplier at radius r (scalar or array).

        Raises PoleError when the denominator magnitude drops below 1e-12.
        """
        r = np.asarray(r, dtype=float)
        fv = _polyval(self.f_coeffs, r)
        gv = _polyval(self.g_coeffs, r)
        bad = np.abs(gv) < POLE_EPS
        if np.any(bad):
            raise PoleError(r[bad].flat[0] if r.ndim else float(r))
        return fv / gv

    def L_derivatives(self, r):
        """(L, L', L'') at radius r, by the quotient rule on f and g.

        f and g are evaluated from every coefficient, however small, as in
        ``L``, so the first entry equals ``L(r)`` bit for bit.
        """
        r = np.asarray(r, dtype=float)
        fv, f1v, f2v = _polyval_derivatives(self.f_coeffs, r)
        gv, g1v, g2v = _polyval_derivatives(self.g_coeffs, r)
        bad = np.abs(gv) < POLE_EPS
        if np.any(bad):
            raise PoleError(r[bad].flat[0] if r.ndim else float(r))
        num1 = f1v * gv - fv * g1v
        L = fv / gv
        L1 = num1 / gv ** 2
        L2 = ((f2v * gv - fv * g2v) * gv - 2.0 * g1v * num1) / gv ** 3
        return L, L1, L2


def _polyval(coeffs_low_first, r):
    return np.polyval(coeffs_low_first[::-1], r)


def _polyval_derivatives(coeffs_low_first, r):
    """Value, first and second derivative at r of a dense polynomial."""
    d1 = np.polynomial.polynomial.polyder(coeffs_low_first)
    d2 = np.polynomial.polynomial.polyder(d1)
    return (_polyval(coeffs_low_first, r), _polyval(d1, r),
            _polyval(d2, r))


def distort(model, point):
    """Apply the radial model: (x, y) -> L(r) (x, y); origin maps to origin."""
    p = np.asarray(point, dtype=float)
    r = np.sqrt(np.sum(p * p, axis=-1))
    scale = model.L(r)
    return p * np.expand_dims(scale, -1) if p.ndim > 1 else p * scale


def _forward_radius(model, r):
    return r * model.L(r)


def undistort(model, point, search_max):
    """Invert the radial map for one point.

    Finds the smallest r in [0, search_max] with r * L(r) = |point| by a
    bracketed bisection refined with Newton steps, then rescales the
    direction.  Raises NoRootError when the target radius is outside the
    image of the bracket and propagates PoleError from the search.
    """
    if search_max <= 0:
        raise ValueError("search_max must be positive")
    p = np.asarray(point, dtype=float)
    rhat = float(np.sqrt(p @ p))
    if rhat == 0.0:
        return p.copy()
    r = _solve_radius(model, rhat, search_max)
    return p * (r / rhat)


# Intervals of the uniform scan over [0, search_max]: the scalar search
# only brackets its root before bisecting, while the vectorized inversion
# interpolates the curve and polishes with just four Newton steps.
SCALAR_SCAN_INTERVALS = 512
CURVE_SCAN_INTERVALS = 4096


def _solve_radius(model, rhat, search_max):
    rs = np.linspace(0.0, search_max, SCALAR_SCAN_INTERVALS + 1)
    try:
        h = rs * model.L(rs) - rhat
    except PoleError:
        # Fall back to a scan that stops at the first pole.
        h = np.empty_like(rs)
        for i, r in enumerate(rs):
            try:
                h[i] = r * float(model.L(r)) - rhat
            except PoleError:
                rs = rs[:i]
                h = h[:i]
                break
        if len(rs) < 2:
            raise
    if h[0] > 0:
        raise NoRootError("target radius below the image of the bracket")
    cross = np.nonzero((h[:-1] <= 0) & (h[1:] >= 0))[0]
    if len(cross) == 0:
        raise NoRootError(
            f"no radius in [0, {search_max:g}] maps to {rhat:g}")
    lo, hi = rs[cross[0]], rs[cross[0] + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _forward_radius(model, mid) - rhat <= 0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    for _ in range(4):
        fr = _forward_radius(model, r) - rhat
        eps = 1e-7 * (1.0 + r)
        d = (_forward_radius(model, r + eps) - _forward_radius(model, r - eps)) \
            / (2 * eps)
        if abs(d) < 1e-14:
            break
        step = fr / d
        r_new = r - step
        if not (lo - 1e-9 <= r_new <= hi + 1e-9):
            break
        r = r_new
    return r


def undistort_radii(model, rhats, search_max):
    """Vectorized smallest-root inversion of r * L(r) over many radii.

    Radii are inverted on the first strictly increasing branch of the
    forward curve by interpolation plus Newton polishing; targets that fall
    outside that branch fall back to the scalar search.  Returns (r, ok).
    """
    rhats = np.asarray(rhats, dtype=float)
    r_out = np.full(rhats.shape, np.nan)
    ok = np.zeros(rhats.shape, dtype=bool)
    try:
        rs = np.linspace(0.0, search_max, CURVE_SCAN_INTERVALS + 1)
        q = rs * model.L(rs)
    except PoleError:
        rs = None
    if rs is not None:
        # Monotone prefix: the curve leaves the origin with unit slope.
        increasing = np.nonzero(np.diff(q) <= 0)[0]
        stop = increasing[0] + 1 if len(increasing) else len(q)
        qs, rp = q[:stop], rs[:stop]
        inside = (rhats >= 0) & (rhats <= qs[-1])
        r = np.interp(rhats[inside], qs, rp)
        fc, gc = model.f_coeffs, model.g_coeffs
        for _ in range(4):
            fv, f1v, _ = _polyval_derivatives(fc, r)
            gv, g1v, _ = _polyval_derivatives(gc, r)
            qv = r * fv / gv
            dq = (fv * gv + r * (f1v * gv - fv * g1v)) / gv ** 2
            step = np.where(np.abs(dq) > 1e-14, (qv - rhats[inside]) / dq, 0.0)
            r = np.clip(r - step, 0.0, search_max)
        resid = np.abs(r * _polyval(fc, r) / _polyval(gc, r) - rhats[inside])
        good = resid <= 1e-9 * (1.0 + np.abs(rhats[inside]))
        idx = np.nonzero(inside)[0]
        r_out[idx[good]] = r[good]
        ok[idx[good]] = True
    for i in np.nonzero(~ok)[0]:
        try:
            r_out[i] = _solve_radius(model, float(rhats[i]), search_max)
            ok[i] = True
        except (PoleError, NoRootError):
            pass
    return r_out, ok


def undistort_points(model, points, search_max):
    """Vectorized inverse over rows of an (n, 2) array.

    Returns (out, ok) where rows that failed (no root, pole) carry NaN and
    ok = False instead of being dropped.
    """
    pts = np.asarray(points, dtype=float)
    rhats = np.hypot(pts[:, 0], pts[:, 1])
    r, ok = undistort_radii(model, rhats, search_max)
    scale = np.where((rhats > 0) & ok, r / np.where(rhats > 0, rhats, 1.0),
                     np.where(ok, 1.0, np.nan))
    out = pts * scale[:, None]
    out[rhats == 0] = 0.0
    ok = ok | (rhats == 0)
    out[~ok] = np.nan
    return out, ok


@dataclass
class ShapeReport:
    shape: str
    rbar: float
    samples: int
    max_violation: float
    violating_radii: list


def shape_check(model, shape, rbar, samples=2048, margin=0.1, tol=1e-9):
    """Evaluate the shape-defining inequalities on a uniform grid.

    barrel:      L'(r) <= 0 and L''(r) <= 0
    pincushion:  L'(r) >= 0 and L''(r) >= 0 and g(r) > 0
    positivity:  g(r) - margin >= 0

    The grid includes both endpoints of [0, rbar].  max_violation is the
    largest amount by which any inequality fails; radii violating beyond
    ``tol`` are listed.  A vanishing denominator counts as an unbounded
    violation at that radius.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    if rbar <= 0:
        raise ValueError("rbar must be positive")
    rs = np.linspace(0.0, rbar, samples)
    gv = _polyval(model.g_coeffs, rs)

    if shape == "positivity":
        viol = np.maximum(margin - gv, 0.0)
    else:
        safe = np.abs(gv) >= POLE_EPS
        viol = np.full_like(rs, np.inf)
        if safe.any():
            sub = rs[safe]
            _, L1, L2 = model.L_derivatives(sub)
            if shape == "barrel":
                v = np.maximum(np.maximum(L1, L2), 0.0)
            else:
                v = np.maximum(np.maximum(-L1, -L2), 0.0)
                v = np.maximum(v, np.maximum(-gv[safe], 0.0))
            viol[safe] = v

    max_violation = float(viol.max()) if len(viol) else 0.0
    violating = rs[viol > tol].tolist()
    return ShapeReport(shape, float(rbar), int(samples), max_violation,
                       violating)


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump({"kind": model.kind, "k": list(model.k)}, fh)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    return DistortionModel(doc["kind"], tuple(doc["k"]))
