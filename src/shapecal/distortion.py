"""Radial distortion models and shape diagnostics.

The distortion multiplier is a rational function of the radius,

    L(r) = f(r) / g(r),   f(r) = 1 + k1 r + k2 r^2 + k3 r^3,
                          g(r) = 1 + k4 r + k5 r^2 + k6 r^3,

applied to normalized image coordinates as (xh, yh) = L(r) (x, y) with
r = sqrt(x^2 + y^2).  Both numerator and denominator have constant term 1,
so L(0) = 1 for every well-formed model.  ``KIND_INDICES`` names the
coefficients each kind leaves free, the rest being zero: 'polynomial'
k1..k3, 'division' k4..k6 and 'rational' all six.

``DistortionModel.evaluate`` is the one evaluator of L, of its derivatives
by the quotient rule on f and g (finite-difference error must not confound
shape certification) and of the pole rule |g| < POLE_EPS.  The inverse map
has one path, ``undistort_radii``: the smallest root of r L(r) = rhat,
bracketed by the exact real roots of g and of the numerator of (r L(r))',
by Newton steps on r f - rhat g, and gated by ``evaluate``'s pole mask.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

KIND_INDICES = {"polynomial": (0, 1, 2), "division": (3, 4, 5),
                "rational": (0, 1, 2, 3, 4, 5)}
KINDS = tuple(KIND_INDICES)
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
    """k1..k6 of a kind, zero outside KIND_INDICES[kind]; ``evaluate`` is
    the one evaluator of L, L', L'' and g, and the one pole test."""

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
        fixed = [i for i in range(6) if i not in KIND_INDICES[self.kind]]
        if any(abs(k[i]) > 0 for i in fixed):
            raise ValueError(f"{self.kind} kind requires "
                             + " = ".join(f"k{i + 1}" for i in fixed) + " = 0")
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

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def evaluate(self, r, order=0):
        """[L, L', L''][:order + 1], g and the pole mask |g| < POLE_EPS at r.

        The one evaluation of the model: f, g and their derivatives come
        from every coefficient, however small, and L's derivatives from the
        quotient rule on them.  It neither raises nor warns; values where
        the mask is set are meaningless.
        """
        r = np.asarray(r, dtype=float)
        f, g = [self.f_coeffs], [self.g_coeffs]
        for _ in range(order):
            f.append(_der(f[-1]))
            g.append(_der(g[-1]))
        f = [_polyval(c, r) for c in f]
        g = [_polyval(c, r) for c in g]
        Ls = [f[0] / g[0]]
        if order > 0:
            num1 = f[1] * g[0] - f[0] * g[1]
            Ls.append(num1 / g[0] ** 2)
        if order > 1:
            Ls.append(((f[2] * g[0] - f[0] * g[2]) * g[0]
                       - 2.0 * g[1] * num1) / g[0] ** 3)
        return Ls, g[0], np.abs(g[0]) < POLE_EPS

    def _off_poles(self, r, order):
        """``evaluate``'s values, or PoleError at the first masked radius."""
        r = np.asarray(r, dtype=float)
        Ls, _, pole = self.evaluate(r, order)
        if np.any(pole):
            raise PoleError(r[pole].flat[0] if r.ndim else float(r))
        return Ls

    def L(self, r):
        """Distortion multiplier at radius r (scalar or array).

        Raises PoleError where |g| < POLE_EPS.
        """
        return self._off_poles(r, 0)[0]

    def L_derivatives(self, r):
        """(L, L', L'') at radius r; raises PoleError as ``L`` does."""
        return tuple(self._off_poles(r, 2))


def _polyval(coeffs_low_first, r):
    return np.polyval(coeffs_low_first[::-1], r)


def _der(coeffs_low_first):
    return coeffs_low_first[1:] * np.arange(1, len(coeffs_low_first))


def distort(model, point):
    """Apply the radial model: (x, y) -> L(r) (x, y); origin maps to origin."""
    p = np.asarray(point, dtype=float)
    r = np.sqrt(np.sum(p * p, axis=-1))
    scale = model.L(r)
    return p * np.expand_dims(scale, -1) if p.ndim > 1 else p * scale


def undistort(model, point, search_max):
    """Invert the radial map for one point: a one-point ``undistort_radii``.

    Returns the point rescaled to the smallest root r of r * L(r) = |point|;
    raises NoRootError when ``undistort_radii`` finds none.
    """
    p = np.asarray(point, dtype=float)
    rhat = float(np.hypot(p[0], p[1]))
    r, ok = undistort_radii(model, [rhat], search_max)
    if not ok[0]:
        raise NoRootError(f"no radius in [0, {search_max:g}] before the "
                          f"first pole maps to {rhat:g}")
    return p * (r[0] / rhat) if rhat > 0 else p.copy()


# Intervals of the uniform table over [0, search_max] whose interpolation
# seeds Newton's method inside each monotone piece of the forward curve.
CURVE_SCAN_INTERVALS = 4096
# A root r of r L(r) = rhat counts when |r L(r) - rhat| <= this * (1 + rhat).
RESIDUAL_RTOL = 1e-9
# Imaginary parts up to this fraction of 1 + |real part| count as real: a
# double root comes out of np.roots as a pair about sqrt(eps) off the axis.
ROOT_IMAG_RTOL = 1e-6


def _positive_real_roots(coeffs_low_first):
    z = np.roots(coeffs_low_first[::-1])
    x = z.real[np.abs(z.imag) <= ROOT_IMAG_RTOL * (1.0 + np.abs(z.real))]
    return np.sort(x[x > 0])


def undistort_radii(model, rhats, search_max):
    """Smallest root r of q(r) = r * L(r) = rhat for a 1-D array of rhats.

    The bracket ends at g's first positive root or at search_max, whichever
    comes first.  q is monotone between the real roots of the numerator of
    q', (f + r f') g - r f g', and a target's smallest root lies in the first
    increasing piece whose q-range, widened by the residual gate, holds it.
    A uniform table of q with the piece ends as extra nodes seeds it by
    interpolation, and four Newton steps on r f - rhat g, clipped to the
    piece, polish it.  It counts when its residual is within RESIDUAL_RTOL
    (1 + rhat) and |g| >= POLE_EPS; failures carry NaN.  Returns (r, ok).
    """
    if search_max <= 0:
        raise ValueError("search_max must be positive")
    t = np.asarray(rhats, dtype=float)
    fc, gc = model.f_coeffs, model.g_coeffs
    f1c, g1c = _der(fc), _der(gc)
    poles = _positive_real_roots(gc)
    at_pole = len(poles) > 0 and poles[0] <= search_max
    end = poles[0] if at_pole else search_max
    fwd = np.concatenate([[0.0], fc])
    turns = _positive_real_roots(np.convolve(_der(fwd), gc)
                                 - np.convolve(fwd, g1c))
    ends = np.concatenate([[0.0], turns[turns < end], [end]])
    r_out = np.full(t.shape, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_ends = ends * (_polyval(fc, ends) / _polyval(gc, ends))
        if at_pole:
            # One-sided limit: g > 0 below its first root, so q tends to
            # infinity with f's sign, unless f vanishes there too and the
            # common root cancels (l'Hopital).
            fb = _polyval(fc, end)
            q_ends[-1] = (math.copysign(math.inf, fb) if abs(fb) >= POLE_EPS
                          else end * _polyval(f1c, end) / _polyval(g1c, end))
        tc = t[:, None]
        holds = ((tc >= np.maximum(q_ends[:-1], 0.0))
                 & (tc <= q_ends[1:] + RESIDUAL_RTOL * (1.0 + tc)))
        idx = np.nonzero(holds.any(axis=1))[0]
        target = t[idx]
        piece = np.argmax(holds[idx], axis=1)
        rs = np.linspace(0.0, search_max, CURVE_SCAN_INTERVALS + 1)
        q_rs = rs * (_polyval(fc, rs) / _polyval(gc, rs))
        r = np.empty(target.shape)
        for j in range(len(ends) - 1):
            inner = (rs > ends[j]) & (rs < ends[j + 1])
            qn = np.r_[q_ends[j], q_rs[inner], q_ends[j + 1]]
            nodes = np.r_[ends[j], rs[inner], ends[j + 1]]
            r[piece == j] = np.interp(target[piece == j], qn, nodes)
        for _ in range(4):
            fv, f1v = _polyval(fc, r), _polyval(f1c, r)
            gv, g1v = _polyval(gc, r), _polyval(g1c, r)
            # Newton on r f - rhat g: q's roots in the piece, and no pole.
            dh = fv + r * f1v - target * g1v
            step = np.where(np.abs(dh) > 1e-14,
                            (r * fv - target * gv) / dh, 0.0)
            r = np.clip(r - step, ends[piece], ends[piece + 1])
        _, gv, pole = model.evaluate(r)
        resid = np.abs(r * _polyval(fc, r) / gv - target)
    good = (resid <= RESIDUAL_RTOL * (1.0 + target)) & ~pole
    r_out[idx[good]] = r[good]
    return r_out, ~np.isnan(r_out)


def undistort_points(model, points, search_max):
    """Vectorized inverse over rows of an (n, 2) array.

    Returns (out, ok) where rows that failed (no root, pole) carry NaN and
    ok = False instead of being dropped.
    """
    pts = np.asarray(points, dtype=float)
    rhats = np.hypot(pts[:, 0], pts[:, 1])
    r, ok = undistort_radii(model, rhats, search_max)
    return pts * (r / np.where(rhats > 0, rhats, 1.0))[:, None], ok


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
    if not 0 < rbar < math.inf:
        raise ValueError("rbar must be positive and finite")
    if samples < 2:
        raise ValueError("samples must be at least 2 to hold both endpoints")
    rs = np.linspace(0.0, rbar, samples)
    Ls, gv, pole = model.evaluate(rs, 0 if shape == "positivity" else 2)

    if shape == "positivity":
        viol = np.maximum(margin - gv, 0.0)
    else:
        _, L1, L2 = Ls
        if shape == "barrel":
            viol = np.maximum(np.maximum(L1, L2), 0.0)
        else:
            viol = np.maximum(np.maximum(-L1, -L2), 0.0)
            viol = np.maximum(viol, np.maximum(-gv, 0.0))
        viol[pole] = np.inf

    max_violation = float(viol.max())
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
