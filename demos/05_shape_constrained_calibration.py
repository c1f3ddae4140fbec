"""The four calibration problems on synthetic correspondences.

Each correspondence contributes two rows of a linear system in the model
coefficients; the squared residual is a convex quadratic handled through an
epigraph block.  Plain least squares fits the data but extrapolates freely;
the shaped variants add interval nonnegativity certificates for the
derivative conditions (a pure LMI for barrel and for the positive
denominator, a moment relaxation for pincushion where the curvature couples
the coefficients quadratically).
"""

import numpy as np

from shapecal import calib
from shapecal.calib import CalibConfig, assemble_cost
from shapecal.distortion import DistortionModel


def sample(model, radii, n=300, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    r = rng.uniform(radii[0], radii[1], size=n)
    th = rng.uniform(0, 2 * np.pi, size=n)
    x, y = r * np.cos(th), r * np.sin(th)
    s = model.L(r)
    data = np.stack([x, y, s * x, s * y], axis=1)
    if noise:
        data[:, 2:] += rng.normal(scale=noise, size=(n, 2))
    return data


# --- unconstrained least squares -------------------------------------------

true = DistortionModel("rational", (-0.2, 0.08, 0.06, -0.15, 0.07, 0.05))
cost = assemble_cost(sample(true, (0.05, 2.0)))
fit = calib.solve_unconstrained(cost, "rational")
print("unconstrained recovery:",
      "max |k - k_true| =", np.abs(np.array(fit.model.k) - true.k).max())

# --- barrel: certified decreasing-concave multiplier ------------------------

true_b = DistortionModel("polynomial", (-0.2, -0.08, 0, 0, 0, 0))
cost = assemble_cost(sample(true_b, (0.02, 0.45), noise=1.0 / 540, seed=1))
cfg = CalibConfig(rbar=1.0, shape="barrel")
barrel = calib.solve_barrel(cost, cfg)
plain = calib.solve_unconstrained(cost, "polynomial")
print("\nbarrel fit on noisy half-coverage data:")
print("  constrained objective:", barrel.objective)
print("  unconstrained objective:", plain.objective)
print("  shape violation over [0, 1]:", barrel.shape_report.max_violation)
print("  unconstrained violates by:",
      calib.shape_check(plain.model, "barrel", 1.0).max_violation)

# --- pincushion: moment relaxation with certified extraction ----------------

true_p = DistortionModel("division", (0, 0, 0, -0.15, 0, 0))
cost = assemble_cost(sample(true_p, (0.02, 0.45), noise=1.0 / 540, seed=4))
cfg = CalibConfig(rbar=1.0, shape="pincushion", delta_max=2)
pin = calib.solve_pincushion(cost, cfg)
print("\npincushion fit:", pin.solver_status,
      "| escalation level:", pin.relaxation_order,
      f"({pin.relaxation_pass})",
      "| certified:", pin.certified)
print("  k4..k6:", np.round(pin.model.k[3:], 5))
print("  lower bound vs objective:", pin.lower_bound, pin.objective)

# --- zero-crossing removal ---------------------------------------------------

# A generator with a common linear factor makes the six-coefficient
# parameterization degenerate; noise then lands the plain fit on a
# representation whose denominator crosses zero inside the field of view.
rho = 2.0
s = -1.0 / rho
f_tilde = np.array([1.0, -0.16, 0.10])
g_tilde = np.array([1.0, -0.28, 0.14])
k = (f_tilde[1] + s, f_tilde[2] + s * f_tilde[1], s * f_tilde[2],
     g_tilde[1] + s, g_tilde[2] + s * g_tilde[1], s * g_tilde[2])
mustache = DistortionModel("rational", k)
cost = assemble_cost(sample(mustache, (0.05, 1.2), n=400, seed=10,
                            noise=0.5 / 540))
plain = calib.solve_unconstrained(cost, "rational")
rs = np.linspace(0, 4, 4001)
g_plain = np.polyval(np.array(plain.model.g_coeffs)[::-1], rs)
print("\nzero-crossing pathology: min g of the plain fit on [0, 4] =",
      g_plain.min())

cfg = CalibConfig(rbar=4.0, margin_p=0.1, shape="positivity")
safe = calib.solve_zero_crossing(cost, cfg)
g_safe = np.polyval(np.array(safe.model.g_coeffs)[::-1], rs)
print("constrained fit: min g =", g_safe.min(), "(kept above p = 0.1)")
print("objectives:", plain.objective, "vs", safe.objective)
