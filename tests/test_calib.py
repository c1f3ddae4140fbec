import math

import numpy as np
import pytest

from shapecal import calib, certs, pipeline, relax, sdp
from shapecal.calib import (CalibConfig, assemble_cost,
                            read_correspondences, residual_rms,
                            solve_barrel, solve_pincushion,
                            solve_unconstrained, solve_zero_crossing,
                            write_correspondences)
from shapecal.distortion import KIND_INDICES, DistortionModel, shape_check

from util import block_value, build_rows, common_root_mustache, \
    pincushion_feasible, synth_correspondences


def test_build_rows_zero_radius():
    A, b = build_rows((0.0, 0.0, 0.07, -0.02))
    assert np.allclose(A, 0.0)
    assert np.allclose(b, [-0.07, 0.02])


def test_build_rows_undistorted_point():
    A, b = build_rows((1.0, 0.0, 1.0, 0.0))
    assert np.allclose(b, 0.0)
    assert np.allclose(A @ np.zeros(6) - b, 0.0)


def test_build_rows_expansion_identity():
    # A_i k - b_i must reassemble to (g(r) xhat - f(r) x, g(r) yhat - f(r) y).
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, xh, yh = rng.normal(size=4)
        k = rng.normal(size=6) * 0.3
        A, b = build_rows((x, y, xh, yh))
        r = np.hypot(x, y)
        f = 1 + k[0] * r + k[1] * r ** 2 + k[2] * r ** 3
        g = 1 + k[3] * r + k[4] * r ** 2 + k[5] * r ** 3
        expected = np.array([g * xh - f * x, g * yh - f * y])
        assert np.allclose(A @ k - b, expected, atol=1e-12)


def test_assemble_cost_single_zero_row():
    cost = assemble_cost([(0.0, 0.0, 0.3, -0.1)])
    assert np.allclose(cost.M, 0.0)
    assert np.allclose(cost.m, 0.0)
    assert cost.c == pytest.approx(0.1, abs=1e-15)


def test_assemble_cost_doubling():
    data = synth_correspondences(
        DistortionModel("polynomial", (-0.1, 0, 0, 0, 0, 0)), (0.1, 1.0),
        n=40, seed=1)
    one = assemble_cost(data)
    two = assemble_cost(np.concatenate([data, data]))
    assert np.allclose(two.M, 2 * one.M)
    assert np.allclose(two.m, 2 * one.m)
    assert two.c == pytest.approx(2 * one.c)


def test_cost_matches_residual_sum():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(100, 4))
    cost = assemble_cost(data)
    for _ in range(5):
        k = rng.normal(size=6) * 0.2
        direct = 0.0
        for row in data:
            A, b = build_rows(row)
            direct += float(((A @ k - b) ** 2).sum())
        assert cost.objective(k) == pytest.approx(direct, rel=1e-9)


def test_cost_matrix_psd():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(50, 4))
    cost = assemble_cost(data)
    assert np.linalg.eigvalsh(cost.M)[0] >= -1e-10


TRUE_RATIONAL = DistortionModel("rational",
                                (-0.15, 0.05, 0.02, -0.1, 0.04, 0.01))


def test_unconstrained_recovers_rational_generator():
    data = synth_correspondences(TRUE_RATIONAL, (0.05, 2.0), n=300, seed=2)
    res = solve_unconstrained(assemble_cost(data), "rational")
    assert res.solver_status == "optimal"
    assert np.abs(np.array(res.model.k) - TRUE_RATIONAL.k).max() <= 1e-5
    assert res.objective <= 1e-10


def test_unconstrained_identity_data():
    data = synth_correspondences(DistortionModel.identity(), (0.1, 1.0),
                                 n=50, seed=3)
    res = solve_unconstrained(assemble_cost(data), "rational")
    assert np.abs(res.model.k).max() <= 1e-6
    assert res.objective <= 1e-12


def test_unconstrained_rank_deficient_matches_pseudoinverse():
    # All points at one radius: M is singular; objectives must still agree.
    rng = np.random.default_rng(6)
    theta = rng.uniform(0, 2 * np.pi, size=60)
    r = 0.8
    x, y = r * np.cos(theta), r * np.sin(theta)
    scale = 0.93
    data = np.stack([x, y, scale * x, scale * y], axis=1)
    cost = assemble_cost(data)
    res = solve_unconstrained(cost, "polynomial")
    Mr = cost.M[:3, :3]
    mr = cost.m[:3]
    k_pinv = np.linalg.pinv(Mr) @ (-0.5 * mr)
    obj_pinv = float(k_pinv @ Mr @ k_pinv + mr @ k_pinv + cost.c)
    assert res.objective == pytest.approx(obj_pinv, abs=1e-6)


def test_unconstrained_fit_runs_no_sdp(monkeypatch):
    # The plain least-squares point has a closed form; no program is solved.
    def no_solve(*args, **kwargs):
        raise AssertionError("the unconstrained fit ran the SDP solver")

    monkeypatch.setattr(sdp, "solve", no_solve)
    data = synth_correspondences(TRUE_RATIONAL, (0.05, 0.9), n=150, seed=1,
                                 noise=2.0 / 540)
    cost = assemble_cost(data)
    for kind in ("rational", "polynomial", "division"):
        res = solve_unconstrained(cost, kind)
        assert res.solver_status == "optimal"
        assert res.model.kind == kind
        if kind == "rational":
            # The pseudoinverse closed form is itself unreliable for the
            # ill-conditioned rational columns; it is not compared here.
            continue
        idx = list(KIND_INDICES[kind])
        Mr, mr = cost.M[np.ix_(idx, idx)], cost.m[idx]
        closed = cost.c - 0.25 * mr @ np.linalg.pinv(Mr) @ mr
        assert abs(res.objective - closed) <= 1e-12 * (1.0 + abs(closed))


def test_affine_polish_takes_the_unconstrained_point(monkeypatch):
    # When the least-squares point already has the shape it is the
    # constrained optimum: the affine fits return the very point the
    # unconstrained fit returns, and solve no program.
    def no_solve(*args, **kwargs):
        raise AssertionError("a fit with an inactive shape ran the solver")

    monkeypatch.setattr(sdp, "solve", no_solve)
    true = DistortionModel("polynomial", (-0.1, -0.05, 0, 0, 0, 0))
    data = synth_correspondences(true, (0.02, 0.5), n=500, seed=4)
    cost = assemble_cost(data)
    res = solve_barrel(cost, CalibConfig(rbar=1.0, shape="barrel"))
    assert res.solver_status == "optimal"
    assert res.model.k == solve_unconstrained(cost, "polynomial").model.k

    data = synth_correspondences(TRUE_RATIONAL, (0.05, 0.9), n=150, seed=1)
    cost = assemble_cost(data)
    res = solve_zero_crossing(cost, CalibConfig(rbar=1.0, shape="positivity"))
    assert res.solver_status == "optimal"
    assert res.shape_report.max_violation == 0.0
    assert res.model.k == solve_unconstrained(cost, "rational").model.k


def test_affine_fit_with_a_binding_shape_solves_once(monkeypatch):
    # A least-squares point that lacks the shape sends the fit to exactly
    # one program solve, whose answer is the result.
    calls = []
    real_solve = sdp.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve", counting_solve)
    true = DistortionModel("polynomial", (0.1, 0.05, 0, 0, 0, 0))
    cases = [
        (solve_barrel, "barrel",
         synth_correspondences(true, (0.02, 0.5), n=200, seed=5)),
        (solve_zero_crossing, "positivity",
         synth_correspondences(TRUE_RATIONAL, (0.05, 0.9), n=150, seed=1,
                               noise=2.0 / 540)),
    ]
    for solve, shape, data in cases:
        cost = assemble_cost(data)
        cfg = CalibConfig(rbar=1.0, shape=shape)
        kind = calib.SHAPE_KINDS[shape]
        k_ls = solve_unconstrained(cost, kind).model
        assert shape_check(k_ls, shape, cfg.rbar,
                           margin=cfg.margin_p).max_violation > 1e-3
        calls.clear()
        res = solve(cost, cfg)
        assert len(calls) == 1
        assert res.solver_status == "optimal"
        assert res.shape_report.max_violation <= 1e-6


def test_barrel_noiseless_recovery():
    true = DistortionModel("polynomial", (-0.1, -0.05, 0, 0, 0, 0))
    data = synth_correspondences(true, (0.02, 0.5), n=500, seed=4)
    cost = assemble_cost(data)
    cfg = CalibConfig(rbar=1.0, shape="barrel")
    res = solve_barrel(cost, cfg)
    unc = solve_unconstrained(cost, "polynomial")
    assert np.abs(np.array(res.model.k) - true.k).max() <= 1e-4
    assert abs(res.objective - unc.objective) <= 1e-8
    assert res.shape_report.max_violation <= 1e-6


def test_barrel_on_pincushion_data():
    true = DistortionModel("polynomial", (0.1, 0.05, 0, 0, 0, 0))
    data = synth_correspondences(true, (0.02, 0.5), n=200, seed=5)
    cost = assemble_cost(data)
    res = solve_barrel(cost, CalibConfig(rbar=1.0, shape="barrel"))
    unc = solve_unconstrained(cost, "polynomial")
    assert res.objective > unc.objective + 1e-6
    assert res.shape_report.max_violation <= 1e-6


def test_barrel_single_point_degenerate():
    cost = assemble_cost([(0.3, 0.1, 0.29, 0.095)])
    res = solve_barrel(cost, CalibConfig(rbar=1.0, shape="barrel"))
    assert res.shape_report.max_violation <= 1e-6
    assert res.warnings  # degenerate-data warning attached


def test_pincushion_noiseless_recovery():
    true = DistortionModel("division", (0, 0, 0, -0.08, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=200, seed=6)
    cost = assemble_cost(data)
    res = solve_pincushion(cost, CalibConfig(rbar=1.0, shape="pincushion"))
    assert res.solver_status == "optimal"
    assert res.certified
    assert res.lower_bound <= res.objective
    assert abs(res.model.k[3] + 0.08) <= 1e-3
    assert res.shape_report.max_violation <= 1e-6


def test_certified_pincushion_bound_is_below_its_objective():
    # The relaxation's dual objective bounds it from below; its primal
    # objective (0.00033173218 here) lies above the fitted cost.
    data = synth_correspondences(pipeline.DEFAULT_TRUE_MODELS["pincushion"],
                                 (0.02, 0.9), n=200, seed=9, noise=1e-3)
    res = solve_pincushion(assemble_cost(data),
                           CalibConfig(rbar=1.0, shape="pincushion"))
    assert res.certified and res.relaxation_order == 1
    assert res.relaxation_pass == "order 1"
    assert res.lower_bound <= res.objective
    assert res.objective - res.lower_bound <= 1e-4 * res.objective


def test_uncertified_pincushion_keeps_its_repaired_candidate(monkeypatch):
    # With no gap allowed, the order-1 candidate of the set above passes
    # the repair but not the cost test, so the fit ends uncertified and
    # reports that candidate.
    monkeypatch.setattr(calib.relax, "CANDIDATE_GAP_RTOL", 0.0)
    data = synth_correspondences(pipeline.DEFAULT_TRUE_MODELS["pincushion"],
                                 (0.02, 0.9), n=200, seed=9, noise=1e-3)
    cost = assemble_cost(data)
    res = solve_pincushion(cost, CalibConfig(rbar=1.0, shape="pincushion",
                                             delta_max=1))
    assert res.solver_status == "uncertified" and not res.certified
    assert res.model is not None
    assert res.objective == cost.objective(np.array(res.model.k))
    assert res.shape_report.max_violation == 0.0
    assert res.lower_bound <= res.objective


def test_pincushion_identity_data():
    data = synth_correspondences(DistortionModel.identity(), (0.02, 0.5),
                                 n=100, seed=7)
    res = solve_pincushion(assemble_cost(data),
                           CalibConfig(rbar=1.0, shape="pincushion"))
    assert res.certified
    assert (res.relaxation_pass, res.relaxation_order) == ("structured", 2)
    assert res.lower_bound <= res.objective
    # Every constraint is active at the optimum, so the cost valley is flat
    # around k = 0 and the extracted coefficients carry matching slop.
    assert np.abs(res.model.k).max() <= 1e-3
    assert res.objective <= 1e-8


def test_pincushion_on_barrel_data():
    # Division model with a decreasing multiplier: the pincushion
    # constraints are fully active and the certified fit must cost more
    # than the unconstrained one.
    true = DistortionModel("division", (0, 0, 0, 0.06, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=200, seed=8)
    cost = assemble_cost(data)
    res = solve_pincushion(cost, CalibConfig(rbar=1.0, shape="pincushion"))
    unc = solve_unconstrained(cost, "division")
    assert res.certified
    assert res.lower_bound <= res.objective
    assert res.objective > unc.objective + 1e-6
    assert res.shape_report.max_violation <= 1e-6
    assert pincushion_feasible(*res.model.k[3:], rbar=1.0, tol=1e-6)


def test_zero_crossing_recovers_generator():
    # Solid cubic coefficients keep the rational parameterization uniquely
    # determined by the data (weak ones leave a near common-factor ridge).
    true = DistortionModel("rational", (-0.2, 0.08, 0.06, -0.15, 0.07, 0.05))
    g_min = np.polyval(true.g_coeffs[::-1], np.linspace(0, 4, 2001)).min()
    assert g_min > 0.1, "generator must satisfy the constraint strictly"
    data = synth_correspondences(true, (0.05, 2.5), n=400, seed=9)
    cost = assemble_cost(data)
    res = solve_zero_crossing(cost, CalibConfig(rbar=4.0, margin_p=0.1,
                                                shape="positivity"))
    assert np.abs(np.array(res.model.k) - true.k).max() <= 1e-4
    assert res.shape_report.max_violation <= 1e-6


def test_zero_crossing_eliminates_common_root():
    # A generator carrying a common linear factor makes the rational
    # parameterization degenerate; mild pixel noise then drives the
    # least-squares fit onto a representation whose f and g share roots
    # inside the field-of-view interval, which is the zero-crossing
    # pathology.  The constrained fit must clear the interval.
    model = common_root_mustache(rho=2.0, a=-0.16, b=0.10, c=-0.28, d=0.14)
    data = synth_correspondences(model, (0.05, 1.2), n=400, seed=10,
                                 noise=0.5 / 540)
    cost = assemble_cost(data)
    unc = solve_unconstrained(cost, "rational")
    groots = np.roots(np.array(unc.model.g_coeffs)[::-1])
    greal = groots[np.abs(groots.imag) < 1e-6].real
    inside = greal[(greal > 0.3) & (greal < 3.8)]
    assert len(inside) >= 1
    froots = np.roots(np.array(unc.model.f_coeffs)[::-1])
    freal = froots[np.abs(froots.imag) < 1e-6].real
    assert min(abs(fr - gr) for fr in freal for gr in inside) <= 0.02

    cfg = CalibConfig(rbar=4.0, margin_p=0.1, shape="positivity")
    res = solve_zero_crossing(cost, cfg)
    rs = np.linspace(0, 4, 4001)
    g_vals = np.polyval(np.array(res.model.g_coeffs)[::-1], rs)
    assert g_vals.min() >= 0.1 - 1e-6


def test_zero_crossing_large_margin_approaches_polynomial_fit():
    # A genuinely cubic numerator: any nontrivial denominator then leaves a
    # degree-overflow residual, so the margin p ~ 1 forces g to one.
    true = DistortionModel("polynomial", (-0.12, 0.02, 0.03, 0, 0, 0))
    data = synth_correspondences(true, (0.05, 0.9), n=300, seed=11)
    cost = assemble_cost(data)
    res = solve_zero_crossing(cost, CalibConfig(rbar=1.0, margin_p=0.999,
                                                shape="positivity"))
    poly_fit = solve_unconstrained(cost, "polynomial")
    # p ~ 1 nearly pins the denominator, so the fitted curve collapses onto
    # the polynomial fit over the data range (coefficients may still roam a
    # near-degenerate valley of the rational parameterization).
    assert abs(res.objective - poly_fit.objective) <= 1e-6 * (
        1 + poly_fit.objective)
    rs = np.linspace(0.0, 0.9, 200)
    assert np.abs(res.model.L(rs) - poly_fit.model.L(rs)).max() <= 1e-5


def test_objective_ordering_unconstrained_below_constrained():
    rng = np.random.default_rng(13)
    for seed in range(3):
        data = synth_correspondences(TRUE_RATIONAL, (0.05, 0.8), n=150,
                                     seed=seed, noise=2.0 / 540)
        cost = assemble_cost(data)
        unc_p = solve_unconstrained(cost, "polynomial")
        barrel = solve_barrel(cost, CalibConfig(rbar=1.0, shape="barrel"))
        assert unc_p.objective <= barrel.objective + 1e-7
        unc_r = solve_unconstrained(cost, "rational")
        zc = solve_zero_crossing(cost, CalibConfig(rbar=1.0, margin_p=0.1,
                                                   shape="positivity"))
        assert unc_r.objective <= zc.objective + 1e-7


def test_radius_scaling_covariance_at_residual_level():
    # Scaling all coordinates by s and k_j by s^-j leaves residuals equal.
    rng = np.random.default_rng(14)
    data = rng.normal(size=(80, 4)) * 0.4
    k = rng.normal(size=6) * 0.2
    s = 1.7
    scaled = data * s
    k_scaled = k / s ** np.array([1, 2, 3, 1, 2, 3])
    cost = assemble_cost(data)
    cost_s = assemble_cost(scaled)
    # Residual vectors scale by s, so the quadratic cost scales by s^2.
    assert cost_s.objective(k_scaled) == pytest.approx(
        s ** 2 * cost.objective(k), rel=1e-8)


def test_csv_roundtrip(tmp_path):
    data = synth_correspondences(TRUE_RATIONAL, (0.1, 1.0), n=20, seed=15)
    path = tmp_path / "corr.csv"
    write_correspondences(path, data)
    back = read_correspondences(path)
    assert np.array_equal(back, data)


def test_csv_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,xhat,yhat\n1.0,2.0,3.0\n")
    with pytest.raises(calib.CalibDataError, match=":2:"):
        read_correspondences(path)
    path.write_text("a,b\n")
    with pytest.raises(calib.CalibDataError, match=":1:"):
        read_correspondences(path)


def test_residual_rms_identity():
    data = synth_correspondences(DistortionModel.identity(), (0.1, 1.0),
                                 n=30, seed=16)
    assert residual_rms(data, DistortionModel.identity()) <= 1e-15


def test_pincushion_uncertified_reported_distinctly():
    # At the lowest order with noisy data the extracted candidate is not
    # repairable; capping escalation there must surface an uncertified
    # result carrying the bound instead of a fake optimum.
    true = DistortionModel("division", (0, 0, 0, -0.08, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=256, seed=5,
                                 noise=2.0 / 540)
    res = solve_pincushion(assemble_cost(data),
                           CalibConfig(rbar=1.0, shape="pincushion",
                                       delta_max=1))
    assert res.solver_status == "uncertified"
    assert res.certified is False
    assert res.relaxation_order == 1
    assert res.lower_bound is not None and res.lower_bound > 0


@pytest.mark.parametrize("rbar", [0.0, -1.0, math.inf, math.nan])
def test_config_rejects_rbar_not_positive_and_finite(rbar):
    with pytest.raises(ValueError, match="rbar must be positive and finite"):
        CalibConfig(rbar=rbar, shape="positivity")


@pytest.mark.parametrize("delta_max", [0, -3, 3, 7])
def test_config_rejects_relaxation_order_cap_below_one(delta_max):
    with pytest.raises(ValueError, match="delta_max must be 1 or 2"):
        CalibConfig(rbar=1.0, shape="pincushion", delta_max=delta_max)


@pytest.mark.parametrize("shape", ["bogus", "", "Barrel"])
def test_config_rejects_an_unknown_shape(shape):
    with pytest.raises(ValueError, match="unknown shape"):
        CalibConfig(rbar=1.0, shape=shape)


def test_pincushion_systems_built_once_per_fit(monkeypatch):
    # The noisy order-1 candidate below fails the moment-side certificate,
    # so the certificate-repair LMI runs; it must reuse the fit's symbolic
    # system instead of deriving its own.
    calls = []
    build = calib.pincushion_systems

    def counting(rbar):
        calls.append(rbar)
        return build(rbar)

    monkeypatch.setattr(calib, "pincushion_systems", counting)
    # Only the repair LMI adds polynomial equalities on this path.
    repair_rows = []
    add_equality_poly = sdp.LmiBuilder.add_equality_poly

    def watched(self, p, var_names):
        repair_rows.append(p)
        return add_equality_poly(self, p, var_names)

    monkeypatch.setattr(sdp.LmiBuilder, "add_equality_poly", watched)
    true = DistortionModel("division", (0, 0, 0, -0.08, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=256, seed=5,
                                 noise=2.0 / 540)
    res = solve_pincushion(assemble_cost(data),
                           CalibConfig(rbar=1.0, shape="pincushion",
                                       delta_max=1))
    assert res.solver_status == "uncertified"
    assert repair_rows
    assert calls == [1.0]


@pytest.mark.parametrize("shape, systems, args", [
    ("barrel", "barrel_systems", (1.0,)),
    ("positivity", "zero_crossing_systems", (1.0, 0.1)),
])
def test_affine_shape_certificates_are_derived_once_per_process(
        shape, systems, args):
    # The certificates depend only on their arguments: a second call shares
    # the first call's space and Gram tuples and matches equal equalities,
    # and a fit on the shared certificates keeps its bits.
    build, derive = getattr(calib, systems), calib._shape_certificates
    data = synth_correspondences(
        DistortionModel("polynomial", (0.1, 0.05, 0, 0, 0, 0)), (0.02, 0.5),
        n=200, seed=5)
    cost = assemble_cost(data)
    cfg = CalibConfig(rbar=1.0, shape=shape)
    derive.cache_clear()
    fresh = sdp.program_to_json(calib.shape_program(cost, shape, cfg)[0])
    first = calib.solve_shape(cost, cfg)
    space, grams, eqs = build(*args)
    again = build(*args)
    assert again[0] is space and again[1] is grams
    assert isinstance(grams, tuple) and isinstance(eqs, tuple)
    assert [e.terms for e in again[2]] == [e.terms for e in eqs]
    assert derive.cache_info().currsize == 1
    assert sdp.program_to_json(
        calib.shape_program(cost, shape, cfg)[0]) == fresh
    assert calib.solve_shape(cost, cfg).model.k == first.model.k


def test_pincushion_certificates_are_derived_once_per_process(monkeypatch):
    # Two fits at one rbar share one derivation of the three certificates,
    # while each fit still builds its systems, matches the coefficients and
    # eliminates the pivots.  The order-1 candidate of these data fails the
    # moment-side certificate, so each fit also solves the repair LMI, which
    # shifts the Gram diagonals.  The shared objects are only read: the
    # PMI's order-1 relaxation and the fitted k equal those from a fresh
    # derivation.
    counts = {}

    def count(module, name):
        wrapped = getattr(module, name)
        counts[name] = 0

        def counting(*args, **kwargs):
            counts[name] += 1
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in [(calib, "_certificates"),
                         (calib, "pincushion_systems"),
                         (certs, "match_coefficients"),
                         (certs, "eliminate"), (sdp, "solve")]:
        count(module, name)
    true = DistortionModel("division", (0, 0, 0, -0.08, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=256, seed=2,
                                 noise=1.0 / 540)
    cost = assemble_cost(data)
    cfg = CalibConfig(rbar=1.0, shape="pincushion", delta_max=1)

    def order1_json():
        pmi = calib.pincushion_pmi(cost, cfg)[0]
        return sdp.program_to_json(relax.relax(pmi, 1)[0])

    calib._shape_certificates.cache_clear()
    fresh = order1_json()
    fits, per_fit = [], []
    for _ in range(2):
        before = dict(counts)
        fits.append(solve_pincushion(cost, cfg))
        per_fit.append({n: c - before[n] for n, c in counts.items()})
    # Two solves per fit: the order-1 relaxation and the repair LMI.
    assert per_fit == [{"_certificates": 0, "pincushion_systems": 1,
                        "match_coefficients": 3, "eliminate": 3,
                        "solve": 2}] * 2
    assert counts["_certificates"] == 1
    assert calib._shape_certificates.cache_info().currsize == 1
    space, grams, systems = calib.pincushion_systems(1.0)
    again = calib.pincushion_systems(1.0)
    assert again[0] is space and again[1] is grams
    assert [[e.terms for e in eqs] for eqs in again[2]] == \
        [[e.terms for e in eqs] for eqs in systems]
    assert order1_json() == fresh

    calib._shape_certificates.cache_clear()
    refit = solve_pincushion(cost, cfg)
    assert counts["_certificates"] == 2
    assert [f.model.k for f in fits] == [refit.model.k] * 2
    assert [f.lower_bound for f in fits] == [refit.lower_bound] * 2
    assert refit.certified and refit.relaxation_pass == "order 1"


def _pincushion_fit_failing_above_order1(monkeypatch, cfg):
    """Noisy pincushion fit whose solves above order 1 all fail."""
    order1_vars = math.comb(11 + 2, 11)
    solve = sdp.solve

    def failing(program, options=None):
        if program.nvars > order1_vars:
            return sdp.SdpSolution(np.zeros(program.nvars), math.nan,
                                   math.nan, "numericalFailure", 0)
        return solve(program, options)

    monkeypatch.setattr(sdp, "solve", failing)
    true = DistortionModel("division", (0, 0, 0, -0.08, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=256, seed=5,
                                 noise=2.0 / 540)
    return solve_pincushion(assemble_cost(data), cfg)


@pytest.mark.parametrize("cfg", [
    CalibConfig(rbar=1.0, shape="pincushion", delta_max=2),
    CalibConfig(rbar=1.0, shape="pincushion")], ids=["cap2", "default"])
def test_pincushion_failed_pass_warns_its_status_and_escalates(monkeypatch,
                                                               cfg):
    # The noisy order-1 candidate below does not certify, so the structured
    # pass and full order 2 follow.  Both solves fail here; each failure is
    # warned with the solver's status and the ladder goes on to the next
    # pass, ending uncertified at order 2 with the order-1 bound.
    res = _pincushion_fit_failing_above_order1(monkeypatch, cfg)
    assert res.warnings[-2:] == ["structured solve: numericalFailure",
                                 "order 2 solve: numericalFailure"]
    assert res.solver_status == "uncertified"
    assert (res.relaxation_pass, res.relaxation_order) == ("order 2", 2)
    assert res.lower_bound is not None and res.lower_bound > 0


def test_pincushion_repair_matches_direct_feasibility():
    true = DistortionModel("division", (0, 0, 0, -0.08, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=100, seed=6)
    _, _, repair = calib.pincushion_pmi(
        assemble_cost(data), CalibConfig(rbar=1.0, shape="pincushion"))
    for k_div in ([-0.08, 0.0, 0.0], [-0.2, 0.01, 0.0], [0.0, 0.0, 0.0]):
        assert pincushion_feasible(*k_div, rbar=1.0)
        assert repair(np.array(k_div))
    for k_div in ([0.05, 0.0, 0.0], [0.3, -0.1, 0.0]):
        assert not pincushion_feasible(*k_div, rbar=1.0)
        assert not repair(np.array(k_div))


def test_pincushion_pmi_epigraph_is_the_sdp_epigraph_block():
    true = DistortionModel("division", (0, 0, 0, -0.08, 0.0, 0.0))
    data = synth_correspondences(true, (0.02, 0.5), n=100, seed=6,
                                 noise=1e-3)
    cost = assemble_cost(data)
    pmi, scale, _ = calib.pincushion_pmi(
        cost, CalibConfig(rbar=1.0, shape="pincushion"))
    Mr, mr, c, _, scale_r = calib._restricted(cost, "division")
    assert scale == scale_r
    dim = pmi.dim
    block = sdp.epigraph_block(Mr, mr, c, [0, 1, 2], dim - 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.normal(size=dim)
        assert np.allclose(pmi.constraints[0].eval(z), block_value(block, z),
                           rtol=0.0, atol=1e-12)
    assert pmi.cost.eval(z) == z[-1]
