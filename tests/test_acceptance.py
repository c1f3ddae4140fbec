"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances and runtime budgets are pinned here, not
configurable.
"""

import math
import time

import numpy as np
import pytest

from shapecal import calib, certs, cli, pipeline, relax, sdp
from shapecal.calib import CalibConfig, assemble_cost
from shapecal.certs import (GramMatrix, IntervalCertificate, VarSpace,
                            certificate_to_poly, eliminate,
                            match_coefficients, symbolic_certificate)
from shapecal.distortion import DistortionModel, save_model, shape_check
from shapecal.poly import Polynomial, PolyMatrix
from shapecal.pipeline import (SceneConfig, add_noise, ba_refine,
                               correspondences, generate_scene,
                               perturb_cameras, run_experiment)

from util import common_root_mustache, synth_correspondences

TIGHT = calib.TIGHT


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"\nACCEPTANCE {self.name}: PASS ({self.elapsed:.1f}s)")
            assert self.elapsed <= self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget"
        else:
            print(f"\nACCEPTANCE {self.name}: FAIL ({self.elapsed:.1f}s)")
        return False


def test_criterion_1_certificate_soundness():
    rng = np.random.default_rng(1001)
    with Budget("1 certificate soundness", 5.0):
        for rbar in (1.0, 4.0):
            for parity, (ns, nt) in (("even", (2, 1)), ("odd", (2, 2))):
                for _ in range(500):
                    gs = rng.normal(size=(ns + 1, ns + 1))
                    gt = rng.normal(size=(nt + 1, nt + 1))
                    cert = IntervalCertificate(
                        0.0, rbar, parity,
                        GramMatrix(gs @ gs.T, ns), GramMatrix(gt @ gt.T, nt))
                    coeffs = certificate_to_poly(cert).univariate_coeffs()
                    rs = np.linspace(0.0, rbar, 1000)
                    assert np.polyval(coeffs[::-1], rs).min() >= -1e-8


def test_criterion_2_sdp_solver_correctness():
    rng = np.random.default_rng(1002)
    with Budget("2 SDP solver correctness", 30.0):
        # Analytic examples with closed-form optima.
        sol = sdp.solve(sdp.LmiProgram(
            1, sdp.AffineForm({0: 1.0}),
            [sdp.AffineBlock(2, np.array([[1.0, 0.7], [0.7, 0.0]]),
                             {0: np.array([[0.0, 0.0], [0.0, 1.0]])})]))
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - 0.49) <= 1e-6

        sol = sdp.solve(sdp.LmiProgram(
            2, sdp.AffineForm({0: 1.0, 1: 1.0}),
            [sdp.AffineBlock(2, np.array([[0.0, 1.0], [1.0, 0.0]]),
                             {0: np.diag([1.0, 0.0]),
                              1: np.diag([0.0, 1.0])})]))
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - 2.0) <= 1e-6

        bld = sdp.LmiBuilder()
        M = np.zeros((6, 6))
        M[0, 0] = 4.0
        m = np.zeros(6)
        m[0] = -4.0
        bld.add_epigraph(M, m, 1.0, [f"k{i}" for i in range(6)])
        bld.set_cost({"gamma": 1.0})
        sol = sdp.solve(bld.build(), TIGHT)
        assert sol.status == "optimal"
        assert abs(sol.primal_objective) <= 1e-6
        assert abs(sol.z[0] - 0.5) <= 1e-5

        # Random programs against an exhaustive grid scan.
        for _ in range(20):
            mats = []
            for _ in range(3):
                G = rng.normal(size=(3, 3))
                mats.append(0.25 * (G + G.T))
            blocks = [sdp.AffineBlock(3, np.eye(3), dict(enumerate(mats)))]
            for i in range(3):
                blocks.append(sdp.AffineBlock(1, np.array([[1.0]]),
                                              {i: np.array([[1.0]])}))
                blocks.append(sdp.AffineBlock(1, np.array([[1.0]]),
                                              {i: np.array([[-1.0]])}))
            c = rng.normal(size=3)
            prog = sdp.LmiProgram(3, sdp.AffineForm(dict(enumerate(c))),
                                  blocks)
            sol = sdp.solve(prog, TIGHT)
            assert sol.status == "optimal"
            assert sol.relative_gap <= 1e-7
            n = 60
            t = np.linspace(-1, 1, n)
            g1, g2, g3 = np.meshgrid(t, t, t, indexing="ij")
            Z = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
            vals = np.linalg.eigvalsh(
                np.eye(3) + np.einsum("nk,kij->nij", Z, np.stack(mats)))
            feas = vals[:, 0] >= 0
            oracle = float((Z @ c)[feas].min())
            tol = 2.0 * (2.0 / (n - 1)) * np.abs(c).sum()
            assert sol.primal_objective <= oracle + 1e-6
            assert sol.primal_objective >= oracle - tol


def test_criterion_3_unconstrained_equivalence():
    rng = np.random.default_rng(1003)
    with Budget("3 unconstrained equivalence", 30.0):
        for trial in range(40):
            n = int(rng.integers(30, 120))
            data = rng.normal(scale=0.5, size=(n, 4))
            cost = assemble_cost(data)
            res = calib.solve_unconstrained(cost, "rational")
            k_ne = np.linalg.solve(cost.M, -0.5 * cost.m)
            assert np.abs(np.array(res.model.k) - k_ne).max() <= 1e-6
        for trial in range(10):
            # Rank-deficient: every point at one radius.
            theta = rng.uniform(0, 2 * np.pi, size=50)
            radius = rng.uniform(0.4, 1.2)
            scale = rng.uniform(0.85, 1.15)
            x, y = radius * np.cos(theta), radius * np.sin(theta)
            cost = assemble_cost(np.stack([x, y, scale * x, scale * y],
                                          axis=1))
            res = calib.solve_unconstrained(cost, "polynomial")
            Mr, mr = cost.M[:3, :3], cost.m[:3]
            k_pinv = np.linalg.pinv(Mr) @ (-0.5 * mr)
            obj_pinv = float(k_pinv @ Mr @ k_pinv + mr @ k_pinv + cost.c)
            assert abs(res.objective - obj_pinv) <= 1e-6


def test_criterion_4_parameterization_cross_checks():
    with Budget("4 parameterization cross-checks", 10.0):
        # Barrel: eliminating the model coefficients from the first
        # derivative matching system gives the known closed form.
        for rbar in (1.0, 4.0):
            names = (["k1", "k2", "k3"]
                     + certs.certificate_names("s1", "t1", 2) + ["r"])
            space = VarSpace(names)
            r = space.var("r")
            f = (space.const(1.0) + space.var("k1") * r
                 + space.var("k2") * (r ** 2) + space.var("k3") * (r ** 3))
            _, _, cert = symbolic_certificate(space, "r", 0.0, rbar, 2,
                                              "s1", "t1")
            eqs = match_coefficients(-f.derivative(space.index["r"]), cert,
                                     space, "r")
            sub = eliminate(eqs, ["k1", "k2", "k3"], space)
            assert sub["k1"].almost_equal(-space.var("s11"))
            assert sub["k2"].almost_equal(
                -space.var("s12") - 0.5 * rbar * space.var("t11"))
            assert sub["k3"].almost_equal(
                (space.var("t11") - space.var("s13")) * (1.0 / 3.0))

        # Zero-crossing: constant coefficient pins t11 = (1 - p) / rbar and
        # the denominator coefficients match the certificate entries.
        rbar, p = 4.0, 0.1
        names = (["k4", "k5", "k6"]
                 + certs.certificate_names("s1", "t1", 3) + ["r"])
        space = VarSpace(names)
        r = space.var("r")
        target = (space.const(1.0 - p) + space.var("k4") * r
                  + space.var("k5") * (r ** 2) + space.var("k6") * (r ** 3))
        _, _, cert = symbolic_certificate(space, "r", 0.0, rbar, 3,
                                          "s1", "t1")
        eqs = match_coefficients(target, cert, space, "r")
        t11 = eliminate(eqs[:1], ["t11"], space)["t11"]
        assert t11.almost_equal(space.const((1.0 - p) / rbar))
        sub = eliminate(eqs[1:], ["k4", "k5", "k6"], space)
        assert sub["k4"].almost_equal(
            space.var("s11") - space.var("t11") + 2 * rbar * space.var("t12"))
        assert sub["k5"].almost_equal(
            2 * space.var("s12") - 2 * space.var("t12")
            + rbar * space.var("t13"))
        assert sub["k6"].almost_equal(space.var("s13") - space.var("t13"))


def _bootstrap_correspondences(shape, sigma, trial_seed):
    """Scene -> noise -> perturbed poses -> distortion-blind refine."""
    model = pipeline.DEFAULT_TRUE_MODELS[shape]
    scene = generate_scene(SceneConfig(), model, trial_seed)
    noisy = add_noise(scene, sigma)
    cams = pipeline.bootstrap_poses(noisy, trial_seed)
    return assemble_cost(correspondences(noisy, cams))


def test_criterion_5_shape_guarantees():
    with Budget("5 shape guarantees", 300.0):
        sigmas = [0.0, 0.5, 1.0, 1.5, 2.0]

        cfg = CalibConfig(rbar=1.0, shape="barrel")
        for trial in range(50):
            cost = _bootstrap_correspondences("barrel",
                                              sigmas[trial % 5], trial)
            res = calib.solve_barrel(cost, cfg)
            assert res.shape_report.max_violation <= 1e-6, f"trial {trial}"

        cfg = CalibConfig(rbar=1.0, margin_p=0.1, shape="positivity")
        for trial in range(50):
            cost = _bootstrap_correspondences("positivity",
                                              sigmas[trial % 5], trial)
            res = calib.solve_zero_crossing(cost, cfg)
            rs = np.linspace(0, 1.0, 2048)
            g = np.polyval(np.array(res.model.g_coeffs)[::-1], rs)
            assert g.min() >= 0.1 - 1e-6, f"trial {trial}"

        cfg = CalibConfig(rbar=1.0, shape="pincushion", delta_max=2)
        certified = 0
        for trial in range(9):
            cost = _bootstrap_correspondences("pincushion",
                                              sigmas[trial % 3], trial)
            res = calib.solve_pincushion(cost, cfg)
            if res.certified:
                certified += 1
                assert res.shape_report.max_violation <= 1e-6, \
                    f"trial {trial}"
                assert res.lower_bound <= res.objective, f"trial {trial}"
        assert certified >= 5, f"only {certified}/9 pincushion runs certified"


def test_criterion_6_relaxation_hierarchy():
    with Budget("6 relaxation hierarchy", 60.0):
        x = Polynomial.variable(1, 0)
        box01 = PolyMatrix.from_scalar(x * (1 - x))
        box11 = PolyMatrix.from_scalar((1 - x) * (1 + x))
        toys = [
            relax.PmiProgram(1, x ** 4 - x ** 2, [box11]),
            relax.PmiProgram(1, (x - 0.4) * (x - 0.4) * (x + 1), [box01]),
            relax.PmiProgram(1, -x, [box01]),
        ]
        for pmi in toys:
            bounds = []
            for delta in range(relax.min_order(pmi), 4):
                res = relax.solve_order(pmi, delta, TIGHT)
                if res.solver_status == "optimal":
                    bounds.append(res.lower_bound)
            assert len(bounds) >= 2
            for lo, hi in zip(bounds, bounds[1:]):
                assert lo <= hi + 1e-7

        res = relax.solve_order(relax.PmiProgram(1, -x, [box01]), 1, TIGHT)
        assert res.certified
        assert abs(res.lower_bound + 1.0) <= 1e-6


def test_criterion_7_noiseless_consistency():
    with Budget("7 noiseless consistency", 60.0):
        cases = [
            ("barrel", DistortionModel("polynomial",
                                       (-0.1, -0.05, 0, 0, 0, 0)),
             (0.05, 0.98), 1.0, "polynomial"),
            ("pincushion", DistortionModel("division",
                                           (0, 0, 0, -0.12, 0.0, 0.0)),
             (0.05, 0.98), 1.0, "division"),
            ("positivity", DistortionModel(
                "rational", (-0.2, 0.08, 0.06, -0.15, 0.07, 0.05)),
             (0.05, 3.8), 4.0, "rational"),
        ]
        for shape, model, radii, rbar, kind in cases:
            data = synth_correspondences(model, radii, n=500, seed=77)
            cost = assemble_cost(data)
            cfg = CalibConfig(rbar=rbar, margin_p=0.1, shape=shape,
                              delta_max=2)
            res = calib.solve_shape(cost, cfg)
            unc = calib.solve_unconstrained(cost, kind)
            kerr = np.abs(np.array(res.model.k) - model.k).max()
            assert kerr <= 1e-3, f"{shape}: k error {kerr:.2e}"
            assert abs(res.objective - unc.objective) <= 1e-7, \
                f"{shape}: objective gap {res.objective - unc.objective:.2e}"


def test_criterion_8_validation_trend():
    with Budget("8 validation-set trend", 600.0):
        report = run_experiment(pipeline.ExperimentConfig(
            shape="barrel", sigmas=(1.0, 2.0), trials=20, seed=2026))
        assert not report.config["errors"]
        summary = report.summary()
        for sigma in (1.0, 2.0):
            ba = summary[f"BA:{sigma:g}"]
            so = summary[f"SO:{sigma:g}"]
            aso = summary[f"ASO:{sigma:g}"]
            assert so["valid_rms_median"] <= ba["valid_rms_median"], \
                f"SO validation trend fails at sigma {sigma}"
            assert aso["valid_rms_median"] <= ba["valid_rms_median"], \
                f"ASO validation trend fails at sigma {sigma}"
            for other in (so, aso):
                ratio = other["calib_rms_median"] / ba["calib_rms_median"]
                assert 0.9 <= ratio <= 1.1, \
                    f"calibration RMS disagrees at sigma {sigma}: {ratio:.3f}"


def test_criterion_9_zero_crossing_elimination(tmp_path):
    with Budget("9 zero-crossing elimination", 60.0):
        model = common_root_mustache(rho=2.0, a=-0.16, b=0.10,
                                     c=-0.28, d=0.14)
        data = synth_correspondences(model, (0.05, 1.2), n=400, seed=10,
                                     noise=0.5 / 540)
        cost = assemble_cost(data)

        unc = calib.solve_unconstrained(cost, "rational")
        groots = np.roots(np.array(unc.model.g_coeffs)[::-1])
        greal = groots[np.abs(groots.imag) < 1e-6].real
        inside = greal[(greal > 0.0) & (greal < 4.0)]
        assert len(inside) >= 1, "premise: denominator root inside [0, 4]"
        froots = np.roots(np.array(unc.model.f_coeffs)[::-1])
        freal = froots[np.abs(froots.imag) < 1e-6].real
        assert min(abs(fr - gr) for fr in freal for gr in inside) <= 0.02, \
            "premise: the root is (numerically) common to f and g"

        cfg = CalibConfig(rbar=4.0, margin_p=0.1, shape="positivity")
        res = calib.solve_zero_crossing(cost, cfg)
        rs = np.linspace(0, 4.0, 4001)
        g = np.polyval(np.array(res.model.g_coeffs)[::-1], rs)
        assert g.min() >= 0.1 - 1e-6

        model_path = tmp_path / "model.json"
        curve_path = tmp_path / "curve.csv"
        save_model(res.model, model_path)
        code = cli.main(["curve", "--model", str(model_path), "--rmax", "4",
                         "--samples", "512", "--out", str(curve_path)])
        assert code == 0
        assert "pole" not in curve_path.read_text()


def test_criterion_10_experiment_determinism(tmp_path):
    with Budget("10 experiment determinism", 120.0):
        args = ["experiment", "--trials", "2", "--sigmas", "0,1",
                "--shape", "barrel", "--seed", "9", "--target", "8x8",
                "--cameras", "4"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        csv_a = (tmp_path / "a.csv").read_bytes()
        csv_b = (tmp_path / "b.csv").read_bytes()
        assert csv_a == csv_b
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()
