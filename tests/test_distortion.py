import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapecal.distortion import (KIND_INDICES, KINDS, SHAPES,
                                 DistortionModel, NoRootError, PoleError,
                                 distort, load_model, save_model,
                                 shape_check, undistort, undistort_points,
                                 undistort_radii)
from shapecal.pipeline import DEFAULT_TRUE_MODELS

from util import (reference_L_L1, reference_L_derivatives,
                  reference_shape_check, same_bits)


IDENTITY = DistortionModel.identity()


def test_identity_model_scale_one():
    rs = np.linspace(0, 3, 7)
    assert np.allclose(IDENTITY.L(rs), 1.0)


def test_zero_radius_scale_is_one():
    model = DistortionModel("rational", (-0.2, 0.1, 0.0, -0.1, 0.05, 0.0))
    assert model.L(0.0) == 1.0


def test_polynomial_direct_substitution():
    model = DistortionModel("polynomial", (-0.2, 0, 0, 0, 0, 0))
    assert model.L(1.0) == pytest.approx(0.8, abs=1e-15)


def test_pole_from_shared_root():
    # f and g both carry the factor (1 - r/1.5): the unreduced rational
    # form hits a vanishing denominator near 1.5.
    s = -1.0 / 1.5
    model = DistortionModel("rational", (s, 0, 0, s, 0, 0))
    assert model.L(1.0) == pytest.approx(1.0)
    with pytest.raises(PoleError):
        model.L(1.5)


def test_kind_constraints_enforced():
    with pytest.raises(ValueError):
        DistortionModel("polynomial", (0.1, 0, 0, 0.2, 0, 0))
    with pytest.raises(ValueError):
        DistortionModel("division", (0.1, 0, 0, 0.2, 0, 0))
    with pytest.raises(ValueError):
        DistortionModel("rational", (0.1, 0, 0))


def test_distort_identity():
    pts = np.array([[0.3, -0.2], [1.0, 0.5]])
    assert np.allclose(distort(IDENTITY, pts), pts)


def test_distort_origin_fixed():
    model = DistortionModel("rational", (-0.3, 0.1, 0.0, -0.2, 0.1, 0.0))
    assert np.allclose(distort(model, np.zeros(2)), np.zeros(2))


def test_distort_barrel_substitution():
    model = DistortionModel("polynomial", (-0.1, 0, 0, 0, 0, 0))
    assert np.allclose(distort(model, np.array([1.0, 0.0])), [0.9, 0.0])


def test_distort_homogeneous_along_rays():
    model = DistortionModel("polynomial", (-0.15, -0.05, 0, 0, 0, 0))
    u = np.array([0.6, 0.8])
    for t in (0.1, 0.5, 0.9):
        expected = t * model.L(t) * u
        assert np.allclose(distort(model, t * u), expected, atol=1e-14)


def test_undistort_identity():
    pt = np.array([0.4, -0.3])
    assert np.allclose(undistort(IDENTITY, pt, 2.0), pt, atol=1e-12)


def test_undistort_roundtrip_monotone_barrel():
    model = DistortionModel("polynomial", (-0.15, -0.05, 0, 0, 0, 0))
    rng = np.random.default_rng(12)
    pts = rng.uniform(-0.7, 0.7, size=(100, 2))
    for p in pts:
        q = distort(model, p)
        back = undistort(model, q, 2.0)
        assert np.abs(back - p).max() <= 1e-10


# The default true models, and curves that fold (r L(r) turns back) or
# have a pole within [0, 2].
HARD_CURVES = dict(DEFAULT_TRUE_MODELS, **{
    "fold": DistortionModel("polynomial", (-0.6, 0.1, 0, 0, 0, 0)),
    "division-pole": DistortionModel("division", (0, 0, 0, -1.0, 0, 0)),
    "rational-pole": DistortionModel("rational",
                                     (-0.35, 0.15, 0, -0.9, 0.05, 0)),
    "common-root": DistortionModel("rational", (-2.0, 0, 0, -2.0, 0, 0)),
})


def _positive_real_roots(p):
    return sorted(z.real for z in p.roots()
                  if abs(z.imag) < 1e-9 and z.real > 0)


def _bracket_and_turns(model, search_max):
    """End of the inversion bracket and the turning points of r L(r)."""
    P = np.polynomial.Polynomial
    rf, g = P(np.r_[0.0, model.f_coeffs]), P(model.g_coeffs)
    end = min(_positive_real_roots(g) + [search_max])
    turns = _positive_real_roots(rf.deriv() * g - rf * g.deriv())
    return end, [t for t in turns if t < end - 1e-6]


@pytest.mark.parametrize("name", sorted(HARD_CURVES))
def test_undistort_points_vectorized_matches_scalar(name):
    model, search_max = HARD_CURVES[name], 2.0
    end, turns = _bracket_and_turns(model, search_max)
    # Tangent targets at the turning points, and one whose root lies just
    # below the pole when the bracket ends at one.
    special = [t * model.L(t) for t in turns]
    if end < search_max:
        special.append((end - 1e-6) * model.L(end - 1e-6))
    rng = np.random.default_rng(4)
    rhats = np.r_[0.0, rng.uniform(0.0, 1.5, 60), special]
    theta = rng.uniform(0.0, 2.0 * np.pi, len(rhats))
    dpts = rhats[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    out, ok = undistort_points(model, dpts, search_max)
    for p, row, row_ok in zip(dpts, out, ok):
        try:
            back = undistort(model, p, search_max)
        except NoRootError:
            assert not row_ok and np.isnan(row).all()
        else:
            assert row_ok and np.array_equal(back, row)
    assert ok[0] and ok[-len(special):].all()
    # Inverted rows map forward onto their targets, and the curve stays
    # below each target short of its root; the other targets lie above the
    # curve's maximum over the bracket.
    fwd = np.hypot(*distort(model, out[ok]).T)
    assert np.all(np.abs(fwd - rhats[ok]) <= 1e-9 * (1.0 + rhats[ok]))
    rs = np.linspace(0.0, end, 100001)[:-1]
    running_max = np.maximum.accumulate(rs * model.L(rs))
    below = np.searchsorted(rs, np.hypot(*out[ok].T) - 1e-6) - 1
    assert np.all(running_max[np.maximum(below, 0)] <= rhats[ok])
    assert np.all(rhats[~ok] > running_max[-1])


# r L(r) meets TWO_CROSSINGS_RHAT at r = 0.5 and r = 0.5005, which fall in
# one interval of a 512-interval scan of [0, 1], and next at r = 2.
TWO_CROSSINGS = DistortionModel("polynomial", (
    -1.0794786710910327, -7.99584216207129e-05, 0.15991684324151442, 0, 0, 0))
TWO_CROSSINGS_RHAT = 0.2401151401271339


def test_undistort_two_crossings_in_one_scan_interval():
    point = undistort(TWO_CROSSINGS, np.array([TWO_CROSSINGS_RHAT, 0.0]), 1.0)
    assert abs(point[0] - 0.5) <= 1e-12 and point[1] == 0.0
    r, ok = undistort_radii(TWO_CROSSINGS, [TWO_CROSSINGS_RHAT], 1.0)
    assert ok[0] and abs(r[0] - 0.5) <= 1e-12


def test_undistort_tangent_target_takes_the_first_fold():
    # The target equals r L(r) at its local maximum; a later, transversal
    # crossing lies inside the bracket too, but the tangent point is the
    # smallest root.
    model = HARD_CURVES["fold"]
    _, turns = _bracket_and_turns(model, 4.0)
    target = turns[0] * model.L(turns[0])
    r = undistort(model, np.array([target, 0.0]), 4.0)[0]
    assert r == pytest.approx(turns[0], abs=1e-6)


def test_undistort_smallest_root_convention():
    # Forward radius r L(r) folds for this model; targets below the fold
    # maximum have several preimages and the smallest one is returned.
    model = DistortionModel("polynomial", (-0.6, 0.1, 0, 0, 0, 0))
    rs = np.linspace(0, 4.0, 40001)
    q = rs * model.L(rs)
    target = 0.5
    crossings = rs[np.nonzero(np.diff(np.sign(q - target)))[0]]
    assert len(crossings) >= 2, "construction should give multiple preimages"
    r = undistort(model, np.array([target, 0.0]), 4.0)[0]
    assert r == pytest.approx(crossings[0], abs=1e-3)


def test_undistort_no_root_raises():
    model = DistortionModel("polynomial", (-0.6, 0.1, 0, 0, 0, 0))
    with pytest.raises(NoRootError):
        undistort(model, np.array([10.0, 0.0]), 1.0)


def test_shape_check_identity_barrel():
    report = shape_check(IDENTITY, "barrel", 1.0)
    assert report.max_violation == 0.0
    assert report.violating_radii == []


def test_shape_check_convex_violates_barrel():
    model = DistortionModel("polynomial", (0.0, 0.3, 0, 0, 0, 0))
    report = shape_check(model, "barrel", 1.0)
    assert report.max_violation >= 0.6 - 1e-12
    assert len(report.violating_radii) > 1024  # most of the interval


def test_shape_check_pincushion():
    model = DistortionModel("division", (0, 0, 0, -0.1, 0, 0))
    report = shape_check(model, "pincushion", 1.0)
    assert report.max_violation <= 1e-12
    bad = DistortionModel("division", (0, 0, 0, 0.1, 0, 0))
    assert shape_check(bad, "pincushion", 1.0).max_violation > 0.05


def test_shape_check_positivity_margin():
    model = DistortionModel("division", (0, 0, 0, -0.5, 0, 0))
    report = shape_check(model, "positivity", 1.0, margin=0.1)
    # g(1) = 0.5 >= 0.1, fine
    assert report.max_violation == 0.0
    report2 = shape_check(model, "positivity", 2.0, margin=0.1)
    # g(2) = 0 < 0.1 violates the margin by 0.1
    assert report2.max_violation == pytest.approx(0.1, abs=1e-12)


def test_shape_violating_radii_monotone_in_tolerance():
    model = DistortionModel("polynomial", (0.05, 0.01, 0, 0, 0, 0))
    counts = [len(shape_check(model, "barrel", 1.0, tol=t).violating_radii)
              for t in (1e-9, 1e-3, 1e-1)]
    assert counts[0] >= counts[1] >= counts[2]


def test_shape_check_sample_count_and_endpoints():
    report = shape_check(IDENTITY, "barrel", 2.0, samples=11)
    assert report.samples == 11
    assert report.rbar == 2.0


@pytest.mark.parametrize("samples", [1, 0, -4])
def test_shape_check_rejects_a_grid_without_both_endpoints(samples):
    # One sample would be r = 0 alone: a model with k3 = 0.5, whose L''
    # reaches 3 at rbar = 1, would pass as barrel.
    model = DistortionModel("polynomial", (0, 0, 0.5, 0, 0, 0))
    with pytest.raises(ValueError, match="samples must be at least 2"):
        shape_check(model, "barrel", 1.0, samples=samples)
    assert shape_check(model, "barrel", 1.0, samples=2).max_violation \
        == pytest.approx(3.0)


@pytest.mark.parametrize("rbar", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_shape_check_rejects_rbar_not_positive_and_finite(rbar):
    with pytest.raises(ValueError, match="rbar must be positive and finite"):
        shape_check(IDENTITY, "barrel", rbar)


def test_model_json_roundtrip(tmp_path):
    model = DistortionModel("rational", (-0.1, 0.02, 0.003, -0.2, 0.01, 0.0))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["kind", "k"]
    loaded = load_model(path)
    assert loaded == model


def test_derivatives_match_finite_differences():
    model = DistortionModel("rational", (-0.2, 0.05, 0.01, -0.1, 0.03, 0.0))
    rs = np.linspace(0.05, 1.5, 9)
    L, L1, L2 = model.L_derivatives(rs)
    h = 1e-6
    Lp = model.L(rs + h)
    Lm = model.L(rs - h)
    fd1 = (Lp - Lm) / (2 * h)
    fd2 = (Lp - 2 * model.L(rs) + Lm) / h ** 2
    assert np.abs(L1 - fd1).max() <= 1e-6 * (1 + np.abs(fd1).max())
    assert np.abs(L2 - fd2).max() <= 1e-3 * (1 + np.abs(fd2).max())


def test_L_derivatives_value_is_L_with_a_tiny_coefficient():
    # A coefficient below 1e-14 still enters L; the derivative path must
    # evaluate the same polynomials, not drop it.
    model = DistortionModel("rational", (1e-15, 0.0, 0.0, -0.1, 0.0, 1e-15))
    rs = np.linspace(0.0, 1.5, 31)
    L, _, _ = model.L_derivatives(rs)
    assert np.array_equal(L, model.L(rs))
    assert not np.array_equal(
        L, DistortionModel("rational", (0, 0, 0, -0.1, 0, 0)).L(rs))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(KINDS),
       rho=st.sampled_from([None, 0.5, 1.0, 2.0]),
       samples=st.sampled_from([9, 257]))
def test_evaluate_is_the_model_as_each_caller_stated_it(seed, kind, rho,
                                                        samples):
    # Random coefficients of the kind at several scales; with rho, a model
    # with a denominator g = 1 - (r / rho)^2 that vanishes exactly at +-rho.
    # The radii hold r = 0, the real parts of g's roots, +-rho and
    # non-finite values, in random order.  Values, g, the pole mask, the
    # PoleError radius and the shape reports equal the oracles' bit for
    # bit.
    rng = np.random.default_rng(seed)
    k = np.zeros(6)
    free = list(KIND_INDICES[kind])
    k[free] = rng.normal(scale=rng.choice([0.05, 0.5, 3.0]), size=len(free))
    if kind == "polynomial":
        rho = None
    elif rho is not None:
        k[3:] = 0.0, -1.0 / rho ** 2, 0.0
    model = DistortionModel(kind, tuple(k))
    r = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan],
                        [] if rho is None else [rho, -rho],
                        np.roots(model.g_coeffs[::-1]).real,
                        rng.uniform(-3.0, 3.0, 8)])
    rng.shuffle(r)
    L, L1, g, pole = reference_L_L1(model, r)
    assert pole.any() or rho is None
    for order in range(3):
        values, g_out, pole_out = model.evaluate(r, order)
        assert len(values) == order + 1
        assert same_bits(g_out, g) and np.array_equal(pole_out, pole)
        assert all(map(same_bits, values[:2], (L, L1)))
    off_poles = reference_L_derivatives(model, r[~pole])
    assert all(same_bits(v[~pole], w)
               for v, w in zip(model.evaluate(r, 2)[0], off_poles))
    for x in [r, *r]:
        if not reference_L_L1(model, x)[3].any():
            assert all(map(same_bits, model.L_derivatives(x),
                           reference_L_derivatives(model, x)))
            assert same_bits(model.L(x), model.L_derivatives(x)[0])
            continue
        with pytest.raises(PoleError) as want:
            reference_L_derivatives(model, x)
        for method in (model.L, model.L_derivatives):
            with pytest.raises(PoleError) as got:
                method(x)
            assert same_bits(got.value.radius, want.value.radius)
    rbar = 2.0 * (rho or 1.0)
    for shape in SHAPES:
        got = shape_check(model, shape, rbar, samples)
        want = reference_shape_check(model, shape, rbar, samples)
        assert got.violating_radii == want.violating_radii
        assert same_bits(got.max_violation, want.max_violation)
        assert (rho is None or shape == "positivity"
                or got.max_violation == np.inf)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_coefficient_rejected(value):
    k = [0.0] * 6
    k[3] = value
    with pytest.raises(ValueError, match="k must be finite"):
        DistortionModel("rational", tuple(k))
