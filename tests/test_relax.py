import math

import numpy as np
import pytest

from shapecal import relax, sdp
from shapecal.poly import Polynomial, PolyMatrix, basis
from shapecal.relax import (PmiProgram, extract, gamma_offset, min_order,
                            relax as build_relaxation, solve_order)
from util import basis_vector, localizing_matrix, moment_matrix

OPTS = sdp.SolverOptions(feas_tol=1e-9, gap_tol=1e-9,
                         accept_feas_tol=1e-8, accept_gap_tol=1e-7)

X = Polynomial.variable(1, 0)
BOX01 = PolyMatrix.from_scalar(X * (1 - X))          # x in [0, 1]
BOX11 = PolyMatrix.from_scalar((1 - X) * (1 + X))    # x in [-1, 1]


def test_moment_matrix_textbook_form():
    mm = moment_matrix(1, 1)
    assert mm.tolist() == [[(0,), (1,)], [(1,), (2,)]]


def test_moment_matrix_order_zero():
    assert moment_matrix(0, 3).tolist() == [[(0, 0, 0)]]


def test_moment_matrix_delta2_d2():
    mm = moment_matrix(2, 2)
    assert mm.shape == (6, 6)
    distinct = {m for m in mm.flat}
    assert len(distinct) == 15           # all exponents with |a| <= 4
    assert max(sum(m) for m in distinct) == 4
    assert mm[0, 0] == (0, 0)


def test_localizing_order_zero_is_linearization():
    G = PolyMatrix(np.array([[X * X, X], [X, Polynomial.constant(1, 1.0)]],
                            dtype=object))
    loc = localizing_matrix(G, 0)
    assert loc[0, 0].coefficients == {(2,): 1.0}
    assert loc[0, 1].coefficients == {(1,): 1.0}
    assert loc[1, 1].coefficients == {(0,): 1.0}


def test_localizing_of_scalar_one_is_moment_matrix():
    one = PolyMatrix.from_scalar(Polynomial.constant(2, 1.0))
    loc = localizing_matrix(one, 2)
    mm = moment_matrix(2, 2)
    assert loc.shape == mm.shape
    for i in range(loc.shape[0]):
        for j in range(loc.shape[1]):
            assert loc[i, j].coefficients == {mm[i, j]: 1.0}


def test_localizing_point_mass_oracle():
    rng = np.random.default_rng(3)
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    G = PolyMatrix(np.array([[x0 * x1, Polynomial.constant(2, 1.0)],
                             [Polynomial.constant(2, 1.0), x0 + 2]],
                            dtype=object))
    loc = localizing_matrix(G, 1)
    xhat = rng.normal(size=2)
    y = {a: float(np.prod(xhat ** np.array(a)))
         for a in basis(2, 4).monomials}
    numeric = np.array([[loc[i, j].eval(y) for j in range(loc.shape[1])]
                        for i in range(loc.shape[0])])
    psi = basis_vector(basis(2, 1), xhat)
    expected = np.kron(np.outer(psi, psi), G.eval(xhat))
    assert np.abs(numeric - expected).max() <= 1e-10


def test_gamma_offset_rule():
    assert gamma_offset(PolyMatrix.from_scalar(X)) == 1
    assert gamma_offset(PolyMatrix.from_scalar(X * X)) == 1
    assert gamma_offset(PolyMatrix.from_scalar(X ** 3)) == 2
    assert gamma_offset(PolyMatrix.from_scalar(X ** 4)) == 2


def test_minimum_order_enforced():
    pmi = PmiProgram(1, X ** 4, [BOX11])
    assert min_order(pmi) == 2
    with pytest.raises(ValueError):
        build_relaxation(pmi, 1)


def test_relax_linear_on_unit_interval():
    # minimize -x with x(1-x) >= 0: bound -1 at the endpoint, with the
    # first and second moments pinned to 1 (grid oracle gives -1 at x = 1).
    pmi = PmiProgram(1, -X, [BOX01])
    program, pos = build_relaxation(pmi, 1)
    sol = sdp.solve(program, OPTS)
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(-1.0, abs=1e-6)
    assert sol.z[pos[(1,)]] == pytest.approx(1.0, abs=1e-5)
    assert sol.z[pos[(2,)]] == pytest.approx(1.0, abs=1e-5)


def test_relax_boundary_minimum():
    # minimize x subject to x >= 0 and 1 - x >= 0.
    pmi = PmiProgram(1, X, [PolyMatrix.from_scalar(X),
                            PolyMatrix.from_scalar(1 - X)])
    res = solve_order(pmi, 1, OPTS)
    assert res.solver_status == "optimal"
    assert res.lower_bound == pytest.approx(0.0, abs=1e-7)
    assert res.certified
    assert res.extracted[0] == pytest.approx(0.0, abs=1e-5)


def test_extract_point_mass_certified():
    # Construct a problem whose optimum is an interior point: the moment
    # solution is a point mass and extraction recovers it to 1e-7.
    p = (X - 0.3) * (X - 0.3)
    pmi = PmiProgram(1, p, [BOX01])
    res = solve_order(pmi, 1, OPTS)
    assert res.certified
    assert res.extracted[0] == pytest.approx(0.3, abs=1e-7)


def test_extract_interior_quadratic():
    pmi = PmiProgram(1, X * X, [BOX11])
    res = solve_order(pmi, 1, OPTS)
    assert res.certified
    assert abs(res.extracted[0]) <= 1e-6
    assert res.lower_bound == pytest.approx(0.0, abs=1e-7)


def test_two_atom_optimum_reported_uncertified():
    # x^4 - x^2 on [-1, 1] has minima at +-1/sqrt(2); the moment solution
    # is their mixture, so extraction must refuse to certify.
    pmi = PmiProgram(1, X ** 4 - X ** 2, [BOX11])
    res = solve_order(pmi, 2, OPTS)
    assert res.solver_status == "optimal"
    assert not res.certified
    assert res.lower_bound == pytest.approx(-0.25, abs=1e-6)


def test_truncated_order_uncertified_with_valid_bound():
    # Motzkin-style cost on a box: not a sum of squares, so the capped
    # order stays below exactness; the bound must sit at or below the true
    # minimum (grid oracle) and the result must not claim certification.
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    motzkin = (x0 ** 4) * (x1 ** 2) + (x0 ** 2) * (x1 ** 4) \
        - 3 * (x0 ** 2) * (x1 ** 2) + 1
    box = [PolyMatrix.from_scalar(4 - x0 * x0),
           PolyMatrix.from_scalar(4 - x1 * x1)]
    pmi = PmiProgram(2, motzkin, box)
    res = solve_order(pmi, 3, OPTS)
    ts = np.linspace(-2, 2, 201)
    g1, g2 = np.meshgrid(ts, ts)
    vals = g1 ** 4 * g2 ** 2 + g1 ** 2 * g2 ** 4 - 3 * g1 ** 2 * g2 ** 2 + 1
    true_min = float(vals.min())
    assert res.solver_status == "optimal"
    assert res.lower_bound <= true_min + 1e-6
    assert not res.certified


def test_hierarchy_monotone_bounds():
    cases = [
        PmiProgram(1, X ** 4 - X ** 2, [BOX11]),
        PmiProgram(1, -X, [BOX01]),
        PmiProgram(1, (X - 0.4) * (X - 0.4) * (X + 1), [BOX01]),
    ]
    for pmi in cases:
        bounds = []
        for delta in range(min_order(pmi), 4):
            res = solve_order(pmi, delta, OPTS)
            if res.solver_status == "optimal":
                bounds.append(res.lower_bound)
        for lo, hi in zip(bounds, bounds[1:]):
            assert lo <= hi + 1e-7


def test_bounds_below_feasible_values():
    pmi = PmiProgram(1, X ** 4 - X ** 2, [BOX11])
    res = solve_order(pmi, 2, OPTS)
    for x in np.linspace(-1, 1, 17):
        assert res.lower_bound <= float(x ** 4 - x ** 2) + 1e-6


def test_point_mass_moments_feasible_for_relaxation():
    # Moments of a point mass at a feasible point satisfy every block.
    pmi = PmiProgram(1, -X, [BOX01])
    program, pos = build_relaxation(pmi, 2)
    xhat = 0.37
    y = np.array([xhat ** a[0] for a in pos])
    for blk in program.blocks:
        w = np.linalg.eigvalsh(blk.value_at(y))
        assert w[0] >= -1e-8
    for eq in program.equalities:
        assert abs(eq.eval(y)) <= 1e-10


def test_polynomial_equalities_enter_as_moment_equalities():
    # minimize -x on [0, 1] with x^2 = x restricts to {0, 1}; bound -1 with
    # a point-mass solution at 1.
    pmi = PmiProgram(1, -X, [BOX01], [X * X - X])
    program, _ = build_relaxation(pmi, 2)
    q_budget = len(basis(1, 2 * 2 - 2).monomials)
    assert len(program.equalities) == 1 + q_budget
    res = solve_order(pmi, 2, OPTS)
    assert res.certified
    assert res.extracted[0] == pytest.approx(1.0, abs=1e-5)


def test_relax_blocks_match_textbook_forms():
    # relax() assembles through structured_relaxation over full bases; its
    # blocks must equal the textbook moment and localizing matrices entry
    # by entry, and each equality q must add one row per |beta| <= 2*delta
    # - deg q.
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1.0)
    G = PolyMatrix(np.array([[x0 * x1, one], [one, x0 + 2]], dtype=object))
    disc = PolyMatrix.from_scalar(4 - x0 * x0 - x1 * x1)
    cases = [PmiProgram(2, x0 + x1, [G]),
             PmiProgram(2, x0 + x1, [G, disc], [x0 * x1 - 0.5])]
    for pmi in cases:
        gam = max(gamma_offset(C) for C in pmi.constraints)
        for delta in (1, 2):
            program, pos = build_relaxation(pmi, delta)
            assert len(program.blocks) == 1 + len(pmi.constraints)
            forms = [np.array([[{a: 1.0} for a in row]
                               for row in moment_matrix(delta, 2)])]
            for C in pmi.constraints:
                loc = localizing_matrix(C, delta - gam)
                forms.append(np.array([[f.coefficients for f in row]
                                       for row in loc]))
                assert all(f.constant == 0.0 for f in loc.flat)
            for blk, form in zip(program.blocks, forms):
                assert blk.size == form.shape[0]
                assert not blk.constant.any()
                var, row, col, val = blk.coeff
                for i in range(blk.size):
                    for j in range(blk.size):
                        at = (row == i) & (col == j)
                        got = dict(zip(var[at].tolist(), val[at].tolist()))
                        want = {pos[a]: c
                                for a, c in form[i, j].items()}
                        assert got == want
            rows = sum(len(basis(2, 2 * delta - q.degree))
                       for q in pmi.equalities)
            assert len(program.equalities) == 1 + rows


def test_relax_positions_are_the_full_moment_basis():
    # relax() returns structured_relaxation's pos as it comes; over full
    # bases it must place every moment up to degree 2*delta at its
    # graded-lex position.
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1.0)
    G = PolyMatrix(np.array([[x0 * x1, one], [one, x0 + 2]], dtype=object))
    disc = PolyMatrix.from_scalar(4 - x0 * x0 - x1 * x1)
    box = [PolyMatrix.from_scalar(4 - x0 * x0),
           PolyMatrix.from_scalar(4 - x1 * x1)]
    cases = [(PmiProgram(1, -X, [BOX01]), (1, 2, 3)),
             (PmiProgram(1, X ** 4 - X ** 2, [BOX11]), (2, 3)),
             (PmiProgram(1, -X, [BOX01], [X * X - X]), (2,)),
             (PmiProgram(2, x0 + x1, [G, disc], [x0 * x1 - 0.5]), (1, 2)),
             (PmiProgram(2, x0 * x0 * x1 * x1, box), (2, 3))]
    for pmi, orders in cases:
        for delta in orders:
            program, pos = build_relaxation(pmi, delta)
            assert pos == basis(pmi.dim, 2 * delta).index
            assert program.nvars == len(pos)


def test_cross_path_affine_pmi_equals_direct_lmi():
    # An affine PMI relaxed at order one must match the direct LMI optimum:
    # both solve min gamma with [[1, 0.7], [0.7, gamma]] PSD.
    g = Polynomial.variable(1, 0)
    G = PolyMatrix(np.array(
        [[Polynomial.constant(1, 1.0), Polynomial.constant(1, 0.7)],
         [Polynomial.constant(1, 0.7), g]], dtype=object))
    pmi = PmiProgram(1, g, [G])
    res = solve_order(pmi, 1, OPTS)
    direct = sdp.solve(sdp.LmiProgram(
        1, sdp.AffineForm({0: 1.0}),
        [sdp.AffineBlock(2, np.array([[1.0, 0.7], [0.7, 0.0]]),
                         {0: np.array([[0.0, 0.0], [0.0, 1.0]])})]), OPTS)
    assert res.solver_status == "optimal"
    assert res.lower_bound == pytest.approx(direct.primal_objective, abs=1e-6)
    assert res.certified


def test_structured_relaxation_sound_and_tight_on_toy():
    # Reduced basis on a quadratic problem: bound equals the full solution.
    pmi = PmiProgram(1, (X - 0.3) * (X - 0.3), [BOX01])
    rows = [(0,), (1,)]
    program, pos = relax.structured_relaxation(pmi, rows, {0: [(0,), (1,)]})
    sol = sdp.solve(program, OPTS)
    res = relax.structured_candidate(sol, pos, pmi)
    assert res.certified
    assert res.extracted[0] == pytest.approx(0.3, abs=1e-6)


def test_cross_path_barrel_pmi_matches_direct_lmi():
    # The barrel fit re-posed as a PMI (all decision variables as program
    # variables, matching systems as polynomial equalities) and relaxed at
    # the first order must reproduce the direct LMI optimum.
    from shapecal import calib
    from shapecal.distortion import DistortionModel

    rng = np.random.default_rng(3)
    r = rng.uniform(0.05, 0.6, size=150)
    th = rng.uniform(0, 2 * np.pi, size=150)
    model = DistortionModel("polynomial", (-0.1, -0.04, 0, 0, 0, 0))
    s = model.L(r)
    data = np.stack([r * np.cos(th), r * np.sin(th),
                     s * r * np.cos(th), s * r * np.sin(th)], axis=1)
    cost = calib.assemble_cost(data)
    cfg = calib.CalibConfig(rbar=1.0, shape="barrel")
    direct = calib.solve_barrel(cost, cfg)

    space, grams, eqs = calib.barrel_systems(cfg.rbar)
    Mr, mr, c, _, scale = calib._restricted(cost, "polynomial")
    names = [n for n in space.names if n != "r"] + ["gamma"]
    dim = len(names)

    def lift(p):
        return calib._embed(p, space, names)

    L = sdp.factor_psd(Mr)
    rank = L.shape[0]
    size = rank + 1
    entries = np.empty((size, size), dtype=object)
    kvars = [Polynomial.variable(dim, names.index(f"k{i}"))
             for i in (1, 2, 3)]
    gamma = Polynomial.variable(dim, names.index("gamma"))
    for i in range(rank):
        for j in range(rank):
            entries[i, j] = Polynomial.constant(dim,
                                                1.0 if i == j else 0.0)
    for i in range(rank):
        lk = sum((L[i, j] * kvars[j] for j in range(3)),
                 Polynomial.zero(dim))
        entries[i, rank] = lk
        entries[rank, i] = lk
    corner = gamma - c
    for j in range(3):
        corner = corner - mr[j] * kvars[j]
    entries[rank, rank] = corner
    constraints = [PolyMatrix(entries)]
    for G in grams:
        sub = np.empty((G.size, G.size), dtype=object)
        for i in range(G.size):
            for j in range(G.size):
                sub[i, j] = lift(G.entries[i, j])
        constraints.append(PolyMatrix(sub))
    pmi = PmiProgram(dim, gamma, constraints, [lift(e) for e in eqs])

    res = solve_order(pmi, 1, OPTS)
    assert res.solver_status == "optimal"
    assert res.lower_bound * scale == pytest.approx(direct.objective,
                                                    abs=1e-6)
    # The moment candidate carries interior-point slop that the direct path
    # polishes away; agreement at the coefficient level is coarser.
    k_pmi = [res.extracted[names.index(f"k{i}")] for i in (1, 2, 3)]
    assert np.allclose(k_pmi, direct.model.k[:3], atol=2e-3)


def _hand_solution(pmi, delta, atoms, weights, objective, status="optimal"):
    """An SdpSolution holding the moments of a finite atomic measure."""
    pos = build_relaxation(pmi, delta)[1]
    z = np.array([sum(w * x ** a[0] for x, w in zip(atoms, weights))
                  for a in pos])
    sol = sdp.SdpSolution(z, objective, objective, status, 0)
    return sol, pos


QUAD = PmiProgram(1, (X - 0.3) * (X - 0.3), [BOX01])


def test_candidate_point_mass_certified_by_rank_one_flatness():
    # The bound is set off the true cost, so only the rank test certifies.
    sol, pos = _hand_solution(QUAD, 2, [0.3], [1.0], -0.5)
    full = extract(sol, pos, QUAD, 2)
    part = relax.structured_candidate(sol, pos, QUAD)
    assert full.rank_flat and full.certified and full.order == 2
    assert not part.rank_flat and not part.certified and part.order == 0
    assert full.extracted[0] == part.extracted[0] == pytest.approx(0.3)


def test_candidate_two_atom_mixture_is_flat_but_uncertified():
    # Equal atoms at 0.2 and 0.8: the flat ranks are 2, the barycenter 0.5
    # is feasible, and its cost 0.04 misses the mixture's 0.13.
    sol, pos = _hand_solution(QUAD, 2, [0.2, 0.8], [0.5, 0.5], 0.13)
    full = extract(sol, pos, QUAD, 2)
    part = relax.structured_candidate(sol, pos, QUAD)
    assert full.rank_flat
    assert not full.certified and not part.certified
    assert full.extracted[0] == pytest.approx(0.5)


def test_candidate_refuses_non_optimal_solution():
    sol, pos = _hand_solution(QUAD, 2, [0.3], [1.0], 0.0, "maxIterations")
    with pytest.raises(ValueError, match="maxIterations"):
        extract(sol, pos, QUAD, 2)
    with pytest.raises(ValueError, match="maxIterations"):
        relax.structured_candidate(sol, pos, QUAD)


def test_candidate_entry_points_agree_on_a_solved_relaxation():
    pmi = PmiProgram(1, (X - 0.4) * (X - 0.4) * (X + 1), [BOX01])
    program, pos = build_relaxation(pmi, 2)
    sol = sdp.solve(program, OPTS)
    full = extract(sol, pos, pmi, 2)
    part = relax.structured_candidate(sol, pos, pmi)
    assert np.array_equal(full.extracted, part.extracted)
    assert full.candidate_cost == part.candidate_cost
    assert full.lower_bound == part.lower_bound
