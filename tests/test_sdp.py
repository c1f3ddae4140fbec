import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import solve_triangular

from shapecal import calib, pipeline, relax, sdp
from shapecal.calib import CalibConfig, assemble_cost
from shapecal.poly import Polynomial, PolyMatrix
from shapecal.sdp import (AffineBlock, AffineForm, LmiBuilder, LmiProgram,
                          SolverOptions, epigraph_block, factor_psd, solve)
from util import (dense_blocks, dense_program_json, dense_reduce,
                  dense_relaxation_blocks, synth_correspondences)

ROOT = Path(__file__).resolve().parents[1]

# Bound on tracemalloc's peak while the order-2 pincushion relaxation builds:
# twice the 2.2 MB measured with triplet storage (134 MB with one dense
# matrix per variable and block).
ORDER2_BUILD_PEAK_BYTES = 4_400_000

TIGHT = SolverOptions(feas_tol=1e-9, gap_tol=1e-9,
                      accept_feas_tol=1e-8, accept_gap_tol=1e-7)


def schur_2x2_program():
    # minimize gamma subject to [[1, 0.7], [0.7, gamma]] PSD
    return LmiProgram(
        1, AffineForm({0: 1.0}),
        [AffineBlock(2, np.array([[1.0, 0.7], [0.7, 0.0]]),
                     {0: np.array([[0.0, 0.0], [0.0, 1.0]])})])


def hyperbola_program():
    # minimize x1 + x2 subject to [[x1, 1], [1, x2]] PSD
    return LmiProgram(
        2, AffineForm({0: 1.0, 1: 1.0}),
        [AffineBlock(2, np.array([[0.0, 1.0], [1.0, 0.0]]),
                     {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})])


def test_schur_2x2_optimum():
    sol = solve(schur_2x2_program())
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(0.49, abs=1e-6)
    assert sol.z[0] == pytest.approx(0.49, abs=1e-6)


def test_hyperbola_optimum():
    sol = solve(hyperbola_program())
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(2.0, abs=1e-6)
    assert np.allclose(sol.z, [1.0, 1.0], atol=1e-5)


def test_duality_gap_small_on_optimal_exit():
    for prog in (schur_2x2_program(), hyperbola_program()):
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.relative_gap <= 1e-7


def test_solution_feasible_at_optimal():
    prog = hyperbola_program()
    sol = solve(prog)
    for blk in prog.blocks:
        w = np.linalg.eigvalsh(blk.value_at(sol.z))
        assert w[0] >= -1e-8


def _random_box_program(rng):
    """3 variables, one random 3x3 block, box [-1, 1]^3 via 1x1 blocks."""
    mats = []
    for _ in range(3):
        G = rng.normal(size=(3, 3))
        mats.append(0.25 * (G + G.T))
    block = AffineBlock(3, np.eye(3), dict(enumerate(mats)))
    bounds = []
    for i in range(3):
        bounds.append(AffineBlock(1, np.array([[1.0]]),
                                  {i: np.array([[1.0]])}))
        bounds.append(AffineBlock(1, np.array([[1.0]]),
                                  {i: np.array([[-1.0]])}))
    c = rng.normal(size=3)
    prog = LmiProgram(3, AffineForm(dict(enumerate(c))), [block] + bounds)
    return prog, mats, c


def _grid_oracle(mats, c, n=60):
    """Exhaustive scan of the box program on an n^3 grid."""
    t = np.linspace(-1.0, 1.0, n)
    g1, g2, g3 = np.meshgrid(t, t, t, indexing="ij")
    Z = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
    blocks = np.eye(3) + np.einsum("nk,kij->nij", Z, np.stack(mats))
    feas = np.linalg.eigvalsh(blocks)[:, 0] >= 0.0
    vals = Z @ c
    return float(vals[feas].min()), 2.0 / (n - 1)


def test_random_programs_match_grid_oracle():
    rng = np.random.default_rng(123)
    for trial in range(20):
        prog, mats, c = _random_box_program(rng)
        sol = solve(prog, TIGHT)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        assert sol.relative_gap <= 1e-7
        oracle, step = _grid_oracle(mats, c)
        # The grid value is feasible, so it upper-bounds the optimum; the
        # optimum cannot be more than one cost-Lipschitz grid cell below.
        tol = 2.0 * step * np.abs(c).sum()
        assert sol.primal_objective <= oracle + 1e-6
        assert sol.primal_objective >= oracle - tol


def test_epigraph_identity_cost():
    bld = LmiBuilder()
    bld.add_epigraph(np.eye(6), np.zeros(6), 0.0,
                     [f"k{i}" for i in range(6)])
    bld.set_cost({"gamma": 1.0})
    sol = solve(bld.build(), TIGHT)
    assert sol.status == "optimal"
    assert abs(sol.primal_objective) <= 1e-6
    assert np.abs(sol.z[:6]).max() <= 1e-5


def test_epigraph_rank_deficient_quadratic():
    # (2 k1 - 1)^2 reaches zero at k1 = 1/2.
    M = np.zeros((6, 6))
    M[0, 0] = 4.0
    m = np.zeros(6)
    m[0] = -4.0
    bld = LmiBuilder()
    bld.add_epigraph(M, m, 1.0, [f"k{i}" for i in range(6)])
    bld.set_cost({"gamma": 1.0})
    sol = solve(bld.build(), TIGHT)
    assert sol.status == "optimal"
    assert abs(sol.primal_objective) <= 1e-6
    assert sol.z[0] == pytest.approx(0.5, abs=1e-4)


def test_epigraph_matches_pseudoinverse_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(5):
        G = rng.normal(size=(6, 4))
        M = G @ G.T          # rank deficient PSD
        m = M @ rng.normal(size=6)   # in range(M)
        c = float(rng.uniform(0.5, 2.0))
        bld = LmiBuilder()
        bld.add_epigraph(M, m, c, [f"k{i}" for i in range(6)])
        bld.set_cost({"gamma": 1.0})
        sol = solve(bld.build(), TIGHT)
        closed = c - 0.25 * m @ np.linalg.pinv(M) @ m
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(closed, abs=1e-6)


def test_epigraph_block_equivalence():
    # F(k, gamma) PSD iff gamma >= k'Mk + m'k + c, with numeric margin.
    rng = np.random.default_rng(21)
    G = rng.normal(size=(4, 4))
    M = G @ G.T
    m = rng.normal(size=4)
    c = 0.3
    block = epigraph_block(M, m, c, [0, 1, 2, 3], 4)
    for _ in range(50):
        k = rng.normal(size=4)
        quad = float(k @ M @ k + m @ k + c)
        for offset in (+1e-4, -1e-4):
            z = np.concatenate([k, [quad + offset]])
            lam = np.linalg.eigvalsh(block.value_at(z))[0]
            if offset > 0:
                assert lam >= -1e-8
            else:
                assert lam <= 1e-8


def test_factor_psd_identity():
    L = factor_psd(np.eye(3))
    assert np.allclose(L.T @ L, np.eye(3), atol=1e-12)


def test_factor_psd_rank_one():
    L = factor_psd(np.diag([4.0, 0.0]))
    assert L.shape == (1, 2)
    assert np.allclose(L.T @ L, np.diag([4.0, 0.0]), atol=1e-12)


def test_factor_psd_random_reconstruction():
    rng = np.random.default_rng(2)
    G = rng.normal(size=(5, 5))
    M = G @ G.T
    L = factor_psd(M)
    err = np.linalg.norm(L.T @ L - M) / (1.0 + np.linalg.norm(M))
    assert err <= 1e-9


def test_factor_psd_rejects_indefinite():
    with pytest.raises(sdp.IndefiniteMatrixError):
        factor_psd(np.diag([1.0, -0.5]))


def test_equality_elimination():
    prog = LmiProgram(
        2, AffineForm({0: 1.0, 1: 1.0}), hyperbola_program().blocks,
        [AffineForm({0: 1.0}, -3.0)])
    sol = solve(prog, TIGHT)
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.z[1] == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_dense_equality_elimination():
    prog = LmiProgram(
        2, AffineForm({0: 1.0, 1: 1.0}), hyperbola_program().blocks,
        [AffineForm({0: 1.0, 1: 1.0}, -3.0)])
    sol = solve(prog, TIGHT)
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(3.0, abs=1e-7)


def test_inconsistent_equalities_infeasible():
    prog = LmiProgram(
        1, AffineForm({0: 1.0}), schur_2x2_program().blocks,
        [AffineForm({0: 1.0}, 0.0), AffineForm({0: 1.0}, -1.0)])
    assert solve(prog).status == "infeasible"


def test_constant_block_infeasible():
    prog = LmiProgram(
        1, AffineForm({0: 1.0}),
        [AffineBlock(1, np.array([[-1.0]]), {}),
         AffineBlock(1, np.array([[0.0]]), {0: np.array([[1.0]])})])
    assert solve(prog).status == "infeasible"


def test_unbounded_detection():
    prog = LmiProgram(
        1, AffineForm({0: -1.0}),
        [AffineBlock(1, np.array([[0.0]]), {0: np.array([[1.0]])})])
    sol = solve(prog)
    assert sol.status == "unbounded"


def test_free_direction_unbounded():
    # Variable 1 appears nowhere; nonzero cost makes the program unbounded.
    prog = LmiProgram(
        2, AffineForm({0: 1.0, 1: 1.0}), schur_2x2_program().blocks)
    assert solve(prog).status == "unbounded"


def test_permutation_invariance():
    rng = np.random.default_rng(77)
    prog, mats, c = _random_box_program(rng)
    sol = solve(prog, TIGHT)
    perm = [2, 0, 1]
    blocks = []
    for blk in prog.blocks:
        var, row, col, val = blk.coeff
        blocks.append(AffineBlock(blk.size, blk.constant, np.column_stack(
            (np.take(perm, var), row, col, val))))
    cost = AffineForm({perm[i]: v for i, v in prog.cost.coefficients.items()})
    sol_p = solve(LmiProgram(3, cost, blocks), TIGHT)
    assert sol_p.status == "optimal"
    assert sol_p.primal_objective == pytest.approx(sol.primal_objective,
                                                   abs=1e-6)
    # Old variable i lives at index perm[i] in the permuted program.
    assert np.allclose(sol.z, [sol_p.z[perm[i]] for i in range(3)],
                       atol=1e-4)


def test_determinism():
    rng = np.random.default_rng(5)
    prog, _, _ = _random_box_program(rng)
    a = solve(prog, TIGHT)
    b = solve(prog, TIGHT)
    assert a.status == b.status
    assert np.array_equal(a.z, b.z)
    assert a.primal_objective == b.primal_objective


def test_weak_duality_on_optimal_exits():
    rng = np.random.default_rng(31)
    for _ in range(5):
        prog, _, _ = _random_box_program(rng)
        sol = solve(prog, TIGHT)
        assert sol.status == "optimal"
        assert sol.dual_objective <= sol.primal_objective + 1e-9 * (
            1.0 + abs(sol.primal_objective))


def test_program_validation():
    with pytest.raises(ValueError):
        AffineBlock(2, np.array([[0.0, 1.0], [2.0, 0.0]]), {})
    with pytest.raises(ValueError):
        LmiProgram(1, AffineForm({0: 1.0}),
                   [AffineBlock(1, np.zeros((1, 1)),
                                {3: np.ones((1, 1))})])
    with pytest.raises(ValueError):
        solve(LmiProgram(1, AffineForm({0: 1.0}), []))


def test_program_refuses_non_finite_data():
    # Non-finite data used to reach the equality elimination (an infinity)
    # or pass as asymmetry (a NaN); each part is refused where it is built.
    blocks = [AffineBlock(2, np.eye(2), {i: np.diag([1.0, i - 1.0])
                                         for i in range(3)})]
    cost = AffineForm({0: 1.0, 1: 1.0, 2: 1.0})
    with pytest.raises(ValueError, match="equality data is not finite"):
        LmiProgram(3, cost, blocks, [AffineForm({0: 1.0, 2: math.inf}, -1.0)])
    with pytest.raises(ValueError, match="cost data is not finite"):
        LmiProgram(3, AffineForm({0: 1.0}, math.nan), blocks)
    nan_coeff = np.array([[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="block data is not finite"):
        AffineBlock(2, np.eye(2), {0: nan_coeff})
    with pytest.raises(ValueError, match="block data is not finite"):
        AffineBlock(2, np.full((2, 2), math.inf), {})


def test_program_json_dump_roundtrips_shape():
    import json
    prog = hyperbola_program()
    doc = json.loads(sdp.program_to_json(prog))
    assert doc["nvars"] == 2
    assert len(doc["blocks"]) == 1
    assert doc["blocks"][0]["size"] == 2
    assert doc["blocks"][0]["constant"] == [0.0, 1.0, 1.0, 0.0]
    assert doc["cost"]["coefficients"] == {"0": 1.0, "1": 1.0}


# ---------------------------------------------------------------------------
# Exit reasons
# ---------------------------------------------------------------------------

def test_exit_reasons_of_the_plain_exits():
    assert solve(schur_2x2_program()).exit_reason == "targets_met"
    inconsistent = LmiProgram(
        1, AffineForm({0: 1.0}), schur_2x2_program().blocks,
        [AffineForm({0: 1.0}, 0.0), AffineForm({0: 1.0}, -1.0)])
    assert solve(inconsistent).exit_reason == "inconsistent_equalities"
    unbounded = LmiProgram(
        1, AffineForm({0: -1.0}),
        [AffineBlock(1, np.array([[0.0]]), {0: np.array([[1.0]])})])
    assert solve(unbounded).exit_reason == "unbounded"
    capped = solve(hyperbola_program(), SolverOptions(max_iterations=2))
    assert (capped.status, capped.exit_reason) == ("maxIterations",
                                                   "iteration_cap")


def test_barrel_stall_reports_a_stalled_exit():
    # This noiseless barrel fit stops improving before the tight targets
    # are met; its best iterate is accepted, and the exit says so.
    data = synth_correspondences(pipeline.DEFAULT_TRUE_MODELS["barrel"],
                                 (0.02, 0.9), n=200, seed=7)
    program, _ = calib.shape_program(assemble_cost(data), "barrel",
                                     CalibConfig(rbar=1.0, shape="barrel"))
    sol = solve(program, calib.TIGHT)
    assert sol.status == "optimal"
    assert sol.exit_reason == "stalled"


# ---------------------------------------------------------------------------
# Dense and sparse Schur-complement formulas
# ---------------------------------------------------------------------------

# Cuts of the Schur rule that force every block onto one path.
FORCE = {"dense": math.inf, "sparse": 0}


def _coeffs(program, path):
    """Reduced block coefficients with every block forced onto one path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "SPARSE_SCHUR_MIN_ENTRIES", FORCE[path])
        coeffs = sdp._reduce(program)[3]
    kind = sdp._SparseCoeffs if path == "sparse" else sdp._DenseCoeffs
    assert all(isinstance(A, kind) for A in coeffs)
    return coeffs


def _small_order2_program():
    # Quartic cost under a 2x2 quadratic matrix inequality: 15 moments,
    # two 6x6 blocks.
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    G = PolyMatrix(np.array([[1 - x * x, 0.5 * x * y],
                             [0.5 * x * y, 1 - y * y]], dtype=object))
    pmi = relax.PmiProgram(2, x ** 4 + y * y - x * y + 0.3 * x, [G])
    return relax.relax(pmi, 2)[0]


def _random_sparse_program(rng, dense_equality):
    m, q = 9, 40
    coeff = {}
    for i in range(q):
        mat = np.zeros((m, m))
        for _ in range(rng.integers(1, 4)):
            a, b = rng.integers(0, m, size=2)
            mat[a, b] = mat[b, a] = rng.normal()
        coeff[i] = mat
    eqs = [AffineForm({0: 1.0, 1: 1.0}, -1.0)] if dense_equality else []
    return LmiProgram(q, AffineForm({0: 1.0}),
                      [AffineBlock(m, np.eye(m), coeff)], eqs)


@pytest.mark.parametrize("program", [
    _small_order2_program(),
    _random_sparse_program(np.random.default_rng(3), False),
    _random_sparse_program(np.random.default_rng(4), True)],
    ids=["order2", "random", "random-dense-basis"])
def test_sparse_and_dense_block_products_agree(program, monkeypatch):
    rng = np.random.default_rng(11)
    dense = _coeffs(program, "dense")
    sparse = _coeffs(program, "sparse")
    for D, S in zip(dense, sparse):
        q, m = D.A.shape[0], D.A.shape[1]
        G = rng.normal(size=(m, m))
        W = G @ G.T
        Md = np.zeros((q, q))
        D.add_schur(Md, W)
        # Whole blocks at once, and in runs of three variables.
        for chunk in (sdp.SCHUR_CHUNK_ENTRIES, 3 * m * m):
            monkeypatch.setattr(sdp, "SCHUR_CHUNK_ENTRIES", chunk)
            Ms = np.zeros((q, q))
            S.add_schur(Ms, W)
            assert np.abs(Ms - Md).max() <= 1e-12 * np.abs(Md).max()
        X = W + W.T
        assert np.allclose(S.inner(X), D.inner(X), rtol=1e-12, atol=1e-12)
        y = rng.normal(size=q)
        assert np.allclose(S.combine(y), D.combine(y), rtol=1e-12,
                           atol=1e-12)
        assert np.array_equal(S.magnitude() > 1e-13, D.magnitude() > 1e-13)


def test_schur_rule_sends_only_full_order2_blocks_to_the_sparse_path(
        monkeypatch):
    # The benchmark's seed-1 pincushion set that escalates to order 2.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    data = workloads.pincushion_candidate(workloads.Size().scene, 1, 7)
    cost = assemble_cost(data)
    pmi, _, repair = calib.pincushion_pmi(
        cost, CalibConfig(rbar=1.0, shape="pincushion"))

    def kinds(program):
        return {type(A) for A in sdp._reduce(program)[3]}

    assert kinds(relax.relax(pmi, 2)[0]) == {sdp._SparseCoeffs}

    programs = [
        relax.relax(pmi, 1)[0],
        calib.shape_program(cost, "barrel",
                            CalibConfig(rbar=1.0, shape="barrel"))[0],
        calib.shape_program(cost, "positivity",
                            CalibConfig(rbar=1.0, margin_p=0.1,
                                        shape="positivity"))[0]]

    def record(program, options=None):
        programs.append(program)
        return sdp.SdpSolution(np.zeros(program.nvars), math.nan, math.nan,
                               "numericalFailure", 0)

    monkeypatch.setattr(sdp, "solve", record)
    calib._pincushion_structured(pmi)
    repair(np.zeros(3))
    assert len(programs) == 5
    for program in programs:
        assert kinds(program) == {sdp._DenseCoeffs}


@pytest.mark.parametrize("path", FORCE)
def test_pinning_equalities_reduce_to_an_exact_selection(path):
    # The relaxation's only equality pins y_0 = 1, so N selects the free
    # moments and every reduced coefficient is the negated block
    # coefficient of its free variable, bit for bit, on both storages.
    program = _small_order2_program()
    N = sdp._eliminate_equalities(program)[1].toarray()
    assert np.isin(N, (0.0, 1.0)).all() and (N.sum(axis=0) == 1).all()
    free = N.argmax(axis=0)
    assert free.size == program.nvars - 1
    for (C, coeff), A in zip(dense_blocks(program), _coeffs(program, path)):
        m = C.shape[0]
        for j, i in enumerate(free):
            got = A.A[j] if path == "dense" \
                else A.csr[j].toarray().reshape(m, m)
            assert np.array_equal(got, -coeff.get(i, np.zeros((m, m))))


@pytest.fixture(scope="module")
def order2_on_both_paths():
    program = _small_order2_program()
    sols = {}
    with pytest.MonkeyPatch.context() as mp:
        for path, cut in FORCE.items():
            mp.setattr(sdp, "SPARSE_SCHUR_MIN_ENTRIES", cut)
            sols[path] = solve(program, TIGHT)
    return sols


def test_order2_solves_alike_on_both_schur_paths(order2_on_both_paths):
    dense, sparse = (order2_on_both_paths[p] for p in ("dense", "sparse"))
    assert dense.status == sparse.status == "optimal"
    assert abs(dense.iterations - sparse.iterations) <= 1
    assert sparse.primal_objective == pytest.approx(
        dense.primal_objective, rel=1e-9)


def test_order2_exits_for_the_same_reason_on_both_schur_paths(
        order2_on_both_paths):
    dense, sparse = (order2_on_both_paths[p] for p in ("dense", "sparse"))
    assert dense.exit_reason == sparse.exit_reason != ""
    assert dense.centered == sparse.centered


# ---------------------------------------------------------------------------
# Direct LAPACK kernels and the small-program reduction
# ---------------------------------------------------------------------------

def _max_step_by_solve_triangular(L, D):
    """``_max_step`` stated with scipy's checked triangular solve."""
    K = solve_triangular(L, D, lower=True)
    K = solve_triangular(L, K.T, lower=True).T
    K = 0.5 * (K + K.T)
    lam = np.linalg.eigvalsh(K)[0]
    return np.inf if lam >= -1e-14 else -1.0 / lam


def _factor_and_direction(rng, n):
    G = rng.normal(size=(n, n))
    D = rng.normal(size=(n, n))
    return np.linalg.cholesky(G @ G.T + 0.1 * np.eye(n)), D + D.T


def test_max_step_matches_the_solve_triangular_formulation():
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        for _ in range(40):
            L, D = _factor_and_direction(rng, n)
            assert float(sdp._max_step(L, D)).hex() == \
                float(_max_step_by_solve_triangular(L, D)).hex()


def test_max_step_keeps_the_finite_and_singular_checks():
    L, D = _factor_and_direction(np.random.default_rng(2), 4)
    nan_direction = D.copy()
    nan_direction[1, 2] = nan_direction[2, 1] = np.nan
    with pytest.raises(ValueError) as exc:
        sdp._max_step(L, nan_direction)
    assert not isinstance(exc.value, np.linalg.LinAlgError)
    singular = L.copy()
    singular[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        sdp._max_step(singular, D)


def _dense_reduction_through_coo(program):
    """Dense reduced coefficients with B built by scipy's COO -> CSR."""
    z0, N = sdp._eliminate_equalities(program)
    N = N.toarray() if scipy.sparse.issparse(N) else N
    n, q = N.shape
    Cs, As = [], []
    for C, coeff in dense_blocks(program):
        C = C.copy()
        for i, mat in coeff.items():
            if z0[i]:
                C += z0[i] * mat
        Cs.append(C)
        m = C.shape[0]
        var, idx, val = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], \
            [np.zeros(0)]
        for i, mat in coeff.items():
            idx.append(np.flatnonzero(mat))
            var.append(np.full(idx[-1].size, i))
            val.append(-mat.ravel()[idx[-1]])
        B = scipy.sparse.csr_matrix(
            (np.concatenate(val), (np.concatenate(var), np.concatenate(idx))),
            shape=(n, m * m))
        As.append((N.T @ B.toarray()).reshape(q, m, m))
    return z0, N, Cs, As


@functools.cache
def _division_pmi():
    data = synth_correspondences(pipeline.DEFAULT_TRUE_MODELS["pincushion"],
                                 (0.02, 0.9), n=200, seed=8)
    return calib.pincushion_pmi(assemble_cost(data),
                                CalibConfig(rbar=1.0, shape="pincushion"))[0]


def _small_programs():
    barrel = synth_correspondences(pipeline.DEFAULT_TRUE_MODELS["barrel"],
                                   (0.02, 0.9), n=200, seed=7)
    return {
        "barrel": calib.shape_program(assemble_cost(barrel), "barrel",
                                      CalibConfig(rbar=1.0,
                                                  shape="barrel"))[0],
        "positivity": calib.shape_program(
            assemble_cost(barrel), "positivity",
            CalibConfig(rbar=1.0, margin_p=0.1, shape="positivity"))[0],
        "order1": relax.relax(_division_pmi(), 1)[0]}


@pytest.mark.parametrize("name", ["barrel", "positivity", "order1"])
def test_dense_reduction_scatters_the_coo_products_bit_for_bit(name):
    program = _small_programs()[name]
    z0, N, Cs, coeffs = sdp._reduce(program)
    z0_ref, N_ref, Cs_ref, As_ref = _dense_reduction_through_coo(program)
    N = N.toarray() if scipy.sparse.issparse(N) else N
    assert np.array_equal(z0, z0_ref) and np.array_equal(N, N_ref)
    assert len(coeffs) == len(As_ref) == len(program.blocks)
    for C, C_ref, A, A_ref in zip(Cs, Cs_ref, coeffs, As_ref):
        assert isinstance(A, sdp._DenseCoeffs)
        assert C.tobytes() == C_ref.tobytes()
        assert A.A.tobytes() == A_ref.tobytes()


# ---------------------------------------------------------------------------
# Coefficient triplets against the dense assembler
# ---------------------------------------------------------------------------

def _equality_pmi():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1.0)
    G = PolyMatrix(np.array([[x0 * x1, one], [one, x0 + 2]], dtype=object))
    disc = PolyMatrix.from_scalar(4 - x0 * x0 - x1 * x1)
    return relax.PmiProgram(2, x0 + x1, [G, disc], [x0 * x1 - 0.5])


def _failed_solve(program, options=None):
    return sdp.SdpSolution(np.zeros(program.nvars), math.nan, math.nan,
                           "numericalFailure", 0)


RELAXATIONS = {
    "pincushion-order1": lambda: relax.relax(_division_pmi(), 1),
    "pincushion-order2": lambda: relax.relax(_division_pmi(), 2),
    "pincushion-structured": lambda: calib._pincushion_structured(
        _division_pmi()),
    "equalities-order2": lambda: relax.relax(_equality_pmi(), 2),
    "equalities-order3": lambda: relax.relax(_equality_pmi(), 3),
}


@pytest.mark.parametrize("name", RELAXATIONS)
def test_relaxations_match_the_dense_assembler_bit_for_bit(name,
                                                           monkeypatch):
    # The program each call assembles from triplets must dump, and reduce
    # to the solver's data, byte for byte as the dense per-variable
    # matrices of the same loop did.
    calls = []
    assemble = relax.structured_relaxation

    def recording(pmi, mm_rows, loc_rows):
        calls.append((pmi, mm_rows, loc_rows) + assemble(pmi, mm_rows,
                                                         loc_rows))
        return calls[-1][3:]

    monkeypatch.setattr(relax, "structured_relaxation", recording)
    monkeypatch.setattr(sdp, "solve", _failed_solve)
    RELAXATIONS[name]()
    (pmi, mm_rows, loc_rows, program, pos), = calls
    blocks = dense_relaxation_blocks(pmi, mm_rows, loc_rows, pos)
    assert sdp.program_to_json(program) == dense_program_json(program, blocks)

    z0, N, Cs, coeffs = sdp._reduce(program)
    pins = {i: -eq.constant / c for eq in program.equalities
            for i, c in eq.coefficients.items()
            if len(eq.coefficients) == 1}
    if len(pins) == len(program.equalities):
        assert scipy.sparse.issparse(N)
        z0_ref = np.zeros(program.nvars)
        z0_ref[list(pins)] = list(pins.values())
        assert z0.tobytes() == z0_ref.tobytes()
        N = N.toarray()
        assert N.tobytes() == np.delete(np.eye(program.nvars), list(pins),
                                        axis=1).tobytes()
    else:
        assert isinstance(N, np.ndarray)
    Cs_ref, As_ref = dense_reduce(blocks, z0, N)
    assert len(Cs) == len(Cs_ref) == len(coeffs) == len(As_ref)
    for C, C_ref, A, A_ref in zip(Cs, Cs_ref, coeffs, As_ref):
        assert C.tobytes() == C_ref.tobytes()
        if isinstance(A, sdp._DenseCoeffs):
            assert A.A.tobytes() == A_ref.tobytes()
        else:
            for part in ("indptr", "indices", "data"):
                assert getattr(A.csr, part).tobytes() == \
                    getattr(A_ref, part).tobytes()
    if name == "pincushion-order2":
        assert {type(A) for A in coeffs} == {sdp._SparseCoeffs}


def test_order2_relaxation_builds_without_dense_coefficients():
    # The full order-2 pincushion program has 1365 moments and 18,180
    # nonzero coefficients.
    pmi = _division_pmi()
    tracemalloc.start()
    try:
        relax.relax(pmi, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ORDER2_BUILD_PEAK_BYTES


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_triplet_blocks_refuse_bad_data():
    zeros = np.zeros((2, 2))
    with pytest.raises(ValueError, match="block data is not finite"):
        AffineBlock(2, zeros, [(0, 0, 0, 1.0), (0, 1, 1, math.nan)])
    with pytest.raises(ValueError, match="block data is not finite"):
        AffineBlock(2, zeros, [(0, 0, 0, math.inf), (0, 0, 0, -math.inf)])
    with pytest.raises(ValueError, match="block matrices must be symmetric"):
        AffineBlock(2, zeros, [(0, 0, 1, 1.0), (0, 1, 0, 1.1)])
    with pytest.raises(ValueError, match="block matrices must be symmetric"):
        AffineBlock(2, zeros, [(0, 0, 1, 1.0)])
    with pytest.raises(ValueError, match="outside block size"):
        AffineBlock(2, zeros, [(0, 2, 0, 1.0)])
    for entry in ((0, 0.5, 0.5, 1.0), (0, math.nan, 0, 1.0),
                  (math.inf, 0, 0, 1.0)):
        with pytest.raises(ValueError, match="indices must be integers"):
            AffineBlock(2, zeros, [entry])
    with pytest.raises(ValueError, match="indices must be integers"):
        AffineBlock(2, zeros, {0.5: np.eye(2)})
    for var in (3, -1):
        with pytest.raises(ValueError, match=f"references variable {var}"):
            LmiProgram(1, AffineForm({0: 1.0}), [AffineBlock(
                2, zeros, [(0, 0, 0, 1.0), (var, 1, 1, 1.0)])])


def test_triplet_symmetry_tolerance_is_the_dense_one():
    # Both inputs run the check np.allclose(A, A') with atol 1e-12 (1 +
    # max |A|): a pair accepted or refused by it is accepted or refused
    # as triplets, and accepted pairs are averaged.
    for a in (1.0, 1e4, 1e-3):
        for gap in (0.0, 1e-13, 1e-12, 3e-12, 1e-5 * a, 1.01e-5 * a, 0.1):
            mat = np.array([[0.0, a], [a + gap, 5.0]])
            dense_ok = np.allclose(mat, mat.T,
                                   atol=1e-12 * (1.0 + np.abs(mat).max()))
            for coeff in ({0: mat}, [(0, 0, 1, a), (0, 1, 0, a + gap),
                                     (0, 1, 1, 5.0)]):
                if dense_ok:
                    var, row, col, val = AffineBlock(2, np.eye(2),
                                                     coeff).coeff
                    assert val.tobytes() == np.array(
                        [0.5 * (a + (a + gap)), 0.5 * (a + gap + a),
                         5.0]).tobytes()
                else:
                    with pytest.raises(ValueError, match="symmetric"):
                        AffineBlock(2, np.eye(2), coeff)


def test_triplet_duplicates_add_in_the_given_order():
    # 0.0 + 1e16 + 1 - 1e16 + 1 is 1.0 summed left to right and 0.0
    # pairwise; a variable whose entries cancel leaves no triplet.
    blk = AffineBlock(1, np.zeros((1, 1)), [
        (4, 0, 0, v) for v in (1e16, 1.0, -1e16, 1.0)] + [
        (2, 0, 0, 0.5), (2, 0, 0, -0.5)])
    var, row, col, val = blk.coeff
    assert var.tolist() == [4] and val.tolist() == [1.0]
    assert blk.value_at(np.arange(5.0)).tolist() == [[4.0]]
