import functools
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtfttr

from shapecal import calib, pipeline, relax, sdp
from shapecal.calib import CalibConfig, assemble_cost
from shapecal.poly import Polynomial, PolyMatrix
from shapecal.sdp import (AffineBlock, AffineForm, LmiBuilder, LmiProgram,
                          SolverOptions, epigraph_block, factor_psd, solve)
from util import (block_value, build_then_restrict_reduce, dense_blocks,
                  dense_program_json, dense_reduce, dense_relaxation_blocks,
                  dict_epigraph_block, full_range_add_schur, packed,
                  synth_correspondences, transposing_schur_factor,
                  transposing_schur_solve)

ROOT = Path(__file__).resolve().parents[1]

# Bound on tracemalloc's peak while the order-2 pincushion relaxation builds:
# twice the 2.2 MB measured with triplet storage (134 MB with one dense
# matrix per variable and block).
ORDER2_BUILD_PEAK_BYTES = 4_400_000

# Bound on tracemalloc's peak in the order-2 solve of the benchmark's
# escalating set: 16 MB measured with the packed Schur complement, 23 MB
# with the full q x q one.
ORDER2_SOLVE_PEAK_BYTES = 18_000_000

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
        w = np.linalg.eigvalsh(block_value(blk, sol.z))
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
            lam = np.linalg.eigvalsh(block_value(block, z))[0]
            if offset > 0:
                assert lam >= -1e-8
            else:
                assert lam <= 1e-8


def test_epigraph_triplets_match_the_per_variable_matrices_bit_for_bit():
    # Rank-deficient M, zero columns of L, zero m_j and, in every third
    # block, variables named more than once, whose entries add up.
    rng = np.random.default_rng(22)
    zero_columns = 0
    for trial in range(300):
        n = int(rng.integers(1, 7))
        G = rng.normal(size=(int(rng.integers(0, n + 1)), n))
        G[:, rng.random(n) < 0.3] = 0.0
        m = np.where(rng.random(n) < 0.3, 0.0, rng.normal(size=n))
        idx = rng.integers(0, n, size=n) if trial % 3 == 0 \
            else rng.permutation(n)
        args = (G.T @ G, m, float(rng.normal()), idx.tolist(), n)
        got, ref = epigraph_block(*args), dict_epigraph_block(*args)
        zero_columns += int((factor_psd(args[0]) == 0.0).all(axis=0).sum())
        assert got.size == ref.size
        assert got.constant.tobytes() == ref.constant.tobytes()
        for a, b in zip(got.coeff, ref.coeff):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert zero_columns > 0


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


def pinned_program(value, extra_variable=False):
    # minimize z0 subject to z0 - 0.5 >= 0 with z0 pinned at ``value``; an
    # extra variable appears in no block and costs nothing.
    return LmiProgram(
        2 if extra_variable else 1, AffineForm({0: 1.0}),
        [AffineBlock(1, np.array([[-0.5]]), {0: np.array([[1.0]])})],
        [AffineForm({0: 1.0}, -value)])


@pytest.mark.parametrize("extra_variable", [False, True])
def test_programs_with_no_live_variable_check_their_constant_blocks(
        extra_variable):
    # Every variable drops out, so the constant blocks decide: PSD within
    # feas_tol is optimal at the pinned point, anything else infeasible.
    for value in (1.0, 0.5 - 1e-9):
        sol = solve(pinned_program(value, extra_variable))
        assert (sol.status, sol.exit_reason) == ("optimal", "targets_met")
        assert sol.primal_objective == sol.dual_objective == value
        assert (sol.iterations, sol.z[0]) == (0, value)
    sol = solve(pinned_program(0.5 - 1e-6, extra_variable))
    assert (sol.status, sol.exit_reason) == ("infeasible", "infeasible")
    assert sol.primal_objective == 0.5 - 1e-6
    assert math.isnan(sol.dual_objective)


@pytest.mark.parametrize("equalities", [
    # z0 = 1 and z0 + z1 = 3 pin z1 = 2, which z1 = 1 contradicts
    [AffineForm({0: 1.0}, -1.0), AffineForm({0: 1.0, 1: 1.0}, -3.0),
     AffineForm({1: 1.0}, -1.0)],
    # z0 + z1 = 1 and z0 + z1 = 2: no pins, and least squares misses both
    [AffineForm({0: 1.0, 1: 1.0}, -1.0), AffineForm({0: 1.0, 1: 1.0}, -2.0)],
], ids=["pin-against-a-derived-pin", "general-system"])
def test_contradicting_equalities_are_inconsistent(equalities):
    prog = LmiProgram(2, AffineForm({0: 1.0, 1: 1.0}),
                      hyperbola_program().blocks, equalities)
    sol = solve(prog)
    assert (sol.status, sol.exit_reason) == ("infeasible",
                                             "inconsistent_equalities")
    assert sol.iterations == 0


def test_all_zero_equalities_with_negligible_constants_are_dropped():
    plain = solve(schur_2x2_program(), TIGHT)
    prog = schur_2x2_program()
    prog.equalities = [AffineForm({}, 0.0), AffineForm({0: 0.0}, 1e-11)]
    sol = solve(prog, TIGHT)
    assert (sol.status, sol.exit_reason) == ("optimal", "targets_met")
    assert sol.z.tobytes() == plain.z.tobytes()
    assert (sol.iterations, sol.primal_objective, sol.dual_objective) == \
        (plain.iterations, plain.primal_objective, plain.dual_objective)


def test_barrel_stall_reports_a_stalled_exit():
    # This noiseless barrel fit stops improving before the tight targets
    # are met; its best iterate is accepted, and the exit says so.  What
    # is pinned is that report, not this program's stall: whether a fit
    # stalls hangs on the last bits of the solver's arithmetic, so a change
    # to those bits may need another seed that stalls.
    data = synth_correspondences(pipeline.DEFAULT_TRUE_MODELS["barrel"],
                                 (0.02, 0.9), n=200, seed=10)
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


def _buffer(q):
    """A zeroed Schur buffer of order q: the packed M and a discard slot."""
    return np.zeros(q * (q + 1) // 2 + 1)


def _diagonal(q):
    """The positions of M's diagonal in a Schur buffer of order q."""
    return sdp._packed_index(np.arange(q), np.arange(q), q)


def _reduced(program, path):
    """``sdp._reduce`` with every block forced onto one path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "SPARSE_SCHUR_MIN_ENTRIES", FORCE[path])
        return sdp._reduce(program)


def _coeffs(program, path):
    """Reduced block coefficients with every block forced onto one path."""
    coeffs = _reduced(program, path)[3]
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


def _random_coefficient(rng, m):
    mat = np.zeros((m, m))
    for _ in range(rng.integers(1, 4)):
        a, b = rng.integers(0, m, size=2)
        mat[a, b] = mat[b, a] = rng.normal()
    return mat


def _random_sparse_program(rng, dense_equality):
    m, q = 9, 40
    coeff = {i: _random_coefficient(rng, m) for i in range(q)}
    eqs = [AffineForm({0: 1.0, 1: 1.0}, -1.0)] if dense_equality else []
    return LmiProgram(q, AffineForm({0: 1.0}),
                      [AffineBlock(m, np.eye(m), coeff)], eqs)


def _partly_held_program(rng):
    # Three random 9x9 blocks that each hold about 40% of the 40 variables,
    # and a diagonal box |z_i| <= 1 that holds them all.
    m, q = 9, 40
    coeffs = [{}, {}, {}]
    for i in range(q):
        for b in np.flatnonzero(rng.random(3) < 0.4):
            coeffs[b][i] = _random_coefficient(rng, m)
    box = [(i, 2 * i + k, 2 * i + k, 1.0 - 2.0 * k)
           for i in range(q) for k in (0, 1)]
    blocks = [AffineBlock(m, np.eye(m), coeff) for coeff in coeffs]
    blocks.append(AffineBlock(2 * q, np.eye(2 * q), box))
    return LmiProgram(q, AffineForm(dict(enumerate(rng.normal(size=q)))),
                      blocks)


@pytest.mark.parametrize("program", [
    _small_order2_program(),
    _random_sparse_program(np.random.default_rng(3), False),
    _random_sparse_program(np.random.default_rng(4), True),
    _partly_held_program(np.random.default_rng(6))],
    ids=["order2", "random", "random-dense-basis", "partly-held"])
def test_sparse_and_dense_block_products_agree(program, monkeypatch):
    rng = np.random.default_rng(11)
    dense = _coeffs(program, "dense")
    sparse = _coeffs(program, "sparse")
    for D, S in zip(dense, sparse):
        q, m = D.A.shape[0], D.A.shape[1]
        G = rng.normal(size=(m, m))
        W = G @ G.T
        Md = _buffer(q)
        D.add_schur(Md, W)
        # Whole blocks at once, and in runs of three variables; a block
        # lays out its runs when it is built.  Both add only the lower
        # triangle, packed.
        for chunk in (sdp.SCHUR_CHUNK_ENTRIES, 3 * m * m):
            monkeypatch.setattr(sdp, "SCHUR_CHUNK_ENTRIES", chunk)
            Ms = _buffer(q)
            sdp._SparseCoeffs(S.csr, S.m).add_schur(Ms, W)
            assert np.abs(Ms[:-1] - Md[:-1]).max() <= \
                1e-12 * np.abs(Md[:-1]).max()
        X = W + W.T
        assert np.allclose(S.inner(X), D.inner(X), rtol=1e-12, atol=1e-12)
        y = rng.normal(size=q)
        assert np.allclose(S.combine(y), D.combine(y), rtol=1e-12,
                           atol=1e-12)
    dense_live, sparse_live = (_reduced(program, path)[4] for path in FORCE)
    assert np.array_equal(dense_live, sparse_live)


@pytest.fixture(scope="module")
def bench_escalating_set():
    """The benchmark's seed-1 pincushion set that escalates to order 2:
    its cost, PMI, repair and order-2 relaxation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        import workloads
        data = workloads.pincushion_candidate(workloads.Size().scene, 1, 7)
    cost = assemble_cost(data)
    pmi, _, repair = calib.pincushion_pmi(
        cost, CalibConfig(rbar=1.0, shape="pincushion"))
    return SimpleNamespace(cost=cost, pmi=pmi, repair=repair,
                           order2=relax.relax(pmi, 2)[0])


def test_schur_rule_sends_only_full_order2_blocks_to_the_sparse_path(
        bench_escalating_set, monkeypatch):
    cost, pmi = bench_escalating_set.cost, bench_escalating_set.pmi

    def kinds(program):
        return {type(A) for A in sdp._reduce(program)[3]}

    assert kinds(bench_escalating_set.order2) == {sdp._SparseCoeffs}

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
    bench_escalating_set.repair(np.zeros(3))
    assert len(programs) == 5
    for program in programs:
        assert kinds(program) == {sdp._DenseCoeffs}


def _oracle_add_schur(self, M, W):
    """``add_schur`` by the full-range oracle: the block's share formed
    in full storage, then its lower triangle packed and added to M."""
    q = self.csr.shape[0]
    share = np.zeros((q, q))
    full_range_add_schur(self.csr, self.m, share, W)
    M[:-1] += packed(share)


def _scalings(coeffs, rng):
    """A random positive definite W for each block."""
    Ws = []
    for A in coeffs:
        G = rng.normal(size=(A.m, A.m))
        Ws.append(G @ G.T)
    return Ws


@pytest.mark.parametrize("name", ["bench-order2", "order2", "partly-held"])
def test_live_schur_shares_match_the_full_range_oracle_bit_for_bit(
        name, request, monkeypatch):
    # Blocks add up into one M in program order, as in the solver; each
    # block forms X_j and adds to M only over the variables it holds, and
    # only the lower triangle, which is all M stores.
    program = {
        "bench-order2": lambda: request.getfixturevalue(
            "bench_escalating_set").order2,
        "order2": _small_order2_program,
        "partly-held": lambda: _partly_held_program(
            np.random.default_rng(6))}[name]()
    coeffs = _coeffs(program, "sparse")
    q = coeffs[0].csr.shape[0]
    if name != "order2":
        assert any(A.live.size < q for A in coeffs)
    Ws = _scalings(coeffs, np.random.default_rng(5))
    for whole in (True, False):
        M, M_ref = _buffer(q), np.zeros((q, q))
        for A, W in zip(coeffs, Ws):
            if not whole:
                monkeypatch.setattr(sdp, "SCHUR_CHUNK_ENTRIES", 3 * A.m ** 2)
                A = sdp._SparseCoeffs(A.csr, A.m)
            A.add_schur(M, W)
            full_range_add_schur(A.csr, A.m, M_ref, W)
            assert M[:-1].tobytes() == packed(M_ref).tobytes()


@pytest.mark.parametrize("dense_equality", [False, True], ids=["q40", "q39"])
@pytest.mark.parametrize("width", [3, 7])
def test_runs_straddling_the_packed_fold_match_the_full_range_oracle(
        dense_equality, width, monkeypatch):
    # One block holding every variable, in runs of ``width`` variables, one
    # of which spans column ceil(q / 2), where the packed storage folds the
    # columns of M over: its rows below the tile land in two slices, one of
    # them transposed.
    program = _random_sparse_program(np.random.default_rng(3),
                                     dense_equality)
    A = _coeffs(program, "sparse")[0]
    q = A.csr.shape[0]
    assert A.live.size == q == 39 + (not dense_equality)
    monkeypatch.setattr(sdp, "SCHUR_CHUNK_ENTRIES", width * A.m ** 2)
    A = sdp._SparseCoeffs(A.csr, A.m)
    h = (q + 1) // 2
    assert any(run.start < h < run.stop for run, *_ in A.runs)
    G = np.random.default_rng(7).normal(size=(A.m, A.m))
    W = G @ G.T
    M, M_ref = _buffer(q), np.zeros((q, q))
    for _ in range(2):
        A.add_schur(M, W)
        full_range_add_schur(A.csr, A.m, M_ref, W)
        assert M[:-1].tobytes() == packed(M_ref).tobytes()


def test_run_suffixes_are_views_of_the_live_rows(monkeypatch):
    # scipy's CSR constructor copies a data or indices view shorter than
    # half of its base; each run's suffix shares live_csr's entries.
    program = _random_sparse_program(np.random.default_rng(3), False)
    A = _coeffs(program, "sparse")[0]
    monkeypatch.setattr(sdp, "SCHUR_CHUNK_ENTRIES", 3 * A.m ** 2)
    A = sdp._SparseCoeffs(A.csr, A.m)
    rows = A.live_csr
    assert any(2 * suffix.nnz < rows.nnz for _, suffix, *_ in A.runs)
    for run, suffix, *_ in A.runs:
        assert np.shares_memory(suffix.data, rows.data)
        assert np.shares_memory(suffix.indices, rows.indices)
        assert np.array_equal(suffix.toarray(), rows[run.start:].toarray())


def test_sparse_schur_shares_hold_little_beside_m(bench_escalating_set):
    # One pass over the bench set's eight order-2 blocks, their run layouts
    # built: each run holds at most SCHUR_CHUNK_ENTRIES of X_j, a copy of
    # them and its rows of the share, not whole blocks of them.
    coeffs = sdp._reduce(bench_escalating_set.order2)[3]
    q = coeffs[0].csr.shape[0]
    Ws = _scalings(coeffs, np.random.default_rng(9))
    M = _buffer(q)
    tracemalloc.start()
    try:
        for A, W in zip(coeffs, Ws):
            A.add_schur(M, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


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


@pytest.mark.parametrize("name", ["order2", "partly-held"])
def test_sparse_solves_match_the_full_range_oracle_bit_for_bit(
        name, order2_on_both_paths, monkeypatch):
    monkeypatch.setattr(sdp, "SPARSE_SCHUR_MIN_ENTRIES", 0)
    if name == "order2":
        program, got = _small_order2_program(), order2_on_both_paths["sparse"]
    else:
        program = _partly_held_program(np.random.default_rng(6))
        got = solve(program, TIGHT)
        assert got.status == "optimal"
    monkeypatch.setattr(sdp._SparseCoeffs, "add_schur", _oracle_add_schur)
    ref = solve(program, TIGHT)
    assert got.z.tobytes() == ref.z.tobytes()
    assert (got.iterations, got.exit_reason, got.centered) == \
        (ref.iterations, ref.exit_reason, ref.centered)


def test_blocks_holding_no_live_variable_add_nothing(monkeypatch):
    # Block 1 holds only z0 and z1, which equalities pin; block 2 holds
    # only z3, whose coefficient is below the inert threshold, so the
    # solver drops z3 and block 2 is left with no variable.
    diag = np.diag([1.0, -1.0])
    program = LmiProgram(4, AffineForm({2: 1.0}), [
        AffineBlock(2, np.eye(2), {2: diag}),
        AffineBlock(2, np.eye(2), {0: diag, 1: np.eye(2)}),
        AffineBlock(2, np.eye(2), {3: 1e-15 * np.eye(2)})],
        [AffineForm({0: 1.0}, -0.5), AffineForm({1: 1.0}, 0.25)])
    assert _reduced(program, "sparse")[4].tolist() == [True, False]
    coeffs = _coeffs(program, "sparse")
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    for A in coeffs[1:]:
        assert A.csr.shape[0] == 1 and A.live.size == 0
        M = _buffer(A.csr.shape[0])
        A.add_schur(M, W)
        assert not M.any()
    sols = {}
    for path, cut in FORCE.items():
        monkeypatch.setattr(sdp, "SPARSE_SCHUR_MIN_ENTRIES", cut)
        sols[path] = solve(program, TIGHT)
    assert sols["sparse"].status == sols["dense"].status == "optimal"
    assert sols["sparse"].z == pytest.approx(sols["dense"].z, abs=1e-7)
    assert sols["sparse"].z[:3] == pytest.approx([0.5, -0.25, -1.0],
                                                 abs=1e-7)


def _inert_program(dense_equality):
    # The partly-held program and two directions that cost nothing: z40
    # holds coefficients below the inert threshold only, and z41 is in no
    # block.  z0 is pinned, and z1 + z2 = 0.1 makes N a dense basis.
    base = _partly_held_program(np.random.default_rng(6))
    q = base.nvars
    eqs = [AffineForm({0: 1.0}, -0.5)]
    if dense_equality:
        eqs.append(AffineForm({1: 1.0, 2: 1.0}, -0.1))
    inert = AffineBlock(2, np.eye(2), {q: 1e-15 * np.eye(2)})
    return LmiProgram(q + 2, base.cost, base.blocks + [inert], eqs)


@pytest.mark.parametrize("dense_equality", [False, True],
                         ids=["selection", "dense-basis"])
@pytest.mark.parametrize("path", FORCE)
def test_inert_directions_solve_as_the_build_then_restrict_oracle(
        path, dense_equality, monkeypatch):
    monkeypatch.setattr(sdp, "SPARSE_SCHUR_MIN_ENTRIES", FORCE[path])
    program = _inert_program(dense_equality)
    assert (~sdp._reduce(program)[4]).sum() == 2
    got = solve(program, TIGHT)
    assert got.status == "optimal"
    monkeypatch.setattr(sdp, "_reduce", build_then_restrict_reduce)
    ref = solve(program, TIGHT)
    assert got.z.tobytes() == ref.z.tobytes()
    assert (got.iterations, got.exit_reason) == \
        (ref.iterations, ref.exit_reason)


def test_sparse_blocks_are_wrapped_once_per_solve(monkeypatch):
    # The live directions are known before any block is wrapped, so a
    # sparse block lays out its runs once, over the live rows, also when
    # directions drop out or none is left.
    shapes = []
    init = sdp._SparseCoeffs.__init__

    def counting(self, csr, m):
        shapes.append(csr.shape)
        init(self, csr, m)

    monkeypatch.setattr(sdp._SparseCoeffs, "__init__", counting)
    monkeypatch.setattr(sdp, "SPARSE_SCHUR_MIN_ENTRIES", 0)
    program = _inert_program(False)
    assert solve(program, TIGHT).status == "optimal"
    # 42 variables less the pinned z0 and the inert z40 and z41.
    assert shapes == [(39, blk.size ** 2) for blk in program.blocks]
    shapes.clear()
    sol = solve(pinned_program(1.0, extra_variable=True))
    assert (sol.status, sol.iterations) == ("optimal", 0)
    assert shapes == [(0, 1)]


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
# Dense blocks joined into one block-diagonal block
# ---------------------------------------------------------------------------

def _apart(Cs, coeffs):
    """``_join_dense`` that joins nothing."""
    return Cs, coeffs, [[slice(0, C.shape[0])] for C in Cs]


def _joined(program):
    return sdp._join_dense(*sdp._reduce(program)[2:4])


@pytest.fixture(scope="module")
def bench_small_programs(bench_escalating_set):
    """The bench set's barrel, positivity, order-1 and repair programs."""
    cost, pmi = bench_escalating_set.cost, bench_escalating_set.pmi
    programs = {
        "barrel": calib.shape_program(cost, "barrel",
                                      CalibConfig(rbar=1.0, shape="barrel"))[0],
        "positivity": calib.shape_program(
            cost, "positivity",
            CalibConfig(rbar=1.0, margin_p=0.1, shape="positivity"))[0],
        "order1": relax.relax(pmi, 1)[0]}

    def capture(program, options=None):
        programs["repair"] = program
        return _failed_solve(program)

    # ``repair`` at the order-1 candidate's division coefficients.
    k = relax.solve_order(pmi, 1, calib.TIGHT).extracted[:3]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve", capture)
        bench_escalating_set.repair(k)
    return programs


@pytest.mark.parametrize("name", ["barrel", "positivity", "order1", "repair"])
def test_joined_solves_agree_with_the_blocks_solved_apart(
        name, bench_small_programs, monkeypatch):
    program = bench_small_programs[name]
    assert len(_joined(program)[0]) == 1 < len(program.blocks)
    joined = solve(program, calib.TIGHT)
    monkeypatch.setattr(sdp, "_join_dense", _apart)
    apart = solve(program, calib.TIGHT)
    assert joined.status == apart.status == "optimal"
    for a, b in ((joined.primal_objective, apart.primal_objective),
                 (joined.dual_objective, apart.dual_objective)):
        assert abs(a - b) <= 1e-9 * (1.0 + abs(b))
    for blk in program.blocks:
        lam = np.linalg.eigvalsh(block_value(blk, joined.z))[0]
        assert lam >= -calib.TIGHT.feas_tol * (
            1.0 + np.linalg.norm(blk.constant, "fro"))


def test_joined_blocks_keep_their_own_residual_scales():
    # minimize -1e3 (z0 + z1) subject to 1e-6 - z0 >= 0, 1e6 - z1 >= 0 and
    # [[z0, 5e-4], [5e-4, 1]] PSD.  Measured against one scale for the
    # joined block, about 1e6, the small block ended about 600 times its
    # own tolerance infeasible.
    one = np.ones((1, 1))
    program = LmiProgram(2, AffineForm({0: -1e3, 1: -1e3}), [
        AffineBlock(1, 1e-6 * one, {0: -one}),
        AffineBlock(1, 1e6 * one, {1: -one}),
        AffineBlock(2, np.array([[0.0, 5e-4], [5e-4, 1.0]]),
                    {0: np.diag([1.0, 0.0])})])
    Cs, _, parts = _joined(program)
    assert len(Cs) == 1 and len(parts[0]) == 3
    sol = solve(program, TIGHT)
    assert sol.status == "optimal"
    for blk in program.blocks:
        lam = np.linalg.eigvalsh(block_value(blk, sol.z))[0]
        assert lam >= -TIGHT.feas_tol * (1.0 + np.linalg.norm(blk.constant))


def test_a_refused_joined_factor_jitters_only_the_failing_part():
    rng = np.random.default_rng(9)
    G = rng.normal(size=(3, 3))
    first, last = G @ G.T + np.eye(3), np.array([[2.0]])
    singular = np.ones((2, 2))
    parts = [slice(0, 3), slice(3, 5), slice(5, 6)]
    M = np.zeros((6, 6))
    for s, P in zip(parts, (first, singular, last)):
        M[s, s] = P
    assert sdp._cholesky(M.copy()) is None
    L = sdp._block_cholesky(M, parts)
    assert L[parts[0], parts[0]].tobytes() == \
        sdp._cholesky(first.copy()).tobytes()
    assert L[parts[2], parts[2]].tobytes() == \
        sdp._cholesky(last.copy()).tobytes()
    assert sdp._cholesky(singular.copy()) is None
    assert L[parts[1], parts[1]].tobytes() == \
        sdp._chol_with_jitter(singular).tobytes()
    L[parts[0], parts[0]] = L[parts[1], parts[1]] = L[parts[2], parts[2]] = 0
    assert not L.any()
    # A joined block that factors whole is not split.
    M[parts[1], parts[1]] += np.eye(2)
    assert sdp._block_cholesky(M, parts).tobytes() == \
        sdp._cholesky(M.copy()).tobytes()


def test_only_dense_programs_under_the_schur_rule_are_joined(
        bench_escalating_set, bench_small_programs, monkeypatch):
    for name in ("barrel", "order1"):
        program = bench_small_programs[name]
        Cs, coeffs, parts = _joined(program)
        assert len(Cs) == 1 and isinstance(coeffs[0], sdp._DenseCoeffs)
        assert [s.stop - s.start for s in parts[0]] == \
            [blk.size for blk in program.blocks]
        # The joined block holds each block's constant and coefficients on
        # its diagonal and nothing else.
        _, _, Cs_apart, coeffs_apart, _ = sdp._reduce(program)
        C, A = Cs[0].copy(), coeffs[0].A.copy()
        for s, C_b, A_b in zip(parts[0], Cs_apart, coeffs_apart):
            assert C[s, s].tobytes() == C_b.tobytes()
            assert A[:, s, s].tobytes() == A_b.A.tobytes()
            C[s, s], A[:, s, s] = 0.0, 0.0
        assert not C.any() and not A.any()

    # The structured pass: 150 variables and 82 rows are over the rule.
    programs = []
    monkeypatch.setattr(sdp, "solve", lambda program, options=None:
                        programs.append(program) or _failed_solve(program))
    calib._pincushion_structured(bench_escalating_set.pmi)
    Cs, coeffs, parts = _joined(programs[0])
    assert len(Cs) == len(programs[0].blocks) == 8
    assert all(isinstance(A, sdp._DenseCoeffs) for A in coeffs)
    assert all(len(p) == 1 for p in parts)
    # Order 2 is all sparse and keeps its blocks.
    Cs, coeffs, parts = _joined(bench_escalating_set.order2)
    assert len(Cs) == len(bench_escalating_set.order2.blocks)
    assert all(isinstance(A, sdp._SparseCoeffs) for A in coeffs)

    # The barrel program joins exactly while q m^2 (9 rows) is below the
    # cut.
    barrel = bench_small_programs["barrel"]
    entries = sdp._reduce(barrel)[1].shape[1] * 9 ** 2
    for cut, blocks in ((entries + 1, 1), (entries, 5)):
        monkeypatch.setattr(sdp, "SPARSE_SCHUR_MIN_ENTRIES", cut)
        assert len(_joined(barrel)[0]) == blocks


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
    z0, N, Cs, coeffs, live = sdp._reduce(program)
    z0_ref, N_ref, Cs_ref, As_ref = _dense_reduction_through_coo(program)
    assert live.all()
    N = N.toarray() if scipy.sparse.issparse(N) else N
    assert np.array_equal(z0, z0_ref) and np.array_equal(N, N_ref)
    assert len(coeffs) == len(As_ref) == len(program.blocks)
    for C, C_ref, A, A_ref in zip(Cs, Cs_ref, coeffs, As_ref):
        assert isinstance(A, sdp._DenseCoeffs)
        assert C.tobytes() == C_ref.tobytes()
        assert A.A.tobytes() == A_ref.tobytes()


def _asymmetric_schur(rng, q):
    # Positive definite, with a relative asymmetry like a formed M's.
    G = rng.normal(size=(q, q))
    return G @ G.T + q * np.eye(q) + 1e-9 * rng.normal(size=(q, q))


def _writes(M):
    """A ``form`` for ``sdp._schur_factor`` that writes the packed lower
    triangle of M into the buffer."""
    P = packed(M)
    return lambda buffer: np.copyto(buffer[:-1], P)


def _unpacked(q, L):
    """The full lower triangle of a packed factor."""
    A, info = dtfttr(q, L, uplo="L")
    assert info == 0
    return np.tril(A)


@pytest.mark.parametrize("q", [1, 127, 128, 129, 300])
def test_tiled_schur_factor_and_solve_match_the_transposing_oracle(q):
    # Both parities of q: the packed grid has q + 1 rows for even q and q
    # rows for odd q.
    rng = np.random.default_rng(q)
    M = _asymmetric_schur(rng, q)
    L = sdp._schur_factor(_buffer(q), _diagonal(q), _writes(M))
    L_ref = transposing_schur_factor(_buffer(q), _diagonal(q), _writes(M))
    assert L.size == q * (q + 1) // 2 and L.tobytes() == L_ref.tobytes()
    lower = _unpacked(q, L)
    mirrored = np.tril(M) + np.tril(M, -1).T
    assert np.allclose(lower @ lower.T, mirrored, rtol=1e-12, atol=1e-9)
    rhs = rng.normal(size=q)
    assert sdp._schur_solve(L, rhs).tobytes() == \
        transposing_schur_solve(L_ref, rhs).tobytes()


class _UpperPoisoned:
    """A run's CSR rows whose product is NaN above the diagonal of the
    run's tile, the entries a block forms that M does not store."""

    def __init__(self, suffix):
        self.suffix = suffix

    def __matmul__(self, X):
        share = self.suffix @ X
        share[np.triu_indices(share.shape[0], 1, share.shape[1])] = np.nan
        return share


@pytest.mark.parametrize("name", ["bench-order2", "partly-held"])
def test_upper_tile_entries_never_reach_the_factor(name, request):
    # Fully-live and partly-live runs alike send the entries above the
    # diagonal to the discard slot: NaN there gives the bits of the clean M
    # and its factor.
    program = {
        "bench-order2": lambda: request.getfixturevalue(
            "bench_escalating_set").order2,
        "partly-held": lambda: _partly_held_program(
            np.random.default_rng(6))}[name]()
    coeffs = _coeffs(program, "sparse")
    q = coeffs[0].csr.shape[0]
    poisoned = []
    for A in coeffs:
        A = sdp._SparseCoeffs(A.csr, A.m)
        A.runs = [(run, _UpperPoisoned(suffix), target, slabs)
                  for run, suffix, target, slabs in A.runs]
        poisoned.append(A)
    Ws = _scalings(coeffs, np.random.default_rng(5))

    def form(blocks):
        def form(M):
            M.fill(0.0)
            for A, W in zip(blocks, Ws):
                A.add_schur(M, W)
        return form

    # A diagonal of q keeps M positive definite whatever the W.
    shift = _buffer(q)
    shift[_diagonal(q)] = q
    M, M_ref = _buffer(q), _buffer(q)
    form(poisoned)(M)
    form(coeffs)(M_ref)
    assert np.isnan(M[-1]) and np.isfinite(M[:-1]).all()
    assert M[:-1].tobytes() == M_ref[:-1].tobytes()
    L = sdp._schur_factor(M, _diagonal(q), lambda M: (
        form(poisoned)(M), np.add(M, shift, out=M)))
    L_ref = sdp._schur_factor(M_ref, _diagonal(q), lambda M: (
        form(coeffs)(M), np.add(M, shift, out=M)))
    assert L.tobytes() == L_ref.tobytes()


def _solve_outcome(program, options):
    sol = solve(program, options)
    return (sol.z.tobytes(), sol.iterations, sol.status, sol.exit_reason,
            sol.centered, float(sol.dual_objective).hex())


def _with_transposing_oracle(monkeypatch):
    monkeypatch.setattr(sdp, "_schur_factor", transposing_schur_factor)
    monkeypatch.setattr(sdp, "_schur_solve", transposing_schur_solve)


@pytest.mark.parametrize("name", ["order2", "partly-held", "barrel",
                                  "bench-order2"])
def test_solves_match_the_transposing_schur_oracle_bit_for_bit(
        name, request, monkeypatch):
    program, options = {
        "order2": lambda: (_small_order2_program(), TIGHT),
        "partly-held": lambda: (
            _partly_held_program(np.random.default_rng(6)), TIGHT),
        "barrel": lambda: (_small_programs()["barrel"], calib.TIGHT),
        "bench-order2": lambda: (request.getfixturevalue(
            "bench_escalating_set").order2, calib.LOOSE)}[name]()
    got = _solve_outcome(program, options)
    assert got[2] == "optimal"
    _with_transposing_oracle(monkeypatch)
    assert got == _solve_outcome(program, options)


def test_schur_solve_hands_dpftrs_the_factor_as_it_lies(monkeypatch):
    # The packed factor is one contiguous run of q (q + 1) / 2 doubles,
    # which f2py passes without a copy.
    seen = []
    real = sdp.dpftrs

    def spy(n, a, b, **kwargs):
        seen.append((n, a.shape, a.flags.c_contiguous, kwargs))
        return real(n, a, b, **kwargs)

    monkeypatch.setattr(sdp, "dpftrs", spy)
    assert solve(_small_order2_program(), TIGHT).status == "optimal"
    assert seen and all(entry == (14, (105,), True, {"uplo": "L"})
                        for entry in seen)


def test_schur_factor_runs_in_place_in_one_buffer_per_solve(monkeypatch):
    # Every iteration factors the order-14 complement in the same buffer:
    # packed, overwritten, and solved with as it lies.
    factored, solved = [], []
    real_dpftrf, real_dpftrs = sdp.dpftrf, sdp.dpftrs

    def dpftrf(n, a, **kwargs):
        factored.append((n, a, kwargs))
        return real_dpftrf(n, a, **kwargs)

    def dpftrs(n, a, b, **kwargs):
        solved.append(a)
        return real_dpftrs(n, a, b, **kwargs)

    monkeypatch.setattr(sdp, "dpftrf", dpftrf)
    monkeypatch.setattr(sdp, "dpftrs", dpftrs)
    sol = solve(_small_order2_program(), TIGHT)
    assert sol.status == "optimal"
    assert len(factored) >= sol.iterations - 1 > 1 and solved
    buffer = factored[0][1]
    for n, a, kwargs in factored:
        assert n == 14 and a.size == 105 and a.flags.c_contiguous
        assert kwargs == {"uplo": "L", "overwrite_a": 1}
        assert np.shares_memory(a, buffer)
    assert all(np.shares_memory(a, buffer) for a in solved)


def test_schur_factor_allocates_less_than_one_complement():
    q = 300
    M = _asymmetric_schur(np.random.default_rng(4), q)
    buffer, diagonal, form = _buffer(q), _diagonal(q), _writes(M)
    sdp._schur_factor(buffer, diagonal, form)     # warm up
    tracemalloc.start()
    try:
        L = sdp._schur_factor(buffer, diagonal, form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(L, buffer)
    assert peak < L.nbytes


def test_order2_solve_holds_the_packed_schur_complement(
        bench_escalating_set):
    # q = 1364: the packed M is 7.4 MB against 14.9 MB in full storage.
    tracemalloc.start()
    try:
        sol = solve(bench_escalating_set.order2, calib.LOOSE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak < ORDER2_SOLVE_PEAK_BYTES


def test_schur_factor_and_solve_refuse_non_finite_values():
    L = sdp._schur_factor(_buffer(2), _diagonal(2),
                          _writes(np.array([[2.0, 0.5], [0.5, 1.0]])))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError) as exc:
            sdp._schur_solve(L, np.array([1.0, bad]))
        assert not isinstance(exc.value, np.linalg.LinAlgError)
    # diag(1, inf) factors to diag(1, inf) without a LAPACK error.
    with pytest.raises(ValueError) as exc:
        sdp._schur_factor(_buffer(2), _diagonal(2),
                          _writes(np.diag([1.0, np.inf])))
    assert not isinstance(exc.value, np.linalg.LinAlgError)


def test_refused_schur_factorization_jitters_to_the_oracles_exit(
        monkeypatch):
    # The stand-in refuses the fifth factorization of the order-14 Schur
    # complement after overwriting it, as a failed LAPACK call may, so the
    # jitter branch must form the complement again before it factors.
    program = _small_order2_program()
    real = sdp.dpftrf

    def run():
        schur = []

        def dpftrf(n, a, **kwargs):
            if n == 14:
                schur.append(a)
                if len(schur) == 5:
                    c, _ = real(n, a, **kwargs)
                    return c, 1
            return real(n, a, **kwargs)

        monkeypatch.setattr(sdp, "dpftrf", dpftrf)
        outcome = _solve_outcome(program, TIGHT)
        assert len(schur) > 6
        return outcome

    got = run()
    assert got[2] == "optimal"
    assert got != _solve_outcome(program, TIGHT)
    _with_transposing_oracle(monkeypatch)
    assert got == run()


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


def _term_order_pmi():
    # Entry (1, 1) lists its terms in another order than entry (0, 0), so
    # the exponent map's order differs from that entry's own.
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    G = PolyMatrix(np.array([[x1 + x0 * x0, x0 - 1],
                             [x0 - 1, x0 * x0 + x1 + 2]], dtype=object))
    disc = PolyMatrix.from_scalar(4 - x0 * x0 - x1 * x1)
    return relax.PmiProgram(2, x0 + x1, [disc, G])


def _zero_constraint_pmi():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    disc = PolyMatrix.from_scalar(4 - x0 * x0 - x1 * x1)
    zero = PolyMatrix.from_scalar(Polynomial.zero(2))
    return relax.PmiProgram(2, x0 + x1, [zero, disc])


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
    "term-order-order2": lambda: relax.relax(_term_order_pmi(), 2),
    "zero-constraint-order2": lambda: relax.relax(_zero_constraint_pmi(), 2),
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
    # Each block stores its variables in the order the entry scan meets them.
    for blk, (_, coeff) in zip(program.blocks, blocks):
        assert list(dict.fromkeys(blk.coeff[0].tolist())) == list(coeff)

    z0, N, Cs, coeffs, live = sdp._reduce(program)
    assert live.all()
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
    assert block_value(blk, np.arange(5.0)).tolist() == [[4.0]]
