"""Shape-constrained least-squares fitting of radial distortion models.

Given ideal/observed correspondences in normalized image coordinates, each
point contributes two rows of a linear system A k = b in the six model
coefficients, obtained by clearing the denominator of the rational model.
The squared residual is the quadratic k' M k + m' k + c with M PSD by
construction, turned into a linear objective through a Schur-complement
epigraph block.  Four solvers share this cost:

* unconstrained - the epigraph program alone (plain least squares);
* barrel        - polynomial kind, first and second derivative nonpositive
                  on [0, rbar], certificates keep the program affine;
* pincushion    - division kind; the curvature condition couples the
                  coefficients quadratically, so the program goes through
                  the moment relaxation with order escalation;
* zero-crossing - rational kind with denominator bounded below by a margin
                  p on [0, rbar], which removes common-root poles.

``SHAPE_KINDS`` names the model kind each shape fits.  The barrel and
zero-crossing LMIs are both built by ``shape_program`` and solved by one
affine path; the CLI's program dump hands its build to that path.  Each
pincushion fit builds its symbolic system once; the PMI and the
certificate-repair LMI both come from it.  The fit walks one ladder of
relaxation passes (order 1, the structured pass, then the full orders) in
one loop, and a pass whose solve fails is warned with the solver's status.

All certificate equality systems are derived programmatically from the
interval decomposition by one builder, ``_certified_systems``; the
hand-eliminated closed forms are used only as cross-checks in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import certs, relax, sdp
from .distortion import DistortionModel, shape_check
from .poly import Polynomial, PolyMatrix

KIND_INDICES = {
    "polynomial": (0, 1, 2),
    "division": (3, 4, 5),
    "rational": (0, 1, 2, 3, 4, 5),
}

K_NAMES = ("k1", "k2", "k3", "k4", "k5", "k6")

# Model kind fitted for each value of CalibConfig.shape.
SHAPE_KINDS = {"none": "rational", "barrel": "polynomial",
               "pincushion": "division", "positivity": "rational"}

# Solver options of every calibration solve.  The solves that recover
# coefficients run at TIGHT: tighter than the solver defaults (for centering
# accuracy), but a stalled best iterate is accepted at standard tolerances.
# The large pincushion passes (the structured pass and the full orders past
# the first) run at LOOSE: certification compares costs at 1e-5 relative.
TIGHT = sdp.SolverOptions(feas_tol=1e-9, gap_tol=1e-9,
                          accept_feas_tol=1e-8, accept_gap_tol=1e-7)
LOOSE = sdp.SolverOptions(feas_tol=1e-8, gap_tol=1e-7, accept_feas_tol=1e-7,
                          accept_gap_tol=1e-7, max_iterations=60)


class CalibDataError(ValueError):
    pass


class CalibrationError(RuntimeError):
    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Correspondence:
    """One ideal/observed pair in normalized image units."""

    x: float
    y: float
    xhat: float
    yhat: float

    @property
    def radius(self):
        return math.hypot(self.x, self.y)


@dataclass
class CostData:
    M: np.ndarray
    m: np.ndarray
    c: float
    count: int

    def objective(self, k):
        k = np.asarray(k, dtype=float)
        return float(k @ self.M @ k + self.m @ k + self.c)


@dataclass
class CalibConfig:
    rbar: float
    margin_p: float = 0.1
    delta_max: int = 2
    shape: str = "none"

    def __post_init__(self):
        if not 0 < self.rbar < math.inf:
            raise ValueError("rbar must be positive and finite")
        if not 0.0 < self.margin_p < 1.0:
            raise ValueError("margin_p must lie strictly between 0 and 1")
        if self.delta_max < 1:
            raise ValueError("delta_max must be at least 1")


@dataclass
class CalibResult:
    model: DistortionModel | None
    objective: float
    shape_report: object
    solver_status: str
    relaxation_order: int | None = None
    certified: bool | None = None
    lower_bound: float | None = None
    warnings: list = field(default_factory=list)


def _as_array(data):
    if isinstance(data, np.ndarray):
        arr = np.asarray(data, dtype=float)
    else:
        rows = []
        for c in data:
            if isinstance(c, Correspondence):
                rows.append((c.x, c.y, c.xhat, c.yhat))
            else:
                rows.append(tuple(c))
        arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise CalibDataError("correspondences must be rows of (x, y, xhat, yhat)")
    if not np.isfinite(arr).all():
        raise CalibDataError("correspondences contain non-finite values")
    return arr


def assemble_cost(data):
    """Accumulate M = sum A_i'A_i, m = -2 sum A_i'b_i, c = sum b_i'b_i."""
    arr = _as_array(data)
    if len(arr) == 0:
        raise CalibDataError("need at least one correspondence")
    x, y, xh, yh = arr.T
    r = np.hypot(x, y)
    powers = np.stack([r, r ** 2, r ** 3], axis=1)
    # Rows for both coordinates, stacked: (2n, 6).
    A = np.concatenate([
        np.concatenate([-x[:, None] * powers, xh[:, None] * powers], axis=1),
        np.concatenate([-y[:, None] * powers, yh[:, None] * powers], axis=1),
    ])
    b = np.concatenate([x - xh, y - yh])
    M = A.T @ A
    m = -2.0 * (A.T @ b)
    c = float(b @ b)
    return CostData(0.5 * (M + M.T), m, c, len(arr))


def residual_rms(data, model):
    """Root-mean-square distance between predicted and observed points."""
    arr = _as_array(data)
    x, y = arr[:, 0], arr[:, 1]
    scale = model.L(np.hypot(x, y))
    dx = scale * x - arr[:, 2]
    dy = scale * y - arr[:, 3]
    return float(np.sqrt(np.mean(dx * dx + dy * dy)))


def _restricted(cost, kind):
    """Cost data over the active coefficients of a kind, scaled to order one.

    The epigraph variable then measures the residual in units of the scale,
    which keeps the interior-point iterates well conditioned; reported
    objectives are always recomputed from the coefficients directly.
    """
    idx = list(KIND_INDICES[kind])
    M = cost.M[np.ix_(idx, idx)]
    m = cost.m[idx]
    scale = max(1.0, np.abs(M).max(), np.abs(m).max(), abs(cost.c))
    return M / scale, m / scale, cost.c / scale, idx, scale


def _full_k(kind, values):
    k = np.zeros(6)
    for j, idx in enumerate(KIND_INDICES[kind]):
        k[idx] = values[j]
    return k


def _data_warnings(cost):
    notes = []
    if cost.count < 3:
        notes.append(f"degenerate data: only {cost.count} correspondence(s)")
    if np.abs(cost.M).max() < 1e-14:
        notes.append("all points at zero radius: model is unconstrained by data")
    return notes


def _polish_inactive(cost, kind, k_ipm, feasible_fn):
    """Snap to the plain least-squares optimum when no constraint binds.

    Interior-point iterates carry a barrier bias of order mu times the cost
    conditioning; when the shape constraints are inactive the constrained
    optimum coincides with the unconstrained one, so the minimum-norm
    normal-equation point is exact there.  It is adopted only when it
    passes the caller's feasibility check and does not raise the objective.
    """
    idx = list(KIND_INDICES[kind])
    Mr = cost.M[np.ix_(idx, idx)]
    # Keep every numerically-resolved direction; a blown-up candidate fails
    # the objective guard below and the interior-point answer is kept.
    k_red = np.linalg.pinv(Mr, rcond=1e-15) @ (-0.5 * cost.m[idx])
    k_ls = _full_k(kind, k_red)
    if cost.objective(k_ls) <= cost.objective(k_ipm) + 1e-10 * (
            1.0 + abs(cost.objective(k_ipm))) and feasible_fn(k_ls):
        return k_ls
    return k_ipm


def solve_unconstrained(cost, kind=SHAPE_KINDS["none"]):
    """Least squares over the coefficients of one model kind, as an LMI.

    Minimizes the epigraph variable of the quadratic cost; agrees with the
    normal-equation solution whenever the restricted M is nonsingular.  The
    coefficients are Jacobi-equilibrated inside the program (powers of the
    radius make the raw columns badly scaled), which keeps the recovered
    minimizer accurate without touching the solution itself.
    """
    Mr, mr, c, idx, _scale = _restricted(cost, kind)
    d = 1.0 / np.sqrt(np.maximum(np.diag(Mr), 1e-12))
    Ms = d[:, None] * Mr * d[None, :]
    ms = d * mr
    names = [K_NAMES[i] for i in idx]
    bld = sdp.LmiBuilder()
    bld.add_epigraph(Ms, ms, c, names, "gamma")
    bld.set_cost({"gamma": 1.0})
    sol = sdp.solve(bld.build(), TIGHT)
    if sol.status != "optimal":
        raise CalibrationError(f"unconstrained solve failed: {sol.status}",
                               sol.status)
    k_red = np.array([bld.value(sol, n) for n in names])
    # Complementarity sharpening: the epigraph block's conic matrix is
    # rank-one at the optimum with range spanned by (-L k*, 1), so its last
    # column reproduces L k* to the accuracy of the converged pair.  Keep
    # whichever candidate evaluates lower.
    if sol.block_duals:
        X = sol.block_duals[0]
        if abs(X[-1, -1]) > 1e-12:
            L = sdp.factor_psd(Ms)
            u = -X[:-1, -1] / X[-1, -1]
            k_sharp, *_ = np.linalg.lstsq(L, u, rcond=None)
            if cost.objective(_full_k(kind, d * k_sharp)) <= \
                    cost.objective(_full_k(kind, d * k_red)):
                k_red = k_sharp
    k = _full_k(kind, d * k_red)
    model = DistortionModel(kind, tuple(k))
    return CalibResult(model, cost.objective(k), None, sol.status,
                       warnings=_data_warnings(cost))


# ---------------------------------------------------------------------------
# Shared symbolic scaffolding for the shape problems
# ---------------------------------------------------------------------------

def _model_g(space, r):
    return (space.const(1.0) + space.var("k4") * r
            + space.var("k5") * (r ** 2) + space.var("k6") * (r ** 3))


def _model_f(space, r):
    return (space.const(1.0) + space.var("k1") * r
            + space.var("k2") * (r ** 2) + space.var("k3") * (r ** 3))


def _certified_systems(params, rbar, targets, extra=()):
    """Interval certificates on [0, rbar] matched against target polynomials.

    ``targets`` lists (degree, target) pairs, where ``target(space, r, ridx)``
    builds the polynomial to certify nonnegative.  Certificate i (from 1)
    names its Gram entries with the prefixes s<i> and t<i>.  The space holds
    ``params``, every certificate entry, r, then ``extra``.  Returns (space,
    Gram matrices [S1, T1, S2, ...], one equality system per target).
    """
    names = list(params)
    for i, (degree, _) in enumerate(targets, start=1):
        names += certs.certificate_names(f"s{i}", f"t{i}", degree)
    space = certs.VarSpace(names + ["r"] + list(extra))
    r = space.var("r")
    ridx = space.index["r"]
    grams, systems = [], []
    for i, (degree, target) in enumerate(targets, start=1):
        S, T, cert = certs.symbolic_certificate(space, "r", 0.0, rbar, degree,
                                                f"s{i}", f"t{i}")
        grams += [S, T]
        systems.append(certs.match_coefficients(target(space, r, ridx), cert,
                                                space, "r"))
    return space, grams, systems


def barrel_systems(rbar):
    """Matching equalities for the barrel shape, derived symbolically.

    Returns (space, gram matrices, equalities) for the two targets -f' and
    -f'' on [0, rbar].
    """
    space, grams, (eqs1, eqs2) = _certified_systems(
        ["k1", "k2", "k3"], rbar,
        [(2, lambda space, r, ridx: -_model_f(space, r).derivative(ridx)),
         (1, lambda space, r, ridx:
          -_model_f(space, r).derivative(ridx).derivative(ridx))])
    return space, tuple(grams), eqs1 + eqs2


def zero_crossing_systems(rbar, margin_p):
    """Matching equalities tying g - p to its interval certificate."""
    space, grams, (eqs,) = _certified_systems(
        K_NAMES, rbar,
        [(3, lambda space, r, ridx: _model_g(space, r) - margin_p)])
    return space, tuple(grams), eqs


def shape_program(cost, shape, cfg):
    """LMI program of an affine shape fit, with a readout of its solution.

    ``shape`` is "barrel" (polynomial model, certificates for -f' and -f''
    on [0, rbar]) or "positivity" (rational model, certificate for g - p).
    The program minimizes the epigraph variable of the restricted cost
    subject to the certificate Gram blocks and the coefficient-matching
    equalities.  ``readout(sol)`` returns the six model coefficients.
    """
    if shape == "barrel":
        space, grams, eqs = barrel_systems(cfg.rbar)
    elif shape == "positivity":
        space, grams, eqs = zero_crossing_systems(cfg.rbar, cfg.margin_p)
    else:
        raise ValueError(f"no affine shape program for {shape!r}")
    kind = SHAPE_KINDS[shape]
    Mr, mr, c, idx, _scale = _restricted(cost, kind)
    names = [K_NAMES[i] for i in idx]

    bld = sdp.LmiBuilder()
    bld.add_epigraph(Mr, mr, c, names, "gamma")
    for G in grams:
        bld.add_affine_matrix(G.entries, space.names)
    for eq in eqs:
        bld.add_equality_poly(eq, space.names)
    bld.set_cost({"gamma": 1.0})

    def readout(sol):
        return _full_k(kind, [bld.value(sol, n) for n in names])

    return bld.build(), readout


# Per affine shape: the name a failed solve reports, and the largest shape
# violation at which the plain least-squares point replaces the solver's.
_AFFINE_SHAPES = {"barrel": ("barrel", 1e-10),
                  "positivity": ("zero-crossing", 0.0)}


def _solve_affine(cost, shape, cfg, built=None):
    """Solve a ``shape_program`` build, polish an inactive optimum, report.

    ``built`` is that build when the caller already holds it."""
    label, polish_tol = _AFFINE_SHAPES[shape]
    kind = SHAPE_KINDS[shape]
    program, readout = built or shape_program(cost, shape, cfg)
    sol = sdp.solve(program, TIGHT)
    if sol.status != "optimal":
        raise CalibrationError(f"{label} solve failed: {sol.status}",
                               sol.status)

    def report(k):
        return shape_check(DistortionModel(kind, tuple(k)), shape, cfg.rbar,
                           margin=cfg.margin_p)

    k = _polish_inactive(cost, kind, readout(sol),
                         lambda kk: report(kk).max_violation <= polish_tol)
    return CalibResult(DistortionModel(kind, tuple(k)), cost.objective(k),
                       report(k), sol.status, warnings=_data_warnings(cost))


def solve_barrel(cost, cfg):
    """Barrel-shaped polynomial model: L' <= 0 and L'' <= 0 on [0, rbar].

    A pure LMI: the model coefficients stay explicit decision variables tied
    to the certificate entries by the matching equalities.
    """
    return _solve_affine(cost, "barrel", cfg)


def solve_zero_crossing(cost, cfg):
    """Rational model with g(r) >= p on [0, rbar]; removes pole spikes.

    k1..k3 remain free; k4..k6 are pinned to the certificate through the
    matching equalities (which also force the constant-coefficient relation
    t11 = (1 - p) / rbar).
    """
    return _solve_affine(cost, "positivity", cfg)


# ---------------------------------------------------------------------------
# Pincushion: quadratic coupling, solved through the moment relaxation
# ---------------------------------------------------------------------------

# Pivots eliminated from the systems of g, -g' and h, in that order; the
# PMI keeps every other name of the symbolic space but r and margin.
PINCUSHION_PIVOTS = [
    ["t11", "s11", "s12", "s13"],
    ["s21", "s23", "t21"],
    ["s31", "t31", "s33", "s35", "t33"],
]


def _pincushion_h(space, r, ridx):
    g = _model_g(space, r)
    g1 = g.derivative(ridx)
    return 2 * (g1 * g1) - g * g1.derivative(ridx)


def pincushion_systems(rbar):
    """Symbolic constraint set for the pincushion shape of the division model.

    Builds the three targets g >= 0, -g' >= 0 and the curvature combination
    h = 2 g'^2 - g g'' >= 0 on [0, rbar] and matches each against its
    interval certificate.  Returns the space, the Gram matrices [S1, T1, S2,
    T2, S3, T3], and the equality systems of g, -g' and h as a list.  The
    space ends with the unknown ``margin``, which enters no system; the
    certificate-repair LMI subtracts it from the Gram diagonals.
    """
    return _certified_systems(
        ["k4", "k5", "k6"], rbar,
        [(3, lambda space, r, ridx: _model_g(space, r)),
         (2, lambda space, r, ridx: -_model_g(space, r).derivative(ridx)),
         (4, _pincushion_h)],
        extra=["margin"])


def _embed(p, src_space, dst_names):
    """Re-express a polynomial over a smaller named variable list."""
    pos = [dst_names.index(n) if n in dst_names else None
           for n in src_space.names]
    terms = {}
    for alpha, cval in p.terms.items():
        beta = [0] * len(dst_names)
        for i, e in enumerate(alpha):
            if not e:
                continue
            if pos[i] is None:
                raise ValueError("polynomial involves a dropped variable")
            beta[pos[i]] = e
        terms[tuple(beta)] = cval
    return Polynomial(len(dst_names), terms)


def pincushion_pmi(cost, cfg):
    """PMI program for the pincushion fit, with certificates substituted in.

    The affine matching systems are eliminated programmatically (division
    coefficients and a free certificate entry per system remain), which
    keeps the polynomial matrix degree at two and the variable count at
    eleven; escalation of the relaxation order stays tractable that way.
    Returns (PmiProgram, cost scale, repair); gamma is the last variable and
    measures the residual divided by the scale.  ``repair(k_div)``
    tells whether certificate entries exist that make every constraint hold
    at the division coefficients ``k_div`` exactly, reusing the same
    symbolic system.
    """
    space, grams, systems = pincushion_systems(cfg.rbar)
    substitution = {}
    for eqs, pivots in zip(systems, PINCUSHION_PIVOTS):
        substitution.update(certs.eliminate(eqs, pivots, space))

    dropped = {"r", "margin"}.union(*PINCUSHION_PIVOTS)
    pmi_names = [n for n in space.names if n not in dropped] + ["gamma"]
    dim = len(pmi_names)

    # Epigraph of the restricted quadratic cost, as a polynomial matrix.
    Mr, mr, c, _, scale = _restricted(cost, SHAPE_KINDS["pincushion"])
    epi = sdp.epigraph_block(Mr, mr, c, [0, 1, 2], dim - 1)
    var, row, col, val = epi.coeff
    entries = np.empty((epi.size, epi.size), dtype=object)
    for i in range(epi.size):
        for j in range(epi.size):
            at = (row == i) & (col == j)
            terms = {tuple(int(d == vi) for d in range(dim)): v
                     for vi, v in zip(var[at], val[at])}
            terms[(0,) * dim] = epi.constant[i, j]
            entries[i, j] = Polynomial(dim, terms)
    constraints = [PolyMatrix(entries)]

    for G in grams:
        sub_entries = np.empty((G.size, G.size), dtype=object)
        for i in range(G.size):
            for j in range(G.size):
                sub_entries[i, j] = _embed(
                    certs.substitute_all(G.entries[i, j], substitution, space),
                    space, pmi_names)
        constraints.append(PolyMatrix(sub_entries))

    def repair(k_div):
        # Search certificate entries matching every system at k exactly,
        # maximizing the smallest Gram-block margin (bounded above by one so
        # the program stays bounded).
        bld = sdp.LmiBuilder()
        margin = space.var("margin")
        for G in grams:
            shifted = G.entries.copy()
            for i in range(G.size):
                shifted[i, i] = shifted[i, i] - margin
            bld.add_affine_matrix(shifted, space.names)
        one = np.array([[1.0]])
        bld.add_block(sdp.AffineBlock(1, one,
                                      {bld.variable("margin"): -one}))
        for eqs in systems:
            for eq in eqs:
                for name, val in zip(("k4", "k5", "k6"), k_div):
                    eq = eq.substitute(space.index[name], space.const(val))
                bld.add_equality_poly(eq, space.names)
        bld.set_cost({"margin": -1.0})
        sol = sdp.solve(bld.build(), TIGHT)
        # Boundary optima land at numerically-zero margins; anything beyond
        # a small negative tolerance means no certificate exists at these k.
        return bool(sol.status == "optimal"
                    and bld.value(sol, "margin") >= -1e-8)

    gamma = Polynomial.variable(dim, dim - 1)
    return relax.PmiProgram(dim, gamma, constraints), scale, repair


# Escalating the relaxation order is pointless once the moment vector would
# outgrow the dense solver; the order is skipped and reported as such.
MAX_RELAXATION_VARIABLES = 4000


def _pincushion_structured(pmi):
    """Structured tightening between the first and second full orders.

    The only nonlinearity in the program is quadratic in the division
    coefficients, so a moment basis of all variables plus the coefficient
    quadratics, with every block localized against {1, k4, k5, k6}, captures
    most of the second order at a fraction of its size.  A failed solve
    comes back as a result carrying the solver's status, as from
    ``relax.solve_order``.
    """
    d = pmi.dim
    zero = (0,) * d
    coords = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    kquads = [tuple((1 if j == a else 0) + (1 if j == b else 0)
                    for j in range(d))
              for a in range(3) for b in range(a, 3)]
    mm_rows = [zero] + coords + kquads
    k_rows = [zero] + coords[:3]
    loc_rows = {ci: k_rows for ci in range(len(pmi.constraints))}
    program, pos = relax.structured_relaxation(pmi, mm_rows, loc_rows)
    sol = sdp.solve(program, LOOSE)
    if sol.status != "optimal":
        return relax.RelaxationResult(math.nan, None, False, 0,
                                      solver_status=sol.status)
    return relax.structured_candidate(sol, pos, pmi)


def _pincushion_passes(pmi, cfg, warnings):
    """Relaxation passes in escalation order, as (order, label, result).

    Order 1 runs at ``TIGHT``; the structured pass and the full higher
    orders are large and run at ``LOOSE``.  A full order whose moment vector
    would outgrow the dense solver ends the ladder with a warning.
    """
    yield 1, "order 1", relax.solve_order(pmi, 1, TIGHT)
    if cfg.delta_max < 2:
        return
    # Structured pass: tightened coefficient moments at a fraction of the
    # full second order; its bound certificate stands on its own.
    yield 2, "structured", _pincushion_structured(pmi)
    for delta in range(2, cfg.delta_max + 1):
        nmoments = math.comb(pmi.dim + 2 * delta, pmi.dim)
        if nmoments > MAX_RELAXATION_VARIABLES:
            warnings.append(
                f"relaxation order {delta} skipped: {nmoments} moment "
                f"variables exceed the dense-solver budget")
            return
        yield delta, f"order {delta}", relax.solve_order(pmi, delta, LOOSE)


def solve_pincushion(cost, cfg):
    """Pincushion-shaped division model: L' >= 0 and L'' >= 0 on [0, rbar].

    The curvature condition makes the certificate coupling quadratic in the
    coefficients, so the fit runs through the moment relaxation, escalating
    the order until the extracted candidate certifies or cfg.delta_max is
    reached.  A candidate that fails the moment-side certificate is re-tried
    by solving the certificate feasibility program at the candidate
    coefficients; global optimality then follows from the bound matching the
    candidate cost.  An uncertified outcome is reported distinctly with the
    best lower bound and feasible candidate, if any.
    """
    kind = SHAPE_KINDS["pincushion"]
    pmi, scale, repair = pincushion_pmi(cost, cfg)
    warnings = _data_warnings(cost)
    bounds, best_candidate = [], None
    for order, label, result in _pincushion_passes(pmi, cfg, warnings):
        if result.solver_status != "optimal":
            warnings.append(f"{label} solve: {result.solver_status}")
            continue
        bound = result.lower_bound * scale
        bounds.append(bound)
        k_div = np.array(result.extracted[:3])
        k = _full_k(kind, k_div)
        cand_cost = cost.objective(k)
        certified = result.certified
        if not certified and repair(k_div):
            best_candidate = (k, cand_cost)
            certified = abs(cand_cost - bound) <= \
                relax.CANDIDATE_GAP_RTOL * (1.0 + abs(bound))
        if not certified:
            continue
        model = DistortionModel(kind, tuple(k))
        report = shape_check(model, "pincushion", cfg.rbar)
        if report.max_violation > 1e-6:
            # Candidate sits just outside the shape tolerance; keep looking.
            best_candidate = best_candidate or (k, cand_cost)
            continue
        return CalibResult(model, cand_cost, report, "optimal",
                           relaxation_order=order, certified=True,
                           lower_bound=bound, warnings=warnings)

    # Uncertified at the order cap: report the best bound and the best
    # feasible candidate when one exists.
    model, cand_cost, report = None, math.nan, None
    if best_candidate is not None:
        k, cand_cost = best_candidate
        model = DistortionModel(kind, tuple(k))
        report = shape_check(model, "pincushion", cfg.rbar)
    return CalibResult(model, cand_cost, report, "uncertified",
                       relaxation_order=order, certified=False,
                       lower_bound=max(bounds, default=None),
                       warnings=warnings)


def solve_shape(cost, cfg):
    """Route to the solver selected by cfg.shape."""
    if cfg.shape == "none":
        return solve_unconstrained(cost, SHAPE_KINDS["none"])
    if cfg.shape == "barrel":
        return solve_barrel(cost, cfg)
    if cfg.shape == "pincushion":
        return solve_pincushion(cost, cfg)
    if cfg.shape == "positivity":
        return solve_zero_crossing(cost, cfg)
    raise ValueError(f"unknown shape {cfg.shape!r}")


# ---------------------------------------------------------------------------
# Correspondence files
# ---------------------------------------------------------------------------

CSV_HEADER = "x,y,xhat,yhat"


def write_correspondences(path, data):
    arr = _as_array(data)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in arr:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_correspondences(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise CalibDataError(
                f"{path}:1: expected header {CSV_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise CalibDataError(
                    f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise CalibDataError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise CalibDataError(f"{path}: no correspondence rows")
    return np.asarray(rows)
