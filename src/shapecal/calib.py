"""Shape-constrained least-squares fitting of radial distortion models.

Given ideal/observed correspondences in normalized image coordinates, each
point contributes two rows of a linear system A k = b in the six model
coefficients, obtained by clearing the denominator of the rational model.
The squared residual is the quadratic k' M k + m' k + c with M PSD by
construction.  Four solvers share this cost.  The shape fits go through the
SDP, which turns the cost into a linear objective through a Schur-complement
epigraph block; the unconstrained one is the closed-form least-squares point:

* unconstrained - plain least squares, ``_least_squares``;
* barrel        - polynomial kind, first and second derivative nonpositive
                  on [0, rbar], certificates keep the program affine;
* pincushion    - division kind; the curvature condition couples the
                  coefficients quadratically, so the program goes through
                  the moment relaxation with order escalation;
* zero-crossing - rational kind with denominator bounded below by a margin
                  p on [0, rbar], which removes common-root poles.

``SHAPE_KINDS`` names the model kind each shape fits.  The barrel and
zero-crossing fits share one affine path: the cost is convex, so when the
least-squares point already has the shape it is the constrained optimum and
no program is solved; otherwise the LMI built by ``shape_program`` is.  The
CLI's program dump hands its build to that path.  Each
pincushion fit builds its symbolic system once; the PMI and the
certificate-repair LMI both come from it.  The fit walks one ladder of
relaxation passes (order 1, the structured pass, then the full order 2) in
one loop, cut at the order cfg.delta_max; a pass whose solve fails is
warned with the solver's status, and the result names the pass it ends on.

All certificate equality systems are derived programmatically from the
interval decomposition by one builder, ``_certificates``, and matched by
``_matched``; the barrel and zero-crossing certificates depend only on rbar
(and the margin) and are derived once per process.  The hand-eliminated
closed forms are used only as cross-checks in the tests.
"""

from __future__ import annotations

import functools
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
        if self.delta_max not in (1, 2):
            raise ValueError("delta_max must be 1 or 2")
        if self.shape not in SHAPE_KINDS:
            raise ValueError(f"unknown shape {self.shape!r}")


@dataclass
class CalibResult:
    model: DistortionModel | None
    objective: float
    shape_report: object
    solver_status: str
    relaxation_order: int | None = None
    relaxation_pass: str | None = None
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


def _least_squares(cost, kind):
    """The six coefficients minimizing the cost over the active ones of a kind.

    Solves the normal equations of the restricted cost after Jacobi
    equilibration (powers of the radius make the raw columns badly scaled),
    through the epigraph block's own factorization Ms = L'L, and refines
    the solution once with the same two solves (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 12).  Directions the data leave
    unresolved get the minimum-norm zero.
    """
    idx = list(KIND_INDICES[kind])
    Mr = cost.M[np.ix_(idx, idx)]
    d = 1.0 / np.sqrt(np.maximum(np.diag(Mr), 1e-12))
    Ms = d[:, None] * Mr * d[None, :]
    b = -0.5 * d * cost.m[idx]
    L = sdp.factor_psd(Ms)

    def solve(rhs):
        w = np.linalg.lstsq(L.T, rhs, rcond=None)[0]
        return np.linalg.lstsq(L, w, rcond=None)[0]

    u = solve(b)
    u = u + solve(b - Ms @ u)
    return _full_k(kind, d * u)


def solve_unconstrained(cost, kind=SHAPE_KINDS["none"]):
    """Least squares over the coefficients of one model kind.

    No shape condition applies, so no program is solved: the result is the
    closed-form point of ``_least_squares``, always "optimal".
    """
    k = _least_squares(cost, kind)
    return CalibResult(DistortionModel(kind, tuple(k)), cost.objective(k),
                       None, "optimal", warnings=_data_warnings(cost))


# ---------------------------------------------------------------------------
# Shared symbolic scaffolding for the shape problems
# ---------------------------------------------------------------------------

def _model_g(space, r):
    return (space.const(1.0) + space.var("k4") * r
            + space.var("k5") * (r ** 2) + space.var("k6") * (r ** 3))


def _model_f(space, r):
    return (space.const(1.0) + space.var("k1") * r
            + space.var("k2") * (r ** 2) + space.var("k3") * (r ** 3))


def _certificates(params, rbar, targets, extra=()):
    """Interval certificates on [0, rbar] for target polynomials.

    ``targets`` lists (degree, target) pairs, where ``target(space, r, ridx)``
    builds the polynomial to certify nonnegative.  Certificate i (from 1)
    names its Gram entries with the prefixes s<i> and t<i>.  The space holds
    ``params``, every certificate entry, r, then ``extra``.  Returns (space,
    Gram matrices (S1, T1, S2, ...), one (target, certificate polynomial)
    pair per target).
    """
    names = list(params)
    for i, (degree, _) in enumerate(targets, start=1):
        names += certs.certificate_names(f"s{i}", f"t{i}", degree)
    space = certs.VarSpace(names + ["r"] + list(extra))
    r = space.var("r")
    ridx = space.index["r"]
    grams, pairs = [], []
    for i, (degree, target) in enumerate(targets, start=1):
        S, T, cert = certs.symbolic_certificate(space, "r", 0.0, rbar, degree,
                                                f"s{i}", f"t{i}")
        grams += [S, T]
        pairs.append((target(space, r, ridx), cert))
    return space, tuple(grams), tuple(pairs)


def _matched(space, pairs):
    """One equality system per (target, certificate) pair: the two
    polynomials equal coefficient-wise in r."""
    return tuple(tuple(certs.match_coefficients(target, cert, space, "r"))
                 for target, cert in pairs)


@functools.cache
def _barrel_certificates(rbar):
    return _certificates(
        ["k1", "k2", "k3"], rbar,
        [(2, lambda space, r, ridx: -_model_f(space, r).derivative(ridx)),
         (1, lambda space, r, ridx:
          -_model_f(space, r).derivative(ridx).derivative(ridx))])


@functools.cache
def _zero_crossing_certificates(rbar, margin_p):
    return _certificates(
        K_NAMES, rbar,
        [(3, lambda space, r, ridx: _model_g(space, r) - margin_p)])


def barrel_systems(rbar):
    """Matching equalities for the barrel shape, derived symbolically.

    Returns (space, gram matrices, equalities) for the two targets -f' and
    -f'' on [0, rbar], all tuples that callers only read.  The targets and
    certificates depend on rbar only and are derived once per process.  The
    coefficient matching, about a fifth of a derivation, runs per call, so
    that every traced benchmark run still reaches
    ``certs.match_coefficients`` (``bench/tracing.py`` requires it).
    """
    space, grams, pairs = _barrel_certificates(rbar)
    eqs1, eqs2 = _matched(space, pairs)
    return space, grams, eqs1 + eqs2


def zero_crossing_systems(rbar, margin_p):
    """Matching equalities tying g - p to its interval certificate.

    Derived as ``barrel_systems``: the certificate once per (rbar,
    margin_p) and process, the matching per call.
    """
    space, grams, pairs = _zero_crossing_certificates(rbar, margin_p)
    (eqs,) = _matched(space, pairs)
    return space, grams, eqs


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
# violation at which the plain least-squares point is the constrained optimum.
_AFFINE_SHAPES = {"barrel": ("barrel", 1e-10),
                  "positivity": ("zero-crossing", 0.0)}


def _solve_affine(cost, shape, cfg, built=None):
    """Fit an affine shape: least squares when that point has the shape, else
    the ``shape_program`` build (``built``, when the caller holds it) solved.

    The cost is convex, so a least-squares point within the shape's
    tolerance is the constrained optimum and no program is solved."""
    label, tol = _AFFINE_SHAPES[shape]
    kind = SHAPE_KINDS[shape]

    def result(k, status):
        model = DistortionModel(kind, tuple(k))
        return CalibResult(model, cost.objective(k),
                           shape_check(model, shape, cfg.rbar,
                                       margin=cfg.margin_p),
                           status, warnings=_data_warnings(cost))

    fit = result(_least_squares(cost, kind), "optimal")
    if fit.shape_report.max_violation <= tol:
        return fit
    program, readout = built or shape_program(cost, shape, cfg)
    sol = sdp.solve(program, TIGHT)
    if sol.status != "optimal":
        raise CalibrationError(f"{label} solve failed: {sol.status}",
                               sol.status)
    return result(readout(sol), sol.status)


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
    interval certificate.  Returns the space, the Gram matrices (S1, T1, S2,
    T2, S3, T3), and the equality systems of g, -g' and h.  The space ends
    with the unknown ``margin``, which enters no system; the
    certificate-repair LMI subtracts it from the Gram diagonals.
    """
    space, grams, pairs = _certificates(
        ["k4", "k5", "k6"], rbar,
        [(3, lambda space, r, ridx: _model_g(space, r)),
         (2, lambda space, r, ridx: -_model_g(space, r).derivative(ridx)),
         (4, _pincushion_h)],
        extra=["margin"])
    return space, grams, _matched(space, pairs)


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
    entries = np.full(epi.constant.shape, Polynomial.zero(dim), dtype=object)
    for v, i, j, a in zip(*epi.coeff):
        entries[i, j] = entries[i, j] + Polynomial.variable(dim, v) * a
    constraints = [PolyMatrix(entries + epi.constant)]

    def lift(p):
        return _embed(certs.substitute_all(p, substitution, space), space,
                      pmi_names)

    constraints += [PolyMatrix([[lift(p) for p in row] for row in G.entries])
                    for G in grams]

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


# The pincushion ladder, as (label, relaxation order, run) in escalation
# order; cfg.delta_max cuts it to the passes of order at most that cap.
# Order 1 runs at TIGHT; the structured pass, a tightening between the
# first and second full orders whose bound certificate stands on its own,
# and the full order 2 are large and run at LOOSE.  Each run looks the
# relax and sdp solvers up when called, so a stand-in set on those modules
# is the one that runs.
PINCUSHION_PASSES = (
    ("order 1", 1, lambda pmi: relax.solve_order(pmi, 1, TIGHT)),
    ("structured", 2, _pincushion_structured),
    ("order 2", 2, lambda pmi: relax.solve_order(pmi, 2, LOOSE)),
)


def solve_pincushion(cost, cfg):
    """Pincushion-shaped division model: L' >= 0 and L'' >= 0 on [0, rbar].

    The curvature condition makes the certificate coupling quadratic in the
    coefficients, so the fit runs through the moment relaxation, walking
    ``PINCUSHION_PASSES`` up to order cfg.delta_max until the extracted
    candidate certifies.  A candidate that fails the moment-side certificate
    is re-tried by solving the certificate feasibility program at the
    candidate coefficients; global optimality then follows from the bound
    matching the candidate cost.  An uncertified outcome is reported
    distinctly with the best lower bound and feasible candidate, if any.
    The result names the pass that certified, or the last pass run.
    """
    kind = SHAPE_KINDS["pincushion"]
    pmi, scale, repair = pincushion_pmi(cost, cfg)
    warnings = _data_warnings(cost)
    bounds, best_candidate = [], None
    passes = [p for p in PINCUSHION_PASSES if p[1] <= cfg.delta_max]
    for label, order, run in passes:
        result = run(pmi)
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
                           relaxation_order=order, relaxation_pass=label,
                           certified=True, lower_bound=bound,
                           warnings=warnings)

    # Uncertified at the order cap: report the best bound and the best
    # feasible candidate when one exists.
    model, cand_cost, report = None, math.nan, None
    if best_candidate is not None:
        k, cand_cost = best_candidate
        model = DistortionModel(kind, tuple(k))
        report = shape_check(model, "pincushion", cfg.rbar)
    return CalibResult(model, cand_cost, report, "uncertified",
                       relaxation_order=order, relaxation_pass=label,
                       certified=False, lower_bound=max(bounds, default=None),
                       warnings=warnings)


def solve_shape(cost, cfg):
    """Route to the solver selected by cfg.shape."""
    if cfg.shape == "none":
        return solve_unconstrained(cost)
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


def read_rows(path, headers, width):
    """The (n, width) rows of a CSV file of finite numbers whose header is
    one of ``headers``; blank lines are skipped.  ``CalibDataError`` names
    the file and line of a bad header, field count or number."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header not in headers:
            raise CalibDataError(
                f"{path}:1: expected header {headers[0]!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != width:
                raise CalibDataError(f"{path}:{lineno}: expected {width} "
                                     f"fields, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise CalibDataError(f"{path}:{lineno}: {exc}") from exc
            if not np.isfinite(rows[-1]).all():
                raise CalibDataError(f"{path}:{lineno}: non-finite coordinate")
    return np.reshape(rows, (-1, width))


def read_correspondences(path):
    arr = read_rows(path, (CSV_HEADER,), 4)
    if not len(arr):
        raise CalibDataError(f"{path}: no correspondence rows")
    return arr
