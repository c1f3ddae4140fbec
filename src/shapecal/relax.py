"""Moment relaxations of polynomial matrix inequality programs.

A PMI program minimizes a polynomial cost subject to symmetric matrices of
polynomials being PSD, optionally with polynomial equalities.  When the data
are not affine, the program is approximated from below by the standard
moment hierarchy: every monomial x^alpha up to degree 2*delta becomes a
moment variable y_alpha, the cost is linearized through the Riesz
functional, and the PSD constraints turn into the moment matrix
M_delta(y) = l_y(psi psi') and one localizing matrix l_y((psi psi') (x) G)
per constraint at order delta - gamma, where gamma is 1 for constraint
degree up to 2 and ceil(deg/2) beyond.  The bounds are monotone in delta
and reach the global minimum at a finite order for the problems treated
here.

One assembler builds every moment program: ``structured_relaxation`` takes
explicit row bases, and ``relax`` calls it with the full bases of its
order.  Both return (LmiProgram, pos), where ``pos`` maps each moment
exponent to its variable position in graded-lex order.  A localizing block
is a sum of shifted moment patterns times the constraint's coefficient
matrices C_beta (Henrion and Lasserre 2006), so its triplets come from one
broadcast.  Order escalation is the caller's: ``solve_order`` relaxes,
solves and extracts at one order.

One candidate core serves every solved relaxation.  It reads the candidate
minimizer off the first-order moments and certifies it by direct
feasibility plus matching of the candidate cost against the relaxation
bound, the solver's dual objective.  ``extract`` and
``structured_candidate`` are its two entry points.  An uncertified bound
is a valid, honestly reported outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .poly import Polynomial, PolyMatrix, basis, grlex_key


@dataclass
class PmiProgram:
    """Polynomial cost, PSD polynomial-matrix constraints, polynomial equalities."""

    dim: int
    cost: Polynomial
    constraints: list
    equalities: list = field(default_factory=list)

    def __post_init__(self):
        if self.cost.dim != self.dim:
            raise ValueError("cost dimension mismatch")
        for G in self.constraints:
            if G.dim != self.dim:
                raise ValueError("constraint dimension mismatch")
        for q in self.equalities:
            if q.dim != self.dim:
                raise ValueError("equality dimension mismatch")

    def feasible(self, x):
        """Whether x meets every constraint within CANDIDATE_FEAS_TOL."""
        for G in self.constraints:
            if np.linalg.eigvalsh(G.eval(x))[0] < -CANDIDATE_FEAS_TOL:
                return False
        for q in self.equalities:
            if abs(q.eval(x)) > CANDIDATE_FEAS_TOL:
                return False
        return True


def gamma_offset(G):
    """Degree allowance consumed by a constraint matrix."""
    deg = G.degree
    return 1 if deg <= 2 else math.ceil(deg / 2)


def min_order(pmi):
    """Smallest admissible relaxation order for a PMI program."""
    gam = max((gamma_offset(G) for G in pmi.constraints), default=1)
    need = max(gam, math.ceil(pmi.cost.degree / 2))
    for q in pmi.equalities:
        need = max(need, math.ceil(q.degree / 2))
    return need


def relax(pmi, delta):
    """Build the order-delta LMI relaxation of a PMI program.

    The program comes from ``structured_relaxation`` over full bases: moment
    rows psi_delta = basis(d, delta), and localizing rows basis(d, delta -
    gamma) for every constraint, with gamma the offset of the merged
    block-diagonal constraint.  Its variables are then all moments y_alpha
    with |alpha| <= 2*delta in graded-lex order, y_0 pinned to 1.  Each
    polynomial equality q enters as the shifted equalities l_y(x^beta q) = 0
    for every |beta| <= 2*delta - deg q.  Returns ``structured_relaxation``'s
    (LmiProgram, pos); ``pos`` equals ``basis(d, 2 * delta).index``.
    """
    need = min_order(pmi)
    if delta < need:
        raise ValueError(f"relaxation order {delta} below minimum {need}")
    d = pmi.dim
    gam = max((gamma_offset(G) for G in pmi.constraints), default=1)
    loc_rows = basis(d, delta - gam).monomials
    shifted = [Polynomial(d, {tuple(map(sum, zip(beta, alpha))): c
                              for alpha, c in q.terms.items()})
               for q in pmi.equalities
               for beta in basis(d, 2 * delta - q.degree).monomials]
    return structured_relaxation(
        PmiProgram(d, pmi.cost, pmi.constraints, shifted),
        basis(d, delta).monomials,
        {ci: loc_rows for ci in range(len(pmi.constraints))})


@dataclass
class RelaxationResult:
    lower_bound: float
    extracted: np.ndarray | None
    certified: bool
    order: int
    candidate_cost: float = math.nan
    solver_status: str = ""


# Certification of an extracted candidate: PMI feasibility and relative
# match of its cost to the bound, both looser than the solver tolerances.
CANDIDATE_FEAS_TOL = 1e-6
CANDIDATE_GAP_RTOL = 1e-5


def _candidate(sol, pos, pmi, order):
    """The candidate core behind ``extract`` and ``structured_candidate``.

    ``pos`` maps a moment exponent to its position in ``sol.z``.  The
    candidate is the vector of first-order moments; the bound is the dual
    objective, below the relaxation's value as the primal one is above it.
    The candidate is certified when it is feasible for the PMI within
    ``CANDIDATE_FEAS_TOL`` and its cost matches the bound within
    ``CANDIDATE_GAP_RTOL``.
    """
    if sol.status != "optimal":
        raise ValueError(f"candidate needs an optimal solution, got "
                         f"{sol.status}")
    d = pmi.dim
    z = np.asarray(sol.z)
    x_star = z[[pos[tuple(1 if j == i else 0 for j in range(d))]
                for i in range(d)]]
    feasible = pmi.feasible(x_star)
    cand_cost = pmi.cost.eval(x_star)
    bound = sol.dual_objective
    cost_ok = abs(cand_cost - bound) <= CANDIDATE_GAP_RTOL * (1.0 + abs(bound))
    return RelaxationResult(
        lower_bound=bound,
        extracted=x_star,
        certified=bool(feasible and cost_ok),
        order=order,
        candidate_cost=cand_cost,
        solver_status=sol.status,
    )


def extract(sol, pos, pmi, order):
    """Candidate of a solved full-order relaxation, reported at ``order``.

    One call of the candidate core over ``relax``'s moment positions
    ``pos``.  Raises ``ValueError`` on a non-optimal solution.  Returns a
    RelaxationResult; uncertified is a valid outcome carrying the bound.
    """
    return _candidate(sol, pos, pmi, order)


def solve_order(pmi, delta, options=None):
    """Relax at one order, solve, and extract; returns a RelaxationResult."""
    program, pos = relax(pmi, delta)
    sol = sdp.solve(program, options)
    if sol.status != "optimal":
        return RelaxationResult(
            lower_bound=math.nan,
            extracted=None,
            certified=False,
            order=delta,
            solver_status=sol.status,
        )
    return extract(sol, pos, pmi, delta)


def structured_relaxation(pmi, mm_rows, loc_rows):
    """Moment program over explicit row bases instead of full degree levels.

    ``mm_rows`` lists the exponents spanning the moment matrix; it must
    contain the constant and every coordinate exponent.  ``loc_rows`` maps a
    constraint index to the exponent rows of its localizing matrix; blocks
    not listed are localized against the constant row only (their entries
    evaluated at the moments directly).  Any such program is sound: moment
    vectors of measures on the feasible set satisfy every block, so the
    optimum still bounds the PMI from below.  ``relax`` calls it with the
    full bases of an order; other callers use it to tighten specific
    variable interactions without paying for a full order step.

    Each block's triplets come from one broadcast over its rows, its rows
    and the constraint's terms, in the order an entry by entry scan would
    meet them.  Returns (LmiProgram, pos), where ``pos`` maps each exponent
    the program uses to its variable position, in graded-lex order.
    """
    d = pmi.dim
    mm_rows = [tuple(r) for r in mm_rows]
    zero = (0,) * d
    if zero not in mm_rows:
        raise ValueError("moment rows must contain the constant exponent")
    for i in range(d):
        e_i = tuple(1 if j == i else 0 for j in range(d))
        if e_i not in mm_rows:
            raise ValueError("moment rows must contain every coordinate")

    # The moment matrix is the localizing matrix of the constant 1.  Block
    # moments rows[i] + rows[j] + beta_t are listed in (i, j, t) order.
    one = PolyMatrix.from_scalar(Polynomial.constant(d, 1.0))
    localized = []
    for G, rows in [(one, mm_rows)] + [
            (G, loc_rows.get(ci, [zero]))
            for ci, G in enumerate(pmi.constraints)]:
        rows = np.array(rows, dtype=np.intp).reshape(-1, d)
        betas = np.array(list(G.terms), dtype=np.intp).reshape(-1, d)
        moments = rows[:, None, None] + rows[None, :, None] + betas
        localized.append((G, len(rows),
                          list(map(tuple, moments.reshape(-1, d).tolist()))))
    needed = set(pmi.cost.terms).union(*(m for _, _, m in localized))
    pos = {a: i for i, a in enumerate(sorted(needed, key=grlex_key))}

    cost = sdp.AffineForm({pos[a]: c for a, c in pmi.cost.terms.items()}, 0.0)

    # Triplets in (i, j, t, x, y) order: as G.terms is in entry-scan order,
    # each moment first appears where an (i, j, x, y, term) scan meets it.
    blocks = []
    for G, nb, moments in localized:
        g, msize = G.size, nb * G.size
        var = np.array([pos[a] for a in moments],
                       dtype=np.intp).reshape(nb, nb, -1)
        C = np.array(list(G.terms.values())).reshape(-1, g, g)
        t, x, y = np.nonzero(C)
        at = np.arange(nb) * g
        coeff = np.stack(np.broadcast_arrays(
            var[:, :, t], at[:, None, None] + x, at[:, None] + y,
            C[t, x, y]), axis=-1)
        blocks.append(sdp.AffineBlock(msize, np.zeros((msize, msize)),
                                      coeff))

    equalities = [sdp.AffineForm({pos[zero]: 1.0}, -1.0)]
    for q in pmi.equalities:
        if not all(a in pos for a in q.terms):
            raise ValueError("equality involves moments outside the basis")
        equalities.append(sdp.AffineForm(
            {pos[a]: c for a, c in q.terms.items()}, 0.0))

    return sdp.LmiProgram(len(pos), cost, blocks, equalities), pos


def structured_candidate(sol, pos, pmi):
    """Candidate of a solved ``structured_relaxation``, reported at order 0.

    One call of the candidate core over the program's ``pos``.  Raises
    ``ValueError`` on a non-optimal solution.
    """
    return _candidate(sol, pos, pmi, 0)
