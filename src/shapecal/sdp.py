"""Primal-dual interior-point solver for linear matrix inequality programs,
plus the Schur-complement construction that turns a convex quadratic cost
into a linear (epigraph) objective.

A program is

    minimize    c' z + c0
    subject to  A0_b + sum_i z_i A_{b,i}  PSD   for every block b,
                e_j' z + f_j = 0               for every equality j.

Each block stores its constant A0_b dense and its coefficients A_{b,i}
only as (variable, row, column, value) triplets of their nonzero entries,
which every builder hands over as such; no per-variable dense matrix
exists between the program builders and the solver.  Equalities are
removed up front by restricting z to an affine subspace: when every
equality pins one variable the basis is a sparse 0/1 selection, otherwise
a particular solution plus an orthonormal null-space basis from one SVD;
an inconsistent system is reported as infeasible without running the
interior-point loop.  One mask, formed from every block's reduced
coefficients, marks the inert directions of that subspace (no entry above
1e-13 in any block), and each block is wrapped for the solver once, over
the live directions.  The reduced problem is the dual side of a standard
conic pair, and is solved by an infeasible-start path-following method
with Nesterov-Todd scaling and a Mehrotra predictor-corrector step.  The
Schur complement M_ij = sum_b <A_i, W_b A_j W_b> is formed explicitly and
factored densely; the intended problem sizes are blocks up to roughly 100
and up to a few thousand variables.  One size rule
(``SPARSE_SCHUR_MIN_ENTRIES``, a cut on q m^2 for q variables and m rows)
decides two things.  It picks each block's formula for its share of M:
small blocks keep their coefficients as a dense tensor and use two GEMMs,
while the blocks of large moment relaxations, whose coefficients are about
0.1% dense, keep (variable, row, column, value) triplets and use the
sparse formula of Fujisawa, Kojima and Nakata (1997).  A sparse block's
share touches only the rows and columns of M of the variables it holds;
the entries it skips would only have received signed zeros, which leave M
bit for bit unchanged because M never holds -0.0.  And it lets the dense
blocks, when together they stay under the cut, be joined into one
block-diagonal block, as SDPT3 handles the Nesterov-Todd direction of a
block-diagonal cone (Todd, Toh and Tutuncu 1998).

Most blocks of the package's programs are tiny (a barrel program has
five, 1x1 to 4x4), and a step costs a fixed few numpy calls per block;
joined, it factors, scales and line-searches one 9x9 matrix instead of
five.  In exact arithmetic nothing changes: the iterates stay block
diagonal and the largest step is the least over the diagonal blocks.
Each program block stays a part of the joined block with its own
tolerances (see ``solve``).  The kernels call LAPACK directly (``dpotrf``
for the Cholesky factors of the X and S blocks, ``dtrtrs`` for step
lengths, with the arguments scipy's triangular solve would pass, and
``dpftrf`` and ``dpftrs`` for the Schur complement) and keep scipy's
checks: non-finite input raises ValueError and a singular triangular
factor raises LinAlgError; each factor is checked once, where a step
forms it.  ``dpotrf`` factors a C-ordered matrix as the upper triangle of
its F-ordered transpose, so it reads the lower triangle and leaves the
lower factor in C order.  The Schur complement (1364 variables at order 2)
is stored as its lower triangle only, in LAPACK's rectangular full packed
format (7.4 MB at order 2 instead of 14.9 MB in full), in one buffer per
solve that is never copied: every block adds its share's lower triangle
straight into packed positions, ``dpftrf`` factors it in place with
level-3 BLAS, and ``dpftrs`` takes the factor as it lies.  Every iterate
keeps the bits of the same factor of a copy of the packed triangle and a
solve with it, which the tests hold as the reference.

The solver is reentrant and keeps no global state; a single call is
single-threaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpftrf, dpftrs, dpotrf, dtrttf, dtrtrs


class SdpError(Exception):
    pass


class IndefiniteMatrixError(SdpError):
    pass


@dataclass
class AffineForm:
    """Sparse affine expression over decision variables: sum c_i z_i + const."""

    coefficients: dict
    constant: float = 0.0

    def dense(self, nvars):
        v = np.zeros(nvars)
        for i, c in self.coefficients.items():
            v[i] = c
        return v


@dataclass
class AffineBlock:
    """Matrix-valued affine map: constant + sum_i z_i A_i, all symmetric.

    ``constant`` is a dense (size, size) array.  ``coeff`` is given either as
    a sequence of (var, row, col, value) entries of the A_i or as {var:
    (size, size) matrix}, which is read as the entries of its nonzeros.
    Either passes once through ``_triplets`` and is stored as its result:
    the tuple of arrays (var, row, col, value) holding every nonzero entry
    of the symmetrized A_i, both triangles, grouped by variable in order of
    first appearance and sorted by row and column within a variable.  No
    dense A_i is kept.
    """

    size: int
    constant: np.ndarray
    coeff: object

    def __post_init__(self):
        self.constant = _sym_check(np.asarray(self.constant, dtype=float),
                                   self.size)
        entries = self.coeff
        if isinstance(entries, dict):
            mats = [np.asarray(m, dtype=float) for m in entries.values()]
            for m in mats:
                if m.shape != (self.size, self.size):
                    raise ValueError(f"matrix shape {m.shape} does not match "
                                     f"block size {self.size}")
            mats = np.reshape(mats, (-1, self.size, self.size))
            k, row, col = np.nonzero(mats)
            entries = np.column_stack((np.array(list(entries))[k], row, col,
                                       mats[k, row, col]))
        self.coeff = _triplets(self.size, entries)


def _symmetrized(a):
    return 0.5 * (a + a.T)


def _sym_check(m, size):
    if m.shape != (size, size):
        raise ValueError(f"matrix shape {m.shape} does not match block size {size}")
    scale = np.abs(m).max()    # NaN or inf when any entry is
    if not math.isfinite(scale):
        raise ValueError("block data is not finite")
    _check_symmetric(m, m.T, scale)
    return _symmetrized(m)


def _check_symmetric(a, b, scale):
    """Raise unless np.allclose(a, b, atol=1e-12 * (1 + scale)) holds for
    the finite entries a of a matrix and b of its transpose."""
    if not (np.abs(a - b) <= 1e-12 * (1.0 + scale) + 1e-5 * np.abs(b)).all():
        raise ValueError("block matrices must be symmetric")


def _triplets(size, entries):
    """Validated, symmetrized coefficient triplets of one block.

    ``entries`` holds (var, row, col, value) rows.  Each A_i is what a dense
    (size, size) accumulator would hold: entries given more than once add
    up one after another in the given order, starting from 0.0.  Each A_i
    then passes ``_sym_check``'s tests with its own scale, the largest
    |entry|, and becomes 0.5 (A_i + A_i') with an absent mirror entry read
    as 0.0; exact zeros are dropped.  Returns the arrays (var, row, col,
    value) in the order ``AffineBlock`` stores.
    """
    entries = np.reshape(np.asarray(entries, dtype=float), (-1, 4))
    index = entries[:, :3]
    if not (np.isfinite(index) & (index == np.trunc(index))).all():
        raise ValueError("coefficient indices must be integers")
    if ((index[:, 1:] < 0) | (index[:, 1:] >= size)).any():
        raise ValueError(f"coefficient entry outside block size {size}")
    var, row, col = index.T.astype(np.intp)
    val = entries[:, 3]
    # Key each entry by (variable rank in order of first appearance, row,
    # column); np.add.at sums a key's duplicates in the order given.
    var = var.tolist()
    first = {v: k for k, v in enumerate(dict.fromkeys(var))}
    rank = np.array([first[v] for v in var], dtype=np.intp)
    variables = np.array(list(first), dtype=np.intp)
    sq = size * size
    keys, at = np.unique((rank * size + row) * size + col, return_inverse=True)
    summed = np.zeros(keys.size)
    np.add.at(summed, at, val)
    if not np.isfinite(summed).all():
        raise ValueError("block data is not finite")
    scale = np.zeros(variables.size)
    np.maximum.at(scale, keys // sq, np.abs(summed))
    # Every position holding an entry on either side, with a = A and b = A'.
    r, c = np.divmod(keys % sq, size)
    where, at = np.unique(np.concatenate((keys, keys + (c - r) * (size - 1))),
                          return_inverse=True)
    a, b = np.zeros(where.size), np.zeros(where.size)
    a[at[:keys.size]] = summed
    b[at[keys.size:]] = summed
    owner = where // sq
    _check_symmetric(a, b, scale[owner])
    sym = 0.5 * (a + b)
    keep = sym != 0.0
    r, c = np.divmod(where[keep] % sq, size)
    return variables[owner[keep]], r, c, sym[keep]


@dataclass
class LmiProgram:
    nvars: int
    cost: AffineForm
    blocks: list
    equalities: list = field(default_factory=list)

    def __post_init__(self):
        for blk in self.blocks:
            var = blk.coeff[0]
            bad = var[(var < 0) | (var >= self.nvars)]
            if bad.size:
                raise ValueError(
                    f"block references variable {bad[0]} >= {self.nvars}")
        for eq in self.equalities:
            for i in eq.coefficients:
                if not 0 <= i < self.nvars:
                    raise ValueError(f"equality references variable {i}")
        for part, forms in (("cost", [self.cost]), ("equality", self.equalities)):
            for form in forms:
                if not all(map(math.isfinite, [form.constant,
                                               *form.coefficients.values()])):
                    raise ValueError(f"{part} data is not finite")


STEP_FRACTION = 0.98          # of the way to the PSD boundary a step goes
UNBOUNDED_THRESHOLD = 1e12    # objective magnitude that means divergence
CENTERING_STEPS = 2           # pure centering steps after convergence
STALL_ITERATIONS = 10         # iterations without progress before stopping
FACTOR_PSD_RTOL = 1e-10       # relative eigenvalue floor of ``factor_psd``


@dataclass
class SolverOptions:
    feas_tol: float = 1e-8
    gap_tol: float = 1e-7       # relative duality gap
    max_iterations: int = 100
    # When progress stalls before the targets are met, the best iterate is
    # still accepted as optimal if it meets these (defaults: the targets).
    accept_feas_tol: float = None
    accept_gap_tol: float = None

    def __post_init__(self):
        if self.accept_feas_tol is None:
            self.accept_feas_tol = self.feas_tol
        if self.accept_gap_tol is None:
            self.accept_gap_tol = self.gap_tol


@dataclass
class SdpSolution:
    z: np.ndarray
    primal_objective: float
    dual_objective: float
    status: str  # optimal | infeasible | unbounded | maxIterations | numericalFailure
    iterations: int
    # Why the iteration stopped: targets_met, stalled (no progress for
    # STALL_ITERATIONS; ``status`` says whether the best iterate was
    # accepted), iteration_cap, step_failure, unbounded, infeasible or
    # inconsistent_equalities.  ``centered`` is set when the centering steps
    # replaced the returned iterate.  Diagnostics only.
    exit_reason: str = ""
    centered: bool = False

    @property
    def relative_gap(self):
        return abs(self.primal_objective - self.dual_objective) / (
            1.0 + abs(self.primal_objective))


# ---------------------------------------------------------------------------
# PSD factorization and the quadratic epigraph block
# ---------------------------------------------------------------------------

def factor_psd(M):
    """Factor a PSD matrix as M = L' L with rows of zero eigenvalue dropped.

    Eigenvalues below -FACTOR_PSD_RTOL * (1 + lambda_max) raise; small
    negative dust is clamped to zero.  L may be rectangular.
    """
    M = _symmetrized(np.asarray(M, dtype=float))
    w, V = np.linalg.eigh(M)
    scale = 1.0 + max(w[-1], 0.0)
    if w[0] < -FACTOR_PSD_RTOL * scale:
        raise IndefiniteMatrixError(
            f"matrix has eigenvalue {w[0]:.3e}, beyond PSD tolerance")
    w = np.clip(w, 0.0, None)
    keep = w > 1e-14 * scale
    if not keep.any():
        return np.zeros((0, M.shape[0]))
    return (np.sqrt(w[keep])[:, None] * V[:, keep].T)


def epigraph_block(M, m, c, var_indices, gamma_index):
    """Affine block F with F(z) PSD iff k' M k + m' k + c <= gamma.

    ``var_indices`` gives the program indices of the k variables (one per
    row of M) and ``gamma_index`` the epigraph variable.  Uses the Schur
    complement of the identity corner: F = [[I, Lk], [k'L', gamma - m'k - c]]
    with M = L'L from the spectral factorization, passed as triplets: per
    k_j, column j of L in the last column and row and -m_j in the corner,
    then gamma's 1.0 in the corner.
    """
    L = factor_psd(M)
    m = np.asarray(m, dtype=float)
    rank = L.shape[0]
    size = rank + 1
    constant = np.zeros((size, size))
    constant[:rank, :rank] = np.eye(rank)
    constant[rank, rank] = -float(c)
    coeff = []
    for j, vi in enumerate(var_indices):
        coeff += [(vi, i, rank, L[i, j]) for i in range(rank)]
        coeff += [(vi, rank, i, L[i, j]) for i in range(rank)]
        coeff.append((vi, rank, rank, -m[j]))
    coeff.append((gamma_index, rank, rank, 1.0))
    return AffineBlock(size, constant, coeff)


# ---------------------------------------------------------------------------
# Program builder over named variables
# ---------------------------------------------------------------------------

class LmiBuilder:
    """Incremental LMI program assembly with string-named variables."""

    def __init__(self):
        self.names = []
        self.index = {}
        self._blocks = []
        self._equalities = []
        self._cost = {}

    def variable(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def set_cost(self, coefficients):
        self._cost = {self.variable(n): float(c)
                      for n, c in coefficients.items()}

    def add_block(self, block):
        self._blocks.append(block)

    def _affine_terms(self, p, var_names, what):
        """(constant, {variable index: coefficient}) of a degree <= 1
        Polynomial; raises naming ``what`` on a higher degree.

        Variables are registered in term order, so their indices follow it.
        """
        constant, coeffs = 0.0, {}
        for alpha, cval in p.terms.items():
            deg = sum(alpha)
            if deg == 0:
                constant += cval
            elif deg == 1:
                vi = self.variable(var_names[alpha.index(1)])
                coeffs[vi] = coeffs.get(vi, 0.0) + cval
            else:
                raise ValueError(f"{what} is not affine")
        return constant, coeffs

    def add_affine_matrix(self, entries, var_names):
        """Block from a square object array of degree <= 1 Polynomials.

        ``var_names`` maps polynomial variable positions to builder names.
        """
        entries = np.asarray(entries, dtype=object)
        n = entries.shape[0]
        constant = np.zeros((n, n))
        coeff = []
        for i in range(n):
            for j in range(n):
                constant[i, j], terms = self._affine_terms(
                    entries[i, j], var_names, "block entry")
                coeff.extend((vi, i, j, cval) for vi, cval in terms.items())
        self._blocks.append(AffineBlock(n, constant, coeff))

    def add_equality_poly(self, p, var_names):
        """Equality (affine Polynomial == 0) over mapped variable names."""
        constant, coeffs = self._affine_terms(p, var_names, "equality")
        self._equalities.append(AffineForm(coeffs, constant))

    def add_equality(self, coefficients, constant=0.0):
        self._equalities.append(AffineForm(
            {self.variable(n): float(c) for n, c in coefficients.items()},
            float(constant)))

    def add_epigraph(self, M, m, c, k_names, gamma_name="gamma"):
        idx = [self.variable(n) for n in k_names]
        gi = self.variable(gamma_name)
        self._blocks.append(epigraph_block(M, m, c, idx, gi))
        return gi

    def build(self):
        return LmiProgram(len(self.names), AffineForm(self._cost),
                          list(self._blocks), list(self._equalities))

    def value(self, solution, name):
        return solution.z[self.index[name]]


# ---------------------------------------------------------------------------
# Interior-point solver
# ---------------------------------------------------------------------------

def _cholesky(A):
    """Lower Cholesky factor of the C-ordered A, in A's memory, or None
    when A is not positive definite.

    LAPACK factors A' (F-ordered, no copy) as U' U from its upper triangle,
    which is the lower triangle of A, and zeroes the rest; U' is the lower
    factor, C-ordered.  A is overwritten either way.
    """
    U, info = dpotrf(A.T, lower=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return None if info else U.T


def _jitter_ladder(flat, diagonal, form, factor, scale):
    """``factor()`` of the matrix ``form()`` writes, with jitter * scale
    added to its diagonal, the entries ``diagonal`` of its storage
    ``flat``, for the least jitter of 1e-14, 1e-12, 1e-10 and 1e-8 that
    factors.  The matrix is formed again for every jitter, since a failed
    factorization has overwritten it."""
    for jitter in (1e-14, 1e-12, 1e-10, 1e-8):
        form()
        flat[diagonal] += jitter * scale
        L = factor()
        if L is not None:
            return L
    raise np.linalg.LinAlgError("Cholesky failed after regularization")


def _chol_with_jitter(M):
    """Lower Cholesky factor of M, C-ordered, factored in one copy of M:
    of M itself or, when that fails, of M with a jitter of
    ``_jitter_ladder`` times 1 + max |M_ij| on its diagonal.  Reads only
    the lower triangle of M."""
    A = np.array(M, order="C")
    L = _cholesky(A)
    if L is not None:
        return L
    return _jitter_ladder(A.reshape(-1), slice(None, None, len(A) + 1),
                          lambda: np.copyto(A, M), lambda: _cholesky(A),
                          1.0 + np.abs(M).max())


def _block_cholesky(M, parts):
    """Lower Cholesky factor of a block whose diagonal blocks span the
    slices ``parts``: of the whole block, or, when that fails, of each
    part alone by ``_chol_with_jitter`` with the part's own scale.
    """
    L = _cholesky(np.array(M, order="C"))
    if L is not None:
        return L
    L = np.zeros_like(M)
    for s in parts:
        L[s, s] = _chol_with_jitter(M[s, s])
    return L


def _finite(*arrays):
    """Raise ValueError on a non-finite entry, as scipy's check_finite does."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _lower_solve(L, B):
    """L^-1 B for a finite C-ordered lower Cholesky factor L.

    LAPACK reads L' in column order as an upper factor solved transposed,
    which is the call scipy's triangular solve makes for such an L.  The
    caller checks L once when it forms it; B is checked here.
    """
    _finite(B)
    X, info = dtrtrs(L.T, B, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return X


def _max_step(chol_factor, direction):
    """Largest a with  M + a * direction  PSD, given M = LL' with L finite."""
    K = _lower_solve(chol_factor, direction)
    K = _symmetrized(_lower_solve(chol_factor, K.T).T)
    lam = np.linalg.eigvalsh(K)[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _packed_index(i, j, q):
    """Positions in a Schur buffer of order q (see ``_schur_factor``) of
    the entries (i, j) of M, broadcast; entries above the diagonal go to
    the discard slot.

    The packed M is LAPACK's rectangular full packed storage of its lower
    triangle (TRANSR = 'N', UPLO = 'L'): an F-ordered grid of q + 1 - q % 2
    rows and h = ceil(q / 2) columns, where column j < h of M lies from row
    j + 1 - q % 2 of grid column j down, and column j >= h lies transposed,
    as row j - h of the grid from column j - q // 2 on (Gustavson,
    Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 2010).  The int32
    positions hold for the few thousand variables the solver is meant for.
    """
    h, rows = (q + 1) // 2, q + 1 - q % 2
    i, j = np.broadcast_arrays(i, j)
    at = np.where(j < h, j * rows + i + rows - q, (i - q // 2) * rows + j - h)
    return np.where(i >= j, at, q * (q + 1) // 2).astype(np.int32)


def _schur_factor(M, diagonal, form):
    """Lower Cholesky factor of the symmetric M whose lower triangle
    ``form(M)`` adds into the Schur buffer M, as a view of M; ``diagonal``
    holds the positions of M's q diagonal entries.

    The buffer holds q (q + 1) / 2 doubles of packed M (``_packed_index``)
    and a last, discard slot that takes the entries the blocks form above
    the diagonal, which M does not store.  ``dpftrf`` factors the packed M
    in place with level-3 BLAS, and ``_schur_solve`` takes the factor as
    it lies.  When M does not factor, it is formed again for every rung of
    the jitter ladder, scaled by max(trace(M) / q, 1e-30); a non-finite
    factor raises ValueError.
    """
    q, packed = diagonal.size, M[:-1]

    def factor():
        L, info = dpftrf(q, packed, uplo="L", overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpftrf")
        return None if info else L

    form(M)
    scale = max(packed[diagonal].sum() / q, 1e-30)
    L = factor()
    if L is None:
        L = _jitter_ladder(packed, diagonal, lambda: form(M), factor, scale)
    _finite(L)
    return L


def _schur_solve(L, rhs):
    """M^-1 rhs for the packed factor L of ``_schur_factor``, which
    ``dpftrs`` reads in place; a non-finite rhs raises ValueError, as
    scipy's check_finite does."""
    _finite(rhs)
    x, info = dpftrs(rhs.size, L, rhs, uplo="L")
    if info:
        raise ValueError(f"illegal value in argument {-info} of dpftrs")
    return x


def _eliminate_equalities(program):
    """Restrict to the equality-feasible affine subspace.

    Returns (z0, N) with z = z0 + N w, or N None when the equalities are
    inconsistent.  When every equality pins a single variable (the common
    case for moment programs, and the case of no equalities) N is the 0/1
    CSR matrix selecting the free variables; otherwise it is a dense
    orthonormal null-space basis.
    """
    n = program.nvars
    eqs = program.equalities
    E = np.zeros((len(eqs), n))
    f = np.zeros(len(eqs))
    for r, eq in enumerate(eqs):
        E[r] = eq.dense(n)
        f[r] = eq.constant

    # Round 1: propagate single-variable pins (z_i = value) cheaply.
    z0 = np.zeros(n)
    pinned = np.zeros(n, dtype=bool)
    active = np.ones(len(eqs), dtype=bool)
    changed = True
    while changed:
        changed = False
        for r in np.nonzero(active)[0]:
            nz = np.nonzero(np.abs(E[r]) > 1e-14)[0]
            if len(nz) == 0:
                if abs(f[r]) > 1e-10:
                    return z0, None
                active[r] = False
            elif len(nz) == 1:
                i = nz[0]
                # Pinning zeroes column i in every active row, so no row pins
                # i twice: a contradicting pin ends as an all-zero row above.
                z0[i] = -f[r] / E[r, i]
                pinned[i] = True
                active[r] = False
                f[active] += E[active, i] * z0[i]
                E[active, i] = 0.0
                changed = True

    free = np.nonzero(~pinned)[0]
    if not active.any():
        return z0, sparse.csr_matrix(
            (np.ones(free.size), (free, np.arange(free.size))),
            shape=(n, free.size))

    # Round 2: general elimination of the residual system over free vars.
    Ef = E[np.ix_(active, free)]
    ff = f[active]
    w0, *_ = np.linalg.lstsq(Ef, -ff, rcond=None)
    if np.abs(Ef @ w0 + ff).max() > 1e-8 * (1.0 + np.abs(ff).max()):
        return z0, None
    _, sv, Vt = np.linalg.svd(Ef)
    tol = max(Ef.shape) * (sv[0] if sv.size else 0.0) * np.finfo(float).eps
    rank = int((sv > tol).sum())
    Nf = Vt[rank:].T
    z0[free] += w0
    N = np.zeros((n, Nf.shape[1]))
    N[free] = Nf
    return z0, N


# A block takes the sparse Schur-complement formula when its reduced
# coefficients, stored dense, would hold at least this many entries (q
# variables times m^2).  Moment relaxations of order two and up are far above
# it and their coefficients are about 0.1% dense; every other program of the
# package is far below it and keeps the dense GEMM formula.
SPARSE_SCHUR_MIN_ENTRIES = 100_000
# Entries of W A_j W the sparse formula forms at a time (0.5 MB).  A run
# this short costs little, as its layout is built once per block, and its
# X_j and their transposed copy stay small.
SCHUR_CHUNK_ENTRIES = 2 ** 16


class _DenseCoeffs:
    """Reduced coefficients of one block: row i of ``flat`` is vec(A_i),
    and ``A`` is its dense (q, m, m) view."""

    def __init__(self, flat, m):
        self.flat = flat
        self.A = flat.reshape(len(flat), m, m)

    def inner(self, X):
        """The vector of <A_i, X>."""
        return self.flat @ X.ravel()

    def combine(self, y):
        """sum_i y_i A_i."""
        return (y @ self.flat).reshape(self.A.shape[1:])

    def add_schur(self, M, W):
        """M_ij += <A_i, W A_j W> for i >= j, into the Schur buffer M of
        ``_schur_factor``; the congruences run as two large GEMMs, and
        ``dtrttf`` packs the lower triangle of the share.

        The share is averaged with its transpose, one pass over a small
        q x q, because the stall of the barrel programs, one dense block
        each, turns on the last bits of M: with the lower triangle
        unaveraged, traced trials-barrel seeds 1-5 took 9151 solver
        iterations in all instead of 8867."""
        q, m = self.A.shape[0], W.shape[0]
        AW = (self.A.reshape(q * m, m) @ W).reshape(q, m, m)
        U = (AW.transpose(0, 2, 1).reshape(q * m, m) @ W).reshape(q, m, m)
        share = _symmetrized(
            self.flat @ np.ascontiguousarray(U.reshape(q, -1).T))
        # Symmetric to the bit, so its F-ordered transpose reaches LAPACK
        # uncopied and holds the same lower triangle.
        M[:-1] += dtrttf(share.T, uplo="L")[0]


class _SparseCoeffs:
    """Reduced coefficients of one block as (var, row, col, value) triplets.

    Row i of ``csr`` is vec(A_i).  The Schur complement follows Fujisawa,
    Kojima and Nakata (Math. Programming 79, 1997): with A_j symmetric,
    W A_j W = X_j + X_j' for X_j = sum_s v_s W[:, a_s] W[b_s, :] over the
    upper-triangle nonzeros (a_s, b_s) of A_j, diagonal values halved, so
    M_ij = 2 <A_i, X_j>.  The X_j come from batched thin matmuls over each
    variable's few nonzeros, padded to the largest count.

    A block's share of M is nonzero only at live x live, where ``live``
    lists the variables whose A_i has an entry in this block (their rows
    of ``csr`` are ``live_csr``); only those X_j are formed and only those
    entries of M are added to.  That is exact: every other entry would
    receive a sum of +-0.0 products, and M, which starts at +0.0 and is
    only added to, never holds -0.0, so adding a signed zero leaves it
    unchanged to the bit.

    Only the lower triangle of the share is formed (and the upper entries
    inside each run's diagonal tile, which go to the discard slot), since
    the packed M of ``_schur_factor`` stores nothing else.  The X_j go in
    runs of live variables that fit SCHUR_CHUNK_ENTRIES, laid out once
    here: the run that starts at position j of ``live`` takes the rows
    ``live[j:]`` of ``live_csr``, a view of its entries, and lands its
    share in the packed M through slices of the packed grid when every
    variable is live and through int32 packed positions otherwise.  Each
    entry it forms is the dot product of one row of ``live_csr`` with one
    X_j, the same sum a product over every row computes, and each entry
    of M receives the adds that the lower triangle of a full M would.
    """

    def __init__(self, csr, m):
        self.csr = csr
        self.m = m
        self.live = np.flatnonzero(np.diff(csr.indptr))
        self.live_csr = csr[self.live]
        coo = self.live_csr.tocoo()     # sorted by variable
        row, col = np.divmod(coo.col, m)
        upper = row <= col
        var, row, col = coo.row[upper], row[upper], col[upper]
        # The factor 2 of M_ij folds into the values: off-diagonal entries
        # carry 2 v, diagonal ones v.
        val = np.where(row == col, 1.0, 2.0) * coo.data[upper]
        counts = np.bincount(var, minlength=self.live.size)
        slot = np.arange(var.size) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        width = max(int(counts.max(initial=0)), 1)
        self.rows = np.zeros((self.live.size, width), dtype=np.intp)
        self.cols = np.zeros((self.live.size, width), dtype=np.intp)
        self.vals = np.zeros((self.live.size, width))
        self.rows[var, slot] = row
        self.cols[var, slot] = col
        self.vals[var, slot] = val
        self.runs = self._runs()

    def _runs(self):
        """(run, suffix, target, slabs) per run of live variables: the
        run's slice of ``live``, the rows ``live_csr[j:]`` as a CSR view,
        the packed positions (``_packed_index``) of the first rows of its
        share, and the slice adds of the rest.  When every variable is
        live, the target covers only the run's diagonal tile, and the rows
        below it land in the packed grid by one slice for the run's
        columns before ceil(q / 2) and one transposed slice for the rest;
        otherwise the target covers every row."""
        live, m, q = self.live, self.m, self.csr.shape[0]
        h, rows = (q + 1) // 2, q + 1 - q % 2
        data, indices, indptr = (self.live_csr.data, self.live_csr.indices,
                                 self.live_csr.indptr)
        step = max(1, SCHUR_CHUNK_ENTRIES // (m * m))
        runs = []
        for j in range(0, live.size, step):
            run = slice(j, j + step)
            k = min(j + step, live.size)
            lo = indptr[j]
            # Assigned, not passed in: the constructor copies a view
            # shorter than half of its base.
            suffix = sparse.csr_matrix((live.size - j, m * m))
            suffix.data, suffix.indices = data[lo:], indices[lo:]
            suffix.indptr = indptr[j:] - lo
            if live.size < q:
                runs.append((run, suffix,
                             _packed_index(live[j:, None], live[run], q), ()))
                continue
            # Rows k..q-1 of columns j..k-1 of M, split at column h.
            split = min(max(j, h), k)
            slabs = []
            if split > j:
                slabs.append(((slice(k + rows - q, rows), slice(j, split)),
                              slice(0, split - j), False))
            if k > split:
                slabs.append(((slice(split - h, k - h),
                               slice(k - q // 2, q - q // 2)),
                              slice(split - j, k - j), True))
            tile = np.arange(j, k)
            runs.append((run, suffix,
                         _packed_index(tile[:, None], tile, q), slabs))
        return runs

    def inner(self, X):
        return self.csr @ X.ravel()

    def combine(self, y):
        return (self.csr.T @ y).reshape(self.m, self.m)

    def add_schur(self, M, W):
        """M_ij += <A_i, W A_j W> for i >= j over the live variables, into
        the Schur buffer M of ``_schur_factor``."""
        q = self.csr.shape[0]
        grid = M[:-1].reshape(q + 1 - q % 2, -1, order="F")   # packed M
        for run, suffix, target, slabs in self.runs:
            left = W[:, self.rows[run]].transpose(1, 0, 2) \
                * self.vals[run, None, :]
            X = left @ W[self.cols[run]]
            share = suffix @ X.reshape(len(X), -1).T
            M[target] += share[:len(target)]
            below = share[len(target):]
            for at, cols, transposed in slabs:
                grid[at] += below[:, cols].T if transposed else below[:, cols]


def _reduce(program):
    """The program restricted to the affine subspace of its equalities.

    Returns (z0, N, Cs, coeffs, live) with z = z0 + N w: block b requires
    Cs[b] - sum_j w_j A_{b,j} PSD over the live j, where ``coeffs[b]``
    holds those A_{b,j} (the standard conic pair's A_i are minus the
    reduced block coefficients).  N and the rest are None when the
    equalities are inconsistent.  Each block's negated coefficient triplets
    go straight into an (nvars, m^2) matrix B, and its reduced coefficient
    matrix is N' B, row j holding vec(A_{b,j}): below
    ``SPARSE_SCHUR_MIN_ENTRIES`` entries of q m^2 B is a dense array, at or
    above it B and N' are CSR matrices.  With a selection N the product
    copies entries exactly.  ``live`` marks the w_j with an entry above
    1e-13 in some block's row j; only then is each block wrapped, once,
    over the live rows (the whole matrix when all are live).  The constant
    shifts by z0_i A_i in the blocks' variable order, one entry at a time.
    The blocks stay one per program block; ``solve`` joins the dense ones
    afterwards (``_join_dense``).
    """
    z0, N = _eliminate_equalities(program)
    if N is None:
        return z0, None, None, None, None
    n, q = N.shape
    Nt, Cs, reduced = None, [], []
    live = np.zeros(q, dtype=bool)
    for blk in program.blocks:
        var, row, col, val = blk.coeff
        C = blk.constant.copy()
        shift = z0[var] != 0.0
        np.add.at(C, (row[shift], col[shift]), z0[var[shift]] * val[shift])
        Cs.append(C)
        m = blk.size
        idx = row * m + col
        if q * m * m < SPARSE_SCHUR_MIN_ENTRIES:
            B = np.zeros((n, m * m))
            B[var, idx] = -val
            kind, A = _DenseCoeffs, N.T @ B
            top = np.abs(A).max(axis=1, initial=0.0)
        else:
            B = sparse.csr_matrix((-val, (var, idx)), shape=(n, m * m))
            Nt = sparse.csr_matrix(N.T) if Nt is None else Nt
            kind, A = _SparseCoeffs, Nt @ B
            A.sort_indices()
            top = abs(A).max(axis=1).toarray().ravel()
        live |= top > 1e-13
        reduced.append((kind, A, m))
    coeffs = [kind(A if live.all() else A[live], m) for kind, A, m in reduced]
    return z0, N, Cs, coeffs, live


def _join_dense(Cs, coeffs):
    """The reduced blocks with every dense-formula block joined into one
    block-diagonal block, when that block's q m^2 stays below
    ``SPARSE_SCHUR_MIN_ENTRIES``; otherwise the blocks as they are.

    Returns (Cs, coeffs, parts), where parts[b] lists, as slices, the
    diagonal blocks of block b that are blocks of the program: one slice
    over the whole of a block that was not joined.  The joined block comes
    first and the sparse blocks follow in their order.
    """
    parts = [[slice(0, C.shape[0])] for C in Cs]
    dense = [b for b, A in enumerate(coeffs) if isinstance(A, _DenseCoeffs)]
    if len(dense) < 2:
        return Cs, coeffs, parts
    q = coeffs[dense[0]].A.shape[0]
    m = sum(Cs[b].shape[0] for b in dense)
    if q * m * m >= SPARSE_SCHUR_MIN_ENTRIES:
        return Cs, coeffs, parts
    C, A, joined = np.zeros((m, m)), _DenseCoeffs(np.zeros((q, m * m)), m), []
    for b in dense:
        start = joined[-1].stop if joined else 0
        s = slice(start, start + Cs[b].shape[0])
        C[s, s] = Cs[b]
        A.A[:, s, s] = coeffs[b].A
        joined.append(s)
    rest = [b for b in range(len(Cs)) if b not in dense]
    return ([C] + [Cs[b] for b in rest],
            [A] + [coeffs[b] for b in rest],
            [joined] + [parts[b] for b in rest])


def solve(program, options=None):
    """Solve an LMI program; see the module docstring for the method.

    The returned status is 'optimal' only when the relative duality gap and
    both residuals meet the configured tolerances.  Deterministic for
    identical inputs and options.

    The loop runs on the blocks of ``_join_dense``.  Each part of a joined
    block (a program block C_b) keeps what bounds its correctness: its
    primal residual is measured against its own 1 + ||C_b||_F, the initial
    S shifts it by max(0, that scale - lambda_min(C_b)), and when the whole
    block does not factor it gets its own Cholesky jitter.
    """
    opts = options or SolverOptions()
    n = program.nvars
    if n < 1:
        raise ValueError("program needs at least one variable")
    if not program.blocks and not program.equalities:
        raise ValueError("program needs at least one block or equality")

    z0, N, Cs, coeffs, live = _reduce(program)
    if N is None:
        return SdpSolution(z0, math.nan, math.nan, "infeasible", 0,
                           exit_reason="inconsistent_equalities")
    c_full = program.cost.dense(n)
    c_red = N.T @ c_full
    offset = program.cost.constant + float(c_full @ z0)

    # Inert directions that cost something, then constant-only feasibility.
    dead = ~live
    if np.abs(c_red[dead]).max(initial=0.0) > 1e-11:
        return SdpSolution(z0, -math.inf, math.nan, "unbounded", 0,
                           exit_reason="unbounded")
    if dead.all():
        ok = all(np.linalg.eigvalsh(C)[0] >= -opts.feas_tol * (1 + np.abs(C).max())
                 for C in Cs)
        status = "optimal" if ok else "infeasible"
        return SdpSolution(z0, offset, offset if ok else math.nan, status, 0,
                           exit_reason="targets_met" if ok else "infeasible")
    if dead.any():
        N, c_red = N[:, live], c_red[live]

    Cs, coeffs, parts = _join_dense(Cs, coeffs)
    q = c_red.size
    m_total = sum(C.shape[0] for C in Cs)

    # Standard conic pair: our z is the dual vector y with b = -c.
    b = -c_red
    b_scale = 1.0 + np.abs(b).max()
    C_scales = [[1.0 + np.linalg.norm(C[s, s], "fro") for s in p]
                for C, p in zip(Cs, parts)]

    y = np.zeros(q)
    # The Schur buffer and the positions of M's diagonal in it.
    schur = np.empty(q * (q + 1) // 2 + 1)
    diagonal = _packed_index(np.arange(q), np.arange(q), q)
    Xs, Ss = [], []
    for C, p, scales in zip(Cs, parts, C_scales):
        S = C.copy()
        for s, sc in zip(p, scales):
            lam_min = np.linalg.eigvalsh(C[s, s])[0]
            shift = max(0.0, sc - lam_min)
            S[s, s] += shift * np.eye(s.stop - s.start)
        Ss.append(S)
        Xs.append(b_scale * np.eye(C.shape[0]))

    def metrics(y, Xs, Ss):
        gap = sum(float(X.ravel() @ S.ravel()) for X, S in zip(Xs, Ss))
        pobj = float(c_red @ y) + offset
        dobj = -sum(float(C.ravel() @ X.ravel())
                    for C, X in zip(Cs, Xs)) + offset
        rp = b - sum(A.inner(X) for A, X in zip(coeffs, Xs))
        Rds = [C - S - A.combine(y) for C, S, A in zip(Cs, Ss, coeffs)]
        relgap = gap / (1.0 + max(abs(pobj), abs(dobj)))
        pres = max(np.linalg.norm(Rd[s, s], "fro") / sc
                   for Rd, p, scales in zip(Rds, parts, C_scales)
                   for s, sc in zip(p, scales))
        dres = np.abs(rp).max() / b_scale
        return gap, pobj, dobj, rp, Rds, relgap, pres, dres

    def take_step(y, Xs, Ss, rp, Rds, mu, mode):
        """One interior-point step; mode is 'mehrotra' or 'center'."""
        Lxs = [_block_cholesky(X, p) for X, p in zip(Xs, parts)]
        Lss = [_block_cholesky(S, p) for S, p in zip(Ss, parts)]
        _finite(*Lxs, *Lss)
        Gs, Ginvs, Ws, sigs = [], [], [], []
        for Lx, Ls in zip(Lxs, Lss):
            _, sig, Vt = np.linalg.svd(Ls.T @ Lx)
            sig = np.maximum(sig, 1e-300)
            G = Lx @ Vt.T / np.sqrt(sig)
            Ginv = (np.sqrt(sig)[:, None] * Vt) @ np.linalg.inv(Lx)
            Gs.append(G)
            Ginvs.append(Ginv)
            Ws.append(G @ G.T)
            sigs.append(sig)

        # Schur complement M_ij = sum_b <A_i, W A_j W>, shared by the
        # predictor and corrector solves of this iteration and factored
        # in the solve's one buffer.
        def form(M):
            M.fill(0.0)
            for A, W in zip(coeffs, Ws):
                A.add_schur(M, W)

        Mfactor = _schur_factor(schur, diagonal, form)

        base_rhs = rp + sum(A.inner(W @ Rd @ W)
                            for A, W, Rd in zip(coeffs, Ws, Rds))

        def kkt_solve(Rcs):
            rhs = base_rhs - sum(A.inner(Rc) for A, Rc in zip(coeffs, Rcs))
            dy = _schur_solve(Mfactor, rhs)
            dSs = [Rd - A.combine(dy) for Rd, A in zip(Rds, coeffs)]
            dXs = [_symmetrized(Rc - W @ dS @ W)
                   for Rc, W, dS in zip(Rcs, Ws, dSs)]
            dSs = [_symmetrized(d) for d in dSs]
            return dy, dXs, dSs

        if mode == "center":
            # Pure centering toward the current mu target; polishes the
            # iterate onto the central path without reducing mu.
            Rcs = [G @ np.diag(mu / sig - sig) @ G.T
                   for G, sig in zip(Gs, sigs)]
            dy, dXs, dSs = kkt_solve(Rcs)
        else:
            # Mehrotra: affine-scaling predictor, then corrector with the
            # second-order term expressed in the Nesterov-Todd scaled space.
            dy_a, dX_a, dS_a = kkt_solve([-X for X in Xs])
            ap = min(1.0, STEP_FRACTION *
                     min(_max_step(L, d) for L, d in zip(Lxs, dX_a)))
            ad = min(1.0, STEP_FRACTION *
                     min(_max_step(L, d) for L, d in zip(Lss, dS_a)))
            mu_aff = sum(float((X + ap * dX).ravel() @ (S + ad * dS).ravel())
                         for X, dX, S, dS in zip(Xs, dX_a, Ss, dS_a)) / m_total
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu)) ** 3)

            Rcs = []
            for G, Ginv, sig, dX, dS in zip(Gs, Ginvs, sigs, dX_a, dS_a):
                dXh = Ginv @ dX @ Ginv.T
                dSh = G.T @ dS @ G
                H = dXh @ dSh
                H = H + H.T
                D = (np.diag(2.0 * sigma * mu - 2.0 * sig ** 2) - H) \
                    / (sig[:, None] + sig[None, :])
                Rcs.append(G @ D @ G.T)
            dy, dXs, dSs = kkt_solve(Rcs)

        ap = min(1.0, STEP_FRACTION *
                 min(_max_step(L, d) for L, d in zip(Lxs, dXs)))
        ad = min(1.0, STEP_FRACTION *
                 min(_max_step(L, d) for L, d in zip(Lss, dSs)))
        if max(ap, ad) < 1e-10:
            raise np.linalg.LinAlgError("step length collapsed")
        y = y + ad * dy
        Xs = [X + ap * dX for X, dX in zip(Xs, dXs)]
        Ss = [S + ad * dS for S, dS in zip(Ss, dSs)]
        return y, Xs, Ss

    status = "maxIterations"
    reason = "iteration_cap"
    best = None
    iterations = 0
    diverging = 0
    diverging_dual = 0
    last_improvement = 0
    mu_mark = math.inf
    res_mark = math.inf

    for it in range(opts.max_iterations):
        iterations = it + 1
        gap, pobj, dobj, rp, Rds, relgap, pres, dres = metrics(y, Xs, Ss)
        mu = gap / m_total

        acceptable = pres <= opts.accept_feas_tol and dres <= opts.accept_feas_tol
        if best is None or (acceptable and abs(relgap) < best[5]):
            best = (y.copy(), [X.copy() for X in Xs], [S.copy() for S in Ss],
                    pobj, dobj, abs(relgap) if acceptable else np.inf)
            last_improvement = it
        if mu < 0.5 * mu_mark or max(pres, dres) < 0.5 * res_mark:
            mu_mark = min(mu_mark, mu)
            res_mark = min(res_mark, max(pres, dres))
            last_improvement = it
        feasible = pres <= opts.feas_tol and dres <= opts.feas_tol
        if feasible and relgap <= opts.gap_tol:
            status, reason = "optimal", "targets_met"
            break
        if it - last_improvement >= STALL_ITERATIONS:
            # No measurable progress; classify from the best iterate below.
            reason = "stalled"
            break
        if pobj < -UNBOUNDED_THRESHOLD and pres <= 1e-3:
            status = reason = "unbounded"
            break
        if pobj < -1e-3 * UNBOUNDED_THRESHOLD and dres > 1e-4:
            # Objective diverging while the conic side of the pair stays
            # infeasible: a recession direction, not slow convergence.
            diverging += 1
            if diverging >= 10:
                status = reason = "unbounded"
                break
        if dobj > UNBOUNDED_THRESHOLD and dres <= 1e-3:
            status = reason = "infeasible"
            break
        if dobj > 1e-3 * UNBOUNDED_THRESHOLD and pres > 1e-4:
            diverging_dual += 1
            if diverging_dual >= 10:
                status = reason = "infeasible"
                break

        try:
            y, Xs, Ss = take_step(y, Xs, Ss, rp, Rds, mu, "mehrotra")
        except np.linalg.LinAlgError:
            status, reason = "numericalFailure", "step_failure"
            break

    accepted = best is not None and best[5] <= opts.accept_gap_tol
    if status in ("maxIterations", "numericalFailure") and accepted:
        status = "optimal"

    centered = False
    if status == "optimal" and accepted:
        # Pure centering steps from the best accepted iterate sharpen the
        # argmin coordinates: on the central path the minimizer block of y
        # is exact for every mu, so restoring centrality removes most of
        # the trailing wobble regardless of which exit path fired.
        y_c = best[0].copy()
        Xs_c = [X.copy() for X in best[1]]
        Ss_c = [S.copy() for S in best[2]]
        try:
            for _ in range(CENTERING_STEPS):
                gap, _p, _d, rp, Rds, _rg, _pr, _dr = metrics(y_c, Xs_c, Ss_c)
                mu = gap / m_total
                y_c, Xs_c, Ss_c = take_step(y_c, Xs_c, Ss_c, rp, Rds, mu,
                                            "center")
            _g, pobj_c, dobj_c, _rp, _Rd, relgap_c, pres_c, dres_c = \
                metrics(y_c, Xs_c, Ss_c)
            if pres_c <= opts.accept_feas_tol \
                    and dres_c <= opts.accept_feas_tol \
                    and relgap_c <= max(opts.accept_gap_tol, 2.0 * best[5]):
                best = (y_c, Xs_c, Ss_c, pobj_c, dobj_c, relgap_c)
                centered = True
        except np.linalg.LinAlgError:
            pass

    if status == "optimal":
        y_best, pobj, dobj = best[0], best[3], best[4]
    else:
        pobj = float(c_red @ y) + offset
        y_best, dobj = y, math.nan
        if status == "unbounded":
            pobj = -math.inf

    z = z0 + N @ y_best
    return SdpSolution(z, pobj, dobj, status, iterations, reason, centered)


# ---------------------------------------------------------------------------
# Debug dump
# ---------------------------------------------------------------------------

def _dense_coefficients(blk):
    """{str(var): row-major dense A_var as a list} of one block."""
    mats = {}
    for i, r, c, v in zip(*blk.coeff):
        mats.setdefault(str(i), np.zeros((blk.size, blk.size)))[r, c] = v
    return {i: m.ravel().tolist() for i, m in mats.items()}


def program_to_json(program):
    """JSON document with cost, dense row-major blocks, and equalities."""
    doc = {
        "nvars": program.nvars,
        "cost": {
            "coefficients": {str(i): c
                             for i, c in sorted(program.cost.coefficients.items())},
            "constant": program.cost.constant,
        },
        "blocks": [
            {
                "size": blk.size,
                "constant": blk.constant.ravel().tolist(),
                "coefficients": _dense_coefficients(blk),
            }
            for blk in program.blocks
        ],
        "equalities": [
            {
                "coefficients": {str(i): c
                                 for i, c in sorted(eq.coefficients.items())},
                "constant": eq.constant,
            }
            for eq in program.equalities
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
