"""Primal-dual interior-point solver for linear matrix inequality programs,
plus the Schur-complement construction that turns a convex quadratic cost
into a linear (epigraph) objective.

A program is

    minimize    c' z + c0
    subject to  A0_b + sum_i z_i A_{b,i}  PSD   for every block b,
                e_j' z + f_j = 0               for every equality j.

Each block stores its constant A0_b dense and its coefficients A_{b,i}
only as (variable, row, column, value) triplets of their nonzero entries;
no per-variable dense matrix exists between the program builders and the
solver.  Equalities are removed up front by restricting z to an affine
subspace: when every equality pins one variable the basis is a sparse 0/1
selection, otherwise a particular solution plus an orthonormal null-space
basis from one SVD; an inconsistent system is reported as infeasible
without running the interior-point loop.  The reduced problem is the
dual side of a standard conic pair, and is solved by an infeasible-start
path-following method with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  The Schur complement M_ij = sum_b <A_i, W_b A_j
W_b> is formed explicitly and factored densely; the intended problem sizes
are blocks up to roughly 100 and up to a few thousand variables.  Each block's share of M comes from one
of two formulas, chosen by one size rule (``SPARSE_SCHUR_MIN_ENTRIES``):
small blocks keep their coefficients as a dense tensor and use two GEMMs,
while the blocks of large moment relaxations, whose coefficients are about
0.1% dense, keep (variable, row, column, value) triplets and use the
sparse formula of Fujisawa, Kojima and Nakata (1997).

The blocks of the package's programs are tiny (often 1x1 to 4x4), so the
per-block kernels call LAPACK directly (``dtrtrs`` for step lengths,
``dpotrs`` for the Schur solve) with the arguments scipy's wrappers would
pass, and keep their checks: non-finite input raises ValueError and a
singular triangular factor raises LinAlgError.

The solver is reentrant and keeps no global state; a single call is
single-threaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpotrs, dtrtrs


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

    def eval(self, z):
        return self.constant + sum(c * z[i] for i, c in self.coefficients.items())


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

    def value_at(self, z):
        var, row, col, val = self.coeff
        out = self.constant.copy()
        np.add.at(out, (row, col), np.asarray(z)[var] * val)
        return out


def _sym_check(m, size):
    if m.shape != (size, size):
        raise ValueError(f"matrix shape {m.shape} does not match block size {size}")
    scale = np.abs(m).max()    # NaN or inf when any entry is
    if not math.isfinite(scale):
        raise ValueError("block data is not finite")
    _check_symmetric(m, m.T, scale)
    return 0.5 * (m + m.T)


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
    # Conic-side matrices of the standard-form pair, one per block, on
    # optimal exits; complementary to the block slacks, they carry the
    # active-face geometry (rank-one for an epigraph block at its optimum).
    block_duals: list = None
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
    M = np.asarray(M, dtype=float)
    M = 0.5 * (M + M.T)
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
    with M = L'L from the spectral factorization.
    """
    L = factor_psd(M)
    m = np.asarray(m, dtype=float)
    rank = L.shape[0]
    size = rank + 1
    constant = np.zeros((size, size))
    constant[:rank, :rank] = np.eye(rank)
    constant[rank, rank] = -float(c)
    coeff = {}
    for j, vi in enumerate(var_indices):
        mat = np.zeros((size, size))
        mat[:rank, rank] = L[:, j]
        mat[rank, :rank] = L[:, j]
        mat[rank, rank] = -m[j]
        coeff[vi] = coeff.get(vi, np.zeros((size, size))) + mat
    g = np.zeros((size, size))
    g[rank, rank] = 1.0
    coeff[gamma_index] = coeff.get(gamma_index, np.zeros((size, size))) + g
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
        self._cost = ({}, 0.0)

    def variable(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]

    def set_cost(self, coefficients, constant=0.0):
        self._cost = ({self.variable(n): float(c)
                       for n, c in coefficients.items()}, float(constant))

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
        coeffs, const = self._cost
        return LmiProgram(len(self.names), AffineForm(coeffs, const),
                          list(self._blocks), list(self._equalities))

    def value(self, solution, name):
        return solution.z[self.index[name]]


# ---------------------------------------------------------------------------
# Interior-point solver
# ---------------------------------------------------------------------------

def _chol_with_jitter(M, scale=None):
    """Lower Cholesky factor of M, or of one copy of M with jitter * scale
    added to its diagonal when M itself does not factor.

    ``scale`` defaults to 1 + max |M_ij| and is computed only then.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    if scale is None:
        scale = 1.0 + np.abs(M).max()
    diagonal = M.diagonal().copy()
    M = M.copy()
    for jitter in (1e-14, 1e-12, 1e-10, 1e-8):
        np.fill_diagonal(M, diagonal + jitter * scale)
        try:
            return np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("Cholesky failed after regularization")


def _finite(*arrays):
    """Raise ValueError on a non-finite entry, as scipy's check_finite does."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _lower_solve(L, B):
    """L^-1 B for a numpy (C-ordered) lower Cholesky factor L.

    LAPACK reads L' in column order as an upper factor solved transposed,
    which is the call scipy's triangular solve makes for such an L.
    """
    _finite(L, B)
    X, info = dtrtrs(L.T, B, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return X


def _max_step(chol_factor, direction):
    """Largest a with  M + a * direction  PSD, given M = LL'."""
    K = _lower_solve(chol_factor, direction)
    K = _lower_solve(chol_factor, K.T).T
    K = 0.5 * (K + K.T)
    lam = np.linalg.eigvalsh(K)[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


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
                val = -f[r] / E[r, i]
                if pinned[i] and abs(z0[i] - val) > 1e-8 * (1 + abs(val)):
                    return z0, None
                z0[i] = val
                pinned[i] = True
                active[r] = False
                f[active] += E[active, i] * val
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
# Entries of W A_j W the sparse formula forms at a time (4 MB).
SCHUR_CHUNK_ENTRIES = 2 ** 19


class _DenseCoeffs:
    """Reduced coefficients A_i of one block as a dense (q, m, m) tensor."""

    def __init__(self, A):
        self.A = A
        self.flat = A.reshape(A.shape[0], -1)

    def magnitude(self):
        """Largest |entry| of each A_i."""
        return np.abs(self.A).max(axis=(1, 2), initial=0.0)

    def restrict(self, keep):
        return _DenseCoeffs(self.A[keep])

    def inner(self, X):
        """The vector of <A_i, X>."""
        return self.flat @ X.ravel()

    def combine(self, y):
        """sum_i y_i A_i."""
        return (y @ self.flat).reshape(self.A.shape[1:])

    def add_schur(self, M, W):
        """M_ij += <A_i, W A_j W>; the congruences run as two large GEMMs."""
        q, m = self.A.shape[0], W.shape[0]
        AW = (self.A.reshape(q * m, m) @ W).reshape(q, m, m)
        U = (AW.transpose(0, 2, 1).reshape(q * m, m) @ W).reshape(q, m, m)
        M += self.flat @ np.ascontiguousarray(U.reshape(q, -1).T)


class _SparseCoeffs:
    """Reduced coefficients of one block as (var, row, col, value) triplets.

    Row i of ``csr`` is vec(A_i).  The Schur complement follows Fujisawa,
    Kojima and Nakata (Math. Programming 79, 1997): with A_j symmetric,
    W A_j W = X_j + X_j' for X_j = sum_s v_s W[:, a_s] W[b_s, :] over the
    upper-triangle nonzeros (a_s, b_s) of A_j, diagonal values halved, so
    M_ij = 2 <A_i, X_j>.  The X_j come from batched thin matmuls over each
    variable's few nonzeros, padded to the largest count.
    """

    def __init__(self, csr, m):
        self.csr = csr
        self.m = m
        q = csr.shape[0]
        coo = csr.tocoo()     # sorted by variable
        row, col = np.divmod(coo.col, m)
        upper = row <= col
        var, row, col = coo.row[upper], row[upper], col[upper]
        # The factor 2 of M_ij folds into the values: off-diagonal entries
        # carry 2 v, diagonal ones v.
        val = np.where(row == col, 1.0, 2.0) * coo.data[upper]
        counts = np.bincount(var, minlength=q)
        slot = np.arange(var.size) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        width = max(int(counts.max(initial=0)), 1)
        self.rows = np.zeros((q, width), dtype=np.intp)
        self.cols = np.zeros((q, width), dtype=np.intp)
        self.vals = np.zeros((q, width))
        self.rows[var, slot] = row
        self.cols[var, slot] = col
        self.vals[var, slot] = val

    def magnitude(self):
        return abs(self.csr).max(axis=1).toarray().ravel()

    def restrict(self, keep):
        return _SparseCoeffs(self.csr[keep], self.m)

    def inner(self, X):
        return self.csr @ X.ravel()

    def combine(self, y):
        return (self.csr.T @ y).reshape(self.m, self.m)

    def add_schur(self, M, W):
        # The X_j go in runs of variables that fit SCHUR_CHUNK_ENTRIES, so
        # no q x m x m array is ever held.
        q, m = self.csr.shape[0], self.m
        step = max(1, SCHUR_CHUNK_ENTRIES // (m * m))
        for j in range(0, q, step):
            run = slice(j, j + step)
            left = W[:, self.rows[run]].transpose(1, 0, 2) \
                * self.vals[run, None, :]
            X = left @ W[self.cols[run]]
            M[:, run] += self.csr @ X.reshape(len(X), -1).T


def _reduce(program):
    """The program restricted to the affine subspace of its equalities.

    Returns (z0, N, Cs, coeffs) with z = z0 + N w: block b requires
    Cs[b] - sum_j w_j A_{b,j} PSD, where ``coeffs[b]`` holds the A_{b,j}
    (the standard conic pair's A_i are minus the reduced block
    coefficients).  N and the rest are None when the equalities are
    inconsistent.  Each block's negated coefficient triplets go straight
    into an (nvars, m^2) matrix B, and the reduced coefficients are N' B:
    below ``SPARSE_SCHUR_MIN_ENTRIES`` entries of q m^2 B is a dense array,
    at or above it B and N' are CSR matrices.  With a selection N the
    product copies entries exactly.  The constant shifts by z0_i A_i in the
    blocks' variable order, one entry at a time.
    """
    z0, N = _eliminate_equalities(program)
    if N is None:
        return z0, None, None, None
    n, q = N.shape
    Nt = None
    Cs, coeffs = [], []
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
            coeffs.append(_DenseCoeffs((N.T @ B).reshape(q, m, m)))
            continue
        B = sparse.csr_matrix((-val, (var, idx)), shape=(n, m * m))
        if Nt is None:
            Nt = sparse.csr_matrix(N.T)
        A = Nt @ B
        A.sort_indices()
        coeffs.append(_SparseCoeffs(A, m))
    return z0, N, Cs, coeffs


def solve(program, options=None):
    """Solve an LMI program; see the module docstring for the method.

    The returned status is 'optimal' only when the relative duality gap and
    both residuals meet the configured tolerances.  Deterministic for
    identical inputs and options.
    """
    opts = options or SolverOptions()
    n = program.nvars
    if n < 1:
        raise ValueError("program needs at least one variable")
    if not program.blocks and not program.equalities:
        raise ValueError("program needs at least one block or equality")

    c_full = program.cost.dense(n)
    offset = program.cost.constant

    z0, N, Cs, coeffs = _reduce(program)
    if N is None:
        return SdpSolution(z0, math.nan, math.nan, "infeasible", 0,
                           exit_reason="inconsistent_equalities")
    c_red = N.T @ c_full
    offset = offset + float(c_full @ z0)

    # Constant-only feasibility and inert variable directions.
    live = np.zeros(N.shape[1], dtype=bool)
    for A in coeffs:
        live |= A.magnitude() > 1e-13
    dead = ~live
    if dead.any() and np.abs(c_red[dead]).max(initial=0.0) > 1e-11:
        return SdpSolution(z0, -math.inf, math.nan, "unbounded", 0,
                           exit_reason="unbounded")
    if (~live).all():
        ok = all(np.linalg.eigvalsh(C)[0] >= -opts.feas_tol * (1 + np.abs(C).max())
                 for C in Cs)
        status = "optimal" if ok else "infeasible"
        return SdpSolution(z0, offset, offset if ok else math.nan, status, 0,
                           exit_reason="targets_met" if ok else "infeasible")
    if dead.any():
        N = N[:, live]
        coeffs = [A.restrict(live) for A in coeffs]
        c_red = c_red[live]

    q = c_red.size
    m_sizes = [C.shape[0] for C in Cs]
    m_total = sum(m_sizes)

    # Standard conic pair: our z is the dual vector y with b = -c.
    b = -c_red
    b_scale = 1.0 + np.abs(b).max()
    C_scales = [1.0 + np.linalg.norm(C, "fro") for C in Cs]

    y = np.zeros(q)
    Xs, Ss = [], []
    for C, sc in zip(Cs, C_scales):
        lam_min = np.linalg.eigvalsh(C)[0]
        shift = max(0.0, sc - lam_min)
        Ss.append(C + shift * np.eye(C.shape[0]))
        Xs.append(b_scale * np.eye(C.shape[0]))

    def metrics(y, Xs, Ss):
        gap = sum(float(X.ravel() @ S.ravel()) for X, S in zip(Xs, Ss))
        pobj = float(c_red @ y) + offset
        dobj = -sum(float(C.ravel() @ X.ravel())
                    for C, X in zip(Cs, Xs)) + offset
        rp = b - sum(A.inner(X) for A, X in zip(coeffs, Xs))
        Rds = [C - S - A.combine(y) for C, S, A in zip(Cs, Ss, coeffs)]
        relgap = gap / (1.0 + max(abs(pobj), abs(dobj)))
        pres = max(np.linalg.norm(Rd, "fro") / sc
                   for Rd, sc in zip(Rds, C_scales))
        dres = np.abs(rp).max() / b_scale
        return gap, pobj, dobj, rp, Rds, relgap, pres, dres

    def take_step(y, Xs, Ss, rp, Rds, mu, mode):
        """One interior-point step; mode is 'mehrotra' or 'center'."""
        Lxs = [_chol_with_jitter(X) for X in Xs]
        Lss = [_chol_with_jitter(S) for S in Ss]
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
        # predictor and corrector solves of this iteration.
        M = np.zeros((q, q))
        for A, W in zip(coeffs, Ws):
            A.add_schur(M, W)
        M += M.T
        M *= 0.5
        Mchol = _chol_with_jitter(M, max(np.trace(M) / q, 1e-30))
        del M

        base_rhs = rp + sum(A.inner(W @ Rd @ W)
                            for A, W, Rd in zip(coeffs, Ws, Rds))

        def kkt_solve(Rcs):
            rhs = base_rhs - sum(A.inner(Rc) for A, Rc in zip(coeffs, Rcs))
            _finite(Mchol, rhs)
            dy, info = dpotrs(Mchol, rhs, lower=1)
            if info:
                raise ValueError(f"illegal value in argument {-info} of dpotrs")
            dSs = [Rd - A.combine(dy) for Rd, A in zip(Rds, coeffs)]
            dXs = [0.5 * ((Rc - W @ dS @ W) + (Rc - W @ dS @ W).T)
                   for Rc, W, dS in zip(Rcs, Ws, dSs)]
            dSs = [0.5 * (d + d.T) for d in dSs]
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
        duals = best[1]
    else:
        pobj = float(c_red @ y) + offset
        y_best, dobj = y, math.nan
        duals = None
        if status == "unbounded":
            pobj = -math.inf

    z = z0 + N @ y_best
    return SdpSolution(z, pobj, dobj, status, iterations, duals, reason,
                       centered)


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
