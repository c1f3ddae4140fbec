"""Shared test helpers: synthetic correspondence generators and oracles."""

import json
import math

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpotrs

from dataclasses import dataclass

from shapecal import pipeline, sdp
from shapecal.calib import Correspondence
from shapecal.distortion import DistortionModel
from shapecal.poly import Polynomial, PolyMatrix, basis


def synth_correspondences(model, radii, n=200, seed=0, noise=0.0):
    """Exact (or noise-corrupted) correspondences from a known model."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(radii[0], radii[1], size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    x = r * np.cos(theta)
    y = r * np.sin(theta)
    scale = model.L(r)
    data = np.stack([x, y, scale * x, scale * y], axis=1)
    if noise > 0:
        data[:, 2:] += rng.normal(scale=noise, size=(n, 2))
    return data


def build_rows(corr):
    """Per-point data rows: A_i (2x6) and b_i (2,).

    The per-point oracle for the vectorized ``calib.assemble_cost``.  The
    radius comes from the ideal point.  Columns follow the rational
    model layout: numerator coefficients negated on the ideal point,
    denominator coefficients on the observed point.
    """
    if isinstance(corr, Correspondence):
        x, y, xh, yh = corr.x, corr.y, corr.xhat, corr.yhat
    else:
        x, y, xh, yh = (float(v) for v in corr)
    r = math.hypot(x, y)
    powers = np.array([r, r ** 2, r ** 3])
    A = np.zeros((2, 6))
    A[0, :3] = -x * powers
    A[0, 3:] = xh * powers
    A[1, :3] = -y * powers
    A[1, 3:] = yh * powers
    b = np.array([x - xh, y - yh])
    return A, b


def poly_min_on_grid(coeffs_low_first, lo, hi, samples=1000):
    """Grid-scan minimum of a univariate polynomial, endpoints included."""
    rs = np.linspace(lo, hi, samples)
    return float(np.polyval(np.asarray(coeffs_low_first)[::-1], rs).min())


def pincushion_feasible(k4, k5, k6, rbar, samples=512, tol=1e-12):
    """Direct check of the division-model pincushion conditions."""
    rs = np.linspace(0.0, rbar, samples)
    g = 1 + k4 * rs + k5 * rs ** 2 + k6 * rs ** 3
    if g.min() <= tol:
        return False
    g1 = k4 + 2 * k5 * rs + 3 * k6 * rs ** 2
    h = 2 * g1 ** 2 - g * (2 * k5 + 6 * k6 * rs)
    return (-g1).min() >= -tol and h.min() >= -tol


def common_root_mustache(rho=2.0, a=-0.16, b=0.02, c=-0.25, d=0.03):
    """Rational model whose f and g share an exact root at rho.

    f = (1 - r/rho)(1 + a r + b r^2), g = (1 - r/rho)(1 + c r + d r^2);
    both are genuine cubics, so the six coefficients are uniquely
    determined by noiseless samples of L = f/g away from the root, and any
    least-squares fit of such data must reproduce the common root.
    """
    s = -1.0 / rho
    k1, k2, k3 = a + s, b + s * a, s * b
    k4, k5, k6 = c + s, d + s * c, s * d
    return DistortionModel("rational", (k1, k2, k3, k4, k5, k6))


def from_univariate(coeffs):
    """Dense univariate coefficient vector (low degree first) to Polynomial."""
    return Polynomial(1, {(i,): c for i, c in enumerate(coeffs)})


def basis_vector(b, x):
    """Numeric vector of the basis monomials (1, x1, ..., x_d^order) at x."""
    x = np.asarray(x, dtype=float)
    return np.array([np.prod([xi ** ai for xi, ai in zip(x, alpha) if ai])
                     for alpha in b.monomials])


@dataclass
class LinearForm:
    """Linear expression over moment variables: sum of c_alpha * y_alpha + const."""

    coefficients: dict
    constant: float = 0.0

    def __add__(self, other):
        if np.isscalar(other):
            return LinearForm(dict(self.coefficients), self.constant + other)
        coeffs = dict(self.coefficients)
        for a, c in other.coefficients.items():
            coeffs[a] = coeffs.get(a, 0.0) + c
        return LinearForm(coeffs, self.constant + other.constant)

    def __mul__(self, scalar):
        return LinearForm({a: c * scalar for a, c in self.coefficients.items()},
                          self.constant * scalar)

    __rmul__ = __mul__

    def eval(self, values):
        """Evaluate given a map from exponent tuple to moment value."""
        return self.constant + sum(c * values[a]
                                   for a, c in self.coefficients.items())


def riesz(p):
    """Linearize a polynomial: each monomial x^alpha becomes the variable y_alpha.

    The constant monomial maps to y_0 (pinned to 1 by the relaxation), so the
    returned form has zero constant part.
    """
    return LinearForm({alpha: c for alpha, c in p.terms.items()}, 0.0)


def moment_matrix(delta, d):
    """Textbook symbolic moment matrix: entry (i, j) is alpha_i + alpha_j.

    Equal exponent sums share one moment variable, which gives the matrix its
    Hankel-type repetition structure; entry (0, 0) is the constant exponent.
    """
    rows = basis(d, delta).monomials
    n = len(rows)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = tuple(a + b for a, b in zip(rows[i], rows[j]))
    return out


def entry_terms(G, x, y):
    """(exponent, coefficient) pairs of entry (x, y) of a PolyMatrix."""
    return [(beta, C[x, y]) for beta, C in G.terms.items() if C[x, y] != 0.0]


def localizing_matrix(G, delta):
    """Textbook localizing matrix: the Riesz image of (psi psi') (x) G.

    Block (i, j) holds l_y(x^(alpha_i + alpha_j) * G), with psi the basis of
    order delta; entries are LinearForms over moment exponents.
    """
    rows = basis(G.dim, delta).monomials
    nb = len(rows)
    g = G.size
    out = np.empty((nb * g, nb * g), dtype=object)
    for i in range(nb):
        for j in range(nb):
            shift = tuple(a + b for a, b in zip(rows[i], rows[j]))
            for a in range(g):
                for b in range(g):
                    coeffs = {}
                    for beta, cval in entry_terms(G, a, b):
                        key = tuple(s + e for s, e in zip(shift, beta))
                        coeffs[key] = coeffs.get(key, 0.0) + cval
                    out[i * g + a, j * g + b] = LinearForm(coeffs)
    return out


# ---------------------------------------------------------------------------
# Dense program oracle: the relaxation assembler, the dump and the reduction
# with one dense (m, m) matrix per variable and block
# ---------------------------------------------------------------------------

def dense_relaxation_blocks(pmi, mm_rows, loc_rows, pos):
    """The blocks of ``structured_relaxation(pmi, mm_rows, loc_rows)``,
    assembled densely, as (constant, {variable: matrix}) pairs.

    Each variable's matrix starts at 0.0 and takes += per entry in loop
    order; it is then symmetrized as 0.5 (A + A').  ``pos`` maps each
    exponent to its variable position, as the program's own map does.
    """
    zero = (0,) * pmi.dim
    one = PolyMatrix.from_scalar(Polynomial.constant(pmi.dim, 1.0))
    localized = [(one, [tuple(r) for r in mm_rows])] + [
        (G, [tuple(r) for r in loc_rows.get(ci, [zero])])
        for ci, G in enumerate(pmi.constraints)]
    blocks = []
    for G, rows in localized:
        g = G.size
        msize = len(rows) * g
        coeff = {}
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                shift = tuple(u + v for u, v in zip(a, b))
                for x in range(g):
                    for y in range(g):
                        for beta, c in entry_terms(G, x, y):
                            vi = pos[tuple(u + v for u, v in zip(shift, beta))]
                            coeff.setdefault(vi, np.zeros((msize, msize)))[
                                i * g + x, j * g + y] += c
        blocks.append((np.zeros((msize, msize)),
                       {vi: 0.5 * (m + m.T) for vi, m in coeff.items()}))
    return blocks


def dense_blocks(program):
    """(constant, {variable: matrix}) of each block, rebuilt from its
    stored triplets in their variable order."""
    out = []
    for blk in program.blocks:
        var, row, col, val = blk.coeff
        coeff = {}
        for v, r, c, a in zip(var.tolist(), row, col, val):
            coeff.setdefault(v, np.zeros((blk.size, blk.size)))[r, c] = a
        out.append((blk.constant, coeff))
    return out


def dense_program_json(program, blocks):
    """``sdp.program_to_json`` of ``program`` with the block coefficients
    written from the dense ``blocks``."""
    def form(f):
        return {"coefficients": {str(i): c for i, c in
                                 sorted(f.coefficients.items())},
                "constant": f.constant}
    doc = {
        "nvars": program.nvars,
        "cost": form(program.cost),
        "blocks": [{"size": C.shape[0], "constant": C.ravel().tolist(),
                    "coefficients": {str(i): coeff[i].ravel().tolist()
                                     for i in sorted(coeff)}}
                   for C, coeff in blocks],
        "equalities": [form(eq) for eq in program.equalities],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def dense_reduce(blocks, z0, N):
    """Reduced constants and coefficients of dense ``blocks`` over a dense
    N, as (Cs, As): each constant shifted by z0_i A_i in dict order, each
    B read by a flatnonzero scan, and A a dense (q, m, m) array N' B below
    ``sdp.SPARSE_SCHUR_MIN_ENTRIES`` entries and a sorted CSR N' B at or
    above it."""
    n, q = N.shape
    Cs, As = [], []
    for C0, coeff in blocks:
        C = C0.copy()
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
        var, idx, val = map(np.concatenate, (var, idx, val))
        if q * m * m < sdp.SPARSE_SCHUR_MIN_ENTRIES:
            B = np.zeros((n, m * m))
            B[var, idx] = val
            As.append((N.T @ B).reshape(q, m, m))
            continue
        B = scipy.sparse.csr_matrix((val, (var, idx)), shape=(n, m * m))
        A = scipy.sparse.csr_matrix(N.T) @ B
        A.sort_indices()
        As.append(A)
    return Cs, As


def full_range_add_schur(csr, m, M, W):
    """M_ij += <A_i, W A_j W> for the block whose vec(A_i) are the rows of
    ``csr``, by the sparse formula over every variable of the block.

    The oracle for ``sdp._SparseCoeffs.add_schur``: X_j is formed for
    every j, each variable's upper-triangle nonzeros padded to the largest
    count, and every column of M in a run of j is added to.
    """
    q = csr.shape[0]
    coo = csr.tocoo()
    row, col = np.divmod(coo.col, m)
    upper = row <= col
    var, row, col = coo.row[upper], row[upper], col[upper]
    val = np.where(row == col, 1.0, 2.0) * coo.data[upper]
    counts = np.bincount(var, minlength=q)
    slot = np.arange(var.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = max(int(counts.max(initial=0)), 1)
    rows = np.zeros((q, width), dtype=np.intp)
    cols = np.zeros((q, width), dtype=np.intp)
    vals = np.zeros((q, width))
    rows[var, slot] = row
    cols[var, slot] = col
    vals[var, slot] = val
    step = max(1, sdp.SCHUR_CHUNK_ENTRIES // (m * m))
    for j in range(0, q, step):
        run = slice(j, j + step)
        left = W[:, rows[run]].transpose(1, 0, 2) * vals[run, None, :]
        X = left @ W[cols[run]]
        M[:, run] += csr @ X.reshape(len(X), -1).T


def transposing_schur_factor(M):
    """The oracle for ``sdp._schur_factor``: ``M += M.T; M *= 0.5`` over
    the whole matrix, then numpy's Cholesky (with its jitter) of the
    C-ordered M, which numpy copies into column order.  Returns the
    C-ordered lower factor."""
    M += M.T
    M *= 0.5
    return sdp._chol_with_jitter(M, max(np.trace(M) / M.shape[0], 1e-30))


def transposing_schur_solve(L, rhs):
    """The oracle for ``sdp._schur_solve`` on the lower factor of
    ``transposing_schur_factor``, which f2py copies into column order."""
    sdp._finite(L, rhs)
    x, info = dpotrs(L, rhs, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def pose_block_jacobian(scene, cameras, model, free, weight, x):
    """Forward differences of ``pipeline._pose_problem``'s residual at x.

    The oracle for the problem's closed-form Jacobian.  Column j steps
    parameter j as ``pipeline._forward_step`` does.  A camera's 7 columns
    come from one ``_pixel_errors`` stack of 7 copies of the camera, copy k
    with parameter k stepped; a coefficient column re-evaluates every
    camera at x with the stepped coefficient.  A column whose step fails as
    the residual would (non-finite, focal <= 0, depth <= 0, |g| below
    POLE_EPS, a model that refuses the coefficient) gets the sentinel
    difference.  Wherever the residual at x is not the sentinel this is
    ``pipeline._num_jacobian`` of the residual, bit for bit.
    """
    free = list(free)
    ncam = len(cameras)
    resid = pipeline._pose_problem(scene, cameras, model, free, weight)[1]
    r0 = resid(x)
    pts, pix, valid = pipeline._observations(scene)
    principal = np.array([c.principal for c in cameras])
    bounds = np.cumsum([0] + [2 * int(n) for n in valid.sum(axis=1)])
    J = np.zeros((len(r0), len(x)))

    def model_at(p):
        k = np.array(model.k)
        k[free] = p[7 * ncam:]
        return DistortionModel(model.kind, tuple(k))

    def stack_errors(P, cams, coeffs):
        """Residual pixel rows of stacked cameras, and where they fail."""
        ok, err = pipeline._pixel_errors(P, pts[cams], pix[cams], valid[cams],
                                         principal[cams], coeffs)
        return [e[v].ravel() for e, v in zip(err, valid[cams])], ok

    coeffs = model_at(x)
    for i in range(ncam):
        cols = slice(7 * i, 7 * i + 7)
        hs = pipeline._step_size(x[cols])
        P = np.tile(x[cols], (7, 1))
        P[np.arange(7), np.arange(7)] += hs
        rows, ok = stack_errors(P, np.full(7, i), coeffs)
        pixel_rows = slice(bounds[i], bounds[i + 1])
        prior_row = bounds[-1] + i
        for k in np.flatnonzero(ok):
            J[pixel_rows, 7 * i + k] = (rows[k] - r0[pixel_rows]) / hs[k]
        if ok[6]:
            J[prior_row, 7 * i + 6] = (
                weight * math.log(P[6, 6] / cameras[i].focal)
                - r0[prior_row]) / hs[6]
        for k in np.flatnonzero(~ok):
            J[:, 7 * i + k] = (1e8 - r0) / hs[k]
    base = x[:7 * ncam].reshape(ncam, 7)
    for j in range(7 * ncam, len(x)):
        xp, h = pipeline._forward_step(x, j)
        try:
            rows, ok = stack_errors(base, np.arange(ncam), model_at(xp))
        except ValueError:
            ok = [False]
        if not all(ok):
            J[:, j] = (1e8 - r0) / h
            continue
        rp = r0.copy()
        rp[:bounds[-1]] = np.concatenate(rows)
        J[:, j] = (rp - r0) / h
    return J
