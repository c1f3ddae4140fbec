"""Shared test helpers: synthetic correspondence generators and oracles."""

import json
import math

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpftrs, dtfttr, dtrttf

from dataclasses import asdict, dataclass

from shapecal import calib, pipeline, sdp
from shapecal.distortion import (POLE_EPS, DistortionModel, PoleError,
                                 ShapeReport, shape_check)
from shapecal.poly import COEFF_EPS, Polynomial, PolyMatrix, basis


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


def is_zero(p, tol=COEFF_EPS):
    """Whether every coefficient of the polynomial p is within tol of 0."""
    return all(abs(c) <= tol for c in p.terms.values())


def substitute_all(p, substitution, space):
    """Apply a {name: Polynomial} substitution map to a polynomial, one
    ``Polynomial.substitute`` pass per name in the map's order.

    The oracle for ``calib.pincushion_pmi``'s lookup lift of Gram entries.
    """
    out = p
    for name, expr in substitution.items():
        out = out.substitute(space.index[name], expr)
    return out


def block_value(block, z):
    """The matrix of an ``sdp.AffineBlock`` at the variable vector z."""
    var, row, col, val = block.coeff
    out = block.constant.copy()
    np.add.at(out, (row, col), np.asarray(z)[var] * val)
    return out


def dict_epigraph_block(M, m, c, var_indices, gamma_index):
    """``sdp.epigraph_block`` built from one dense (size, size) matrix per
    variable, as {var: matrix}, which ``sdp.AffineBlock`` reads as the
    entries of its nonzeros.

    The oracle for the triplets ``sdp.epigraph_block`` emits.
    """
    L = sdp.factor_psd(M)
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
    return sdp.AffineBlock(size, constant, coeff)


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
    """Reduced constants and coefficients of dense ``blocks`` over N, as
    (Cs, As): each constant shifted by z0_i A_i in dict order, each
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


def build_then_restrict_reduce(program):
    """``sdp._reduce`` with the inert directions found after the wrap:
    every block wrapped over every direction w_j, the live mask read from
    the wrapped blocks' largest |entry| of each A_j, and, when a direction
    is inert, every block wrapped again over the live ones.

    The oracle for the one wrap ``sdp._reduce`` makes over its mask.
    """
    z0, N = sdp._eliminate_equalities(program)
    Cs, As = dense_reduce(dense_blocks(program), z0, N)
    coeffs = [sdp._SparseCoeffs(A, C.shape[0]) if scipy.sparse.issparse(A)
              else sdp._DenseCoeffs(A.reshape(len(A), C.size), C.shape[0])
              for C, A in zip(Cs, As)]
    live = np.zeros(N.shape[1], dtype=bool)
    for A in coeffs:
        sparse = isinstance(A, sdp._SparseCoeffs)
        live |= (abs(A.csr).max(axis=1).toarray().ravel() if sparse
                 else np.abs(A.A).max(axis=(1, 2), initial=0.0)) > 1e-13
    if not live.all():
        coeffs = [sdp._SparseCoeffs(A.csr[live], A.m)
                  if isinstance(A, sdp._SparseCoeffs)
                  else sdp._DenseCoeffs(A.flat[live], A.A.shape[1])
                  for A in coeffs]
    return z0, N, Cs, coeffs, live


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


def packed(M):
    """The lower triangle of the full M in the storage of ``sdp``'s Schur
    buffer, packed by LAPACK's ``dtrttf``."""
    arf, info = dtrttf(M, uplo="L")
    assert info == 0
    return arf


def transposing_schur_factor(M, diagonal, form):
    """The oracle for ``sdp._schur_factor``: ``form(M)``, the packed
    triangle as formed unpacked into a full q x q copy T by ``dtfttr``,
    then ``dpftrf`` (looked up in ``sdp``, where the tests patch it) of T
    packed again by ``dtrttf``.  When that fails, the jitter ladder of
    ``sdp._jitter_ladder`` runs on T, formed and unpacked again for every
    rung, with its full-storage diagonal.  Returns the packed lower
    factor."""
    q = diagonal.size
    T = np.empty((q, q))

    def unpack():
        form(M)
        A, info = dtfttr(q, M[:-1], uplo="L")
        assert info == 0
        np.copyto(T, A)

    def factor():
        L, info = sdp.dpftrf(q, packed(T), uplo="L")
        return None if info else L

    unpack()
    scale = max(np.trace(T) / q, 1e-30)
    L = factor()
    if L is None:
        L = sdp._jitter_ladder(T.reshape(-1), slice(None, None, q + 1),
                               unpack, factor, scale)
    sdp._finite(L)
    return L


def transposing_schur_solve(L, rhs):
    """The oracle for ``sdp._schur_solve``: ``dpftrs`` on copies of the
    packed factor and of rhs."""
    sdp._finite(rhs)
    x, info = dpftrs(rhs.size, L.copy(), rhs.copy(), uplo="L")
    if info:
        raise ValueError(f"illegal value in argument {-info} of dpftrs")
    return x


def step_size(v):
    """Forward-difference step for parameters of value v."""
    return 1e-7 * (1.0 + np.abs(v))


def forward_step(x, j):
    """x with parameter j stepped forward, and the step."""
    h = step_size(x[j])
    xp = x.copy()
    xp[j] += h
    return xp, h


def num_jacobian(fun, x, r0):
    """Forward-difference Jacobian of ``fun`` at x, where fun(x) is r0."""
    J = np.empty((len(r0), len(x)))
    for j in range(len(x)):
        xp, h = forward_step(x, j)
        J[:, j] = (fun(xp) - r0) / h
    return J


def difference_normals(fun, x, r0):
    """(J'J, J'r0) of the forward-difference Jacobian of ``fun`` at x."""
    J = num_jacobian(fun, x, r0)
    return J.T @ J, J.T @ r0


def with_difference_normals(fun):
    """The one-pass ``fun`` of ``pipeline.levenberg_marquardt`` for the
    residual ``fun``: its value and ``difference_normals`` there.  The
    dense LM that the closed-form normal equations are checked against."""
    def one_pass(x):
        r = fun(x)
        return r, difference_normals(fun, x, r)
    return one_pass


def pose_block_jacobian(scene, cameras, model, free, weight, x):
    """Forward differences of ``pipeline._pose_problem``'s residual at x,
    the first entry of its ``fun``.

    The oracle for the problem's closed-form normal equations, through
    its products J'J and J'r.  Column j steps
    parameter j as ``forward_step`` does.  A camera's 7 columns
    come from one ``_pixel_errors`` stack of 7 copies of the camera, copy k
    with parameter k stepped; a coefficient column re-evaluates every
    camera at x with the stepped coefficient.  A column whose step fails as
    the residual would (non-finite, focal <= 0, depth <= 0, |g| below
    POLE_EPS, a model that refuses the coefficient) gets the sentinel
    difference.  Wherever the residual at x is not the sentinel this is
    ``num_jacobian`` of the residual, bit for bit.
    """
    free = list(free)
    ncam = len(cameras)
    fun = pipeline._pose_problem(scene, cameras, model, free, weight)[1]
    r0 = fun(x)[0]
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
        ok, err = pipeline._pixel_errors(P, pts[:, cams], pix[:, cams],
                                         valid[cams], principal[cams], coeffs)
        return [e[v].ravel() for e, v in zip(err, valid[cams])], ok

    coeffs = model_at(x)
    for i in range(ncam):
        cols = slice(7 * i, 7 * i + 7)
        hs = step_size(x[cols])
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
        xp, h = forward_step(x, j)
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


def _left_jacobians(V):
    """SO(3) left Jacobian J_l(v) of each axis-angle row v of V, from its
    own angle terms: the half of ``reference_pixel_errors`` that
    ``pipeline._rotations`` does not give."""
    theta2 = V[:, 0] ** 2 + V[:, 1] ** 2 + V[:, 2] ** 2
    small = theta2 < 1e-8
    t = np.where(small, 1.0, np.sqrt(theta2))
    a = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(t)) / t ** 2)
    b = np.where(small, 1.0 / 6.0 - theta2 / 120.0,
                 (t - np.sin(t)) / t ** 3)
    vv = V[:, :, None] * V[:, None, :] - theta2[:, None, None] * np.eye(3)
    Z = np.zeros(len(V))
    hats = np.stack([Z, -V[:, 2], V[:, 1], V[:, 2], Z, -V[:, 0],
                     -V[:, 1], V[:, 0], Z], axis=1).reshape(-1, 3, 3)
    return np.eye(3) + a[:, None, None] * hats + b[:, None, None] * vv


def same_bits(a, b):
    """Equal shapes and equal bits, signed zeros included; NaNs match NaNs
    whatever their payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64),
                               b[~nan].view(np.int64)))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reference_L_L1(model, r):
    """L, L', g and the pole mask |g| < POLE_EPS at radii r, as
    ``pipeline._pixel_errors`` once formed them inline: np.polyval of f, g
    and their derivative coefficients, and the quotient rule.  An oracle
    for ``DistortionModel.evaluate``; it does not raise."""
    r = np.asarray(r, dtype=float)
    fc, gc = model.f_coeffs, model.g_coeffs
    fv = np.polyval(fc[::-1], r)
    gv = np.polyval(gc[::-1], r)
    powers = np.arange(1, 4)
    L1 = (np.polyval((fc[1:] * powers)[::-1], r) * gv
          - fv * np.polyval((gc[1:] * powers)[::-1], r)) / gv ** 2
    return fv / gv, L1, gv, np.abs(gv) < POLE_EPS


def _der(coeffs_low_first):
    return coeffs_low_first[1:] * np.arange(1, len(coeffs_low_first))


def _polyval_derivatives(coeffs_low_first, r):
    """Value, first and second derivative at r of a dense polynomial."""
    d1 = _der(coeffs_low_first)
    return tuple(np.polyval(c[::-1], r)
                 for c in (coeffs_low_first, d1, _der(d1)))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reference_L_derivatives(model, r):
    """(L, L', L'') at r by the quotient rule on f and g, raising PoleError
    at the first radius with |g| < POLE_EPS: ``DistortionModel.
    L_derivatives`` as it stood with its own evaluation of f and g."""
    r = np.asarray(r, dtype=float)
    fv, f1v, f2v = _polyval_derivatives(model.f_coeffs, r)
    gv, g1v, g2v = _polyval_derivatives(model.g_coeffs, r)
    bad = np.abs(gv) < POLE_EPS
    if np.any(bad):
        raise PoleError(r[bad].flat[0] if r.ndim else float(r))
    num1 = f1v * gv - fv * g1v
    L = fv / gv
    L1 = num1 / gv ** 2
    L2 = ((f2v * gv - fv * g2v) * gv - 2.0 * g1v * num1) / gv ** 3
    return L, L1, L2


def reference_shape_check(model, shape, rbar, samples=2048, margin=0.1,
                          tol=1e-9):
    """``distortion.shape_check`` with its own pole masking: g on the grid,
    then ``reference_L_derivatives`` on the radii with |g| >= POLE_EPS
    only; the other radii violate by infinity."""
    rs = np.linspace(0.0, rbar, samples)
    gv = np.polyval(model.g_coeffs[::-1], rs)
    if shape == "positivity":
        viol = np.maximum(margin - gv, 0.0)
    else:
        safe = np.abs(gv) >= POLE_EPS
        viol = np.full_like(rs, np.inf)
        if safe.any():
            _, L1, L2 = reference_L_derivatives(model, rs[safe])
            if shape == "barrel":
                v = np.maximum(np.maximum(L1, L2), 0.0)
            else:
                v = np.maximum(np.maximum(-L1, -L2), 0.0)
                v = np.maximum(v, np.maximum(-gv[safe], 0.0))
            viol[safe] = v
    return ShapeReport(shape, float(rbar), int(samples), float(viol.max()),
                       rs[viol > tol].tolist())


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reference_pixel_errors(P, pts, pix, valid, principal, model, free=None):
    """The oracle for ``pipeline._pixel_errors``: the same arithmetic, one
    temporary per operation, the cross products through fancy-index copies
    of R X and the left Jacobians from their own angle terms.  It takes
    ``pts`` (B, N, 3) and ``pix`` (B, N, 2), point first."""
    R, ok = pipeline._rotations(P[:, :3])[:2]
    X = np.moveaxis(pts, -1, 0)
    Rc = np.moveaxis(R, 0, -1)[..., None]
    q = Rc[:, 0] * X[0] + Rc[:, 1] * X[1] + Rc[:, 2] * X[2]
    pc = q + P[:, 3:6].T[..., None]
    xy = pc[:2] / pc[2]
    r = np.hypot(xy[0], xy[1])
    L, L1, gv, pole = reference_L_L1(model, r)
    ok &= np.isfinite(P[:, 3:]).all(axis=1) & (P[:, 6] > 0)
    ok &= ~(((pc[2] <= 0) | pole) & valid).any(axis=1)
    focal = P[:, 6, None]
    err = xy * L * focal + principal.T[..., None] - np.moveaxis(pix, -1, 0)
    if free is None:
        return ok, np.moveaxis(err, 0, -1)
    s = focal / pc[2]
    u = xy / np.where(r > 0, r, 1.0)
    G = np.empty((2, 3) + r.shape)
    G[:, :2] = s * L1 * xy[:, None] * u
    G[0, 0] += s * L
    G[1, 1] += s * L
    G[:, 2] = -s * (L + L1 * r) * xy
    W = np.moveaxis(_left_jacobians(P[:, :3]), 0, -1)[..., None]
    C = W[[1, 2, 0]] * q[[2, 0, 1], None] - W[[2, 0, 1]] * q[[1, 2, 0], None]
    D = np.empty((2, 7 + len(free)) + r.shape)
    D[:, :3] = G[:, 0, None] * C[0]
    D[:, :3] += G[:, 1, None] * C[1]
    D[:, :3] += G[:, 2, None] * C[2]
    D[:, 3:6] = G
    D[:, 6] = xy * L
    dL = np.array([r ** (j % 3 + 1) / gv * (1.0 if j < 3 else -L)
                   for j in free]).reshape((len(free),) + r.shape)
    D[:, 7:] = xy[:, None] * (dL * focal)
    return ok, np.moveaxis(err, 0, -1), np.moveaxis(D, (0, 1), (2, 3))


def per_camera_normal_blocks(err, D, counts):
    """The oracle for ``pipeline._normal_blocks``: one camera at a time,
    each camera's products over its own first ``counts[b]`` rows."""
    E = np.moveaxis(err, -1, 0)
    A = np.moveaxis(D, (2, 3), (0, 1))
    H = np.empty((len(counts),) + D.shape[-1:] * 2)
    g = np.empty((len(counts), D.shape[-1]))
    for b, n in enumerate(counts):
        (x, y), (ex, ey) = A[:, :, b, :n], E[:, b, :n]
        H[b] = x @ x.T + y @ y.T
        g[b] = x @ ex + y @ ey
    return H, g


def experiment_config_doc(cfg, errors):
    """The oracle for ``run_experiment``'s config block: every entry
    written out from ``cfg``, with the run's ``errors``."""
    model = pipeline.DEFAULT_TRUE_MODELS[cfg.shape]
    return {
        "shape": cfg.shape,
        "sigmas": list(cfg.sigmas),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "rbar": cfg.rbar,
        "margin_p": cfg.margin_p,
        "delta_max": calib.CalibConfig.delta_max,
        "aso_iterations": cfg.aso_iterations,
        "validation_grid": pipeline.VALIDATION_GRID,
        "true_model": {"kind": model.kind,
                       "k": list(model.k)},
        # Reports written so far carry no target spacing; keep their bytes.
        "scene": {k: v for k, v in asdict(cfg.scene).items()
                  if k != "spacing"},
        "errors": errors,
    }


def reference_one_trial(cfg, sigma, trial):
    """The oracle for ``pipeline._one_trial``: each record recomputes its
    calibration RMS and shape check from its cameras and model, and the
    fits take a ``CalibConfig`` built for the trial."""
    model_true = pipeline.DEFAULT_TRUE_MODELS[cfg.shape]
    seed = int(np.random.SeedSequence((cfg.seed, trial)).generate_state(1)[0])
    scene = pipeline.generate_scene(cfg.scene, model_true, seed)
    noisy = pipeline.add_noise(scene, sigma)
    kind = calib.SHAPE_KINDS[cfg.shape]
    ccfg = calib.CalibConfig(rbar=cfg.rbar, margin_p=cfg.margin_p,
                             shape=cfg.shape)
    val_points = pipeline.validation_points(scene)

    cams_init = pipeline.bootstrap_poses(noisy, seed)

    records = []

    def record(method, cameras, model):
        report = shape_check(model, cfg.shape, cfg.rbar,
                             margin=cfg.margin_p)
        records.append({
            "method": method,
            "sigma": float(sigma),
            "trial": int(trial),
            "calib_rms": pipeline.reprojection_rms(noisy, cameras, model),
            "valid_rms": pipeline.validation_rms(val_points, cameras, model),
            "shape_violations": len(report.violating_radii),
        })

    cams_ba, model_ba, _ = pipeline.ba_full(noisy, cams_init, kind)
    record("BA", cams_ba, model_ba)

    cost_so = calib.assemble_cost(pipeline.correspondences(noisy, cams_ba))
    so = calib.solve_shape(cost_so, ccfg)
    if so.model is not None:
        record("SO", cams_ba, so.model)

    aso, cams_aso, _ = pipeline.aso_loop(noisy, cams_ba, ccfg, so,
                                         cfg.aso_iterations)
    if aso.model is not None:
        record("ASO", cams_aso, aso.model)
    return records
