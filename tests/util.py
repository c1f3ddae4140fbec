"""Shared test helpers: synthetic correspondence generators and oracles."""

import json
import math

import numpy as np
import scipy.sparse

from dataclasses import dataclass

from shapecal import sdp
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
                    for beta, cval in G.entries[a, b].terms.items():
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
                        for beta, c in G.entries[x, y].terms.items():
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
