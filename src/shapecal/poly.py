"""Floating-point polynomial algebra over canonical monomial bases.

Polynomials are stored sparsely as a map from exponent tuples to real
coefficients.  A single representation serves both the univariate case
(where a helper converts to a dense coefficient vector) and the
multivariate case used by the moment machinery.  All values are immutable
after construction and every operation returns a fresh object, so the whole
module is safe to share across threads.

The global monomial ordering is graded lexicographic: monomials compare
first by total degree, then lexicographically with earlier variables
ranked higher.  Moment and localizing matrix indexing relies on this one
convention everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Monomial = tuple

# Coefficients below this magnitude are dropped on normalization so that
# degree queries are not polluted by floating-point dust.
COEFF_EPS = 1e-14


def grlex_key(alpha):
    """Sort key implementing the graded lexicographic order."""
    return (sum(alpha), tuple(-a for a in alpha))


class Polynomial:
    """Sparse polynomial in ``dim`` variables with float coefficients.

    The zero polynomial is the empty term map; its degree is defined as 0.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        if dim < 1:
            raise ValueError("polynomial dimension must be >= 1")
        self.dim = int(dim)
        clean = {}
        if terms:
            for alpha, c in terms.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != self.dim:
                    raise ValueError(
                        f"exponent {alpha} does not match dimension {self.dim}")
                if any(a < 0 for a in alpha):
                    raise ValueError(f"negative exponent in {alpha}")
                c = float(c)
                if abs(c) > COEFF_EPS:
                    clean[alpha] = clean.get(alpha, 0.0) + c
            clean = {a: c for a, c in clean.items() if abs(c) > COEFF_EPS}
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim, index):
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        alpha = tuple(1 if i == index else 0 for i in range(dim))
        return cls(dim, {alpha: 1.0})

    # -- queries -----------------------------------------------------------

    @property
    def degree(self):
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def univariate_coeffs(self):
        """Dense coefficient vector for a univariate polynomial, low degree first."""
        if self.dim != 1:
            raise ValueError("univariate_coeffs requires dim == 1")
        out = np.zeros(self.degree + 1)
        for (e,), c in self.terms.items():
            out[e] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if np.isscalar(other):
            other = Polynomial.constant(self.dim, other)
        self._check_dim(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0.0) + c
        return Polynomial(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dim, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if np.isscalar(other):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return Polynomial(self.dim,
                              {a: c * other for a, c in self.terms.items()})
        self._check_dim(other)
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.dim, 1.0)
        for _ in range(int(n)):
            result = result * self
        return result

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Evaluate at a point (term-wise products; exact for the zero polynomial)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        total = 0.0
        for alpha, c in self.terms.items():
            term = c
            for xi, ai in zip(x, alpha):
                if ai:
                    term *= xi ** ai
            total += term
        return total

    def derivative(self, var=0):
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.dim:
            raise ValueError(f"variable index {var} out of range")
        out = {}
        for alpha, c in self.terms.items():
            e = alpha[var]
            if e == 0:
                continue
            beta = list(alpha)
            beta[var] = e - 1
            out[tuple(beta)] = out.get(tuple(beta), 0.0) + c * e
        return Polynomial(self.dim, out)

    def substitute(self, var, replacement):
        """Replace variable ``var`` by a polynomial over the same space."""
        self._check_dim(replacement)
        result = Polynomial.zero(self.dim)
        for alpha, c in self.terms.items():
            e = alpha[var]
            base = list(alpha)
            base[var] = 0
            term = Polynomial(self.dim, {tuple(base): c})
            if e:
                term = term * (replacement ** e)
            result = result + term
        return result

    def collect(self, var):
        """Coefficients with respect to powers of one variable.

        Returns a dict mapping exponent of ``var`` to a Polynomial over the
        full space with that variable removed from every term.
        """
        buckets = {}
        for alpha, c in self.terms.items():
            e = alpha[var]
            beta = list(alpha)
            beta[var] = 0
            buckets.setdefault(e, {})[tuple(beta)] = \
                buckets.get(e, {}).get(tuple(beta), 0.0) + c
        return {e: Polynomial(self.dim, t) for e, t in buckets.items()}

    def almost_equal(self, other, tol=1e-12):
        diff = self - other
        return all(abs(c) <= tol for c in diff.terms.values())

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for alpha in sorted(self.terms, key=grlex_key):
            c = self.terms[alpha]
            mono = "*".join(f"x{i}^{a}" if a > 1 else f"x{i}"
                            for i, a in enumerate(alpha) if a)
            parts.append(f"{c:g}" + ("*" + mono if mono else ""))
        return "Polynomial(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class Basis:
    """Canonical monomial basis of all exponents with total degree <= order."""

    dim: int
    order: int
    monomials: tuple
    index: dict = field(repr=False, compare=False, default=None)

    def __len__(self):
        return len(self.monomials)


def _exponents_of_degree(d, n):
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _exponents_of_degree(d - 1, n - first):
            yield (first,) + rest


def basis(d, n):
    """All exponent vectors with total degree <= n, graded-lex ordered.

    The list starts with the constant monomial and has exactly C(d+n, d)
    elements.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("order must be >= 0")
    monos = []
    for deg in range(n + 1):
        monos.extend(_exponents_of_degree(d, deg))
    monos = tuple(monos)
    assert len(monos) == math.comb(d + n, d)
    return Basis(d, n, monos, {m: i for i, m in enumerate(monos)})


class PolyMatrix:
    """Symmetric matrix of polynomials over a shared variable space.

    Built from a square object array of Polynomials, it keeps only
    ``terms``, a map from each exponent beta to the (size, size) matrix
    C_beta of its nonzero coefficients: the matrix is sum C_beta x^beta.
    The keys come in order of first appearance over a row-major scan of the
    entries and each entry's terms; the moment assembler relies on it to
    store each block's variables as an entry scan meets them.  Each C_beta
    equals its transpose within 1e-12.
    """

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=object)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("PolyMatrix must be square")
        n = entries.shape[0]
        dims = {p.dim for p in entries.flat}
        if len(dims) != 1:
            raise ValueError("entries must share one variable space")
        self.size = n
        self.dim = dims.pop()
        self.terms = {}
        for (i, j), p in np.ndenumerate(entries):
            for beta, c in p.terms.items():
                self.terms.setdefault(beta, np.zeros((n, n)))[i, j] = c
        for C in self.terms.values():
            bad = np.argwhere(np.abs(C - C.T) > 1e-12)
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"entry ({i},{j}) is not symmetric")

    @property
    def degree(self):
        return max(map(sum, self.terms), default=0)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        out = np.zeros((self.size, self.size))
        for beta, C in self.terms.items():
            out += C * np.prod(x ** np.array(beta))
        return out

    @classmethod
    def from_scalar(cls, p):
        return cls(np.array([[p]], dtype=object))
