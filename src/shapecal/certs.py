"""Gram-matrix polynomial representations and interval nonnegativity certificates.

A univariate polynomial nonnegative on a finite interval [alpha, beta] admits
a Markov-Lukacs decomposition built from two positive semidefinite Gram
matrices S and T:

    even degree 2n:    p(x) = s(x) + (x - alpha)(beta - x) t(x)
    odd degree 2n+1:   p(x) = (x - alpha) s(x) + (beta - x) t(x)

with s(x) = psi_n(x)' S psi_n(x) and t over the basis of order n-1 (even
case) or n (odd case).  We use the construction only in the sound direction:
given PSD matrices, the assembled polynomial is certified nonnegative on the
interval.

The symbolic half of the module expands such certificates with named scalar
unknowns and produces the coefficient-matching equality system that ties a
target polynomial (whose coefficients may themselves depend on model
parameters) to the certificate entries.  Matching is always derived
programmatically from the decomposition above; closed forms from the hand
derivations serve only as cross-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial

# A matrix counts as a certificate when its smallest eigenvalue is no less
# than -PSD_RTOL * (1 + largest eigenvalue); interior-point solutions sit on
# the PSD boundary.
PSD_RTOL = 1e-9


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric numeric matrix paired with the order of its monomial basis."""

    entries: np.ndarray
    basis_order: int

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Gram matrix must be square")
        if m.shape[0] != self.basis_order + 1:
            raise ValueError("size must equal basis order + 1")
        object.__setattr__(self, "entries", 0.5 * (m + m.T))

    @property
    def size(self):
        return self.entries.shape[0]

    def is_psd(self):
        w = np.linalg.eigvalsh(self.entries)
        return w[0] >= -PSD_RTOL * (1.0 + max(w[-1], 0.0))


def _gram_form(entries, r):
    """psi(r)' G psi(r) for a square array of numbers or Polynomials.

    The coefficient of r^k is the sum of G[i, j] over all i + j = k, added
    in row-major order.
    """
    n = len(entries)
    out = Polynomial.constant(r.dim, 0.0)
    powers = [Polynomial.constant(r.dim, 1.0)]
    for _ in range(2 * (n - 1)):
        powers.append(powers[-1] * r)
    for i in range(n):
        for j in range(n):
            out = out + entries[i, j] * powers[i + j]
    return out


def _interval_combination(s, t, r, alpha, beta, even):
    """The Markov-Lukacs combination of s and t on [alpha, beta]."""
    if even:
        return s + (r - alpha) * (beta - r) * t
    return (r - alpha) * s + (beta - r) * t


def gram_to_poly(Q):
    """Expand psi_n' Q psi_n into a univariate polynomial."""
    return _gram_form(Q.entries, Polynomial.variable(1, 0))


@dataclass(frozen=True)
class IntervalCertificate:
    """PSD pair (S, T) certifying nonnegativity on [alpha, beta]."""

    alpha: float
    beta: float
    parity: str  # 'even' or 'odd'
    S: GramMatrix
    T: GramMatrix

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError("certificate interval requires alpha < beta")
        if self.parity == "even":
            if self.T.basis_order != self.S.basis_order - 1:
                raise ValueError("even parity needs deg T basis = deg S basis - 1")
        elif self.parity == "odd":
            if self.T.basis_order != self.S.basis_order:
                raise ValueError("odd parity needs equal basis orders")
        else:
            raise ValueError(f"unknown parity {self.parity!r}")

    def is_valid(self):
        return self.S.is_psd() and self.T.is_psd()


def certificate_to_poly(cert):
    """Assemble the interval-nonnegative polynomial from a certificate.

    This is deterministic algebra; whether (S, T) are actually PSD is the
    caller's claim and can be checked with ``cert.is_valid()``.
    """
    return _interval_combination(gram_to_poly(cert.S), gram_to_poly(cert.T),
                                 Polynomial.variable(1, 0), cert.alpha,
                                 cert.beta, cert.parity == "even")


# ---------------------------------------------------------------------------
# Symbolic certificates over named decision variables
# ---------------------------------------------------------------------------

class VarSpace:
    """Fixed, ordered registry of scalar decision variables.

    Polynomials built from a space share its dimension, so every symbolic
    object in one derivation lives over the same exponent layout.
    """

    def __init__(self, names):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    @property
    def dim(self):
        return len(self.names)

    def var(self, name):
        return Polynomial.variable(self.dim, self.index[name])

    def const(self, value):
        return Polynomial.constant(self.dim, value)


def gram_entry_names(prefix, size):
    """Upper-triangle entry names, row major: prefix1, prefix2, ..."""
    count = size * (size + 1) // 2
    return [f"{prefix}{i + 1}" for i in range(count)]


@dataclass
class SymbolicGram:
    """Symmetric matrix of affine expressions over named scalar unknowns."""

    space: VarSpace
    basis_order: int
    entries: np.ndarray  # object array of Polynomial

    @property
    def size(self):
        return self.basis_order + 1

    @classmethod
    def create(cls, space, prefix, basis_order):
        """Gram matrix whose upper-triangle entries are fresh space variables.

        Entry (i, j) with i <= j gets the name ``prefix`` + running index in
        row-major upper-triangle order, mirroring the s11, s12, s13 pattern.
        """
        n = basis_order + 1
        names = iter(gram_entry_names(prefix, n))
        entries = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                v = space.var(next(names))
                entries[i, j] = v
                entries[j, i] = v
        return cls(space, basis_order, entries)

    def to_poly_in(self, r_var):
        """Quadratic form psi(r)' G psi(r) as a polynomial over the space."""
        return _gram_form(self.entries, r_var)


def certificate_names(s_prefix, t_prefix, degree):
    """Entry names a symbolic certificate of this degree will use.

    Callers building a VarSpace up front register these before calling
    ``symbolic_certificate`` with the same prefixes.
    """
    ns, nt = certificate_orders(degree)
    return (gram_entry_names(s_prefix, ns + 1)
            + gram_entry_names(t_prefix, nt + 1))


def certificate_orders(degree):
    """Basis orders (S, T) for a target of the given degree."""
    if degree < 1:
        raise ValueError("certificate needs target degree >= 1")
    n = degree // 2
    if degree % 2 == 0:
        return n, n - 1
    return n, n


def symbolic_certificate(space, r_name, alpha, beta, degree,
                         s_prefix, t_prefix):
    """Symbolic interval certificate for a target of the given degree.

    Returns (S, T, certificate polynomial over the space including r).
    """
    if not alpha < beta:
        raise ValueError("interval requires alpha < beta")
    ns, nt = certificate_orders(degree)
    S = SymbolicGram.create(space, s_prefix, ns)
    T = SymbolicGram.create(space, t_prefix, nt)
    r = space.var(r_name)
    cert = _interval_combination(S.to_poly_in(r), T.to_poly_in(r), r, alpha,
                                 beta, degree % 2 == 0)
    return S, T, cert


def match_coefficients(target, cert_poly, space, r_name):
    """Equalities forcing ``target == cert_poly`` coefficient-wise in r.

    Both arguments are polynomials over the full space; the returned list
    holds one polynomial per power of r that must vanish.  Entries are affine
    in the certificate unknowns and carry whatever dependence the target has
    on its own parameters (affine for derivative targets, quadratic for the
    curvature combination of the division model).
    """
    r_idx = space.index[r_name]
    by_power = (target - cert_poly).collect(r_idx)
    t_deg = max((alpha[r_idx] for alpha in target.terms), default=0)
    c_deg = max((alpha[r_idx] for alpha in cert_poly.terms), default=0)
    if c_deg < t_deg:
        raise ValueError(
            f"certificate degree budget {c_deg} below target degree {t_deg}")
    return [by_power[e] for e in sorted(by_power)]


def eliminate(equalities, pivots, space):
    """Solve an equality system for the pivot variables by linear elimination.

    Each pivot must enter the equalities affinely with constant coefficients.
    Returns a {pivot name: Polynomial} substitution map over the same space;
    the expressions are free of all pivots.  Raises if the system does not
    determine the pivots uniquely.
    """
    pivots = list(pivots)
    piv_idx = [space.index[p] for p in pivots]
    if len(equalities) != len(pivots):
        raise ValueError("need exactly one equality per pivot")

    rows = []
    remainders = []
    for eq in equalities:
        coeffs = np.zeros(len(pivots))
        rest = {}
        for alpha, c in eq.terms.items():
            exps = [alpha[i] for i in piv_idx]
            total = sum(exps)
            if total == 0:
                rest[alpha] = c
            elif total == 1 and sum(alpha) == 1:
                coeffs[exps.index(1)] += c
            else:
                raise ValueError("pivot enters an equality nonlinearly")
        rows.append(coeffs)
        remainders.append(Polynomial(space.dim, rest))

    A = np.array(rows)
    if abs(np.linalg.det(A)) < 1e-12:
        raise ValueError("equality system does not determine the pivots")
    Ainv = np.linalg.inv(A)

    out = {}
    for p_row, name in enumerate(pivots):
        expr = space.const(0.0)
        for e_col in range(len(pivots)):
            w = Ainv[p_row, e_col]
            if abs(w) > 1e-15:
                expr = expr + (-w) * remainders[e_col]
        out[name] = expr
    return out

