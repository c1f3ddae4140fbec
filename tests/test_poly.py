import math

import numpy as np
import pytest

from shapecal.poly import Basis, Polynomial, PolyMatrix, basis
from util import from_univariate, is_zero, riesz


def test_basis_univariate():
    b = basis(1, 3)
    assert len(b) == 4
    assert b.monomials == ((0,), (1,), (2,), (3,))


def test_basis_counts():
    assert len(basis(2, 2)) == 6
    assert len(basis(3, 2)) == 10


def test_basis_count_formula():
    for d in range(1, 5):
        for n in range(0, 7):
            assert len(basis(d, n)) == math.comb(d + n, d)


def test_basis_graded_lex_starts_constant():
    b = basis(3, 3)
    assert b.monomials[0] == (0, 0, 0)
    degs = [sum(m) for m in b.monomials]
    assert degs == sorted(degs)
    # Within one degree, earlier variables rank higher.
    assert b.monomials[1:4] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_eval_constant_term():
    p = from_univariate([1.0, 2.0, 3.0])
    assert p.eval([0.0]) == 1.0


def test_eval_product_monomial():
    p = Polynomial(2, {(1, 1): 1.0})
    assert p.eval([2.0, 3.0]) == 6.0


def test_eval_matches_naive_summation():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=5)
    p = from_univariate(coeffs)
    x = 0.37
    naive = sum(c * x ** i for i, c in enumerate(coeffs))
    assert abs(p.eval([x]) - naive) <= 1e-12


def test_derivative_formal_rule():
    rng = np.random.default_rng(0)
    k1, k2, k3 = rng.normal(size=3)
    p = from_univariate([1.0, k1, k2, k3])
    d = p.derivative(0)
    assert d.almost_equal(from_univariate([k1, 2 * k2, 3 * k3]))


def test_derivative_of_constant_is_zero():
    assert is_zero(Polynomial.constant(2, 5.0).derivative(1))
    p = from_univariate([1.0, 2.0])
    assert is_zero(p.derivative(0).derivative(0)) or \
        p.derivative(0).derivative(0).degree == 0


def test_second_derivative_matches_finite_differences():
    rng = np.random.default_rng(42)
    coeffs = rng.normal(size=6)
    f = from_univariate(coeffs)
    d2 = f.derivative(0).derivative(0)
    h = 1e-5
    for x in rng.uniform(-1.0, 1.0, size=10):
        fd = (f.eval([x + h]) - 2 * f.eval([x]) + f.eval([x - h])) / h ** 2
        exact = d2.eval([x])
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_first_derivative_matches_central_differences():
    rng = np.random.default_rng(7)
    p = Polynomial(2, {tuple(a): c for a, c in
                       zip([(0, 0), (1, 0), (0, 2), (2, 1)],
                           rng.normal(size=4))})
    h = 1e-6
    for _ in range(5):
        x = rng.uniform(0.2, 1.0, size=2)
        for var in range(2):
            xp, xm = x.copy(), x.copy()
            xp[var] += h
            xm[var] -= h
            fd = (p.eval(xp) - p.eval(xm)) / (2 * h)
            exact = p.derivative(var).eval(x)
            assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_mul_difference_of_squares():
    x = Polynomial.variable(1, 0)
    prod = (1 + x) * (1 - x)
    assert prod.almost_equal(from_univariate([1.0, 0.0, -1.0]))


def test_mul_by_zero():
    x = Polynomial.variable(1, 0)
    assert is_zero((x ** 3 + 2) * Polynomial.zero(1))


def _random_poly(rng, dim, degree, terms=6):
    b = basis(dim, degree)
    idx = rng.choice(len(b), size=min(terms, len(b)), replace=False)
    return Polynomial(dim, {b.monomials[i]: rng.normal() for i in idx})


def test_mul_is_evaluation_homomorphism():
    rng = np.random.default_rng(3)
    p = _random_poly(rng, 2, 3)
    q = _random_poly(rng, 2, 2)
    prod = p * q
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=2)
        lhs = prod.eval(x)
        rhs = p.eval(x) * q.eval(x)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_mul_commutative_associative():
    rng = np.random.default_rng(5)
    p = _random_poly(rng, 2, 4)
    q = _random_poly(rng, 2, 3)
    s = _random_poly(rng, 2, 2)
    assert (p * q).almost_equal(q * p, tol=1e-12)
    assert ((p * q) * s).almost_equal(p * (q * s), tol=1e-12)


def test_degree_adds_under_mul():
    rng = np.random.default_rng(9)
    p = _random_poly(rng, 1, 3)
    q = _random_poly(rng, 1, 4)
    if not is_zero(p) and not is_zero(q):
        assert (p * q).degree == p.degree + q.degree


def test_riesz_definition():
    p = from_univariate([3.0, 2.0, -1.0])
    form = riesz(p)
    assert form.coefficients == {(0,): 3.0, (1,): 2.0, (2,): -1.0}
    assert form.constant == 0.0


def test_riesz_linearity_exact():
    rng = np.random.default_rng(1)
    p = _random_poly(rng, 2, 3)
    q = _random_poly(rng, 2, 3)
    a, b = rng.normal(size=2)
    lhs = riesz(a * p + b * q)
    rhs = (riesz(p) * a) + (riesz(q) * b)
    keys = set(lhs.coefficients) | set(rhs.coefficients)
    for k in keys:
        assert lhs.coefficients.get(k, 0.0) == pytest.approx(
            rhs.coefficients.get(k, 0.0), abs=1e-15)


def test_riesz_support_in_basis():
    rng = np.random.default_rng(2)
    p = _random_poly(rng, 2, 2)
    support = set(riesz(p).coefficients)
    assert support <= set(basis(2, 2).monomials)


def test_coefficient_pruning():
    p = Polynomial(1, {(0,): 1.0, (5,): 1e-16})
    assert p.degree == 0
    assert (5,) not in p.terms


def test_substitute():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    p = x0 * x0 + 2 * x1
    sub = p.substitute(0, x1 + 1)
    expected = (x1 + 1) * (x1 + 1) + 2 * x1
    assert sub.almost_equal(expected)


def test_collect_by_variable():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    p = x0 * x1 + x1 * x1 * 3 + 2
    parts = p.collect(1)
    assert set(parts) == {0, 1, 2}
    assert parts[0].almost_equal(Polynomial.constant(2, 2.0))
    assert parts[1].almost_equal(x0)


def test_polymatrix_symmetry_enforced():
    x = Polynomial.variable(1, 0)
    with pytest.raises(ValueError):
        PolyMatrix(np.array([[x, x + 1], [x - 1, x]], dtype=object))


def test_dimension_mismatch_raises():
    p = Polynomial.variable(1, 0)
    q = Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError):
        p.eval([1.0, 2.0])


def test_polymatrix_terms_degree_and_eval():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    entries = np.array([[x1 + x0 * x0, 2 * x0 - 1],
                        [2 * x0 - 1, x0 * x0 * x1 + 3 * x1]], dtype=object)
    G = PolyMatrix(entries)
    assert not hasattr(G, "entries")
    assert G.degree == 3
    # First appearance over a row-major scan of the entries and their terms.
    assert list(G.terms) == [(0, 1), (2, 0), (1, 0), (0, 0), (2, 1)]
    expected = {(0, 1): [[1, 0], [0, 3]], (2, 0): [[1, 0], [0, 0]],
                (1, 0): [[0, 2], [2, 0]], (0, 0): [[0, -1], [-1, 0]],
                (2, 1): [[0, 0], [0, 1]]}
    for beta, C in G.terms.items():
        assert C.tobytes() == np.array(expected[beta], dtype=float).tobytes()
    rng = np.random.default_rng(3)
    for x in rng.normal(scale=2.0, size=(20, 2)):
        ref = np.array([[p.eval(x) for p in row] for row in entries])
        assert np.allclose(G.eval(x), ref, rtol=1e-12, atol=0.0)
    zero = PolyMatrix.from_scalar(Polynomial.zero(2))
    assert zero.terms == {} and zero.degree == 0
    assert zero.eval([1.0, 2.0]).tobytes() == np.zeros((1, 1)).tobytes()
