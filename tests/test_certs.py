import numpy as np
import pytest

from shapecal import certs
from shapecal.certs import (GramMatrix, IntervalCertificate, SymbolicGram,
                            VarSpace, certificate_to_poly, eliminate,
                            gram_to_poly, match_coefficients,
                            symbolic_certificate)
from shapecal.poly import Polynomial
from util import from_univariate, substitute_all


def test_gram_to_poly_single_entry():
    Q = GramMatrix(np.array([[0.0, 0.0], [0.0, 1.0]]), 1)
    assert gram_to_poly(Q).almost_equal(from_univariate([0, 0, 1]))


def test_gram_to_poly_identity():
    Q = GramMatrix(np.eye(2), 1)
    assert gram_to_poly(Q).almost_equal(from_univariate([1, 0, 1]))


def test_gram_to_poly_matches_quadratic_form():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(4, 4))
    Q = GramMatrix(M + M.T, 3)
    p = gram_to_poly(Q)
    for x in rng.uniform(-2, 2, size=10):
        psi = np.array([1.0, x, x ** 2, x ** 3])
        direct = psi @ Q.entries @ psi
        assert abs(p.eval([x]) - direct) <= 1e-10 * (1.0 + abs(direct))


def test_gram_to_poly_linear_in_q():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    a, b = 0.7, -1.3
    QA = GramMatrix(A + A.T, 2)
    QB = GramMatrix(B + B.T, 2)
    QC = GramMatrix(a * (A + A.T) + b * (B + B.T), 2)
    combo = a * gram_to_poly(QA) + b * gram_to_poly(QB)
    assert gram_to_poly(QC).almost_equal(combo, tol=1e-12)


def test_certificate_even_constant():
    cert = IntervalCertificate(
        0.0, 1.0, "even",
        GramMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), 1),
        GramMatrix(np.array([[0.0]]), 0))
    assert certificate_to_poly(cert).almost_equal(Polynomial.constant(1, 1.0))


def test_certificate_odd_telescopes():
    cert = IntervalCertificate(
        0.0, 1.0, "odd",
        GramMatrix(np.array([[1.0]]), 0), GramMatrix(np.array([[1.0]]), 0))
    assert certificate_to_poly(cert).almost_equal(Polynomial.constant(1, 1.0))


def test_certificate_parity_invariants():
    with pytest.raises(ValueError):
        IntervalCertificate(0.0, 1.0, "even",
                            GramMatrix(np.eye(2), 1), GramMatrix(np.eye(2), 1))
    with pytest.raises(ValueError):
        IntervalCertificate(1.0, 1.0, "odd",
                            GramMatrix(np.eye(1), 0), GramMatrix(np.eye(1), 0))


@pytest.mark.parametrize("parity,orders", [("even", (2, 1)), ("odd", (2, 2))])
def test_random_psd_certificates_nonnegative(parity, orders):
    # Dense grid sampling oracle over the interval, endpoints included.
    rng = np.random.default_rng(17)
    alpha, beta = 0.0, 4.0
    for _ in range(200):
        gs = rng.normal(size=(orders[0] + 1, orders[0] + 1))
        gt = rng.normal(size=(orders[1] + 1, orders[1] + 1))
        cert = IntervalCertificate(alpha, beta, parity,
                                   GramMatrix(gs @ gs.T, orders[0]),
                                   GramMatrix(gt @ gt.T, orders[1]))
        assert cert.is_valid()
        p = certificate_to_poly(cert)
        rs = np.linspace(alpha, beta, 1000)
        vals = np.polyval(p.univariate_coeffs()[::-1], rs)
        assert vals.min() >= -1e-8


# ---------------------------------------------------------------------------
# Coefficient matching and the closed forms it must reproduce
# ---------------------------------------------------------------------------

def _barrel_first_derivative_system(rbar):
    names = ["k1", "k2", "k3"] + certs.certificate_names("s1", "t1", 2) + ["r"]
    space = VarSpace(names)
    r = space.var("r")
    f = (space.const(1.0) + space.var("k1") * r + space.var("k2") * (r ** 2)
         + space.var("k3") * (r ** 3))
    target = -f.derivative(space.index["r"])
    S, T, cert = symbolic_certificate(space, "r", 0.0, rbar, 2, "s1", "t1")
    eqs = match_coefficients(target, cert, space, "r")
    return space, S, T, eqs


def test_match_barrel_three_equalities():
    space, S, T, eqs = _barrel_first_derivative_system(1.7)
    assert len(eqs) == 3


def test_barrel_elimination_closed_form():
    # Solving the matching system for the model coefficients reproduces
    # k = (-s11, -s12 - rbar t11 / 2, (t11 - s13) / 3), checked exactly as
    # polynomials for two interval lengths.
    for rbar in (1.0, 2.5):
        space, S, T, eqs = _barrel_first_derivative_system(rbar)
        sub = eliminate(eqs, ["k1", "k2", "k3"], space)
        s11, s12, s13 = (space.var(n) for n in ("s11", "s12", "s13"))
        t11 = space.var("t11")
        assert sub["k1"].almost_equal(-s11)
        assert sub["k2"].almost_equal(-s12 - 0.5 * rbar * t11)
        assert sub["k3"].almost_equal((t11 - s13) * (1.0 / 3.0))


def test_barrel_second_gram_substitutions():
    # Combining both derivative systems expresses the second certificate in
    # the first one: s21 = (2 s12 + 2 rbar s13 - rbar t11) / rbar and
    # t21 = 2 (s12 + rbar t11 / 2) / rbar.
    rbar = 1.3
    names = (["k1", "k2", "k3"]
             + certs.certificate_names("s1", "t1", 2)
             + certs.certificate_names("s2", "t2", 1) + ["r"])
    space = VarSpace(names)
    r = space.var("r")
    f = (space.const(1.0) + space.var("k1") * r + space.var("k2") * (r ** 2)
         + space.var("k3") * (r ** 3))
    ridx = space.index["r"]
    _, _, cert1 = symbolic_certificate(space, "r", 0.0, rbar, 2, "s1", "t1")
    _, _, cert2 = symbolic_certificate(space, "r", 0.0, rbar, 1, "s2", "t2")
    eqs1 = match_coefficients(-f.derivative(ridx), cert1, space, "r")
    eqs2 = match_coefficients(-f.derivative(ridx).derivative(ridx), cert2,
                              space, "r")
    sub_k = eliminate(eqs1, ["k1", "k2", "k3"], space)
    sub_2 = eliminate(eqs2, ["s21", "t21"], space)
    s21 = substitute_all(sub_2["s21"], sub_k, space)
    t21 = substitute_all(sub_2["t21"], sub_k, space)
    s12, s13, t11 = (space.var(n) for n in ("s12", "s13", "t11"))
    assert s21.almost_equal((2 * s12 + 2 * rbar * s13 - rbar * t11)
                            * (1.0 / rbar), tol=1e-11)
    assert t21.almost_equal((s12 + 0.5 * rbar * t11) * (2.0 / rbar),
                            tol=1e-11)


def test_zero_crossing_closed_form():
    # The constant coefficient forces t11 = (1 - p) / rbar and the rest of
    # the system pins the denominator coefficients to the certificate.
    rbar, p = 4.0, 0.1
    names = (["k4", "k5", "k6"] + certs.certificate_names("s1", "t1", 3)
             + ["r"])
    space = VarSpace(names)
    r = space.var("r")
    g_minus_p = (space.const(1.0 - p) + space.var("k4") * r
                 + space.var("k5") * (r ** 2) + space.var("k6") * (r ** 3))
    S, T, cert = symbolic_certificate(space, "r", 0.0, rbar, 3, "s1", "t1")
    eqs = match_coefficients(g_minus_p, cert, space, "r")
    assert len(eqs) == 4
    sub_t11 = eliminate(eqs[:1], ["t11"], space)
    assert sub_t11["t11"].almost_equal(space.const((1.0 - p) / rbar))
    sub_k = eliminate(eqs[1:], ["k4", "k5", "k6"], space)
    s11, s12, s13 = (space.var(n) for n in ("s11", "s12", "s13"))
    t11, t12, t13 = (space.var(n) for n in ("t11", "t12", "t13"))
    assert sub_k["k4"].almost_equal(s11 - t11 + 2 * rbar * t12)
    assert sub_k["k5"].almost_equal(2 * s12 - 2 * t12 + rbar * t13)
    assert sub_k["k6"].almost_equal(s13 - t13)


def test_match_zero_target():
    # The zero polynomial forces every certificate coefficient sum to zero;
    # S = T = 0 satisfies the system.
    names = certs.certificate_names("s", "t", 2) + ["r"]
    space = VarSpace(names)
    S, T, cert = symbolic_certificate(space, "r", 0.0, 1.0, 2, "s", "t")
    eqs = match_coefficients(Polynomial.zero(space.dim), cert, space, "r")
    zeros = np.zeros(space.dim)
    for eq in eqs:
        assert abs(eq.eval(zeros)) <= 1e-14


def test_matching_implies_equality_of_polynomials():
    # Satisfying the equalities numerically makes the certificate equal the
    # target coefficient-wise: draw random PSD (S1, T1), derive k from the
    # eliminated system, and compare -f' with the assembled certificate.
    rng = np.random.default_rng(4)
    rbar = 2.0
    space, S, T, eqs = _barrel_first_derivative_system(rbar)
    sub = eliminate(eqs, ["k1", "k2", "k3"], space)
    for _ in range(10):
        gs = rng.normal(size=(2, 2))
        s_mat = gs @ gs.T
        t_val = rng.uniform(0.1, 2.0)
        values = {"s11": s_mat[0, 0], "s12": s_mat[0, 1], "s13": s_mat[1, 1],
                  "t11": t_val}
        point = np.array([0.0] * space.dim)
        for name, v in values.items():
            point[space.index[name]] = v
        k = {name: sub[name].eval(point) for name in ("k1", "k2", "k3")}
        cert = IntervalCertificate(0.0, rbar, "even",
                                   GramMatrix(s_mat, 1),
                                   GramMatrix(np.array([[t_val]]), 0))
        assembled = certificate_to_poly(cert)
        target = from_univariate(
            [-k["k1"], -2 * k["k2"], -3 * k["k3"]])
        assert target.almost_equal(assembled, tol=1e-9)


def test_eliminate_rejects_nonlinear_pivot():
    space = VarSpace(["a", "b"])
    eq = space.var("a") * space.var("a") - space.var("b")
    with pytest.raises(ValueError):
        eliminate([eq], ["a"], space)


def test_symbolic_gram_entry_names_follow_upper_triangle():
    space = VarSpace(certs.gram_entry_names("s3", 3))
    G = SymbolicGram.create(space, "s3", 2)
    assert G.entries[0, 0].almost_equal(space.var("s31"))
    assert G.entries[0, 1].almost_equal(space.var("s32"))
    assert G.entries[1, 1].almost_equal(space.var("s34"))
    assert G.entries[2, 2].almost_equal(space.var("s36"))
