"""Polynomial algebra and interval nonnegativity certificates.

A polynomial that is nonnegative on a finite interval [a, b] can be written
with two positive semidefinite Gram matrices; conversely, any PSD pair
assembles into a polynomial that is guaranteed nonnegative there.  This
script builds a few certificates by hand and verifies the guarantee on a
dense grid.
"""

import numpy as np

from shapecal.certs import (GramMatrix, IntervalCertificate, VarSpace,
                            certificate_names, certificate_to_poly,
                            eliminate, match_coefficients,
                            symbolic_certificate)
from shapecal.poly import Polynomial, basis

# --- basic polynomial algebra ---------------------------------------------

x = Polynomial.variable(1, 0)
p = 1 - 2 * x + 3 * (x ** 2)
print("p(x) = 1 - 2x + 3x^2")
print("  p(0.5) =", p.eval([0.5]))
print("  p'(x) coefficients:", p.derivative(0).univariate_coeffs())

b = basis(2, 2)
print("\ncanonical basis of 2 variables up to degree 2:", b.monomials)
# The Riesz functional replaces each monomial x^alpha by a moment y_alpha.
q = Polynomial(2, {(1, 1): 1.0, (0, 0): 2.0})
print("Riesz image of x0*x1 + 2:",
      " + ".join(f"{c:g} y{alpha}" for alpha, c in q.terms.items()))

# --- a certificate from random PSD matrices -------------------------------

rng = np.random.default_rng(0)
G1 = rng.normal(size=(3, 3))
G2 = rng.normal(size=(2, 2))
cert = IntervalCertificate(0.0, 4.0, "even",
                           GramMatrix(G1 @ G1.T, 2), GramMatrix(G2 @ G2.T, 1))
poly = certificate_to_poly(cert)
rs = np.linspace(0.0, 4.0, 2000)
values = np.polyval(poly.univariate_coeffs()[::-1], rs)
print("\nrandom PSD pair on [0, 4]:")
print("  assembled degree:", poly.degree)
print("  minimum over a 2000-point grid:", values.min(), "(>= 0 expected)")

# --- matching a parameterized target against a certificate ----------------
# Tie -f'(r) for f = 1 + k1 r + k2 r^2 + k3 r^3 to a degree-2 certificate
# on [0, 1] and eliminate the model coefficients: the closed form pops out.

names = ["k1", "k2", "k3"] + certificate_names("s1", "t1", 2) + ["r"]
space = VarSpace(names)
r = space.var("r")
f = 1 + space.var("k1") * r + space.var("k2") * (r ** 2) \
    + space.var("k3") * (r ** 3)
_, _, cert_poly = symbolic_certificate(space, "r", 0.0, 1.0, 2, "s1", "t1")
equalities = match_coefficients(-f.derivative(space.index["r"]), cert_poly,
                                space, "r")
solution = eliminate(equalities, ["k1", "k2", "k3"], space)


def pretty(poly):
    terms = []
    for alpha, c in sorted(poly.terms.items()):
        mono = "*".join(space.names[i] for i, a in enumerate(alpha) if a)
        terms.append(f"{c:+.4g}" + (f"*{mono}" if mono else ""))
    return " ".join(terms)


print("\ncoefficient matching for -f' on [0, 1]:")
for name in ("k1", "k2", "k3"):
    print(f"  {name} =", pretty(solution[name]))
