"""Moment relaxations of polynomial matrix inequality programs.

Nonconvex polynomial problems become a hierarchy of semidefinite programs
over moment variables.  The bounds grow monotonically with the order; when
the extracted candidate verifies against the original program, the bound is
the global optimum and says so.
"""

import numpy as np

from shapecal import relax
from shapecal.poly import Polynomial, PolyMatrix
from shapecal.relax import PmiProgram, solve_order

x = Polynomial.variable(1, 0)
box = PolyMatrix.from_scalar((1 - x) * (1 + x))     # x in [-1, 1]

# The first block of a relaxation is its moment matrix; each entry is one
# moment variable, named here by its exponent.
program, pos = relax.relax(PmiProgram(1, x * x, [box]), 1)
exponents = list(pos)     # pos maps each exponent to its variable position
M = program.blocks[0]
var, row, col, _ = M.coeff    # the nonzero entries of each variable's matrix
print("moment matrix of order 1 (one variable), entry exponents:")
for i in range(M.size):
    print("  ", [exponents[v] for j in range(M.size)
                 for v in var[(row == i) & (col == j)]])

# A convex warm-up: minimize x^2 on [-1, 1].
res = solve_order(PmiProgram(1, x * x, [box]), 1)
print("\nmin x^2 on [-1, 1]:", res.lower_bound, "at x* =", res.extracted,
      "certified:", res.certified)

# Interior optimum of a quartic: certified at the first admissible order.
p = (x - 0.3) ** 2 * (1 + x * x)
res = solve_order(PmiProgram(1, p, [box]), 2)
print("quartic with optimum at 0.3:", res.extracted, res.certified)

# Two symmetric minima: the moment solution is their mixture, the
# barycenter is not a minimizer, and extraction refuses to certify.
p = x ** 4 - x ** 2
for delta in (2, 3):
    res = solve_order(PmiProgram(1, p, [box]), delta)
    print(f"x^4 - x^2, order {delta}: bound {res.lower_bound:.6f} "
          f"certified={res.certified} (two atoms at +-1/sqrt 2)")

# Symmetry broken: a unique minimizer extracts cleanly.
p = x ** 4 - x ** 2 - 0.1 * x
res = solve_order(PmiProgram(1, p, [box]), 2)
grid = np.linspace(-1, 1, 100001)
truth = (grid ** 4 - grid ** 2 - 0.1 * grid).min()
print(f"\nasymmetric quartic: bound {res.lower_bound:.9f} vs grid "
      f"{truth:.9f}, x* = {res.extracted}, certified={res.certified}")

# Polynomial equalities restrict the support: x^2 = x means x in {0, 1}.
res = solve_order(PmiProgram(1, -x, [PolyMatrix.from_scalar(x * (1 - x))],
                             [x * x - x]), 2)
print("min -x with x^2 = x:", res.lower_bound, "x* =", res.extracted)
