"""Walkthrough: the duality between the step-kappa and step-(-kappa) systems.

The Shapovalov form pairs solutions of the two systems. Two facts fall out:
  * orthogonality: the pairing of any step-kappa solution with any
    step-(-kappa) solution (negated arguments) is the zero polynomial when
    0 < d(kappa) < n-1;
  * quasi-sections: when d(kappa) = 0 the flat structure survives as
    rational sections T^ell dual to the step-(-kappa) solutions.

Run:  python3 demos/02_orthogonality_and_quasi_sections.py
"""

from charp_qkz import make_field, make_params
from charp_qkz.ffield import elements, sample_point
from charp_qkz.hypergeo import quasi_sections_at, solution_values, verify_orthogonality

# -- orthogonality ------------------------------------------------------------
p, n, kv = 7, 4, 5
ctx = make_field(p)
params = make_params(ctx, n, kv)
print(f"p={p}, n={n}, kappa={kv}: d(kappa)={params.d}, d(-kappa)={params.minus().d}")

# each entry is a polynomial in z_1..z_n, decided zero from its values on
# the grid (F_p u {infinity})^n
rep = verify_orthogonality(params)
rows, cols = rep.details["shape"]
print(f"pairing matrix is {rows} x {cols}; all entries zero polynomials:")
print(" ", rep.passed)

# -- quasi-sections at d(kappa) = 0 -------------------------------------------
p, n, kv = 5, 2, 2
ctx = make_field(p)
pctx = make_field(p, 2)
params = make_params(ctx, n, kv)
print(f"\np={p}, n={n}, kappa={kv}: d(kappa)={params.d} (no polynomial solutions)")

dual = params.minus()
print(f"the step-(-kappa) system has d(-kappa)={dual.d} solution(s)")

# a point is an (n, 2) array of (a0, a1) pairs, read back as a0 + a1*g
z = sample_point(pctx, n, 6)
(T,) = quasi_sections_at(params, z)
print(f"at z = {[str(v) for v in elements(z, pctx)]}:")
print(f"  T^1(z) = {[str(v) for v in T]}")

# duality normalization: S(Q(-z; -kappa), T^1(z)) = 1, with the dual
# solution evaluated at -z (straight from the master product, without
# building its coefficient arrays)
values = solution_values(dual, -z[None] % p)
qdual = elements(values[0, 0], pctx)
val = sum((q * t for q, t in zip(qdual, T)), pctx.zero())
print(f"  pairing with the dual solution: {val}")
assert val == pctx.one()
