"""Walkthrough: the p-curvature of the discrete connection.

Composing the step operator p times around one axis gives the p-curvature
C_a(z); its reduced form hat-C_a = C_a - 1 measures the obstruction to a
full basis of flat sections. The solution span sits inside its kernel and
contains its image, forcing hat-C_a hat-C_b = 0.

Run:  python3 demos/03_curvature_structure.py
"""

from charp_qkz import make_field, make_params
from charp_qkz.dense import dense_total_degrees
from charp_qkz.ffield import sample_point
from charp_qkz.pcurvature import (
    battery_points,
    curvature_stack,
    curvature_symbolic,
    kernel_image_ranks,
    reduced_curvature_at,
    verify_curvature_battery,
)

p, n = 7, 4
ctx = make_field(p)
pctx = make_field(p, 2)

for kv in range(1, p):
    params = make_params(ctx, n, kv)
    Z = battery_points(params, 20, 0)  # the battery's points for (20 points, seed 0)
    rep = verify_curvature_battery(params, Z, curvature_stack(params, Z))
    shape = "0 < d < n-1" if 0 < params.d < n - 1 else "degenerate (hat-C = 0)"
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"kappa={kv}: d={params.d} [{shape}]  [{verdict}] at {rep.details['points']} points")
    assert rep.passed

# rank/kernel structure at a sample point for an intermediate d
params = make_params(ctx, n, 2)  # d = 1
z = sample_point(pctx, n, 3)  # an (n, 2) array of (a0, a1) pairs
ranks = kernel_image_ranks(params, z)
print(f"\nkappa=2, d={params.d}: per-axis rank of hat-C_a on the zero-sum space")
for a in range(1, n + 1):
    print(f"  a={a}: rank {ranks[a]['rank']}, kernel dim {ranks[a]['kernel_dim']}")
print(f"  dim of the span of all images: {ranks['sum_image_dim']}")

# symbolic shape: after clearing the scalar factor D_a, the numerator matrix
# is purely polynomial with total degree at most (n-2)p.  Both come as dense
# coefficient arrays in the variables w_j = z_a - z_j, j != a (axes w_2, w_3
# here): Ctil of shape (n, n, ...), Da of the same w-shape.  The w_j are
# independent linear forms in z, so the total degrees are those in z;
# dense_total_degrees reads stacks of entries: axis 0 the stack, axis 1 the entry.
print("\nsymbolic curvature at p=5, n=3, kappa=2:")
params = make_params(make_field(5), 3, 2)
Ctil, Da = curvature_symbolic(params, 1)
deg = dense_total_degrees(Ctil.reshape((1, -1) + Da.shape))[0]
print(f"  denominator D_1 has degree {dense_total_degrees(Da[None, None])[0]}; numerator degree {deg} <= (n-2)p = 5")
