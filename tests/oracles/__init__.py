"""Reference implementations that the package no longer uses: the sparse
``MPoly`` t-polynomial, vector, solution and operator layers (the last with
the sparse symbolic curvature and the K_a that the scalar pointwise checks
evaluate), the whole-matrix rescaling K_a kernel and the pair-by-pair
flatness loop over it, the p-curvature as a pairwise tree of K_a
products and the singular-point mask as a loop over R-factors, the
dense symbolic curvature on the z-box, the symbolic qKZ and KZ checks on
int64 stacks with a tracked reduction bound, the scalar row elimination
behind rank, det and solve, the back
substitution behind the Pochhammer basis matrix, the solution values
contracted from the coefficient arrays, the sampling loop of
the ``ext_kappa`` points, the per-call lexsort renderer, the
Pochhammer identity battery as a loop over m and over pairs (i, j), and the
table loops (factor tables, Pochhammer rows, Stirling and Pascal) that one
recurrence replaced, the per-degree loops of the factor products that
one windowed product replaced, and the per-axis curvature battery and
duality check on a stack of C_a that the whole-stack readers of hat-C_a
replaced.  Tests compare the production paths with them."""
