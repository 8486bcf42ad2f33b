"""Reference implementations that the package no longer uses: the sparse
``MPoly`` t-polynomial, vector, solution and operator layers (the last with
the sparse symbolic curvature and the K_a that the scalar pointwise checks
evaluate), the whole-matrix rescaling K_a kernel, the dense symbolic
curvature on the z-box, and the scalar row elimination behind rank, det
and solve.  Tests compare the production paths with them."""
