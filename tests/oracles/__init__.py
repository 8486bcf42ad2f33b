"""Reference implementations that the package no longer uses: the sparse
``MPoly`` t-polynomial, vector, solution and operator layers (the last with
the sparse symbolic curvature), the whole-matrix rescaling K_a kernel, and
the dense symbolic curvature on the z-box.  Tests compare the production
paths with them."""
