"""Reference implementations that the package no longer uses: the sparse
``MPoly`` t-polynomial, vector and solution layers, and the whole-matrix
rescaling K_a kernel.  Tests compare the production paths with them."""
