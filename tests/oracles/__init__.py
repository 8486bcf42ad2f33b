"""Reference implementations that the package no longer uses: the sparse
``MPoly`` t-polynomial, vector and solution layers.  Tests compare the
dense production paths with them."""
