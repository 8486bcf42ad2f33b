"""The per-call renderer of dense coefficient stacks: every nonzero term
sorted by one ``np.lexsort`` and its text built one variable at a time.
``dense.render_polynomials`` reads a cached print-order table per box shape
instead; this is the reference it is compared with."""

from __future__ import annotations

import numpy as np


def render_polynomials_lexsort(arrays: np.ndarray, p: int) -> list[list[str]]:
    """The d lists of n strings ``dense.render_polynomials`` returns for a
    (d, n, ...) stack with entries in [0, p)."""
    d, n = arrays.shape[:2]
    idx = np.nonzero(arrays)
    exps = idx[2:]
    order = np.lexsort(tuple(-e for e in reversed(exps)) + (-sum(exps), idx[1], idx[0]))
    terms = np.array([str(c) for c in range(p)], dtype=object)[arrays[idx][order]]
    for i, (e, size) in enumerate(zip(exps, arrays.shape[2:]), start=1):
        tokens = np.array(
            [""] + [f"*z{i}"] + [f"*z{i}^{x}" for x in range(2, size)], dtype=object
        )
        terms = terms + tokens[e[order]]
    texts = terms.tolist()
    ends = np.cumsum(np.bincount(idx[0] * n + idx[1], minlength=d * n)).tolist()
    starts = [0] + ends[:-1]
    polys = [" + ".join(texts[b:e]) or "0" for b, e in zip(starts, ends)]
    return [polys[ell * n : (ell + 1) * n] for ell in range(d)]
