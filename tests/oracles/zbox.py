"""The symbolic p-curvature in the variables z_1..z_n, on a z-box whose z_a
axis has size (n-1)p + 1, with D_a Id held in the left half of a
(2n, n, box) stack; and the exact expansion of an array in the variables
w_j = z_a - z_j into that box.  The package builds tilde-C_a and D_a in
w (``pcurvature.curvature_symbolic``); this is the reference it is
compared with, built on the int64 R-factor kernel of ``oracles.symbolic``."""

from __future__ import annotations

from math import comb

import numpy as np

from charp_qkz.qkz_core import QkzParams, r_factors
from oracles.symbolic import apply_r_factors


def _symbolic_box(params: QkzParams, a: int) -> tuple[int, ...]:
    """The z-exponent box of tilde-C_a and D_a: each of the p(n-1) factors
    raises the degree in z_a and in one z_j (j != a) by one."""
    p, n = params.p, params.n
    return tuple((n - 1) * p + 1 if i == a else p + 1 for i in range(1, n + 1))


def _symbolic_product(params: QkzParams, a: int, factors) -> tuple[np.ndarray, np.ndarray]:
    """(N - D Id, D) for the product of the given R-factors of K_a applied
    to [Id; Id], N the product of their numerators and D of their
    denominators."""
    p, n = params.p, params.n
    S = np.zeros((2 * n, n) + _symbolic_box(params, a), dtype=np.int64)
    corner = (0,) * n
    for i in range(n):
        S[(i, i) + corner] = S[(n + i, i) + corner] = 1
    forms = [(j, (a - 1 - n, j - 1 - n), c) for j, c in factors]
    left, right = apply_r_factors(S[:n], S[n:], a, forms, p)
    return (right - left) % p, left[0, 0]


def curvature_symbolic(params: QkzParams, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(tilde-C_a, D_a) as dense coefficient arrays, shapes (n, n, box) and
    (box), axes z_1..z_n; the z_a axis has size (n-1)p + 1, the others p + 1.

    C_a is the product of the R-factors of K_a(z - m kappa e_a), m = 0..p-1,
    the factor (j, c_j) of K_a becoming (j, c_j + m kappa).  Applied to
    [Id; Id], their denominators u - 1 leave D_a Id in the left half and
    their numerators u - P leave D_a C_a in the right, so tilde-C_a is the
    right half minus the left.  Prime-field kappa only.
    """
    if params.k is None:
        raise ValueError("the symbolic curvature requires kappa in F_p^x")
    kv = params.kappa.val
    factors = [f for m in range(params.p) for f in r_factors(params, a, m * kv)]
    return _symbolic_product(params, a, factors)


def d_a_closed_form(params: QkzParams, a: int) -> np.ndarray:
    """prod_{j != a} (x^p - y^p - 1 - kappa^{p-1} (x - y - 1)), x = z_a and
    y = z_j, as a dense array in the box of ``curvature_symbolic``: the
    identity (t; kappa)_p = t^p - kappa^{p-1} t at t = x - y - 1, with
    t^p = x^p - y^p - 1 in characteristic p.  Prime-field kappa only."""
    p, n = params.p, params.n
    kp = pow(params.kappa.val, p - 1, p)
    D = np.zeros(_symbolic_box(params, a), dtype=np.int64)
    D[(0,) * n] = 1
    for j in range(1, n + 1):
        if j == a:
            continue
        out = (kp - 1) * D
        # the monomial terms: (variable axis, exponent, coefficient)
        for ax, e, c in ((a - 1, p, 1), (j - 1, p, -1), (a - 1, 1, -kp), (j - 1, 1, kp)):
            hi, lo = [slice(None)] * n, [slice(None)] * n
            hi[ax], lo[ax] = slice(e, None), slice(0, -e)
            out[tuple(hi)] += c * D[tuple(lo)]
        D = out % p
    return D


def w_to_z(A: np.ndarray, a: int, n: int, p: int) -> np.ndarray:
    """An array whose last n - 1 axes are w_j = z_a - z_j (j != a, in
    increasing order), expanded exactly in z_1..z_n and reduced mod p: each
    w_j^e becomes sum_k C(e, k) (-1)^k z_a^(e-k) z_j^k.  The z_j axis keeps
    the size of the w_j axis, and the z_a axis holds the sum of their
    degrees; leading axes are kept."""
    lead = A.ndim - (n - 1)
    sizes = A.shape[lead:]
    za = sum(sizes) - len(sizes) + 1
    T = np.zeros(A.shape[:lead] + (za,) + sizes, dtype=np.int64)
    T[(slice(None),) * lead + (0,)] = A % p
    for i, s in enumerate(sizes):
        ax = lead + 1 + i
        out = np.zeros_like(T)
        for e in range(s):
            for k in range(e + 1):
                dst, src = [slice(None)] * T.ndim, [slice(None)] * T.ndim
                dst[lead], src[lead] = slice(e - k, za), slice(0, za - (e - k))
                dst[ax], src[ax] = k, e
                out[tuple(dst)] += comb(e, k) * (-1) ** k % p * T[tuple(src)]
        T = out % p
    return np.moveaxis(T, lead, lead + a - 1)
