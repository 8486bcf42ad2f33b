"""The symbolic qKZ and KZ checks as they were on int64 stacks: products of
R-factors reduced mod p only when a tracked bound on their entries would
pass 2^62, and the KZ sides reduced once at the end.  The production
``qkz_core`` kernels hold int16 stacks in [0, p) and reduce after every
factor; the z-box curvature of ``oracles.zbox`` is built on this kernel,
and tests compare the reports and arrays of both."""

from __future__ import annotations

import numpy as np

from charp_qkz.dense import dense_shift_var
from charp_qkz.qkz_core import CheckReport, QkzParams, _axis_slices, _mismatches, _pad_for_axis, r_factors


def _lin_mul(X: np.ndarray, axes: tuple, cc: int) -> np.ndarray:
    """(x - y - cc) * X inside X's (padded) shape, not reduced mod p; the
    linear form is given by the negative array axes ``axes`` = (x, y) of its
    variables, or (x,) for the form x - cc."""
    out = X * -cc
    hi, lo = _axis_slices(X.ndim, axes[0])
    out[hi] += X[lo]
    if len(axes) > 1:
        hi, lo = _axis_slices(X.ndim, axes[1])
        out[hi] -= X[lo]
    return out


def _solution_array(params: QkzParams, F: np.ndarray) -> np.ndarray:
    """F mod p (axis 0 = coordinate, then z_1..z_n) cut down to the bounding
    box of its support, at least one entry per axis."""
    if params.ctx.ext_degree != 1 or F.ndim != params.n + 1 or F.shape[0] != params.n:
        raise ValueError(f"expected a prime-field coordinate array of shape (n, ...), n={params.n}")
    F = np.asarray(F, dtype=np.int64) % params.p
    hits = np.nonzero(np.any(F, axis=0))
    return F[(slice(None),) + tuple(slice(int(h.max()) + 1 if h.size else 1) for h in hits)]


def apply_r_factors(D: np.ndarray, N: np.ndarray, a: int, factors, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiply D by the denominators u - 1 and N by the numerators
    u - P^(a,j) of R-factors (j, axes, c) of K_a; returns both reduced mod p.

    u is x - y - c, or x - c when ``axes`` holds one axis, for the negative
    array axes (x, y) of its variables: z_a and z_j, or w_j = z_a - z_j.
    Axis 0 of N indexes the coordinates, and u - P^(a,j) is u - 1 on every
    row but a and j, which swap in P.  The trailing axes must hold the
    products and the entries lie in [0, p); both are reduced only when the
    tracked bound on their entries would pass 2^62.
    """
    ra = a - 1
    bound = p
    for j, axes, c in factors:
        # a factor multiplies |entries| by at most p + 2 (0 <= c < p)
        if bound * (p + 2) >= 1 << 62:
            D, N, bound = D % p, N % p, p
        D = _lin_mul(D, axes, c + 1)
        U = _lin_mul(N, axes, c)
        rj = j - 1
        ua, uj = U[ra] - N[rj], U[rj] - N[ra]
        U -= N
        U[ra], U[rj] = ua, uj
        N, bound = U, bound * (p + 2)
    return D % p, N % p


def verify_qkz_solution(params: QkzParams, F: np.ndarray) -> CheckReport:
    """Denominator-cleared symbolic check that a solution solves the qKZ
    equations: for each a,  (prod den_a)(z) * f(z - kappa e_a) = num_a(z) f(z).

    ``F`` holds the coordinates of f as dense coefficient arrays, shape
    (n, e_1+1, ..., e_n+1) with axes z_1..z_n (one entry of
    ``SolutionSet.arrays``).  Both sides are built exactly in a shape large
    enough to hold them; failures are (a, coordinate) pairs.
    """
    p, n = params.p, params.n
    kv = params.kappa.val
    F0 = _solution_array(params, F)
    failures = []
    per_axis = {}
    for a in range(1, n + 1):
        X = _pad_for_axis(F0, a - 1, n)
        factors = [(j, (a - 1 - n, j - 1 - n), c) for j, c in r_factors(params, a)]
        lhs, rhs = apply_r_factors(dense_shift_var(X, a - 1 - n, -kv, p), X, a, factors, p)
        bad = _mismatches(a, lhs, rhs)
        failures += bad
        per_axis[a] = not bad
    return CheckReport(
        name=f"qKZ solution p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
        details={"per_axis": per_axis},
    )


def verify_kz_solution(params: QkzParams, F: np.ndarray) -> CheckReport:
    """Denominator-cleared differential KZ check:
    kappa * prod_{j != a}(z_a - z_j) * df/dz_a = num(H_a) * f, with f given
    as in :func:`verify_qkz_solution`."""
    p, n = params.p, params.n
    kv = params.kappa.val
    F0 = _solution_array(params, F)
    failures = []
    for a in range(1, n + 1):
        ax = a - 1 - n
        X = _pad_for_axis(F0, a - 1, n)
        s = X.shape[ax]
        hi, lo = _axis_slices(X.ndim, ax)
        lhs = np.zeros_like(X)
        lhs[lo] = X[hi] * (kv * np.arange(1, s) % p).reshape((s - 1,) + (1,) * (-ax - 1))
        rhs = np.zeros_like(X)
        # unreduced: each factor z_a - z_j at most doubles |entries|, so they
        # stay below n p^2 2^(n-1) < 2^62, since the padded stack has over
        # 2^(n-1) entries and n < 40 for any stack that fits in memory
        for j in range(1, n + 1):
            if j == a:
                continue
            lhs = _lin_mul(lhs, (ax, j - 1 - n), 0)
            # Gaudin term (P^(a,j) - 1) f times prod_{j2 != a, j} (z_a - z_j2)
            G = X[j - 1] - X[a - 1]
            for j2 in range(1, n + 1):
                if j2 not in (a, j):
                    G = _lin_mul(G, (ax, j2 - 1 - n), 0)
            rhs[a - 1] += G
            rhs[j - 1] -= G
        failures += _mismatches(a, lhs % p, rhs % p)
    return CheckReport(
        name=f"KZ solution p={params.p} n={n} kappa={params.kappa}",
        passed=not failures,
        failures=failures,
    )
