"""Walkthrough: construct the polynomial solutions of a rational sl2 qKZ
system over F_p and verify the difference equations symbolically.

Run:  python3 demos/01_build_and_verify_solutions.py
"""

from charp_qkz import make_field, make_params
from charp_qkz.dense import render_polynomials
from charp_qkz.hypergeo import extract_solutions, leading_term_data, verify_leading_terms
from charp_qkz.qkz_core import verify_qkz_solution

# The system lives on K^n-valued functions of (z_1, ..., z_n) and asks
# s(z - kappa e_a) = K_a(z) s(z) for difference operators K_a built from
# rational R-matrices. Over F_p, for kappa in F_p^x, there are exactly
# d(kappa) = floor(n*k/p) polynomial solutions, where kappa*k = -1 mod p.

for p, n, kv in [(5, 2, 3), (7, 3, 5), (7, 4, 2)]:
    ctx = make_field(p)
    params = make_params(ctx, n, kv)
    print(f"\np={p}, n={n}, kappa={kv}:  k={params.k}, d(kappa)={params.d}")

    # the solutions are held as one int64 array of shape (d, n, k+1, ..., k+1):
    # entry [ell-1, a-1] is coordinate a of solution ell, with axes z_1..z_n
    ss = extract_solutions(params)
    texts = render_polynomials(ss.arrays, p)
    for ell, (deg, coords) in enumerate(zip(ss.degrees(), texts), start=1):
        print(f"  solution #{ell}, degree {deg} (= n*k - {ell}*p):")
        for i, coord in enumerate(coords, start=1):
            print(f"    [{i}] {coord}")

        # the leading term has a closed form: monomial (z1...zr)^k z_{r+1}^a
        # times an explicit constant vector
        lt = leading_term_data(params, ell)
        print(f"    predicted leading monomial {lt.monomial}, vector {[str(v) for v in lt.u]}")

        # exact symbolic check of the denominator-cleared difference equation
        rep = verify_qkz_solution(params, ss.arrays[ell - 1])
        print(f"    {rep.summary()}")
        assert rep.passed

    # the leading terms of every solution against the closed form
    if params.d:
        rep = verify_leading_terms(params)
        print(f"  {rep.summary()}")
        assert rep.passed
