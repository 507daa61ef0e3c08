"""Graphs from the Hamming scheme where the eigenvalue bound is exactly tight.

H(d,q,j) joins two q-ary d-tuples when they differ in exactly j coordinates.
Its spectrum comes from Kravchuk polynomials in exact integer arithmetic, and
whenever K_j(1) is the minimal Kravchuk value, slicing the vertex set by the
first coordinate yields a q-cut that meets the eigenvalue bound exactly.
That minimality is conjectural in general (verified below on a grid) and
forced for j = d.

Run:  python demos/hamming_tight_cuts.py
"""

from kcut import (
    check_conjecture,
    first_coordinate_qcut,
    hamming_lambda,
    hamming_tightness_certificate,
    kravchuk_table,
)

if __name__ == "__main__":
    print("Kravchuk values K_j(i) for d=4, q=3 (rows j, columns i):")
    table = kravchuk_table(4, 3)
    for j, row in enumerate(table.K):
        print(f"  j={j}: {list(row)}")
    print("eigenspace multiplicities:", list(table.multiplicities))

    print("\nminimum-at-i=1 scan for d <= 12, q <= 6 (hypothesis rows only):")
    bad = 0
    for d in range(1, 13):
        for q in range(2, 7):
            rep = check_conjecture(d, q)
            bad += sum(1 for r in rep.rows if r.in_hypothesis and not r.passed)
    print("  counterexamples found:", bad)

    print("\ntight q-cuts (cut value = eigenvalue bound, exact integers):")
    for d, q, j in [(2, 3, 2), (3, 3, 3), (4, 2, 4), (2, 5, 2), (3, 4, 3)]:
        lam = hamming_lambda(d, q, j)
        _, cut = first_coordinate_qcut(d, q, j)
        rep = hamming_tightness_certificate(d, q, j)
        n = q**d
        print(f"  H({d},{q},{j}): n={n:3d}  lambda={lam:3d}  "
              f"first-coordinate {q}-cut = {cut}  tight={rep.tight}")

    print("\nthe relaxation's certified dual bound meets the eigenvalue bound for every k <= q:")
    rep = hamming_tightness_certificate(2, 4, 2, solve_k=(2, 3, 4))
    for k, (dual, bound) in rep.sdp_checks.items():
        print(f"  H(2,4,2) k={k}: dual bound {dual:.6f}  eigenvalue bound {bound:.6f}")
