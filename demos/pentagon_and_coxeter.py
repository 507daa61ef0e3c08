"""How far can semidefinite bounds be pushed on two classic graphs?

The pentagon (5-cycle) and the Coxeter graph both have max-cut strictly below
every closed-form bound, so they make good stress tests for the whole ladder:

    eigenvalue bound  >=  base SDP  >=  SDP + triangle cuts
                      >=  SDP + triangle and independent-set cuts
                      >=  exact max-cut

Run:  python demos/pentagon_and_coxeter.py
"""

import time

from kcut import (
    RelaxationKind,
    brute_force_maxkcut,
    build,
    eigenvalue_bound,
    independent_set_cuts,
    named_graph,
    solve,
    triangle_cuts,
)


def ladder(g, k=2):
    print(f"--- {g.name} (n={g.n}, |E|={g.num_edges}), k={k} ---")
    eig = eigenvalue_bound(g, k)
    print(f"eigenvalue bound n(k-1)/(2k) lambda_max = {eig.value:.4f}")

    # each SDP line prints the solve's certified dual bound, an upper bound
    # on the relaxation however the solve ended
    sol = solve(build(g, k, RelaxationKind.MAIN_SDP))
    print(f"base SDP relaxation                     = {sol.dual_bound:.4f}"
          f"   ({sol.iterations} iterations, gap {sol.gap:.1e})")

    model = build(g, k, RelaxationKind.MAIN_SDP)
    tri = triangle_cuts(g.n)
    model.cuts.extend(tri)
    sol = solve(model)
    print(f"SDP + all {len(tri)} triangle cuts            = {sol.dual_bound:.4f}")

    indep = independent_set_cuts(g.n, k)
    model.cuts.extend(indep)
    sol = solve(model)
    print(f"SDP + triangles + {len(indep)} indep-set cuts   = {sol.dual_bound:.4f}")

    t0 = time.perf_counter()
    _, exact = brute_force_maxkcut(g, k)
    print(f"exact max-cut by enumeration            = {exact:g}   "
          f"({time.perf_counter() - t0:.1f}s)")
    print()


if __name__ == "__main__":
    # Pentagon: 4.5225 -> 4.1667 -> 4.0000, and the true max-cut is 4.
    ladder(named_graph("cycle", (5,)))

    # Coxeter graph: 37.8995 -> 36.75 -> 36.0; the cut bounds are tight,
    # since its max-cut is exactly 36.  The last enumeration visits 2^27
    # labelings, expect under a second.
    ladder(named_graph("coxeter"))
