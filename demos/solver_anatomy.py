"""A look inside the structured SDP solver.

A relaxation is a small declarative model: a trace objective, one diagonal or
trace equality, a (possibly shifted) semidefinite cone, optional elementwise
lower bounds, and sparse cuts.  The solver runs an operator-splitting scheme
whose only heavy step is one dense eigendecomposition per iteration, and it
stops only when a dual feasible point assembled from its multipliers
certifies the gap, so every solve carries its own optimality gap.  `certify`
then re-checks the returned matrix from the model alone, with the residual
routine the stop test ran, never reading the solver's iterate.

Run:  python demos/solver_anatomy.py
"""

from kcut import (
    RelaxationKind,
    build,
    certify,
    dump_model,
    named_graph,
    separate_triangles,
    solve,
)

if __name__ == "__main__":
    g = named_graph("petersen")
    model = build(g, 3, RelaxationKind.MAIN_SDP)

    print("the model as its text dump (cross-checkable by other solvers):")
    print("\n".join(dump_model(model).splitlines()[:6] + ["  ... objective rows ..."]))

    sol = solve(model)
    print(f"\nsolved: value {sol.objective_value:.6f}  status {sol.status}  "
          f"iterations {sol.iterations}  runtime {sol.runtime:.2f}s")
    print(f"dual bound {sol.dual_bound:.6f}  gap {sol.gap:.2e}")
    print("residuals:", {key: f"{v:.1e}" for key, v in sol.residuals.items()})

    rep = certify(model, sol, tol=1e-7)
    print(f"\nindependent certification: passed={rep.passed} "
          f"(min cone eigenvalue {rep.cone_min_eigenvalue:.1e})")

    violated = separate_triangles(sol.Y, max_cuts=5, violation_tol=1e-6)
    print(f"\nmost violated triangle inequalities at the optimum: {len(violated)}")
    for cut in violated:
        print("  pairs", cut.pairs, "violation", f"{cut.value(sol.Y) - cut.rhs:.4f}")
