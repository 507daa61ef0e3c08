"""The acceptance suite: every reproducible numerical claim, one check each.

Each group is a generator that yields ``(name, passed, detail)`` once the
check's own work is done; `checks` runs one group and times every check,
and `run` executes the requested groups and reports one pass/fail line per
check.  The same registry backs tests/test_acceptance.py and the
`kcut reproduce` command.

Printed reference values are reproduced at the precision they carry: the
source truncates bounds to two decimals, so checks compare against the
underlying exact constants (e.g. 7(4+sqrt2) for the Coxeter bound, 25/6 for
the pentagon-with-triangles optimum) and additionally assert that two-decimal
truncation reproduces the printed figure where the two differ.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    SrgParameters,
    chromatic_lower_bound,
    complete_graph_maxkcut,
    eigenvalue_bound,
    hoffman_bound,
    srg_sdp_bound,
)
from .graphs import Graph, Partition, cut_weight, laplacian, named_graph
from .hamming import (
    HammingHypothesisError,
    _first_coordinate_cut,
    conjecture_grid,
    first_coordinate_qcut,
    hamming_graph,
    hamming_lambda,
    hamming_tightness_certificate,
    in_conjecture_hypothesis,
)
from .oracle import brute_force_maxkcut, brute_force_table, hyperplane_round
from .relaxations import (
    RelaxationKind,
    build,
    independent_set_cuts,
    triangle_cuts,
)
from .sdp import SdpSolution, SolverOptions, certify, solve
from .spectra import idempotent_basis, lambda_max

__all__ = ["CheckResult", "GROUPS", "checks", "run"]


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str
    runtime_s: float


def _trunc2(v: float) -> str:
    return f"{math.floor(v * 100.0 + 1e-9) / 100.0:.2f}"


def _solved(g, k, kind):
    return solve(build(g, k, kind)).objective_value


# a certified gap of at most tol_gap * (1 + |objective|) fits inside the 1e-5
# closed-form gates for every objective up to 99
_TIGHT = SolverOptions(tol_gap=1e-7)


def _tight(g, k, kind):
    return solve(build(g, k, kind), _TIGHT)


def _matches(sol, ref: float) -> bool:
    """A solve against the closed-form optimum ``ref``: the objective within
    1e-5, and the certified dual bound no lower than ``ref`` (up to
    rounding) and at most 1e-5 above it."""
    return (sol.dual_bound is not None and abs(sol.objective_value - ref) <= 1e-5
            and -1e-9 * (1.0 + abs(ref)) <= sol.dual_bound - ref <= 1e-5)


_COXETER_EIG = 7.0 * (4.0 + math.sqrt(2.0))  # printed as 37.89
_PENTAGON_MAIN = 4.5225424859373686  # 5/4 * (2 + golden ratio), printed 4.52
_PENTAGON_TRI = 25.0 / 6.0  # printed as 4.16


def _solver_work(sol) -> str:
    return (f"iterations={sol.iterations} aa_steps={sol.info['aa_steps']} "
            f"working_cuts={sol.info['working_cuts']}")


def _solve_with_cuts(g, k, cuts):
    model = build(g, k, RelaxationKind.MAIN_SDP)
    model.cuts.extend(cuts)
    return solve(model)


def group_pentagon():
    g0 = time.perf_counter()
    g = named_graph("cycle", (5,))
    v = solve(build(g, 2, RelaxationKind.MAIN_SDP)).objective_value
    yield ("main_sdp_k2_equals_4.5225", abs(v - _PENTAGON_MAIN) <= 5e-3,
           f"value {v:.6f} vs {_PENTAGON_MAIN:.6f} (printed 4.52)")

    tri = triangle_cuts(5)
    vt = _solve_with_cuts(g, 2, tri).objective_value
    yield ("all_30_triangles_give_4.16",
           len(tri) == 30 and abs(vt - _PENTAGON_TRI) <= 5e-3 and _trunc2(vt) == "4.16",
           f"value {vt:.6f} vs 25/6 = {_PENTAGON_TRI:.6f}, truncates to {_trunc2(vt)}")

    vi = _solve_with_cuts(g, 2, tri + independent_set_cuts(5, 2)).objective_value
    yield "triangles_plus_indep_give_4.00", abs(vi - 4.0) <= 5e-3, f"value {vi:.6f} vs 4.00"

    total = time.perf_counter() - g0
    yield "runtime_under_5s", total < 5.0, f"{total:.2f}s"


def group_coxeter():
    g = named_graph("coxeter")
    eig = eigenvalue_bound(g, 2).value
    yield ("eigenvalue_bound_7(4+sqrt2)",
           abs(eig - _COXETER_EIG) <= 1e-9 and _trunc2(eig) == "37.89",
           f"value {eig:.6f}, truncates to {_trunc2(eig)} (printed 37.89)")

    main = solve(build(g, 2, RelaxationKind.MAIN_SDP)).objective_value
    yield ("main_sdp_k2_equals_eigenvalue_bound", abs(main - eig) <= 5e-3,
           f"main {main:.6f} vs eig {eig:.6f}")

    tri = triangle_cuts(28)
    sol = _solve_with_cuts(g, 2, tri)
    vt = sol.objective_value
    yield ("all_9828_triangles_give_36.75", len(tri) == 9828 and abs(vt - 36.75) <= 5e-3,
           f"{len(tri)} cuts, value {vt:.6f} vs 36.75, {_solver_work(sol)}")

    indep = independent_set_cuts(28, 2)
    sol = _solve_with_cuts(g, 2, tri + indep)
    vi = sol.objective_value
    yield ("triangles_plus_3276_indep_give_36.00",
           len(indep) == 3276 and abs(vi - 36.0) <= 5e-3,
           f"{len(indep)} indep cuts, value {vi:.6f} vs 36.00, {_solver_work(sol)}")

    t0 = time.perf_counter()
    _, cut = brute_force_maxkcut(g, 2)
    t_brute = time.perf_counter() - t0
    yield ("brute_force_maxcut_36", cut == 36.0,
           f"max-cut {cut} over 2^27 labelings in {t_brute:.1f}s")
    yield "brute_force_under_10min", t_brute < 600.0, f"{t_brute:.1f}s"


def group_kneser():
    g = named_graph("kneser", (6, 2))
    eig = eigenvalue_bound(g, 2).value
    yield "eigenvalue_bound_33.75", abs(eig - 33.75) <= 1e-9, f"value {eig:.6f}"

    main = solve(build(g, 2, RelaxationKind.MAIN_SDP)).objective_value
    yield "main_sdp_equals_33.75", abs(main - 33.75) <= 5e-3, f"value {main:.6f}"

    vi = _solve_with_cuts(g, 2, independent_set_cuts(15, 2)).objective_value
    yield "indep_cuts_give_30.00", abs(vi - 30.0) <= 5e-3, f"value {vi:.6f} vs 30.00"


def group_complete():
    g0 = time.perf_counter()
    reps = {}
    wrong = ""
    for n in range(2, 13):
        table = brute_force_table(named_graph("complete", (n,)), n)
        for k in range(2, n + 1):
            rep = reps[n, k] = complete_graph_maxkcut(n, k)
            brute = max(table[j][0] for j in range(1, k + 1))
            if brute != rep.value:
                wrong = f"K_{n} k={k}: closed {rep.value} vs brute {brute}"
    yield ("closed_form_equals_brute_force_n_le_12", not wrong,
           wrong or "exact match for all 2 <= k <= n <= 12")

    rep = complete_graph_maxkcut(12, 8)
    yield ("K12_k8_exact_62_rounded_bound_63",
           rep.value == 62.0 and rep.metadata["rounded_eigenvalue_bound"] == 63,
           f"exact {rep.value}, rounded bound {rep.metadata['rounded_eigenvalue_bound']}")

    wrong = ""
    for (n, k), rep in reps.items():
        rounded_tight = rep.metadata["rounded_eigenvalue_bound"] == int(rep.value)
        if rounded_tight != rep.metadata["rounded_bound_tight"]:
            wrong = f"K_{n} k={k}: predicate vs observed rounded-bound equality"
    yield ("tightness_predicate_e(k-e)<2k", not wrong,
           wrong or "predicate matches observed equality for all tested (n, k)")

    total = time.perf_counter() - g0
    yield "runtime_under_2min", total < 120.0, f"{total:.1f}s"


def _regular_corpus():
    return [
        named_graph("petersen"),
        named_graph("cycle", (5,)),
        named_graph("cycle", (6,)),
        named_graph("cycle", (8,)),
        named_graph("complete", (7,)),
        named_graph("complete_multipartite", (3, 2)),
        named_graph("kneser", (6, 2)),
        named_graph("coxeter"),
        hamming_graph(2, 3, 1),
        hamming_graph(3, 2, 2),
    ]


def group_chromatic():
    W = (1.0 - np.eye(100)).copy()
    W[0, 1] = W[1, 0] = 0.0
    g = Graph(n=100, weights=W, name="K_100 minus edge")
    rep = chromatic_lower_bound(g)
    yield ("K100_minus_edge_ceiling_99", rep.metadata["ceiling"] == 99,
           f"value {rep.value:.4f}, ceiling {rep.metadata['ceiling']}")

    hof = hoffman_bound(g)
    yield ("K100_minus_edge_hoffman_51", hof.metadata["ceiling"] == 51,
           f"value {hof.value:.4f}, ceiling {hof.metadata['ceiling']}")

    worst = max(abs(chromatic_lower_bound(rg).value - hoffman_bound(rg).value)
                for rg in _regular_corpus())
    yield ("regular_graphs_new_bound_equals_hoffman", worst <= 1e-9,
           f"worst |new - hoffman| = {worst:.2e} over the regular corpus")


def _random_graph(n: int, p: float, rng) -> Graph:
    W = (rng.random((n, n)) < p).astype(float)
    W = np.triu(W, 1)
    W = W + W.T
    return Graph(n=n, weights=W, name=f"G({n},{p})")


def _dominance_corpus():
    # 20 seeded graphs, sizes cycling 6..13 so the k=4 oracle stays in cap
    rng = np.random.Generator(np.random.PCG64(20240601))
    sizes = [6, 7, 8, 9, 10, 11, 12, 13]
    graphs = []
    for t in range(20):
        n = sizes[t % len(sizes)]
        g = _random_graph(n, 0.5, rng)
        if g.total_weight == 0.0:
            g = _random_graph(n, 0.5, rng)
        graphs.append(g)
    return graphs


def group_dominance():
    # the chain check reads every solve: the eig_sdp solves and the k = 2
    # pairs are kept from the two checks before it
    corpus = _dominance_corpus()
    eigs = {}
    ok = True
    worst = cert = 0.0
    for i, g in enumerate(corpus):
        lam = lambda_max(g)
        for k in (2, 3, 4):
            sol = eigs[i, k] = _tight(g, k, RelaxationKind.EIG_SDP)
            closed = g.n * (k - 1) / (2.0 * k) * lam
            worst = max(worst, abs(sol.objective_value - closed))
            cert = max(cert, abs(sol.dual_bound - closed))
            ok = ok and _matches(sol, closed)
    yield ("eig_sdp_matches_closed_form", ok,
           f"worst |solved - n(k-1)/(2k) lambda_max| = {worst:.2e}, "
           f"|dual bound - closed| = {cert:.2e}")

    pairs = {(i, 2): (_solved(g, 2, RelaxationKind.PERTURBED_SDP),
                      _solved(g, 2, RelaxationKind.MAIN_SDP)) for i, g in enumerate(corpus)}
    worst = max(abs(impr - main) for impr, main in pairs.values())
    yield "k2_impr_equals_main", worst <= 1e-5, f"worst |impr - main| at k=2: {worst:.2e}"

    worst = 0.0
    detail = ""
    for i, g in enumerate(corpus):
        table = brute_force_table(g, 4)
        for k in (2, 3, 4):
            if k > 2:
                pairs[i, k] = (_solved(g, k, RelaxationKind.PERTURBED_SDP),
                               _solved(g, k, RelaxationKind.MAIN_SDP))
            eig = eigs[i, k].objective_value
            impr, main = pairs[i, k]
            brute = max(table[j][0] for j in range(1, k + 1))
            gaps = (impr - eig, main - impr, brute - main)
            worst = max(worst, *gaps)
            if any(gap > 1e-5 for gap in gaps):
                detail = f"{g.name} k={k}: eig {eig:.8f} impr {impr:.8f} main {main:.8f} brute {brute}"
    yield ("chain_eig_ge_impr_ge_main_ge_brute", not detail,
           detail or f"20 graphs, k in 2..4; worst slack violation {worst:.2e}")


def group_walkregular():
    corpus = [named_graph("petersen")]
    corpus += [named_graph("cycle", (n,)) for n in range(5, 11)]
    corpus += [hamming_graph(2, 3, 1), hamming_graph(3, 2, 2)]
    lams = [lambda_max(g) for g in corpus]
    worst = cert = 0.0
    detail = ""
    for g, lam in zip(corpus, lams):
        for k in (2, 3, 4):
            closed = g.n * (k - 1) / (2.0 * k) * lam
            sol = _tight(g, k, RelaxationKind.PERTURBED_SDP)
            impr = sol.objective_value
            worst = max(worst, abs(impr - closed))
            cert = max(cert, abs(sol.dual_bound - closed))
            if not _matches(sol, closed):
                detail = (f"{g.name} k={k}: impr {impr:.8f}, dual bound {sol.dual_bound:.8f}"
                          f" vs closed {closed:.8f}")
    yield ("perturbed_equals_eigenvalue_bound", not detail,
           detail or f"worst deviation {worst:.2e}, dual bound {cert:.2e} (k in 2..4)")

    worst = cert = 0.0
    detail = ""
    for g, lam in zip(corpus, lams):
        sol = _tight(g, 2, RelaxationKind.MAIN_SDP)
        main = sol.objective_value
        closed = g.n / 4.0 * lam
        worst = max(worst, abs(main - closed))
        cert = max(cert, abs(sol.dual_bound - closed))
        if not _matches(sol, closed):
            detail = (f"{g.name} k=2: main {main:.8f}, dual bound {sol.dual_bound:.8f}"
                      f" vs closed {closed:.8f}")
    yield ("k2_main_equals_eigenvalue_bound", not detail,
           detail or f"worst deviation {worst:.2e}, dual bound {cert:.2e}")


def group_srg():
    pent = named_graph("cycle", (5,))
    pet = named_graph("petersen")
    params = {
        "pentagon": (pent, SrgParameters(5, 2, 0, 1)),
        "petersen": (pet, SrgParameters(10, 3, 0, 1)),
    }
    worst = cert = 0.0
    detail = ""
    for name, (g, p) in params.items():
        # the closed form is stated for 2 <= k < n, which trims k=5 for the pentagon
        for k in range(2, min(6, p.n)):
            closed = srg_sdp_bound(p, k).value
            sol = _tight(g, k, RelaxationKind.MAIN_SDP)
            main = sol.objective_value
            worst = max(worst, abs(closed - main))
            cert = max(cert, abs(sol.dual_bound - closed))
            if not _matches(sol, closed):
                detail = (f"{name} k={k}: closed {closed:.8f} vs main {main:.8f},"
                          f" dual bound {sol.dual_bound:.8f}")
    yield ("closed_form_matches_main_sdp_k2..5", not detail,
           detail or f"worst deviation {worst:.2e}, dual bound {cert:.2e}")

    base = solve(build(pet, 2, RelaxationKind.MAIN_SDP)).objective_value
    with_tri = _solve_with_cuts(pet, 2, triangle_cuts(10)).objective_value
    yield ("petersen_triangles_do_not_improve", abs(base - with_tri) < 1e-5,
           f"main {base:.8f}, with triangles {with_tri:.8f}")

    vt = _solve_with_cuts(pent, 2, triangle_cuts(5)).objective_value
    yield ("pentagon_triangles_drop_to_4.16",
           abs(vt - _PENTAGON_TRI) <= 5e-3 and _trunc2(vt) == "4.16",
           f"value {vt:.6f} vs 25/6, truncates to {_trunc2(vt)}")


def _hamming_instances(cap: int, dmin: int = 2):
    """Hypothesis-satisfying (d, q, j) with q^d <= cap."""
    out = []
    d = dmin
    while 2**d <= cap:
        q = 2
        while q**d <= cap:
            for j in range(1, d + 1):
                if in_conjecture_hypothesis(d, q, j):
                    out.append((d, q, j))
            q += 1
        d += 1
    return out


def group_hamming():
    t0 = time.perf_counter()
    reports = conjecture_grid(30, 15)
    grid_t = time.perf_counter() - t0
    failures = [(r.d, r.q) for r in reports if not r.passed]
    yield ("conjecture_grid_d30_q15_passes", not failures,
           f"{len(reports)} (d,q) pairs checked exactly in {grid_t:.1f}s"
           + (f"; failures {failures[:3]}" if failures else ""))
    yield "conjecture_grid_under_1min", grid_t < 60.0, f"{grid_t:.1f}s"

    # exact tightness identity for every hypothesis instance with q^d <= 729
    # (d = 1 is the complete-graph family, verified separately on a sample:
    # q = 2, j = 1 lies outside the hypothesis)
    detail = ""
    instances = _hamming_instances(729, dmin=2)
    for d, q, j in instances:
        try:
            if not hamming_tightness_certificate(d, q, j).tight:
                detail = f"H({d},{q},{j}): cut below the eigenvalue bound"
        except HammingHypothesisError as exc:
            detail = str(exc)
    for q in (2, 3, 5, 9, 27):
        lam = hamming_lambda(1, q, 1)
        _, cut = first_coordinate_qcut(1, q, 1)
        if 2 * q * cut != q * (q - 1) * lam:
            detail = f"H(1,{q},1) identity failed"
    yield ("qcut_equals_eigenvalue_bound_exactly", not detail,
           detail or f"{len(instances)} instances with q^d <= 729 (d >= 2), plus d=1 samples")

    # solved relaxation vs the bound, small sizes, every k <= q
    worst = 0.0
    detail = ""
    count = 0
    for d, q, j in _hamming_instances(81, dmin=2):
        g = hamming_graph(d, q, j)
        lam = hamming_lambda(d, q, j)
        for k in range(2, q + 1):
            bound = (q**d) * (k - 1) / (2.0 * k) * lam
            v = solve(build(g, k, RelaxationKind.MAIN_SDP)).objective_value
            err = abs(v - bound) / (1.0 + abs(bound))
            worst = max(worst, err)
            count += 1
            if err > 1e-5:
                detail = f"H({d},{q},{j}) k={k}: solved {v:.6f} vs bound {bound:.6f}"
    yield ("main_sdp_equals_bound_for_k_le_q", not detail,
           detail or f"{count} solves (q^d <= 81), worst scaled error {worst:.2e}")

    # lambda_max of H(d,q,d) via the numeric eigensolver
    diag = [(d, q) for d, q, j in _hamming_instances(729, dmin=2) if j == d]
    diag += [(1, q) for q in (2, 3, 7, 16)]
    detail = ""
    for d, q in diag:
        lam = lambda_max(hamming_graph(d, q, d))
        expect = q * (q - 1) ** (d - 1)
        if abs(lam - expect) > 1e-8:
            detail = f"H({d},{q},{d}): lambda_max {lam} vs {expect}"
    yield ("lambda_max_H(d,q,d)_is_q(q-1)^(d-1)", not detail,
           detail or f"{len(diag)} instances within 1e-8")

    # each graph is built again rather than held: the 45 take 45 MB together
    detail = ""
    for d, q in diag:
        g = hamming_graph(d, q, d)
        ceil = chromatic_lower_bound(g).metadata["ceiling"]
        colors_cut_all = _first_coordinate_cut(g, q)[1] == g.total_weight
        if ceil != q or not colors_cut_all:
            detail = f"H({d},{q},{d}): chromatic ceiling {ceil}, proper coloring {colors_cut_all}"
    yield ("chromatic_number_of_H(d,q,d)_is_q", not detail,
           detail or "lower-bound ceiling q and the q-cut colors properly")


def group_properties():
    corpus = _regular_corpus() + [named_graph("complete", (6,))]
    worst = 0.0
    detail = ""
    for g in corpus:
        basis = idempotent_basis(g)
        Fs = basis.projectors
        n = g.n
        resid = float(np.max(np.abs(sum(Fs) - np.eye(n))))
        resid = max(resid, float(np.max(np.abs(Fs[0] - 1.0 / n))))
        L = laplacian(g).L
        recon = sum(lam * F for lam, F in zip(basis.eigenvalues, Fs))
        resid = max(resid, float(np.max(np.abs(recon - L))))
        for i, Fi in enumerate(Fs):
            resid = max(resid, abs(float(np.trace(Fi)) - basis.multiplicities[i]))
            for j2, Fj in enumerate(Fs):
                expect = Fi if i == j2 else 0.0
                resid = max(resid, float(np.max(np.abs(Fi @ Fj - expect))))
        worst = max(worst, resid)
        if resid > 1e-8:
            detail = f"{g.name}: idempotent residual {resid:.2e}"
    yield ("idempotent_basis_identities", not detail,
           detail or f"worst residual {worst:.2e} over {len(corpus)} named graphs")

    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 16))
        g = _random_graph(n, 0.5, rng)
        L = laplacian(g).L
        for _ in range(5):
            k = int(rng.integers(2, 6))
            p = Partition(assignment=rng.integers(0, k, size=n), k=k)
            X = p.incidence()
            trace_form = 0.5 * float(np.trace(X.T @ L @ X))
            worst = max(worst, abs(cut_weight(g, p) - trace_form))
    yield ("cut_weight_equals_trace_form", worst <= 1e-9,
           f"worst |cut - tr-form| = {worst:.2e} over 100 random partitions")

    detail = ""
    for g, k in [(named_graph("cycle", (5,)), 2), (named_graph("complete_multipartite", (3, 2)), 3)]:
        model = build(g, k, RelaxationKind.MAIN_SDP)
        sol = solve(model)
        part, val = hyperplane_round(sol, g, k, trials=1000, seed=11)
        part2, val2 = hyperplane_round(sol, g, k, trials=1000, seed=11)
        feasible = part.n == g.n and part.assignment.max() < k
        if not feasible or val > sol.objective_value + 1e-6 or val != val2:
            detail = f"{g.name} k={k}: rounded {val}, objective {sol.objective_value:.6f}"
        _, exact = brute_force_maxkcut(g, k)
        if val > exact:
            detail = f"{g.name} k={k}: rounded {val} above exact {exact}"
    yield ("rounding_feasible_and_bounded", not detail,
           detail or "rounded cuts feasible, deterministic, and below the relaxation")

    g = named_graph("complete_multipartite", (3, 2))
    model = build(g, 3, RelaxationKind.MAIN_SDP)
    part = Partition(assignment=np.repeat(np.arange(3), 2), k=3)
    X = part.incidence()
    rep = certify(model, SdpSolution.from_matrix(model, X @ X.T), tol=1e-9)
    yield ("combinatorial_point_feasible_for_main_sdp", rep.passed,
           f"min cone eig {rep.cone_min_eigenvalue:.2e}")


GROUPS = {
    "pentagon": group_pentagon,
    "coxeter": group_coxeter,
    "kneser": group_kneser,
    "complete": group_complete,
    "chromatic": group_chromatic,
    "dominance": group_dominance,
    "walkregular": group_walkregular,
    "srg": group_srg,
    "hamming": group_hamming,
    "properties": group_properties,
}


def checks(group: str):
    """Run one acceptance group, yielding a CheckResult per check.

    A check's runtime is the time since the previous check of the group
    was yielded, or since the group started for the first; the clock
    restarts after each yield, so what the consumer does between results
    is not counted and a group's runtimes add up to at most its wall time.
    """
    t0 = time.perf_counter()
    for name, passed, detail in GROUPS[group]():
        yield CheckResult(group, name, bool(passed), detail, time.perf_counter() - t0)
        t0 = time.perf_counter()


def run(only=None, emit=None) -> list[CheckResult]:
    """Run acceptance groups (all by default); returns every CheckResult and
    emits one pass/fail line per check through ``emit``."""
    names = list(GROUPS) if not only else [n for n in GROUPS if n in set(only)]
    unknown = set(only or []) - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown acceptance groups: {sorted(unknown)}")
    results = []
    for name in names:
        for res in checks(name):
            results.append(res)
            if emit:
                emit(f"[{'PASS' if res.passed else 'FAIL'}] {res.group}/{res.name} "
                     f"({res.runtime_s:.1f}s) {res.detail}")
    return results
