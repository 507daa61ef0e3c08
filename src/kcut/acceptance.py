"""The acceptance suite: every reproducible numerical claim, one check each.

Each group function returns CheckResult rows; `run` executes the requested
groups and reports one pass/fail line per check.  The same registry backs
tests/test_acceptance.py and the `kcut reproduce` command.

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
    check_conjecture,
    first_coordinate_qcut,
    hamming_graph,
    hamming_lambda,
    in_conjecture_hypothesis,
    kravchuk_table,
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

__all__ = ["CheckResult", "GROUPS", "run"]


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str
    runtime_s: float


def _trunc2(v: float) -> str:
    return f"{math.floor(v * 100.0 + 1e-9) / 100.0:.2f}"


def _result(group, name, passed, detail, t0):
    return CheckResult(group, name, bool(passed), detail, time.perf_counter() - t0)


class _Clock:
    """Per-check time for checks that share one loop: each timed call is
    charged to the one check named, so a group's check runtimes add up to no
    more than its wall time."""

    def __init__(self):
        self.spent: dict[str, float] = {}

    def __call__(self, check, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.spent[check] = self.spent.get(check, 0.0) + time.perf_counter() - t0
        return out

    def result(self, group, name, passed, detail, check):
        return CheckResult(group, name, bool(passed), detail, self.spent.get(check, 0.0))


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


def group_pentagon() -> list[CheckResult]:
    out = []
    g0 = time.perf_counter()
    g = named_graph("cycle", (5,))

    t0 = time.perf_counter()
    sol = solve(build(g, 2, RelaxationKind.MAIN_SDP))
    v = sol.objective_value
    out.append(_result(
        "pentagon", "main_sdp_k2_equals_4.5225", abs(v - _PENTAGON_MAIN) <= 5e-3,
        f"value {v:.6f} vs {_PENTAGON_MAIN:.6f} (printed 4.52)", t0))

    t0 = time.perf_counter()
    tri = triangle_cuts(5)
    vt = _solve_with_cuts(g, 2, tri).objective_value
    out.append(_result(
        "pentagon", "all_30_triangles_give_4.16",
        len(tri) == 30 and abs(vt - _PENTAGON_TRI) <= 5e-3 and _trunc2(vt) == "4.16",
        f"value {vt:.6f} vs 25/6 = {_PENTAGON_TRI:.6f}, truncates to {_trunc2(vt)}", t0))

    t0 = time.perf_counter()
    vi = _solve_with_cuts(g, 2, tri + independent_set_cuts(5, 2)).objective_value
    out.append(_result(
        "pentagon", "triangles_plus_indep_give_4.00", abs(vi - 4.0) <= 5e-3,
        f"value {vi:.6f} vs 4.00", t0))

    t0 = time.perf_counter()
    total = t0 - g0
    out.append(_result("pentagon", "runtime_under_5s", total < 5.0, f"{total:.2f}s", t0))
    return out


def group_coxeter() -> list[CheckResult]:
    out = []
    g = named_graph("coxeter")

    t0 = time.perf_counter()
    eig = eigenvalue_bound(g, 2).value
    out.append(_result(
        "coxeter", "eigenvalue_bound_7(4+sqrt2)",
        abs(eig - _COXETER_EIG) <= 1e-9 and _trunc2(eig) == "37.89",
        f"value {eig:.6f}, truncates to {_trunc2(eig)} (printed 37.89)", t0))

    t0 = time.perf_counter()
    main = solve(build(g, 2, RelaxationKind.MAIN_SDP)).objective_value
    out.append(_result(
        "coxeter", "main_sdp_k2_equals_eigenvalue_bound", abs(main - eig) <= 5e-3,
        f"main {main:.6f} vs eig {eig:.6f}", t0))

    t0 = time.perf_counter()
    tri = triangle_cuts(28)
    sol = _solve_with_cuts(g, 2, tri)
    vt = sol.objective_value
    out.append(_result(
        "coxeter", "all_9828_triangles_give_36.75",
        len(tri) == 9828 and abs(vt - 36.75) <= 5e-3,
        f"{len(tri)} cuts, value {vt:.6f} vs 36.75, {_solver_work(sol)}", t0))

    t0 = time.perf_counter()
    indep = independent_set_cuts(28, 2)
    sol = _solve_with_cuts(g, 2, tri + indep)
    vi = sol.objective_value
    out.append(_result(
        "coxeter", "triangles_plus_3276_indep_give_36.00",
        len(indep) == 3276 and abs(vi - 36.0) <= 5e-3,
        f"{len(indep)} indep cuts, value {vi:.6f} vs 36.00, {_solver_work(sol)}", t0))

    t0 = time.perf_counter()
    _, cut = brute_force_maxkcut(g, 2)
    t_brute = time.perf_counter() - t0
    out.append(_result(
        "coxeter", "brute_force_maxcut_36", cut == 36.0,
        f"max-cut {cut} over 2^27 labelings in {t_brute:.1f}s", t0))
    t0 = time.perf_counter()
    out.append(_result(
        "coxeter", "brute_force_under_10min", t_brute < 600.0, f"{t_brute:.1f}s", t0))
    return out


def group_kneser() -> list[CheckResult]:
    out = []
    g = named_graph("kneser", (6, 2))

    t0 = time.perf_counter()
    eig = eigenvalue_bound(g, 2).value
    out.append(_result(
        "kneser", "eigenvalue_bound_33.75", abs(eig - 33.75) <= 1e-9,
        f"value {eig:.6f}", t0))

    t0 = time.perf_counter()
    main = solve(build(g, 2, RelaxationKind.MAIN_SDP)).objective_value
    out.append(_result(
        "kneser", "main_sdp_equals_33.75", abs(main - 33.75) <= 5e-3,
        f"value {main:.6f}", t0))

    t0 = time.perf_counter()
    vi = _solve_with_cuts(g, 2, independent_set_cuts(15, 2)).objective_value
    out.append(_result(
        "kneser", "indep_cuts_give_30.00", abs(vi - 30.0) <= 5e-3,
        f"value {vi:.6f} vs 30.00", t0))
    return out


def group_complete() -> list[CheckResult]:
    out = []
    g0 = time.perf_counter()
    clock = _Clock()
    all_match = True
    predicate_match = True
    worst = ""
    for n in range(2, 13):
        g = named_graph("complete", (n,))
        table = clock("match", brute_force_table, g, n)
        for k in range(2, n + 1):
            rep = clock("predicate", complete_graph_maxkcut, n, k)
            brute = max(table[j][0] for j in range(1, k + 1) if table[j] is not None)
            if brute != rep.value:
                all_match = False
                worst = f"K_{n} k={k}: closed {rep.value} vs brute {brute}"
            rounded_tight = rep.metadata["rounded_eigenvalue_bound"] == int(rep.value)
            if rounded_tight != rep.metadata["rounded_bound_tight"]:
                predicate_match = False
                worst = f"K_{n} k={k}: predicate vs observed rounded-bound equality"
    out.append(clock.result(
        "complete", "closed_form_equals_brute_force_n_le_12", all_match,
        worst or "exact match for all 2 <= k <= n <= 12", "match"))

    t0 = time.perf_counter()
    rep = complete_graph_maxkcut(12, 8)
    out.append(_result(
        "complete", "K12_k8_exact_62_rounded_bound_63",
        rep.value == 62.0 and rep.metadata["rounded_eigenvalue_bound"] == 63,
        f"exact {rep.value}, rounded bound {rep.metadata['rounded_eigenvalue_bound']}", t0))

    out.append(clock.result(
        "complete", "tightness_predicate_e(k-e)<2k", predicate_match,
        "predicate matches observed equality for all tested (n, k)", "predicate"))

    t0 = time.perf_counter()
    total = t0 - g0
    out.append(_result("complete", "runtime_under_2min", total < 120.0, f"{total:.1f}s", t0))
    return out


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


def group_chromatic() -> list[CheckResult]:
    out = []
    t0 = time.perf_counter()
    W = (1.0 - np.eye(100)).copy()
    W[0, 1] = W[1, 0] = 0.0
    g = Graph(n=100, weights=W, name="K_100 minus edge")
    rep = chromatic_lower_bound(g)
    out.append(_result(
        "chromatic", "K100_minus_edge_ceiling_99", rep.metadata["ceiling"] == 99,
        f"value {rep.value:.4f}, ceiling {rep.metadata['ceiling']}", t0))

    t0 = time.perf_counter()
    hof = hoffman_bound(g)
    out.append(_result(
        "chromatic", "K100_minus_edge_hoffman_51", hof.metadata["ceiling"] == 51,
        f"value {hof.value:.4f}, ceiling {hof.metadata['ceiling']}", t0))

    t0 = time.perf_counter()
    worst = 0.0
    for rg in _regular_corpus():
        diff = abs(chromatic_lower_bound(rg).value - hoffman_bound(rg).value)
        worst = max(worst, diff)
    out.append(_result(
        "chromatic", "regular_graphs_new_bound_equals_hoffman", worst <= 1e-9,
        f"worst |new - hoffman| = {worst:.2e} over the regular corpus", t0))
    return out


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


def group_dominance() -> list[CheckResult]:
    out = []
    # the chain check reads every solve; each is charged to one check: the
    # eig_sdp solves to the closed-form check, the k = 2 pair to the k = 2
    # check, and the oracle and the k = 3, 4 pairs to the chain
    clock = _Clock()
    chain_ok = True
    k2_ok = True
    eig_closed_ok = True
    worst_chain = worst_k2 = worst_eig = cert_eig = 0.0
    detail = ""
    for g in _dominance_corpus():
        table = clock("chain", brute_force_table, g, 4)
        lam = clock("eig", lambda_max, g)
        for k in (2, 3, 4):
            pair = "k2" if k == 2 else "chain"
            eig_sol = clock("eig", _tight, g, k, RelaxationKind.EIG_SDP)
            eig = eig_sol.objective_value
            impr = clock(pair, _solved, g, k, RelaxationKind.PERTURBED_SDP)
            main = clock(pair, _solved, g, k, RelaxationKind.MAIN_SDP)
            brute = max(table[j][0] for j in range(1, k + 1) if table[j] is not None)
            closed = g.n * (k - 1) / (2.0 * k) * lam
            gaps = (impr - eig, main - impr, brute - main)
            worst_chain = max(worst_chain, *gaps)
            if any(gap > 1e-5 for gap in gaps):
                chain_ok = False
                detail = f"{g.name} k={k}: eig {eig:.8f} impr {impr:.8f} main {main:.8f} brute {brute}"
            if k == 2:
                worst_k2 = max(worst_k2, abs(impr - main))
                if abs(impr - main) > 1e-5:
                    k2_ok = False
            worst_eig = max(worst_eig, abs(eig - closed))
            cert_eig = max(cert_eig, abs(eig_sol.dual_bound - closed))
            if not _matches(eig_sol, closed):
                eig_closed_ok = False
    out.append(clock.result(
        "dominance", "chain_eig_ge_impr_ge_main_ge_brute", chain_ok,
        detail or f"20 graphs, k in 2..4; worst slack violation {worst_chain:.2e}", "chain"))
    out.append(clock.result(
        "dominance", "k2_impr_equals_main", k2_ok,
        f"worst |impr - main| at k=2: {worst_k2:.2e}", "k2"))
    out.append(clock.result(
        "dominance", "eig_sdp_matches_closed_form", eig_closed_ok,
        f"worst |solved - n(k-1)/(2k) lambda_max| = {worst_eig:.2e}, "
        f"|dual bound - closed| = {cert_eig:.2e}", "eig"))
    return out


def group_walkregular() -> list[CheckResult]:
    out = []
    clock = _Clock()
    corpus = [named_graph("petersen")]
    corpus += [named_graph("cycle", (n,)) for n in range(5, 11)]
    corpus += [hamming_graph(2, 3, 1), hamming_graph(3, 2, 2)]
    impr_ok = main_ok = True
    worst_impr = worst_main = cert_impr = cert_main = 0.0
    detail = ""
    for g in corpus:
        lam = clock("impr", lambda_max, g)
        for k in (2, 3, 4):
            closed = g.n * (k - 1) / (2.0 * k) * lam
            sol = clock("impr", _tight, g, k, RelaxationKind.PERTURBED_SDP)
            impr = sol.objective_value
            worst_impr = max(worst_impr, abs(impr - closed))
            cert_impr = max(cert_impr, abs(sol.dual_bound - closed))
            if not _matches(sol, closed):
                impr_ok = False
                detail = (f"{g.name} k={k}: impr {impr:.8f}, dual bound {sol.dual_bound:.8f}"
                          f" vs closed {closed:.8f}")
        sol = clock("main", _tight, g, 2, RelaxationKind.MAIN_SDP)
        main = sol.objective_value
        closed2 = g.n / 4.0 * lam
        worst_main = max(worst_main, abs(main - closed2))
        cert_main = max(cert_main, abs(sol.dual_bound - closed2))
        if not _matches(sol, closed2):
            main_ok = False
            detail = (f"{g.name} k=2: main {main:.8f}, dual bound {sol.dual_bound:.8f}"
                      f" vs closed {closed2:.8f}")
    out.append(clock.result(
        "walkregular", "perturbed_equals_eigenvalue_bound", impr_ok,
        detail or f"worst deviation {worst_impr:.2e}, dual bound {cert_impr:.2e} (k in 2..4)",
        "impr"))
    out.append(clock.result(
        "walkregular", "k2_main_equals_eigenvalue_bound", main_ok,
        detail or f"worst deviation {worst_main:.2e}, dual bound {cert_main:.2e}", "main"))
    return out


def group_srg() -> list[CheckResult]:
    out = []
    pent = named_graph("cycle", (5,))
    pet = named_graph("petersen")
    params = {
        "pentagon": (pent, SrgParameters(5, 2, 0, 1)),
        "petersen": (pet, SrgParameters(10, 3, 0, 1)),
    }
    t0 = time.perf_counter()
    ok = True
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
                ok = False
                detail = (f"{name} k={k}: closed {closed:.8f} vs main {main:.8f},"
                          f" dual bound {sol.dual_bound:.8f}")
    out.append(_result(
        "srg", "closed_form_matches_main_sdp_k2..5", ok,
        detail or f"worst deviation {worst:.2e}, dual bound {cert:.2e}", t0))

    t0 = time.perf_counter()
    base = solve(build(pet, 2, RelaxationKind.MAIN_SDP)).objective_value
    with_tri = _solve_with_cuts(pet, 2, triangle_cuts(10)).objective_value
    out.append(_result(
        "srg", "petersen_triangles_do_not_improve", abs(base - with_tri) < 1e-5,
        f"main {base:.8f}, with triangles {with_tri:.8f}", t0))

    t0 = time.perf_counter()
    vt = _solve_with_cuts(pent, 2, triangle_cuts(5)).objective_value
    out.append(_result(
        "srg", "pentagon_triangles_drop_to_4.16",
        abs(vt - _PENTAGON_TRI) <= 5e-3 and _trunc2(vt) == "4.16",
        f"value {vt:.6f} vs 25/6, truncates to {_trunc2(vt)}", t0))
    return out


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


def group_hamming() -> list[CheckResult]:
    out = []

    t0 = time.perf_counter()
    failures = []
    for d in range(1, 31):
        for q in range(2, 16):
            rep = check_conjecture(d, q)
            if not rep.passed:
                failures.append((d, q))
    grid_t = time.perf_counter() - t0
    out.append(_result(
        "hamming", "conjecture_grid_d30_q15_passes", not failures,
        f"{29 * 14 + 14} (d,q) pairs checked exactly in {grid_t:.1f}s"
        + (f"; failures {failures[:3]}" if failures else ""), t0))
    t0 = time.perf_counter()
    out.append(_result(
        "hamming", "conjecture_grid_under_1min", grid_t < 60.0, f"{grid_t:.1f}s", t0))

    # exact tightness identity for every hypothesis instance with q^d <= 729
    # (d = 1 is the complete-graph family, verified separately on a sample)
    t0 = time.perf_counter()
    tight_ok = True
    detail = ""
    instances = _hamming_instances(729, dmin=2)
    for d, q, j in instances:
        lam = hamming_lambda(d, q, j)
        table = kravchuk_table(d, q)
        if min(table.K[j]) != table.K[j][1]:
            tight_ok = False
            detail = f"H({d},{q},{j}): lambda not maximal"
            continue
        _, cut = first_coordinate_qcut(d, q, j)
        if 2 * q * cut != (q**d) * (q - 1) * lam:
            tight_ok = False
            detail = f"H({d},{q},{j}): cut {cut} != bound"
    for q in (2, 3, 5, 9, 27):
        lam = hamming_lambda(1, q, 1)
        _, cut = first_coordinate_qcut(1, q, 1)
        if 2 * q * cut != q * (q - 1) * lam:
            tight_ok = False
            detail = f"H(1,{q},1) identity failed"
    out.append(_result(
        "hamming", "qcut_equals_eigenvalue_bound_exactly", tight_ok,
        detail or f"{len(instances)} instances with q^d <= 729 (d >= 2), plus d=1 samples", t0))

    # solved relaxation vs the bound, small sizes, every k <= q
    t0 = time.perf_counter()
    sdp_ok = True
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
                sdp_ok = False
                detail = f"H({d},{q},{j}) k={k}: solved {v:.6f} vs bound {bound:.6f}"
    out.append(_result(
        "hamming", "main_sdp_equals_bound_for_k_le_q", sdp_ok,
        detail or f"{count} solves (q^d <= 81), worst scaled error {worst:.2e}", t0))

    # lambda_max of H(d,q,d) via the numeric eigensolver; the graph and the
    # eigensolve are charged to the lambda_max check, the rest to chromatic
    clock = _Clock()
    lam_ok = True
    chrom_ok = True
    detail = ""
    diag_instances = [(d, q) for d, q, j in _hamming_instances(729, dmin=2) if j == d]
    diag_instances += [(1, q) for q in (2, 3, 7, 16)]
    for d, q in diag_instances:
        g = clock("lam", hamming_graph, d, q, d)
        lam = clock("lam", lambda_max, g)
        expect = q * (q - 1) ** (d - 1)
        if abs(lam - expect) > 1e-8:
            lam_ok = False
            detail = f"H({d},{q},{d}): lambda_max {lam} vs {expect}"
        ceil = clock("chrom", chromatic_lower_bound, g).metadata["ceiling"]
        part, _ = clock("chrom", first_coordinate_qcut, d, q, d)
        colors_cut_all = clock("chrom", cut_weight, g, part) == g.total_weight
        if ceil != q or not colors_cut_all:
            chrom_ok = False
            detail = f"H({d},{q},{d}): chromatic ceiling {ceil}, proper coloring {colors_cut_all}"
    out.append(clock.result(
        "hamming", "lambda_max_H(d,q,d)_is_q(q-1)^(d-1)", lam_ok,
        detail or f"{len(diag_instances)} instances within 1e-8", "lam"))
    out.append(clock.result(
        "hamming", "chromatic_number_of_H(d,q,d)_is_q", chrom_ok,
        detail or "lower-bound ceiling q and the q-cut colors properly", "chrom"))
    return out


def group_properties() -> list[CheckResult]:
    out = []

    t0 = time.perf_counter()
    corpus = _regular_corpus() + [named_graph("complete", (6,))]
    idem_ok = True
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
            idem_ok = False
            detail = f"{g.name}: idempotent residual {resid:.2e}"
    out.append(_result(
        "properties", "idempotent_basis_identities", idem_ok,
        detail or f"worst residual {worst:.2e} over {len(corpus)} named graphs", t0))

    t0 = time.perf_counter()
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
    out.append(_result(
        "properties", "cut_weight_equals_trace_form", worst <= 1e-9,
        f"worst |cut - tr-form| = {worst:.2e} over 100 random partitions", t0))

    t0 = time.perf_counter()
    ok = True
    detail = ""
    for g, k in [(named_graph("cycle", (5,)), 2), (named_graph("complete_multipartite", (3, 2)), 3)]:
        model = build(g, k, RelaxationKind.MAIN_SDP)
        sol = solve(model)
        part, val = hyperplane_round(sol, g, k, trials=1000, seed=11)
        part2, val2 = hyperplane_round(sol, g, k, trials=1000, seed=11)
        feasible = part.n == g.n and part.assignment.max() < k
        if not feasible or val > sol.objective_value + 1e-6 or val != val2:
            ok = False
            detail = f"{g.name} k={k}: rounded {val}, objective {sol.objective_value:.6f}"
        _, exact = brute_force_maxkcut(g, k)
        if val > exact:
            ok = False
            detail = f"{g.name} k={k}: rounded {val} above exact {exact}"
    out.append(_result(
        "properties", "rounding_feasible_and_bounded", ok,
        detail or "rounded cuts feasible, deterministic, and below the relaxation", t0))

    t0 = time.perf_counter()
    g = named_graph("complete_multipartite", (3, 2))
    model = build(g, 3, RelaxationKind.MAIN_SDP)
    part = Partition(assignment=np.repeat(np.arange(3), 2), k=3)
    X = part.incidence()
    rep = certify(model, SdpSolution.from_matrix(model, X @ X.T), tol=1e-9)
    out.append(_result(
        "properties", "combinatorial_point_feasible_for_main_sdp", rep.passed,
        f"min cone eig {rep.cone_min_eigenvalue:.2e}", t0))
    return out


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


def run(only=None, emit=None) -> list[CheckResult]:
    """Run acceptance groups (all by default); returns every CheckResult and
    emits one pass/fail line per check through ``emit``."""
    names = list(GROUPS) if not only else [n for n in GROUPS if n in set(only)]
    unknown = set(only or []) - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown acceptance groups: {sorted(unknown)}")
    results = []
    for name in names:
        for res in GROUPS[name]():
            results.append(res)
            if emit:
                emit(f"[{'PASS' if res.passed else 'FAIL'}] {res.group}/{res.name} "
                     f"({res.runtime_s:.1f}s) {res.detail}")
    return results
