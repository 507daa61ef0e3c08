import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import kcut.sdp
from conftest import random_graph
from kcut.acceptance import _dominance_corpus, _random_graph
from kcut.errors import CapExceeded
from kcut.graphs import Graph, Partition, named_graph
from kcut.hamming import hamming_graph
from kcut.oracle import brute_force_maxkcut, hyperplane_round
from kcut.relaxations import RelaxationKind, build, independent_set_cuts, triangle_cuts
from kcut.sdp import (
    CutList,
    SdpModel,
    SdpSolution,
    SolverOptions,
    _AA_RIDGE,
    _Anderson,
    _Cuts,
    _SolverState,
    _check_at,
    _eigh,
    certify,
    dump_model,
    solve,
)
from kcut.spectra import lambda_max


def _cut(pairs, coeffs, rhs):
    return CutList.from_arrays([pairs], [coeffs], [rhs])  # one cut, a one-row block


def _same_blocks(cuts, want):
    # cuts holds exactly the blocks want, (pairs, coeffs, rhs) arrays, in order
    got = list(cuts.blocks())
    return len(got) == len(want) and all(all(map(np.array_equal, g, w))
                                         for g, w in zip(got, want))


def test_cut_blocks_in_matrix_space():
    # cuts on the plain psd cone, two cut arities (3 and 6) in one model, and
    # active cuts whose multipliers the dual bound must recover in full; each
    # cut reads one upper-triangle entry and writes both mirrored entries
    c5 = build(named_graph("cycle", (5,)), 2, RelaxationKind.PERTURBED_SDP)
    c5.cuts.extend(triangle_cuts(5))
    petersen = build(named_graph("petersen"), 3, RelaxationKind.MAIN_SDP)
    petersen.cuts.extend(triangle_cuts(10) + independent_set_cuts(10, 3))
    assert {P.shape[1] for P, _, _ in petersen.cuts.blocks()} == {3, 6}
    active = build(named_graph("cycle", (5,)), 2, RelaxationKind.MAIN_SDP)
    active.cuts.extend(triangle_cuts(5))
    for model in (c5, petersen, active):
        sol = solve(model)
        assert sol.status == "optimal"
        assert certify(model, sol).passed
        obj = sol.objective_value
        assert sol.dual_bound >= obj - 1e-6 * (1 + abs(obj))
        assert np.array_equal(sol.Y, sol.Y.T)
    assert abs(sol.objective_value - 25.0 / 6.0) <= 1e-6  # below 4.5225 uncut


def test_model_validation():
    L = np.zeros((3, 3))
    with pytest.raises(ValueError, match="exactly one"):
        SdpModel(n=3, objective=L)
    with pytest.raises(ValueError, match="exactly one"):
        SdpModel(n=3, objective=L, diag_values=np.ones(3), trace_value=3.0)
    with pytest.raises(ValueError, match="cone_k"):
        SdpModel(n=3, objective=L, diag_values=np.ones(3), cone="shifted_psd")
    with pytest.raises(ValueError, match="out of range"):
        SdpModel(n=3, objective=L, diag_values=np.ones(3), cuts=_cut(((0, 5),), (1.0,), 1.0))
    with pytest.raises(ValueError, match="0 <= i < j"):
        _cut(((2, 1),), (1.0,), 1.0)
    # a cut with no nonzero coefficient has no halfspace to project onto
    with pytest.raises(ValueError, match="all be zero"):
        _cut(((0, 1),), (0.0,), 1.0)
    for coeffs, rhs in (((1.0, math.nan), 1.0), ((math.inf, 1.0), 1.0), ((1.0, 1.0), -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            _cut(((0, 1), (0, 2)), coeffs, rhs)


@pytest.mark.parametrize("name, value", [
    ("objective", np.diag([0.0, 0.0, 0.0, math.nan])),
    ("obj_scale", math.inf),
    ("diag_values", [1.0, 1.0, 1.0, math.inf]),
    ("trace_value", math.nan),
    ("elementwise_lower", np.full((4, 4), math.nan)),
    ("cone_k", 2.5),
    ("n", 0),
    ("n", 2.0),
])
def test_model_rejects_non_finite_data(name, value):
    # each non-finite field ran the loop into "Eigenvalues did not converge",
    # cone_k = 2.5 solved silently, n = 0 failed inside numpy and n = 2.0
    # constructed silently
    data = dict(n=4, objective=np.eye(4), diag_values=np.ones(4), cone="shifted_psd", cone_k=2)
    if name == "trace_value":
        data["diag_values"] = None
    data[name] = value
    with pytest.raises(ValueError, match=rf"^{name} must"):
        SdpModel(**data)


@pytest.mark.parametrize("name, value", [("max_iter", 2.5), ("n_cap", 1.5)])
def test_solver_options_reject_non_integer_counts(name, value):
    # max_iter = 2.5 passed the >= 1 check and failed in the loop's range
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        SolverOptions(**{name: value})


def test_cut_list_from_arrays_validates_like_cut():
    P = np.array([[[0, 1], [0, 2]], [[1, 2], [0, 2]]])
    C = np.array([[1.0, -1.0], [2.0, 0.5]])
    cuts = CutList.from_arrays(P, C, [0.5, 1.0])
    (block,) = cuts.blocks()
    assert all(map(np.array_equal, block, ([((0, 1), (0, 2)), ((1, 2), (0, 2))],
                                           [(1.0, -1.0), (2.0, 0.5)], [0.5, 1.0])))
    assert not any(a.flags.writeable for a in block)
    bad = [(P[:, :1], C, [0.5, 1.0], "matching"),
           (P[:, ::-1, ::-1], C, [0.5, 1.0], "0 <= i < j"),
           (P[:, [0, 0]], C, [0.5, 1.0], "distinct"),
           (P, np.array([[1.0, np.nan], [1.0, 1.0]]), [0.5, 1.0], "finite"),
           (P, C, [0.5, np.inf], "finite"),
           (P, np.array([[1.0, 1.0], [0.0, 0.0]]), [0.5, 1.0], "all be zero")]
    for pairs, coeffs, rhs, match in bad:
        with pytest.raises(ValueError, match=match):
            CutList.from_arrays(pairs, coeffs, rhs)


def test_cut_list_joins_and_slices_blocks():
    # + and extend share the other CutList's blocks, read-only; a range
    # slice gives views of the rows it covers, block by block
    tri, six = triangle_cuts(5), independent_set_cuts(5, 3)
    (T,), (S,) = tri.blocks(), six.blocks()
    single = _cut(((0, 2),), (1.0,), 0.1)
    assert len(tri) == 30 and len(tri[40:]) == 0 and len(tri[-4:]) == 4
    assert _same_blocks(tri[3:7], [[a[3:7] for a in T]])
    assert all(np.shares_memory(a, b) and not a.flags.writeable
               for a, b in zip(next(tri[3:7].blocks()), T))
    mixed = six[:1] + tri[:1] + single + tri[1:] + six[1:]
    assert isinstance(mixed, CutList) and len(mixed) == 3 + 29 + 4
    want = [[a[:1] for a in S], [a[:1] for a in T], next(single.blocks()),
            [a[1:] for a in T], [a[1:] for a in S]]
    assert _same_blocks(mixed, want)
    assert _same_blocks(mixed[1:4], [want[1], want[2], [a[1:2] for a in T]])
    grown = CutList()
    grown.extend(mixed)
    grown.extend(grown[:2])  # extending a CutList by a slice of itself
    assert len(grown) == 38 and _same_blocks(grown, want + want[:2])
    tail = tri[:2] + single
    longer = tail + single  # a new CutList: tail keeps its blocks
    assert len(tail) == 3 and len(longer) == 4 and len(mixed) == 36


def test_cut_list_refuses_per_cut_use():
    # a list where a CutList belongs, an integer index and a stepped slice
    # raise, naming what they were given; no per-cut object remains
    tri = triangle_cuts(5)
    with pytest.raises(TypeError, match="^cuts must be a CutList, got list"):
        SdpModel(n=5, objective=np.zeros((5, 5)), diag_values=np.ones(5), cuts=[tri[:1]])
    for join in (CutList().extend, tri.__add__):
        with pytest.raises(TypeError, match="^expected a CutList, got list"):
            join([tri[:1]])
    for index in (0, -1, np.int64(2)):
        with pytest.raises(TypeError, match="^CutList takes a slice, not"):
            tri[index]
    with pytest.raises(TypeError, match="^CutList takes a slice"):
        list(tri)
    for step in (2, -1):
        with pytest.raises(ValueError, match=f"^CutList slices take no step, got {step}"):
            tri[::step]
    assert not hasattr(kcut, "Cut") and not hasattr(kcut.sdp, "Cut")
    assert "Cut" not in kcut.sdp.__all__


def test_family_blocks_solve_like_explicit_cuts():
    # Coxeter with all 13,104 cuts: the families' blocks and the same cuts
    # added one at a time, each a one-row block, give one operator, so one
    # solve, bit for bit
    g = named_graph("coxeter")
    fams = triangle_cuts(28) + independent_set_cuts(28, 2)
    blocks, explicit = build(g, 2, RelaxationKind.MAIN_SDP), build(g, 2, RelaxationKind.MAIN_SDP)
    blocks.cuts.extend(fams)
    for P, C, b in fams.blocks():
        for row in zip(P.tolist(), C.tolist(), b.tolist()):
            explicit.cuts.extend(_cut(*row))
    assert len(explicit.cuts) == 13_104
    a, b = solve(blocks), solve(explicit)
    assert a.status == b.status == "optimal"
    assert np.array_equal(a.Y, b.Y) and a.iterations == b.iterations
    assert a.objective_value == b.objective_value and a.dual_bound == b.dual_bound


def test_appended_cut_out_of_range_is_rejected():
    # cuts extended into a model after construction skip SdpModel's own
    # index check;
    # flat position 0 * 5 + 5 would read Y[1, 0]
    model = build(named_graph("cycle", (5,)), 2, RelaxationKind.MAIN_SDP)
    model.cuts.extend(_cut(((0, 5),), (1.0,), -0.3))
    with pytest.raises(ValueError, match="out of range"):
        solve(model)
    with pytest.raises(ValueError, match="out of range"):
        certify(model, SdpSolution.from_matrix(model, np.eye(5)))


def test_eig_sdp_pentagon():
    g = named_graph("cycle", (5,))
    sol = solve(build(g, 2, RelaxationKind.EIG_SDP))
    expect = 1.25 * (2.0 + (1.0 + math.sqrt(5.0)) / 2.0)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - expect) <= 1e-6


def test_main_sdp_k3_on_triangle():
    g = named_graph("complete", (3,))
    sol = solve(build(g, 3, RelaxationKind.MAIN_SDP))
    assert abs(sol.objective_value - 3.0) <= 1e-6  # all edges cut


def test_main_sdp_coxeter():
    g = named_graph("coxeter")
    sol = solve(build(g, 2, RelaxationKind.MAIN_SDP))
    assert abs(sol.objective_value - 7.0 * (4.0 + math.sqrt(2.0))) <= 1e-4
    assert sol.status == "optimal"
    assert sol.gap is not None and abs(sol.gap) <= 1e-6 * (1 + sol.objective_value)


def test_eig_sdp_matches_closed_form(rng):
    for _ in range(6):
        n = int(rng.integers(8, 26))
        g = random_graph(n, 0.5, rng)
        lam = lambda_max(g)
        for k in (2, 5):
            sol = solve(build(g, k, RelaxationKind.EIG_SDP))
            assert abs(sol.objective_value - n * (k - 1) / (2.0 * k) * lam) <= 1e-5


def test_adding_cuts_never_increases(rng):
    g = random_graph(7, 0.6, rng)
    base = solve(build(g, 2, RelaxationKind.MAIN_SDP)).objective_value
    model = build(g, 2, RelaxationKind.MAIN_SDP)
    model.cuts.extend(triangle_cuts(7))
    cut_val = solve(model).objective_value
    assert cut_val <= base + 1e-6


def test_certify_optimal_and_bogus():
    g = named_graph("cycle", (5,))
    model = build(g, 2, RelaxationKind.MAIN_SDP)
    sol = solve(model)
    rep = certify(model, sol, tol=1e-7)
    assert rep.passed and rep.cone_ok and rep.equality_ok

    zero = SdpSolution.from_matrix(model, np.zeros((5, 5)))
    rep0 = certify(model, zero, tol=1e-7)
    assert not rep0.passed
    assert abs(rep0.equality_residual - 1.0) <= 1e-12

    # a solution violating one triangle cut by 0.1 flags exactly that cut
    model2 = build(g, 2, RelaxationKind.MAIN_SDP)
    model2.cuts.extend(_cut(((0, 1),), (1.0,), 0.4))
    Y = np.eye(5)
    Y[0, 1] = Y[1, 0] = 0.5
    bad = certify(model2, SdpSolution.from_matrix(model2, Y), tol=1e-7)
    assert not bad.cuts_ok and bad.violated_cuts == (0,)
    assert abs(bad.cut_violation - 0.1) <= 1e-12


def test_certify_reads_the_least_cone_eigenvalue():
    # Y = J/2 - eps v v^T has eigenvalues -eps, 0 (three times) and 5/2: the
    # default grouping tolerance would merge -eps with the zeros, and their
    # mean -eps/4 would pass the cone check at tol = 1e-7
    model = build(named_graph("cycle", (5,)), 2, RelaxationKind.PERTURBED_SDP)
    eps = 1.4e-7
    v = np.zeros(5)
    v[:2] = (1.0, -1.0)
    v /= math.sqrt(2.0)
    Y = 0.5 * np.ones((5, 5)) - eps * np.outer(v, v)
    rep = certify(model, SdpSolution.from_matrix(model, Y), tol=1e-7)
    assert abs(rep.cone_min_eigenvalue + eps) <= 1e-12
    assert not rep.cone_ok and not rep.passed


def test_certify_rejects_non_finite_and_asymmetric_matrices():
    model = build(named_graph("cycle", (5,)), 2, RelaxationKind.MAIN_SDP)
    Y = np.eye(5)
    Y[0, 1] = Y[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        certify(model, SdpSolution(Y=Y, objective_value=0.0, status="optimal", residuals={}))
    Y = np.eye(5)
    Y[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        certify(model, SdpSolution.from_matrix(model, Y))


def test_certify_maps_cut_violations_to_model_order():
    # arity-6 and arity-3 cuts interleaved: the residual routine groups them
    # by arity, and only the second (an arity-3 cut) is violated
    model = build(named_graph("petersen"), 3, RelaxationKind.MAIN_SDP)
    six = independent_set_cuts(10, 3)[:1]
    P, C, _ = next(triangle_cuts(10)[:1].blocks())
    model.cuts.extend(six + CutList.from_arrays(P, C, [-10.0]) + six)
    assert [P.shape[1] for P, _, _ in model.cuts.blocks()] == [6, 3, 6]
    X = Partition(assignment=np.arange(10) % 3, k=3).incidence()
    rep = certify(model, SdpSolution.from_matrix(model, X @ X.T))
    assert rep.violated_cuts == (1,) and not rep.cuts_ok
    assert rep.equality_ok and rep.cone_ok and rep.lower_ok


def test_solve_residuals_are_those_certify_reads():
    # one routine: the stop test's figures are certify's on the returned Y
    model = build(named_graph("petersen"), 3, RelaxationKind.PERTURBED_SDP)
    model.cuts.extend(triangle_cuts(10))
    sol = solve(model)
    rep = certify(model, sol)
    assert sol.status == "optimal" and rep.passed
    assert rep.equality_residual == sol.residuals["equality"]
    assert rep.cone_min_eigenvalue == sol.residuals["cone_min_eig"]
    assert rep.lower_violation == sol.residuals["lower_violation"]
    assert rep.cut_violation == sol.residuals["cut_violation"]


def test_partition_point_is_feasible_for_main_sdp(rng):
    g = named_graph("petersen")
    model = build(g, 3, RelaxationKind.MAIN_SDP)
    p = Partition(assignment=rng.integers(0, 3, size=10), k=3)
    X = p.incidence()
    rep = certify(model, SdpSolution.from_matrix(model, X @ X.T), tol=1e-9)
    assert rep.passed


# single-pair cuts Y[0,1] <= rhs on C_5 (the eig_sdp cut reads Y[0,1] + Y[0,2]),
# each contradicting the relaxation's other constraints
_INFEASIBLE_PROBES = [
    (RelaxationKind.MAIN_SDP, 2, ((0, 1),), -5.0),
    (RelaxationKind.MAIN_SDP, 3, ((0, 1),), -0.1),
    (RelaxationKind.PERTURBED_SDP, 2, ((0, 1),), -2.0),
    (RelaxationKind.EIG_SDP, 3, ((0, 1), (0, 2)), -30.0),
    (RelaxationKind.FRIEZE_JERRUM, 3, ((0, 1),), -0.6),
    (RelaxationKind.PERTURBED_SDP, 2, ((0, 1),), -0.502),  # barely: -0.5 is feasible
]


def _c5_with_cut(kind, k, pairs, rhs):
    model = build(named_graph("cycle", (5,)), k, kind)
    model.cuts.extend(_cut(pairs, (1.0,) * len(pairs), rhs))
    return model


def test_infeasible_cut_detected():
    # every probe is proved infeasible by a Farkas certificate built from the
    # multipliers' step
    for probe in _INFEASIBLE_PROBES:
        sol = solve(_c5_with_cut(*probe))
        assert sol.status == "infeasible", probe
        assert sol.iterations <= 1_000, probe
        assert sol.dual_bound is None


def test_boundary_cut_is_not_infeasible():
    # Y[0,1] = -1/2 is still feasible for perturbed_sdp at k = 2: ADMM creeps
    # towards the boundary, and no certificate may call it infeasible
    sol = solve(_c5_with_cut(RelaxationKind.PERTURBED_SDP, 2, ((0, 1),), -0.5),
                SolverOptions(max_iter=2_000))
    assert sol.status == "max_iter"


def test_max_iter_status():
    g = named_graph("cycle", (5,))
    sol = solve(build(g, 2, RelaxationKind.MAIN_SDP), SolverOptions(max_iter=10))
    assert sol.status == "max_iter"
    assert "primal" in sol.residuals


def _certified(sol, opts):
    res = sol.residuals
    return (max(res["equality"], res["lower_violation"], res["cut_violation"]) <= opts.tol_eq
            and res["cone_min_eig"] >= -opts.tol_psd
            and sol.gap <= opts.tol_gap * (1 + abs(sol.objective_value)))


def test_stop_rule_is_the_certified_test():
    # the loop stops at the first check that passes the certified test, so
    # at the schedule's previous check the same solve must still fail it;
    # perturbed_sdp at k = 2 on the dominance corpus's eighth graph needs
    # several checks, so the earlier one is a real iterate, not the start
    # point
    model = build(_dominance_corpus()[7], 2, RelaxationKind.PERTURBED_SDP)
    opts = SolverOptions()
    sol = solve(model)
    assert sol.status == "optimal" and _certified(sol, opts)
    assert sol.iterations >= 75
    previous = max(it for it in range(1, sol.iterations) if _check_at(it))
    early = solve(model, SolverOptions(max_iter=previous))
    assert early.status == "max_iter" and not _certified(early, opts)


@pytest.mark.parametrize("d, q, j, k", [(2, 9, 2, 2), (2, 9, 2, 9), (4, 3, 3, 3)])
def test_scheme_solves_stop_before_the_first_full_check(d, q, j, k):
    # these Hamming-scheme solves certify by iteration 16, a stop-only check
    sol = solve(build(hamming_graph(d, q, j), k, RelaxationKind.MAIN_SDP))
    assert sol.status == "optimal" and sol.iterations < 25


def test_stop_only_checks_leave_the_iterates_unchanged(monkeypatch):
    # main_sdp with all triangles on a G(10, 1/2) stops past the last
    # stop-only check, growing its working set at the first check and at
    # full checks; with checks at iteration 1 and every 25 iterations only,
    # it returns the same bits, and an infeasible model ends the same way
    g = random_graph(10, 0.5, np.random.Generator(np.random.PCG64(1)))
    model = build(g, 2, RelaxationKind.MAIN_SDP)
    model.cuts.extend(triangle_cuts(10))
    infeasible = _c5_with_cut(*_INFEASIBLE_PROBES[0])
    runs = []
    for schedule in (_check_at, lambda it: it == 1 or it % 25 == 0):
        monkeypatch.setattr("kcut.sdp._check_at", schedule)
        runs.append((solve(model), solve(infeasible)))
    (sol, bad), (ref, bad_ref) = runs
    assert sol.status == "optimal" and sol.iterations > 144
    assert np.array_equal(sol.Y, ref.Y) and sol.dual_bound == ref.dual_bound
    assert (sol.iterations, sol.info["working_cuts"]) == (ref.iterations,
                                                          ref.info["working_cuts"])
    assert bad.status == bad_ref.status == "infeasible"
    assert bad.iterations == bad_ref.iterations and np.array_equal(bad.Y, bad_ref.Y)


def test_working_set_grows_at_the_first_check():
    # the start point satisfies every cut of these models with slack, so
    # the working set is empty until the check at iteration 1 grows it: C_5
    # with its 30 triangle cuts took 100 iterations, and Coxeter with all
    # 13,104 triangle and independent-set cuts 225, while growth waited for
    # the first full check
    c5 = build(named_graph("cycle", (5,)), 2, RelaxationKind.MAIN_SDP)
    c5.cuts.extend(triangle_cuts(5))
    cox = build(named_graph("coxeter"), 2, RelaxationKind.MAIN_SDP)
    cox.cuts.extend(triangle_cuts(28))
    cox.cuts.extend(independent_set_cuts(28, 2))
    for model, cuts, most in ((c5, 30, 49), (cox, 13_104, 125)):
        sol = solve(model)
        assert len(model.cuts) == cuts
        assert sol.status == "optimal" and sol.iterations <= most, sol.iterations
        assert 0 < sol.info["working_cuts"] < cuts


def _assert_one_buffer(state, m):
    # (buffer, X, U_el, E, beta): X, U_el, E and beta tile the flat buffer
    buf, X, U_el, E, beta = state
    nn = X.size
    assert buf.shape == (3 * nn + m,) and beta.shape == (m,)
    start = buf.__array_interface__["data"][0]
    for a, offset in ((X, 0), (U_el, nn), (E, 2 * nn), (beta, 3 * nn)):
        assert a.base is buf
        if a.size:  # an empty view's address is the buffer's own
            assert a.__array_interface__["data"][0] == start + 8 * offset


def test_solver_state_is_views_of_one_buffer(monkeypatch):
    # without cuts E still sits in the buffer; Coxeter with all its triangle
    # cuts grows its working set at iteration 1 and again later, and each
    # growth carries the plain step over, the kept cuts' beta included
    free = _SolverState(build(named_graph("petersen"), 3, RelaxationKind.MAIN_SDP),
                        SolverOptions())
    for state in (free.x, free.y):
        _assert_one_buffer(state, 0)
    growths = []
    check = _SolverState.check

    def checked_growth(self, it):
        working, step = self.working.copy(), [a.copy() for a in self.y[1:]]
        verdict = check(self, it)
        if verdict == "grown":
            for state in (self.x, self.y):
                _assert_one_buffer(state, self.wc.size)
            _, X, U_el, E, beta = self.x
            assert all(map(np.array_equal, (X, U_el, E), step[:3]))
            kept = working[self.working]
            assert np.array_equal(beta[kept], step[3]) and not beta[~kept].any()
            growths.append((it, np.count_nonzero(beta[kept])))
        return verdict

    monkeypatch.setattr(_SolverState, "check", checked_growth)
    cox = build(named_graph("coxeter"), 2, RelaxationKind.MAIN_SDP)
    cox.cuts.extend(triangle_cuts(28))
    assert solve(cox).status == "optimal"
    assert growths[0] == (1, 0) and len(growths) > 1 and all(nz for _, nz in growths[1:])


def test_penalty_is_fixed_for_the_solve():
    # at some checks of this solve one ADMM residual exceeds the other
    # tenfold; the penalty stays at its objective-norm scale all the same
    g = _dominance_corpus()[13]
    model = build(g, 3, RelaxationKind.MAIN_SDP)
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.info["rho"] == max(
        float(np.linalg.norm(_SolverState(model, SolverOptions()).G)) / g.n, 1e-3)


def test_dominance_tail_certifies_quickly():
    # main_sdp at k = 4 on the dominance corpus's seventh graph, G(12, 1/2),
    # certifies in 700 iterations; the bound catches a return of the
    # 24,025-iteration drift it showed with the cone substituted away
    sol = solve(build(_dominance_corpus()[6], 4, RelaxationKind.MAIN_SDP))
    assert sol.status == "optimal" and sol.iterations <= 2_000


@pytest.mark.parametrize("kind", [RelaxationKind.MAIN_SDP, RelaxationKind.FRIEZE_JERRUM])
def test_small_random_solve_certifies_within_400_iterations(kind):
    # the fifth G(n, 1/2) draw from PCG64(1) over n = 6..10, a G(10, 1/2), at
    # k = 3: 650 (main_sdp) and 750 (frieze_jerrum) iterations with a 10-deep
    # Anderson history, 325 each with a 20-deep one
    rng = np.random.Generator(np.random.PCG64(1))
    for n in range(6, 11):
        g = _random_graph(n, 0.5, rng)
    sol = solve(build(g, 3, kind))
    assert sol.status == "optimal" and sol.iterations <= 400


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projection_survives_an_eigensolver_failure(monkeypatch):
    # LAPACK's eigh has failed to converge on a finite, exactly symmetric
    # matrix near Coxeter's distance algebra; the PSD projection and the
    # rounding's factorization then decompose the reversed matrix, an exact
    # permutation similarity, and go on.  The failure is injected at the
    # gufunc ``_eigh`` calls, which reports it as LAPACK's does: NaN outputs
    # and the invalid flag raised, which must not surface as a warning
    g = named_graph("petersen")
    model = build(g, 3, RelaxationKind.MAIN_SDP)
    ref = solve(model)
    ref_cut = hyperplane_round(ref, g, 3, seed=5)[1]
    eigh_lo, calls = kcut.sdp._eigh_lo, []

    def fails_once(M, at, **kwargs):
        calls.append(None)
        if len(calls) == at:
            return np.zeros(len(M)) / 0.0, np.zeros(M.shape) / 0.0
        return eigh_lo(M, **kwargs)

    monkeypatch.setattr(kcut.sdp, "_eigh_lo", lambda M, **kw: fails_once(M, 10, **kw))
    sol = solve(model)
    assert len(calls) > 10 and sol.status == "optimal"
    assert abs(sol.objective_value - ref.objective_value) <= 1e-6
    calls.clear()
    monkeypatch.setattr(kcut.sdp, "_eigh_lo", lambda M, **kw: fails_once(M, 1, **kw))
    assert hyperplane_round(ref, g, 3, seed=5)[1] == ref_cut and len(calls) == 2


def test_raw_lapack_kernels_match_numpy_linalg(rng):
    # the solver calls the LAPACK gufuncs behind np.linalg.eigh and
    # np.linalg.solve directly; a numpy release that changed either kernel
    # would change every iterate, so both are pinned here bit for bit
    for n in range(1, 82):
        M = rng.standard_normal((n, n))
        for S in (M + M.T, np.round(M + M.T)):  # the second with repeated eigenvalues
            w, Q = _eigh(S)
            ref_w, ref_Q = np.linalg.eigh(S)
            assert np.array_equal(w, ref_w) and np.array_equal(Q, ref_Q), n
    aa = _Anderson(4)
    for h in range(1, 21):
        F = rng.standard_normal((h, 30))
        gram = F @ F.T
        aa.gram[:h, :h] = gram
        aa.sq[:h] = np.diag(gram).tolist()
        tr, rhs = sum(aa.sq[:h]), F @ rng.standard_normal(30)
        ref = np.linalg.solve(gram + (_AA_RIDGE * tr) * np.eye(h), rhs)
        assert np.array_equal(aa.coefficients(h, tr, rhs), ref), h


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_acceleration_memory_is_bounded():
    # the Anderson history is O(n^2): H(4,3,4) has n = 81
    model = build(hamming_graph(4, 3, 4), 2, RelaxationKind.MAIN_SDP)
    sol, peak = _traced_peak(lambda: solve(model))
    assert sol.status == "optimal" and sol.info["aa_steps"] > 0
    assert peak <= 4 * 2**20


def test_cut_heavy_model_is_accelerated():
    # Coxeter's 13,104 cuts carry 39,312 cut entries, but the solver keeps one
    # matrix plus one multiplier per cut, so the Anderson history is
    # O(n^2 + #cuts) and this model is accelerated like any other (1,475
    # plain iterations)
    model = build(named_graph("coxeter"), 2, RelaxationKind.MAIN_SDP)
    model.cuts.extend(triangle_cuts(28) + independent_set_cuts(28, 2))
    assert len(model.cuts) == 13_104
    sol, peak = _traced_peak(lambda: solve(model))
    assert sol.status == "optimal" and abs(sol.objective_value - 36.0) <= 1e-4
    assert sol.info["aa_steps"] > 0 and sol.iterations <= 600
    assert peak <= 7.3 * 2**20


def test_working_set_certifies_against_every_cut():
    # Coxeter with all 13,104 cuts iterates on the few hundred it violates
    # along the way, and the returned matrix satisfies every one of them
    model = build(named_graph("coxeter"), 2, RelaxationKind.MAIN_SDP)
    model.cuts.extend(triangle_cuts(28) + independent_set_cuts(28, 2))
    sol = solve(model)
    assert sol.status == "optimal" and abs(sol.objective_value - 36.0) <= 1e-4
    assert certify(model, sol).passed
    assert 0 < sol.info["working_cuts"] < len(model.cuts)


def test_cut_violated_late_joins_the_working_set():
    # Y[3,7] >= -0.3 holds at the start point and at the first check of
    # perturbed_sdp k = 2 on the dominance corpus's eighth graph (-0.19),
    # but not at the uncut optimum (-0.46): the cut joins at a later check,
    # and the certified solve keeps it active
    g = _dominance_corpus()[7]
    uncut = solve(build(g, 2, RelaxationKind.PERTURBED_SDP))
    model = build(g, 2, RelaxationKind.PERTURBED_SDP)
    model.cuts.extend(_cut(((3, 7),), (-1.0,), 0.3))
    assert solve(model, SolverOptions(max_iter=25)).info["working_cuts"] == 0
    sol = solve(model)
    obj, opts = sol.objective_value, SolverOptions()
    assert sol.status == "optimal" and sol.info["working_cuts"] == 1
    assert certify(model, sol).passed
    assert sol.dual_bound >= obj - opts.tol_gap * (1 + abs(obj))
    assert obj < uncut.objective_value - 1e-3


def test_working_operator_slices_the_full_one():
    # cuts of arities 6, 3 and 1, numbered as in the CutList, one group per
    # run of one arity; every nonempty selection reads exactly the full
    # operator's values, since each cut is summed term by term whatever
    # else shares its group
    model = build(named_graph("petersen"), 3, RelaxationKind.MAIN_SDP)
    model.cuts.extend(independent_set_cuts(10, 3)[:4] + triangle_cuts(10)[:5]
                      + _cut(((1, 4),), (2.0,), 0.5))
    full = _Cuts.of(model.n, model.cuts)
    assert [IDX.shape for _, IDX, _ in full.groups] == [(6, 4), (3, 5), (1, 1)]
    M = np.random.default_rng(0).random((10, 10))
    values = full.apply(M)
    for r in range(1, full.size + 1):
        for sel in map(np.array, combinations(range(full.size), r)):
            part = full.take(sel)
            assert np.array_equal(part.apply(M), values[sel]), sel
            assert np.array_equal(part.normsq, full.normsq[sel])
            assert np.array_equal(part.rhs, full.rhs[sel])
    sel = np.array([1, 2, 9])  # spanning two of the three groups
    part = full.take(sel)
    v = np.array([0.5, -1.0, 2.0])
    w = np.zeros(full.size)
    w[sel] = v
    assert [IDX.shape for _, IDX, _ in part.groups] == [(6, 2), (1, 1)]
    assert np.allclose(part.scatter(v), full.scatter(w), rtol=0, atol=1e-15)
    assert part.count.sum() == 2 * (6 + 6 + 1)


def _random_cuts(n, arity, m, rng):
    # m cuts of one arity on distinct random upper-triangle pairs, with
    # coefficients of mixed sign spanning twelve orders of magnitude
    iu = np.transpose(np.triu_indices(n, 1))
    P = np.array([iu[rng.choice(len(iu), arity, replace=False)] for _ in range(m)])
    C = rng.standard_normal((m, arity)) * 10.0 ** rng.integers(-6, 6, (m, arity))
    return CutList.from_arrays(P, C, rng.standard_normal(m))


def _reference_apply(op, M):
    # the axis-0 sum the operator replaced
    flat = M.reshape(-1)
    return np.concatenate([np.zeros(0)] + [(COEF * flat[IDX]).sum(axis=0)
                                           for _, IDX, COEF in op.groups])


def _reference_scatter(op, v):
    # the bincount over the nonzero weights only, which the operator replaced
    n, T = op.n, np.zeros(op.n * op.n)
    for sl, IDX, COEF in op.groups:
        vg = v[sl]
        nz = np.flatnonzero(vg != 0)
        if nz.size:
            T += np.bincount(IDX.take(nz, axis=1).ravel(),
                             (COEF.take(nz, axis=1) * vg[nz]).ravel(), n * n)
    T = T.reshape(n, n)
    return T + T.T


def test_cut_kernels_match_the_reference_formulas(rng):
    # apply and normsq sum row by row, scatter reads every cut: the same
    # bytes as the axis-0 sums and the nonzero-filtered bincount, on one
    # group of each arity (one-row blocks at arity 1), on every arity in one
    # operator and on the empty one, with weights that are half zeros
    n = 9
    ops = [_Cuts.of(n, CutList())]
    families = [_random_cuts(n, a, 40, rng) for a in (1, 3, 6, 10, 15)]
    ops += [_Cuts.of(n, cuts) for cuts in families]
    seven = CutList()
    for c in range(7):
        seven.extend(families[0][c:c + 1])  # seven one-row blocks
    ops.append(_Cuts.of(n, seven))
    ops.append(_Cuts.of(n, sum(families[1:], families[0])))
    assert [len(op.groups) for op in ops] == [0, 1, 1, 1, 1, 1, 1, 5]
    for op in ops:
        ref_normsq = np.concatenate([np.zeros(0)] + [(COEF * COEF).sum(axis=0)
                                                     for _, _, COEF in op.groups])
        assert op.normsq.tobytes() == ref_normsq.tobytes()
        for _ in range(5):
            M = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 6, (n, n))
            M = M + M.T
            assert op.apply(M).tobytes() == _reference_apply(op, M).tobytes()
            v = rng.standard_normal(op.size) * 10.0 ** rng.integers(-6, 6, op.size)
            v[rng.permutation(op.size)[: op.size // 2]] = 0.0
            v[::7] *= -0.0  # zeros of both signs
            assert op.scatter(v).tobytes() == _reference_scatter(op, v).tobytes()
            if op.size:
                # a working operator: each cut reads the bytes it reads in
                # the full one, whatever its group's layout or arity
                sel = np.flatnonzero(rng.random(op.size) < 0.5)
                part = op.take(sel)
                assert part.apply(M).tobytes() == op.apply(M)[sel].tobytes()
                assert part.normsq.tobytes() == op.normsq[sel].tobytes()
                ref = _reference_scatter(part, v[sel])
                assert part.scatter(v[sel]).tobytes() == ref.tobytes()


def test_farkas_short_cut_reads_the_full_verdict(rng):
    # the Farkas test skips the eigensolve when the bound without the
    # eigenvalue shift already clears its threshold; that bound is a lower
    # bound on the shifted one, so the verdict is the full bound's
    g = named_graph("cycle", (5,))
    cut = _cut(((0, 2),), (1.0,), 0.1)
    shortcuts = full_reads = 0
    for kind in RelaxationKind:
        for k in (2, 3):
            model = build(g, k, kind)
            model.cuts.extend(triangle_cuts(5) + cut)
            state = _SolverState(model, SolverOptions())
            state.grow(np.ones(state.cuts.size, bool), np.eye(5), 0.0, 0.0, 0.0)
            for scale in (1e-8, 1e-3, 1.0, 1e3):
                d_el = rng.standard_normal((5, 5)) * scale
                d_E = rng.standard_normal((5, 5)) * scale
                d_el, d_E = d_el + d_el.T, d_E + d_E.T
                d_beta = rng.standard_normal(state.wc.size) * scale
                full = state.dual_bound(d_el, d_E, d_beta, 0.0)
                for clear in (full - abs(full), full - 1e-12 * abs(full), full,
                              full + 1e-12 * abs(full), -scale, 0.0, scale):
                    value = state.dual_bound(d_el, d_E, d_beta, 0.0, clear)
                    assert (value < clear) == (full < clear), (kind, k, scale, clear)
                    assert value == full or clear <= value < full
                    shortcuts += value < full
                    full_reads += value == full
    assert shortcuts and full_reads


def test_capped_solve_reports_the_residuals_of_its_last_check():
    # the ADMM residuals are computed only at the checks whose figures the
    # solution reports; capped between checks, a solve reports those of its
    # last check, iteration 9 under both caps
    model = build(named_graph("cycle", (5,)), 2, RelaxationKind.MAIN_SDP)
    nine, ten = (solve(model, SolverOptions(max_iter=m)) for m in (9, 10))
    assert nine.status == ten.status == "max_iter"
    assert (nine.iterations, ten.iterations) == (9, 10)
    for name in ("primal", "dual"):
        assert math.isfinite(nine.residuals[name])
        assert nine.residuals[name] == ten.residuals[name], name


def test_edgeless_dual_bounds_are_nonnegative():
    # every relaxation of an edgeless graph has optimum 0; the dual bound's
    # eigenvalue shift must cover its own rounding (bounds as low as -3.9e-34
    # read without the margin)
    for n in range(3, 16):
        g = Graph(n=n, weights=np.zeros((n, n)), name="empty")
        for k in range(2, min(5, n) + 1):
            for kind in RelaxationKind:
                sol = solve(build(g, k, kind))
                assert sol.status == "optimal" and sol.dual_bound >= 0.0, (n, k, kind)


def test_cut_groups_and_scaled_duplicates():
    # cuts of arities 1, 3 and 6 interleaved in the model's order, and one
    # triangle cut twice, the second scaled by 2: both share the factored
    # duals' matrix and differ in their multipliers, and the duplicate
    # changes neither the optimum nor its certificate
    g = named_graph("cycle", (5,))
    tri, six = triangle_cuts(5), independent_set_cuts(5, 3)
    mixed = six[:1] + tri[:1] + _cut(((0, 2),), (1.0,), 0.1) + tri[1:] + six[1:]
    P, C, b = next(tri[:1].blocks())
    dup = CutList.from_arrays(P, 2.0 * C, 2.0 * b)
    assert np.array_equal(next(dup.blocks())[1], [[2.0, 2.0, -2.0]])
    assert np.array_equal(next(dup.blocks())[2], [2.0])
    sols = []
    for cuts in (mixed, mixed + dup):
        model = build(g, 2, RelaxationKind.MAIN_SDP)
        model.cuts.extend(cuts)
        sol = solve(model)
        assert sol.status == "optimal" and certify(model, sol).passed
        assert sol.dual_bound >= sol.objective_value
        sols.append(sol)
    assert {P.shape[1] for P, _, _ in mixed.blocks()} == {1, 3, 6}
    ref = sols[0].objective_value
    assert abs(sols[1].objective_value - ref) <= SolverOptions().tol_gap * (1 + abs(ref))
    assert ref < 25.0 / 6.0 - 1e-3  # the arity-1 cut is active


def _gnp_stream(first, last):
    # successive G(n, 1/2) draws from PCG64(1) for n = first..last, as in the
    # benchmark corpora; returns the last graph
    rng = np.random.Generator(np.random.PCG64(1))
    for n in range(first, last + 1):
        W = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    return Graph(n=last, weights=W + W.T, name=f"G({last},1/2)")


def test_implied_floor_is_dropped_at_k2():
    # at k = 2 both floors read Z_ij >= -1 on a unit diagonal, which the cone
    # implies; solved without it, the G(12, 1/2) of the ladder corpus
    # certifies in a few hundred iterations (11,825 with the floor enforced)
    g = _gnp_stream(6, 12)
    opts = SolverOptions()
    v = solve(build(g, 2, RelaxationKind.PERTURBED_SDP)).objective_value
    for kind in (RelaxationKind.MAIN_SDP, RelaxationKind.FRIEZE_JERRUM):
        model = build(g, 2, kind)
        assert _SolverState(model, SolverOptions()).floor is None
        sol = solve(model)
        assert sol.status == "optimal" and sol.iterations <= 1_000
        assert abs(sol.objective_value - v) <= 1e-5 * (1 + abs(v))
        assert certify(model, sol).passed
        assert sol.residuals["lower_violation"] <= opts.tol_eq
        assert sol.dual_bound >= sol.objective_value


def test_floor_is_enforced_where_not_implied():
    g = _gnp_stream(6, 12)
    _, exact = brute_force_maxkcut(g, 3)
    for kind in (RelaxationKind.MAIN_SDP, RelaxationKind.FRIEZE_JERRUM):
        model = build(g, 3, kind)
        assert _SolverState(model, SolverOptions()).floor is not None
        sol = solve(model)
        assert sol.status == "optimal" and certify(model, sol).lower_ok
        assert sol.objective_value >= exact
    # a trace constraint bounds no single entry: its floor always stays
    trace = SdpModel(n=4, objective=np.eye(4), trace_value=4.0,
                     elementwise_lower=np.full((4, 4), -10.0))
    assert _SolverState(trace, SolverOptions()).floor is not None


def test_lightly_cut_model_is_accelerated():
    # all 660 triangle cuts on the cuts corpus's G(12, 1/2): accelerated, with
    # a history of O(n^2 + #cuts)
    model = build(_gnp_stream(8, 12), 2, RelaxationKind.MAIN_SDP)
    model.cuts.extend(triangle_cuts(12))
    sol, peak = _traced_peak(lambda: solve(model))
    assert sol.status == "optimal" and sol.info["aa_steps"] > 0
    assert peak <= 2**20


def test_relabelled_graphs_solve_to_the_same_value():
    rng = np.random.default_rng(3)
    for g, k in ((named_graph("petersen"), 3), (hamming_graph(2, 3, 2), 2)):
        base = solve(build(g, k, RelaxationKind.MAIN_SDP))
        p = rng.permutation(g.n)
        h = Graph(n=g.n, weights=g.weights[np.ix_(p, p)], name=g.name)
        moved = solve(build(h, k, RelaxationKind.MAIN_SDP))
        assert base.status == moved.status == "optimal"
        assert abs(base.objective_value - moved.objective_value) <= 1e-6 * (1 + abs(base.objective_value))


def test_n_cap():
    with pytest.raises(CapExceeded):
        solve(build(named_graph("cycle", (12,)), 2, RelaxationKind.MAIN_SDP),
              SolverOptions(n_cap=10))


def test_dual_bound_sandwiches_objective(rng):
    g = random_graph(9, 0.5, rng)
    for kind in RelaxationKind:
        sol = solve(build(g, 3, kind))
        assert sol.dual_bound is not None
        assert sol.dual_bound >= sol.objective_value - 1e-6 * (1 + abs(sol.objective_value))


def test_dump_model_format():
    g = named_graph("cycle", (4,))
    model = build(g, 2, RelaxationKind.MAIN_SDP)
    model.cuts.extend(_cut(((0, 1), (0, 2), (1, 2)), (1.0, 1.0, -1.0), 1.0))
    # a family block, then a one-row block after it
    model.cuts.extend(triangle_cuts(4))
    model.cuts.extend(_cut(((0, 3),), (0.1,), 1.0 / 3.0))
    text = dump_model(model)
    lines = text.splitlines()
    assert lines[0] == "kcut-sdp-model 1"
    assert lines[1] == "n 4"
    assert lines[2] == "obj_scale 0.5"
    assert lines[3] == "objective"
    # dense row-major objective rows
    row0 = [float(v) for v in lines[4].split()]
    assert row0 == [2.0, -1.0, 0.0, -1.0]
    assert any(ln.startswith("constraint diag") for ln in lines)
    assert "cone shifted_psd 2" in lines
    assert "cuts 14" in lines
    cut_lines = lines[-14:]
    assert cut_lines[0] == cut_lines[1] == "cut 1 3 0 1 1 0 2 1 1 2 -1"
    assert cut_lines[12] == "cut 1 3 1 3 1 2 3 1 1 2 -1"
    assert cut_lines[13] == "cut 0.33333333333333331 1 0 3 0.10000000000000001"
    # 17 significant digits read back to the very cuts, block by block
    parsed = []
    for ln in cut_lines:
        _, rhs, arity, *terms = ln.split()
        parsed.append(_cut(tuple(zip(map(int, terms[0::3]), map(int, terms[1::3]))),
                           tuple(map(float, terms[2::3])), float(rhs)))
        assert next(parsed[-1].blocks())[0].shape[1] == int(arity)
    rows = [[a[r:r + 1] for a in block] for block in model.cuts.blocks()
            for r in range(block[2].size)]
    assert _same_blocks(sum(parsed, CutList()), rows)


def test_dump_model_reads_back_the_blocks():
    # Coxeter with both families, 13,104 cuts of arity 3: the cut lines
    # parse back to exactly the concatenated blocks() arrays
    model = build(named_graph("coxeter"), 2, RelaxationKind.MAIN_SDP)
    model.cuts.extend(triangle_cuts(28) + independent_set_cuts(28, 2))
    lines = dump_model(model).splitlines()
    assert "cuts 13104" in lines
    cut_lines = [ln.split() for ln in lines if ln.startswith("cut ")]
    assert len(cut_lines) == 13_104 and {ln[2] for ln in cut_lines} == {"3"}
    terms = np.array([ln[3:] for ln in cut_lines], dtype=float).reshape(-1, 3, 3)
    P, C, b = (np.concatenate(arrays) for arrays in zip(*model.cuts.blocks()))
    assert np.array_equal(terms[..., :2], P) and np.array_equal(terms[..., 2], C)
    assert np.array_equal([float(ln[1]) for ln in cut_lines], b)
