import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kcut.oracle
from conftest import random_graph, random_weighted_graph
from kcut.acceptance import _random_graph
from kcut.graphs import Graph, Partition, cut_weight, named_graph
from kcut.oracle import (
    DEFAULT_STATE_CAP,
    GapReport,
    WorkCapExceeded,
    brute_force_maxkcut,
    brute_force_table,
    enumeration_states,
    gap_report,
    hyperplane_round,
    _half,
    _split,
    _tabulated,
)
from kcut.relaxations import RelaxationKind, build
from kcut.sdp import SdpSolution, SolverOptions, solve


def reference_labelings(g, k):
    """Independent oracle: every labeling in {0..k-1}^n, in lexicographic
    order, with its cut weight.  Only for tiny graphs."""
    lab = np.indices((k,) * g.n, dtype=np.int8).reshape(g.n, -1).T
    cut = np.zeros(len(lab))
    for u, v in zip(*np.nonzero(np.triu(g.weights, 1))):
        cut += g.weights[u, v] * (lab[:, u] != lab[:, v])
    return lab, cut


def reference_maxkcut(g, k):
    """Full k^n enumeration."""
    return float(reference_labelings(g, k)[1].max())


def reference_table(g, kmax):
    """Plain lexicographic scan: for each exact part count j, the best cut
    and the first canonical labeling that reaches it."""
    lab, cut = reference_labelings(g, kmax)
    prefix = np.maximum.accumulate(lab, axis=1)
    canonical = (lab[:, 0] == 0) & np.all(lab[:, 1:] <= prefix[:, :-1] + 1, axis=1)
    parts = prefix[:, -1] + 1
    table = {}
    for j in range(1, min(kmax, g.n) + 1):
        idx = np.nonzero(canonical & (parts == j))[0]
        i = idx[np.argmax(cut[idx])]
        table[j] = (float(cut[i]), lab[i].astype(np.int64))
    return table


def reference_optimum(table, k):
    """Tie rule of brute_force_maxkcut: best value, then fewest parts."""
    j = max(range(1, k + 1), key=lambda j: (table[j][0], -j))
    return table[j]


def test_brute_force_examples():
    _, v = brute_force_maxkcut(named_graph("complete", (4,)), 2)
    assert v == 4.0
    _, v = brute_force_maxkcut(named_graph("cycle", (5,)), 2)
    assert v == 4.0
    _, v = brute_force_maxkcut(named_graph("petersen"), 2)
    assert v == 12.0


def test_brute_force_matches_reference(rng):
    for n in range(4, 10):
        g = random_weighted_graph(n, 0.6, rng)
        ref = reference_table(g, 5)
        table = brute_force_table(g, 5)
        for j in range(1, min(n, 5) + 1):
            val, part = table[j]
            assert np.unique(part.assignment).size == j
            assert cut_weight(g, part) == val
            assert val == ref[j][0]
            assert np.array_equal(part.assignment, ref[j][1])
        for k in range(2, min(n, 5) + 1):
            part, val = brute_force_maxkcut(g, k)
            assert val == reference_maxkcut(g, k)
            assert np.array_equal(part.assignment, reference_optimum(ref, k)[1])


def test_partition_is_canonical_and_optimal(rng):
    g = random_graph(9, 0.5, rng)
    for k in (2, 3):
        part, val = brute_force_maxkcut(g, k)
        assert cut_weight(g, part) == val
        assert part.assignment[0] == 0
        seen = []
        for a in part.assignment:
            if a not in seen:
                seen.append(int(a))
        assert seen == sorted(seen)  # labels first-used in increasing order


def test_determinism(rng):
    g = random_graph(8, 0.5, rng)
    p1, v1 = brute_force_maxkcut(g, 3)
    p2, v2 = brute_force_maxkcut(g, 3)
    assert v1 == v2 and np.array_equal(p1.assignment, p2.assignment)


def test_work_caps():
    g = named_graph("kneser", (6, 2))  # n = 15
    with pytest.raises(WorkCapExceeded, match="states"):
        brute_force_maxkcut(g, 4, state_cap=1_000_000)
    big = Graph(n=40, weights=np.zeros((40, 40)))
    with pytest.raises(WorkCapExceeded, match="2\\^39"):
        brute_force_maxkcut(big, 2)
    assert enumeration_states(12, 12) == 4213597  # Bell(12)


def test_one_state_cap_for_every_k():
    # k = 2 honours the same cap as k >= 3
    petersen = named_graph("petersen")
    for k in (2, 3):
        assert gap_report(petersen, k, with_cuts=False, state_cap=10).exact is None


def test_gap_report_brackets_a_graph_past_the_oracle():
    # the second PCG64(12) draw, G(30, 1/2): 2^29 states at k = 2, above the
    # default cap; its max-cut, 137 by enumeration past the cap, lies in the bracket
    rng = np.random.Generator(np.random.PCG64(12))
    _random_graph(24, 0.5, rng)
    g = _random_graph(30, 0.5, rng)
    rep = gap_report(g, 2, with_cuts=False)
    *upper, (name, rounded) = rep.rows
    assert rep.exact is None and name == "best_rounded_cut"
    assert rep.bracket == (rounded, min(val for _, val in upper))
    assert rounded == 137.0 and 140.0 < rep.bracket[1] <= dict(upper)["main_sdp"] < 140.1
    payload = json.loads(rep.to_json())
    assert payload["exact"] is None and "gaps" not in payload
    assert payload["bracket"] == list(rep.bracket)
    lo, hi = rep.bracket
    assert f"[{lo:.6f}, {hi:.6f}]" in rep.to_text() and "exact" not in rep.to_text()


def test_table_consistency(rng):
    g = random_graph(8, 0.5, rng)
    table = brute_force_table(g, 4)
    best = [table[j][0] for j in range(1, 5) if table[j] is not None]
    for k in (2, 3, 4):
        _, v = brute_force_maxkcut(g, k)
        assert v == max(best[:k])


def test_edge_cases():
    one = Graph(n=1, weights=np.zeros((1, 1)))
    part, val = brute_force_maxkcut(one, 1)
    assert val == 0.0 and part.assignment.tolist() == [0]
    assert len(brute_force_table(one, 4)) == 2  # kmax clipped to n
    for kmax in (0, -1):
        with pytest.raises(ValueError, match="kmax >= 1"):
            brute_force_table(one, kmax)
    two = Graph(n=2, weights=np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert brute_force_maxkcut(two, 1)[1] == 0.0
    part, val = brute_force_maxkcut(two, 2)
    assert val == 3.0 and part.assignment.tolist() == [0, 1]
    tri = named_graph("complete", (3,))
    part, val = brute_force_maxkcut(tri, 2)
    assert val == 2.0 and part.assignment.tolist() == [0, 0, 1]
    for n in range(1, 9):  # k = n, odd and even n
        part, val = brute_force_maxkcut(named_graph("complete", (n,)), n)
        assert val == n * (n - 1) / 2
        assert part.assignment.tolist() == list(range(n))


def test_tie_rule_is_lexicographic(rng):
    part, _ = brute_force_maxkcut(named_graph("cycle", (5,)), 2)
    assert part.assignment.tolist() == [0, 0, 1, 0, 1]
    graphs = [named_graph("cycle", (n,)) for n in (6, 7)]
    graphs += [named_graph("petersen"), random_graph(9, 0.5, rng), random_graph(8, 0.3, rng)]
    for g in graphs:
        ref = reference_table(g, 3)
        table = brute_force_table(g, 3)
        for j in (1, 2, 3):
            assert np.array_equal(table[j][1].assignment, ref[j][1])
        for k in (2, 3):
            part, _ = brute_force_maxkcut(g, k)
            assert np.array_equal(part.assignment, reference_optimum(ref, k)[1])


def test_table_memory_is_bounded():
    g = named_graph("complete", (12,))  # Bell(12) = 4,213,597 states
    tracemalloc.start()
    try:
        table = brute_force_table(g, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table[12][0] == 66.0
    assert peak <= 64 * 2**20


def test_table_memory_follows_the_split():
    # split at a = 8: 4,140 + 17,244 tabulated rows against 281,175 at a = 6
    g = named_graph("complete", (12,))
    tracemalloc.start()
    try:
        brute_force_table(g, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _real_weighted_graph(n, rng):
    W = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.7), 1)
    return Graph(n=n, weights=W + W.T)


def test_table_values_are_cut_weights(rng):
    # on real weights the GEMM's sums round with the split; the reported
    # value is cut_weight of the reported partition
    for n in (7, 9, 11):
        g = _real_weighted_graph(n, rng)
        table = brute_force_table(g, 5)
        for val, part in table[1:]:
            assert val == cut_weight(g, part)


def test_table_does_not_depend_on_the_split(rng, monkeypatch):
    for n in range(2, 10):
        kmax = min(n, 5)
        g, real = random_weighted_graph(n, 0.6, rng), _real_weighted_graph(n, rng)
        ref, ref_real = reference_table(g, kmax), reference_table(real, kmax)
        for a in range(1, n):
            monkeypatch.setattr(kcut.oracle, "_split", lambda n, kmax, a=a: a)
            table, table_real = brute_force_table(g, kmax), brute_force_table(real, kmax)
            for j in range(1, kmax + 1):
                assert table[j][0] == ref[j][0], (n, a, j)
                assert np.array_equal(table[j][1].assignment, ref[j][1]), (n, a, j)
                assert np.array_equal(table_real[j][1].assignment, ref_real[j][1]), (n, a, j)


def test_tabulated_counts_the_half_tables():
    for n in range(1, 9):
        W = np.zeros((n, n))
        for kmax in range(1, n + 1):
            rows = _tabulated(n, kmax)
            for a in range(1, n + 1):
                count = _half(W[:a, :a], 0, kmax)[0].shape[0] + sum(
                    _half(W[a:, a:], j, kmax)[0].shape[0] for j in range(1, min(a, kmax) + 1))
                assert rows[a] == count, (n, kmax, a)


def test_split_tabulates_no_more_than_the_middle():
    for n in range(1, 65):
        for kmax in range(1, n + 1):
            if enumeration_states(n, kmax) > DEFAULT_STATE_CAP:
                break
            a, rows = _split(n, kmax), _tabulated(n, kmax)
            assert 1 <= a <= max(n - 1, 1)
            assert rows[a] <= rows[(n + 1) // 2], (n, kmax)
    assert _split(29, 2) == 15  # k = 2 ties keep ceil(n/2)
    assert _split(12, 12) == 8


def test_hyperplane_round_pentagon():
    g = named_graph("cycle", (5,))
    sol = solve(build(g, 2, RelaxationKind.MAIN_SDP))
    part, val = hyperplane_round(sol, g, 2, trials=1000, seed=3)
    assert val == 4.0  # known max-cut, found with overwhelming probability
    assert cut_weight(g, part) == val


def test_hyperplane_round_multipartite():
    g = named_graph("complete_multipartite", (3, 2))
    sol = solve(build(g, 3, RelaxationKind.MAIN_SDP))
    _, val = hyperplane_round(sol, g, 3, trials=1000, seed=5)
    assert val == 12.0


def test_hyperplane_round_degenerate_all_ones():
    g = named_graph("cycle", (4,))
    model = build(g, 2, RelaxationKind.MAIN_SDP)
    ones = SdpSolution.from_matrix(model, np.ones((4, 4)))
    part, val = hyperplane_round(ones, g, 2, trials=50, seed=9)
    assert val == 0.0  # identical vertex vectors land in one part
    assert len(set(part.assignment.tolist())) == 1


def _draws(seed, trials, k, n):
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((trials, k, n))


def _reference_round(sol, g, k, draws):
    # one trial at a time, trial t drawing block t of ``draws``: score,
    # relabel parts by first appearance, weigh with cut_weight; the first
    # trial of greatest weight wins
    w, Q = np.linalg.eigh((sol.Y + sol.Y.T) / 2.0)
    V = (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T
    best_val, best_part = -1.0, None
    for R in draws:
        relabel = {}
        a = [relabel.setdefault(int(p), len(relabel)) for p in np.argmax(R @ V, axis=0)]
        part = Partition(assignment=np.array(a), k=k)
        val = cut_weight(g, part)
        if val > best_val:
            best_val, best_part = val, part
    return best_part, best_val


def test_batched_rounding_matches_trial_by_trial_reference(monkeypatch, rng):
    # in one block, and in blocks of 7 trials (BLOCK = 7 k n floats), whose
    # successive draws read the stream one draw of every trial would
    real = np.triu(rng.random((11, 11)) * (rng.random((11, 11)) < 0.6), 1)
    graphs = [named_graph("cycle", (5,)), named_graph("petersen"), random_graph(10, 0.5, rng),
              random_weighted_graph(9, 0.6, rng), Graph(n=11, weights=real + real.T)]
    for g in graphs:
        for k in (2, 3, 4):
            sol = solve(build(g, k, RelaxationKind.MAIN_SDP))
            ones = SdpSolution.from_matrix(build(g, k, RelaxationKind.MAIN_SDP),
                                           np.ones((g.n, g.n)))
            for s in (sol, ones):
                for trials, seed in ((1, 0), (1, 5), (60, 1), (100, 7)):
                    ref_part, ref_val = _reference_round(s, g, k, _draws(seed, trials, k, g.n))
                    for block in (kcut.oracle.BLOCK, 7 * k * g.n):
                        monkeypatch.setattr(kcut.oracle, "BLOCK", block)
                        part, val = hyperplane_round(s, g, k, trials=trials, seed=seed)
                        monkeypatch.undo()
                        assert val == ref_val and part.k == k, (g.name, k, trials, seed, block)
                        assert np.array_equal(part.assignment, ref_part.assignment)


def test_rounding_weighs_each_tied_partition_once(monkeypatch):
    # C_5 at k = 2: 58 of 100 trials tie at the maximum cut 4, which only
    # five partitions reach (one edge left uncut); each is weighed once, and
    # the result is the trial-by-trial reference's
    g = named_graph("cycle", (5,))
    sol = solve(build(g, 2, RelaxationKind.MAIN_SDP))
    weighed = []

    def counting(graph, part):
        weighed.append(tuple(part.assignment.tolist()))
        return cut_weight(graph, part)

    monkeypatch.setattr(kcut.oracle, "cut_weight", counting)
    for seed in range(4):
        weighed.clear()
        part, val = hyperplane_round(sol, g, 2, trials=100, seed=seed)
        assert 0 < len(weighed) == len(set(weighed)) <= 5
        ref_part, ref_val = _reference_round(sol, g, 2, _draws(seed, 100, 2, g.n))
        assert val == ref_val == 4.0
        assert np.array_equal(part.assignment, ref_part.assignment)


def test_rounding_draws_every_trial_from_one_seeded_stream(monkeypatch, rng):
    # a call seeds one PCG64 and trial t reads block t of its normal draw,
    # so fewer trials read a prefix of the same draw
    g = random_graph(10, 0.5, rng)
    sol = solve(build(g, 3, RelaxationKind.MAIN_SDP))
    made = []
    pcg64 = np.random.PCG64

    def counting(*args):
        made.append(args)
        return pcg64(*args)

    monkeypatch.setattr(np.random, "PCG64", counting)
    part, val = hyperplane_round(sol, g, 3, trials=60, seed=4)
    monkeypatch.undo()
    assert made == [(4,)]
    ref_part, ref_val = _reference_round(sol, g, 3, _draws(4, 100, 3, g.n)[:60])
    assert val == ref_val and np.array_equal(part.assignment, ref_part.assignment)


def test_rounding_memory_is_bounded():
    # G(200, 1/2) at k = 200: one draw of all 100 trials, its one-hot
    # matrix and W times it peaked at 92.5 MiB; in blocks of BLOCK floats
    # the call peaks near 1.7 MiB
    g = _random_graph(200, 0.5, np.random.Generator(np.random.PCG64(0)))
    sol = SdpSolution.from_matrix(build(g, 2, RelaxationKind.MAIN_SDP), np.eye(200))
    tracemalloc.start()
    try:
        part, val = hyperplane_round(sol, g, 200, trials=100, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cut_weight(g, part) == val
    assert peak <= 16 * 2**20


def test_rounding_rejects_non_finite_y():
    g = named_graph("cycle", (5,))
    sol = solve(build(g, 2, RelaxationKind.MAIN_SDP))
    Y = sol.Y.copy()
    Y[1, 2] = Y[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        hyperplane_round(replace(sol, Y=Y), g, 2)


def test_rounding_rejects_y_of_another_size():
    sol = solve(build(named_graph("cycle", (5,)), 2, RelaxationKind.MAIN_SDP))
    with pytest.raises(ValueError, match="6-by-6"):
        hyperplane_round(sol, named_graph("cycle", (6,)), 2)


def test_rounding_rejects_k_below_one():
    g = named_graph("cycle", (5,))
    sol = solve(build(g, 2, RelaxationKind.MAIN_SDP))
    with pytest.raises(ValueError, match="k >= 1"):
        hyperplane_round(sol, g, 0)


def test_rounding_seeded_determinism_and_bounds(rng):
    g = random_graph(8, 0.5, rng)
    sol = solve(build(g, 2, RelaxationKind.MAIN_SDP))
    p1, v1 = hyperplane_round(sol, g, 2, trials=200, seed=7)
    p2, v2 = hyperplane_round(sol, g, 2, trials=200, seed=7)
    assert v1 == v2 and np.array_equal(p1.assignment, p2.assignment)
    assert v1 <= sol.objective_value + 1e-6
    _, exact = brute_force_maxkcut(g, 2)
    assert v1 <= exact


def test_rounding_ignores_the_eigenbasis_of_repeated_eigenvalues():
    # Petersen's main-SDP Y has eigenvalues of multiplicity 5 and 4; a
    # rounding-level change to Y may rotate eigh's basis inside them, but must
    # not change the partition a seed gives
    g = named_graph("petersen")
    sol = solve(build(g, 3, RelaxationKind.MAIN_SDP))
    E = np.random.default_rng(0).standard_normal((10, 10))
    moved = replace(sol, Y=sol.Y + 1e-13 * (E + E.T))
    for seed in range(10):
        p1, v1 = hyperplane_round(sol, g, 3, trials=5, seed=seed)
        p2, v2 = hyperplane_round(moved, g, 3, trials=5, seed=seed)
        assert v1 == v2 and np.array_equal(p1.assignment, p2.assignment), seed


def test_gap_report_pentagon():
    rep = gap_report(named_graph("cycle", (5,)), 2, seed=1)
    vals = dict(rep.rows)
    assert rep.exact == 4.0
    assert abs(vals["eigenvalue_bound"] - 4.522542) <= 1e-4
    assert abs(vals["main_sdp_with_cuts"] - 4.0) <= 1e-4
    assert vals["best_rounded_cut"] == 4.0
    payload = json.loads(rep.to_json())
    assert payload["exact"] == 4.0
    assert "eigenvalue_bound" in payload["gaps"]
    text = rep.to_text()
    assert "exact" in text and "main_sdp" in text


def test_gap_report_k12_k8():
    rep = gap_report(named_graph("complete", (12,)), 8, with_cuts=False,
                     rounding_trials=50, seed=2)
    assert rep.exact == 62.0
    vals = dict(rep.rows)
    assert abs(vals["eigenvalue_bound"] - 63.0) <= 1e-9


def test_gap_report_multipartite_zero_gap():
    rep = gap_report(named_graph("complete_multipartite", (3, 2)), 3,
                     with_cuts=False, rounding_trials=200, seed=4)
    assert rep.exact == 12.0
    vals = dict(rep.rows)
    assert abs(vals["eigenvalue_bound"] - 12.0) <= 1e-9  # tight, gap zero
    assert vals["best_rounded_cut"] == 12.0


def test_gap_report_bounds_hold_under_iteration_cap():
    rep = gap_report(named_graph("cycle", (5,)), 2, options=SolverOptions(max_iter=50))
    assert rep.exact == 4.0
    for name, val in rep.rows:
        if name != "best_rounded_cut":
            assert val >= rep.exact, name


def test_gap_report_text_signs_gaps():
    text = GapReport(graph="G", k=3, rows=(("below", 9.0), ("above", 50.0 / 3.0)),
                     exact=15.0).to_text()
    assert "(-6.000000)" in text and "(+1.666667)" in text
    # the rounded cut lies below the exact value
    rep = gap_report(named_graph("petersen"), 3, with_cuts=False, rounding_trials=1, seed=0)
    lines = dict(line.split(None, 1) for line in rep.to_text().splitlines()[1:])
    assert lines["eigenvalue_bound"].endswith("(+1.666667)")
    rounded = dict(rep.rows)["best_rounded_cut"]
    assert rounded < rep.exact
    assert lines["best_rounded_cut"].endswith(f"({rounded - rep.exact:+.6f})")
    assert "+-" not in rep.to_text()
