import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_graph
from kcut.acceptance import _dominance_corpus, _random_graph
from kcut.errors import CapExceeded
from kcut import relaxations
from kcut.graphs import Graph, named_graph
from kcut.relaxations import (
    RelaxationKind,
    build,
    cutting_plane_loop,
    independent_set_cuts,
    separate_triangles,
    triangle_cuts,
)
from kcut.sdp import SolverOptions, certify, solve
from kcut.spectra import lambda_max


def test_build_shapes():
    g = named_graph("cycle", (5,))
    main = build(g, 3, RelaxationKind.MAIN_SDP)
    assert main.obj_scale == 0.5
    assert main.cone == "shifted_psd" and main.cone_k == 3
    assert np.array_equal(main.diag_values, np.ones(5))
    assert np.array_equal(main.elementwise_lower, np.zeros((5, 5)))

    fj = build(g, 3, RelaxationKind.FRIEZE_JERRUM)
    assert fj.obj_scale == 2.0 / 6.0
    assert fj.cone == "psd"
    assert np.allclose(fj.elementwise_lower, -0.5)

    eig = build(g, 3, RelaxationKind.EIG_SDP)
    assert eig.trace_value == 5.0 and eig.diag_values is None

    pert = build(g, 3, RelaxationKind.PERTURBED_SDP)
    assert np.allclose(pert.diag_values, 2.0 / 3.0)
    assert pert.elementwise_lower is None

    with pytest.raises(ValueError):
        build(g, 6, RelaxationKind.MAIN_SDP)


def test_triangle_cut_counts():
    assert len(triangle_cuts(3)) == 3
    assert len(triangle_cuts(5)) == 30
    assert len(triangle_cuts(28)) == 9828
    _, C, b = next(triangle_cuts(3).blocks())
    assert b[0] == 1.0 and np.array_equal(C[0], [1.0, 1.0, -1.0])
    # 3 C(127,3) = 1,000,125 cuts exceed the cap shared with independent sets
    with pytest.raises(CapExceeded):
        triangle_cuts(127)


def test_separate_triangles():
    assert len(separate_triangles(np.ones((4, 4)))) == 0
    assert len(separate_triangles(np.eye(4))) == 0
    Y = np.eye(3)
    Y[0, 1] = Y[1, 0] = 1.0
    Y[0, 2] = Y[2, 0] = 1.0  # y_01 = y_02 = 1, y_12 = 0: apex 0 violated by 1
    cuts = separate_triangles(Y, max_cuts=10, violation_tol=1e-6)
    assert len(cuts) == 1
    assert np.array_equal(next(cuts.blocks())[0], [[[0, 1], [0, 2], [1, 2]]])

    # respects max_cuts and sorts by violation
    Y = np.ones((5, 5)) * 0.9
    np.fill_diagonal(Y, 1.0)
    Y[3, 4] = Y[4, 3] = -0.5
    found = separate_triangles(Y, max_cuts=2, violation_tol=1e-6)
    assert len(found) == 2


def test_separate_triangles_refuses_negative_max_cuts(rng):
    # a negative count was applied as a slice after each apex, keeping an
    # arbitrary share of the violated cuts
    A = rng.uniform(-1.0, 1.0, (8, 8))
    Y = (A + A.T) / 2.0
    assert len(separate_triangles(Y, max_cuts=0)) == 0
    for max_cuts in (-1, -5):
        with pytest.raises(ValueError, match="max_cuts"):
            separate_triangles(Y, max_cuts=max_cuts)


@pytest.mark.parametrize("Y, max_cuts, match", [
    (np.full((5, 5), np.nan), 2000, "^Y must be finite"),
    (np.eye(5) + np.diag([np.inf, 0, 0, 0, 0]), 2000, "^Y must be finite"),
    (np.ones((4, 5)), 2000, "^Y must be a square matrix"),
    (np.ones(4), 2000, "^Y must be a square matrix"),
    (np.eye(4), 2.5, "^max_cuts must be an integer"),
    (np.eye(4), "10", "^max_cuts must be an integer"),
], ids=["nan", "inf", "not_square", "vector", "fractional_max_cuts", "string_max_cuts"])
def test_separate_triangles_refuses_bad_input(Y, max_cuts, match):
    # a non-finite or non-square Y gave no cuts, which reads as "nothing
    # violated", and a fractional max_cuts passed with no violation to slice
    with pytest.raises(ValueError, match=match):
        separate_triangles(Y, max_cuts=max_cuts)


def _pair(i, j):
    return (i, j) if i < j else (j, i)


def _ref_triangle(i, j, k):
    # y_ij + y_ik <= 1 + y_jk with apex i, one cut at a time
    return (_pair(i, j), _pair(i, k), _pair(j, k)), (1.0, 1.0, -1.0), 1.0


def _one_block(cuts, ref):
    # cuts is one block (none for an empty ref) holding the (pairs, coeffs,
    # rhs) rows of ref, in order
    blocks = list(cuts.blocks())
    if not ref:
        return not blocks
    return len(blocks) == 1 and all(map(np.array_equal, blocks[0], zip(*ref)))


def test_array_families_equal_cut_by_cut_construction():
    for n in range(3, 10):
        ref = []
        for a, b, c in itertools.combinations(range(n), 3):
            ref += (_ref_triangle(a, b, c), _ref_triangle(b, a, c), _ref_triangle(c, a, b))
        assert _one_block(triangle_cuts(n), ref), n
        for k in (2, 3):
            if k + 1 <= n:
                ref = [(tuple(itertools.combinations(Q, 2)), (-1.0,) * math.comb(k + 1, 2), -1.0)
                       for Q in itertools.combinations(range(n), k + 1)]
                assert _one_block(independent_set_cuts(n, k), ref), (n, k)


def test_triangle_family_memory():
    # 976,500 cuts as one block of arrays; one object per cut took
    # about 336 B per cut (313 MiB)
    tracemalloc.start()
    try:
        cuts = triangle_cuts(126)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cuts) == 976_500
    assert peak <= 160 * len(cuts)


def _ref_separate(Y, max_cuts, violation_tol):
    # every violated (apex, j < k) triple, sorted whole
    n = Y.shape[0]
    found = [(Y[i, j] + Y[i, k] - Y[j, k] - 1.0, (i, j, k))
             for i in range(n) for j, k in itertools.combinations(range(n), 2)
             if i not in (j, k)]
    found = sorted((t for t in found if t[0] > violation_tol), key=lambda t: (-t[0], t[1]))
    return [_ref_triangle(*ijk) for _, ijk in found[:max_cuts]]


def test_separate_triangles_matches_reference(rng):
    for n in (3, 4, 9, 16):
        for rounded in (False, True):
            A = rng.uniform(-1.0, 1.0, (n, n))
            Y = (A + A.T) / 2.0
            if rounded:
                Y = np.round(Y, 1)  # many equal violations: the tie-break decides
            for max_cuts in (1, 5, 2000):
                cuts = separate_triangles(Y, max_cuts, 1e-5)
                assert _one_block(cuts, _ref_separate(Y, max_cuts, 1e-5))


def test_separate_triangles_memory_is_quadratic(rng):
    # one apex at a time: the n^3 violation array took 122 MiB at n = 200
    A = rng.uniform(-1.0, 1.0, (200, 200))
    tracemalloc.start()
    try:
        cuts = separate_triangles((A + A.T) / 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cuts) == 2000
    assert peak <= 8 * 2**20


def test_independent_set_cuts():
    assert len(independent_set_cuts(5, 2)) == 10
    assert len(independent_set_cuts(28, 2)) == 3276
    P, C, b = next(independent_set_cuts(4, 2).blocks())
    assert b[0] == -1.0 and all(C[0] == -1.0)
    assert P.shape[1] == 3
    with pytest.raises(CapExceeded):
        independent_set_cuts(73, 3)  # C(73,4) = 1,088,430 cuts


def test_cutting_plane_loop_pentagon():
    g = named_graph("cycle", (5,))
    sol = cutting_plane_loop(g, 2, families=("triangles",))
    assert abs(sol.objective_value - 25.0 / 6.0) <= 1e-4
    objs = sol.info["round_objectives"]
    assert all(b <= a + 1e-6 for a, b in zip(objs, objs[1:]))

    sol2 = cutting_plane_loop(g, 2, families=("triangles", "independent_sets"))
    assert abs(sol2.objective_value - 4.0) <= 1e-4


def test_cutting_plane_loop_reports_round_dual_bounds():
    # every round certifies an upper bound on a relaxation the final round
    # only tightens, so none may fall below the final objective
    sol = cutting_plane_loop(named_graph("cycle", (5,)), 2, families=("triangles",))
    bounds = sol.info["round_dual_bounds"]
    assert len(bounds) == len(sol.info["round_objectives"]) >= 2
    obj, tol = sol.objective_value, SolverOptions().tol_gap
    assert all(b >= obj - tol * (1 + abs(obj)) for b in bounds)
    assert bounds[-1] == sol.dual_bound


def _family_model(g, k, families):
    model = build(g, k, RelaxationKind.MAIN_SDP)
    if "triangles" in families:
        model.cuts.extend(triangle_cuts(g.n))
    if "independent_sets" in families:
        model.cuts.extend(independent_set_cuts(g.n, k))
    return model


def test_cutting_plane_loop_certifies_against_whole_families():
    cases = [(g, ("triangles",)) for g in _dominance_corpus()[:8]]
    cases.append((named_graph("cycle", (5,)), ("triangles", "independent_sets")))
    tol = SolverOptions().tol_eq
    for g, families in cases:
        sol = cutting_plane_loop(g, 2, families=families)
        assert sol.status == "optimal"
        rep = certify(_family_model(g, 2, families), sol, tol)
        assert rep.passed, (g.name, rep)


def test_cut_loop_past_n_20_certifies():
    # the fourth PCG64(11) draw, after n = 16, 20 and 16, a G(24, 1/2): its
    # second solve, with 6,072 triangles, certifies in 7,050 iterations
    # extrapolating at every second iteration, 36,000 at every iteration
    rng = np.random.Generator(np.random.PCG64(11))
    for n in (16, 20, 16):
        _random_graph(n, 0.5, rng)
    sol = cutting_plane_loop(_random_graph(24, 0.5, rng), 2)
    assert sol.status == "optimal" and sol.iterations <= 10_000


def test_cutting_plane_loop_round_count():
    # Petersen's main_sdp optimum at k = 2 satisfies every triangle
    sol = cutting_plane_loop(named_graph("petersen"), 2, families=("triangles",))
    assert len(sol.info["round_objectives"]) == 1 and sol.info["num_cuts"] == 0

    g = named_graph("cycle", (5,))
    sol = cutting_plane_loop(g, 2, families=("triangles", "independent_sets"))
    base = solve(build(g, 2, RelaxationKind.MAIN_SDP))
    objs = sol.info["round_objectives"]
    assert len(objs) == 2 and objs[0] == base.objective_value
    assert sol.info["num_cuts"] == 30 + 10


def test_cutting_plane_loop_checks_caps_before_solving(monkeypatch):
    # 3 C(127,3) triangle cuts exceed the cap: refused before the base solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the cap check")

    monkeypatch.setattr(relaxations, "solve", no_solve)
    g = Graph(n=127, weights=np.zeros((127, 127)))
    with pytest.raises(CapExceeded):
        cutting_plane_loop(g, 2, families=("triangles",))
    with pytest.raises(CapExceeded):
        cutting_plane_loop(g, 5, families=("independent_sets",))


def test_main_equals_frieze_jerrum(rng):
    for _ in range(4):
        g = random_graph(int(rng.integers(5, 10)), 0.5, rng)
        for k in (2, 3):
            a = solve(build(g, k, RelaxationKind.MAIN_SDP)).objective_value
            b = solve(build(g, k, RelaxationKind.FRIEZE_JERRUM)).objective_value
            assert abs(a - b) <= 1e-5


def test_k2_nonnegativity_redundant(rng):
    for _ in range(4):
        g = random_graph(int(rng.integers(5, 11)), 0.5, rng)
        main = solve(build(g, 2, RelaxationKind.MAIN_SDP)).objective_value
        pert = solve(build(g, 2, RelaxationKind.PERTURBED_SDP)).objective_value
        assert abs(main - pert) <= 1e-5


def test_main_equals_perturbed_with_lower_bound(rng):
    # adding Y >= -J/k to the perturbed relaxation recovers the main one
    for _ in range(3):
        g = random_graph(int(rng.integers(5, 9)), 0.6, rng)
        k = int(rng.integers(2, 5))
        main = solve(build(g, k, RelaxationKind.MAIN_SDP)).objective_value
        pert = build(g, k, RelaxationKind.PERTURBED_SDP)
        pert.elementwise_lower = np.full((g.n, g.n), -1.0 / k)
        boxed = solve(pert).objective_value
        assert abs(main - boxed) <= 1e-5


def test_walk_regular_equalities_small():
    for g in [named_graph("petersen"), named_graph("cycle", (6,))]:
        lam = lambda_max(g)
        for k in (2, 3):
            closed = g.n * (k - 1) / (2.0 * k) * lam
            pert = solve(build(g, k, RelaxationKind.PERTURBED_SDP)).objective_value
            assert abs(pert - closed) <= 1e-5
        main = solve(build(g, 2, RelaxationKind.MAIN_SDP)).objective_value
        assert abs(main - g.n / 4.0 * lam) <= 1e-5
