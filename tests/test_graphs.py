import math

import numpy as np
import pytest

from conftest import random_graph, random_weighted_graph
from kcut.errors import CapExceeded
from kcut.graphs import (
    Graph,
    GraphFormatError,
    Partition,
    connected_components,
    cut_weight,
    laplacian,
    named_graph,
    read_graph,
    write_graph,
)


def test_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(n=2, weights=np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        Graph(n=2, weights=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="negative"):
        Graph(n=2, weights=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="weights must be finite"):
            Graph(n=2, weights=np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(ValueError, match="weights too large"):
        Graph(n=2, weights=np.array([[0.0, 1e308], [1e308, 0.0]]))
    g = named_graph("cycle", (4,))
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0  # frozen storage


def test_laplacian_k2():
    g = read_graph("2 1\n0 1")
    L = laplacian(g).L
    assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_edgeless():
    g = Graph(n=3, weights=np.zeros((3, 3)))
    lap = laplacian(g)
    assert np.array_equal(lap.L, np.zeros((3, 3)))
    assert lap.degree_sum == 0.0


def test_laplacian_c5():
    L = laplacian(named_graph("cycle", (5,))).L
    assert np.array_equal(np.diag(L), np.full(5, 2.0))
    assert np.array_equal(L.sum(axis=1), np.zeros(5))


def test_laplacian_psd_and_ones_kernel(rng):
    graphs = [
        named_graph("complete", (6,)),
        named_graph("petersen"),
        named_graph("coxeter"),
        random_weighted_graph(9, 0.4, rng),
    ]
    for g in graphs:
        L = laplacian(g).L
        assert np.linalg.eigvalsh(L)[0] >= -1e-9
        assert np.max(np.abs(L @ np.ones(g.n))) <= 1e-12


def test_cut_weight_examples():
    k4 = named_graph("complete", (4,))
    p = Partition(assignment=np.array([0, 0, 1, 1]), k=2)
    assert cut_weight(k4, p) == 4.0
    assert cut_weight(k4, Partition(assignment=np.zeros(4, dtype=int), k=3)) == 0.0

    h = named_graph("hamming", (2, 3, 1))
    first_coord = Partition(assignment=np.arange(9) % 3, k=3)
    assert cut_weight(h, first_coord) == 9.0

    with pytest.raises(ValueError, match="partition has"):
        cut_weight(k4, Partition(assignment=np.array([0, 1]), k=2))


def test_cut_weight_matches_trace_form(rng):
    for _ in range(20):
        n = int(rng.integers(4, 14))
        g = random_weighted_graph(n, 0.5, rng)
        L = laplacian(g).L
        for _ in range(5):
            k = int(rng.integers(2, 6))
            p = Partition(assignment=rng.integers(0, k, size=n), k=k)
            X = p.incidence()
            assert abs(cut_weight(g, p) - 0.5 * np.trace(X.T @ L @ X)) <= 1e-9


def test_named_graphs():
    assert named_graph("complete", (5,)).num_edges == 10
    km = named_graph("complete_multipartite", (3, 2))
    assert km.n == 6 and km.num_edges == 12
    cox = named_graph("coxeter")
    assert cox.n == 28 and cox.num_edges == 42
    assert np.all(cox.weights.sum(axis=1) == 3.0)
    kn = named_graph("kneser", (6, 2))
    assert kn.n == math.comb(6, 2)
    assert named_graph("petersen").num_edges == 15
    with pytest.raises(ValueError, match="unknown graph family"):
        named_graph("mystery")
    with pytest.raises(ValueError):
        named_graph("kneser", (4, 3))  # 2s > n


def test_named_families_share_one_vertex_cap(monkeypatch):
    # each family counts its vertices from its parameters and refuses above
    # the cap before building anything: K(30, 15) would list 155 M subsets
    import kcut.graphs

    monkeypatch.setattr(kcut.graphs, "VERTEX_CAP", 10)
    assert named_graph("petersen").n == named_graph("complete", (10,)).n == 10
    for name, params in (("kneser", (6, 2)), ("complete", (11,)), ("cycle", (11,)),
                         ("complete_multipartite", (4, 3)), ("hamming", (2, 4, 1)),
                         ("kneser", (10**6, 5 * 10**5)), ("hamming", (10**8, 3, 1))):
        with pytest.raises(CapExceeded, match="above the cap 10"):
            named_graph(name, params)


def test_graph_files_share_the_vertex_cap(monkeypatch):
    import kcut.graphs

    monkeypatch.setattr(kcut.graphs, "VERTEX_CAP", 10)
    assert read_graph("10 0").n == read_graph("p edge 10 0", format="dimacs").n == 10
    for text, fmt in (("11 0", "edge_list"), ("p edge 11 0", "dimacs")):
        with pytest.raises(CapExceeded, match="11 vertices, above the cap 10"):
            read_graph(text, format=fmt)


def test_read_edge_list():
    g = read_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.num_edges == 2
    assert g.weights[0, 1] == 1.0 and g.weights[0, 2] == 0.0

    g = read_graph("2 1\n0 1 2.5")
    assert g.weights[1, 0] == 2.5

    with pytest.raises(GraphFormatError, match="line 2"):
        read_graph("2 1\n0 0")  # self-loop
    with pytest.raises(GraphFormatError, match="duplicate"):
        read_graph("3 2\n0 1\n1 0")
    with pytest.raises(GraphFormatError, match="negative"):
        read_graph("2 1\n0 1 -3")
    with pytest.raises(GraphFormatError, match="header"):
        read_graph("nonsense")
    with pytest.raises(GraphFormatError, match="expected 2 edge lines"):
        read_graph("3 2\n0 1")


def test_read_accepts_bytes_and_streams():
    import io

    g1 = read_graph(b"3 2\n0 1\n1 2")
    g2 = read_graph(io.StringIO("3 2\n0 1\n1 2"))
    assert np.array_equal(g1.weights, g2.weights)


def test_read_dimacs():
    text = "c pentagon\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
    g = read_graph(text, format="dimacs")
    c5 = named_graph("cycle", (5,))
    assert np.array_equal(g.weights, c5.weights)

    with pytest.raises(GraphFormatError, match="self-loop"):
        read_graph("p edge 2 1\ne 1 1", format="dimacs")
    with pytest.raises(GraphFormatError, match="problem line"):
        read_graph("e 1 2", format="dimacs")


def test_write_read_round_trip(rng):
    for fmt in ("edge_list", "dimacs"):
        for _ in range(5):
            g = random_weighted_graph(int(rng.integers(2, 12)), 0.5, rng)
            back = read_graph(write_graph(g, fmt), format=fmt)
            assert back.n == g.n
            assert np.array_equal(back.weights, g.weights)  # bit-exact


def test_write_sorted_edges():
    g = named_graph("cycle", (4,))
    lines = write_graph(g).splitlines()
    assert lines[0] == "4 4"
    assert lines[1:] == ["0 1", "0 3", "1 2", "2 3"]


def test_connected_components():
    W = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        W[a, b] = W[b, a] = 1.0
    comps = connected_components(Graph(n=6, weights=W))
    assert len(comps) == 2
    assert all(sub.n == 3 for sub, _ in comps)
    assert np.array_equal(comps[0][1], [0, 1, 2])
    assert np.array_equal(comps[1][1], [3, 4, 5])

    g = named_graph("petersen")
    comps = connected_components(g)
    assert len(comps) == 1 and np.array_equal(comps[0][0].weights, g.weights)

    singletons = connected_components(Graph(n=4, weights=np.zeros((4, 4))))
    assert len(singletons) == 4


def test_disconnected_lambda_max_is_componentwise_max(rng):
    from kcut.spectra import lambda_max

    for _ in range(5):
        g1 = random_graph(int(rng.integers(3, 8)), 0.6, rng)
        g2 = random_graph(int(rng.integers(3, 8)), 0.6, rng)
        n = g1.n + g2.n
        W = np.zeros((n, n))
        W[: g1.n, : g1.n] = g1.weights
        W[g1.n :, g1.n :] = g2.weights
        union = Graph(n=n, weights=W)
        assert abs(lambda_max(union) - max(lambda_max(g1), lambda_max(g2))) <= 1e-9
