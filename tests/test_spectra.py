import numpy as np

from kcut.graphs import Graph, laplacian, named_graph
from kcut.spectra import idempotent_basis, lambda_max, top_idempotent_diag_constant


def test_exact_spectra_of_generators_match_numeric():
    graphs = [
        named_graph("complete", (7,)),
        named_graph("complete_multipartite", (3, 2)),
        named_graph("cycle", (8,)),
        named_graph("cycle", (9,)),
        named_graph("cycle", (1000,)),
        named_graph("cycle", (1001,)),
        named_graph("hamming", (2, 3, 1)),
        named_graph("hamming", (3, 2, 2)),
    ]
    for g in graphs:
        values, mults = zip(*g.exact_laplacian_spectrum)
        got = np.linalg.eigvalsh(laplacian(g).L)
        assert np.max(np.abs(got - np.repeat(values, mults))) <= 1e-9


def test_lambda_max_examples():
    assert abs(lambda_max(named_graph("complete_multipartite", (3, 2))) - 6.0) <= 1e-9
    c5 = named_graph("cycle", (5,))
    assert abs(lambda_max(c5) - (2.0 - 2.0 * np.cos(4 * np.pi / 5))) <= 1e-9
    h = named_graph("hamming", (2, 3, 2))
    assert abs(lambda_max(h) - 6.0) <= 1e-8  # q(q-1)^(d-1) with d=2, q=3


def test_idempotents_k2():
    g = named_graph("complete", (2,))
    basis = idempotent_basis(g)
    assert len(basis.projectors) == 2
    assert np.allclose(basis.projectors[0], np.full((2, 2), 0.5), atol=1e-12)
    assert np.allclose(basis.projectors[1], np.eye(2) - 0.5, atol=1e-12)


def test_idempotents_petersen_traces():
    basis = idempotent_basis(named_graph("petersen"))
    assert np.array_equal(basis.multiplicities, [1, 5, 4])
    assert np.allclose(basis.eigenvalues, [0.0, 2.0, 5.0], atol=1e-9)


def test_idempotents_disconnected_zero_split():
    # disjoint union of two K_2: F_0 = J/4 plus a separate trace-1 idempotent
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    basis = idempotent_basis(Graph(n=4, weights=W))
    assert np.allclose(basis.projectors[0], np.full((4, 4), 0.25), atol=1e-10)
    assert basis.eigenvalues[0] == 0.0 and basis.eigenvalues[1] == 0.0
    assert basis.multiplicities[0] == 1 and basis.multiplicities[1] == 1
    P = basis.projectors[1]
    assert np.max(np.abs(P @ P - P)) <= 1e-8
    assert abs(np.trace(P) - 1.0) <= 1e-8


def test_idempotent_identities_on_named_graphs():
    graphs = [
        named_graph("complete", (6,)),
        named_graph("complete_multipartite", (3, 2)),
        named_graph("cycle", (7,)),
        named_graph("petersen"),
        named_graph("coxeter"),
        named_graph("kneser", (6, 2)),
        named_graph("hamming", (2, 3, 1)),
    ]
    for g in graphs:
        basis = idempotent_basis(g)
        Fs = basis.projectors
        total = sum(Fs)
        assert np.max(np.abs(total - np.eye(g.n))) <= 1e-8
        L = laplacian(g).L
        recon = sum(lam * F for lam, F in zip(basis.eigenvalues, Fs))
        assert np.max(np.abs(recon - L)) <= 1e-8
        for i, Fi in enumerate(Fs):
            assert abs(np.trace(Fi) - basis.multiplicities[i]) <= 1e-8
            for j, Fj in enumerate(Fs):
                expect = Fi if i == j else np.zeros_like(Fi)
                assert np.max(np.abs(Fi @ Fj - expect)) <= 1e-8


def test_walk_regular_constant_diagonals():
    for g in [named_graph("petersen"), named_graph("cycle", (6,)),
              named_graph("cycle", (9,)), named_graph("hamming", (2, 3, 1)),
              named_graph("hamming", (3, 2, 2))]:
        basis = idempotent_basis(g)
        for F in basis.projectors:
            d = np.diag(F)
            assert d.max() - d.min() <= 1e-8


def test_top_idempotent_diag_constant():
    assert top_idempotent_diag_constant(named_graph("petersen"))
    assert top_idempotent_diag_constant(named_graph("cycle", (6,)))
    star = Graph(
        n=4,
        weights=np.array(
            [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], dtype=float
        ),
    )
    assert not top_idempotent_diag_constant(star)
