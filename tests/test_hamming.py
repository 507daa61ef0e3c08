from math import comb

import numpy as np
import pytest

from kcut.errors import CapExceeded
import kcut.hamming
from kcut.acceptance import checks
from kcut.graphs import Graph, cut_weight, laplacian
from kcut.hamming import (
    HammingHypothesisError,
    check_conjecture,
    conjecture_grid,
    conjecture_rows_csv,
    first_coordinate_qcut,
    hamming_graph,
    hamming_lambda,
    hamming_tightness_certificate,
    in_conjecture_hypothesis,
    kravchuk,
    kravchuk_table,
)


def test_kravchuk_top_row_alternates():
    for d, q in [(3, 2), (4, 3), (6, 5)]:
        for i in range(d + 1):
            assert kravchuk(d, q, d, i) == (-1) ** i * (q - 1) ** (d - i)


def test_kravchuk_degree_column():
    for d, q in [(5, 2), (4, 4), (30, 15)]:
        for j in range(d + 1):
            assert kravchuk(d, q, j, 0) == comb(d, j) * (q - 1) ** j


def test_kravchuk_linear_case():
    # K_1(i) = 3 - 2i for d=3, q=2
    assert [kravchuk(3, 2, 1, i) for i in range(4)] == [3, 1, -1, -3]


def test_kravchuk_table_matches_the_defining_sum():
    # the table uses the one-coordinate recurrence; kravchuk() is the sum
    for d in range(0, 11):
        for q in range(2, 8):
            table = kravchuk_table(d, q)
            assert table.K == tuple(
                tuple(kravchuk(d, q, j, i) for i in range(d + 1)) for j in range(d + 1))


def test_kravchuk_orthogonality_exact():
    # exact integer identity over the full tested grid, ~14^30-sized terms
    for d in range(1, 31):
        for q in range(2, 16):
            assert kravchuk_table(d, q).orthogonality_defect() == 0


def test_hamming_graph_small():
    g = hamming_graph(2, 2, 1)  # the 4-cycle
    assert g.n == 4 and np.all(g.weights.sum(axis=1) == 2.0)

    g = hamming_graph(2, 3, 2)
    assert g.n == 9 and np.all(g.weights.sum(axis=1) == 4.0)  # (q-1)^d

    g = hamming_graph(3, 2, 2)
    assert g.n == 8 and np.all(g.weights.sum(axis=1) == 3.0)

    with pytest.raises(CapExceeded):
        hamming_graph(13, 2, 3)
    with pytest.raises(ValueError):
        hamming_graph(2, 3, 0)


def test_hamming_spectrum_matches_kravchuk():
    for d, q, j in [(2, 3, 1), (2, 3, 2), (3, 2, 2), (2, 4, 2), (4, 2, 2), (2, 5, 1)]:
        g = hamming_graph(d, q, j)
        values, mults = zip(*g.exact_laplacian_spectrum)
        got = np.linalg.eigvalsh(laplacian(g).L)
        assert np.max(np.abs(got - np.repeat(values, mults))) <= 1e-8


def test_hamming_lambda():
    for d, q in [(2, 3), (3, 2), (4, 5)]:
        assert hamming_lambda(d, q, d) == q * (q - 1) ** (d - 1)
    assert hamming_lambda(2, 3, 1) == 3
    assert hamming_lambda(3, 2, 2) == 4


def test_hamming_lambda_closed_form():
    # K_j(0) - K_j(1) = q (q-1)^(j-1) C(d-1, j-1), exactly
    for d in range(1, 13):
        for q in range(2, 7):
            for j in range(1, d + 1):
                assert hamming_lambda(d, q, j) == q * (q - 1) ** (j - 1) * comb(d - 1, j - 1)


def test_hypothesis_predicate():
    assert not in_conjecture_hypothesis(4, 2, 3)  # odd j with q=2
    assert in_conjecture_hypothesis(4, 2, 4)
    assert in_conjecture_hypothesis(3, 3, 3)
    assert in_conjecture_hypothesis(2, 3, 2)
    assert not in_conjecture_hypothesis(3, 3, 2)  # 2 < 3 - 2/3


def test_check_conjecture():
    rep = check_conjecture(5, 3)
    assert rep.passed
    top = [r for r in rep.rows if r.j == 5][0]
    assert top.in_hypothesis and top.passed  # j = d is forced

    rep = check_conjecture(4, 2)
    js = {r.j: r for r in rep.rows}
    assert not js[3].in_hypothesis  # bipartite case excluded
    assert js[4].in_hypothesis and js[4].passed

    grid = conjecture_grid(6, 4)
    assert all(r.passed for r in grid)
    csv = conjecture_rows_csv(grid)
    assert csv.splitlines()[0] == "d,q,j,K_j(1),min,argmin,pass"
    assert all(ln.endswith(",1") for ln in csv.splitlines()[1:])


def test_conjecture_grid_matches_the_defining_sum():
    # each row against kravchuk() and the keyed first-minimum rule
    for rep in conjecture_grid(12, 6):
        for r in rep.rows:
            vals = [kravchuk(rep.d, rep.q, r.j, i) for i in range(rep.d + 1)]
            argmin = min(range(rep.d + 1), key=lambda i: (vals[i], i))
            assert (r.k_at_one, r.min_value, r.argmin, r.passed) == (
                vals[1], vals[argmin], argmin, vals[argmin] == vals[1])


def test_conjecture_grid_is_check_conjecture_past_d12_q6():
    # the grid reads every d at one q from one pass of the recurrence: row
    # for row the reports check_conjecture builds one (d, q) at a time
    grid = conjecture_grid(30, 15)
    assert grid == [check_conjecture(d, q) for d in range(1, 31) for q in range(2, 16)]
    for rep in grid:
        if rep.d == 30 and rep.q in (2, 7, 15):
            for r in rep.rows:
                vals = [kravchuk(30, rep.q, r.j, i) for i in range(31)]
                argmin = min(range(31), key=lambda i: (vals[i], i))
                assert (r.in_hypothesis, r.k_at_one, r.min_value, r.argmin, r.passed) == (
                    in_conjecture_hypothesis(30, rep.q, r.j), vals[1], vals[argmin], argmin,
                    vals[argmin] == vals[1]), (rep.q, r.j)


def test_grid_rows_are_immutable_python_values():
    # light rows: a NamedTuple refuses assignment, and the array sweep hands
    # out Python ints and bools, never numpy scalars
    ints, bools = ("d", "q", "j", "k_at_one", "min_value", "argmin"), ("in_hypothesis", "passed")
    reports = conjecture_grid(30, 15) + [check_conjecture(7, 4)]
    for rep in reports:
        for r in rep.rows:
            assert all(type(getattr(r, f)) is int for f in ints), r
            assert all(type(getattr(r, f)) is bool for f in bools), r
    row = reports[-1].rows[0]
    with pytest.raises(AttributeError):
        row.passed = False


def test_conjecture_arguments_are_checked():
    # an empty grid or a non-integer size is refused, naming the argument,
    # where the grid returned [] or range raised a bare TypeError
    for args, name in (((0, 15), "dmax"), ((5, 1), "qmax"), ((-3, 4), "dmax"),
                       ((2.5, 4), "dmax"), ((3, 4.0), "qmax")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            conjecture_grid(*args)
    for args, name in (((0, 3), "d"), ((3, 1), "q"), ((2.5, 3), "d"), ((3, 3.0), "q")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            check_conjecture(*args)


def test_first_coordinate_qcut():
    _, cut = first_coordinate_qcut(2, 3, 2)
    assert cut == 18  # q^(d-1) C(d-1,j-1) (q-1)^(j-1) edges per part pair, 3 pairs
    _, cut = first_coordinate_qcut(1, 2, 1)
    assert cut == 1
    _, cut = first_coordinate_qcut(2, 2, 2)
    assert cut == 2

    part, cut = first_coordinate_qcut(3, 3, 2)
    g = hamming_graph(3, 3, 2)
    assert cut_weight(g, part) == cut
    assert part.part_sizes().tolist() == [9, 9, 9]


def test_qcut_identity_under_cap():
    for d in range(1, 8):
        for q in (2, 3, 4):
            if q**d > 256:
                continue
            for j in range(1, d + 1):
                _, cut = first_coordinate_qcut(d, q, j)
                assert 2 * q * cut == q**d * (q - 1) * hamming_lambda(d, q, j)


def test_tightness_certificate():
    rep = hamming_tightness_certificate(2, 2, 2)
    assert rep.tight and rep.cut_value == 2

    rep = hamming_tightness_certificate(2, 3, 2)
    assert rep.tight and rep.cut_value == 18

    rep = hamming_tightness_certificate(3, 3, 3)
    assert rep.tight
    g = hamming_graph(3, 3, 3)
    assert rep.cut_value == g.total_weight == 108  # max-q-cut hits every edge

    with pytest.raises(HammingHypothesisError):
        hamming_tightness_certificate(3, 2, 1)
    with pytest.raises(HammingHypothesisError):
        hamming_tightness_certificate(4, 2, 3)  # odd j, q = 2


def test_tightness_certificate_refuses_j_out_of_range():
    for j in (0, 3):  # check_conjecture(2, 3) has rows for j = 1, 2 only
        with pytest.raises(ValueError, match="1 <= j <= d"):
            hamming_tightness_certificate(2, 3, j)


def test_tightness_certificate_checks_solve_k_before_any_work(monkeypatch):
    # k = 7 > q is refused before a graph is built or k = 2 is solved
    import kcut.hamming
    import kcut.sdp

    def fail(*args, **kwargs):
        raise AssertionError("no graph or solve before solve_k is checked")

    monkeypatch.setattr(kcut.hamming, "hamming_graph", fail)
    monkeypatch.setattr(kcut.sdp, "solve", fail)
    with pytest.raises(ValueError, match="got 7"):
        hamming_tightness_certificate(2, 3, 2, solve_k=(2, 7))


def test_tightness_certificate_with_sdp():
    rep = hamming_tightness_certificate(2, 3, 2, solve_k=(2, 3))
    for k, (solved, bound) in rep.sdp_checks.items():
        assert abs(solved - bound) <= 1e-5 * (1 + bound)


def test_broken_graph_is_reported_not_tight(monkeypatch):
    # H(2,3,2) less one edge: the certificate and the acceptance check
    # report the cut below the bound instead of raising
    real = kcut.hamming.hamming_graph

    def broken(d, q, j):
        g = real(d, q, j)
        if (d, q, j) != (2, 3, 2):
            return g
        W = g.weights.copy()
        assert W[0, 4] == 1.0  # (0,0) and (1,1) differ in both coordinates
        W[0, 4] = W[4, 0] = 0.0
        return Graph(n=g.n, weights=W, name=g.name)

    monkeypatch.setattr(kcut.hamming, "hamming_graph", broken)
    rep = hamming_tightness_certificate(2, 3, 2)
    assert not rep.tight and rep.cut_value == 17 and rep.eigenvalue_bound_2q == 108
    result = next(r for r in checks("hamming")
                  if r.name == "qcut_equals_eigenvalue_bound_exactly")
    assert not result.passed
    assert result.detail == "H(2,3,2): cut below the eigenvalue bound"
