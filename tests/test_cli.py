import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from kcut.bounds import RUNGS, SrgParameters, detect_srg, srg_sdp_bound
from kcut.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main
from kcut.graphs import named_graph
from kcut.oracle import gap_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_bound_eig_coxeter(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "coxeter", "--k", "2",
                           "--method", "eig", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 7.0 * (4.0 + math.sqrt(2.0))) <= 1e-9
    assert payload["graph"] == "Coxeter" and payload["k"] == 2
    assert set(payload) >= {"graph", "k", "method", "value", "residuals", "runtime_ms"}


def test_bound_sdp_triangles_pentagon(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "cycle", "5", "--k", "2",
                           "--method", "sdp+triangles", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 25.0 / 6.0) <= 5e-3
    assert payload["num_cuts"] == 30
    # the value is the certified upper bound; the attained objective rests below it
    objective = payload["objective"]
    assert objective <= payload["value"] == payload["dual_bound"] <= objective + 1e-5
    assert payload["iterations"] > 0


def _no_constant(name):
    raise ValueError(f"non-finite {name} in the JSON")


@pytest.mark.parametrize("family", [("hamming", "2", "9", "2"), ("petersen",)])
def test_bound_json_is_strict_for_a_solve_certified_at_its_start(capsys, family):
    # both main_sdp solves certify at their closed-form start, no ADMM step
    # taken: the residuals still read finite, and the JSON parses strictly
    code, out, _ = run_cli(capsys, "bound", "--family", *family, "--k", "2",
                           "--method", "sdp", "--json")
    assert code == EXIT_OK
    payload = json.loads(out, parse_constant=_no_constant)
    assert (payload["iterations"], payload["status"]) == (0, "optimal")
    assert payload["value"] == payload["dual_bound"] >= payload["objective"]
    assert all(math.isfinite(v) for v in payload["residuals"].values())


@pytest.mark.parametrize("family", [("cycle", "5"), ("petersen",)])
@pytest.mark.parametrize("k", [2, 3])
def test_gap_report_rows_are_the_bound_methods(capsys, family, k):
    g = named_graph(family[0], tuple(int(p) for p in family[1:]))
    rows = dict(gap_report(g, k, with_cuts=False, rounding_trials=1).rows)
    for name, method in (("eigenvalue_bound", "eig"), ("perturbed_bound", "perturbed"),
                         ("main_sdp", "sdp")):
        code, out, _ = run_cli(capsys, "bound", "--family", *family, "--k", str(k),
                               "--method", method, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == rows[name], method


def test_readme_lists_every_method():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = readme[readme.index("Methods: "):]
    listed = re.findall(r"`([^`]+)`", line[:line.index(".")])
    assert listed == list(RUNGS)


def test_bound_chromatic_k100_minus_edge(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "complete", "100",
                           "--minus-edge", "--method", "chromatic", "--json")
    assert code == 0
    assert json.loads(out)["ceiling"] == 99


def test_bound_hoffman_k100_minus_edge(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "complete", "100",
                           "--minus-edge", "--method", "hoffman", "--json")
    assert code == 0
    assert json.loads(out)["ceiling"] == 51


def test_bound_srg_petersen(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "petersen", "--k", "2",
                           "--method", "srg", "--json")
    assert code == 0
    assert abs(json.loads(out)["value"] - 12.5) <= 1e-9


def test_bound_text_output_four_decimals(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "cycle", "5", "--k", "2",
                           "--method", "eig")
    assert code == 0
    assert "value=4.5225" in out


def test_bound_from_file(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "bound", str(path), "--k", "2", "--method", "eig", "--json")
    assert code == 0
    assert abs(json.loads(out)["value"] - 3.0 / 4.0 * 3.0) <= 1e-9


def test_exact_examples(capsys):
    code, out, _ = run_cli(capsys, "exact", "--family", "complete", "12", "--k", "8", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 62.0

    code, out, _ = run_cli(capsys, "exact", "--family", "petersen", "--k", "2", "--json")
    assert json.loads(out)["value"] == 12.0

    code, out, _ = run_cli(capsys, "exact", "--family", "cycle", "5", "--k", "2", "--json")
    payload = json.loads(out)
    assert payload["value"] == 4.0
    assert len(payload["partition"]) == 5


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "bound", "/nonexistent/file", "--k", "2", "--method", "eig")
    assert code == EXIT_PARSE and "error:" in err

    code, _, err = run_cli(capsys, "bound", "--family", "coxeter", "--method", "sdp")
    assert code == EXIT_PARSE  # missing --k


def test_exit_code_overflowing_weight(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("2 1\n0 1 1e308\n")
    code, _, err = run_cli(capsys, "bound", str(path), "--k", "2", "--method", "eig")
    assert code == EXIT_PARSE
    assert err.startswith("error: weights too large") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("bound", "C5", "--k", "7", "--method", "sdp"),
    ("bound", "C5", "--k", "1", "--method", "eig"),
    ("bound", "C5", "--k", "6", "--method", "perturbed"),
    ("bound", "C5", "--k", "5", "--method", "srg"),
    ("exact", "C5", "--k", "9"),
    ("exact", "C5", "--k", "0"),
])
def test_exit_code_k_out_of_range(tmp_path, capsys, argv):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    argv = [str(path) if a == "C5" else a for a in argv]
    code, _, err = run_cli(capsys, *argv, "--format", "edge_list")
    assert code == EXIT_PARSE
    assert "Traceback" not in err
    assert err.startswith("error: --k must lie in") and len(err.splitlines()) == 1


@pytest.mark.parametrize("files, argv, want", [
    ({"g.txt": ""}, ("bound", "g.txt", "--k", "2", "--method", "eig"), EXIT_PARSE),
    ({"g.txt": "0 1\n"}, ("bound", "g.txt", "--k", "2", "--method", "eig"), EXIT_PARSE),
    ({"g.txt": "1 0\n"}, ("bound", "g.txt", "--k", "2", "--method", "eig"), EXIT_PARSE),
    ({"g.txt": "3 0\n"}, ("bound", "g.txt", "--k", "2", "--method", "sdp", "--json"), EXIT_OK),
    ({"cap.cfg": "n_cap = 2\n"}, ("bound", "--family", "cycle", "5", "--k", "2",
                                  "--method", "sdp", "--config", "cap.cfg"), EXIT_CAP),
    ({}, ("exact", "--family", "hamming", "4", "3", "1", "--k", "3"), EXIT_CAP),
    ({}, ("bound", "--family", "complete", "127", "--k", "2",
          "--method", "sdp+triangles"), EXIT_CAP),
    ({"nan.cfg": "tol_gap = nan\n"}, ("bound", "--family", "cycle", "5", "--k", "2",
                                     "--method", "sdp", "--config", "nan.cfg"), EXIT_PARSE),
    ({"iter.cfg": "max_iter = -3\n"}, ("bound", "--family", "cycle", "5", "--k", "2",
                                      "--method", "sdp", "--config", "iter.cfg"), EXIT_PARSE),
], ids=["empty", "header_0_1", "n1_k2", "edgeless_sdp", "config_n_cap", "exact_over_cap",
        "triangles_over_cap", "config_nan_tol_gap", "config_negative_max_iter"])
def test_failure_contract(tmp_path, capsys, files, argv, want):
    # each input maps to its exit code; a failure prints exactly one error
    # line, so no traceback (an escaping exception fails the test)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == want
    if want == EXIT_OK:
        assert err == "" and json.loads(out)["value"] == 0.0
    else:
        assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name, text, fmt", [
    ("big.txt", "10000000 0\n", "edge_list"),
    ("big.col", "p edge 10000000 0\n", "dimacs"),
])
def test_graph_file_header_above_the_vertex_cap(tmp_path, capsys, name, text, fmt):
    # the header is refused before its n-by-n matrix (728 TiB) is allocated
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run_cli(capsys, "bound", str(path), "--format", fmt, "--k", "2",
                           "--method", "eig")
    assert code == EXIT_CAP
    assert err == "error: the graph file has 10000000 vertices, above the cap 4096\n"


@pytest.mark.parametrize("text, want", [
    ("p edge -1 0\n", "line 1: need n >= 1 and m >= 0"),
    ("p edge 0 0\n", "line 1: need n >= 1 and m >= 0"),
    ("p edge 3 0\np edge 4 0\n", "line 2: second problem line"),
], ids=["negative_n", "zero_n", "second_problem_line"])
def test_dimacs_problem_line_is_checked_as_the_edge_list_header(tmp_path, capsys, text, want):
    # these exited 2 with numpy's "negative dimensions", reached "--k must
    # lie in 2..0", and silently read the second graph
    path = tmp_path / "g.col"
    path.write_text(text)
    code, _, err = run_cli(capsys, "bound", str(path), "--format", "dimacs", "--k", "2",
                           "--method", "eig")
    assert code == EXIT_PARSE
    assert err.startswith("error:") and want in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("family, want", [
    (("complete", "5", "6"), "complete(n) takes 1 parameter, got 2"),
    (("hamming", "6", "2", "1", "100000"), "hamming(d, q, j) takes 3 parameters, got 4"),
    (("kneser", "7"), "kneser(n, s) takes 2 parameters, got 1"),
    (("petersen", "3"), "petersen() takes 0 parameters, got 1"),
])
def test_family_parameter_count_names_the_signature(capsys, family, want):
    code, _, err = run_cli(capsys, "bound", "--family", *family, "--k", "2", "--method", "eig")
    assert code == EXIT_PARSE and err == f"error: {want}\n"


def test_exit_code_srg_rejects_non_srg(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, _, err = run_cli(capsys, "bound", str(path), "--k", "2", "--method", "srg")
    assert code == EXIT_PARSE and "regular" in err


_SRG = [  # family, (kappa, lam, mu)
    (("cycle", "5"), (2, 0, 1)),
    (("petersen",), (3, 0, 1)),
    (("kneser", "6", "2"), (6, 1, 3)),
    (("kneser", "7", "2"), (10, 3, 6)),
    (("complete_multipartite", "3", "2"), (4, 2, 4)),
    (("complete_multipartite", "3", "3"), (6, 3, 6)),
    (("hamming", "2", "3", "1"), (4, 1, 2)),
    (("hamming", "2", "4", "1"), (6, 2, 2)),
    (("hamming", "2", "5", "1"), (8, 3, 2)),
]


@pytest.mark.parametrize("family, params", _SRG, ids=["_".join(f) for f, _ in _SRG])
def test_bound_srg_reads_exact_parameters(capsys, family, params):
    g = named_graph(family[0], tuple(int(p) for p in family[1:]))
    p = SrgParameters(g.n, *params)
    assert detect_srg(g) == p
    for k in range(2, g.n):
        code, out, _ = run_cli(capsys, "bound", "--family", *family, "--k", str(k),
                               "--method", "srg", "--json")
        assert code == 0
        payload, want = json.loads(out), srg_sdp_bound(p, k)
        assert payload["value"] == want.value
        assert payload["active_term"] == want.metadata["active_term"]


@pytest.mark.parametrize("source, want", [
    ("10 15\n" + "".join(f"{i} {j} 2\n" for i, j, _ in named_graph("petersen").edges()),
     "unweighted"),
    ("6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n", "connected"),  # 2K_3: mu = 0
    ("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", "not strongly regular"),  # C_6
    (("complete", "5"), "not strongly regular"),  # no non-adjacent pair, so no mu
    (("coxeter",), "not strongly regular"),  # distance-regular of diameter 4
], ids=["petersen_weight_2", "2K3", "C6", "K5", "coxeter"])
def test_exit_code_srg_refusals(tmp_path, capsys, source, want):
    if isinstance(source, str):
        (tmp_path / "g.txt").write_text(source)
        argv = (str(tmp_path / "g.txt"),)
    else:
        argv = ("--family", *source)
    code, _, err = run_cli(capsys, "bound", *argv, "--k", "2", "--method", "srg")
    assert code == EXIT_PARSE
    assert err.startswith("error:") and want in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, want", [
    (("--family", "complete", "2", "--k", "2", "--method", "sdp+triangles"),
     "error: triangle cuts need n >= 3"),
    (("--family", "petersen", "--k", "10", "--method", "sdp+indep"),
     "error: independent-set cuts need k + 1 <= n"),
], ids=["K2-triangles", "petersen-indep-k10"])
def test_exit_code_cut_family_too_large_for_graph(capsys, argv, want):
    # --k admits k = n, and sdp+triangles any n >= 2, but the cut families
    # need n >= 3 and k + 1 <= n
    code, _, err = run_cli(capsys, "bound", *argv)
    assert code == EXIT_PARSE
    assert "Traceback" not in err
    assert err.startswith(want) and len(err.splitlines()) == 1


def test_exit_code_cap(capsys):
    code, _, err = run_cli(capsys, "exact", "--family", "kneser", "6", "2", "--k", "6")
    assert code == EXIT_CAP and "states" in err

    code, _, err = run_cli(capsys, "bound", "--family", "hamming", "13", "2", "1",
                           "--k", "2", "--method", "eig")
    assert code == EXIT_CAP


def test_exit_code_solver_failure(tmp_path, capsys):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("max_iter = 10\n")  # C_9 at k = 3 certifies at iteration 16
    code, out, _ = run_cli(capsys, "bound", "--family", "cycle", "9", "--k", "3",
                           "--method", "sdp", "--config", str(cfg), "--json")
    # a capped solve still reports its certified dual bound, an upper bound
    # at or above C_9's max-3-cut |E| = 9
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "max_iter"
    assert payload["value"] == payload["dual_bound"] >= 9.0


def test_exit_code_infeasible_solve(monkeypatch, capsys):
    from dataclasses import replace

    import kcut.relaxations

    solve = kcut.relaxations.solve

    def infeasible(model, options=None):
        return replace(solve(model, options), status="infeasible", dual_bound=None)

    # an infeasible solve has no bound to report
    monkeypatch.setattr(kcut.relaxations, "solve", infeasible)
    code, out, err = run_cli(capsys, "bound", "--family", "cycle", "5", "--k", "2",
                             "--method", "sdp", "--json")
    assert code == EXIT_SOLVER and out == ""
    assert err.startswith("error: solver finished with status infeasible")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method, routine", [
    ("eig", "eigvalsh"), ("chromatic", "eigvalsh"),  # LinAlgError from lambda_max
    ("hoffman", "eigvalsh"),  # LinAlgError from hoffman_bound
    ("perturbed", "eigh"), ("sdp", "eigh"), ("sdp+triangles", "eigh"),  # inside solve
])
def test_exit_code_eigensolver_failure(monkeypatch, capsys, method, routine):
    import numpy as np

    import kcut.sdp

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def nan(M, **kwargs):
        # LAPACK's eigh gufunc, which the solver calls directly, reports a
        # failure by NaN outputs and the invalid flag
        return np.zeros(len(M)) / 0.0, np.zeros(M.shape) / 0.0

    if routine == "eigh":
        monkeypatch.setattr(kcut.sdp, "_eigh_lo", nan)
    else:
        monkeypatch.setattr(np.linalg, routine, fail)
    code, _, err = run_cli(capsys, "bound", "--family", "petersen", "--k", "2",
                           "--method", method)
    assert code == EXIT_SOLVER
    assert "Traceback" not in err
    assert err.startswith("error: numerical failure") and len(err.splitlines()) == 1


def test_config_parsing_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for line in ("no_such_option = 1", "eps_abs = 1e-8"):
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "bound", "--family", "cycle", "5", "--k", "2",
                               "--method", "sdp", "--config", str(cfg))
        assert code == EXIT_PARSE and "unknown solver option" in err
    # not UTF-8: a decode error, like an unreadable file, is one error line
    cfg.write_bytes(b"\xff\xfe\x00")
    code, _, err = run_cli(capsys, "bound", "--family", "cycle", "5", "--k", "2",
                           "--method", "sdp", "--config", str(cfg))
    assert code == EXIT_PARSE and len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read config {cfg}: 'utf-8' codec can't decode")


def test_conjecture_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--dmax", "5", "--qmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,q,j,K_j(1),min,argmin,pass"
    assert lines[-1] == "PASS d<=5 q<=3"

    path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "conjecture", "--dmax", "3", "--qmax", "2",
                           "--out", str(path))
    assert code == 0 and "PASS" in out
    assert path.read_text().startswith("d,q,j,")


def test_conjecture_grid_output_is_pinned(tmp_path, capsys):
    # the default grid, d <= 30 and q <= 15 (1,142 hypothesis rows), byte for
    # byte as the list-based recurrence printed it, CSV and JSON
    pins = {(): "ea6d8c354cf99c18779633ca65910f445833d40bbc8fbb3beeddf92965cb3e5e",
            ("--json",): "af5f9f42ce19793a2ba6bd77b4fccaed72518e42ec640e7ff456790cda24d1c0"}
    for extra, digest in pins.items():
        path = tmp_path / "grid"
        code, out, _ = run_cli(capsys, "conjecture", "--dmax", "30", "--qmax", "15",
                               "--out", str(path), *extra)
        assert code == 0 and out == "PASS d<=30 q<=15\n"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, extra


@pytest.mark.parametrize("argv", [("--dmax", "0"), ("--qmax", "1"), ("--dmax", "-2")])
def test_conjecture_refuses_an_empty_grid(capsys, argv):
    # these printed PASS over no rows and exited 0
    code, out, err = run_cli(capsys, "conjecture", *argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: need --dmax >= 1 and --qmax >= 2") and len(err.splitlines()) == 1


def test_conjecture_json(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--dmax", "4", "--qmax", "3", "--json")
    assert code == 0
    body, summary = out.rsplit("\n", 2)[0], out.splitlines()[-1]
    payload = json.loads(body)
    assert payload["passed"] and summary == "PASS d<=4 q<=3"
    assert all(row["pass"] for row in payload["rows"])


def test_reproduce_only_pentagon(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--only", "pentagon")
    assert code == 0
    assert "[PASS] pentagon/main_sdp_k2_equals_4.5225" in out
    assert "checks passed" in out

    code, _, err = run_cli(capsys, "reproduce", "--only", "nonsense")
    assert code == EXIT_PARSE


def test_reproduce_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--only", "kneser", "--json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["passed"] for r in rows)
    assert {r["name"] for r in rows} >= {"eigenvalue_bound_33.75"}
