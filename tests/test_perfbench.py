"""The benchmark harness under perfbench/ runs against the package: its
checks must hold, and its tracer must find every function it wraps, or every
benchmark run fails where no test did."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_selftest():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all checks hold"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import kcut.relaxations
    import kcut.sdp
    from tracing import Tracer

    before = kcut.relaxations.separate_triangles, kcut.sdp.solve, kcut.sdp.np
    tracer = Tracer(0.0)
    tracer.install()
    try:
        assert kcut.relaxations.separate_triangles is not before[0]
    finally:
        tracer.uninstall()
    assert (kcut.relaxations.separate_triangles, kcut.sdp.solve, kcut.sdp.np) == before


def test_tracer_sees_the_cli_solve_and_its_cuts(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import kcut.cli
    from tracing import Tracer

    tracer = Tracer(0.0)
    tracer.install()
    try:
        code = kcut.cli.main(["bound", "--family", "cycle", "5", "--k", "2",
                              "--method", "sdp+triangles"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    spans = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)
    assert len(spans["sdp.solve"]) == 1
    [cuts] = spans["relaxations.triangle_cuts"]
    assert cuts.attrs["count"] == 30


def test_tracer_spans_the_hamming_path(monkeypatch):
    # the hamming_scheme layers stay measurable: the grid is spanned, and a
    # solve certified at its start shows one eigvalsh (the residual test's)
    # as a child of its sdp.solve span, its start pair's shift being read off
    # closed_form's spectrum: with the floor enforced, dropped as implied,
    # and under a trace constraint
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import kcut
    import kcut.hamming
    import kcut.sdp
    from tracing import Tracer

    for name in ("conjecture_grid", "hamming_lambda", "first_coordinate_qcut"):
        assert getattr(kcut.hamming, name).__module__ == "kcut.hamming", name
    cases = [(kcut.hamming_graph(4, 3, 4), 3, "main_sdp"),
             (kcut.hamming_graph(2, 9, 2), 2, "main_sdp"),
             (kcut.named_graph("petersen"), 3, "eig_sdp")]
    models = [kcut.build(g, k, kind) for g, k, kind in cases]
    states = [kcut.sdp._SolverState(m, kcut.sdp.SolverOptions()) for m in models]
    assert [s.floor is not None for s in states] == [True, False, False]
    assert [s.diag is None for s in states] == [False, False, True]
    assert models[1].elementwise_lower is not None
    tracer = Tracer(0.0)
    tracer.install()
    try:
        kcut.conjecture_grid(6, 4)
        sols = [kcut.solve(model) for model in models]
    finally:
        tracer.uninstall()
    assert all(sol.status == "optimal" and sol.iterations == 0 for sol in sols)
    names = [s.name for s in tracer.spans]
    assert names.count("hamming.conjecture_grid") == 1
    solves = [i for i, name in enumerate(names) if name == "sdp.solve"]
    assert len(solves) == len(models)
    for solve, model in zip(solves, models):
        children = [s.name for s in tracer.spans if s.parent == solve]
        assert children.count("sdp.eigvalsh") == 1, model.name
