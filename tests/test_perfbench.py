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
