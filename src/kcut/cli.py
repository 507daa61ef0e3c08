"""Command-line interface: bound / exact / conjecture / reproduce.

Exit codes: 0 success, 2 parse or usage error, 3 solver failure (an
eigensolver failure, or an ``infeasible`` solve), 4 work or size cap
exceeded.  Every command can emit JSON (--json) with stable keys (graph, k,
method, value, residuals, runtime_ms).  ``bound`` reads its methods from
``bounds.RUNGS``.  For the SDP methods the value is the solve's certified
dual bound at any other status, and the JSON adds dual_bound (the same
number), objective (the attained primal value), iterations and status.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_CAP = 4

# the metadata every payload shows, in text and JSON, where its rung reports it
_SHOWN = ("floor", "ceiling", "active_term", "num_cuts")


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_solver_options(path):
    from .sdp import SolverOptions

    if path is None:
        return SolverOptions()
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_PARSE) from exc
    defaults = vars(SolverOptions())
    values = {}
    for no, raw in enumerate(lines, 1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        if "=" not in ln:
            raise CliError(f"{path}:{no}: expected key=value", EXIT_PARSE)
        key, val = (t.strip() for t in ln.split("=", 1))
        if key not in defaults:
            raise CliError(f"{path}:{no}: unknown solver option {key!r}", EXIT_PARSE)
        try:
            values[key] = type(defaults[key])(val)
        except ValueError as exc:
            raise CliError(f"{path}:{no}: bad value for {key}: {val!r}", EXIT_PARSE) from exc
    try:
        return SolverOptions(**values)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _load_graph(args):
    from .errors import CapExceeded
    from .graphs import Graph, GraphFormatError, named_graph, read_graph

    import numpy as np

    if bool(args.family) == bool(args.source):
        raise CliError("give exactly one of a graph file or --family", EXIT_PARSE)
    try:
        if args.family:
            g = named_graph(args.family[0], tuple(int(p) for p in args.family[1:]))
        elif args.source == "-":
            g = read_graph(sys.stdin.read(), format=args.format)
        else:
            with open(args.source) as fh:
                g = read_graph(fh, format=args.format)
    except CapExceeded as exc:
        raise CliError(str(exc), EXIT_CAP) from exc
    except (GraphFormatError, ValueError, TypeError, OSError) as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    if getattr(args, "minus_edge", False):
        edges = g.edges()
        if not edges:
            raise CliError("--minus-edge needs a graph with at least one edge", EXIT_PARSE)
        W = np.array(g.weights)
        i, j, _ = edges[0]
        W[i, j] = W[j, i] = 0.0
        g = Graph(n=g.n, weights=W, name=(g.name or "graph") + " minus edge")
    return g


def _check_k(k, lo, hi):
    if not lo <= k <= hi:
        raise CliError(f"--k must lie in {lo}..{hi} for this graph, got {k}", EXIT_PARSE)


def _cmd_bound(args):
    from numpy.linalg import LinAlgError

    from .bounds import RUNGS
    from .errors import CapExceeded

    g = _load_graph(args)
    opts = _load_solver_options(args.config)
    method = args.method
    k = args.k
    t0 = time.perf_counter()
    if method not in ("chromatic", "hoffman"):
        if k is None:
            raise CliError(f"method {method} requires --k", EXIT_PARSE)
        _check_k(k, 2, g.n - 1 if method == "srg" else g.n)
    try:
        rep = RUNGS[method](g, k, opts)
    except LinAlgError as exc:  # a ValueError too, so caught first
        raise CliError(f"numerical failure: {exc}", EXIT_SOLVER) from exc
    except CapExceeded as exc:
        raise CliError(str(exc), EXIT_CAP) from exc
    except ValueError as exc:  # a graph the rung does not apply to
        raise CliError(str(exc), EXIT_PARSE) from exc
    meta = rep.metadata
    status = meta.get("status")
    if rep.value is None:
        raise CliError(f"solver finished with status {status}, no bound to report", EXIT_SOLVER)

    shown = {key: meta[key] for key in _SHOWN if key in meta}
    payload = {
        "graph": g.name or f"graph(n={g.n})",
        "k": k,
        "method": method,
        "value": rep.value,
        "residuals": {key: float(v) for key, v in meta.get("residuals", {}).items()},
        "runtime_ms": round(1000.0 * (time.perf_counter() - t0), 3),
        **shown,
    }
    if args.json:
        if status is not None:
            payload.update(dual_bound=rep.value, objective=meta["objective"],
                           iterations=meta["iterations"], status=status)
        print(json.dumps(payload, indent=2))
    else:
        bits = [payload["graph"], f"method={method}"]
        if k is not None:
            bits.insert(1, f"k={k}")
        bits.append(f"value={rep.value:.4f}")
        bits += [f"{key}={val}" for key, val in shown.items()]
        if status not in (None, "optimal"):
            bits.append(f"status={status}")
        bits.append(f"({payload['runtime_ms']:.0f} ms)")
        print("  ".join(str(b) for b in bits))
    return EXIT_OK


def _cmd_exact(args):
    from .errors import CapExceeded
    from .oracle import brute_force_maxkcut

    g = _load_graph(args)
    _check_k(args.k, 1, g.n)
    t0 = time.perf_counter()
    try:
        part, value = brute_force_maxkcut(g, args.k)
    except CapExceeded as exc:
        raise CliError(str(exc), EXIT_CAP) from exc
    payload = {
        "graph": g.name or f"graph(n={g.n})",
        "k": args.k,
        "method": "brute_force",
        "value": value,
        "partition": part.assignment.tolist(),
        "residuals": {},
        "runtime_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{payload['graph']}  k={args.k}  exact={value:g}  "
              f"partition={part.assignment.tolist()}  ({payload['runtime_ms']:.0f} ms)")
    return EXIT_OK


def _cmd_conjecture(args):
    from .hamming import conjecture_grid, conjecture_rows_csv

    if args.dmax < 1 or args.qmax < 2:
        raise CliError(f"need --dmax >= 1 and --qmax >= 2, got {args.dmax} and {args.qmax}",
                       EXIT_PARSE)
    reports = conjecture_grid(args.dmax, args.qmax)
    bad = [
        (rep.d, rep.q, r.j)
        for rep in reports
        for r in rep.rows
        if r.in_hypothesis and not r.passed
    ]
    if args.json:
        payload = {
            "dmax": args.dmax,
            "qmax": args.qmax,
            "passed": not bad,
            "rows": [
                {
                    "d": r.d, "q": r.q, "j": r.j, "K_j(1)": r.k_at_one,
                    "min": r.min_value, "argmin": r.argmin, "pass": r.passed,
                }
                for rep in reports
                for r in rep.rows
                if r.in_hypothesis
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = conjecture_rows_csv(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if bad:
        print(f"FAIL first counterexample d={bad[0][0]} q={bad[0][1]} j={bad[0][2]}")
        return EXIT_SOLVER
    print(f"PASS d<={args.dmax} q<={args.qmax}")
    return EXIT_OK


def _cmd_reproduce(args):
    from .acceptance import run

    try:
        results = run(only=args.only or None, emit=None if args.json else print)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    if args.json:
        print(json.dumps(
            [
                {
                    "group": r.group,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                    "runtime_s": round(r.runtime_s, 3),
                }
                for r in results
            ],
            indent=2,
        ))
    failed = [r for r in results if not r.passed]
    if not args.json:
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else 1


def _build_parser():
    from .bounds import RUNGS

    ap = argparse.ArgumentParser(
        prog="kcut",
        description="Eigenvalue and SDP bounds for max-k-cut and the chromatic number",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("source", nargs="?", help="graph file, or - for stdin")
        p.add_argument("--format", choices=("edge_list", "dimacs"), default="edge_list")
        p.add_argument("--family", nargs="+", metavar=("NAME", "PARAM"),
                       help="named family instead of a file, e.g. --family cycle 5")
        p.add_argument("--minus-edge", action="store_true",
                       help="remove the lexicographically first edge")
        p.add_argument("--json", action="store_true")

    b = sub.add_parser("bound", help="compute one bound for a graph")
    add_graph_args(b)
    b.add_argument("--k", type=int)
    b.add_argument("--method", choices=list(RUNGS), required=True)
    b.add_argument("--config", help="key=value file overriding solver tolerances")
    b.set_defaults(fn=_cmd_bound)

    e = sub.add_parser("exact", help="exact max-k-cut by enumeration")
    add_graph_args(e)
    e.add_argument("--k", type=int, required=True)
    e.set_defaults(fn=_cmd_exact)

    c = sub.add_parser("conjecture", help="Kravchuk-minimum conjecture grid as CSV")
    c.add_argument("--dmax", type=int, default=30)
    c.add_argument("--qmax", type=int, default=15)
    c.add_argument("--out", help="write the grid here instead of stdout")
    c.add_argument("--json", action="store_true", help="emit the grid as JSON")
    c.set_defaults(fn=_cmd_conjecture)

    r = sub.add_parser("reproduce", help="run the acceptance suite")
    r.add_argument("--only", action="append", metavar="GROUP",
                   help="restrict to one group (repeatable)")
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=_cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
