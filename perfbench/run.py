"""kcut benchmark: one workload per process, BLAS and OpenMP on one thread.

    python3 perfbench/run.py --workload ladder_random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a kcut checkout; kcut is imported from its ``src``.
With ``--trace 0`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics instead, and the spans are
written under ``perfbench/out``.  ``--workload all`` runs every workload in
a fresh process and prints each metric by name and unit.  See README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one BLAS/OpenMP thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "KCUT_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("ladder_random", "hamming_scheme", "cuts", "exact")
DEFAULT_SEED = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_one(args) -> dict:
    sys.path[:0] = [str(SRC), str(HERE)]
    import kcut  # noqa: F401  (the import is part of set-up)
    import numpy as np

    import harness
    from tracing import Tracer

    t_import = time.perf_counter() - T_START
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    items, setup_s, setup_raw_s, build_s = harness.set_up(
        args.workload, args.seed, out_dir, t_import)
    order = list(np.random.Generator(np.random.PCG64([args.seed, 1])).permutation(len(items)))

    run = harness.Run()
    tracer = Tracer(T_START) if args.trace else None
    harness.run_rounds(run, items, order, args.seconds, tracer)
    if tracer is None:
        metrics = harness.end_to_end(run, setup_s)
        print(harness.raw_figures(run, setup_raw_s), file=sys.stderr)
    else:
        metrics = harness.per_layer(run, tracer, build_s)
        tracer.write(out_dir / "spans.jsonl")
    return {"correct": run.wrong == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metric_json(metrics)}


def run_all(args) -> dict:
    """Each workload in a fresh process; prints every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{workload}/{name}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kcut" / "__init__.py").is_file():
        print(f"error: no kcut sources at {SRC}; run from a kcut checkout", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
