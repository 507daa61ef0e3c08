"""Self-test of the benchmark's checks: each check must pass kcut's real
outputs on small inputs and report the item as failed when one value is
replaced by a known-wrong one.

    python3 perfbench/selftest.py        # exit 0 when every check holds

Run from the root of a kcut checkout.
"""

import os
import sys
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import kcut  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import workloads as wl  # noqa: E402


def call(fn, *args, **kwargs):
    """An untimed step for running items outside the harness."""
    return fn(*args, **kwargs)


def main() -> int:
    rl = wl.Relabeler(seed=7)
    bad = []

    def expect(label, errors, fails):
        ok = bool(errors) == fails
        print(f"[{'ok' if ok else 'MISSED'}] {label}: "
              + ("; ".join(str(e) for e in errors[:2]) if errors else "passes"))
        if not ok:
            bad.append(label)

    # a bound below a feasible cut
    expect("dual bound 10 below a cut of weight 11", checks.upper_bound("x", 10.0, 9.5, 11.0), True)
    expect("dual bound 12 above a cut of weight 11", checks.upper_bound("x", 12.0, 11.5, 11.0), False)

    # the ladder: eig_sdp off its closed form, and a chain out of order
    g, W, _ = rl.graph("G(7,1/2)", wl.gnp(7, np.random.Generator(np.random.PCG64(3))))
    item = wl._ladder_item(g, W, 3, seed=1)
    out = item.run(call)
    expect("ladder as solved", item.check(out), False)
    eig = out["eig_sdp"]
    expect("eig_sdp raised by 1%", item.check(
        {**out, "eig_sdp": replace(eig, objective_value=eig.objective_value * 1.01)}), True)
    main_sol = out["main_sdp"]
    expect("main_sdp above perturbed_sdp", item.check(
        {**out, "main_sdp": replace(main_sol, objective_value=out["perturbed_sdp"].objective_value
                                    + 0.1, dual_bound=main_sol.dual_bound + 1.0)}), True)
    expect("main_sdp not certified", item.check(
        {**out, "main_sdp": replace(main_sol, status="max_iter")}), True)
    expect("infeasible Y (diagonal scaled by 1.1)", item.check(
        {**out, "main_sdp": replace(main_sol, Y=main_sol.Y * 1.1)}), True)

    # the Hamming scheme: a value off the Kravchuk closed form, a wrong q-cut
    d, q, j = 2, 3, 2
    g0 = kcut.hamming_graph(d, q, j)
    g, W, p = rl.graph(g0.name, np.asarray(g0.weights))
    item = wl._hamming_item(g, W, p, d, q, j, 3)
    out = item.run(call)
    expect("H(2,3,2) as solved", item.check(out), False)
    sol = out["sol"]
    expect("main_sdp 1e-3 off the Kravchuk bound", item.check(
        {**out, "sol": replace(sol, objective_value=sol.objective_value + 1e-3)}), True)
    expect("lambda_max off by 1e-6", item.check({**out, "lambda_max": out["lambda_max"] + 1e-6}),
           True)
    part, cut = out["qcut"]
    expect("q-cut weight one short", item.check({**out, "qcut": (part, cut - 1)}), True)

    # the oracle: a non-optimal partition, a wrong value, a non-canonical one
    g, W, _ = rl.named("petersen")
    item = wl._exact_item(g, W, 2, want=12)
    out = item.run(call)
    expect("Petersen max-cut as enumerated", item.check(out), False)
    worse = kcut.Partition(assignment=np.array([0] + [1] * 9), k=2)
    expect("non-optimal partition with its true weight", item.check(
        (worse, checks.cut_weight(W, worse.assignment))), True)
    expect("optimal partition, value 13", item.check((out[0], 13.0)), True)
    flipped = kcut.Partition(assignment=1 - np.asarray(out[0].assignment), k=2)
    expect("optimal partition with labels swapped", item.check((flipped, out[1])), True)

    # cutting-plane rounds whose objective increases
    g, W, _ = rl.named("cycle", (5,))
    item = wl._loop_item(g, W, (2,), seed=1)
    [(k, sol, rnd)] = item.run(call)
    expect("C5 cutting-plane loop as solved", item.check([(k, sol, rnd)]), False)
    hist = sol.info["round_objectives"]
    grown = replace(sol, info={**sol.info, "round_objectives": [hist[0], hist[0] + 0.5]})
    expect("round objective increases", item.check([(k, grown, rnd)]), True)

    # the harness counts an item whose check fails as failed and wrong
    run = harness.Run()
    harness.timed_round(run, [wl.Item("value 1 for 2", lambda step: 1.0,
                                      lambda v: checks.close("value", v, 2.0))], [0])
    expect("harness failed/wrong counts for a wrong item",
           [f"failed {run.failed}, wrong {run.wrong}"] if (run.failed, run.wrong) == (1, 1)
           else [], True)

    print(f"{'all checks hold' if not bad else f'{len(bad)} checks missed a wrong value'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
