"""One run of one workload: set-up, timed rounds with the reference kernel
between items, the checks, and the metrics.

A round runs every item of the corpus once.  Rounds are whole: the run
starts another only while the rounds so far project to end within
``--seconds``, and always runs at least one (two in the traced run: one
untraced, then traced ones).  Only kcut's calls are timed; the checks and
the reference kernel run between them, off the clock.

The host changes speed by up to 2x in phases of seconds to minutes, so each
call into kcut is also divided by the mean of the reference-kernel times
taken just before and just after it (see ``Stopwatch``).  Those normalized
times repeat across runs where the raw times do not, and they are the gated
end-to-end figures.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kcut

import checks
from workloads import WORKLOADS

SETUP_REPEATS = 3
REF_WARMUP = 3
# set-up time is reported for a host whose reference kernel takes this long
REF_NOMINAL_S = 0.025
REF_LOOP = 20_000
REF_ITERATIONS = 150
REF_SWEEPS = 2
_REF_N = 10
_REF_IU = np.triu_indices(_REF_N, 1)
_REF_RNG = np.random.Generator(np.random.PCG64(0))
_REF_M = _REF_RNG.standard_normal((_REF_N, _REF_N))
_REF_M = _REF_M + _REF_M.T
_REF_IDX = _REF_RNG.integers(0, _REF_N * (_REF_N + 1) // 2, size=600)
_REF_WORDS = np.arange(1 << 21, dtype=np.uint64)


def reference_kernel() -> float:
    """Seconds for a fixed piece of work in three parts: a pure-Python
    integer loop; a batch of ``eigh`` calls on a 10x10 matrix, each wrapped
    in the small-array numpy work of a solver iteration (matrix/vector
    conversion, clipping, a scatter-add); and bit-extraction sweeps over 16 MB,
    like the oracle's labeling sweep.  The host's phases slow
    compute-bound and memory-bound work by different amounts, and kcut's
    workloads mix both; with all three parts the kernel follows each
    workload more closely than a bare ``eigh`` batch does."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    n, iu = _REF_N, _REF_IU
    x = np.concatenate([np.ones(n), np.zeros(iu[0].size)])
    for _ in range(REF_ITERATIONS):
        M = np.zeros((n, n))
        np.fill_diagonal(M, x[:n])
        M[iu] = M.T[iu] = x[n:]
        w, Q = np.linalg.eigh(M + _REF_M)
        np.clip(w, 0.0, None, out=w)
        P = (Q * w) @ Q.T
        z = np.concatenate([np.diag(P), P[iu]])
        np.add.at(z, _REF_IDX, 1e-3)
        x = z / (1.0 + np.linalg.norm(z))
    for shift in range(REF_SWEEPS):
        bits = (_REF_WORDS >> np.uint64(shift)).astype(np.uint8) & 1
        acc += int(bits[-1])
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Round:
    item_s: list  # by item index: median time of the item's executions
    item_norm: list  # the same, each step over its adjacent kernel times
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(self.item_s)

    @property
    def wall_norm(self) -> float:
        return sum(self.item_norm)


@dataclass
class Run:
    rounds: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


def set_up(workload: str, seed: int, out_dir: Path, import_s: float):
    """Build the corpus and make one warm-up solve, ``SETUP_REPEATS`` times.

    Returns the last corpus's items, the set-up time in seconds of a host
    whose reference kernel takes ``REF_NOMINAL_S`` (the import time over the
    kernel time after it, plus the median repetition over the kernel times
    around it), the measured set-up time, and the median graph-construction
    time."""
    ref = statistics.median(reference_kernel() for _ in range(REF_WARMUP))
    import_norm = import_s / ref
    totals, norms, builds = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = WORKLOADS[workload](seed, out_dir)
        t1 = time.perf_counter()
        warm = kcut.solve(kcut.build(kcut.named_graph("cycle", (5,)), 2, "main_sdp"))
        if warm.status != "optimal":
            raise RuntimeError(f"warm-up solve ended {warm.status}")
        t2 = time.perf_counter()
        ref_after = reference_kernel()
        totals.append(t2 - t0)
        norms.append((t2 - t0) / (0.5 * (ref + ref_after)))
        builds.append(t1 - t0)
        ref = ref_after
    setup_s = (import_norm + statistics.median(norms)) * REF_NOMINAL_S
    return (items, setup_s, import_s + statistics.median(totals),
            statistics.median(builds))


class Stopwatch:
    """The ``step`` an item's ``run`` calls around each call into kcut: it
    times the call, then runs the reference kernel off the clock, and adds
    the call's time divided by the mean of the kernel times on either side
    of it.  Steps are a fraction of a second to a few seconds long, so the
    kernel follows the host's phases closely."""

    def __init__(self, run: Run, tracer=None):
        self.run, self.tracer = run, tracer
        self.ref_before = reference_kernel()
        self.item = None
        self.time = self.norm = 0.0

    def start(self, item_name: str):
        self.item = item_name
        self.time = self.norm = 0.0

    def __call__(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.item = self.item
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.item = None
            ref = reference_kernel()
            self.time += elapsed
            self.norm += elapsed / (0.5 * (self.ref_before + ref))
            self.ref_before = ref
            self.run.ref_s.append(ref)


def timed_round(run: Run, items, order, tracer=None) -> Round:
    times = [0.0] * len(items)
    norm = [0.0] * len(items)
    watch = Stopwatch(run, tracer)
    for i in order:
        item = items[i]
        samples = []
        for _ in range(item.reps):
            watch.start(item.name)
            try:
                out = item.run(watch)
                errors = None
            except Exception:
                errors = [checks.Failure(f"raised:\n{traceback.format_exc()}")]
            samples.append((watch.time, watch.norm))
            if errors is None:
                try:
                    errors = item.check(out)
                except Exception:
                    errors = [f"check raised:\n{traceback.format_exc()}"]
            run.attempted += 1
            if errors:
                run.failed += 1
                run.wrong += any(not isinstance(e, checks.Failure) for e in errors)
                print(f"FAILED {item.name}: " + "; ".join(errors[:3]), file=sys.stderr)
        times[i] = statistics.median(t for t, _ in samples)
        norm[i] = statistics.median(v for _, v in samples)
    return Round(times, norm, tracer is not None)


def run_rounds(run: Run, items, order, seconds: float, tracer=None):
    """Whole rounds while they project to end within ``seconds``; with a
    tracer, the first round is untraced and the rest traced."""
    t_begin = time.perf_counter()
    while True:
        traced = tracer is not None and run.rounds
        if traced and not run.rounds[-1].traced:
            tracer.install()
        run.rounds.append(timed_round(run, items, order, tracer if traced else None))
        elapsed = time.perf_counter() - t_begin
        done = len(run.rounds)
        enough = tracer is None or any(r.traced for r in run.rounds)
        if enough and elapsed * (done + 1) / done > seconds:
            break
    if tracer is not None:
        tracer.uninstall()


def _item_p50(rounds, field_name) -> float:
    per_item = zip(*(getattr(r, field_name) for r in rounds))
    return statistics.median(statistics.median(times) for times in per_item)


def raw_figures(run: Run, setup_raw_s: float) -> str:
    """The ungated raw figures of an untraced run, for standard error."""
    return (f"raw setup_s={setup_raw_s:.4f} "
            f"wall_s={statistics.median(r.wall_s for r in run.rounds):.4f} "
            f"item_s_p50={_item_p50(run.rounds, 'item_s'):.5f} "
            f"item_norm_p50={_item_p50(run.rounds, 'item_norm'):.3f} "
            f"ref_s={statistics.median(run.ref_s):.5f}")


def end_to_end(run: Run, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_norm": (statistics.median(r.wall_norm for r in run.rounds), "x"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def bare_eigh_s(n: int, reps: int = 40) -> float:
    M = np.random.Generator(np.random.PCG64(n)).standard_normal((n, n))
    M = M + M.T
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.linalg.eigh(M)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


_SIZE_BUCKETS = (("n_le16", 1, 16), ("n17_40", 17, 40), ("n41_81", 41, 81))


def per_layer(run: Run, tracer, build_s: float) -> dict:
    """Per-round layer figures from the traced rounds' spans."""
    traced = [r for r in run.rounds if r.traced]
    untraced = [r for r in run.rounds if not r.traced]
    per = 1.0 / len(traced)
    self_t = tracer.self_times()
    self_by = defaultdict(float)
    spans_by = defaultdict(list)
    for span, st in zip(tracer.spans, self_t):
        self_by[span.name] += st
        spans_by[span.name].append(span)

    def self_s(*names):
        return per * sum(self_by[n] for n in names)

    solves = spans_by["sdp.solve"]
    solve_s = sum(s.duration for s in solves)
    iterations = sum(s.attrs.get("iterations", 0) for s in solves)
    eigh_s = sum(s.duration for n in ("sdp.eigh", "sdp.eigvalsh") for s in spans_by[n])
    iters_by_kind = defaultdict(int)
    for s in solves:
        kind = "cuts" if s.attrs.get("cuts") else s.attrs.get("kind")
        iters_by_kind[kind] += s.attrs.get("iterations", 0)
    gaps = [s.attrs["gap_rel"] for s in solves if s.attrs.get("gap_rel") is not None]

    over_eigh = {}
    solves = [s for s in solves if "iterations" in s.attrs]
    bare = {n: bare_eigh_s(n) for n in sorted({s.attrs["n"] for s in solves})}
    for label, lo, hi in _SIZE_BUCKETS:
        group = [s for s in solves if lo <= s.attrs["n"] <= hi and s.attrs["iterations"]]
        its = sum(s.attrs["iterations"] for s in group)
        if its:
            iter_s = sum(s.duration for s in group) / its
            eigh_ref = sum(s.attrs["iterations"] * bare[s.attrs["n"]] for s in group) / its
            over_eigh[label] = iter_s / eigh_ref
        else:
            over_eigh[label] = 0.0

    exact = spans_by["oracle.brute_force_maxkcut"] + spans_by["oracle.brute_force_table"]
    bitmask = [s for s in spans_by["oracle.brute_force_maxkcut"] if s.attrs.get("k") == 2]
    labelings = sum(2 ** (s.attrs["n"] - 1) for s in bitmask)
    bitmask_s = sum(s.duration for s in bitmask)
    tables = spans_by["oracle.brute_force_table"]
    states = sum(kcut.oracle.enumeration_states(s.attrs["n"], min(s.attrs["k"], s.attrs["n"]))
                 for s in tables)
    tables_s = sum(s.duration for s in tables)
    oracle_rss = [s.attrs["rss_mb"] for s in exact + spans_by["oracle.hyperplane_round"]
                  if "rss_mb" in s.attrs]
    cli = spans_by["cli.main"]

    return {
        "graphs.build_s": (build_s, "s"),
        "spectra.lambda_max_s": (self_s("spectra.lambda_max"), "s"),
        "bounds.closed_form_s": (self_s("bounds.eigenvalue_bound", "bounds.chromatic_lower_bound",
                                        "bounds.hoffman_bound"), "s"),
        "relaxations.build_s": (self_s("relaxations.build"), "s"),
        "relaxations.cutgen_s": (self_s("relaxations.triangle_cuts",
                                        "relaxations.independent_set_cuts"), "s"),
        "relaxations.cuts": (per * sum(s.attrs.get("count", 0) for n in (
            "relaxations.triangle_cuts", "relaxations.independent_set_cuts",
            "relaxations.separate_triangles") for s in spans_by[n]), "count"),
        "relaxations.separate_s": (self_s("relaxations.separate_triangles"), "s"),
        "relaxations.rounds": (per * sum(s.attrs.get("rounds", 0)
                                         for s in spans_by["relaxations.cutting_plane_loop"]),
                               "count"),
        "sdp.solves": (per * len(solves), "count"),
        "sdp.solve_s": (per * solve_s, "s"),
        "sdp.iterations": (per * iterations, "count"),
        "sdp.iter_us": (1e6 * solve_s / iterations if iterations else 0.0, "us"),
        **{f"sdp.iters.{kind}": (per * iters_by_kind[kind], "count")
           for kind in (*("eig_sdp", "perturbed_sdp", "main_sdp", "frieze_jerrum"), "cuts")},
        "sdp.eigh_s": (per * eigh_s, "s"),
        "sdp.eigh_share": (eigh_s / solve_s if solve_s else 0.0, "share"),
        **{f"sdp.iter_over_eigh.{label}": (v, "x") for label, v in over_eigh.items()},
        "sdp.optimal": (per * sum(s.attrs.get("status") == "optimal" for s in solves), "count"),
        "sdp.gap_rel_max": (max(gaps, default=0.0), "share"),
        "oracle.exact_s": (self_s("oracle.brute_force_maxkcut", "oracle.brute_force_table"), "s"),
        "oracle.labelings_per_s": (labelings / bitmask_s if bitmask_s else 0.0, "1/s"),
        "oracle.states_per_s": (states / tables_s if tables_s else 0.0, "1/s"),
        "oracle.peak_rss_mb": (max(oracle_rss, default=0.0), "MB"),
        "oracle.round_s": (self_s("oracle.hyperplane_round"), "s"),
        "hamming.kravchuk_s": (self_s("hamming.hamming_lambda", "hamming.conjecture_grid"), "s"),
        "hamming.qcut_s": (self_s("hamming.first_coordinate_qcut"), "s"),
        "cli.bound_s": (per * sum(s.duration for s in cli), "s"),
        "cli.overhead_s": (self_s("cli.main"), "s"),
        "host.ref_s": (statistics.median(run.ref_s), "s"),
        "host.wall_s": (statistics.median(r.wall_s for r in untraced), "s"),
        "host.item_s_p50": (_item_p50(untraced, "item_s"), "s"),
        "host.item_norm_p50": (_item_p50(untraced, "item_norm"), "x"),
        # traced minus untraced wall, compared in reference units so that a
        # change of host speed between the rounds does not show as overhead
        "trace.overhead_s": ((statistics.median(r.wall_norm for r in traced)
                              - statistics.median(r.wall_norm for r in untraced))
                             * statistics.median(run.ref_s), "s"),
    }
