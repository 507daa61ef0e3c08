"""The four workloads: their corpora, the timed call of each item, and the
check of its outputs.

The graphs of each corpus are fixed.  The run seed relabels every graph by
a random vertex permutation, orders the items and seeds the hyperplane
rounding, so each seed hands kcut different inputs while the solver does
exactly the same number of iterations (relabeling leaves every iteration
count unchanged).  That keeps the work per round equal across seeds, which
a fresh random draw per seed could not: one draw in twenty of G(n, 1/2)
needs 10^4 to 10^5 iterations where the rest need 10^3.

An item's ``run`` takes a ``step`` callable and makes every call into kcut
through it, ``step(fn, *args)``; the harness times each step and runs its
reference kernel between steps.  Items reach kcut through attribute lookups
on the package at call time (``kcut.solve``, ``kcut.cli.main``), so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

import kcut
import kcut.cli

import checks

# The corpus generator: G(n, 1/2) drawn in order from PCG64(CORPUS_SEED),
# with the recipe of kcut's acceptance suite.
CORPUS_SEED = 1
SDP_KINDS = ("eig_sdp", "perturbed_sdp", "main_sdp", "frieze_jerrum")


@dataclass
class Item:
    name: str
    run: Callable[[Callable], object]
    check: Callable[[object], list]
    # back-to-back executions per round; the item's time is their median.
    # Items of a few milliseconds repeat, so their timer noise averages out.
    reps: int = 1


def gnp(n: int, rng) -> np.ndarray:
    W = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    return W + W.T


class Relabeler:
    """Builds each input graph through kcut's constructors under a seeded
    vertex permutation."""

    def __init__(self, seed: int):
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def graph(self, name: str, W: np.ndarray):
        p = self.rng.permutation(W.shape[0])
        g = kcut.Graph(n=W.shape[0], weights=W[np.ix_(p, p)], name=name)
        return g, np.asarray(g.weights), p

    def named(self, family: str, params=()):
        g0 = kcut.named_graph(family, params)
        return self.graph(g0.name, np.asarray(g0.weights))


def _rounded(name, W, sol, rnd) -> tuple[float, list]:
    """The rounded cut's weight recomputed here, and the checks on it."""
    part, value = rnd
    own = checks.cut_weight(W, part.assignment)
    return own, (checks.close(f"{name} rounded cut weight", value, own, 1e-12)
                 + checks.at_most(f"{name} rounded cut above the relaxation",
                                  own, sol.objective_value))


# --------------------------------------------------------------------------
# ladder_random
# --------------------------------------------------------------------------


def ladder_random(seed: int, out_dir: Path) -> list:
    """One G(n, 1/2) for each n = 6..14, at k = 2 + (n mod 3); each item
    runs the whole bound ladder."""
    corpus_rng = np.random.Generator(np.random.PCG64(CORPUS_SEED))
    rl = Relabeler(seed)
    items = []
    for n in range(6, 15):
        g, W, _ = rl.graph(f"G({n},1/2)", gnp(n, corpus_rng))
        items.append(_ladder_item(g, W, 2 + n % 3, seed))
    return items


def _ladder_item(g, W, k, seed) -> Item:
    name = f"ladder {g.name} k={k}"

    def run(step):
        out = step(lambda: {
            "eigenvalue_bound": kcut.eigenvalue_bound(g, k).value,
            "chromatic": kcut.chromatic_lower_bound(g).value,
            "hoffman": kcut.hoffman_bound(g).value,
        })
        for kind in SDP_KINDS:
            out[kind] = step(lambda: kcut.solve(kcut.build(g, k, kind)))
        out["round"] = step(kcut.hyperplane_round, out["main_sdp"], g, k, seed=seed)
        return out

    def check(out):
        n = g.n
        lam = checks.laplacian_lambda_max(W)
        closed = n * (k - 1) / (2.0 * k) * lam
        two_e = float(W.sum())
        adj = np.linalg.eigvalsh(W)
        err = checks.close("eigenvalue_bound", out["eigenvalue_bound"], closed, 1e-9)
        err += checks.close("chromatic_lower_bound", out["chromatic"],
                            1.0 + two_e / (n * lam - two_e), 1e-9)
        err += checks.close("hoffman_bound", out["hoffman"], 1.0 - adj[-1] / adj[0], 1e-9)
        sols = {kind: out[kind] for kind in SDP_KINDS}
        for kind, sol in sols.items():
            err += checks.solved(kind, sol) + checks.feasible(kind, sol.Y, k)
        if err:
            return err
        rounded, err = _rounded("main_sdp", W, sols["main_sdp"], out["round"])
        for kind, sol in sols.items():
            err += checks.upper_bound(kind, sol.dual_bound, sol.objective_value, rounded)
        v = {kind: sol.objective_value for kind, sol in sols.items()}
        err += checks.close("eig_sdp vs n(k-1)/(2k) lambda_max", v["eig_sdp"], closed)
        err += checks.at_most("perturbed_sdp above eig_sdp", v["perturbed_sdp"], v["eig_sdp"])
        err += checks.at_most("main_sdp above perturbed_sdp", v["main_sdp"], v["perturbed_sdp"])
        err += checks.close("frieze_jerrum vs main_sdp", v["frieze_jerrum"], v["main_sdp"])
        if k == 2:
            err += checks.close("perturbed_sdp vs main_sdp at k=2",
                                v["perturbed_sdp"], v["main_sdp"])
        return err

    return Item(name, run, check)


# --------------------------------------------------------------------------
# hamming_scheme
# --------------------------------------------------------------------------


def hamming_instances():
    """(d, q, j) with d >= 2, q^d <= 81 and the conjecture hypothesis
    j >= d - (d-1)/q (j even when q = 2)."""
    return [(d, q, j)
            for d in range(2, 7)
            for q in range(2, 10) if q ** d <= 81
            for j in range(1, d + 1) if checks.in_hypothesis(d, q, j)]


def hamming_scheme(seed: int, out_dir: Path) -> list:
    """main_sdp at k = 2 and k = q on every hypothesis instance with
    q^d <= 81, plus the Kravchuk conjecture grid d <= 30, q <= 15."""
    rl = Relabeler(seed)
    items = []
    for d, q, j in hamming_instances():
        g0 = kcut.hamming_graph(d, q, j)
        g, W, p = rl.graph(g0.name, np.asarray(g0.weights))
        for k in sorted({2, q}):
            items.append(_hamming_item(g, W, p, d, q, j, k))
    items.append(_grid_item(30, 15))
    return items


def _hamming_item(g, W, p, d, q, j, k) -> Item:
    name = f"hamming {g.name} k={k}"

    def run(step):
        sol = step(lambda: kcut.solve(kcut.build(g, k, "main_sdp")))
        return step(lambda: {
            "sol": sol,
            "lambda_max": kcut.lambda_max(g),
            "kravchuk": kcut.hamming_lambda(d, q, j),
            "qcut": kcut.first_coordinate_qcut(d, q, j),
            "chromatic": kcut.chromatic_lower_bound(g).value,
            "hoffman": kcut.hoffman_bound(g).value,
        })

    def check(out):
        lam = checks.hamming_lambda(d, q, j)
        n = q ** d
        sol = out["sol"]
        err = checks.solved("main_sdp", sol) + checks.feasible("main_sdp", sol.Y, k)
        err += checks.close("main_sdp vs q^d(k-1)/(2k) lambda", sol.objective_value,
                            n * (k - 1) / (2.0 * k) * lam)
        err += checks.close("numeric lambda_max vs Kravchuk", out["lambda_max"], lam, 1e-9)
        if out["kravchuk"] != lam:
            err.append(f"hamming_lambda {out['kravchuk']} != Kravchuk K_j(0)-K_j(1) = {lam}")
        part, cut = out["qcut"]
        own = checks.first_coordinate_cut(d, q, j)
        if cut != own or 2 * q * own != n * (q - 1) * lam:
            err.append(f"q-cut {cut}, counted {own}, bound identity 2q*cut = {n * (q - 1) * lam}")
        # vertex x of the relabeled graph is vertex p[x] of H(d,q,j)
        relabeled = np.asarray(part.assignment)[p]
        if checks.cut_weight(W, relabeled) != own:
            err.append("q-cut weight on the relabeled graph differs from its count")
        if k == q and not err:
            err += checks.upper_bound("main_sdp", sol.dual_bound, sol.objective_value, own)
        err += checks.close("chromatic bound vs Hoffman", out["chromatic"], out["hoffman"], 1e-9)
        return err

    return Item(name, run, check)


def _grid_item(dmax: int, qmax: int, recheck_dmax: int = 12) -> Item:
    def run(step):
        return step(kcut.conjecture_grid, dmax, qmax)

    def check(reports):
        err = []
        if len(reports) != dmax * (qmax - 1):
            err.append(f"{len(reports)} grid reports, want {dmax * (qmax - 1)}")
        for rep in reports:
            if not rep.passed:
                err.append(f"conjecture fails at d={rep.d} q={rep.q}")
            if rep.d > recheck_dmax:
                continue
            for r in rep.rows:
                vals = [checks.kravchuk(rep.d, rep.q, r.j, i) for i in range(rep.d + 1)]
                argmin = min(range(rep.d + 1), key=lambda i: (vals[i], i))
                want = (checks.in_hypothesis(rep.d, rep.q, r.j), vals[1], vals[argmin], argmin)
                if (r.in_hypothesis, r.k_at_one, r.min_value, r.argmin) != want:
                    err.append(f"grid row d={rep.d} q={rep.q} j={r.j} disagrees with {want}")
        return err[:5]

    return Item(f"conjecture grid d<={dmax} q<={qmax}", run, check)


# --------------------------------------------------------------------------
# cuts
# --------------------------------------------------------------------------


def cuts(seed: int, out_dir: Path) -> list:
    """Triangle and independent-set cuts: the paper's fixed families (three
    of them through ``kcut bound``), cutting-plane loops on vertex-transitive
    graphs, and all triangles on seeded G(n, 1/2)."""
    rl = Relabeler(seed)
    items = []

    c5, w_c5, _ = rl.named("cycle", (5,))
    petersen, w_pet, _ = rl.named("petersen")
    kneser, w_kn, _ = rl.named("kneser", (6, 2))
    coxeter, w_cox, _ = rl.named("coxeter")
    for g, W, method, want, ncuts in (
        (c5, w_c5, "sdp+triangles", 25.0 / 6.0, 3 * comb(5, 3)),
        (petersen, w_pet, "sdp+triangles", 12.5, 3 * comb(10, 3)),
        (kneser, w_kn, "sdp+indep", 30.0, comb(15, 3)),
    ):
        path = out_dir / f"{g.name}.txt"
        path.write_text(kcut.write_graph(g))
        items.append(_cli_item(g, W, path, method, want, ncuts))
    items.append(_fixed_cuts_item(c5, w_c5, 4.0, seed))
    items.append(_fixed_cuts_item(coxeter, w_cox, 36.0, seed))

    for family, params in (("cycle", (5,)), ("cycle", (7,)), ("petersen", ()),
                           ("kneser", (6, 2)), ("complete_multipartite", (3, 2)),
                           ("complete_multipartite", (4, 2)), ("hamming", (2, 3, 1)),
                           ("hamming", (3, 2, 2))):
        g, W, _ = rl.named(family, params)
        items.append(_loop_item(g, W, (2, 3, 4), seed))

    # G(n, 1/2) for n = 8..16 in order; the items use n = 10, 11, 12.  The
    # others take 3 s to 50 s each, and n = 13 ends max_iter (CHANGES.md).
    corpus_rng = np.random.Generator(np.random.PCG64(CORPUS_SEED))
    for n in range(8, 17):
        W0 = gnp(n, corpus_rng)
        if 10 <= n <= 12:
            g, W, _ = rl.graph(f"G({n},1/2)", W0)
            items.append(_all_triangles_item(g, W, seed))
    return items


def _cli_item(g, W, path, method, want, ncuts) -> Item:
    argv = ["bound", str(path), "--format", "edge_list", "--k", "2",
            "--method", method, "--json"]

    def bound():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = kcut.cli.main(argv)
        return code, buf.getvalue()

    def run(step):
        return step(bound)

    def check(out):
        code, text = out
        if code != 0:
            return [f"kcut bound exited {code}"]
        payload = json.loads(text)
        value, res = payload["value"], payload["residuals"]
        err = checks.close(f"{method} value", value, want)
        if payload.get("num_cuts") != ncuts:
            err.append(f"{payload.get('num_cuts')} cuts, want {ncuts}")
        if max(res["equality"], res["cut_violation"], res["lower_violation"],
               -res["cone_min_eig"]) > checks.FEAS_TOL:
            err.append(f"residuals {res}")
        err += checks.at_most("cut bound below the max-cut", checks.enumerate_maxkcut(W, 2), value)
        err += checks.at_most("cut bound above the eigenvalue bound", value,
                              checks.eigenvalue_bound(W, 2))
        return err

    return Item(f"kcut bound {g.name} {method}", run, check)


def _fixed_cuts_item(g, W, want, seed) -> Item:
    families = ("triangles", "independent_sets")

    def model():
        m = kcut.build(g, 2, "main_sdp")
        m.cuts.extend(kcut.triangle_cuts(g.n))
        m.cuts.extend(kcut.independent_set_cuts(g.n, 2))
        return m

    def run(step):
        m = step(model)
        sol = step(kcut.solve, m)
        return sol, len(m.cuts), step(kcut.hyperplane_round, sol, g, 2, seed=seed)

    def check(out):
        sol, ncuts, rnd = out
        err = checks.solved("main_sdp+cuts", sol) + checks.feasible("main_sdp", sol.Y, 2)
        if ncuts != 3 * comb(g.n, 3) + comb(g.n, 3):
            err.append(f"{ncuts} cuts, want {4 * comb(g.n, 3)}")
        if err:
            return err
        err += checks.close("triangles + independent sets value", sol.objective_value, want)
        err += checks.satisfies_cuts("main_sdp+cuts", sol.Y, 2, families)
        rounded, more = _rounded("main_sdp+cuts", W, sol, rnd)
        err += more + checks.upper_bound("main_sdp+cuts", sol.dual_bound,
                                         sol.objective_value, rounded)
        err += checks.at_most("cut bound above the eigenvalue bound", sol.objective_value,
                              checks.eigenvalue_bound(W, 2))
        return err

    return Item(f"{g.name} triangles+independent sets", run, check)


def _loop_item(g, W, ks, seed) -> Item:
    """One cutting-plane loop per k in ``ks``; at k >= 3 most of these graphs
    separate no triangle and the loop is a single solve."""

    def run(step):
        out = []
        for k in ks:
            sol = step(kcut.cutting_plane_loop, g, k)
            out.append((k, sol, step(kcut.hyperplane_round, sol, g, k, seed=seed)))
        return out

    def check(out):
        return [e for k, sol, rnd in out for e in _loop_checks(W, k, sol, rnd)]

    return Item(f"cutting_plane_loop {g.name} k={','.join(map(str, ks))}", run, check)


def _loop_checks(W, k, sol, rnd) -> list:
    err = checks.solved("cutting_plane_loop", sol) + checks.feasible("main_sdp", sol.Y, k)
    if err:
        return err
    hist = sol.info["round_objectives"]
    for a, b in zip(hist, hist[1:]):
        err += checks.at_most("round objective increased", b, a)
    # the loop stops when separation finds no fresh triangle violated by
    # more than its 1e-5 tolerance, or after 20 rounds
    if len(hist) <= 20 and checks.triangle_violation(sol.Y) > 1e-5 + checks.FEAS_TOL:
        err.append(f"final triangle violation {checks.triangle_violation(sol.Y):.2e}")
    rounded, more = _rounded("cutting_plane_loop", W, sol, rnd)
    err += more + checks.upper_bound("cutting_plane_loop", sol.dual_bound,
                                     sol.objective_value, rounded)
    err += checks.at_most("uncut main_sdp above the eigenvalue bound", hist[0],
                          checks.eigenvalue_bound(W, k))
    return err


def _all_triangles_item(g, W, seed) -> Item:
    def model():
        m = kcut.build(g, 2, "main_sdp")
        m.cuts.extend(kcut.triangle_cuts(g.n))
        return m

    def run(step):
        sol = step(kcut.solve, step(model))
        return sol, step(kcut.hyperplane_round, sol, g, 2, seed=seed)

    def check(out):
        sol, rnd = out
        err = checks.solved("main_sdp+triangles", sol) + checks.feasible("main_sdp", sol.Y, 2)
        if err:
            return err
        err += checks.satisfies_cuts("main_sdp+triangles", sol.Y, 2, ("triangles",))
        rounded, more = _rounded("main_sdp+triangles", W, sol, rnd)
        err += more + checks.upper_bound("main_sdp+triangles", sol.dual_bound,
                                         sol.objective_value, rounded)
        err += checks.at_most("cut bound above the eigenvalue bound", sol.objective_value,
                              checks.eigenvalue_bound(W, 2))
        return err

    return Item(f"{g.name} all triangles", run, check)


# --------------------------------------------------------------------------
# exact
# --------------------------------------------------------------------------

# plain enumeration in the checks is cheap up to this many labelings
OWN_ENUMERATION_CAP = 1 << 18


def exact(seed: int, out_dir: Path) -> list:
    """The enumeration oracle: bitmask max-cut on G(n, 1/2), n = 16..23;
    level-sweep tables at k <= 4 on G(n, 1/2), n = 10..13; complete graphs
    K_2..K_12 at every k; cycles C_5..C_12 at k = 2, 3; Petersen at
    k = 2, 3, 4; H(2,3,2) at k = 3."""
    corpus_rng = np.random.Generator(np.random.PCG64(CORPUS_SEED))
    rl = Relabeler(seed)
    items = []
    for n in range(16, 24):
        g, W, _ = rl.graph(f"G({n},1/2)", gnp(n, corpus_rng))
        items.append(_exact_item(g, W, 2))
    for n in range(10, 14):
        g, W, _ = rl.graph(f"G({n},1/2)", gnp(n, corpus_rng))
        items.append(_table_item(g, W, 4))
    for n in range(2, 13):
        g, W, _ = rl.named("complete", (n,))
        items.append(_table_item(g, W, n, closed_form=True))
    for n in range(5, 13):
        g, W, _ = rl.named("cycle", (n,))
        items.append(_exact_item(g, W, 2, want=n - n % 2))
        items.append(_exact_item(g, W, 3, want=n))
    g, W, _ = rl.named("petersen")
    for k, want in ((2, 12), (3, 15), (4, 15)):
        items.append(_exact_item(g, W, k, want=want))
    g, W, _ = rl.named("hamming", (2, 3, 2))
    items.append(_exact_item(g, W, 3, want=checks.eigenvalue_bound(W, 3)))
    return items


def _partition_checks(name, W, part, value, k) -> list:
    labels = np.asarray(part.assignment)
    err = checks.canonical(name, labels, k)
    err += checks.close(f"{name} cut weight", value, checks.cut_weight(W, labels), 1e-12)
    err += checks.local_optimum(name, W, labels, k)
    err += checks.at_most(f"{name} above the eigenvalue bound", value,
                          checks.eigenvalue_bound(W, k), 1e-9)
    if k ** (W.shape[0] - 1) <= OWN_ENUMERATION_CAP:
        err += checks.close(f"{name} vs plain enumeration", value,
                            checks.enumerate_maxkcut(W, k), 1e-12)
    return err


def _reps(n: int, k: int) -> int:
    """Five back-to-back executions for enumerations of at most 2^16
    labelings or states, which take a few milliseconds."""
    work = 2 ** (n - 1) if k == 2 else kcut.oracle.enumeration_states(n, k)
    return 5 if work <= 1 << 16 else 1


def _exact_item(g, W, k, want=None) -> Item:
    name = f"exact {g.name} k={k}"

    def run(step):
        return step(kcut.brute_force_maxkcut, g, k)

    def check(out):
        part, value = out
        err = _partition_checks(name, W, part, value, k)
        if want is not None:
            err += checks.close(f"{name} known optimum", value, want, 1e-9)
        return err

    return Item(name, run, check, _reps(g.n, k))


def _table_item(g, W, kmax, closed_form=False) -> Item:
    name = f"table {g.name} k<={kmax}"

    def run(step):
        return step(kcut.brute_force_table, g, kmax)

    def check(table):
        err = []
        best = 0.0
        for j in range(1, kmax + 1):
            value, part = table[j]
            used = np.unique(np.asarray(part.assignment)).size
            if used != j:
                err.append(f"{name}: entry j={j} uses {used} parts")
            err += checks.close(f"{name} j={j} cut weight", value,
                                checks.cut_weight(W, part.assignment), 1e-12)
            err += checks.canonical(f"{name} j={j}", part.assignment, j)
            if value > best:
                best, best_part = value, part
            if j >= 2:
                err += _partition_checks(f"{name} k={j}", W, best_part, best, j)
                if closed_form:
                    err += checks.close(f"{name} k={j} closed form", best,
                                        checks.complete_maxkcut(g.n, j), 1e-12)
        return err

    return Item(name, run, check, _reps(g.n, kmax))


WORKLOADS = {
    "ladder_random": ladder_random,
    "hamming_scheme": hamming_scheme,
    "cuts": cuts,
    "exact": exact,
}
