"""Exact max-k-cut by exhaustive enumeration at desk scale, plus a
hyperplane-rounding heuristic that turns relaxation solutions into feasible
cuts, and a gap report collecting every bound next to the exact value.

Enumeration is canonical: vertex 0 sits in part 0 and new part labels are
used in increasing order, so each partition into at most k unlabeled parts is
visited exactly once (SUM_{j<=k} S(n,j) states).  One split enumeration
serves every k: the vertices split where the two halves' tables of
labelings are smallest, and the cut of every pair of half-labelings comes
from a GEMM of one-hot codes, built in blocks and scanned in fixed-size
tiles so memory does not grow with the states (Horowitz-Sahni;
R. Williams 2005, "A new algorithm for optimal 2-constraint
satisfaction").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bounds import eigenvalue_bound
from .errors import CapExceeded
from .graphs import Graph, Partition, cut_weight
from .relaxations import RelaxationKind, build, cutting_plane_loop
from .sdp import SdpSolution, SolverOptions, _eigh, solve

__all__ = [
    "WorkCapExceeded",
    "brute_force_maxkcut",
    "brute_force_table",
    "enumeration_states",
    "hyperplane_round",
    "gap_report",
    "GapReport",
]

DEFAULT_STATE_CAP = 1 << 28
# float64 elements per GEMM tile and per block of either half's one-hot codes
BLOCK = 1 << 16


class WorkCapExceeded(CapExceeded):
    """Enumeration refused; the message carries the estimated state count."""


@lru_cache(maxsize=None)
def _stirling2(n: int, j: int) -> int:
    if j == 0:
        return 1 if n == 0 else 0
    if j > n:
        return 0
    if j == n or j == 1:
        return 1
    return j * _stirling2(n - 1, j) + _stirling2(n - 1, j - 1)


def enumeration_states(n: int, k: int) -> int:
    """Number of canonical labelings visited: partitions into <= k parts."""
    return sum(_stirling2(n, j) for j in range(1, min(k, n) + 1))


def _half(W: np.ndarray, parts: int, kmax: int):
    """Labelings of the vertices of ``W`` that extend a labeling already using
    ``parts`` parts: each vertex joins a part used so far or opens the next
    one, up to ``kmax`` parts.  With ``parts = 0`` these are the canonical
    labelings.

    Returns (labels, nparts, cut) in lexicographic label order, with ``cut``
    the weight of ``W`` between different parts.
    """
    labels = np.zeros((1, 0), dtype=np.uint8)
    nparts = np.full(1, parts)
    cut = np.zeros(1)
    for t in range(W.shape[0]):
        width = min(int(nparts.max()) + 1, kmax)
        idx, child = np.nonzero(np.arange(width) <= np.minimum(nparts, kmax - 1)[:, None])
        labels = np.concatenate([labels[idx], child[:, None].astype(np.uint8)], axis=1)
        same = (labels[:, :t] == labels[:, t:]) @ W[t, :t]
        cut = cut[idx] + W[t, :t].sum() - same
        nparts = np.maximum(nparts[idx], child + 1)
    return labels, nparts, cut


def _onehot(labels: np.ndarray, parts: int) -> np.ndarray:
    """0/1 codes with column v*parts + p set when vertex v is in part p."""
    return (labels[:, :, None] == np.arange(parts)).reshape(len(labels), -1).astype(float)


def _tabulated(n: int, kmax: int) -> list[int]:
    """Half-labelings ``brute_force_table`` tabulates with half A of size a,
    indexed by a = 0..n: A's canonical labelings plus B's extension rows for
    every part count j_A of A.  Counted, not enumerated.
    """
    # ext[p]: labelings of the last n - a vertices that extend p used parts
    # (the rows of _half), grown one vertex at a time as a falls
    ext = [1] * (kmax + 1)
    rows = [0] * (n + 1)
    for a in range(n, -1, -1):
        rows[a] = enumeration_states(a, kmax) + sum(ext[1:min(a, kmax) + 1])
        ext = [p * ext[p] + (ext[p + 1] if p < kmax else 0) for p in range(kmax + 1)]
    return rows


@lru_cache(maxsize=None)
def _split(n: int, kmax: int) -> int:
    """Size of half A, 1 <= a < n (a = 1 when n = 1), that tabulates the
    fewest half-labelings; the smaller a on a tie."""
    return min(range(1, max(n, 2)), key=_tabulated(n, kmax).__getitem__)


def brute_force_table(g: Graph, kmax: int, state_cap: int = DEFAULT_STATE_CAP):
    """Best cut per exact part count j = 1..kmax: list of (value, Partition).

    One enumeration serves every k <= kmax, since a max-k-cut is the best
    entry over j <= k.  Each entry is the lexicographically smallest
    canonical labeling of greatest cut among those with exactly j parts,
    and its value is ``cut_weight`` of that partition.  kmax above n is
    clipped to n; kmax < 1 raises ValueError.

    The vertices split into half A, the first a, and half B, with a chosen
    to tabulate the fewest half-labelings (``_split``).  For each labeling
    of A with j_A parts, B takes every labeling that extends it
    canonically, so every canonical labeling is visited once.  A pair's cut
    is cut_A + cut_B + W_AB.sum() minus the same-part cross weight
    X_A (W_AB kron I) X_B^T, a GEMM of one-hot codes.  Both sides' codes are
    built in blocks and the GEMM scanned in tiles of at most ``BLOCK``
    elements: memory is O(BLOCK + half tables).
    """
    n = g.n
    if kmax < 1:
        raise ValueError(f"need kmax >= 1, got kmax={kmax}")
    kmax = min(kmax, n)
    states = enumeration_states(n, kmax)
    if states > state_cap:
        power = f" = 2^{n - 1}" if kmax == 2 else ""
        raise WorkCapExceeded(
            f"k<={kmax} on n={n} needs {states}{power} canonical states, cap {state_cap}"
        )
    a = _split(n, kmax)
    W_AB = g.weights[:a, a:]
    lab_a, parts_a, cut_a = _half(g.weights[:a, :a], 0, kmax)
    best: list[tuple[float, tuple]] = [(-math.inf, ())] * (kmax + 1)
    for j_a in range(1, min(a, kmax) + 1):
        rows = np.nonzero(parts_a == j_a)[0]
        # W_AB kron I, without np.kron's overhead on these small factors
        cross_w = (W_AB[:, None, :, None] * np.eye(j_a)[:, None]).reshape(a * j_a, -1)
        lab_b, parts_b, cut_b = _half(g.weights[a:, a:], j_a, kmax)
        order = np.argsort(parts_b, kind="stable")  # lexicographic within each j
        lab_b, cut_b = lab_b[order], cut_b[order] + W_AB.sum()
        ends = np.searchsorted(parts_b[order], np.arange(j_a, kmax + 2))
        depth = 2 + cross_w.shape[1]
        height = max(1, BLOCK // max(cross_w.shape[0], depth))
        width = max(1, BLOCK // depth)
        for a0 in range(0, rows.size, height):
            block = rows[a0:a0 + height]
            # lhs[r] . rhs[c] = cut_A + cut_B + W_AB.sum() - same-part cross weight
            lhs = np.hstack([cut_a[block, None], np.ones((block.size, 1)),
                             -(_onehot(lab_a[block], j_a) @ cross_w)])
            for j in range(j_a, kmax + 1):
                for c0 in range(ends[j - j_a], ends[j - j_a + 1], width):
                    c1 = min(c0 + width, ends[j - j_a + 1])
                    rhs = np.hstack([np.ones((c1 - c0, 1)), cut_b[c0:c1, None],
                                     _onehot(lab_b[c0:c1], j_a)])
                    step = max(1, BLOCK // (c1 - c0))
                    for r0 in range(0, block.size, step):
                        vals = lhs[r0:r0 + step] @ rhs.T
                        r, c = divmod(int(np.argmax(vals)), c1 - c0)
                        val = float(vals[r, c])
                        if val < best[j][0]:
                            continue
                        lab = tuple(lab_a[block[r0 + r]].tolist() + lab_b[c0 + c].tolist())
                        if val > best[j][0] or lab < best[j][1]:
                            best[j] = (val, lab)
    table = [Partition(assignment=np.array(lab, dtype=np.int64), k=kmax) for _, lab in best[1:]]
    return [None] + [(cut_weight(g, part), part) for part in table]


def brute_force_maxkcut(
    g: Graph,
    k: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[Partition, float]:
    """Exact max-k-cut of ``g`` with an optimal partition in canonical form.

    Of the optimal partitions the one with the fewest parts is returned, and
    of those the lexicographically smallest labeling.  ``state_cap`` caps
    the canonical states for every k (2^(n-1) of them at k = 2); past it the
    enumeration refuses with the state count.  The cap bounds work only,
    since memory does not grow with the states.  The default cap of 2^28
    states reaches n = 29 for k = 2, n = 19 for k = 3, n = 16 for k = 4 and
    n = 14 for every k.  On one BLAS thread of a 2-core Xeon the Coxeter
    graph (n = 28, 2^27 states) takes about 0.44 s, and K_12 at every k
    (Bell(12) = 4.2 M states) about 25 ms.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    table = brute_force_table(g, k, state_cap)
    best_j = max(range(1, k + 1), key=lambda j: (table[j][0], -j))
    val, part = table[best_j]
    return Partition(assignment=part.assignment, k=k), val


def hyperplane_round(
    sol: SdpSolution,
    g: Graph,
    k: int,
    trials: int = 100,
    seed: int = 0,
) -> tuple[Partition, float]:
    """Random-vector rounding of a relaxation solution to a feasible cut.

    Y is factored as V^T V with V its symmetric square root after clipping
    negative eigenvalues, which unlike a factor built from eigenvectors does
    not depend on the basis ``eigh`` picks inside a repeated eigenvalue.
    Each trial draws k standard-normal n-vectors and assigns every vertex to
    the argmax inner product with its column of V; trial t reads block t of
    one ``standard_normal((trials, k, n))`` draw from a PCG64 stream seeded
    with ``seed``, so the first t trials do not depend on ``trials``.  The
    trial of greatest cut weight is returned, the first one on a tie, with
    its parts numbered in order of first appearance (vertex 0 in part 0):
    same seed, same partition.  A Y that is not a finite g.n-by-g.n matrix,
    k < 1 or trials < 1 raise ValueError.

    All trials are scored and weighed together: one product gives every
    trial's weight up to rounding, and ``cut_weight`` settles the trials
    within rounding of the best, so ties fall as its sum has them.  It
    weighs each distinct partition among them once: ``cut_weight`` reads
    only which vertices share a part, so trials that differ only in part
    names, or not at all, weigh the same.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    n, W = g.n, g.weights
    Y = np.asarray(sol.Y, dtype=float)
    if Y.shape != (n, n):
        raise ValueError(f"Y must be {n}-by-{n} for this graph, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must be finite")
    with np.errstate(all="ignore"):  # ``_eigh`` reports a failure by NaN
        w, Q = _eigh((Y + Y.T) / 2.0)
    w = np.clip(w, 0.0, None)
    V = (Q * np.sqrt(w)) @ Q.T  # columns V[:, v] give vertex vectors
    R = np.random.Generator(np.random.PCG64(seed)).standard_normal((trials, k, n))
    labels = np.argmax(R @ V, axis=1)  # (trials, n)
    # column (t, p) of X marks the vertices trial t puts in part p; the cut
    # is the total weight less the weight inside the parts
    X = (labels[:, :, None] == np.arange(k)).transpose(1, 0, 2).reshape(n, -1).astype(float)
    approx = (W.sum() - np.einsum("vc,vc->c", W @ X, X).reshape(trials, k).sum(axis=1)) / 2
    # the product's weight and cut_weight's masked sum each round nonnegative
    # terms, at most n^2 + nk deep, so each lies within B = (n^2 + nk) eps
    # W.sum() of the true weight: the trial cut_weight ranks first lies
    # within 4B of the best product weight
    slack = 4 * (n * n + n * k) * np.finfo(float).eps * W.sum()
    near = labels[approx >= approx.max() - slack]
    # parts renumbered in order of first appearance (vertex n for a part
    # left empty); trials naming one partition weigh the same, so each
    # distinct one is weighed once, the first trial to reach it standing
    # for them all
    hit = near[:, :, None] == np.arange(k)
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), n)
    canon = np.take_along_axis(np.argsort(np.argsort(first, axis=1), axis=1), near, axis=1)
    parts = list({a.tobytes(): a for a in canon}.values())
    vals = [cut_weight(g, Partition(assignment=a, k=k)) for a in parts]
    best = int(np.argmax(vals))
    return Partition(assignment=parts[best], k=k), vals[best]


@dataclass(frozen=True)
class GapReport:
    graph: str
    k: int
    rows: tuple[tuple[str, float], ...]
    exact: float | None = None
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "graph": self.graph,
            "k": self.k,
            "exact": self.exact,
            "bounds": {name: val for name, val in self.rows},
        }
        if self.exact is not None:
            payload["gaps"] = {
                name: {
                    "absolute": val - self.exact,
                    "relative": (val - self.exact) / self.exact if self.exact else None,
                }
                for name, val in self.rows
            }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [f"graph {self.graph}  k={self.k}"]
        width = max(len(name) for name, _ in self.rows) + 2
        if self.exact is not None:
            lines.append(f"{'exact':<{width}}{self.exact:>14.6f}")
        for name, val in self.rows:
            gap = f"  ({val - self.exact:+.6f})" if self.exact is not None else ""
            lines.append(f"{name:<{width}}{val:>14.6f}{gap}")
        return "\n".join(lines)


def gap_report(
    g: Graph,
    k: int,
    with_cuts: bool = True,
    rounding_trials: int = 200,
    seed: int = 0,
    options: SolverOptions | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> GapReport:
    """Table of exact value, closed-form bounds, each solve's dual bound (an
    upper bound even when the solver stops early) and the best rounded cut
    for ``(g, k)``; requires the exact oracle to be feasible."""
    _, exact = brute_force_maxkcut(g, k, state_cap=state_cap)
    rows = []
    rows.append(("eigenvalue_bound", eigenvalue_bound(g, k).value))
    impr = solve(build(g, k, RelaxationKind.PERTURBED_SDP), options)
    rows.append(("perturbed_bound", impr.dual_bound))
    main = solve(build(g, k, RelaxationKind.MAIN_SDP), options)
    rows.append(("main_sdp", main.dual_bound))
    if with_cuts:
        loop = cutting_plane_loop(
            g, k, families=("triangles", "independent_sets"), options=options
        )
        rows.append(("main_sdp_with_cuts", loop.dual_bound))
    _, rounded = hyperplane_round(main, g, k, trials=rounding_trials, seed=seed)
    rows.append(("best_rounded_cut", rounded))
    return GapReport(
        graph=g.name or f"graph(n={g.n})", k=k, rows=tuple(rows), exact=exact
    )
