"""Builders mapping a (graph, k) pair to each semidefinite relaxation of the
max-k-cut, plus generation and separation of triangle and independent-set
inequalities and a cutting-plane loop on top of the solver.  Both families
are generated whole, as one block of arrays in a CutList (a pair template
indexing the lexicographic vertex subsets, no per-cut objects), and refused
above INDEP_SET_CAP cuts before any is built.  The loop makes at most two
solves, the base relaxation and, if its optimum violates a requested
family, the base plus every inequality of those families: the solver's
working set of violated cuts does the separation.

The four relaxations (Y is n-by-n symmetric, L the Laplacian, J all-ones):

  main_sdp       max 1/2 tr(LY)         diag(Y) = 1,        kY - J >= 0, Y >= 0
  frieze_jerrum  max (k-1)/(2k) tr(LY)  diag(Y) = 1,        Y psd, Y >= -J/(k-1)
  eig_sdp        max 1/2 tr(LY)         tr(Y) = n,          kY - J >= 0
  perturbed_sdp  max 1/2 tr(LY)         diag(Y) = (k-1)/k,  Y psd

main_sdp and frieze_jerrum have equal optima; eig_sdp solves in closed form
to n(k-1)/(2k) lambda_max(L); perturbed_sdp sits between them and equals the
best diagonal perturbation of the eigenvalue bound.
"""

from __future__ import annotations

import enum
import math
from itertools import chain, combinations

import numpy as np

from .errors import CapExceeded
from .graphs import Graph, laplacian
from .sdp import CutList, SdpModel, SdpSolution, SolverOptions, _Cuts, solve

__all__ = [
    "RelaxationKind",
    "build",
    "triangle_cuts",
    "separate_triangles",
    "independent_set_cuts",
    "cutting_plane_loop",
]

INDEP_SET_CAP = 10**6


class RelaxationKind(str, enum.Enum):
    MAIN_SDP = "main_sdp"
    FRIEZE_JERRUM = "frieze_jerrum"
    EIG_SDP = "eig_sdp"
    PERTURBED_SDP = "perturbed_sdp"


def build(g: Graph, k: int, kind: RelaxationKind | str) -> SdpModel:
    """The relaxation ``kind`` for the max-k-cut of ``g`` as an SdpModel."""
    if not 2 <= k <= g.n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={g.n}")
    kind = RelaxationKind(kind)
    n = g.n
    L = laplacian(g).L
    label = f"{kind.value}(k={k}, {g.name or 'graph'})"
    if kind is RelaxationKind.MAIN_SDP:
        return SdpModel(
            n=n, objective=L, obj_scale=0.5, diag_values=np.ones(n),
            cone="shifted_psd", cone_k=k, elementwise_lower=np.zeros((n, n)),
            name=label,
        )
    if kind is RelaxationKind.FRIEZE_JERRUM:
        return SdpModel(
            n=n, objective=L, obj_scale=(k - 1) / (2.0 * k), diag_values=np.ones(n),
            cone="psd", elementwise_lower=np.full((n, n), -1.0 / (k - 1)),
            name=label,
        )
    if kind is RelaxationKind.EIG_SDP:
        return SdpModel(
            n=n, objective=L, obj_scale=0.5, trace_value=float(n),
            cone="shifted_psd", cone_k=k, name=label,
        )
    return SdpModel(
        n=n, objective=L, obj_scale=0.5, diag_values=np.full(n, (k - 1) / k),
        cone="psd", name=label,
    )


def _subsets(n: int, r: int) -> np.ndarray:
    """The r-subsets of range(n) as rows, in lexicographic order."""
    flat = chain.from_iterable(combinations(range(n), r))
    return np.fromiter(flat, np.int64, count=r * math.comb(n, r)).reshape(-1, r)


# the triangle inequality with apex a, b or c of a sorted triple (a, b, c):
# y_ab + y_ac <= 1 + y_bc, y_ab + y_bc <= 1 + y_ac, y_ac + y_bc <= 1 + y_ab,
# its three pairs given by their positions in the triple
_APEX_PAIRS = np.array([[[0, 1], [0, 2], [1, 2]],
                        [[0, 1], [1, 2], [0, 2]],
                        [[0, 2], [1, 2], [0, 1]]])


def _triangles(P: np.ndarray) -> CutList:
    """The triangle inequalities with pairs P (m, 3, 2), the last one the
    pair opposite the apex."""
    return CutList.from_arrays(P, np.full((len(P), 3), [1.0, 1.0, -1.0]), np.ones(len(P)))


def triangle_cuts(n: int) -> CutList:
    """All 3 C(n,3) inequalities y_ij + y_ik <= 1 + y_jk: each unordered
    triple a < b < c, in lexicographic order, contributes the cuts with apex
    a, b and c in turn.  Refuses above INDEP_SET_CAP cuts, before building
    any."""
    if n < 3:
        raise ValueError("triangle cuts need n >= 3")
    count = 3 * math.comb(n, 3)
    if count > INDEP_SET_CAP:
        raise CapExceeded(
            f"3 C({n},3) = {count} triangle cuts exceed the cap {INDEP_SET_CAP}"
        )
    return _triangles(_subsets(n, 3)[:, _APEX_PAIRS].reshape(-1, 3, 2))


def separate_triangles(Y: np.ndarray, max_cuts: int = 2000,
                       violation_tol: float = 1e-5) -> CutList:
    """The most violated triangle inequalities at Y, sorted by violation
    (descending), ties broken lexicographically by (apex, j, k), in one block.

    One apex at a time, keeping the best ``max_cuts`` so far: O(n^2 +
    max_cuts) memory.  A negative ``max_cuts`` raises ValueError."""
    if max_cuts < 0:
        raise ValueError(f"max_cuts must be >= 0, got {max_cuts}")
    n = Y.shape[0]
    jj, kk = np.triu_indices(n, 1)
    y_jk = Y[jj, kk]
    best = np.zeros((4, 0))  # rows: violation, apex i, j, k
    for i in range(n):
        # violation of apex i over pair (j, k): y_ij + y_ik - y_jk - 1
        v = Y[i, jj] + Y[i, kk] - y_jk - 1.0
        hit = np.flatnonzero((v > violation_tol) & (jj != i) & (kk != i))
        if hit.size:
            best = np.hstack([best, [v[hit], np.full(hit.size, i), jj[hit], kk[hit]]])
            best = best[:, np.lexsort((best[3], best[2], best[1], -best[0]))[:max_cuts]]
    i, j, k = ijk = best[1:].astype(np.int64)
    apex = np.add(i > j, i > k, dtype=np.int64)  # the position of i in its triple
    T = np.sort(ijk.T, axis=1)
    return _triangles(T[np.arange(len(T))[:, None, None], _APEX_PAIRS[apex]])


def independent_set_cuts(n: int, k: int) -> CutList:
    """One inequality sum_{i<j in Q} y_ij >= 1 per (k+1)-subset Q, in
    lexicographic order, forbidding k+1 pairwise-separated vertices.
    Exhaustive; refuses above INDEP_SET_CAP cuts, before building any."""
    if k + 1 > n:
        raise ValueError("independent-set cuts need k + 1 <= n")
    count = math.comb(n, k + 1)
    if count > INDEP_SET_CAP:
        raise CapExceeded(
            f"C({n},{k + 1}) = {count} independent-set cuts exceed the cap {INDEP_SET_CAP}"
        )
    P = _subsets(n, k + 1)[:, list(combinations(range(k + 1), 2))]  # Q's pairs, in order
    return CutList.from_arrays(P, np.full(P.shape[:2], -1.0), np.full(count, -1.0))


def cutting_plane_loop(
    g: Graph,
    k: int,
    base: RelaxationKind | str = RelaxationKind.MAIN_SDP,
    families: tuple[str, ...] = ("triangles",),
    options: SolverOptions | None = None,
) -> SdpSolution:
    """Solve ``base``; if its optimum violates an inequality of the
    requested families ("triangles", "independent_sets") by more than
    ``tol_eq``, solve once more with every inequality of those families.

    The families are built first, so one above its cap refuses before any
    solve; one application of their operator at the base optimum decides.
    The second solve's working set does the separation: it carries only the
    cuts its iterates violate and certifies against all of them, so an
    ``optimal`` result satisfies every inequality of the families.  The
    returned solution's info dict carries the final cut count, each round's
    objective (``round_objectives``, one or two entries, nonincreasing) and
    each round's certified upper bound (``round_dual_bounds``, the solve's
    ``dual_bound``; None for a round that ended infeasible).
    """
    for fam in families:
        if fam not in ("triangles", "independent_sets"):
            raise ValueError(f"unknown cut family {fam!r}")
    model = build(g, k, base)
    cuts = CutList()
    if "triangles" in families and g.n >= 3:
        cuts.extend(triangle_cuts(g.n))
    if "independent_sets" in families and k < g.n:  # at k = n no (k+1)-subset
        cuts.extend(independent_set_cuts(g.n, k))
    sol = solve(model, options)
    history, bounds = [sol.objective_value], [sol.dual_bound]
    op = _Cuts.of(g.n, cuts)
    if np.any(op.apply(sol.Y) - op.rhs > (options or SolverOptions()).tol_eq):
        model.cuts.extend(cuts)
        sol = solve(model, options)
        history.append(sol.objective_value)
        bounds.append(sol.dual_bound)
    sol.info["round_objectives"] = history
    sol.info["round_dual_bounds"] = bounds
    sol.info["num_cuts"] = len(model.cuts)
    return sol
