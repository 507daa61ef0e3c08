"""Builders mapping a (graph, k) pair to each semidefinite relaxation of the
max-k-cut, plus generation and separation of triangle and independent-set
inequalities and a cutting-plane loop on top of the solver.  Both families
are generated whole and refused above INDEP_SET_CAP cuts.  The loop makes at
most two solves, the base relaxation and, if its optimum violates a
requested family, the base plus every inequality of those families: the
solver's working set of violated cuts does the separation.

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
import itertools
import math

import numpy as np

from .errors import CapExceeded
from .graphs import Graph, laplacian
from .sdp import Cut, SdpModel, SdpSolution, SolverOptions, solve

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


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _triangle(i: int, j: int, k: int) -> Cut:
    """The triangle inequality y_ij + y_ik <= 1 + y_jk with apex i."""
    return Cut(pairs=(_pair(i, j), _pair(i, k), _pair(j, k)),
               coeffs=(1.0, 1.0, -1.0), rhs=1.0)


def _clique(Q: tuple[int, ...]) -> Cut:
    """The inequality sum_{i<j in Q} y_ij >= 1 on the sorted vertex set Q."""
    pairs = tuple(itertools.combinations(Q, 2))
    return Cut(pairs=pairs, coeffs=(-1.0,) * len(pairs), rhs=-1.0)


def triangle_cuts(n: int) -> list[Cut]:
    """All 3 C(n,3) inequalities y_ij + y_ik <= 1 + y_jk: each unordered
    triple contributes one cut per choice of the apex i.  Refuses above
    INDEP_SET_CAP cuts, before building any."""
    if n < 3:
        raise ValueError("triangle cuts need n >= 3")
    count = 3 * math.comb(n, 3)
    if count > INDEP_SET_CAP:
        raise CapExceeded(
            f"3 C({n},3) = {count} triangle cuts exceed the cap {INDEP_SET_CAP}"
        )
    cuts = []
    for a, b, c in itertools.combinations(range(n), 3):
        cuts += (_triangle(a, b, c), _triangle(b, a, c), _triangle(c, a, b))
    return cuts


def separate_triangles(Y: np.ndarray, max_cuts: int = 2000,
                       violation_tol: float = 1e-5) -> list[Cut]:
    """The most violated triangle inequalities at Y, sorted by violation
    (descending), ties broken lexicographically by (apex, j, k)."""
    n = Y.shape[0]
    if n < 3:
        return []
    # violation of apex i over pair (j,k): y_ij + y_ik - y_jk - 1
    V = Y[:, :, None] + Y[:, None, :] - Y[None, :, :] - 1.0
    found = []
    jj, kk = np.triu_indices(n, 1)
    for i in range(n):
        vi = V[i, jj, kk]
        mask = vi > violation_tol
        for idx in np.nonzero(mask)[0]:
            j, k2 = int(jj[idx]), int(kk[idx])
            if i == j or i == k2:
                continue
            found.append((float(vi[idx]), (i, j, k2)))
    found.sort(key=lambda t: (-t[0], t[1]))
    return [_triangle(*ijk) for _, ijk in found[:max_cuts]]


def independent_set_cuts(n: int, k: int, cap: int = INDEP_SET_CAP) -> list[Cut]:
    """One inequality sum_{i<j in Q} y_ij >= 1 per (k+1)-subset Q, forbidding
    k+1 pairwise-separated vertices.  Exhaustive; refuses above the cap."""
    if k + 1 > n:
        raise ValueError("independent-set cuts need k + 1 <= n")
    count = math.comb(n, k + 1)
    if count > cap:
        raise CapExceeded(
            f"C({n},{k + 1}) = {count} independent-set cuts exceed the cap {cap}"
        )
    return [_clique(Q) for Q in itertools.combinations(range(n), k + 1)]


def _separate_independent_sets(Y: np.ndarray, k: int, violation_tol: float) -> list[Cut]:
    """The independent-set inequalities violated at Y by more than
    ``violation_tol``, sorted by violation (descending), then by Q."""
    n = Y.shape[0]
    if math.comb(n, k + 1) > INDEP_SET_CAP:
        raise CapExceeded("independent-set separation above the enumeration cap")
    viol = []
    for Q in itertools.combinations(range(n), k + 1):
        s = sum(Y[a, b] for a, b in itertools.combinations(Q, 2))
        if 1.0 - s > violation_tol:
            viol.append((1.0 - s, Q))
    viol.sort(key=lambda t: (-t[0], t[1]))
    return [_clique(Q) for _, Q in viol]


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
    sol = solve(model, options)
    history, bounds = [sol.objective_value], [sol.dual_bound]
    tol = (options or SolverOptions()).tol_eq
    tri = "triangles" in families
    ind = "independent_sets" in families
    if ((tri and separate_triangles(sol.Y, 1, tol))
            or (ind and _separate_independent_sets(sol.Y, k, tol))):
        if tri:
            model.cuts.extend(triangle_cuts(g.n))
        if ind and k < g.n:  # at k = n there is no (k+1)-subset
            model.cuts.extend(independent_set_cuts(g.n, k))
        sol = solve(model, options)
        history.append(sol.objective_value)
        bounds.append(sol.dual_bound)
    sol.info["round_objectives"] = history
    sol.info["round_dual_bounds"] = bounds
    sol.info["num_cuts"] = len(model.cuts)
    return sol
