"""Closed-form bounds: the Laplacian eigenvalue bound for max-k-cut, the
derived chromatic-number lower bound, the Hoffman bound, the strongly-regular
closed form, and the exact complete-graph max-k-cut.  ``RUNGS`` maps each
``kcut bound`` method, the SDP relaxations and their cuts included, to the
function that computes it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import relaxations
from .graphs import Graph, laplacian
from .spectra import lambda_max

__all__ = [
    "BoundReport",
    "RUNGS",
    "SrgParameters",
    "detect_srg",
    "eigenvalue_bound",
    "chromatic_lower_bound",
    "hoffman_bound",
    "srg_sdp_bound",
    "complete_graph_maxkcut",
    "maxkcut_feasibility_flag",
]

_KINDS = ("upper_bound_maxkcut", "lower_bound_chromatic", "exact")


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with provenance and auxiliary data."""

    value: float
    kind: str  # upper_bound_maxkcut | lower_bound_chromatic | exact
    source: str
    k: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")


@dataclass(frozen=True)
class SrgParameters:
    """Strongly regular graph parameters (n, kappa, lam, mu).

    The restricted eigenvalues r >= 0 > s are derived as the roots of
    x^2 - (lam - mu) x - (kappa - mu) = 0; construction validates the
    standard feasibility identity (n - kappa - 1) mu = kappa (kappa - lam - 1).
    """

    n: int
    kappa: int
    lam: int
    mu: int
    r: float = field(init=False)
    s: float = field(init=False)

    def __post_init__(self):
        if (self.n - self.kappa - 1) * self.mu != self.kappa * (self.kappa - self.lam - 1):
            raise ValueError("infeasible strongly regular parameter set")
        disc = (self.lam - self.mu) ** 2 + 4 * (self.kappa - self.mu)
        if disc < 0:
            raise ValueError("infeasible strongly regular parameter set")
        root = math.sqrt(disc)
        r = ((self.lam - self.mu) + root) / 2.0
        s = ((self.lam - self.mu) - root) / 2.0
        if not (r >= 0.0 > s):
            raise ValueError("restricted eigenvalues must satisfy r >= 0 > s")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)


def _check_k(k: int, n: int):
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")


def eigenvalue_bound(g: Graph, k: int) -> BoundReport:
    """Upper bound n(k-1)/(2k) * lambda_max(L) on the max-k-cut of ``g``."""
    _check_k(k, g.n)
    lam = lambda_max(g)
    value = g.n * (k - 1) / (2.0 * k) * lam
    return BoundReport(
        value=value,
        kind="upper_bound_maxkcut",
        source="eigenvalue_bound",
        k=k,
        metadata={"lambda_max": lam, "floor": math.floor(value + 1e-9)},
    )


def _ceil_guarded(v: float) -> int:
    # guards against 99.0000000001-style noise turning a ceiling into 100
    return math.ceil(v - 1e-9)


def chromatic_lower_bound(g: Graph) -> BoundReport:
    """Lower bound 1 + 2|E| / (n lambda_max(L) - 2|E|) on the chromatic number.

    The usable integer bound is the ceiling, reported in metadata.  For a
    weighted graph 2|E| is the total degree, flagged in metadata because the
    underlying statement is for unweighted graphs.  An edgeless graph gets
    value 1 with a degenerate flag.
    """
    lap = laplacian(g)
    two_E = lap.degree_sum
    if two_E == 0.0:
        return BoundReport(
            value=1.0,
            kind="lower_bound_chromatic",
            source="laplacian_chromatic_bound",
            metadata={"ceiling": 1, "degenerate": True},
        )
    lam = lambda_max(g)
    value = 1.0 + two_E / (g.n * lam - two_E)
    meta = {"ceiling": _ceil_guarded(value), "lambda_max": lam, "degree_sum": two_E}
    if np.any((g.weights != 0.0) & (g.weights != 1.0)):
        meta["weighted"] = True
    return BoundReport(
        value=value, kind="lower_bound_chromatic", source="laplacian_chromatic_bound",
        metadata=meta,
    )


def hoffman_bound(g: Graph) -> BoundReport:
    """Hoffman bound 1 - theta_max/theta_min on the chromatic number.

    Uses adjacency eigenvalues in the general (not necessarily regular) form,
    so non-regular comparisons against the Laplacian bound are meaningful.
    """
    if g.total_weight == 0.0:
        return BoundReport(
            value=1.0,
            kind="lower_bound_chromatic",
            source="hoffman_bound",
            metadata={"ceiling": 1, "degenerate": True},
        )
    theta = np.linalg.eigvalsh(g.weights)
    theta_max, theta_min = float(theta[-1]), float(theta[0])
    value = 1.0 - theta_max / theta_min
    return BoundReport(
        value=value,
        kind="lower_bound_chromatic",
        source="hoffman_bound",
        metadata={"ceiling": _ceil_guarded(value), "theta_max": theta_max, "theta_min": theta_min},
    )


def detect_srg(g: Graph) -> SrgParameters:
    """(n, kappa, lam, mu) read exactly from A^2 = kappa I + lam A + mu (J - I - A).

    A weighted or irregular graph, one whose lam or mu is not constant and a
    disjoint union of cliques (mu = 0) raise ValueError.
    """
    A = g.weights
    if not np.isin(A, (0.0, 1.0)).all():
        raise ValueError("srg method needs an unweighted graph")
    degs = A.sum(axis=1)
    if np.any(degs != degs[0]):
        raise ValueError("srg method needs a regular graph")
    # a 0/1 product counts common neighbours, exactly in floating point
    A2 = A @ A
    lam = np.unique(A2[A == 1.0])
    mu = np.unique(A2[(A == 0.0) & ~np.eye(g.n, dtype=bool)])
    if len(lam) != 1 or len(mu) != 1:
        raise ValueError("graph is not strongly regular")
    if mu[0] == 0:
        raise ValueError("srg method needs a connected strongly regular graph")
    return SrgParameters(g.n, int(degs[0]), int(lam[0]), int(mu[0]))


def srg_sdp_bound(p: SrgParameters, k: int) -> BoundReport:
    """Closed form min{ n(k-1)/(2k) (kappa - s), kappa n / 2 } for the SDP
    bound on the max-k-cut of a strongly regular graph.

    The first term is the eigenvalue bound (kappa - s = lambda_max); the
    second equals the edge count and activates once (k-1)/k > kappa/(kappa-s).
    """
    if not 2 <= k < p.n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={p.n}")
    first = p.n * (k - 1) / (2.0 * k) * (p.kappa - p.s)
    second = 0.5 * p.kappa * p.n
    eig_term_active = first <= second
    return BoundReport(
        value=min(first, second),
        kind="upper_bound_maxkcut",
        source="srg_closed_form",
        k=k,
        metadata={
            "eigenvalue_term": first,
            "edge_term": second,
            "active_term": "eigenvalue" if eig_term_active else "edges",
            # switch condition: edge term takes over iff (k-1)/k > kappa/(kappa-s)
            "switched": (k - 1) / k > p.kappa / (p.kappa - p.s),
        },
    )


def complete_graph_maxkcut(n: int, k: int) -> BoundReport:
    """Exact max-k-cut of the complete graph K_n.

    With e = n mod k the value is n^2(k-1)/(2k) - e(k-e)/(2k), attained by the
    most balanced part sizes; computed here in exact integer arithmetic from
    those sizes.  Metadata reports the floor of the eigenvalue bound and
    whether it coincides with the exact value, which happens iff
    e(k-e)/(2k) < 1.
    """
    _check_k(k, n)
    e = n % k
    hi, lo = -(-n // k), n // k
    sizes = [hi] * e + [lo] * (k - e)
    exact = (n * n - sum(m * m for m in sizes)) // 2
    floor_bound = (n * n * (k - 1)) // (2 * k)
    return BoundReport(
        value=float(exact),
        kind="exact",
        source="complete_graph_closed_form",
        k=k,
        metadata={
            "n": n,
            "e": e,
            "part_sizes": sizes,
            "eigenvalue_bound": n * n * (k - 1) / (2.0 * k),
            "rounded_eigenvalue_bound": floor_bound,
            "rounded_bound_tight": e * (k - e) < 2 * k,
        },
    )


def maxkcut_feasibility_flag(g: Graph, k: int) -> bool:
    """True iff the eigenvalue bound certifies max-k-cut < |E|, i.e. that no
    k-coloring cuts every edge, hence chi(G) >= k+1."""
    _check_k(k, g.n)
    return eigenvalue_bound(g, k).value < g.total_weight


def _sdp_rung(kind: str, family=None):
    """The rung solving relaxation ``kind`` of (g, k), plus the cuts
    ``family(g, k)`` if given.  Its value is the certified dual bound, an
    upper bound at any status but ``infeasible``, where it is None."""

    def rung(g: Graph, k: int, options) -> BoundReport:
        model = relaxations.build(g, k, kind)
        meta = {}
        if family is not None:
            model.cuts.extend(family(g, k))
            meta["num_cuts"] = len(model.cuts)
        sol = relaxations.solve(model, options)
        meta.update(objective=sol.objective_value, iterations=sol.iterations,
                    status=sol.status, residuals=sol.residuals, solution=sol)
        return BoundReport(value=sol.dual_bound, kind="upper_bound_maxkcut",
                           source=kind, k=k, metadata=meta)

    return rung


# every bound ``kcut bound --method`` computes, by method name: each maps
# (g, k, options) to a BoundReport.  The SDP rungs read build, solve and the
# families off ``relaxations`` at call time, so wrappers installed there see them
RUNGS = {
    "eig": lambda g, k, options: eigenvalue_bound(g, k),
    "perturbed": _sdp_rung("perturbed_sdp"),
    "sdp": _sdp_rung("main_sdp"),
    "sdp+triangles": _sdp_rung("main_sdp", lambda g, k: relaxations.triangle_cuts(g.n)),
    "sdp+indep": _sdp_rung("main_sdp", lambda g, k: relaxations.independent_set_cuts(g.n, k)),
    "chromatic": lambda g, k, options: chromatic_lower_bound(g),
    "hoffman": lambda g, k, options: hoffman_bound(g),
    "srg": lambda g, k, options: srg_sdp_bound(detect_srg(g), k),
}
