"""The largest Laplacian eigenvalue and the Laplacian idempotent basis.

Eigenvalues are grouped into numerically distinct values; the zero
eigenspace is split so that the first idempotent is always the all-ones
projector J/n, which keeps disconnected graphs consistent with the convention
used by the eigenvalue bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, laplacian

__all__ = [
    "IdempotentBasis",
    "lambda_max",
    "idempotent_basis",
    "top_idempotent_diag_constant",
]


@dataclass(frozen=True)
class IdempotentBasis:
    """Idempotents F_0..F_m of the Laplacian algebra of a graph.

    F_0 = J/n always; when the graph is disconnected the remaining
    zero-eigenspace projector follows as a separate idempotent with
    eigenvalue 0, then the nonzero eigenspaces in ascending order.
    """

    projectors: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray  # Laplacian eigenvalue per projector
    multiplicities: np.ndarray  # rank (= trace) per projector

    def top(self) -> np.ndarray:
        """Idempotent of the largest Laplacian eigenvalue."""
        return self.projectors[-1]


def lambda_max(g: Graph) -> float:
    """Largest eigenvalue of the Laplacian of ``g``."""
    L = laplacian(g).L
    return float(np.linalg.eigvalsh(L)[-1])


def idempotent_basis(g: Graph) -> IdempotentBasis:
    """Idempotent basis of the Laplacian algebra of ``g``.

    Ascending eigenvalues within 1e-7 (1 + max|L|) of their neighbour share
    one eigenspace; the first is the zero eigenspace, as L has zero row
    sums.  It is split so that F_0 is exactly J/n; for a disconnected graph
    the complementary zero projector follows as its own idempotent.
    Satisfies sum F_i = I, F_i F_j = delta_ij F_i, tr F_i = f_i.
    """
    n = g.n
    L = laplacian(g).L
    w, Q = np.linalg.eigh(L)
    # an eigenspace ends wherever the gap to the next eigenvalue exceeds the tolerance
    ends = [*(np.flatnonzero(np.diff(w) > 1e-7 * (1.0 + np.max(np.abs(L)))) + 1), n]
    J_over_n = np.full((n, n), 1.0 / n)
    projectors: list[np.ndarray] = [J_over_n]
    eigenvalues: list[float] = [0.0]
    multiplicities: list[int] = [1]
    if ends[0] > 1:  # disconnected: the rest of the zero eigenspace
        U = Q[:, : ends[0]]
        projectors.append(U @ U.T - J_over_n)
        eigenvalues.append(0.0)
        multiplicities.append(ends[0] - 1)
    for lo, hi in zip(ends[:-1], ends[1:]):
        U = Q[:, lo:hi]
        projectors.append(U @ U.T)
        eigenvalues.append(float(w[lo:hi].mean()))
        multiplicities.append(int(hi - lo))
    return IdempotentBasis(
        projectors=tuple(projectors),
        eigenvalues=np.array(eigenvalues),
        multiplicities=np.array(multiplicities, dtype=int),
    )


def top_idempotent_diag_constant(g: Graph, tol: float = 1e-8) -> bool:
    """True iff the idempotent for lambda_max(L) has constant diagonal.

    Holds for every walk-regular graph (in particular all vertex-transitive
    graphs), and is the hypothesis under which the plain and perturbed
    eigenvalue bounds coincide.
    """
    d = np.diag(idempotent_basis(g).top())
    return float(d.max() - d.min()) <= tol
