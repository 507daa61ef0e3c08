"""Checks of kcut's outputs against computations made apart from kcut.

Every function returns a list of error strings; an empty list means the
output passed.  Nothing here calls kcut: Laplacians, eigenvalues, cut
weights, Kravchuk values, closed forms and small enumerations are computed
from the weight matrix with numpy and the standard library only.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

# |a - b| <= TOL * (1 + |b|): the acceptance suite's tolerance for solved values
TOL = 1e-5
# constraint residuals of a returned matrix; the solver certifies at 1e-7
FEAS_TOL = 1e-6


class Failure(str):
    """An error that says the item failed without a wrong value: it raised,
    or a solve that should certify did not.  Every other error is a wrong
    output."""


def scaled_gap(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(b))


def laplacian(W: np.ndarray) -> np.ndarray:
    return np.diag(W.sum(axis=1)) - W


def laplacian_lambda_max(W: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(laplacian(W))[-1])


def eigenvalue_bound(W: np.ndarray, k: int) -> float:
    n = W.shape[0]
    return n * (k - 1) / (2.0 * k) * laplacian_lambda_max(W)


def cut_weight(W: np.ndarray, labels) -> float:
    a = np.asarray(labels)
    return float(W[a[:, None] != a[None, :]].sum() / 2.0)


def close(name: str, got: float, want: float, tol: float = TOL) -> list[str]:
    if not np.isfinite(got) or scaled_gap(got, want) > tol:
        return [f"{name}: got {got!r}, want {want!r} (scaled tol {tol:g})"]
    return []


def at_most(name: str, small: float, big: float, tol: float = TOL) -> list[str]:
    """``small <= big`` up to the scaled tolerance."""
    if not (small <= big + tol * (1.0 + abs(big))):
        return [f"{name}: {small!r} exceeds {big!r}"]
    return []


def solved(name: str, sol) -> list[str]:
    """A solve that should certify must end ``optimal``."""
    if sol.status != "optimal":
        return [Failure(f"{name}: status {sol.status} after {sol.iterations} iterations")]
    return []


def upper_bound(name: str, bound: float, objective: float, cut_value: float) -> list[str]:
    """A dual bound lies above the primal objective and above a feasible cut."""
    return (at_most(f"{name} objective above its dual bound", objective, bound)
            + at_most(f"{name} dual bound below a feasible cut", cut_value, bound))


def feasible(kind: str, Y: np.ndarray, k: int) -> list[str]:
    """Re-check the constraints of relaxation ``kind`` at Y from scratch."""
    n = Y.shape[0]
    J = np.ones((n, n))
    err = []
    if float(np.max(np.abs(Y - Y.T))) > FEAS_TOL:
        err.append(f"{kind}: Y not symmetric")
    d = np.diag(Y)
    if kind == "eig_sdp":
        if abs(float(d.sum()) - n) > FEAS_TOL * n:
            err.append(f"{kind}: trace {d.sum()!r} != {n}")
    else:
        want = (k - 1) / k if kind == "perturbed_sdp" else 1.0
        if float(np.max(np.abs(d - want))) > FEAS_TOL:
            err.append(f"{kind}: diagonal off {want} by {np.max(np.abs(d - want)):.2e}")
    cone = k * Y - J if kind in ("main_sdp", "eig_sdp") else Y
    low = float(np.linalg.eigvalsh((cone + cone.T) / 2.0)[0])
    if low < -FEAS_TOL * max(1.0, k):
        err.append(f"{kind}: cone minimum eigenvalue {low:.2e}")
    floor = {"main_sdp": 0.0, "frieze_jerrum": -1.0 / (k - 1)}.get(kind)
    if floor is not None:
        off = Y[~np.eye(n, dtype=bool)]
        if off.size and float(off.min()) < floor - FEAS_TOL:
            err.append(f"{kind}: entry {off.min():.3e} below {floor:g}")
    return err


def triangle_violation(Y: np.ndarray) -> float:
    """Largest y_ij + y_ik - y_jk - 1 over distinct i, j, k."""
    n = Y.shape[0]
    V = Y[:, :, None] + Y[:, None, :] - Y[None, :, :] - 1.0
    idx = np.arange(n)
    V[idx, idx, :] = -np.inf
    V[idx, :, idx] = -np.inf
    V[:, idx, idx] = -np.inf
    return float(V.max()) if n >= 3 else -np.inf


def independent_set_violation(Y: np.ndarray, k: int) -> float:
    """Largest 1 - sum_{i<j in Q} y_ij over (k+1)-subsets Q."""
    worst = -np.inf
    for Q in itertools.combinations(range(Y.shape[0]), k + 1):
        sub = Y[np.ix_(Q, Q)]
        worst = max(worst, 1.0 - float(np.triu(sub, 1).sum()))
    return worst


def satisfies_cuts(name: str, Y: np.ndarray, k: int, families) -> list[str]:
    err = []
    if "triangles" in families:
        v = triangle_violation(Y)
        if v > FEAS_TOL:
            err.append(f"{name}: triangle inequality violated by {v:.2e}")
    if "independent_sets" in families:
        v = independent_set_violation(Y, k)
        if v > FEAS_TOL:
            err.append(f"{name}: independent-set inequality violated by {v:.2e}")
    return err


def canonical(name: str, labels, k: int) -> list[str]:
    """Labels lie in 0..k-1 and appear in order of first use from vertex 0."""
    nxt = 0
    for v in (int(x) for x in labels):
        if v > nxt or v >= k or v < 0:
            return [f"{name}: labeling {list(map(int, labels))} is not canonical"]
        nxt = max(nxt, v + 1)
    return []


def local_optimum(name: str, W: np.ndarray, labels, k: int) -> list[str]:
    """No single vertex moved to another of the k labels raises the cut."""
    a = np.asarray(labels)
    X = np.zeros((W.shape[0], k))
    X[np.arange(a.size), a] = 1.0
    into = W @ X  # into[v, p]: weight from v into part p
    gain = into[np.arange(a.size), a][:, None] - into
    if float(gain.max()) > 1e-9:
        v, p = np.unravel_index(int(np.argmax(gain)), gain.shape)
        return [f"{name}: moving vertex {v} to part {p} raises the cut by {gain.max():g}"]
    return []


def enumerate_maxkcut(W: np.ndarray, k: int) -> float:
    """Max-k-cut by plain enumeration of the k^(n-1) labelings with vertex 0
    in part 0; only for small n."""
    n = W.shape[0]
    code = np.arange(k ** (n - 1))
    labels = np.zeros((code.size, n), dtype=np.int8)
    for v in range(1, n):
        labels[:, v] = (code // k ** (v - 1)) % k
    best = np.zeros(code.size)
    for i, j in zip(*np.nonzero(np.triu(W, 1))):
        best += W[i, j] * (labels[:, i] != labels[:, j])
    return float(best.max())


def complete_maxkcut(n: int, k: int) -> int:
    """n^2 (k-1)/(2k) - e(k-e)/(2k) with e = n mod k, in integers."""
    e = n % k
    return (n * n * (k - 1) - e * (k - e)) // (2 * k)


def kravchuk(d: int, q: int, j: int, i: int) -> int:
    """K_j(i) = sum_h (-1)^h (q-1)^(j-h) C(i, h) C(d-i, j-h)."""
    return sum((-1) ** h * (q - 1) ** (j - h) * comb(i, h) * comb(d - i, j - h)
               for h in range(j + 1))


def hamming_lambda(d: int, q: int, j: int) -> int:
    """Largest Laplacian eigenvalue of H(d,q,j) under the conjecture
    hypothesis: K_j(0) - K_j(1)."""
    return kravchuk(d, q, j, 0) - kravchuk(d, q, j, 1)


def in_hypothesis(d: int, q: int, j: int) -> bool:
    if q == 2 and j % 2 == 1:
        return False
    return j * q >= d * q - (d - 1)


def digits(d: int, q: int) -> np.ndarray:
    v = np.arange(q ** d)
    return np.stack([(v // q ** t) % q for t in range(d)], axis=1)


def first_coordinate_cut(d: int, q: int, j: int) -> int:
    """Weight of the q-cut by first coordinate, counted from the digits."""
    D = digits(d, q)
    adjacent = (D[:, None, :] != D[None, :, :]).sum(axis=2) == j
    split = D[:, None, 0] != D[None, :, 0]
    return int(np.count_nonzero(adjacent & split)) // 2
