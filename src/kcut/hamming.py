"""Hamming association scheme: Kravchuk spectra, H(d,q,j) generators, the
largest-Laplacian-eigenvalue conjecture checker, and the first-coordinate
q-cut with its exact tightness certificate.

All Kravchuk and multiplicity computations use Python integers, so the
conjecture grid is exact even at d = 30, q = 15; floating point only enters
when building dense adjacency matrices or talking to the SDP machinery.
Every Kravchuk table is built one coordinate at a time, by the exact
recurrence of the generating function (1 + (q-1) z)^(d-i) (1 - z)^i in d,
two integer operations an entry and no division (``_kravchuk_rows``).  The
recurrence runs on numpy ``object`` arrays of Python ints, so each step is a
few array operations, exact at any size: the conjecture grid reads every d
at every q from one pass of it, the tables of all its alphabets stacked in
one array, and reads each row's K_j(1), first minimum and hypothesis by
array operations into light immutable rows (``ConjectureRow``).
Each exact fact is computed once and reported, not asserted: the
certificate's ``tight`` is its own comparison, not an identity check.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded
from . import graphs
from .graphs import Graph, Partition, cut_weight

__all__ = [
    "KravchukTable",
    "ConjectureReport",
    "TightnessReport",
    "HammingHypothesisError",
    "kravchuk",
    "kravchuk_table",
    "hamming_graph",
    "hamming_lambda",
    "check_conjecture",
    "conjecture_grid",
    "first_coordinate_qcut",
    "hamming_tightness_certificate",
]


class HammingHypothesisError(ValueError):
    """The (d, q, j) triple violates the hypothesis a certificate needs."""


def kravchuk(d: int, q: int, j: int, i: int) -> int:
    """Exact Kravchuk value K_j(i) for the scheme with d positions, alphabet q.

    K_j(i) = sum_h (-q)^h (q-1)^(j-h) C(d-h, j-h) C(i, h); this is the
    adjacency eigenvalue of H(d,q,j) on the i-th eigenspace.
    """
    if q < 2:
        raise ValueError("alphabet size q must be >= 2")
    if not (0 <= i <= d and 0 <= j <= d):
        raise ValueError("need 0 <= i, j <= d")
    return sum(
        (-q) ** h * (q - 1) ** (j - h) * comb(d - h, j - h) * comb(i, h)
        for h in range(0, j + 1)
    )


@dataclass(frozen=True)
class KravchukTable:
    """All values K[j][i] for 0 <= i, j <= d, plus eigenspace multiplicities."""

    d: int
    q: int
    K: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]  # m_i = C(d, i) (q-1)^i

    def orthogonality_defect(self) -> int:
        """Max |sum_i m_i K_j(i) K_l(i) - delta_jl q^d C(d,j)(q-1)^j|, exactly."""
        worst = 0
        qd = self.q**self.d
        for j in range(self.d + 1):
            for l in range(j, self.d + 1):
                acc = sum(
                    self.multiplicities[i] * self.K[j][i] * self.K[l][i]
                    for i in range(self.d + 1)
                )
                expect = qd * comb(self.d, j) * (self.q - 1) ** j if j == l else 0
                worst = max(worst, abs(acc - expect))
        return worst


def _need_integer(name: str, value, low: int):
    if not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _kravchuk_rows(qs, dmax: int):
    """Yield, for d = 0, 1, ..., dmax positions, the Kravchuk tables over
    every alphabet in ``qs`` as one array K of Python ints (dtype
    ``object``), K[a, j, i] = K_j(i) over the alphabet qs[a].

    One coordinate at a time, by the exact recurrence of the generating
    function sum_j K_j(i) z^j = (1 + (q-1) z)^(d-i) (1 - z)^i: a position
    added to a word's agreeing part multiplies it by 1 + (q-1) z, and the new
    column i = d + 1 is column d times 1 - z, so
    K'_j(i) = K_j(i) + (q-1) K_(j-1)(i) for i <= d and
    K'_j(d+1) = K_j(d) - K_(j-1)(d), with K_-1 = K_(d+1) = 0: two integer
    operations an entry and no division, a few array operations a step for
    all the alphabets at once.  Each table is a new array.
    """
    m = np.array([q - 1 for q in qs], dtype=object).reshape(-1, 1, 1)
    K = np.ones((m.shape[0], 1, 1), dtype=object)
    yield K
    for d in range(dmax):
        nxt = np.zeros((m.shape[0], d + 2, d + 2), dtype=object)
        nxt[:, :-1, :-1] = K
        nxt[:, 1:, :-1] += m * K
        nxt[:, :-1, -1] = K[:, :, -1]
        nxt[:, 1:, -1] -= K[:, :, -1]
        K = nxt
        yield K


def _last_table(d: int, q: int) -> np.ndarray:
    """The table for d positions over the alphabet q, of shape (1, d + 1, d + 1)."""
    for K in _kravchuk_rows((q,), d):
        pass
    return K


def kravchuk_table(d: int, q: int) -> KravchukTable:
    """The table for d positions, the last of the one-coordinate recurrence
    from d = 0, and the multiplicities."""
    _need_integer("d", d, 0)
    _need_integer("q", q, 2)
    K = tuple(map(tuple, _last_table(d, q)[0].tolist()))
    mult = tuple(comb(d, i) * (q - 1) ** i for i in range(d + 1))
    return KravchukTable(d=d, q=q, K=K, multiplicities=mult)


def hamming_graph(d: int, q: int, j: int) -> Graph:
    """Graph H(d,q,j) on q^d vertices, vertex v the word (x_1..x_d) with
    v = sum x_t q^(t-1): adjacency = differing in exactly j coordinates.
    Regular of degree C(d,j)(q-1)^j; the exact Laplacian spectrum
    {K_j(0) - K_j(i)} is attached for use as an eigensolver check.
    """
    if not 1 <= j <= d:
        raise ValueError("need 1 <= j <= d")
    if q < 2:
        raise ValueError("alphabet size q must be >= 2")
    # the cap is read when called, as the other named families read it;
    # q^d >= 2^d > cap once d reaches cap's bit length: not counted, since
    # 3^(10^7) alone takes seconds
    cap = graphs.VERTEX_CAP
    if d >= cap.bit_length() or q**d > cap:
        raise CapExceeded(f"H({d},{q},{j}) has {q}^{d} vertices, above the cap {cap}")
    n = q**d
    diff = np.zeros((n, n), dtype=np.int64)
    for t in range(d):
        x = np.arange(n) // q**t % q  # x_(t+1) of every vertex
        diff += x[:, None] != x[None, :]
    W = (diff == j).astype(float)

    table = kravchuk_table(d, q)
    spec = graphs._merged_spectrum(
        (table.K[j][0] - table.K[j][i], table.multiplicities[i]) for i in range(d + 1))
    return Graph(n=n, weights=W, name=f"H({d},{q},{j})", exact_laplacian_spectrum=spec)


def hamming_lambda(d: int, q: int, j: int) -> int:
    """The Laplacian eigenvalue K_j(0) - K_j(1) = q (q-1)^(j-1) C(d-1, j-1)
    of H(d,q,j) attached to the distinguished scheme idempotent."""
    if not 1 <= j <= d:
        raise ValueError("need 1 <= j <= d")
    return kravchuk(d, q, j, 0) - kravchuk(d, q, j, 1)


def in_conjecture_hypothesis(d: int, q: int, j: int) -> bool:
    """j >= d - (d-1)/q, with j even when q = 2 (H(d,2,j) is bipartite for odd j).

    A Python bool on ints, and element by element on integer arrays."""
    return (j * q >= d * q - (d - 1)) & ((q != 2) | (j % 2 == 0))


class ConjectureRow(NamedTuple):
    """One row j of a conjecture report, immutable, its fields Python ints
    and bools: whether (d, q, j) lies in the hypothesis, K_j(1), min_i
    K_j(i) and its first argmin, and whether the minimum is K_j(1)."""

    d: int
    q: int
    j: int
    in_hypothesis: bool
    k_at_one: int
    min_value: int
    argmin: int
    passed: bool  # min_i K_j(i) attained at i = 1 (only asserted in hypothesis)


@dataclass(frozen=True)
class ConjectureReport:
    d: int
    q: int
    rows: tuple[ConjectureRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if r.in_hypothesis)


def check_conjecture(d: int, q: int) -> ConjectureReport:
    """Check, for each j, whether min_i K_j(i) = K_j(1) in exact arithmetic.

    Within the hypothesis j >= d - (d-1)/q (j even if q = 2) this is the
    claim that hamming_lambda is the largest Laplacian eigenvalue of
    H(d,q,j); rows outside the hypothesis are informational.
    """
    _need_integer("d", d, 1)
    _need_integer("q", q, 2)
    return _conjecture_reports(d, (q,), _last_table(d, q))[0]


def _conjecture_reports(d: int, qs, K: np.ndarray) -> list[ConjectureReport]:
    """The reports for d positions over each alphabet in ``qs``, from their
    tables K (``_kravchuk_rows``): the rows j >= 1, whose first minimum
    ``argmin`` finds, and whose hypothesis (``in_conjecture_hypothesis``)
    is read from integer arrays."""
    R = K[:, 1:]
    arg = R.argmin(axis=2)  # the first minimum
    low = np.take_along_axis(R, arg[..., None], axis=2)[..., 0]
    one = R[:, :, 1]
    q, j = np.array(qs)[:, None], np.arange(1, d + 1)
    hyp = in_conjecture_hypothesis(d, q, j)
    size = len(qs) * d
    rows = list(map(ConjectureRow._make, zip(
        [d] * size, np.repeat(qs, d).tolist(), np.tile(j, len(qs)).tolist(),
        hyp.ravel().tolist(), one.ravel().tolist(), low.ravel().tolist(),
        arg.ravel().tolist(), (low == one).ravel().tolist())))
    return [ConjectureReport(d=d, q=qv, rows=tuple(rows[a * d:(a + 1) * d]))
            for a, qv in enumerate(qs)]


def conjecture_grid(dmax: int, qmax: int) -> list[ConjectureReport]:
    """Reports for every (d, q) with 1 <= d <= dmax, 2 <= q <= qmax, d
    major; every table is read from one pass of the recurrence over all the
    alphabets at once."""
    _need_integer("dmax", dmax, 1)
    _need_integer("qmax", qmax, 2)
    qs = range(2, qmax + 1)
    return [rep for d, K in enumerate(_kravchuk_rows(qs, dmax)) if d
            for rep in _conjecture_reports(d, qs, K)]


def _first_coordinate_cut(g: Graph, q: int) -> tuple[Partition, int]:
    """The partition of H(d,q,j)'s vertices by their first coordinate, v mod
    q, and its cut weight on ``g``, an integer for unit weights."""
    part = Partition(assignment=np.arange(g.n) % q, k=q)
    return part, int(round(cut_weight(g, part)))


def first_coordinate_qcut(d: int, q: int, j: int) -> tuple[Partition, int]:
    """The q-cut of H(d,q,j) that splits vertices by their first coordinate.

    Returns the partition and its cut weight weighed on the graph; the
    tightness certificate compares it with the eigenvalue bound.
    """
    return _first_coordinate_cut(hamming_graph(d, q, j), q)


@dataclass(frozen=True)
class TightnessReport:
    """Exact tightness of the eigenvalue bound for H(d,q,j) at k = q.

    ``cut_value`` is the first-coordinate q-cut weighed on the graph;
    ``eigenvalue_bound_2q`` holds 2q times the k=q eigenvalue bound (an exact
    integer), and ``tight`` whether the two are equal; ``sdp_checks`` maps k
    to (certified dual bound of the mainSDP solve, eigenvalue bound).
    """

    d: int
    q: int
    j: int
    lam: int
    cut_value: int
    eigenvalue_bound_2q: int
    tight: bool
    sdp_checks: dict = field(default_factory=dict)


def hamming_tightness_certificate(
    d: int,
    q: int,
    j: int,
    solve_k: tuple[int, ...] = (),
    solver_options=None,
) -> TightnessReport:
    """Certify max-q-cut tightness of the eigenvalue bound for H(d,q,j).

    Reads the hypothesis j >= d - (d-1)/q (j even if q = 2) and the exact
    Kravchuk minimum from ``check_conjecture(d, q)`` and refuses unless
    hamming_lambda is the largest Laplacian eigenvalue.  Builds H(d,q,j)
    once: ``tight`` compares 2q cut with n (q-1) lambda exactly, so a cut
    below the bound reports False, and for each k in ``solve_k`` (k <= q)
    the relaxation is solved on the same graph, its certified dual bound, an
    upper bound however the solve ends, reported next to the eigenvalue
    bound.
    """
    for k in solve_k:
        if not 2 <= k <= q:
            raise ValueError(f"solve_k entries must satisfy 2 <= k <= q, got {k}")
    if not 1 <= j <= d:
        raise ValueError("need 1 <= j <= d")
    row = check_conjecture(d, q).rows[j - 1]
    if not row.in_hypothesis:
        raise HammingHypothesisError(
            f"H({d},{q},{j}): hypothesis j >= d-(d-1)/q (j even if q=2) fails; "
            "the eigenvalue-bound tightness statement does not apply"
        )
    if not row.passed:
        raise HammingHypothesisError(
            f"H({d},{q},{j}): K_j({row.argmin}) < K_j(1); lambda is not "
            "the largest Laplacian eigenvalue, certificate refused"
        )
    lam = hamming_lambda(d, q, j)
    g = hamming_graph(d, q, j)
    _, cut = _first_coordinate_cut(g, q)
    bound_2q = g.n * (q - 1) * lam  # 2q * (eigenvalue bound at k = q)

    from .bounds import RUNGS

    sdp_checks = {
        k: (RUNGS["sdp"](g, k, solver_options).value, g.n * (k - 1) / (2.0 * k) * lam)
        for k in solve_k
    }
    return TightnessReport(
        d=d, q=q, j=j, lam=lam, cut_value=cut,
        eigenvalue_bound_2q=bound_2q, tight=2 * q * cut == bound_2q,
        sdp_checks=sdp_checks,
    )


def conjecture_rows_csv(reports) -> str:
    """CSV with columns d,q,j,K_j(1),min_i K_j(i),argmin i,pass (hypothesis rows)."""
    lines = ["d,q,j,K_j(1),min,argmin,pass"]
    for rep in reports:
        for r in rep.rows:
            if r.in_hypothesis:
                lines.append(
                    f"{r.d},{r.q},{r.j},{r.k_at_one},{r.min_value},{r.argmin},"
                    f"{'1' if r.passed else '0'}"
                )
    return "\n".join(lines) + "\n"
