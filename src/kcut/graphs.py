"""Weighted undirected graphs, Laplacians, vertex partitions, and graph I/O.

Graphs are stored densely as a symmetric nonnegative weight matrix with zero
diagonal; the target scale is a few hundred vertices.  All generators produce
unit weights.  Instances are immutable after construction and safe to share.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded

__all__ = [
    "Graph",
    "LaplacianView",
    "Partition",
    "GraphFormatError",
    "laplacian",
    "cut_weight",
    "named_graph",
    "read_graph",
    "write_graph",
    "connected_components",
]


VERTEX_CAP = 4096  # the most vertices a named family or a graph file may have


class GraphFormatError(ValueError):
    """Malformed graph input; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph on vertices 0..n-1.

    Parameters
    ----------
    n : int
        Vertex count.
    weights : ndarray
        Symmetric n-by-n matrix of nonnegative edge weights, zero diagonal.
    name : str, optional
        Label used in reports.
    exact_laplacian_spectrum : tuple of (float, int), optional
        Closed-form Laplacian spectrum ``(eigenvalue, multiplicity)`` in
        ascending order, merged exactly from the generator's closed form;
        used as a cross-check against the numeric eigensolver.
    """

    n: int
    weights: np.ndarray
    name: str | None = None
    exact_laplacian_spectrum: tuple[tuple[float, int], ...] | None = None

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=float)
        if W.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}, got {W.shape}")
        if not np.all(np.isfinite(W)):
            raise ValueError("weights must be finite")
        if not np.array_equal(W, W.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(W) != 0.0):
            raise ValueError("diagonal weights must be zero (no self-loops)")
        if np.any(W < 0.0):
            raise ValueError("negative edge weights are not supported")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.n * W.sum()):
                raise ValueError("weights too large: n times the total weight overflows")
        object.__setattr__(self, "weights", _freeze(W))
        if self.exact_laplacian_spectrum is not None:
            mults = sum(m for _, m in self.exact_laplacian_spectrum)
            if mults != self.n:
                raise ValueError("exact spectrum multiplicities must sum to n")

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.weights, 1)))

    @property
    def total_weight(self) -> float:
        """Sum of edge weights (|E| for unit weights)."""
        return float(self.weights.sum() / 2.0)

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, w) with i < j, sorted lexicographically."""
        ei, ej = np.nonzero(np.triu(self.weights, 1))
        return [(int(i), int(j), float(self.weights[i, j])) for i, j in zip(ei, ej)]


@dataclass(frozen=True)
class LaplacianView:
    """Laplacian matrix ``L = Diag(A u) - A`` of a graph plus its total degree."""

    L: np.ndarray
    degree_sum: float  # sum of weighted degrees = 2|E| for unit weights

    def __post_init__(self):
        object.__setattr__(self, "L", _freeze(np.asarray(self.L, dtype=float)))


@dataclass(frozen=True)
class Partition:
    """Assignment of n vertices to at most k parts (parts may be empty)."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("assignment must be a vector")
        if self.k < 1:
            raise ValueError("k must be positive")
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ValueError("assignment entries must lie in {0,...,k-1}")
        object.__setattr__(self, "assignment", _freeze(a))

    @property
    def n(self) -> int:
        return self.assignment.size

    def incidence(self) -> np.ndarray:
        """0/1 incidence matrix X (n-by-k) with X[v, p] = 1 iff vertex v is in part p."""
        X = np.zeros((self.n, self.k))
        X[np.arange(self.n), self.assignment] = 1.0
        return X

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


def laplacian(g: Graph) -> LaplacianView:
    """Laplacian of ``g``: row sums are exactly zero by construction."""
    W = g.weights
    L = np.diag(W.sum(axis=1)) - W
    return LaplacianView(L=L, degree_sum=float(W.sum()))


def cut_weight(g: Graph, p: Partition) -> float:
    """Total weight of edges joining different parts of ``p``.

    Equals the trace form (1/2) tr(X^T L X) for the incidence matrix X.
    """
    if p.n != g.n:
        raise ValueError(f"partition has {p.n} vertices, graph has {g.n}")
    a = p.assignment
    same = a[:, None] == a[None, :]
    return float(np.sum(g.weights[~same]) / 2.0)


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------

# Coxeter graph: certified edge list (28 vertices, 42 edges, 3-regular).
# Rings 0-6, 7-13, 14-20 are heptagons with steps 1, 2, 3; vertices 21-27
# are hubs joined to the matching vertex of each ring.  Validated below
# against the known adjacency spectrum {3, 2^8, (sqrt2-1)^6, (-1)^7, (-sqrt2-1)^6}.
_COXETER_EDGES = (
    (0, 1), (0, 6), (0, 21), (1, 2), (1, 22), (2, 3), (2, 23),
    (3, 4), (3, 24), (4, 5), (4, 25), (5, 6), (5, 26), (6, 27),
    (7, 9), (7, 12), (7, 21), (8, 10), (8, 13), (8, 22), (9, 11),
    (9, 23), (10, 12), (10, 24), (11, 13), (11, 25), (12, 26), (13, 27),
    (14, 17), (14, 18), (14, 21), (15, 18), (15, 19), (15, 22), (16, 19),
    (16, 20), (16, 23), (17, 20), (17, 24), (18, 25), (19, 26), (20, 27),
)

_SQRT2 = math.sqrt(2.0)
_COXETER_ADJ_SPECTRUM = (
    (-1.0 - _SQRT2, 6), (-1.0, 7), (_SQRT2 - 1.0, 6), (2.0, 8), (3.0, 1),
)


def _weights_from_edges(n, edges):
    W = np.zeros((n, n))
    for i, j in edges:
        W[i, j] = W[j, i] = 1.0
    return W


def _check_vertices(n: int, label: str):
    """Refuse a named family or a graph file of more than VERTEX_CAP
    vertices before any of it is built."""
    if n > VERTEX_CAP:
        raise CapExceeded(f"{label} has {n} vertices, above the cap {VERTEX_CAP}")


def _merged_spectrum(pairs) -> tuple[tuple[float, int], ...]:
    """The exact Laplacian spectrum from (eigenvalue, multiplicity) pairs,
    shared by the complete, multipartite, cycle and Hamming families: equal
    eigenvalues merged exactly, with no tolerance, zero multiplicities
    dropped, in ascending order."""
    groups: dict = {}
    for value, mult in pairs:
        groups[value] = groups.get(value, 0) + mult
    return tuple((float(v), m) for v, m in sorted(groups.items()) if m)


def _complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    _check_vertices(n, f"K_{n}")
    W = 1.0 - np.eye(n)
    spec = _merged_spectrum([(0, 1), (n, n - 1)])
    return Graph(n=n, weights=W, name=f"K_{n}", exact_laplacian_spectrum=spec)


def _complete_multipartite(k: int, m: int) -> Graph:
    if k < 1 or m < 1:
        raise ValueError("complete multipartite needs k >= 1 and m >= 1")
    n = k * m
    _check_vertices(n, f"K_{k}x{m}")
    part = np.repeat(np.arange(k), m)
    W = (part[:, None] != part[None, :]).astype(float)
    spec = _merged_spectrum([(0, 1), (n - m, k * (m - 1)), (n, k - 1)])
    return Graph(n=n, weights=W, name=f"K_{k}x{m}", exact_laplacian_spectrum=spec)


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_vertices(n, f"C_{n}")
    W = np.zeros((n, n))
    idx = np.arange(n)
    W[idx, (idx + 1) % n] = 1.0
    W[(idx + 1) % n, idx] = 1.0
    # 2 - 2 cos(2 pi t / n), computed once for t and n - t so the two merge
    spec = _merged_spectrum(
        (2.0 - 2.0 * math.cos(2.0 * math.pi * min(t, n - t) / n), 1) for t in range(n))
    return Graph(n=n, weights=W, name=f"C_{n}", exact_laplacian_spectrum=spec)


def _kneser(nn: int, s: int) -> Graph:
    if s < 1 or 2 * s > nn:
        raise ValueError("kneser needs 1 <= s and 2s <= n")
    # C(nn, s) >= nn: not counted above the cap, since C(10^6, 5 10^5) alone
    # takes seconds
    if nn > VERTEX_CAP or math.comb(nn, s) > VERTEX_CAP:
        raise CapExceeded(f"K({nn},{s}) has C({nn},{s}) vertices, above the cap {VERTEX_CAP}")
    subsets = list(itertools.combinations(range(nn), s))
    n = len(subsets)
    masks = [sum(1 << e for e in sub) for sub in subsets]
    W = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            if masks[a] & masks[b] == 0:
                W[a, b] = W[b, a] = 1.0
    return Graph(n=n, weights=W, name=f"K({nn},{s})")


def _petersen() -> Graph:
    g = _kneser(5, 2)
    return Graph(n=g.n, weights=g.weights, name="Petersen")


def _coxeter() -> Graph:
    W = _weights_from_edges(28, _COXETER_EDGES)
    degs = W.sum(axis=1)
    if not np.all(degs == 3.0) or W.sum() != 84.0:
        raise AssertionError("embedded Coxeter edge list corrupted")
    ev = np.linalg.eigvalsh(W)
    expect = np.concatenate([np.full(m, v) for v, m in _COXETER_ADJ_SPECTRUM])
    if np.max(np.abs(ev - expect)) > 1e-8:
        raise AssertionError("embedded Coxeter edge list fails spectrum check")
    return Graph(n=28, weights=W, name="Coxeter")


def _hamming(d: int, q: int, j: int) -> Graph:
    from .hamming import hamming_graph

    return hamming_graph(d, q, j)


# each family's builder and the names of its parameters
_FAMILIES = {
    "complete": (_complete, ("n",)),
    "complete_multipartite": (_complete_multipartite, ("k", "m")),
    "cycle": (_cycle, ("n",)),
    "petersen": (_petersen, ()),
    "coxeter": (_coxeter, ()),
    "kneser": (_kneser, ("n", "s")),
    "hamming": (_hamming, ("d", "q", "j")),
}


def named_graph(name: str, params: tuple[int, ...] | list[int] = ()) -> Graph:
    """Construct a graph from the named-family catalogue.

    Supported families: ``complete(n)``, ``complete_multipartite(k, m)``,
    ``cycle(n)``, ``petersen``, ``coxeter``, ``kneser(n, s)``,
    ``hamming(d, q, j)``.  A wrong number of parameters raises ValueError
    naming the family's signature.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown graph family {name!r}")
    build, names = _FAMILIES[name]
    params = tuple(int(p) for p in params)
    if len(params) != len(names):
        raise ValueError(f"{name}({', '.join(names)}) takes {len(names)} parameter"
                         f"{'' if len(names) == 1 else 's'}, got {len(params)}")
    return build(*params)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _as_lines(source) -> list[str]:
    if isinstance(source, bytes):
        source = source.decode()
    if isinstance(source, str):
        return source.splitlines()
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode()
        return data.splitlines()
    raise TypeError("source must be str, bytes, or a readable stream")


def _edge_accumulate(W, seen, i, j, w, n, lineno):
    if i < 0 or j < 0 or i >= n or j >= n:
        raise GraphFormatError(f"vertex index out of range: {i} {j}", lineno)
    if i == j:
        raise GraphFormatError(f"self-loop on vertex {i}", lineno)
    if w < 0:
        raise GraphFormatError(f"negative weight {w}", lineno)
    key = (min(i, j), max(i, j))
    if key in seen:
        raise GraphFormatError(f"duplicate edge {key}", lineno)
    seen.add(key)
    W[i, j] = W[j, i] = w


def read_graph(source, format: str = "edge_list") -> Graph:
    """Parse a graph from ``edge_list`` or ``dimacs`` format.

    edge_list: header line "n m", then m lines "i j [w]" (0-indexed,
    weight defaults to 1.0).  DIMACS: one problem line "p edge n m", then m
    1-indexed lines "e i j [w]"; "c" comment lines are skipped.  Both share
    one check of the header (n >= 1, m >= 0, n within VERTEX_CAP, before
    anything is allocated) and of each edge line.
    """
    if format not in ("edge_list", "dimacs"):
        raise ValueError(f"unknown format {format!r}")
    dimacs = format == "dimacs"
    what, tag = ("problem line", "e ") if dimacs else ("header", "")
    rows = [(no, ln.split()) for no, ln in enumerate(_as_lines(source), 1) if ln.strip()]
    if dimacs:
        # the problem line first and once, then edge lines
        rows = [(no, toks) for no, toks in rows if not toks[0].startswith("c")]
        for pos, (no, toks) in enumerate(rows):
            if toks[0] not in ("p", "e"):
                raise GraphFormatError(f"unrecognized line {' '.join(toks)!r}", no)
            if (toks[0] == "p") != (pos == 0):
                raise GraphFormatError("second problem line" if pos
                                       else "edge line before problem line", no)
        rows = [(no, toks[1:]) for no, toks in rows]
    if not rows:
        raise GraphFormatError(f"missing {what}")
    (no, header), edges = rows[0], rows[1:]
    if dimacs:  # "edge n m" once its tag is stripped
        header = header[1:] if header[:1] == ["edge"] else []
    if len(header) != 2:
        raise GraphFormatError(f"{what} must be '{'p edge ' if dimacs else ''}n m'", no)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"{what} must give n and m as integers", no) from None
    if n < 1 or m < 0:
        raise GraphFormatError("need n >= 1 and m >= 0", no)
    _check_vertices(n, "the graph file")
    if len(edges) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(edges)}")
    W = np.zeros((n, n))
    seen: set[tuple[int, int]] = set()
    base = 1 if dimacs else 0
    for no, toks in edges:
        if len(toks) not in (2, 3):
            raise GraphFormatError(f"edge line must be '{tag}i j [w]'", no)
        try:
            i, j = int(toks[0]) - base, int(toks[1]) - base
            w = float(toks[2]) if len(toks) == 3 else 1.0
        except ValueError:
            raise GraphFormatError(f"malformed edge line {tag + ' '.join(toks)!r}", no) from None
        _edge_accumulate(W, seen, i, j, w, n, no)
    return Graph(n=n, weights=W)


def write_graph(g: Graph, format: str = "edge_list") -> str:
    """Serialize ``g``; edges are emitted with i < j in lexicographic order."""
    edges = g.edges()
    if format == "edge_list":
        out = [f"{g.n} {len(edges)}"]
        for i, j, w in edges:
            out.append(f"{i} {j}" if w == 1.0 else f"{i} {j} {w!r}")
        return "\n".join(out) + "\n"
    if format == "dimacs":
        out = [f"p edge {g.n} {len(edges)}"]
        for i, j, w in edges:
            out.append(f"e {i + 1} {j + 1}" if w == 1.0 else f"e {i + 1} {j + 1} {w!r}")
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {format!r}")


def connected_components(g: Graph) -> list[tuple[Graph, np.ndarray]]:
    """Induced subgraphs on the connected components.

    Returns ``(component, vertices)`` pairs where ``vertices`` maps component
    vertex t to original vertex ``vertices[t]``; components are ordered by
    their smallest original vertex.
    """
    unvisited = set(range(g.n))
    comps = []
    adj = g.weights > 0
    while unvisited:
        start = min(unvisited)
        stack = [start]
        unvisited.discard(start)
        comp = [start]
        while stack:
            v = stack.pop()
            for u in np.nonzero(adj[v])[0]:
                u = int(u)
                if u in unvisited:
                    unvisited.discard(u)
                    stack.append(u)
                    comp.append(u)
        comp = np.array(sorted(comp))
        sub = Graph(n=comp.size, weights=g.weights[np.ix_(comp, comp)])
        comps.append((sub, comp))
    return comps
