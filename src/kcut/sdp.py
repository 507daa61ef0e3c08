"""Solver for the structured semidefinite programs the relaxations produce.

The model class is deliberately narrow: maximize a scaled trace objective
subject to a diagonal or trace equality, a PSD or shifted-PSD cone
constraint, an optional elementwise lower bound, and optional sparse linear
cuts.  That covers every relaxation in this package while keeping the solver
self-contained.  The cuts are a ``CutList`` of array blocks from
generation to the solver, with no per-cut object: a generated family is one
block, validated once, and a single cut a one-row block.  The solver's cut
operator (``_Cuts``) numbers the cuts as the CutList does, each run of
blocks of one arity concatenated into one group.

Algorithm: operator splitting in consensus form, in the model's own
coordinates.  Both cones are Y - s J >= 0, with the scalar shift s = 1/k for
the shifted cone kY - J >= 0 and s = 0 for the plain one, so projecting onto
the cone is s J + P(Y - s J), P the projection onto the PSD matrices.  The
variable is a symmetric n-by-n matrix, whose Frobenius product is
``np.vdot``.  It is shared between two full blocks -- the cone projection
(one dense eigendecomposition per iteration) and the elementwise projection
enforcing the equality and lower bounds, into which the linear objective
folds as a shift of the projected point -- plus one tiny block per cut, each
a halfspace projection touching only its few upper-triangle entries (read at
flat positions i*n + j and summed back onto both (i, j) and (j, i)).
Over-relaxation is fixed at 1.6 and the penalty parameter is auto-scaled
from the objective norm, then held fixed for the whole solve.  The start
point is the cone's barycentre (1 - s) I + s J, so runs are deterministic.
One object, ``_SolverState``, holds a solve's data and state; ``solve``
builds it and runs its loop.

A lower bound that the cone already implies is presolved away: under a
diagonal constraint d, Y - s J >= 0 gives |Y_ij - s| <= sqrt((d_i - s)(d_j
- s)), so a floor at or below s - sqrt((d_i - s)(d_j - s)) on every
off-diagonal entry (main_sdp and frieze_jerrum at k = 2, both the
Goemans-Williamson SDP) constrains nothing.  The elementwise block then only
sets the diagonal and the dual bound carries no floor multiplier; the
residuals still measure the model's own bound.  Enforced, such a floor
leaves ADMM drifting for thousands of iterations at a near-constant residual
while its multiplier drains to zero.

The cut blocks' duals are kept in factored form.  Every cut block takes the
same consensus step X - Xn, and a halfspace projection moves a block only
along its own coefficients, so from a zero start cut c's scaled dual is
always E[pairs_c] + beta_c coef_c: one symmetric matrix E and one scalar per
cut, updated as E <- (1 - a) E + (X - Xn) and beta <- (1 - a) beta - a lam,
where a is the over-relaxation, lam = max(viol, 0) / |coef|^2 and viol = A(X
- E) - beta |coef|^2 - rhs, A applying the cuts to a matrix (``_Cuts``).  The
block duals sum to zero, U_psd + U_el + C = 0 with C = count * E +
scatter(beta) the cut duals summed into a matrix, so the PSD block's dual is
never stored: the step reads it as -(U_el + C).  C is zero without working
cuts; with them it is carried through the plain step, which scatters lam,
and recomputed from E and beta only when acceleration or a new working set
moves the state.  A sums a group of cuts of one arity row by row, one term
of every cut per row, over row-major arrays in the full and the working
operator alike, so a cut reads the same value in both; the scatter reads
every cut, since a zero weight (lam at a cut not violated) adds an exact
zero, and a filter on the weights cost more than it saved.  The step writes
into scratch matrices allocated once per solve, and touches the shift s
only when s != 0.  Per-entry duals are formed only at the checks, for the
ADMM residuals and the Farkas margin.

The loop carries only a working set of the cuts, after BiqMac (Rendl,
Rinaldi & Wiegele 2010): the cuts the start point violates, then, at the
first check (iteration 1) and at every full check (every 25 iterations),
where ``_residuals`` evaluates every cut, each cut violated by more than
``tol_eq``; cuts never leave.  Cuts that never bind thus cost no work per
iteration and do not slow the consensus averaging, which gives an entry
read by many cut blocks a high degree.  The working operator slices the
columns of the full one (``_Cuts.take``).  When the set grows, the plain
step's X, U_el, E and the kept cuts' beta carry over; a new cut starts at
beta = 0, with the dual E[pairs_c] of a block that was never active, C is
recomputed and the Anderson history restarts.  The stop test, the Farkas
test and the returned residuals read every cut, and a cut outside the
working set enters the dual bound with multiplier 0, so a solve is
certified against the whole model.

The ADMM step x -> T(x) on the state x = (X, U_el, E, beta) is sped up by
safeguarded type-II Anderson acceleration: depth 20, a Gram-matrix ridge of
1e-10 times its trace, and a revert to the plain step, with the history
cleared, whenever the accelerated point's fixed-point residual is larger
than that of the point before it (or not finite).  Acceleration stops after
500 reverts in the solve, and only then.  The history keeps the upper
triangles of X and U_el, E at the working cuts' entries and beta, so it is
O(n^2 + #cuts), and every model is accelerated.  Depth 20 is the deepest
history whose memory stays within 4 MiB at n = 81; on small models it
certifies in about a quarter fewer iterations than depth 10.  The ridged
Gram system lives in one persistent buffer, the ridge written onto its
diagonal through a strided view.

At n <= 16 an iteration is bound by the per-call overhead of its numpy
calls, not by their flops, so the loop's two LAPACK calls skip
numpy.linalg's wrappers: the projection's eigendecomposition (``_eigh``) and the Anderson
coefficients (``_Anderson.coefficients``) call the gufuncs that
``np.linalg.eigh`` and ``np.linalg.solve`` wrap, with the same values bit
for bit, under one ``np.errstate`` per solve rather than one per call.  The
gufuncs report a LAPACK failure by NaN outputs, not an exception: ``_eigh``
then retries on the reversed matrix and raises ``LinAlgError`` on a second
failure, and a NaN Anderson step is rejected like any non-finite one.

One residual routine, ``_residuals``, reads a matrix in the model's own
coordinates: the solver's stop test runs it on the very matrix ``solve``
returns, and ``certify`` is that call plus a report.  The stop test reads
the plain step's output.  It must find the equality, lower-bound and cut
residuals within tolerance, then the least cone eigenvalue, computed only
once those pass, and then a dual feasible point assembled from the block
multipliers (shifting the diagonal multiplier enough to make the slack
matrix PSD) must give a weak-duality upper bound within ``tol_gap`` of the
objective.  A solve is ``optimal`` exactly when this certified test stopped
it; the dual bound stays a valid upper bound however the loop ends.

The test runs at every 25th iteration, a full check, and at the perfect
squares up to 144 (iterations 1, 4, 9, 16, 36, ..., 144), a stop-only
check: many small and association-scheme models certify within 9 to 18
iterations.  The check at iteration 1, should its residuals fail, grows
the working set as a full check does.  At a full check whose residuals
fail, the same dual assembly runs on the step of the multipliers with a
zero objective: on an infeasible model ADMM's dual iterates diverge along a
Farkas ray (Banjac, Goulart, Stellato & Boyd 2019), and a negative value
proves that no feasible point exists.  Only that proof reports
``infeasible``.  Its eigensolve runs only when the value without the
eigenvalue shift, a lower bound on the shifted one, is below the proof's
threshold: the verdict is the same.  Every later stop-only check runs the
stop test alone: no Farkas test, no growth of the working set, no write to
the solver's state.  So a solve takes exactly the iterates it takes with
the first check and the full checks alone, and can only stop sooner.

The ADMM primal and dual residuals that the solution reports, whose cut
term reads every working cut, are computed only at the checks whose figures
are reported: the one that ends the solve, and the last one within
``max_iter``.  No other check reads them.
"""

from __future__ import annotations

import io
import math
import numbers
import time
from dataclasses import dataclass, field
from itertools import combinations, groupby

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo, solve1 as _solve1

from .errors import CapExceeded

__all__ = [
    "CutList",
    "SdpModel",
    "SolverOptions",
    "SdpSolution",
    "CertificationReport",
    "solve",
    "certify",
    "dump_model",
]


class CutList:
    """Cuts kept as read-only blocks of arrays, ``pairs`` (m, a, 2),
    ``coeffs`` (m, a) and ``rhs`` (m,) for m cuts of one arity a: a family
    of a million cuts is a few arrays, not a million objects.

    ``from_arrays`` makes one block, validated once; ``extend`` appends
    another CutList's blocks, shared; ``+`` and slicing by a range give new
    CutLists; ``blocks`` yields the arrays in order.  There is no per-cut
    access: an integer index, a stepped slice, iteration and a list in place
    of a CutList raise.  CutLists compare by identity.
    """

    def __init__(self):
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._len = 0

    @classmethod
    def from_arrays(cls, pairs, coeffs, rhs) -> CutList:
        """The m cuts sum_p coeffs[c, p] Y[pairs[c, p]] <= rhs[c] over
        distinct pairs i < j, from ``pairs`` (m, a, 2), ``coeffs`` (m, a) and
        ``rhs`` (m,), all finite and no cut's coeffs all zero."""
        P = np.asarray(pairs, dtype=np.int64)
        C = np.asarray(coeffs, dtype=float)
        b = np.asarray(rhs, dtype=float)
        if (P.ndim != 3 or P.shape[2] != 2 or not P.shape[1] or C.shape != P.shape[:2]
                or b.shape != P.shape[:1]):
            raise ValueError("cut needs matching, nonempty pairs and coeffs")
        i, j = P[..., 0], P[..., 1]
        if i.min(initial=0) < 0 or (j - i).min(initial=1) < 1:
            raise ValueError("cut pairs must satisfy 0 <= i < j")
        # column by column: the arity is small and the cuts many
        key = (i * (int(j.max(initial=0)) + 1) + j).T
        if any((key[p] == key[q]).any() for p, q in combinations(range(len(key)), 2)):
            raise ValueError("cut pairs must be distinct")
        if not (np.isfinite(C).all() and np.isfinite(b).all()):
            raise ValueError("cut coeffs and rhs must be finite")
        zero = C[:, 0] == 0
        for col in C.T[1:]:
            zero &= col == 0
        if zero.any():
            raise ValueError("cut coeffs must not all be zero")
        out = cls()
        out._add(P, C, b)
        return out

    def _add(self, P: np.ndarray, C: np.ndarray, b: np.ndarray):
        if b.size:
            block = P.view(), C.view(), b.view()
            for a in block:
                a.setflags(write=False)
            self._blocks.append(block)
            self._len += b.size

    def extend(self, cuts: CutList):
        if not isinstance(cuts, CutList):
            raise TypeError(f"expected a CutList, got {type(cuts).__name__}; "
                            "make cuts with CutList.from_arrays")
        for block in list(cuts._blocks):  # ``cuts`` may be self
            self._add(*block)

    def blocks(self):
        """(pairs, coeffs, rhs) arrays per block, in order, each of one
        arity."""
        return iter(self._blocks)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: slice) -> CutList:
        if not isinstance(index, slice):
            raise TypeError(f"CutList takes a slice, not {type(index).__name__}; "
                            "read single cuts through blocks()")
        start, stop, step = index.indices(self._len)
        if step != 1:
            raise ValueError(f"CutList slices take no step, got {index.step}")
        out, lo = CutList(), 0
        for block in self._blocks:
            hi = lo + block[2].size
            rows = slice(max(start - lo, 0), max(min(stop, hi) - lo, 0))
            out._add(*(a[rows] for a in block))
            lo = hi
        return out

    def __add__(self, other: CutList) -> CutList:
        out = CutList()
        out.extend(self)
        out.extend(other)
        return out

    def __repr__(self) -> str:
        return f"CutList({self._len} cuts in {len(self._blocks)} blocks)"


@dataclass
class SdpModel:
    """max obj_scale * tr(objective @ Y) over the structured feasible set.

    Exactly one of ``diag_values`` / ``trace_value`` must be given.  The cone
    is either ``psd`` (Y >= 0 in the Loewner order) or ``shifted_psd``
    (cone_k * Y - J >= 0 with integer cone_k >= 2).  ``elementwise_lower``
    bounds every off-diagonal entry from below (the diagonal is pinned by the
    equality constraints).  ``cuts`` must be a CutList (TypeError
    otherwise).  ``n`` must be an integer >= 1, and every number given must
    be finite: a value that breaks either raises ValueError naming its
    field.
    """

    n: int
    objective: np.ndarray
    obj_scale: float = 1.0
    diag_values: np.ndarray | None = None
    trace_value: float | None = None
    cone: str = "psd"
    cone_k: int | None = None
    elementwise_lower: np.ndarray | None = None
    cuts: CutList = field(default_factory=CutList)
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        C = np.asarray(self.objective, dtype=float)
        if (C.shape != (self.n, self.n) or not np.isfinite(C).all()
                or np.max(np.abs(C - C.T)) > 1e-10):
            raise ValueError("objective must be a finite symmetric n-by-n matrix")
        self.objective = C
        if (self.diag_values is None) == (self.trace_value is None):
            raise ValueError("exactly one of diag_values / trace_value must be set")
        if self.diag_values is not None:
            d = np.asarray(self.diag_values, dtype=float)
            if d.shape != (self.n,):
                raise ValueError("diag_values must have length n")
            self.diag_values = d
        if self.cone not in ("psd", "shifted_psd"):
            raise ValueError(f"unknown cone {self.cone!r}")
        if self.cone == "shifted_psd":
            if not isinstance(self.cone_k, numbers.Integral) or self.cone_k < 2:
                raise ValueError("cone_k must be an integer >= 2 for the shifted_psd cone")
        if self.elementwise_lower is not None:
            B = np.asarray(self.elementwise_lower, dtype=float)
            if B.shape != (self.n, self.n):
                raise ValueError("elementwise_lower must be n-by-n")
            self.elementwise_lower = B
        for name in ("obj_scale", "diag_values", "trace_value", "elementwise_lower"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if not isinstance(self.cuts, CutList):
            raise TypeError(f"cuts must be a CutList, got {type(self.cuts).__name__}")
        for P, _, _ in self.cuts.blocks():
            if P[..., 1].max() >= self.n:
                raise ValueError(f"cut pair index {P[..., 1].max()} out of range for n={self.n}")

    def objective_value(self, Y: np.ndarray) -> float:
        return float(self.obj_scale * np.sum(self.objective * Y))


@dataclass
class SolverOptions:
    tol_eq: float = 1e-7  # equality, lower-bound and cut residuals
    tol_psd: float = 1e-7  # least eigenvalue of the cone matrix, from below
    tol_gap: float = 1e-6  # certified duality gap, scaled by (1 + |objective|)
    max_iter: int = 200_000
    n_cap: int = 500

    def __post_init__(self):
        for name in ("tol_eq", "tol_psd", "tol_gap"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        for name in ("max_iter", "n_cap"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")


_ALPHA = 1.6  # over-relaxation
_CHECK_EVERY = 25  # iterations between full checks
_EARLY_LAST = 144  # the last early, stop-only check: perfect squares up to it
_AA_DEPTH = 20  # Anderson history length
_AA_RIDGE = 1e-10  # normal-equation ridge, relative to the Gram trace
_AA_MAX_REJECTED = 500  # safeguard rejections before acceleration stops


@dataclass
class SdpSolution:
    Y: np.ndarray
    objective_value: float
    status: str  # optimal | max_iter | infeasible
    residuals: dict
    dual_bound: float | None = None
    gap: float | None = None
    iterations: int = 0
    runtime: float = 0.0
    info: dict = field(default_factory=dict)

    @classmethod
    def from_matrix(cls, model: SdpModel, Y: np.ndarray, status: str = "optimal"):
        """Wrap an externally supplied matrix (e.g. a combinatorial point) so
        it can be run through certify()."""
        return cls(Y=np.asarray(Y, float), objective_value=model.objective_value(Y),
                   status=status, residuals={})


def _sum_rows(T: np.ndarray, out: np.ndarray):
    """out = T[0] + T[1] + ..., added first row to last, so that each column
    sums its terms in order whatever T's memory layout: numpy's axis-0
    reduction takes its order from the layout, and sums a column-major
    column of 8 or more terms pairwise."""
    out[...] = T[0]
    for row in T[1:]:
        out += row


class _Cuts:
    """The model's cuts as one linear operator A, A(M)_c = sum_p coef_p
    M[i_p, j_p] over cut c's upper-triangle pairs, the cuts numbered as in
    the CutList.

    A group is a run of consecutive cuts of one arity a, holding its flat
    positions i*n + j and its coefficients as C-ordered (a, m) arrays,
    column c for one cut, so that applying a group reads one contiguous row
    per term: ``apply`` and ``normsq`` sum the rows one by one into the
    group's slice, first to last.  ``scatter`` reads every cut, with no
    filter on its weights, since a zero weight adds an exact zero to a bin.
    ``count`` holds the number of cut entries at each matrix entry, on both
    (i, j) and (j, i).  ``_Cuts.of(n, cuts)`` builds the operator of a
    CutList, each run of its blocks of one arity concatenated into a group,
    and ``take`` that of some of its cuts.  ``of`` checks every pair index
    against n, since cuts extended into ``model.cuts`` after construction
    skip the model's own check.
    """

    def __init__(self, n: int, groups, rhs: np.ndarray):
        self.n, self.rhs, self.size = n, rhs, rhs.size
        self.groups, start = [], 0
        for IDX, COEF in groups:
            m = IDX.shape[1]
            self.groups.append((slice(start, start + m), IDX, COEF))
            start += m
        self.normsq = np.empty(self.size)
        for sl, _, COEF in self.groups:
            _sum_rows(COEF * COEF, self.normsq[sl])
        T = np.bincount(np.concatenate([np.zeros(0, np.int64)]
                                       + [IDX.ravel() for _, IDX, _ in self.groups]),
                        minlength=n * n).reshape(n, n)
        self.count = T + T.T

    @classmethod
    def of(cls, n: int, cuts: CutList) -> _Cuts:
        groups, rhs = [], [np.zeros(0)]
        for _, run in groupby(cuts.blocks(), key=lambda block: block[0].shape[1]):
            P, C, b = (np.concatenate(parts) for parts in zip(*run))
            if P[..., 1].max() >= n:
                raise ValueError(f"cut pair index {P[..., 1].max()} out of range for n={n}")
            groups.append(((P[..., 0] * n + P[..., 1]).T.copy(), C.T.copy()))
            rhs.append(b)
        return cls(n, groups, np.concatenate(rhs))

    def take(self, sel: np.ndarray) -> _Cuts:
        """The operator of the cuts ``sel``, ascending, numbered in that
        order: each group's columns sliced."""
        groups = []
        for sl, IDX, COEF in self.groups:
            lo, hi = np.searchsorted(sel, (sl.start, sl.stop))
            if lo < hi:
                cols = sel[lo:hi] - sl.start
                groups.append((IDX.take(cols, axis=1), COEF.take(cols, axis=1)))
        return _Cuts(self.n, groups, self.rhs[sel])

    def apply(self, M: np.ndarray) -> np.ndarray:
        """A(M): every cut's value at M, read from M's upper triangle.  Each
        cut is summed term by term, row by row into its group's slice, so
        its value does not depend on which other cuts share its group."""
        flat, out = M.reshape(-1), np.empty(self.size)
        for sl, IDX, COEF in self.groups:
            T = flat.take(IDX)
            T *= COEF
            _sum_rows(T, out[sl])
        return out

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """sum_c v_c coef_c as a symmetric n-by-n matrix, each coefficient
        landing on both (i, j) and (j, i).  Every cut is read: a zero v_c
        adds an exact zero to its bins."""
        n = self.n
        T = np.zeros(n * n)
        for sl, IDX, COEF in self.groups:
            T += np.bincount(IDX.ravel(), (COEF * v[sl]).ravel(), n * n)
        T = T.reshape(n, n)
        return T + T.T

    def entries(self, M: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The per-entry values M[i_p, j_p] + v_c coef_p of every cut, flat:
        a cut dual in the factored form the solver keeps, entry by entry."""
        flat = M.reshape(-1)
        return np.concatenate([np.zeros(0)] + [(flat[IDX] + v[sl] * COEF).ravel()
                                               for sl, IDX, COEF in self.groups])


def _residuals(model: SdpModel, Y: np.ndarray, cuts: _Cuts, eig_within: float | None = None):
    """Model residuals of Y, in the model's own coordinates, and each cut's
    violation (value minus rhs) in ``model.cuts`` order.

    Reads only the model and Y: ``cuts`` is ``_Cuts.of(model.n,
    model.cuts)``, which a caller checking many matrices of one model builds
    once.  With ``eig_within`` given, the least cone eigenvalue, the one
    costly figure, is computed only when the equality, lower-bound and cut
    residuals are all within it, and reads nan otherwise: the stop test,
    which fails on those residuals first, skips its eigensolve.
    """
    d = np.diagonal(Y)
    if model.diag_values is not None:
        eq = float(np.max(np.abs(d - model.diag_values)))
    else:
        eq = abs(float(d.sum()) - model.trace_value)
    low = 0.0
    if model.elementwise_lower is not None:
        excess = model.elementwise_lower - Y
        np.fill_diagonal(excess, 0.0)  # the diagonal is the equality's
        low = max(float(np.max(excess)), 0.0)
    viol = cuts.apply(Y) - cuts.rhs
    cut = max(float(viol.max(initial=0.0)), 0.0)
    eig = math.nan
    if eig_within is None or max(eq, low, cut) <= eig_within:
        cone = model.cone_k * Y - 1.0 if model.cone == "shifted_psd" else Y
        eig = float(np.linalg.eigvalsh(cone)[0])
    return {
        "equality": eq,
        "cone_min_eig": eig,
        "lower_violation": low,
        "cut_violation": cut,
    }, viol


class _Anderson:
    """Safeguarded type-II Anderson acceleration of the ADMM map x -> T(x)
    (Walker & Ni 2011; the safeguard follows Zhang, O'Donoghue & Boyd 2020).

    The history holds the last ``_AA_DEPTH`` differences of f = T(x) - x and
    of T(x) in ring buffers, with the Gram matrix of the f differences grown
    one row per iteration.  The state is symmetric, so the history keeps only
    the upper triangles of X, U_el and E, of E only the entries some working
    cut reads: O(n^2 + #cuts).  With cuts, the metric weights E_ij by the
    square root of the number of cuts reading it and beta_c by |coef_c|, so
    that it follows the inner product of the per-entry cut duals; without
    cuts it is the plain one on the upper triangles of X and U_el.  The
    packed current iterate (``cur``) is always one already at hand -- the
    last candidate, the last plain step or the restored one -- so it is kept
    rather than gathered again, until ``clear`` starts a new history.  The
    step counts run over the whole solve; ``layout`` fits the history to a
    working set, before the first step and whenever the set grows.
    """

    def __init__(self, n: int):
        self.n = n
        m = _AA_DEPTH
        # the ridged Gram system: the Gram matrix off the diagonal, and on
        # it (a strided view) the Gram diagonal ``sq`` plus the ridge
        self.gram = np.zeros((m, m))
        self.ridged = self.gram.reshape(-1)[:: m + 1]
        self.sq = [0.0] * m
        self.steps = self.rejected = 0
        self.fn_base = np.inf

    def layout(self, cuts: _Cuts):
        """Pack the state of the working cuts ``cuts`` and start a new
        history."""
        n, nn = self.n, self.n * self.n
        iu, ju = np.triu_indices(n)
        up, lo = iu * n + ju, ju * n + iu
        # the packed vector: gathered matrix entries, then beta, a
        # contiguous tail of the state copied whole
        self.pack = np.concatenate([up, nn + up])
        self.mirror = np.concatenate([lo, nn + lo])  # the entries pack reflects
        self.tail = self.weight = None
        if cuts.size:
            pos = np.flatnonzero(np.triu(cuts.count, 1))
            self.pack = np.concatenate([self.pack, 2 * nn + pos])
            self.mirror = np.concatenate([self.mirror, 2 * nn + pos % n * n + pos // n])
            self.tail = slice(3 * nn, None)
            self.weight = np.concatenate([np.ones(2 * up.size),
                                          np.sqrt(cuts.count.reshape(-1)[pos]),
                                          np.sqrt(cuts.normsq)])
        size = self.pack.size + cuts.size
        self.dF, self.dT = np.empty((_AA_DEPTH, size)), np.empty((_AA_DEPTH, size))
        self.clear()

    def clear(self):
        self.hist = self.slot = 0
        self.pending = False
        self.f_prev = self.t_prev = self.cur = None

    def _pack(self, xb: np.ndarray) -> np.ndarray:
        v = xb[self.pack]
        return v if self.tail is None else np.concatenate([v, xb[self.tail]])

    def _unpack(self, v: np.ndarray, xb: np.ndarray):
        k = self.pack.size
        xb[self.pack] = v[:k]
        xb[self.mirror] = v[:k]
        if self.tail is not None:
            xb[self.tail] = v[k:]

    def coefficients(self, h: int, tr: float, rhs: np.ndarray) -> np.ndarray:
        """The solution of the ridged Gram system (Gram + ridge tr I) gamma
        = rhs over the first h slots, by LAPACK's ``gesv`` through the gufunc
        ``np.linalg.solve`` wraps: the same values bit for bit.  A singular
        system comes back NaN, which the caller's finiteness test rejects."""
        np.add(self.sq[:h], _AA_RIDGE * tr, out=self.ridged[:h])
        return _solve1(self.gram[:h, :h], rhs, signature="dd->d")

    def advance(self, xb: np.ndarray, yb: np.ndarray) -> bool:
        """Given the state xb and its plain step yb = T(xb), write the next
        iterate into xb and return True, or return False for xb <- yb."""
        # the packed xb: None only on a new history's first call, since
        # every return leaves xb at a point packed here
        cur = self._pack(xb) if self.cur is None else self.cur
        t = self.cur = self._pack(yb)  # False: xb <- yb
        f = self.dF[self.slot]
        np.subtract(t, cur, out=f)
        if self.weight is not None:
            f *= self.weight
        fn = math.sqrt(np.dot(f, f))
        if self.pending:
            self.pending = False
            if not fn <= self.fn_base:
                # the accelerated point did worse than the point before it:
                # take that point's plain step and start a new history
                self.rejected += 1
                t_prev = self.t_prev
                self._unpack(t_prev, xb)
                self.clear()
                self.cur = t_prev
                return True
        if self.t_prev is None:
            self.f_prev, self.t_prev = f.copy(), t
            return False
        f -= self.f_prev  # the new column of dF; f_prev becomes f
        self.f_prev += f
        np.subtract(t, self.t_prev, out=self.dT[self.slot])
        self.t_prev = t
        h = self.hist = min(self.hist + 1, _AA_DEPTH)
        row = self.dF[:h] @ f
        self.gram[self.slot, :h] = row
        self.gram[:h, self.slot] = row
        self.sq[self.slot] = float(row[self.slot])
        self.slot = (self.slot + 1) % _AA_DEPTH
        tr = sum(self.sq[:h])
        if not 0.0 < tr < np.inf:
            self.clear()
            self.cur = t
            return False
        cand = t - self.coefficients(h, tr, self.dF[:h] @ self.f_prev) @ self.dT[:h]
        if not math.isfinite(np.dot(cand, cand)):
            self.rejected += 1
            self.clear()
            self.cur = t
            return False
        self._unpack(cand, xb)
        self.cur = cand
        self.pending = True
        self.fn_base = fn
        self.steps += 1
        return True


def _eigh(M: np.ndarray):
    """The eigenvalues, ascending, and eigenvectors of the symmetric M, read
    from its lower triangle: LAPACK's ``syevd`` through the gufunc that
    ``np.linalg.eigh`` wraps, so the same values bit for bit, without the
    wrapper's checks and error-state context.  The gufunc reports a failure
    to converge by filling its outputs with NaN and raising the invalid
    flag, so callers run it under ``np.errstate(all="ignore")``; the solver
    enters one per solve.  On a failure, that of the reversed matrix M[::-1,
    ::-1] with its eigenvector rows reversed back, an exact permutation
    similarity: matrices near an association scheme's algebra, with large
    clusters of equal eigenvalues, have made the first call fail where the
    second succeeds.  A second failure raises ``np.linalg.LinAlgError``."""
    w, Q = _eigh_lo(M, signature="d->dd")
    if math.isnan(w[0]):
        w, Q = _eigh_lo(M[::-1, ::-1], signature="d->dd")
        if math.isnan(w[0]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        Q = Q[::-1]
    return w, Q


def _check_at(it: int) -> bool:
    """Whether iteration ``it`` ends with a check: a full one every
    ``_CHECK_EVERY`` iterations, and at the perfect squares up to
    ``_EARLY_LAST`` a stop-only one (see the module docstring)."""
    return it % _CHECK_EVERY == 0 or (it <= _EARLY_LAST and math.isqrt(it) ** 2 == it)


class _SolverState:
    """One solve: the model as the solver reads it, in the model's
    coordinates (the mirrored objective G, the equality, the enforced floor,
    the cone's shift s and the full cut operator), the penalty rho, the
    working set and its operator, and the iterate.

    ``step`` takes the plain ADMM step y = T(x), carrying C along; ``check``
    runs a check on y (the certified test, the Farkas test and growth);
    ``grow`` adds cuts to the working set, the start point's included;
    ``readout`` gives the objective and dual bound of a state, through
    ``dual_bound``; ``run`` is the loop.  x and y are (buffer, X, U_el, E,
    beta), the rest views of the flat buffer, the vector being accelerated;
    E sits in the buffer even without working cuts, where it stays zero.
    """

    def __init__(self, model: SdpModel, opts: SolverOptions):
        if model.n > opts.n_cap:
            raise CapExceeded(f"n={model.n} above the configured cap {opts.n_cap}")
        self.model, self.opts = model, opts
        n = self.n = model.n
        self.shift = 1.0 / model.cone_k if model.cone == "shifted_psd" else 0.0
        self.diag, self.trace = model.diag_values, model.trace_value
        G, B = model.obj_scale * model.objective, model.elementwise_lower
        # the upper triangle defines both matrices, mirrored so every iterate
        # stays exactly symmetric; the lower bound leaves the diagonal free
        self.G = np.triu(G) + np.triu(G, 1).T
        self.floor = None
        if B is not None:
            self.floor = np.triu(B, 1) + np.triu(B, 1).T
            np.fill_diagonal(self.floor, -np.inf)
        # the floor the solver enforces: none when Y - sJ >= 0 with diagonal
        # d already has Y_ij >= s - sqrt((d_i - s)(d_j - s)) >= floor_ij
        if self.floor is not None and self.diag is not None:
            e = self.diag - self.shift
            if e.min() >= 0 and np.all(self.floor <= self.shift - np.sqrt(np.outer(e, e))):
                self.floor = None
        self.cuts = _Cuts.of(n, model.cuts)
        # one fixed penalty, auto-scaled from the objective norm
        self.rho = max(float(np.linalg.norm(self.G)) / n, 1e-3)
        self.g_rho = self.G / self.rho
        # C, the working cuts' duals summed, and the step's work matrices
        self.C, self.D, self.zn_psd, self.zn_el, self.T = (np.zeros((n, n)) for _ in range(5))
        # the ADMM residuals, of the check that ends the solve or of the
        # last one within max_iter, the only checks that compute them
        self.primal = self.dual = np.inf
        self.last_check = next(it for it in range(opts.max_iter, 0, -1) if _check_at(it))
        self.aa = _Anderson(n)
        self.working = np.zeros(self.cuts.size, bool)
        X0 = np.full((n, n), self.shift)
        np.fill_diagonal(X0, 1.0)  # the barycentre (1 - s) I + s J
        self.grow(self.cuts.apply(X0) - self.cuts.rhs > opts.tol_eq, X0, 0.0, 0.0, 0.0)

    def grow(self, new: np.ndarray, X, U_el, E, beta):
        """Add the cuts ``new`` to the working set and start x at (X, U_el,
        E, beta), beta over the kept cuts: a new cut's beta starts at 0."""
        kept = ~new[self.working | new]
        self.working |= new
        wc = self.wc = self.cuts.take(np.flatnonzero(self.working))
        self.deg = 2.0 + wc.count
        nn, sq = self.n * self.n, (self.n, self.n)
        self.x, self.y = [(b, b[:nn].reshape(sq), b[nn:2 * nn].reshape(sq),
                           b[2 * nn:3 * nn].reshape(sq), b[3 * nn:])
                          for b in (np.zeros(3 * nn + wc.size), np.zeros(3 * nn + wc.size))]
        _, X1, U1, E1, beta1 = self.last = self.x
        X1[...], U1[...], E1[...] = X, U_el, E
        beta1[kept] = beta
        self.aa.layout(wc)

    def step(self):
        """The plain ADMM step y = T(x), C moving along to y's."""
        n, wc, alpha, shift, C = self.n, self.wc, _ALPHA, self.shift, self.C
        D, zn_psd, zn_el, T = self.D, self.zn_psd, self.zn_el, self.T
        _, X, U_el, E, beta = self.x
        _, Xn, U_eln, En, betan = self.last = self.y
        # the PSD block projects X - U_psd = X + U_el + C onto the cone
        np.add(X, U_el, out=D)
        if wc.size:
            D += C
        if shift:
            D -= shift
        w, Q = _eigh(D)
        Q *= np.sqrt(np.maximum(w, 0.0))
        np.matmul(Q, Q.T, out=zn_psd)  # a symmetric rank-k update: exactly symmetric
        if shift:
            zn_psd += shift
        # the elementwise block, the linear objective riding in its prox as a
        # shift: set the diagonal (or the trace), then the floor
        np.subtract(X, U_el, out=zn_el)
        zn_el += self.g_rho
        d = zn_el.reshape(-1)[:: n + 1]
        if self.diag is not None:
            d[:] = self.diag
        else:
            d += (self.trace - d.sum()) / n
        if self.floor is not None:
            np.maximum(zn_el, self.floor, out=zn_el)

        # the consensus average, with T = (1 - alpha) X:
        # deg Xn = alpha (zn_psd + zn_el) + 2 T + count X - alpha (C + scatter(lam))
        np.multiply(X, 1 - alpha, out=T)
        np.add(zn_psd, zn_el, out=Xn)
        Xn *= alpha
        Xn += T
        Xn += T
        if wc.size:
            # cut c's block projects X[pairs_c] minus its dual onto its
            # halfspace, moving it by -lam_c coef_c
            viol = wc.apply(np.subtract(X, E, out=D)) - beta * wc.normsq - wc.rhs
            lam = self.lam = np.maximum(viol, 0.0) / wc.normsq
            P = wc.scatter(lam)
            P += C
            P *= alpha
            Xn += np.multiply(wc.count, X, out=D)
            Xn -= P
            Xn /= self.deg
        else:
            Xn *= 0.5
        np.multiply(zn_el, alpha, out=U_eln)
        U_eln += T
        U_eln += U_el
        U_eln -= Xn
        if wc.size:
            np.subtract(X, Xn, out=T)
            np.multiply(E, 1 - alpha, out=En)
            En += T
            np.subtract((1 - alpha) * beta, alpha * lam, out=betan)
            # C <- (1 - alpha) C + count (X - Xn) - alpha scatter(lam), that of y
            T *= wc.count
            C += T
            C -= P

    def check(self, it: int) -> str | None:
        """The check ending iteration ``it``, on y: ``optimal`` when the
        certified test passes, ``infeasible`` when the Farkas test does
        (full checks), ``grown`` when the first or a full check grew the
        working set, else None.  The ADMM residuals, which only the solution
        reports, are computed at the checks whose figures it reports: one
        that ends the solve, and the last one within ``max_iter``."""
        opts, wc, rho = self.opts, self.wc, self.rho
        _, X, U_el, E, beta = self.x
        _, Xn, U_eln, En, betan = self.y
        resid, cut_viol = _residuals(self.model, Xn, self.cuts, opts.tol_eq)
        self.resid = resid
        verdict = new = None
        if (max(resid["equality"], resid["lower_violation"], resid["cut_violation"])
                <= opts.tol_eq and resid["cone_min_eig"] >= -opts.tol_psd):
            self.obj, self.bound = self.readout(self.y)
            if self.bound - self.obj <= opts.tol_gap * (1 + abs(self.obj)):
                verdict = "optimal"
        elif it == 1 or it % _CHECK_EVERY == 0:
            # only the first check and the full ones act on failed
            # residuals, so a later stop-only check leaves the iterates as
            # they are.  Farkas test, at full checks: the multipliers' step,
            # read as a dual point of the zero objective, proves
            # infeasibility by a negative value; the margin, relative to
            # the step (cut duals entry by entry), covers the rounding of
            # the eigenvalue shift
            if it % _CHECK_EVERY == 0:
                d_el, d_E, d_beta = rho * (U_eln - U_el), rho * (En - E), rho * (betan - beta)
                step = np.concatenate([d_el.reshape(-1), wc.entries(d_E, d_beta)])
                margin = -opts.tol_gap * float(np.linalg.norm(step))
                if self.dual_bound(d_el, d_E, d_beta, 0.0, margin) < margin:
                    verdict = "infeasible"
            if verdict is None:
                new = (cut_viol > opts.tol_eq) & ~self.working
        if verdict is not None or it == self.last_check:
            r2 = np.sum((self.zn_psd - Xn) ** 2) + np.sum((self.zn_el - Xn) ** 2)
            if wc.size:
                # cut c's projected point is (X - E)[pairs_c] - (beta_c +
                # lam_c) coef_c; an off-diagonal cut entry stands for two
                # matrix entries, so it counts twice in the Frobenius norm
                r2 += 2 * np.sum(wc.entries(X - E - Xn, -(beta + self.lam)) ** 2)
            self.primal = float(np.sqrt(r2))
            self.dual = float(rho * np.linalg.norm(Xn - X))
        if new is not None and new.any():
            self.grow(new, Xn, U_eln, En, betan)
            return "grown"
        return verdict

    def readout(self, state) -> tuple[float, float]:
        """The objective at the state's X and the dual bound of its
        multipliers."""
        _, X, U_el, E, beta = state
        rho, G = self.rho, self.G
        return float(np.vdot(G, X)), self.dual_bound(rho * U_el - G, rho * E, rho * beta, G)

    def dual_bound(self, Y_el: np.ndarray, Y_E, Y_beta, G, clear: float | None = None) -> float:
        """Assemble a dual feasible point from the block multipliers.

        For max <G,Y> s.t. diag(Y)=d (or tr), Y >= B offdiag, <A_c,Y> <= b_c,
        Y - sJ psd, the dual slack is S = Diag(nu) - M + sum mu_c A_c - G with
        M, mu >= 0, and every feasible Y has <G,Y> = nu.d - <M,Y> + sum mu_c
        <A_c,Y> - <S,Y> <= nu.d - <M,B> + sum mu_c b_c - <S,Y>.  Once S + tI
        is psd, Y - sJ psd gives <S + tI, Y> >= s <S + tI, J>, so shifting nu
        by t bounds the objective by nu.d - <M,B> + sum mu_c b_c + t (sum(d)
        - n s) - s sum(S) (tr in place of sum(d) under a trace constraint).
        ``Y_el`` is the elementwise block's multiplier without the objective
        (rho U_el - G), and working cut c has block multiplier Y_E[pairs_c] +
        Y_beta_c coef_c (rho E and rho beta, the factored form); every other
        cut enters with mu_c = 0.  The shift t adds n eps |S|_F to the
        computed -lambda_min(S), covering its rounding, of the order of eps
        |S| for a backward-stable eigensolver, and the value is padded by
        (n^2 + #cuts) eps times the magnitudes of its terms, covering the
        rounding of its sums: a solve converged to machine precision
        otherwise reads a bound a few ulps either side of its objective.
        B is the solver's floor: without one (none, or one the cone implies)
        M is zero and the bound is that of the relaxation without B, whose
        optimum is the same.  With ``G`` = 0 and the multipliers' step for
        ``Y_el``, ``Y_E`` and ``Y_beta``, a negative value is a Farkas
        certificate: no feasible Y exists.

        With ``clear`` given, the value at t = 0 is returned, without an
        eigensolve, when it is at least ``clear``: t >= 0 and sum(d) - n s
        >= 0 make it a lower bound on the value, in floats too, so a test
        ``value < clear`` reads the same verdict from either.
        """
        n, cuts = self.n, self.wc
        # ``scale`` sums the magnitudes of the bound's terms, for its rounding
        if self.diag is not None:
            nu = -np.diag(Y_el)
            S = np.diag(nu) - G
            value = float(nu @ self.diag)
            scale = float(np.abs(nu) @ np.abs(self.diag))
            dsum = float(np.sum(self.diag))
        else:
            nu0 = -float(np.trace(Y_el)) / n
            S = nu0 * np.eye(n) - G
            value = nu0 * self.trace
            scale = abs(value)
            dsum = self.trace
        if self.floor is not None:
            # stationarity gives y_el = -Diag(nu) + M with M >= 0 supported
            # where the lower bound is active; clip to the feasible orthant
            off = ~np.eye(n, dtype=bool)
            M_hat = np.clip(Y_el[off], 0.0, None)
            S[off] -= M_hat
            value -= float(M_hat @ self.floor[off])
            scale += float(M_hat @ np.abs(self.floor[off]))

        # cut c is sum_p coef_p Y_p <= rhs with A_c holding coef_p / 2 at (i, j)
        # and (j, i); its two-sided entries double the multiplier formula, and
        # coef_c . (E[pairs_c] + beta_c coef_c) = A(E)_c + beta_c |coef_c|^2
        if cuts.size:
            mu = np.clip(-2.0 * (cuts.apply(Y_E) / cuts.normsq + Y_beta), 0.0, None)
            value += float(mu @ cuts.rhs)
            scale += float(mu @ np.abs(cuts.rhs))
            S += 0.5 * cuts.scatter(mu)

        eps, s = float(np.finfo(float).eps), self.shift
        spread, s_sum, s_abs = dsum - n * s, s * float(S.sum()), s * float(np.abs(S).sum())

        def total(t: float) -> float:
            # each sum rounds by at most its length times eps times its
            # terms' magnitudes: pad by that, so the float bound stays above
            # the exact one
            return (value + (t * spread - s_sum)
                    + (n * n + cuts.size) * eps * (scale + (abs(t * spread) + s_abs)))

        if clear is not None and spread >= 0 and (low := total(0.0)) >= clear:
            return low
        return total(max(0.0, n * eps * float(np.linalg.norm(S))
                         - float(np.linalg.eigvalsh(S)[0])))

    def run(self) -> SdpSolution:
        """Step and check until a verdict or ``max_iter``; the solution
        reads the last plain step, and its ADMM residuals are those of the
        last check, which computes them (``check``)."""
        aa, status, it = self.aa, "max_iter", 0
        t0 = time.perf_counter()
        # one error-state context for the loop's LAPACK gufuncs (``_eigh``,
        # the Anderson solve), which report a failure by NaN
        with np.errstate(all="ignore"):
            for it in range(1, self.opts.max_iter + 1):
                self.step()
                verdict = self.check(it) if _check_at(it) else None
                if verdict in ("optimal", "infeasible"):
                    status = verdict
                    break
                if verdict == "grown" or (aa.rejected < _AA_MAX_REJECTED
                                          and aa.advance(self.x[0], self.y[0])):
                    if self.wc.size:  # the state moved: C follows it
                        wc, (_, _, _, E, beta) = self.wc, self.x
                        np.add(np.multiply(wc.count, E, out=self.C), wc.scatter(beta),
                               out=self.C)
                else:
                    self.x, self.y = self.y, self.x
        runtime = time.perf_counter() - t0
        if status != "optimal":
            self.resid = _residuals(self.model, self.last[1], self.cuts)[0]
            self.obj, self.bound = self.readout(self.last)
        bound = None if status == "infeasible" else self.bound
        return SdpSolution(
            Y=self.last[1].copy(), objective_value=self.obj, status=status,
            residuals=dict(self.resid, primal=self.primal, dual=self.dual),
            dual_bound=bound, gap=None if bound is None else bound - self.obj,
            iterations=it, runtime=runtime,
            info={"rho": self.rho, "working_cuts": self.wc.size, "aa_steps": aa.steps,
                  "aa_rejected": aa.rejected, "model": self.model.name})


def solve(model: SdpModel, options: SolverOptions | None = None) -> SdpSolution:
    """Solve the model; see the module docstring for the scheme.

    Status ``optimal`` means the certified test stopped the loop, and
    ``sol.residuals`` and ``sol.gap`` are the figures it read; ``infeasible``
    means a Farkas certificate stopped it; ``max_iter`` returns the last
    plain step.  ``sol.dual_bound`` is a valid upper bound under every
    status but ``infeasible``, where it is None.  The residuals also carry
    the ADMM ``primal`` and ``dual`` residuals of the last check;
    ``sol.info`` reports the fixed penalty (``rho``), the final size of the
    working set (``working_cuts``), the accepted (``aa_steps``) and rejected
    (``aa_rejected``) accelerated steps over the whole solve, and the
    model's name (``model``).
    """
    return _SolverState(model, options or SolverOptions()).run()


@dataclass(frozen=True)
class CertificationReport:
    passed: bool
    equality_ok: bool
    cone_ok: bool
    lower_ok: bool
    cuts_ok: bool
    equality_residual: float
    cone_min_eigenvalue: float
    lower_violation: float
    cut_violation: float
    violated_cuts: tuple[int, ...]


def certify(model: SdpModel, sol: SdpSolution, tol: float = 1e-7) -> CertificationReport:
    """Check ``sol.Y`` against the model with ``_residuals``, the routine the
    solver's stop test runs on the matrix it returns.

    The routine reads only the model and the matrix, never the solver's
    iterate or multipliers, so a broken solve cannot certify itself.  A
    matrix that is not finite, or not symmetric within 1e-10, is rejected
    with ``ValueError``.
    """
    Y = np.asarray(sol.Y, dtype=float)
    if Y.shape != (model.n, model.n) or not np.all(np.isfinite(Y)):
        raise ValueError("solution matrix must be a finite n-by-n matrix")
    if np.max(np.abs(Y - Y.T)) > 1e-10:
        raise ValueError("solution matrix is not symmetric within 1e-10")
    res, viol = _residuals(model, Y, _Cuts.of(model.n, model.cuts))
    bad = tuple(int(c) for c in np.flatnonzero(viol > tol))
    ok = dict(equality_ok=res["equality"] <= tol, cone_ok=res["cone_min_eig"] >= -tol,
              lower_ok=res["lower_violation"] <= tol, cuts_ok=not bad)
    return CertificationReport(
        passed=all(ok.values()), **ok,
        equality_residual=res["equality"], cone_min_eigenvalue=res["cone_min_eig"],
        lower_violation=res["lower_violation"], cut_violation=res["cut_violation"],
        violated_cuts=bad,
    )


def dump_model(model: SdpModel, stream=None) -> str:
    """Plain-text dump (17 significant digits) for cross-checks against
    external solvers; returns the text, optionally writing it to ``stream``."""
    out = io.StringIO()
    w = out.write
    w("kcut-sdp-model 1\n")
    w(f"n {model.n}\n")
    w(f"obj_scale {model.obj_scale:.17g}\n")
    w("objective\n")
    for row in model.objective:
        w(" ".join(f"{v:.17g}" for v in row) + "\n")
    if model.diag_values is not None:
        w("constraint diag " + " ".join(f"{v:.17g}" for v in model.diag_values) + "\n")
    else:
        w(f"constraint trace {model.trace_value:.17g}\n")
    if model.cone == "psd":
        w("cone psd\n")
    else:
        w(f"cone shifted_psd {model.cone_k}\n")
    if model.elementwise_lower is None:
        w("lower none\n")
    else:
        w("lower matrix\n")
        for row in model.elementwise_lower:
            w(" ".join(f"{v:.17g}" for v in row) + "\n")
    w(f"cuts {len(model.cuts)}\n")
    for P, C, b in model.cuts.blocks():
        for pairs, coeffs, rhs in zip(P.tolist(), C.tolist(), b.tolist()):
            trip = " ".join(f"{i} {j} {c:.17g}" for (i, j), c in zip(pairs, coeffs))
            w(f"cut {rhs:.17g} {len(pairs)} {trip}\n")
    text = out.getvalue()
    if stream is not None:
        stream.write(text)
    return text
