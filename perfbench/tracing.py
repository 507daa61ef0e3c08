"""Spans around kcut's public functions, recorded from outside the package.

``Tracer.install`` swaps each traced function for a wrapper on every module
that holds a reference to it, so calls made inside kcut (the ``solve`` that
``cutting_plane_loop`` reaches through ``kcut.relaxations``, the
``brute_force_table`` that ``brute_force_maxkcut`` calls) are spanned too.
``numpy.linalg.eigh``/``eigvalsh`` are traced only as ``kcut.sdp`` sees them,
through a copy of the numpy module bound to that one module.  ``uninstall``
restores every reference.  Spans live in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import resource
import time
import types

import numpy as np

import kcut
import kcut.cli
import kcut.hamming
import kcut.oracle
import kcut.relaxations
import kcut.sdp
import kcut.spectra
import kcut.bounds


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "attrs")

    def __init__(self, name, start, parent, item):
        self.name, self.start, self.end = name, start, start
        self.parent, self.item, self.attrs = parent, item, {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_attrs(attrs, args, out):
    model = args[0]
    attrs.update(n=model.n, kind=model.name.split("(", 1)[0], cuts=len(model.cuts),
                 iterations=out.iterations, status=out.status,
                 gap_rel=(out.gap / (1.0 + abs(out.objective_value))
                          if out.gap is not None else None))


def _count_attrs(attrs, args, out):
    attrs["count"] = len(out)


def _loop_attrs(attrs, args, out):
    attrs["rounds"] = len(out.info["round_objectives"])


def _matrix_attrs(attrs, args, out):
    attrs["n"] = args[0].shape[0]


def _exact_attrs(attrs, args, out):
    attrs.update(n=args[0].n, k=args[1], rss_mb=_rss_mb())


def _round_attrs(attrs, args, out):
    attrs["rss_mb"] = _rss_mb()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# (span name, function, modules holding it, attribute recorder)
_TARGETS = (
    ("sdp.solve", kcut.sdp.solve,
     (kcut, kcut.sdp, kcut.relaxations, kcut.oracle), _solve_attrs),
    ("relaxations.build", kcut.relaxations.build,
     (kcut, kcut.relaxations, kcut.oracle), None),
    ("relaxations.triangle_cuts", kcut.relaxations.triangle_cuts,
     (kcut, kcut.relaxations), _count_attrs),
    ("relaxations.independent_set_cuts", kcut.relaxations.independent_set_cuts,
     (kcut, kcut.relaxations), _count_attrs),
    ("relaxations.separate_triangles", kcut.relaxations.separate_triangles,
     (kcut, kcut.relaxations), _count_attrs),
    ("relaxations.cutting_plane_loop", kcut.relaxations.cutting_plane_loop,
     (kcut, kcut.relaxations, kcut.oracle), _loop_attrs),
    ("spectra.lambda_max", kcut.spectra.lambda_max,
     (kcut, kcut.spectra, kcut.bounds), None),
    ("bounds.eigenvalue_bound", kcut.bounds.eigenvalue_bound,
     (kcut, kcut.bounds, kcut.oracle), None),
    ("bounds.chromatic_lower_bound", kcut.bounds.chromatic_lower_bound,
     (kcut, kcut.bounds), None),
    ("bounds.hoffman_bound", kcut.bounds.hoffman_bound, (kcut, kcut.bounds), None),
    ("oracle.brute_force_maxkcut", kcut.oracle.brute_force_maxkcut,
     (kcut, kcut.oracle), _exact_attrs),
    ("oracle.brute_force_table", kcut.oracle.brute_force_table,
     (kcut, kcut.oracle), _exact_attrs),
    ("oracle.hyperplane_round", kcut.oracle.hyperplane_round,
     (kcut, kcut.oracle), _round_attrs),
    ("hamming.hamming_lambda", kcut.hamming.hamming_lambda, (kcut, kcut.hamming), None),
    ("hamming.conjecture_grid", kcut.hamming.conjecture_grid, (kcut, kcut.hamming), None),
    ("hamming.first_coordinate_qcut", kcut.hamming.first_coordinate_qcut,
     (kcut, kcut.hamming), None),
    ("cli.main", kcut.cli.main, (kcut.cli,), None),
)


class Tracer:
    def __init__(self, clock_zero: float):
        self.zero = clock_zero
        self.spans: list[Span] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, record=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, time.perf_counter(), stack[-1] if stack else None, tracer.item)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if record is not None:
                    record(span.attrs, args, out)
                return out
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _set(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        for name, fn, modules, record in _TARGETS:
            traced = self.wrap(name, fn, record)
            for module in modules:
                self._set(module, attr=fn.__name__, value=traced)
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        linalg.eigh = self.wrap("sdp.eigh", np.linalg.eigh, _matrix_attrs)
        linalg.eigvalsh = self.wrap("sdp.eigvalsh", np.linalg.eigvalsh, _matrix_attrs)
        numpy_seen_by_sdp = types.ModuleType("numpy")
        numpy_seen_by_sdp.__dict__.update(np.__dict__)
        numpy_seen_by_sdp.linalg = linalg
        self._set(kcut.sdp, "np", numpy_seen_by_sdp)

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (one thread, so children never overlap)."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - self.zero, "end": s.end - self.zero,
                    "parent": s.parent, "item": s.item, **s.attrs,
                }) + "\n")
