"""In-memory span tracer used only by the benchmark's traced run.

The traced run measures per-layer numbers by wrapping public callables
of :mod:`repro` at the module names the pipeline calls them through
(``repro.core.sparsifier.score_edges``, ``repro.powergrid.transient.pcg``,
...).  Every call becomes a span ``(id, name, start, end, parent, trace,
attrs)`` kept in a list; :meth:`Tracer.summary` derives inclusive and
self time per name, and :meth:`Tracer.write` dumps spans and summary to
a JSON file when the run ends.  Nothing here is installed unless the
benchmark runs with ``--trace 1``, so untraced runs execute the program
unmodified.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id) -> None:
        """Tag spans opened on this thread with *trace_id* (one request)."""
        self._local.trace = trace_id

    def current_name(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body (no-op when disabled)."""
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               getattr(self._local, "trace", None), attrs))

    def wrap(self, owner, attr: str, name, annotate=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *name* is a span name or a callable ``(args, kwargs) -> name``;
        *annotate* maps ``(args, kwargs, result)`` to extra span attrs.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            with tracer.span(span_name) as attrs:
                result = original(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # the layer boundaries
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public callables each layer is entered through."""
        import repro.core.metrics as core_metrics
        import repro.core.sparsifier as core_sparsifier
        import repro.partitioning.clustering as clustering
        import repro.partitioning.precondition as precondition
        import repro.powergrid.dc as pg_dc
        import repro.powergrid.transient as pg_transient
        from repro.backends import LinalgBackend
        from repro.core.similarity import SimilarityMarker
        from repro.linalg.cholesky import CholeskyFactor
        from repro.tree.rooted import RootedForest

        def ranker_phase(args, kwargs):
            ranker = type(args[0]).__name__
            return {
                "TreePhaseRanker": "core.score.tree",
                "ApproxRanker": "core.score.general",
            }.get(ranker, "core.score.other")

        self.wrap(core_sparsifier, "score_edges", ranker_phase,
                  lambda a, k, r: {"candidates": len(a[1])})
        tree_methods = core_sparsifier._TREE_METHODS
        for key in list(tree_methods):
            self.wrap(_ItemHolder(tree_methods, key), "value",
                      "tree.spanning")
        self.wrap(RootedForest, "__init__", "tree.forest")
        for cls in _with_subclasses(LinalgBackend):
            for method, span_name in (("factorize", "linalg.factorize"),
                                      ("spai_columns", "linalg.spai")):
                if method in vars(cls):
                    self.wrap(cls, method, span_name)
        for method in ("attach_subgraph", "mark_similar", "is_marked"):
            self.wrap(SimilarityMarker, method, "core.similarity")
        self.wrap(core_metrics, "relative_condition_number", "linalg.kappa")

        def pcg_iterations(args, kwargs, result):
            return {"iterations": int(result.iterations)}

        for module in (core_metrics, pg_dc, pg_transient, clustering):
            self.wrap(module, "pcg", "linalg.pcg", pcg_iterations)
        for module in (core_metrics, pg_dc, pg_transient, precondition,
                       clustering):
            self.wrap(module, "cholesky", "linalg.cholesky")

        def solve_kind(args, kwargs):
            if self.current_name() == "linalg.pcg":
                return "linalg.precond_solve"
            return "linalg.solve"

        self.wrap(CholeskyFactor, "solve", solve_kind)
        self.wrap(pg_transient, "dc_solve", "powergrid.dc")
        self.wrap(clustering, "spectral_embedding", "partitioning.embed")
        self.wrap(clustering, "kmeans", "partitioning.kmeans")

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """:func:`summarize` over every span recorded so far."""
        return summarize(self.spans)

    def write(self, path, **extra) -> None:
        """Dump spans, the per-name summary and *extra* keys as JSON."""
        payload = {
            **extra,
            "summary": self.summary(),
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "trace": s[5], "attrs": s[6]}
                for s in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _ItemHolder:
    """Attribute view of one dict entry, so :meth:`Tracer.wrap` can patch it."""

    def __init__(self, mapping: dict, key) -> None:
        self._mapping = mapping
        self._key = key

    @property
    def value(self):
        return self._mapping[self._key]

    @value.setter
    def value(self, fn) -> None:
        self._mapping[self._key] = fn


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, summed attrs.

    *spans* holds ``(id, name, start, end, parent, trace, attrs)``
    tuples.  Inclusive time counts only spans with no ancestor of the
    same name, so a recursive layer is not counted twice; self time is
    a span's duration minus the durations of its direct children.
    """
    by_id = {span[0]: span for span in spans}
    child_time = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += span[3] - span[2]
    out: dict = {}
    for span_id, name, start, end, parent, _trace, attrs in spans:
        entry = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[span_id]
        if not _has_ancestor_named(by_id, parent, name):
            entry["total_s"] += end - start
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return out


def load_spans(path) -> list:
    """Read the span tuples back from a file :meth:`Tracer.write` made."""
    with open(path) as handle:
        payload = json.load(handle)
    return [
        (s["id"], s["name"], s["start"], s["end"], s["parent"],
         s["trace"], s["attrs"])
        for s in payload["spans"]
    ]


def _with_subclasses(cls) -> list:
    """*cls* and every subclass of it, depth first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def _has_ancestor_named(by_id: dict, parent, name: str) -> bool:
    while parent is not None:
        span = by_id.get(parent)
        if span is None:
            return False
        if span[1] == name:
            return True
        parent = span[4]
    return False
