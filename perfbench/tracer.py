"""Spans around the calls each otclust module makes into another.

The tracer replaces module attributes (the names a module imported from
another, or looks up in its own globals) with wrappers that record a span:
layer name, calling module, start, end, parent span, and a count read from
the result (pivots, iterations, rounds). Nothing inside the package changes;
the attributes are restored when the `traced` block ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


def _pivots(result):
    return result.pivots


def _iterations(result):
    return result.report.iterations


def _rounds(result):
    return result.generation_rounds


# (module holding the reference, attribute, layer span name, count of result)
HOOKS = (
    ("otclust.datagen", "sample_gaussian_mixture", "datagen.sample", None),
    ("otclust.sweep", "sample_gaussian_mixture", "datagen.sample", None),
    ("otclust.core", "build_cost_matrix", "core.cost_build", None),
    ("otclust.sweep", "build_cost_matrix", "core.cost_build", None),
    ("otclust.transport", "build_cost_matrix", "core.cost_build", None),
    ("otclust.sweep", "run_sweep", "sweep.run_sweep", None),
    ("otclust.sweep", "extract_clusters", "clustering.extract", None),
    ("otclust.sweep", "adjusted_rand_index", "clustering.ari", None),
    ("otclust.sweep", "solve_son", "son.solve", _iterations),
    ("otclust.son", "_project_rows", "son.project", None),
    ("otclust.son", "group_shrink", "son.shrink", None),
    ("otclust.sweep", "solve_facility_relaxation", "facility.solve", _rounds),
    ("otclust.facility", "LinearProgram", "lp.build", None),
    ("otclust.facility", "solve_lp", "lp.solve", _pivots),
    ("otclust.sweep", "solve_linf", "linf.solve", _iterations),
    ("otclust.linf", "LinearProgram", "lp.build", None),
    ("otclust.linf", "solve_lp", "lp.solve", _pivots),
    ("otclust.sweep", "solve_transport", "transport.solve", _iterations),
    ("otclust.transport", "solve_transport", "transport.solve", _iterations),
    ("otclust.transport", "transport_program", "transport.build", None),
    ("otclust.transport", "LinearProgram", "lp.build", None),
    ("otclust.transport", "solve_lp", "lp.solve", _pivots),
    ("otclust.transport", "wasserstein2", "transport.wasserstein2", None),
)


class Span:
    __slots__ = ("name", "caller", "start", "end", "parent", "count")

    def __init__(self, name, caller, start, parent):
        self.name = name
        self.caller = caller
        self.start = start
        self.end = start
        self.parent = parent
        self.count = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, origin: float) -> dict:
        return {
            "name": self.name,
            "caller": self.caller,
            "start": self.start - origin,
            "end": self.end - origin,
            "parent": self.parent,
            "count": self.count,
        }


class Tracer:
    """Collects spans in memory; `traced()` installs the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, function, name, caller, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, caller, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.count = int(count(result))
            return result

        return wrapper

    @contextmanager
    def traced(self, hooks=HOOKS):
        saved = []
        try:
            for module_name, attribute, name, count in hooks:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self._wrap(original, name, module_name, count))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def select(self, name, caller=None):
        return [
            s for s in self.spans
            if s.name == name and (caller is None or s.caller == caller)
        ]

    def total(self, name, caller=None) -> float:
        return sum(s.duration for s in self.select(name, caller))

    def count(self, name, caller=None) -> int:
        return sum(s.count or 0 for s in self.select(name, caller))

    def calls(self, name, caller=None) -> int:
        return len(self.select(name, caller))

    def child_time(self, parent_name, child_names) -> float:
        """Time in spans named child_names whose parent is a parent_name span."""
        return sum(
            s.duration for s in self.spans
            if s.name in child_names
            and s.parent is not None
            and self.spans[s.parent].name == parent_name
        )


SOLVERS = ("son.solve", "facility.solve", "linf.solve", "transport.solve")
CLUSTERING = ("clustering.extract", "clustering.ari")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the traced spans: {name: (value, unit)}."""

    def ratio(top, bottom):
        return top / bottom if bottom else 0.0

    t = tracer
    son_s = t.total("son.solve")
    son_it = t.count("son.solve")
    fac_s = t.total("facility.solve")
    master_s = t.total("lp.solve", "otclust.facility")
    master_build_s = t.total("lp.build", "otclust.facility")
    lp_s = t.total("lp.solve")
    lp_pivots = t.count("lp.solve")
    return {
        "datagen.sample_s": (t.total("datagen.sample"), "s"),
        "core.cost_build_s": (t.total("core.cost_build"), "s"),
        "sweep.overhead_s": (
            t.total("sweep.run_sweep")
            - t.child_time("sweep.run_sweep", SOLVERS + CLUSTERING),
            "s",
        ),
        "clustering.extract_s": (t.total("clustering.extract"), "s"),
        "clustering.ari_s": (t.total("clustering.ari"), "s"),
        "son.solves": (t.calls("son.solve"), "count"),
        "son.iterations": (son_it, "count"),
        "son.solve_s": (son_s, "s"),
        "son.s_per_iteration": (ratio(son_s, son_it), "s"),
        "son.project_s": (t.total("son.project"), "s"),
        "son.shrink_s": (t.total("son.shrink"), "s"),
        "facility.solves": (t.calls("facility.solve"), "count"),
        "facility.solve_s": (fac_s, "s"),
        "facility.cut_rounds": (t.count("facility.solve"), "count"),
        "facility.master_solves": (t.calls("lp.solve", "otclust.facility"), "count"),
        "facility.master_pivots": (t.count("lp.solve", "otclust.facility"), "count"),
        "facility.master_s": (master_s, "s"),
        "facility.master_build_s": (master_build_s, "s"),
        "facility.fill_s": (fac_s - master_s - master_build_s, "s"),
        "lp.calls": (t.calls("lp.solve"), "count"),
        "lp.pivots": (lp_pivots, "count"),
        "lp.build_s": (t.total("lp.build"), "s"),
        "lp.solve_s": (lp_s, "s"),
        "lp.s_per_pivot": (ratio(lp_s, lp_pivots), "s"),
        "linf.solves": (t.calls("linf.solve"), "count"),
        "linf.evaluations": (t.count("linf.solve"), "count"),
        "linf.solve_s": (t.total("linf.solve"), "s"),
        "linf.lp_s": (t.total("lp.solve", "otclust.linf"), "s"),
        "linf.build_s": (t.total("lp.build", "otclust.linf"), "s"),
        "transport.solves": (t.calls("transport.solve"), "count"),
        "transport.pivots": (t.count("transport.solve"), "count"),
        "transport.solve_s": (t.total("transport.solve"), "s"),
        "transport.build_s": (t.total("transport.build"), "s"),
    }
