"""In-memory spans around dirconv's public functions.

The tracer replaces the module attributes that ``dirconv.cli`` and the
library modules look up at call time (``dirconv.solver.solve``,
``dirconv.solver.convolve``, ...), so ``cli.run`` runs unchanged and
nested calls show up as child spans.  ``uninstall`` puts the original
attributes back, so traced and untraced rounds alternate in one process.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict


def targets(dc):
    """(namespace, attribute, span name) for every wrapped call site."""
    cli, algebra, solver = dc.cli, dc.algebra, dc.solver
    series, certificate, semigroup = dc.series, dc.certificate, dc.semigroup
    return [
        (cli, "Problem", "cli.parse"),
        (cli, "run_problem", "cli.run_problem"),
        (cli, "render", "cli.render"),
        (cli, "enumerate_semigroup", "semigroup.enumerate"),
        (semigroup, "enumerate_semigroup", "semigroup.enumerate"),
        (algebra, "convolve", "algebra.convolve"),
        (solver, "convolve", "algebra.convolve"),
        (algebra, "invert", "algebra.invert"),
        (solver, "solve", "solver.solve"),
        (solver, "solve_all", "solver.solve_all"),
        (solver, "solve_system", "solver.solve_system"),
        (solver, "residual", "solver.residual"),
        (solver, "system_residual", "solver.system_residual"),
        (solver, "find_roots", "roots.find"),
        (certificate, "certify", "certificate.certify"),
        (certificate, "validate", "certificate.validate"),
        (series, "verify_scalar_equation", "series.verify"),
        (series, "evaluate", "series.evaluate"),
        (series, "tail_bound", "series.tail_bound"),
    ]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records (name, start, end, parent, run id) for each wrapped call."""

    def __init__(self, dc):
        self.spans = []
        self.run_id = None
        self._dc = dc
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, rss=False):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "run": self.run_id}
            self.spans.append(span)
            self._stack.append(span["id"])
            rss0 = _maxrss_kb() if rss else 0
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if rss:
                    span["rss_growth_kb"] = _maxrss_kb() - rss0
                self._stack.pop()
        return traced

    def install(self):
        for ns, attr, name in targets(self._dc):
            fn = getattr(ns, attr)
            self._saved.append((ns, attr, fn))
            setattr(ns, attr, self._wrap(name, fn))
        # Enumeration.decomp is a cached property: the first access per
        # window builds the decomposition table
        cls = self._dc.semigroup.Enumeration
        prop = cls.__dict__["decomp"]
        traced = functools.cached_property(
            self._wrap("semigroup.decomp", prop.func, rss=True))
        traced.__set_name__(cls, "decomp")
        self._saved.append((cls, "decomp", prop))
        setattr(cls, "decomp", traced)

    def uninstall(self):
        while self._saved:
            ns, attr, fn = self._saved.pop()
            setattr(ns, attr, fn)


def summarize(spans) -> dict:
    """name -> {"calls", "inclusive_s", "self_s"}; self time excludes child spans."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
    for s in spans:
        d = s["end"] - s["start"]
        row = out[s["name"]]
        row["calls"] += 1
        row["inclusive_s"] += d
        row["self_s"] += d - child_time[s["id"]]
    return dict(out)


def top_level_s(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
