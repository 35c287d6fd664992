"""Span tracing of the voromedian modules, done from outside the program.

`Tracer.installed()` replaces each traced function at the module attribute
its caller looks it up through, records one span per call (name, start,
end, parent span, run id) in memory, and restores the originals on exit.
`layer_metrics` turns the spans into per-layer self times and work counts.

Two wrapping pitfalls decide where the patches go:

* `voromedian.refine` on the package is the *function* `refine` (the
  package's `from .refine import refine` shadows the submodule), so the
  module is reached with `importlib.import_module("voromedian.refine")`.
* `frontier` imports `candidate_vertices` by name and `refine` imports
  `sample_feasible` by name. Patching `voromedian.candidates` would miss
  those calls, so the names are patched in the calling modules.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: int
    attrs: dict = field(default_factory=dict)


# Work counts per span, taken from the call's arguments and result after the
# span has closed, so that they add nothing to its duration.
def _vertices(a, r):
    return {"vertex_count": len(r)}


def _sample(a, r):
    return {"accepted": len(r[0])}


def _matrix(a, r):
    return {"m": r.shape[1], "cells": r.shape[0] * r.shape[1]}


def _exact(a, r):
    return {"space": math.comb(a["matrix"].shape[1], a["p"]), "proven": int(r.proven)}


def _interchange(a, r):
    return {"starts": a["starts"]}


def _refine(a, r):
    return {"rounds": len(r.trace) - 1}


def _multistart(a, r):
    return {"tries": a["tries"]}


def _solve_one(a, r):
    return {"dmin": float(a["dmin"])}


def _sweep(a, r):
    return {"gaps": sum(rec.objective is None for rec in r),
            "repaired": sum(rec.repaired for rec in r)}


# (module the caller looks the name up in, attribute, span name, counts)
PATCHES = [
    ("voromedian.instances", "read_instance", "instances.read", None),
    ("voromedian.candidates", "voronoi_vertices", "geometry.voronoi", _vertices),
    ("voromedian.frontier", "candidate_vertices", "candidates.vertices", None),
    ("voromedian.refine", "sample_feasible", "candidates.sample", _sample),
    ("voromedian.discrete", "build_matrix", "discrete.matrix", _matrix),
    ("voromedian.discrete", "solve_exact", "discrete.exact", _exact),
    ("voromedian.discrete", "solve_interchange", "discrete.interchange", _interchange),
    ("voromedian.refine", "refine", "refine.refine", _refine),
    ("voromedian.refine", "assign", "refine.assign", None),
    ("voromedian.refine", "multistart_random", "refine.multistart", _multistart),
    ("voromedian.frontier", "solve_one", "frontier.solve_one", _solve_one),
    ("voromedian.frontier", "sweep", "frontier.sweep", _sweep),
]


# Spans whose own code only orchestrates the stages below them. A patch that
# misses a stage moves the stage's time into one of these self times, so
# trace.coverage leaves them out.
ORCHESTRATION = ("op", "frontier.sweep", "frontier.solve_one", "refine.multistart")


class Tracer:
    """In-memory span recorder. `run` tags spans with the traced op index."""

    def __init__(self):
        self.spans: list[Span] = []
        self.sample_attempts = 0
        self.run = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent, name, 0.0, 0.0, self.run)
        self.spans.append(s)
        self._stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counts):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                s.attrs.update(counts(bound.arguments, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function; always restore the originals."""
        saved = []
        try:
            for module_name, attr, name, counts in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counts))
            # Rejection-sampling attempts are not returned by sample_feasible;
            # count the uniform draws instead (two per attempted point).
            lcg = importlib.import_module("voromedian.candidates").Lcg64
            uniforms = lcg.uniforms
            saved.append((lcg, "uniforms", uniforms))

            def counted(rng, count):
                self.sample_attempts += count // 2
                return uniforms(rng, count)
            lcg.uniforms = counted
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def unit(metric: str) -> str:
    if metric.endswith("_s") or "_s.D" in metric:
        return "s"
    if metric.endswith(("_frac", "_ratio", ".coverage")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[Span], ops: int, sample_attempts: int,
                  grid: tuple[float, ...]) -> dict[str, float]:
    """Per-layer figures from the spans of `ops` traced "op" root spans.

    Self times, calls and work counts are per op. The instance read (one
    span outside the ops), the sampling accept ratio and the coverage are
    over the whole run. Coverage is the share of op time spent in the stage
    spans' own code: op time less the ORCHESTRATION self times.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    point_s = defaultdict(float)
    by_id = {s.id: s for s in spans}
    for s in spans:
        self_s[s.name] += (s.end - s.start) - child_time[s.id]
        calls[s.name] += 1
        for k, v in s.attrs.items():
            if k != "dmin":
                attr[f"{s.name}.{k}"] += v
        if (s.name == "frontier.solve_one" and s.parent is not None
                and by_id[s.parent].name == "frontier.sweep"):
            point_s[s.attrs["dmin"]] += s.end - s.start
    op_time = sum(s.end - s.start for s in spans if s.name == "op")
    accepted = attr["candidates.sample.accepted"]
    per_op = {
        "geometry.voronoi_s": self_s["geometry.voronoi"],
        "geometry.vertex_count": attr["geometry.voronoi.vertex_count"],
        "candidates.vertices_s": self_s["candidates.vertices"],
        "candidates.m": attr["discrete.matrix.m"],
        "candidates.sample_s": self_s["candidates.sample"],
        "candidates.sample_attempts": sample_attempts,
        "discrete.matrix_s": self_s["discrete.matrix"],
        "discrete.matrix_cells": attr["discrete.matrix.cells"],
        "discrete.exact_s": self_s["discrete.exact"],
        "discrete.exact_calls": calls["discrete.exact"],
        "discrete.exact_space": attr["discrete.exact.space"],
        "discrete.exact_proven": attr["discrete.exact.proven"],
        "discrete.interchange_s": self_s["discrete.interchange"],
        "discrete.interchange_calls": calls["discrete.interchange"],
        "discrete.interchange_starts": attr["discrete.interchange.starts"],
        "refine.refine_s": self_s["refine.refine"],
        "refine.calls": calls["refine.refine"],
        "refine.rounds": attr["refine.refine.rounds"],
        "refine.assign_s": self_s["refine.assign"],
        "refine.assign_calls": calls["refine.assign"],
        "refine.multistart_s": self_s["refine.multistart"],
        "refine.multistart_tries": attr["refine.multistart.tries"],
        "frontier.sweep_self_s": self_s["frontier.sweep"],
        "frontier.solve_one_self_s": self_s["frontier.solve_one"],
        "frontier.gaps": attr["frontier.sweep.gaps"],
        "frontier.repaired": attr["frontier.sweep.repaired"],
    }
    for d in grid:
        per_op[f"frontier.point_s.D{d:g}"] = point_s[d]
    out = {k: v / ops for k, v in per_op.items()}
    out["candidates.sample_accept_ratio"] = accepted / sample_attempts if sample_attempts else 0.0
    out["instances.read_s"] = self_s["instances.read"]
    out["trace.coverage"] = 1.0 - sum(self_s[name] for name in ORCHESTRATION) / op_time
    return out
