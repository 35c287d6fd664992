"""The benchmark's workloads: one timed call into voromedian each, plus the
checks that decide whether a call's answer counts as correct.

Every call goes through the module attribute (`frontier.solve_one`, ...), so
that the tracer's patches see it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

frontier = importlib.import_module("voromedian.frontier")
# `voromedian.refine` on the package is the function; this is the module.
refine_mod = importlib.import_module("voromedian.refine")

# Reference values copied from tests/test_acceptance.py, keyed by the paper
# instance they belong to; the tests are not imported, so the benchmark runs
# from its own files. A workload off these keys (the smoke test's n=30) gets
# only the checks that hold on every instance.
#   (n, p, D) -> (m, discrete objective): criterion 3's xfail reason gives
#   m=403 at n=1000, D=0.3; the objective is REFERENCE_DISCRETE[1000][20]
#   with criterion 5's 2 % tolerance, and refine never raises the discrete
#   objective, so the refined one must clear it too
SOLVE_REFERENCES = {(1000, 20, 0.3): (403, 868.66)}
SOLVE_TOLERANCE = 0.02
#   (n, p) -> objective per D of FRONTIER_GRID: criterion 8
#   (test_08_frontier_spot_checks), within 1 % at D=0 and 2 % elsewhere
FRONTIER_GRID = (0.0, 0.2, 0.43, 0.44, 1.0, 1.1)
FRONTIER_REFERENCES = {
    (100, 15): dict(zip(FRONTIER_GRID, (74.47, 75.04, 79.81, 80.03, 136.74, 173.46))),
}
FEAS_TOL = 1e-9  # every facility clears its D to within this
TRACE_TOL = 1e-9  # refine trace may rise by at most this per round


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve", "baseline" or "frontier"
    n: int
    p: int
    dmin: float = 0.0  # solve and baseline
    grid: tuple[float, ...] = ()  # frontier


# Each workload is dominated by a different stage: interchange, refine with
# projections, and a mix of exact, small interchange and unconstrained refine.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-n1000-p20", "solve", 1000, 20, dmin=0.3),
        Workload("baseline-n1000-p20", "baseline", 1000, 20, dmin=0.3),
        Workload("frontier-n100-p15", "frontier", 100, 15,
                 grid=FRONTIER_GRID),
    )
}


@dataclass
class Point:
    """One answer at one clearance: what the checks look at."""
    dmin: float
    objective: float | None  # None on a frontier gap
    facilities: np.ndarray | None
    candidate_count: int | None  # None where no candidates are used
    proven: bool | None  # None where no discrete stage ran


@dataclass
class Outcome:
    objective: float  # the op's objective metric
    points: list[Point]
    trace: list[float] | None = None  # baseline only


def run_op(w: Workload, instance, seed: int) -> Outcome:
    """The workload's timed call, with its answer reduced to an Outcome."""
    if w.kind == "solve":
        r = frontier.solve_one(instance, p=w.p, dmin=w.dmin, seed=seed)
        point = Point(r.dmin, r.objective, r.facilities, r.candidate_count, r.proven)
        return Outcome(r.objective, [point])
    if w.kind == "baseline":
        r = refine_mod.multistart_random(instance, w.dmin, w.p, tries=10, seed=seed)
        point = Point(w.dmin, r.objective, r.facilities, None, None)
        return Outcome(r.objective, [point], trace=list(r.trace))
    records = frontier.sweep(instance, p=w.p, grid=w.grid, seed=seed, workers=1)
    points = [Point(r.dmin, r.objective, r.facilities, r.candidate_count,
                    None if r.dmin == 0 else r.proven) for r in records]
    return Outcome(sum(r.objective or 0.0 for r in records), points)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def check(w: Workload, instance, out: Outcome) -> list[str]:
    """Reasons the answer is wrong; empty when it passes every check."""
    errors = []
    solved = [pt for pt in out.points if pt.objective is not None]
    for pt in solved:
        fac = np.asarray(pt.facilities, dtype=float)
        if fac.shape != (w.p, 2):
            errors.append(f"D={pt.dmin}: facilities shape {fac.shape}")
            continue
        clearance = _distances(fac, instance.obnoxious_xy).min(axis=1)
        if (clearance < pt.dmin - FEAS_TOL).any():
            errors.append(f"D={pt.dmin}: facility clearance {clearance.min():.12g}")
        cost = float(instance.weights @ _distances(instance.demand_xy, fac).min(axis=1))
        if abs(cost - pt.objective) > 1e-9 * max(1.0, cost):
            errors.append(f"D={pt.dmin}: objective {pt.objective!r} != cost {cost!r}")
    if out.trace is not None and (np.diff(out.trace) > TRACE_TOL).any():
        errors.append("refine trace increases")
    objs = [pt.objective for pt in solved]
    if any(b < a for a, b in zip(objs, objs[1:])):
        errors.append(f"frontier not non-decreasing: {objs}")
    if w.kind == "solve" and (w.n, w.p, w.dmin) in SOLVE_REFERENCES:
        m, reference = SOLVE_REFERENCES[w.n, w.p, w.dmin]
        pt = out.points[0]
        if pt.candidate_count != m:
            errors.append(f"m={pt.candidate_count}, expected {m}")
        if pt.objective > (1 + SOLVE_TOLERANCE) * reference:
            errors.append(f"objective {pt.objective} above reference bound")
    if w.kind == "frontier" and (w.n, w.p) in FRONTIER_REFERENCES:
        targets = FRONTIER_REFERENCES[w.n, w.p]
        if len(solved) < len(out.points):
            errors.append(f"{len(out.points) - len(solved)} gap(s) on the reference grid")
        for pt in solved:
            ref = targets[pt.dmin]
            tol = 0.01 if pt.dmin == 0.0 else 0.02
            if abs(pt.objective - ref) > tol * ref:
                errors.append(f"D={pt.dmin}: objective {pt.objective} vs target {ref}")
    return errors
