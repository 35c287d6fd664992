"""Efficient-frontier sweep: best objective as a function of the minimum
required clearance.

For each requested clearance the pipeline filters candidate vertices, solves
the discrete restriction (exact when the subset count is enumerable, best of
100 interchange runs otherwise) and refines continuously from the selected
sites. A zero clearance bypasses the candidate restriction entirely and runs
an unconstrained multistart. Because the feasible candidate sets are nested
(larger clearance, smaller set), any better solution found at a larger
clearance is also feasible at every smaller one; a post-pass propagates such
wins downward so the reported frontier is non-decreasing by construction.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import discrete, refine as refine_mod
from .candidates import CandidateSite, candidate_vertices
from .instances import Instance

DEFAULT_STARTS = 100
DEFAULT_UNCONSTRAINED_TRIES = 100
DEFAULT_GRID_STEPS = 60


class NoFeasibleCandidatesError(RuntimeError):
    """No candidate vertex satisfies the clearance requirement."""


@dataclass
class FrontierRecord:
    dmin: float
    objective: float | None  # None marks a gap (no solvable restriction)
    facilities: np.ndarray | None  # (p, 2) or None on a gap
    candidate_count: int
    proven: bool  # the discrete optimum over this record's own candidates was proven
    repaired: bool = False
    repaired_from: float | None = None  # clearance the adopted solution was found at
    gap_reason: str | None = None


def _discrete_stage(matrix, weights, p, mode, starts, seed, node_budget):
    if mode == "exact":
        return discrete.solve_exact(matrix, weights, p, node_budget=node_budget)
    if mode == "heuristic":
        return discrete.solve_interchange(matrix, weights, p, starts=starts, seed=seed)
    if mode != "auto":
        raise ValueError(f"unknown mode {mode!r}")
    if math.comb(matrix.shape[1], p) <= discrete.ENUM_LIMIT:
        return discrete.solve_exact(matrix, weights, p, node_budget=node_budget)
    return discrete.solve_interchange(matrix, weights, p, starts=starts, seed=seed)


def _unconstrained(instance: Instance, p: int, tries: int, seed: int):
    """Multistart location-allocation without clearance constraints.

    One start is seeded from an interchange solve over the demand points
    themselves; the remaining starts are random demand-point subsets. All
    starts descend in one batch.
    """
    x, w = instance.demand_xy, instance.weights
    if p >= instance.n_demand:
        # a facility on every demand point is optimal (cost 0); extras repeat
        start = x[np.arange(p) % instance.n_demand]
        return refine_mod.refine(instance, 0.0, start)
    diff = x[:, None, :] - x[None, :, :]
    dmat = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    seeded = discrete.solve_interchange(dmat, w, p, starts=50, seed=seed)
    del diff, dmat  # not needed by the batched descent below
    rng = np.random.default_rng(seed)
    starts = [x[list(seeded.selected)]] + [
        x[rng.choice(instance.n_demand, size=p, replace=False)]
        for _ in range(max(tries - 1, 0))
    ]
    # the first of equal objectives wins, the seeded start before the others
    return min(refine_mod.refine_many(instance, 0.0, starts), key=lambda s: s.objective)


def solve_one(
    instance: Instance,
    p: int,
    dmin: float,
    mode: str = "auto",
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    node_budget: int = discrete.DEFAULT_NODE_BUDGET,
    unconstrained_tries: int = DEFAULT_UNCONSTRAINED_TRIES,
    _cached_vertices: tuple[np.ndarray, np.ndarray] | None = None,
) -> FrontierRecord:
    """Full pipeline at one clearance value.

    Raises NoFeasibleCandidatesError / InfeasibleCardinalityError when the
    candidate restriction is empty or smaller than p; sweep() converts these
    into gap records instead.
    """
    if p < 1 or dmin < 0:
        raise ValueError("need p >= 1 and dmin >= 0")
    verts, clearance = (
        _cached_vertices if _cached_vertices is not None else candidate_vertices(instance)
    )
    keep = clearance >= dmin
    m = int(keep.sum())

    if dmin == 0:
        sol = _unconstrained(instance, p, unconstrained_tries, seed)
        return FrontierRecord(
            dmin=0.0, objective=sol.objective, facilities=sol.facilities,
            candidate_count=m, proven=False,
        )

    if m == 0:
        raise NoFeasibleCandidatesError(f"no candidate clears {dmin}")
    if m < p:
        raise discrete.InfeasibleCardinalityError(f"{m} candidates < p={p}")

    cand_xy = verts[keep]
    cands = [CandidateSite(location=(float(x), float(y)), d_nearest=float(c))
             for (x, y), c in zip(cand_xy, clearance[keep])]
    matrix = discrete.build_matrix(instance, cands)
    dsol = _discrete_stage(matrix, instance.weights, p, mode, starts, seed, node_budget)
    rsol = refine_mod.refine(instance, dmin, cand_xy[list(dsol.selected)])
    return FrontierRecord(
        dmin=float(dmin), objective=rsol.objective, facilities=rsol.facilities,
        candidate_count=m, proven=dsol.proven,
    )


def default_grid(instance: Instance, steps: int = DEFAULT_GRID_STEPS) -> np.ndarray:
    """0 up to 1.2x the best candidate clearance, in `steps` uniform steps."""
    _, clearance = candidate_vertices(instance)
    return np.linspace(0.0, 1.2 * float(clearance.max()), steps + 1)


def _solve_point(args):
    instance, p, dmin, kwargs, cached = args
    try:
        return solve_one(instance, p, dmin, _cached_vertices=cached, **kwargs)
    except NoFeasibleCandidatesError:
        m = int((cached[1] >= dmin).sum())
        return FrontierRecord(dmin=dmin, objective=None, facilities=None,
                              candidate_count=m, proven=False, gap_reason="no-candidates")
    except discrete.InfeasibleCardinalityError:
        m = int((cached[1] >= dmin).sum())
        return FrontierRecord(dmin=dmin, objective=None, facilities=None,
                              candidate_count=m, proven=False, gap_reason="too-few-candidates")


def sweep(
    instance: Instance,
    p: int,
    grid,
    mode: str = "auto",
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    node_budget: int = discrete.DEFAULT_NODE_BUDGET,
    unconstrained_tries: int = DEFAULT_UNCONSTRAINED_TRIES,
    workers: int = 1,
) -> list[FrontierRecord]:
    """One record (or gap marker) per grid value, envelope-repaired.

    The grid must be strictly increasing and non-negative. Records are
    returned in grid order; after repair the reported objectives are
    non-decreasing in the clearance.
    """
    grid = [float(g) for g in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise ValueError("grid must be strictly increasing and >= 0")
    cached = candidate_vertices(instance)
    kwargs = dict(mode=mode, starts=starts, seed=seed, node_budget=node_budget,
                  unconstrained_tries=unconstrained_tries)
    jobs = [(instance, p, g, kwargs, cached) for g in grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_solve_point, jobs))
    else:
        records = [_solve_point(j) for j in jobs]
    return _repair_envelope(records)


def _repair_envelope(records: list[FrontierRecord]) -> list[FrontierRecord]:
    """Propagate better large-clearance solutions down to smaller clearances
    (they remain feasible there), flagging replaced records. A repaired
    record keeps its own `proven` flag and names the clearance its adopted
    solution was found at."""
    best: FrontierRecord | None = None
    for rec in reversed(records):
        if rec.objective is None:
            continue
        if best is not None and best.objective < rec.objective:
            rec.objective = best.objective
            rec.facilities = best.facilities.copy()
            rec.repaired = True
            rec.repaired_from = best.dmin if best.repaired_from is None else best.repaired_from
        if best is None or rec.objective <= best.objective:
            best = rec
    return records


def write_frontier_csv(records: list[FrontierRecord], path) -> None:
    """Frontier export: `D,objective,m,proven,x1,y1,...,xp,yp`; gap rows
    leave the objective and coordinates empty."""
    with open(path, "w", encoding="utf-8") as fh:
        p = max((len(r.facilities) for r in records if r.facilities is not None), default=0)
        coords = ",".join(f"x{i+1},y{i+1}" for i in range(p))
        fh.write(f"D,objective,m,proven{',' + coords if coords else ''}\n")
        for r in records:
            if r.objective is None:
                fh.write(f"{r.dmin:.17g},,{r.candidate_count},{str(r.proven).lower()}"
                         + ",," * p + "\n")
            else:
                xy = ",".join(f"{v:.17g}" for v in r.facilities.ravel())
                fh.write(f"{r.dmin:.17g},{r.objective:.17g},{r.candidate_count},"
                         f"{str(r.proven).lower()},{xy}\n")
