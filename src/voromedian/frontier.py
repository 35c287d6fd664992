"""The pipeline at one clearance, and the efficient-frontier sweep: best
objective as a function of the minimum required clearance.

`solve_one` is the one pipeline; the CLI, the baseline comparison and the
sweep all call it. It reads the feasible candidates (a prefix of the
instance's one candidate set) from `candidates.feasible_candidates`, solves
the discrete restriction (`discrete.solve`, which picks exact or heuristic
by mode) and makes one `refine` call from the selected sites. Its record
carries both stages: the discrete solution with its selected sites, and
the refined `ContinuousSolution`. A zero clearance bypasses the candidate
restriction entirely and makes its one `refine` call from `starts`
demand-point starts, so its record has no discrete stage, and it is never
a gap. Fewer than p feasible candidates, none included, raise
`discrete.InfeasibleCardinalityError`, which `sweep` records as a gap.
`sweep` builds the candidate set before any worker copies the instance.
Because the feasible candidate sets are nested (larger clearance, smaller
set), any better solution found at a larger clearance is also feasible at
every smaller one; a post-pass propagates such wins downward so the
reported frontier is non-decreasing by construction.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import discrete, refine as refine_mod
from .candidates import candidate_vertices, feasible_candidates
from .discrete import DEFAULT_STARTS, DiscreteSolution
from .instances import Instance

DEFAULT_GRID_STEPS = 60


@dataclass
class FrontierRecord:
    dmin: float
    objective: float | None  # None marks a gap (no solvable restriction)
    facilities: np.ndarray | None  # (p, 2) or None on a gap
    candidate_count: int
    # the discrete optimum over this record's own candidates was proven: by
    # branch-and-bound, or by the Lagrangian bound within discrete.PROOF_TOL
    proven: bool
    repaired: bool = False
    discrete: DiscreteSolution | None = None  # None at D = 0 and on a gap
    refined: refine_mod.ContinuousSolution | None = None  # None on a gap


def _unconstrained_starts(instance: Instance, p: int, tries: int, seed: int) -> list:
    """Starts for the unconstrained (D = 0) descent. The first, which wins
    ties, is seeded from an interchange solve over the demand points
    themselves; the remaining `tries - 1` are random demand-point subsets.
    """
    x, w = instance.demand_xy, instance.weights
    if p >= instance.n_demand:
        # a facility on every demand point is optimal (cost 0); extras repeat
        return [x[np.arange(p) % instance.n_demand]]
    dmat = discrete.build_matrix(instance, x)
    seeded = discrete.solve_interchange(dmat, w, p, starts=50, seed=seed)
    rng = np.random.default_rng(seed)
    return [x[list(seeded.selected)]] + [
        x[rng.choice(instance.n_demand, size=p, replace=False)]
        for _ in range(max(tries - 1, 0))
    ]


def solve_one(
    instance: Instance,
    p: int,
    dmin: float,
    mode: str = "auto",
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> FrontierRecord:
    """Full pipeline at one clearance value: choose the starts, then one
    `refine` call. `mode`, `starts` and `seed` go to `discrete.solve`; at
    D = 0 `starts` sets the unconstrained tries.

    Raises ValueError for p < 1 or dmin < 0 (NaN too), and discrete's
    InfeasibleCardinalityError when fewer than p candidates clear dmin (none
    included); sweep() turns the latter into a gap record.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    cand_xy, _ = feasible_candidates(instance, dmin)
    dsol = None
    if dmin == 0:
        begin = _unconstrained_starts(instance, p, starts, seed)
    elif len(cand_xy) == 0:
        raise discrete.InfeasibleCardinalityError(f"no candidate clears {dmin}")
    else:
        matrix = discrete.build_matrix(instance, cand_xy)
        dsol = discrete.solve(matrix, instance.weights, p, mode, starts, seed)
        dsol.sites = cand_xy[list(dsol.selected)]
        begin = [dsol.sites]
    rsol = refine_mod.refine(instance, dmin, *begin)
    return FrontierRecord(
        dmin=float(dmin) or 0.0,  # -0.0 is recorded as 0.0
        objective=rsol.objective, facilities=rsol.facilities,
        candidate_count=len(cand_xy), proven=dsol is not None and dsol.proven,
        discrete=dsol, refined=rsol,
    )


def default_grid(instance: Instance, steps: int = DEFAULT_GRID_STEPS) -> np.ndarray:
    """0 up to 1.2x the best candidate clearance, in `steps` uniform steps."""
    _, clearance = candidate_vertices(instance)
    return np.linspace(0.0, 1.2 * float(clearance.max()), steps + 1)


def _solve_point(instance: Instance, p: int, dmin: float, **kwargs) -> FrontierRecord:
    try:
        return solve_one(instance, p, dmin, **kwargs)
    except discrete.InfeasibleCardinalityError:
        # a gap; candidate_count == 0 tells "no candidates" from "fewer than p"
        m = len(feasible_candidates(instance, dmin)[0])
        return FrontierRecord(dmin=dmin, objective=None, facilities=None,
                              candidate_count=m, proven=False)


def sweep(
    instance: Instance,
    p: int,
    grid,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
    workers: int = 1,
) -> list[FrontierRecord]:
    """One record (or gap marker) per grid value, envelope-repaired.

    `starts` and `seed` go to each `solve_one` call. The grid must be
    strictly increasing and non-negative (NaN fails both checks). Records
    are returned in grid order; after repair the reported objectives are
    non-decreasing in the clearance. `workers` is capped at len(grid).
    """
    grid = [float(g) for g in grid]
    if not all(b > a for a, b in zip(grid, grid[1:])) or (grid and not grid[0] >= 0):
        raise ValueError("grid must be strictly increasing and >= 0")
    candidate_vertices(instance)  # built here, so that every worker's copy carries it
    solve_point = partial(_solve_point, instance, p, starts=starts, seed=seed)
    workers = min(workers, len(grid))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(solve_point, grid))
    else:
        records = list(map(solve_point, grid))
    return _repair_envelope(records)


def _repair_envelope(records: list[FrontierRecord]) -> list[FrontierRecord]:
    """Propagate better large-clearance solutions down to smaller clearances
    (they remain feasible there), flagging replaced records. A repaired
    record adopts the donor's refined stage and keeps its own discrete
    stage and `proven` flag."""
    best: FrontierRecord | None = None
    for rec in reversed(records):
        if rec.objective is None:
            continue
        if best is not None and best.objective < rec.objective:
            rec.objective = best.objective
            rec.facilities = best.facilities.copy()
            rec.refined = best.refined
            rec.repaired = True
        best = rec  # adopted, or no worse than every larger clearance
    return records


def write_frontier_csv(records: list[FrontierRecord], path) -> None:
    """Frontier export: `D,objective,m,proven,x1,y1,...,xp,yp`; gap rows
    leave the objective and coordinates empty."""
    p = max((len(r.facilities) for r in records if r.facilities is not None), default=0)
    rows = [["D", "objective", "m", "proven"]
            + [f"{c}{i + 1}" for i in range(p) for c in "xy"]]
    for r in records:
        solved = r.objective is not None
        rows.append([f"{r.dmin:.17g}", f"{r.objective:.17g}" if solved else "",
                     str(r.candidate_count), str(r.proven).lower()]
                    + ([f"{v:.17g}" for v in r.facilities.ravel()] if solved else [""] * 2 * p))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)
