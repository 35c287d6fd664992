"""Continuous improvement of a feasible facility configuration.

Alternates two phases until the objective stalls: assign every demand point
to its nearest facility, then relocate each facility within its cluster by
damped Weiszfeld steps with minimum-distance constraint handling. A proposed
relocation that lands closer than `dmin` to a protected point is projected
onto the exclusion circle of the most-violated point (repeatedly, up to a
small cap); only feasible, objective-improving iterates are accepted, and a
rejected proposal is halved back toward the previous iterate. Facilities
stay inside the instance box.

All accepted configurations are feasible and the total objective is
non-increasing, both per Weiszfeld step (per cluster) and per round.

Several starts descend in lockstep (`refine_many`; `refine` is a batch of
one). Each round stacks the facilities of the starts still running into one
Weiszfeld call: start j's cluster ids are offset by j * p and label the
demand rows once per start. Every start then gets its own assignment,
monotonicity check, trace entry and stop test, and leaves the batch when it
converges. A facility's accept/halve schedule reads only its own cluster,
`bincount` sums each cluster's rows in input order and a KD-tree query of a
point does not depend on the other points queried, so every start's result
is bit-identical to descending it alone; the batch only shares the fixed
cost of each numpy and KD-tree call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .candidates import sample_feasible
from .instances import Instance

TOL_REFINE = 1e-7  # relative objective improvement below which we stop
MAX_WEBER_ITER = 1000  # per facility per round
MAX_ROUNDS = 200
MAX_PROJECTIONS = 10  # constraint-projection passes per proposal
MAX_HALVINGS = 40  # step halvings before a facility is declared stuck
FEAS_TOL = 1e-9


class InfeasibleStartError(ValueError):
    """A starting facility violates the minimum-distance requirement."""


class NoFeasibleSampleError(RuntimeError):
    """Rejection sampling found no feasible point to start from."""


class RefineMonotonicityError(RuntimeError):
    """A refinement round raised the objective."""


@dataclass
class ContinuousSolution:
    facilities: np.ndarray  # (p, 2)
    assignment: np.ndarray  # (nd,) facility index, nearest (ties: lowest)
    objective: float
    feasible: bool
    trace: list[float] = field(default_factory=list)  # objective per round


def assign(facilities, instance: Instance) -> tuple[np.ndarray, float]:
    """Nearest-facility assignment (ties: lowest index) and its cost."""
    fac = np.atleast_2d(np.asarray(facilities, dtype=float))
    diff = instance.demand_xy[:, None, :] - fac[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    idx = np.argmin(dist, axis=1)
    cost = float(instance.weights @ dist[np.arange(len(dist)), idx])
    return idx, cost


def _feasibility_fix(points: np.ndarray, instance: Instance, dmin: float,
                     tree: cKDTree | None) -> tuple[np.ndarray, np.ndarray]:
    """Clamp into the box and project onto exclusion circles until feasible.

    Each pass projects every violating point onto the circle of its nearest
    (= most violated) protected point. Only the points a pass moved are
    queried again: the others already clear `dmin`. Returns
    (points, feasible_mask).
    """
    box = instance.box
    lo, hi = (box.xmin, box.ymin), (box.xmax, box.ymax)
    pts = np.minimum(np.maximum(points, lo), hi)
    feasible = np.ones(len(pts), dtype=bool)
    if tree is None or dmin <= 0:
        return pts, feasible
    moved = np.arange(len(pts))
    for _ in range(MAX_PROJECTIONS):
        dist, nearest = tree.query(pts[moved])
        bad = dist < dmin - FEAS_TOL
        if not bad.any():
            return pts, feasible
        moved = moved[bad]
        centers = tree.data[nearest[bad]]
        offset = pts[moved] - centers
        norm = np.hypot(offset[:, 0], offset[:, 1])
        # a point exactly on a protected point has no direction; pick +x
        degenerate = norm < 1e-300
        offset[degenerate] = (1.0, 0.0)
        norm[degenerate] = 1.0
        pts[moved] = np.minimum(np.maximum(centers + dmin * offset / norm[:, None], lo), hi)
    feasible[moved] = tree.query(pts[moved])[0] >= dmin - FEAS_TOL
    return pts, feasible


def _members(x, w, c, active) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates, weights and cluster ids of the rows of the active
    clusters, in input order. `c` labels the rows of `x`, or of several
    copies of `x` laid end to end."""
    rows = np.flatnonzero(active[c])
    ci = c[rows]
    rows %= len(x)
    return x[rows], w[rows], ci


def _cluster_costs(x, w, c, facilities, p) -> np.ndarray:
    diff = facilities[c]
    np.subtract(x, diff, out=diff)
    dist = np.hypot(diff[:, 0], diff[:, 1])
    return np.bincount(c, weights=np.multiply(w, dist, out=dist), minlength=p)


def _weiszfeld_targets(x, w, c, fac, active) -> np.ndarray:
    """Weiszfeld target of every facility from its cluster's rows. Clears
    `active` for a facility that is stuck on a demand point."""
    p = len(fac)
    diff = fac[c]
    np.subtract(x, diff, out=diff)
    dist = np.hypot(diff[:, 0], diff[:, 1])
    coincident = dist < 1e-9
    u = np.divide(w, np.maximum(dist, 1e-12, out=dist), out=dist)
    u[coincident] = 0.0  # coincident members handled separately below
    den = np.bincount(c, weights=u, minlength=p)
    num_x = np.bincount(c, weights=u * x[:, 0], minlength=p)
    num_y = np.bincount(c, weights=u * x[:, 1], minlength=p)
    target = fac.copy()
    ok = den > 0
    target[ok] = np.column_stack([num_x[ok], num_y[ok]]) / den[ok, None]

    # A facility sitting on a demand point is a Weiszfeld fixed point.
    # One-sided descent test: it is locally optimal iff the net pull of
    # the remaining members does not exceed the coincident weight; if it
    # does, damp the step toward the others-only target accordingly.
    if coincident.any():
        anchored = np.bincount(c[coincident], minlength=p).astype(bool)
        w_anchor = np.bincount(c[coincident], weights=w[coincident], minlength=p)
        pull_x = np.bincount(c, weights=u * diff[:, 0], minlength=p)
        pull_y = np.bincount(c, weights=u * diff[:, 1], minlength=p)
        pull = np.hypot(pull_x, pull_y)
        stuck = anchored & (pull <= w_anchor + 1e-15)
        active[stuck] = False
        escape = active & anchored & ok
        eta = np.zeros(p)
        eta[escape] = w_anchor[escape] / pull[escape]
        target[escape] = (
            eta[escape, None] * fac[escape]
            + (1.0 - eta[escape, None]) * target[escape]
        )
    return target


def _weber_clusters(
    x: np.ndarray,
    w: np.ndarray,
    c: np.ndarray,
    facilities: np.ndarray,
    instance: Instance,
    dmin: float,
    tree: cKDTree | None,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Constrained Weiszfeld descent for all clusters at once.

    `c` labels the rows of `x` (weights `w`), or of several copies of `x`
    laid end to end. Every facility follows its own accept/halve schedule,
    which reads only its own cluster's rows; empty clusters are left
    untouched. Only the active facilities are proposed, projected and
    costed, from the rows gathered when the active set last shrank. Cluster
    objectives never increase.
    """
    p = len(facilities)
    fac = np.array(facilities, dtype=float)
    lam = np.ones(p)
    halvings = np.zeros(p, dtype=int)
    active = np.bincount(c, minlength=p) > 0
    xi, wi, ci = _members(x, w, c, active)
    obj = _cluster_costs(xi, wi, ci, fac, p)
    gathered = np.count_nonzero(active)

    for _ in range(max_iter):
        n_active = np.count_nonzero(active)
        if n_active == 0:
            break
        if n_active < gathered:  # active facilities only ever drop out
            xi = wi = ci = None  # release the old rows before gathering anew
            xi, wi, ci = _members(x, w, c, active)
            gathered = n_active
        target = _weiszfeld_targets(xi, wi, ci, fac, active)

        live = np.flatnonzero(active)
        step = fac[live]
        step += lam[live, None] * (target[live] - step)
        step, feas = _feasibility_fix(step, instance, dmin, tree)
        proposal = fac.copy()
        proposal[live] = step
        # each bin sums its rows in the same order as a pass over all rows
        new_obj = _cluster_costs(xi, wi, ci, proposal, p)
        accept = np.zeros(p, dtype=bool)
        accept[live] = feas & (new_obj[live] < obj[live])
        rel_gain = (obj - new_obj) / np.maximum(obj, 1e-300)

        fac[accept] = proposal[accept]
        obj[accept] = new_obj[accept]
        lam[accept] = 1.0
        halvings[accept] = 0
        # converged: last accepted step gained too little to keep iterating
        active[accept & (rel_gain < tol)] = False

        reject = active & ~accept
        lam[reject] *= 0.5
        halvings[reject] += 1
        active[reject & (halvings >= MAX_HALVINGS)] = False

    return fac


def constrained_weber(
    cluster_xy,
    cluster_w,
    start,
    instance: Instance,
    dmin: float,
    tol: float = TOL_REFINE,
    max_iter: int = MAX_WEBER_ITER,
) -> np.ndarray:
    """Feasible point minimizing the weighted distance sum to one cluster,
    reached from `start` by the damped projected Weiszfeld scheme. Never
    worse than `start`; worst case returns it unchanged.
    """
    x = np.atleast_2d(np.asarray(cluster_xy, dtype=float))
    w = np.asarray(cluster_w, dtype=float).reshape(-1)
    tree = cKDTree(instance.obnoxious_xy) if instance.n_obnoxious else None
    fac = _weber_clusters(
        x, w, np.zeros(len(x), dtype=int), np.asarray(start, float).reshape(1, 2),
        instance, dmin, tree, tol, max_iter,
    )
    return fac[0]


def _stacked_clusters(assignments: list[np.ndarray], p: int) -> np.ndarray:
    """One cluster-id array for a batch: start j's ids offset by j * p."""
    c = np.concatenate(assignments)
    c.reshape(len(assignments), -1)[:] += np.arange(0, len(assignments) * p, p)[:, None]
    return c


def refine_many(
    instance: Instance,
    dmin: float,
    starts,
    tol: float = TOL_REFINE,
    max_rounds: int = MAX_ROUNDS,
    max_iter: int = MAX_WEBER_ITER,
) -> list[ContinuousSolution]:
    """Location-allocation descent from each of several feasible p-point
    configurations, run in lockstep; one solution per start, in order.

    Raises InfeasibleStartError, naming the first infeasible start, before
    any descent runs.
    """
    facs = np.array([np.atleast_2d(np.asarray(s, dtype=float)) for s in starts])
    if len(facs) == 0:
        return []
    k_all, p, _ = facs.shape
    tree = cKDTree(instance.obnoxious_xy) if instance.n_obnoxious else None
    if tree is not None and dmin > 0:
        clearance = tree.query(facs.reshape(-1, 2))[0].reshape(k_all, p)
        bad = (clearance < dmin - FEAS_TOL).any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            worst = int(np.argmin(clearance[k]))
            raise InfeasibleStartError(
                f"start {k}: facility {worst} at clearance "
                f"{clearance[k, worst]:.6g} < {dmin}"
            )

    x, w = instance.demand_xy, instance.weights
    assignment, objective, trace = [], [], []
    for fac in facs:
        c, obj = assign(fac, instance)
        assignment.append(c)
        objective.append(obj)
        trace.append([obj])
    running = list(range(k_all))
    for _ in range(max_rounds):
        if not running:
            break
        moved = _weber_clusters(
            x, w, _stacked_clusters([assignment[k] for k in running], p),
            facs[running].reshape(-1, 2), instance, dmin, tree, tol, max_iter,
        ).reshape(len(running), p, 2)
        still = []
        for j, k in enumerate(running):
            facs[k] = moved[j]
            assignment[k], new_obj = assign(facs[k], instance)
            obj = objective[k]
            if not new_obj <= obj + 1e-9 * max(1.0, obj):  # a NaN objective fails too
                raise RefineMonotonicityError(
                    f"start {k}: objective rose from {obj:.17g} to {new_obj:.17g} "
                    "within a round"
                )
            trace[k].append(new_obj)
            objective[k] = new_obj
            if obj - new_obj >= tol * max(obj, 1e-300):
                still.append(k)
        running = still
    return [
        ContinuousSolution(facilities=f.copy(), assignment=c, objective=o, feasible=True,
                           trace=t)
        for f, c, o, t in zip(facs, assignment, objective, trace)
    ]


def refine(
    instance: Instance,
    dmin: float,
    start,
    tol: float = TOL_REFINE,
    max_rounds: int = MAX_ROUNDS,
    max_iter: int = MAX_WEBER_ITER,
) -> ContinuousSolution:
    """Location-allocation descent from a feasible p-point configuration."""
    return refine_many(instance, dmin, [start], tol, max_rounds, max_iter)[0]


def multistart_random(
    instance: Instance,
    dmin: float,
    p: int,
    tries: int,
    seed: int,
    pool_attempts: int = 100_000,
    tol: float = TOL_REFINE,
) -> ContinuousSolution:
    """Best refine result over `tries` random feasible p-tuples (the first
    of equal objectives), all descended in one batch.

    The start pool is the feasible subset of `pool_attempts` uniform box
    samples; raises NoFeasibleSampleError when that subset is empty.
    """
    if tries < 1:
        raise ValueError("tries must be >= 1")
    pool, _ = sample_feasible(instance, dmin, count=pool_attempts, seed=seed,
                              max_attempts=pool_attempts)
    if len(pool) < 1:
        raise NoFeasibleSampleError(f"no feasible point in {pool_attempts} samples")
    rng = np.random.default_rng(seed)
    starts = [pool[rng.choice(len(pool), size=p, replace=len(pool) < p)]
              for _ in range(tries)]
    return min(refine_many(instance, dmin, starts, tol=tol), key=lambda s: s.objective)


def write_trace_csv(solution: ContinuousSolution, path) -> None:
    """Per-round convergence trace: header `round,objective`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,objective\n")
        for i, v in enumerate(solution.trace):
            fh.write(f"{i},{v:.17g}\n")
