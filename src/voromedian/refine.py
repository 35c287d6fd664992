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
    (= most violated) protected point. Returns (points, feasible_mask).
    """
    pts = instance.box.clamp(points)
    if tree is None or dmin <= 0:
        return pts, np.ones(len(pts), dtype=bool)
    for _ in range(MAX_PROJECTIONS):
        dist, nearest = tree.query(pts)
        bad = dist < dmin - FEAS_TOL
        if not bad.any():
            return pts, np.ones(len(pts), dtype=bool)
        centers = tree.data[nearest[bad]]
        offset = pts[bad] - centers
        norm = np.hypot(offset[:, 0], offset[:, 1])
        # a point exactly on a protected point has no direction; pick +x
        degenerate = norm < 1e-300
        offset[degenerate] = (1.0, 0.0)
        norm[degenerate] = 1.0
        pts[bad] = centers + dmin * offset / norm[:, None]
        pts = instance.box.clamp(pts)
    dist, _ = tree.query(pts)
    return pts, dist >= dmin - FEAS_TOL


def _cluster_costs(x, w, c, facilities, p) -> np.ndarray:
    diff = x - facilities[c]
    return np.bincount(c, weights=w * np.hypot(diff[:, 0], diff[:, 1]), minlength=p)


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

    Every facility follows its own accept/halve schedule; empty clusters are
    left untouched. Cluster objectives never increase.
    """
    p = len(facilities)
    fac = np.array(facilities, dtype=float)
    obj = _cluster_costs(x, w, c, fac, p)
    lam = np.ones(p)
    halvings = np.zeros(p, dtype=int)
    active = np.bincount(c, minlength=p) > 0

    for _ in range(max_iter):
        if not active.any():
            break
        member = active[c]
        xi, wi, ci = x[member], w[member], c[member]
        diff = xi - fac[ci]
        dist = np.hypot(diff[:, 0], diff[:, 1])
        coincident = dist < 1e-9
        u = wi / np.maximum(dist, 1e-12)
        u[coincident] = 0.0  # coincident members handled separately below
        den = np.bincount(ci, weights=u, minlength=p)
        num_x = np.bincount(ci, weights=u * xi[:, 0], minlength=p)
        num_y = np.bincount(ci, weights=u * xi[:, 1], minlength=p)
        target = fac.copy()
        ok = den > 0
        target[ok] = np.column_stack([num_x[ok], num_y[ok]]) / den[ok, None]

        # A facility sitting on a demand point is a Weiszfeld fixed point.
        # One-sided descent test: it is locally optimal iff the net pull of
        # the remaining members does not exceed the coincident weight; if it
        # does, damp the step toward the others-only target accordingly.
        if coincident.any():
            anchored = np.bincount(ci[coincident], minlength=p).astype(bool)
            w_anchor = np.bincount(ci[coincident], weights=wi[coincident], minlength=p)
            pull_x = np.bincount(ci, weights=u * diff[:, 0], minlength=p)
            pull_y = np.bincount(ci, weights=u * diff[:, 1], minlength=p)
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

        proposal = fac + lam[:, None] * (target - fac)
        proposal, feas = _feasibility_fix(proposal, instance, dmin, tree)
        new_obj = _cluster_costs(x, w, c, proposal, p)
        rel_gain = (obj - new_obj) / np.maximum(obj, 1e-300)
        accept = active & feas & (new_obj < obj)

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


def refine(
    instance: Instance,
    dmin: float,
    start,
    tol: float = TOL_REFINE,
    max_rounds: int = MAX_ROUNDS,
    max_iter: int = MAX_WEBER_ITER,
) -> ContinuousSolution:
    """Location-allocation descent from a feasible p-point configuration."""
    fac = np.atleast_2d(np.asarray(start, dtype=float)).copy()
    tree = cKDTree(instance.obnoxious_xy) if instance.n_obnoxious else None
    if tree is not None and dmin > 0:
        clearance = tree.query(fac)[0]
        if (clearance < dmin - FEAS_TOL).any():
            worst = int(np.argmin(clearance))
            raise InfeasibleStartError(
                f"start facility {worst} at clearance {clearance[worst]:.6g} < {dmin}"
            )

    x, w = instance.demand_xy, instance.weights
    c, obj = assign(fac, instance)
    trace = [obj]
    for _ in range(max_rounds):
        fac = _weber_clusters(x, w, c, fac, instance, dmin, tree, tol, max_iter)
        c, new_obj = assign(fac, instance)
        if not new_obj <= obj + 1e-9 * max(1.0, obj):  # a NaN objective fails too
            raise RefineMonotonicityError(
                f"objective rose from {obj:.17g} to {new_obj:.17g} within a round"
            )
        trace.append(new_obj)
        done = obj - new_obj < tol * max(obj, 1e-300)
        obj = new_obj
        if done:
            break
    return ContinuousSolution(
        facilities=fac, assignment=c, objective=obj, feasible=True, trace=trace
    )


def multistart_random(
    instance: Instance,
    dmin: float,
    p: int,
    tries: int,
    seed: int,
    pool_attempts: int = 100_000,
    tol: float = TOL_REFINE,
) -> ContinuousSolution:
    """Best refine result over `tries` random feasible p-tuples.

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
    best: ContinuousSolution | None = None
    for _ in range(tries):
        idx = rng.choice(len(pool), size=p, replace=len(pool) < p)
        sol = refine(instance, dmin, pool[idx], tol=tol)
        if best is None or sol.objective < best.objective:
            best = sol
    return best


def write_trace_csv(solution: ContinuousSolution, path) -> None:
    """Per-round convergence trace: header `round,objective`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,objective\n")
        for i, v in enumerate(solution.trace):
            fh.write(f"{i},{v:.17g}\n")
