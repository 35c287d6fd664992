"""Continuous improvement of a feasible facility configuration.

Alternates two phases until the objective stalls: assign every demand point
to its nearest facility, then relocate each facility within its cluster by
damped Weiszfeld steps with minimum-distance constraint handling. A proposed
relocation that lands closer than `dmin` to a protected point (a query of
`instance.protected_tree`) is projected onto the exclusion circle of the
most-violated point, repeatedly up to a small cap; a point pushed off one
circle into a second that crosses it goes to their nearer crossing. Only
feasible, objective-improving iterates are accepted, and a rejected proposal
is halved back toward the previous iterate. Facilities stay inside the
instance box.

All accepted configurations are feasible, so every returned solution is
too. The total objective is non-increasing, both per Weiszfeld step (per
cluster) and per round.

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

The same argument lets a facility try its halvings in the pass that
rejected its step. A rejected facility keeps its position and its cluster
rows, so its Weiszfeld target is unchanged and its next proposals are
known: the step halved once, twice, ... up to `MAX_HALVINGS`. Each pass
proposes every active facility's full step; the facilities whose step is
rejected propose their halvings in one more projection loop (one KD-tree
query per projection pass for all of them) and take the first feasible,
improving one. That is the proposal the one-halving-per-pass descent
accepts, after as many proposals, so the iteration cap, the halving cap
and the stop tests fire where they fire there.

A solution's `stats` count its rounds, the Weiszfeld passes its start ran
over all rounds (one full step per descending facility, with the halvings
of the rejected ones), the proposals charged to its facilities (one per
step or halving) and the clearance queries made for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .candidates import sample_feasible
from .discrete import build_matrix
from .instances import Instance

TOL_REFINE = 1e-7  # relative objective improvement below which we stop
MAX_WEBER_ITER = 1000  # per facility per round
MAX_ROUNDS = 200
MAX_PROJECTIONS = 10  # constraint-projection passes per proposal
MAX_HALVINGS = 40  # step halvings before a facility is declared stuck
FEAS_TOL = 1e-9
POOL_ATTEMPTS = 100_000  # uniform box samples behind multistart_random's start pool


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
    trace: list[float] = field(default_factory=list)  # objective per round
    # rounds, passes (full steps), proposals (steps and halvings), projected
    # (clearance queries); see the module docstring
    stats: dict = field(default_factory=dict)


def assign(facilities, instance: Instance) -> tuple[np.ndarray, float]:
    """Nearest-facility assignment (ties: lowest index) and its cost."""
    dist = build_matrix(instance, np.atleast_2d(facilities))
    idx = np.argmin(dist, axis=1)
    cost = float(instance.weights @ dist[np.arange(len(dist)), idx])
    return idx, cost


def _feasibility_fix(points: np.ndarray, instance: Instance,
                     dmin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Clamp into the box and project onto exclusion circles until feasible.

    Each pass projects every violating point onto the circle of its nearest
    (= most violated) protected point B, radially; but a point that the
    previous pass projected onto another circle A, with 0 < |AB| < 2 dmin,
    goes to the crossing of the two circles nearer to it. Only the points a
    pass moved are queried again: the others already clear `dmin`. Returns
    (points, feasible_mask, queries): the clearance queries each point
    took, all zero when `dmin` <= 0 leaves nothing to query.
    """
    box = instance.box
    lo, hi = (box.xmin, box.ymin), (box.xmax, box.ymax)
    pts = np.maximum(points, lo)
    np.minimum(pts, hi, out=pts)
    feasible = np.ones(len(pts), dtype=bool)
    queries = np.zeros(len(pts), dtype=int)
    if dmin <= 0:
        return pts, feasible, queries
    tree = instance.protected_tree
    moved = np.arange(len(pts))
    last = np.full(len(pts), -1)  # the circle each point was last projected onto
    for _ in range(MAX_PROJECTIONS):
        queries[moved] += 1
        dist, nearest = tree.query(pts[moved])
        bad = dist < dmin - FEAS_TOL
        if not bad.any():
            return pts, feasible, queries
        moved, nearest = moved[bad], nearest[bad]
        centers = tree.data[nearest]
        offset = pts[moved] - centers
        norm = np.hypot(offset[:, 0], offset[:, 1])
        # a point exactly on a protected point has no direction; pick +x
        degenerate = norm < 1e-300
        offset[degenerate] = (1.0, 0.0)
        norm[degenerate] = 1.0
        # centers + dmin * offset / norm; in place, for a ladder's many points
        np.multiply(dmin, offset, out=offset)
        offset /= norm[:, None]
        offset += centers
        # pushed off circle A into a circle B that crosses it: the crossing nearer the point
        k = np.flatnonzero(last[moved] >= 0)
        ab = centers[k] - tree.data[last[moved[k]]]
        gap = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
        cross = (gap > 0) & (gap < 4 * dmin * dmin)
        k, ab, gap = k[cross], ab[cross], gap[cross]
        mid = centers[k] - ab / 2
        q = pts[moved[k]] - mid
        s = np.sqrt(dmin * dmin - gap / 4) / np.sqrt(gap)
        s[ab[:, 0] * q[:, 1] < ab[:, 1] * q[:, 0]] *= -1  # right of AB: the crossing there
        offset[k] = mid + s[:, None] * np.column_stack([-ab[:, 1], ab[:, 0]])
        last[moved] = nearest
        np.maximum(offset, lo, out=offset)
        pts[moved] = np.minimum(offset, hi, out=offset)
    queries[moved] += 1
    feasible[moved] = tree.query(pts[moved])[0] >= dmin - FEAS_TOL
    return pts, feasible, queries


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


def _climb(xi, wi, ci, obj, proposal, new_obj, accept, steps, feas, ladder, at, more):
    """The first feasible rung of each ladder that lowers its cluster's cost.

    Ladder i's rungs are steps[at[i]:at[i] + more[i]]. Rungs are costed one
    level at a time, only the feasible ones of the ladders still climbing,
    from their own clusters' rows. A winner's rung and cost go into
    `proposal`, `new_obj` and `accept`. Returns the rungs charged per
    facility: up to and including its winner, else all of them.
    """
    p = len(obj)
    charged = np.zeros(p, dtype=int)
    while len(ladder):
        won = np.zeros(len(ladder), dtype=bool)
        ok = np.flatnonzero(feas[at])
        if len(ok):
            g = ladder[ok]
            proposal[g] = steps[at[ok]]
            costed = np.zeros(p, dtype=bool)
            costed[g] = True
            cost = _cluster_costs(*_members(xi, wi, ci, costed), proposal, p)[g]
            win = cost < obj[g]
            new_obj[g[win]] = cost[win]
            accept[g[win]] = True
            won[ok[win]] = True
        charged[ladder] += 1
        keep = ~won & (more > 1)
        ladder, at, more = ladder[keep], at[keep] + 1, more[keep] - 1
    return charged


def _weber_clusters(
    x: np.ndarray,
    w: np.ndarray,
    c: np.ndarray,
    facilities: np.ndarray,
    instance: Instance,
    dmin: float,
    counts: np.ndarray,
) -> np.ndarray:
    """Constrained Weiszfeld descent for all clusters at once.

    `c` labels the rows of `x` (weights `w`), or of several copies of `x`
    laid end to end. Every facility follows its own accept/halve schedule,
    which reads only its own cluster's rows; empty clusters are left
    untouched. Only the active facilities are proposed, projected and
    costed, from the rows gathered when the active set last shrank. Cluster
    objectives never increase.

    A facility whose full step is rejected proposes, in the same pass,
    every halving it has left (see the module docstring) and takes the first
    feasible one that improves; one that takes none is out of halvings or
    of its `MAX_WEBER_ITER` proposals, and stops, as does one whose
    accepted step gains less than `TOL_REFINE` relative. `counts`, a (3, p)
    int array, gains per facility the passes it proposed in, its proposals
    and the clearance queries made for them.
    """
    p = len(facilities)
    fac = np.array(facilities, dtype=float)
    active = np.bincount(c, minlength=p) > 0
    xi, wi, ci = _members(x, w, c, active)
    obj = _cluster_costs(xi, wi, ci, fac, p)
    gathered = np.count_nonzero(active)
    passes, proposals, queried = np.zeros((3, p), dtype=int)

    for _ in range(MAX_WEBER_ITER):
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
        step, feas, queries = _feasibility_fix(step + (target[live] - step), instance, dmin)
        proposal = fac.copy()
        proposal[live] = step
        # each bin sums its rows in the same order as a pass over all rows
        new_obj = _cluster_costs(xi, wi, ci, proposal, p)
        accept = np.zeros(p, dtype=bool)
        accept[live] = feas & (new_obj[live] < obj[live])
        passes[live] += 1
        proposals[live] += 1
        queried[live] += queries

        # rungs 1..more of each rejected step: fac + 2^-k (target - fac)
        ladder = live[~accept[live]]
        more = np.minimum(MAX_HALVINGS - 1, MAX_WEBER_ITER - proposals[ladder])
        left = more > 0
        ladder, more = ladder[left], more[left]
        if len(ladder):
            owner = np.repeat(ladder, more)
            at = np.cumsum(more) - more
            rung = 1 + np.arange(len(owner)) - np.repeat(at, more)
            steps = fac[owner]
            steps += np.ldexp(1.0, -rung)[:, None] * (target[owner] - steps)
            steps, feas, queries = _feasibility_fix(steps, instance, dmin)
            queried += np.bincount(owner, weights=queries, minlength=p).astype(int)
            proposals += _climb(xi, wi, ci, obj, proposal, new_obj, accept, steps, feas,
                                ladder, at, more)

        # index arrays, found once, where each masked update would scan `accept` again
        won = np.flatnonzero(accept)
        fac[won] = proposal[won]
        rel_gain = (obj[won] - new_obj[won]) / np.maximum(obj[won], 1e-300)
        obj[won] = new_obj[won]
        # a facility that took no step, or has no proposal left, stops
        active &= accept & (proposals < MAX_WEBER_ITER)
        # converged: last accepted step gained too little to keep iterating
        active[won[rel_gain < TOL_REFINE]] = False

    counts += (passes, proposals, queried)
    return fac


def _stacked_clusters(assignments: list[np.ndarray], p: int) -> np.ndarray:
    """One cluster-id array for a batch: start j's ids offset by j * p."""
    c = np.concatenate(assignments)
    c.reshape(len(assignments), -1)[:] += np.arange(0, len(assignments) * p, p)[:, None]
    return c


def refine_many(instance: Instance, dmin: float, starts) -> list[ContinuousSolution]:
    """Location-allocation descent from each of several feasible p-point
    configurations, run in lockstep; one solution per start, in order.

    Raises ValueError for a negative or NaN `dmin`, and InfeasibleStartError,
    naming the first start that is not (p, 2) like start 0, or is infeasible
    or not finite, before any descent runs.
    """
    if not dmin >= 0:  # NaN fails too
        raise ValueError("dmin must be >= 0")
    facs = []
    for k, s in enumerate(starts):
        try:
            facs.append(np.atleast_2d(np.asarray(s, dtype=float)))
        except ValueError as exc:  # ragged, or not numbers
            raise InfeasibleStartError(f"start {k} is not an array of points: {exc}") from None
    if len(facs) == 0:
        return []
    shape = (len(facs[0]), 2)
    k = next((k for k, f in enumerate(facs) if f.shape != shape), None)
    if k is not None:
        raise InfeasibleStartError(f"start {k} has shape {facs[k].shape}, not {shape}")
    facs = np.array(facs)
    k_all, p, _ = facs.shape
    nonfinite = ~np.isfinite(facs).all(axis=2)
    if nonfinite.any():
        k, j = np.argwhere(nonfinite)[0]
        raise InfeasibleStartError(
            f"start {k}: facility {j} at {facs[k, j].tolist()} is not finite"
        )
    clearance = instance.protected_tree.query(facs.reshape(-1, 2))[0].reshape(k_all, p)
    bad = (clearance < dmin - FEAS_TOL).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        worst = int(np.argmin(clearance[k]))
        raise InfeasibleStartError(
            f"start {k}: facility {worst} at clearance {clearance[k, worst]:.6g} < {dmin}"
        )

    x, w = instance.demand_xy, instance.weights
    assignment, objective, trace = [], [], []
    for fac in facs:
        c, obj = assign(fac, instance)
        assignment.append(c)
        objective.append(obj)
        trace.append([obj])
    counted = np.zeros((k_all, 3), dtype=int)  # passes, proposals, queries
    running = list(range(k_all))
    for _ in range(MAX_ROUNDS):
        if not running:
            break
        counts = np.zeros((3, len(running) * p), dtype=int)
        moved = _weber_clusters(
            x, w, _stacked_clusters([assignment[k] for k in running], p),
            facs[running].reshape(-1, 2), instance, dmin, counts,
        ).reshape(len(running), p, 2)
        # a start alone loops until its last facility stops
        counts = counts.reshape(3, len(running), p)
        counted[running] += np.column_stack(
            [counts[0].max(axis=1), counts[1].sum(axis=1), counts[2].sum(axis=1)])
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
            if obj - new_obj >= TOL_REFINE * max(obj, 1e-300):
                still.append(k)
        running = still
    return [
        ContinuousSolution(facilities=f.copy(), assignment=c, objective=o, trace=t,
                           stats={"rounds": len(t) - 1, "passes": int(n[0]),
                                  "proposals": int(n[1]), "projected": int(n[2])})
        for f, c, o, t, n in zip(facs, assignment, objective, trace, counted)
    ]


def refine(instance: Instance, dmin: float, start) -> ContinuousSolution:
    """Location-allocation descent from a feasible p-point configuration."""
    return refine_many(instance, dmin, [start])[0]


def multistart_random(
    instance: Instance,
    dmin: float,
    p: int,
    tries: int,
    seed: int,
) -> ContinuousSolution:
    """Best refine result over `tries` random feasible p-tuples (the first
    of equal objectives), all descended in one batch.

    The start pool is the feasible subset of `POOL_ATTEMPTS` uniform box
    samples; raises NoFeasibleSampleError when that subset is empty.
    """
    if tries < 1:
        raise ValueError("tries must be >= 1")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    pool, _ = sample_feasible(instance, dmin, count=POOL_ATTEMPTS, seed=seed,
                              max_attempts=POOL_ATTEMPTS)
    if len(pool) < 1:
        raise NoFeasibleSampleError(f"no feasible point in {POOL_ATTEMPTS} samples")
    rng = np.random.default_rng(seed)
    starts = [pool[rng.choice(len(pool), size=p, replace=len(pool) < p)]
              for _ in range(tries)]
    return min(refine_many(instance, dmin, starts), key=lambda s: s.objective)
