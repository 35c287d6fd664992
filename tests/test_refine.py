import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import voromedian
import voromedian.refine as refine_mod
from voromedian.candidates import sample_feasible
from voromedian.geometry import BoundingBox
from voromedian.instances import Instance
from voromedian.refine import (
    MAX_HALVINGS,
    MAX_WEBER_ITER,
    TOL_REFINE,
    InfeasibleStartError,
    NoFeasibleSampleError,
    RefineMonotonicityError,
    _weber_clusters,
    assign,
    multistart_random,
    refine,
    refine_many,
)


def blocked_pair_instance():
    """Two unit demands on the x-axis with a protected point between them."""
    return Instance(
        demand_xy=[[0, 0], [2, 0]], weights=[1, 1], obnoxious_xy=[[1, 0]],
        box=BoundingBox(-5, -5, 5, 5),
    )


def one_cluster_weber(xy, w, start, instance, dmin):
    """The constrained Weiszfeld descent of a single cluster from `start`."""
    xy, w = np.atleast_2d(np.asarray(xy, float)), np.asarray(w, float)
    c = np.zeros(len(xy), dtype=int)
    counts = np.zeros((3, 1), dtype=int)
    return _weber_clusters(xy, w, c, [start], instance, dmin, counts)[0]


def cluster_cost(xy, w, y):
    return float(np.asarray(w) @ np.hypot(*(np.asarray(xy, float) - y).T))


class TestAssign:
    def test_single_facility_takes_all(self, inst100):
        idx, cost = assign([[5.0, 5.0]], inst100)
        assert (idx == 0).all()
        assert cost == pytest.approx(
            float(inst100.weights @ np.hypot(*(inst100.demand_xy - [5, 5]).T))
        )

    def test_facility_on_every_demand_is_free(self, inst100):
        idx, cost = assign(inst100.demand_xy, inst100)
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        inst = Instance(demand_xy=[[0, 0]], weights=[1.0], obnoxious_xy=[[9, 9]],
                        box=BoundingBox(-1, -1, 10, 10))
        idx, _ = assign([[1, 0], [-1, 0]], inst)
        assert idx[0] == 0


class TestConstrainedWeber:
    def test_free_single_demand_reaches_it(self):
        inst = Instance(demand_xy=[[2, 3]], weights=[1.0], obnoxious_xy=[[8, 8]],
                        box=BoundingBox(0, 0, 10, 10))
        y = one_cluster_weber([[2, 3]], [1.0], start=[4.0, 4.0], instance=inst, dmin=1.0)
        assert np.allclose(y, (2, 3), atol=1e-9)

    def test_demand_point_is_protected(self):
        # the unconstrained optimum sits on the protected point; the result
        # must land on its exclusion circle, cost = dmin * weight
        inst = Instance(demand_xy=[[5, 5]], weights=[2.0], obnoxious_xy=[[5, 5]],
                        box=BoundingBox(0, 0, 10, 10))
        y = one_cluster_weber([[5, 5]], [2.0], start=[5.0, 8.0], instance=inst, dmin=1.5)
        assert inst.protected_tree.query(y)[0] == pytest.approx(1.5, abs=1e-9)
        assert cluster_cost([[5, 5]], [2.0], y) == pytest.approx(3.0, abs=1e-8)

    def test_blocked_pair_grid_oracle(self):
        """Independent oracle: dense grid search over the feasible region.

        The global feasible optimum is on the demand segment at the circle
        boundary (cost 2.0), strictly better than the best point on the
        blocking circle itself (2*sqrt(1.25) ~ 2.23607).
        """
        inst = blocked_pair_instance()
        xy, w, dmin = inst.demand_xy, inst.weights, 0.5

        xs = np.linspace(-1.0, 3.0, 2001)
        ys = np.linspace(-2.0, 2.0, 2001)
        gx, gy = np.meshgrid(xs, ys)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        feas = np.hypot(grid[:, 0] - 1.0, grid[:, 1]) >= dmin
        cost = (
            np.hypot(grid[:, 0], grid[:, 1])
            + np.hypot(grid[:, 0] - 2.0, grid[:, 1])
        )
        oracle = cost[feas].min()
        assert oracle == pytest.approx(2.0, abs=1e-6)

        # circle-restricted oracle agrees: the circle crosses the demand
        # segment at the touch points (0.5, 0) and (1.5, 0), so minimizing
        # over the circle angle also gives 2.0; the circle poles (1, +-0.5)
        # cost 2*sqrt(1.25) and are not optima of anything
        ang = np.linspace(0, 2 * math.pi, 200001)
        circ = np.column_stack([1.0 + dmin * np.cos(ang), dmin * np.sin(ang)])
        circle_best = (
            np.hypot(circ[:, 0], circ[:, 1]) + np.hypot(circ[:, 0] - 2.0, circ[:, 1])
        ).min()
        assert circle_best == pytest.approx(2.0, abs=1e-8)
        assert cluster_cost(xy, w, [1.0, 0.5]) == pytest.approx(2 * math.sqrt(1.25))

        # descent never beats the global oracle and never loses feasibility;
        # from these starts it actually attains it
        for start in ([1.0, 0.6], [1.0, 1.0], [0.2, 0.1], [1.8, -0.3], [1.0, -2.0]):
            y = one_cluster_weber(xy, w, start=start, instance=inst, dmin=dmin)
            assert inst.protected_tree.query(y)[0] >= dmin - 1e-9
            assert cluster_cost(xy, w, y) >= oracle - 1e-9
            assert cluster_cost(xy, w, y) <= cluster_cost(xy, w, start) + 1e-12
            assert cluster_cost(xy, w, y) == pytest.approx(oracle, abs=1e-6)

    def test_unconstrained_reaches_stationary_point(self, monkeypatch):
        """First-order check via central finite differences, away from
        demand coincidence (the objective is non-smooth at demand points
        and ill-conditioned right next to them)."""
        monkeypatch.setattr(refine_mod, "TOL_REFINE", 1e-15)
        monkeypatch.setattr(refine_mod, "MAX_WEBER_ITER", 20000)
        rng = np.random.default_rng(14)
        inst_box = BoundingBox(0, 0, 10, 10)
        checked = 0
        for trial in range(6):
            xy = rng.uniform(1, 9, size=(10, 2))
            w = rng.uniform(0.5, 2.0, size=10)
            inst = Instance(demand_xy=xy, weights=w, obnoxious_xy=[], box=inst_box)
            y = one_cluster_weber(xy, w, start=xy.mean(axis=0), instance=inst, dmin=0.0)
            if np.hypot(*(xy - y).T).min() < 0.05:
                continue
            h = 1e-7
            grad = np.array([
                (cluster_cost(xy, w, y + [h, 0]) - cluster_cost(xy, w, y - [h, 0])) / (2 * h),
                (cluster_cost(xy, w, y + [0, h]) - cluster_cost(xy, w, y - [0, h])) / (2 * h),
            ])
            assert np.hypot(*grad) <= 1e-6, trial
            checked += 1
        assert checked >= 3

    def test_start_at_demand_point_escapes_when_not_optimal(self):
        # the far trio must pull the facility off the isolated point; the
        # optimum value is 7 and the objective is flat (quadratic) around it
        xy = [[0.0, 0.0], [5.0, 0.0], [5.0, 1.0], [5.0, -1.0]]
        w = [1.0, 1.0, 1.0, 1.0]
        inst = Instance(demand_xy=xy, weights=w, obnoxious_xy=[], box=BoundingBox(-1, -2, 6, 2))
        y = one_cluster_weber(xy, w, start=[0.0, 0.0], instance=inst, dmin=0.0)
        assert cluster_cost(xy, w, y) < cluster_cost(xy, w, [0.0, 0.0]) - 1e-6
        assert cluster_cost(xy, w, y) == pytest.approx(7.0, abs=1e-4)
        assert y[0] > 4.9


class TestRefine:
    def test_monotone_trace_and_improvement(self, inst100):
        from voromedian.candidates import sample_feasible
        start, _ = sample_feasible(inst100, 0.95, count=5, seed=20)
        sol = refine(inst100, 0.95, start)
        _, start_cost = assign(start, inst100)
        assert sol.objective <= start_cost + 1e-12
        d = np.diff(sol.trace)
        assert (d <= 1e-9).all()

    def test_facilities_stay_feasible(self, inst100):
        from voromedian.candidates import sample_feasible
        start, _ = sample_feasible(inst100, 1.0, count=4, seed=4)
        sol = refine(inst100, 1.0, start)
        for f in sol.facilities:
            assert inst100.protected_tree.query(f)[0] >= 1.0 - 1e-9

    def test_infeasible_start_rejected(self, inst100):
        with pytest.raises(InfeasibleStartError):
            refine(inst100, 1.0, [inst100.demand_xy[0]])

    def test_objective_increase_raises(self, monkeypatch):
        inst = Instance(demand_xy=[[1, 1], [9, 9]], weights=[1, 1],
                        obnoxious_xy=[[5, 5]], box=BoundingBox(0, 0, 10, 10))
        # a descent step that moves every facility farther from its demand
        monkeypatch.setattr(refine_mod, "_weber_clusters",
                            lambda x, w, c, fac, *args: fac + 0.5)
        with pytest.raises(RefineMonotonicityError, match="objective rose"):
            refine(inst, 1.0, [[1, 1], [9, 9]])
        # the check runs per start inside a batch too
        with pytest.raises(RefineMonotonicityError, match="start 0: objective rose"):
            refine_many(inst, 1.0, [[[1, 1], [9, 9]], [[1, 1], [8, 8]]])

    def test_objective_increase_raises_under_python_O(self):
        # `python -O` strips assert statements; the check must survive it.
        # A fresh interpreter, because -O is fixed at startup.
        code = (
            "import voromedian.refine as r\n"
            "from voromedian.geometry import BoundingBox\n"
            "from voromedian.instances import Instance\n"
            "assert False, 'asserts must be stripped'\n"
            "inst = Instance(demand_xy=[[1, 1], [9, 9]], weights=[1, 1],\n"
            "                obnoxious_xy=[[5, 5]], box=BoundingBox(0, 0, 10, 10))\n"
            "r._weber_clusters = lambda x, w, c, fac, *args: fac + 0.5\n"
            "try:\n"
            "    r.refine(inst, 1.0, [[1, 1], [9, 9]])\n"
            "except r.RefineMonotonicityError as exc:\n"
            "    print(exc)\n"
        )
        package_root = str(Path(voromedian.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "objective rose" in result.stdout

    def test_local_optimum_is_fixed_point(self):
        inst = Instance(demand_xy=[[1, 1], [9, 9]], weights=[1, 1],
                        obnoxious_xy=[[5, 5]], box=BoundingBox(0, 0, 10, 10))
        sol = refine(inst, 1.0, [[1, 1], [9, 9]])
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.facilities, [[1, 1], [9, 9]])

    def test_empty_cluster_keeps_facility(self):
        inst = Instance(demand_xy=[[1, 1], [1, 2]], weights=[1, 1],
                        obnoxious_xy=[[9, 9]], box=BoundingBox(0, 0, 10, 10))
        sol = refine(inst, 0.5, [[1.0, 1.5], [8.0, 1.0]])
        assert np.allclose(sol.facilities[1], (8.0, 1.0))

    def test_assignment_ties_lowest_index(self, inst100):
        from voromedian.candidates import sample_feasible
        start, _ = sample_feasible(inst100, 0.95, count=3, seed=8)
        sol = refine(inst100, 0.95, start)
        diff = inst100.demand_xy[:, None, :] - sol.facilities[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        assert np.array_equal(sol.assignment, np.argmin(dist, axis=1))


class TestMultistartRandom:
    def test_single_try_is_valid_solution(self, inst100):
        sol = multistart_random(inst100, 0.95, p=3, tries=1, seed=5)
        for f in sol.facilities:
            assert inst100.protected_tree.query(f)[0] >= 0.95 - 1e-9

    def test_deterministic(self, inst100):
        a = multistart_random(inst100, 0.95, p=3, tries=3, seed=5)
        b = multistart_random(inst100, 0.95, p=3, tries=3, seed=5)
        assert a.objective == b.objective
        assert np.array_equal(a.facilities, b.facilities)

    def test_no_feasible_sample(self, inst100):
        with pytest.raises(NoFeasibleSampleError):
            multistart_random(inst100, 50.0, p=2, tries=1, seed=1)

    def test_nan_dmin_rejected(self, inst100):
        with pytest.raises(ValueError):
            multistart_random(inst100, float("nan"), p=2, tries=1, seed=1)

    @pytest.mark.parametrize("p", [0, -1])
    def test_p_below_one_rejected_by_name(self, inst100, p):
        with pytest.raises(ValueError, match=rf"^p must be >= 1, got {p}$"):
            multistart_random(inst100, 0.95, p=p, tries=1, seed=1)

    def test_single_facility_matches_grid_oracle(self, inst100):
        """Unconstrained 1-median: dense-grid brute force as the oracle."""
        sol = multistart_random(inst100, 0.0, p=1, tries=3, seed=9)
        xs = np.linspace(0, 10, 1001)
        ys = np.linspace(0, 10, 1001)
        best = math.inf
        w = inst100.weights
        pts = inst100.demand_xy
        for y in ys:  # chunk by rows to bound memory
            d = np.hypot(pts[:, 0, None] - xs[None, :], pts[:, 1, None] - y)
            best = min(best, float((w @ d).min()))
        assert sol.objective <= best + 1e-3


# --- Reference: the one-start-at-a-time descent the batched one replaced ---

def reference_corner(x, y, a, b, dmin):
    """The crossing of the dmin-circles about `a` and `b` nearer to (x, y),
    or None when the circles coincide or do not cross."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    gap = abx * abx + aby * aby
    if not (gap > 0 and gap < 4 * dmin * dmin):
        return None
    mx, my = b[0] - abx / 2, b[1] - aby / 2
    nx, ny = -aby, abx  # normal of ab
    s = math.sqrt(dmin * dmin - gap / 4) / math.sqrt(gap)
    if (x - mx) * nx + (y - my) * ny < 0:
        s = -s
    return mx + s * nx, my + s * ny


def reference_feasibility_fix(points, instance, dmin, tree, degenerate_hits, corners=True):
    """`corners=False` projects every violating point radially, as the
    projection did before its corner step."""
    pts = instance.box.clamp(points)
    if tree is None or dmin <= 0:
        return pts, np.ones(len(pts), dtype=bool)
    last = [None] * len(pts)  # centre of the circle each point was last projected onto
    for _ in range(refine_mod.MAX_PROJECTIONS):
        dist, nearest = tree.query(pts)
        bad = dist < dmin - refine_mod.FEAS_TOL
        if not bad.any():
            return pts, np.ones(len(pts), dtype=bool)
        hits = 0
        for i in np.flatnonzero(bad):
            b = tree.data[nearest[i]]
            corner = None
            if corners and last[i] is not None:
                corner = reference_corner(*pts[i], last[i], b, dmin)
            if corner is not None:
                pts[i] = corner
            else:
                offset = pts[i] - b
                norm = np.hypot(offset[0], offset[1])
                if norm < 1e-300:
                    hits += 1
                    offset, norm = np.array([1.0, 0.0]), 1.0
                pts[i] = b + dmin * offset / norm
            last[i] = b
        degenerate_hits.append(hits)
        pts = instance.box.clamp(pts)
    dist, _ = tree.query(pts)
    return pts, dist >= dmin - refine_mod.FEAS_TOL


def reference_cluster_costs(x, w, c, facilities, p):
    diff = x - facilities[c]
    return np.bincount(c, weights=w * np.hypot(diff[:, 0], diff[:, 1]), minlength=p)


def reference_weber_clusters(x, w, c, facilities, instance, dmin, tree, tol, max_iter,
                             degenerate_hits, proposals=None):
    """`proposals`, when given, gains per facility the passes it was active in:
    one proposal each."""
    p = len(facilities)
    fac = np.array(facilities, dtype=float)
    obj = reference_cluster_costs(x, w, c, fac, p)
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
        u[coincident] = 0.0
        den = np.bincount(ci, weights=u, minlength=p)
        num_x = np.bincount(ci, weights=u * xi[:, 0], minlength=p)
        num_y = np.bincount(ci, weights=u * xi[:, 1], minlength=p)
        target = fac.copy()
        ok = den > 0
        target[ok] = np.column_stack([num_x[ok], num_y[ok]]) / den[ok, None]
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
        if proposals is not None:
            proposals += active
        proposal = fac + lam[:, None] * (target - fac)
        proposal, feas = reference_feasibility_fix(proposal, instance, dmin, tree,
                                                   degenerate_hits)
        new_obj = reference_cluster_costs(x, w, c, proposal, p)
        rel_gain = (obj - new_obj) / np.maximum(obj, 1e-300)
        accept = active & feas & (new_obj < obj)
        fac[accept] = proposal[accept]
        obj[accept] = new_obj[accept]
        lam[accept] = 1.0
        halvings[accept] = 0
        active[accept & (rel_gain < tol)] = False
        reject = active & ~accept
        lam[reject] *= 0.5
        halvings[reject] += 1
        active[reject & (halvings >= refine_mod.MAX_HALVINGS)] = False
    return fac


def reference_refine(instance, dmin, start, degenerate_hits=None):
    hits = [] if degenerate_hits is None else degenerate_hits
    fac = np.atleast_2d(np.asarray(start, dtype=float)).copy()
    tree = cKDTree(instance.obnoxious_xy) if instance.n_obnoxious else None
    x, w = instance.demand_xy, instance.weights
    c, obj = assign(fac, instance)
    trace = [obj]
    for _ in range(refine_mod.MAX_ROUNDS):
        fac = reference_weber_clusters(x, w, c, fac, instance, dmin, tree,
                                       refine_mod.TOL_REFINE, refine_mod.MAX_WEBER_ITER, hits)
        c, new_obj = assign(fac, instance)
        trace.append(new_obj)
        done = obj - new_obj < refine_mod.TOL_REFINE * max(obj, 1e-300)
        obj = new_obj
        if done:
            break
    return fac, c, obj, trace


def reference_multistart(instance, dmin, p, tries, seed):
    pool, _ = sample_feasible(instance, dmin, count=100_000, seed=seed, max_attempts=100_000)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(tries):
        idx = rng.choice(len(pool), size=p, replace=len(pool) < p)
        sol = reference_refine(instance, dmin, pool[idx])
        if best is None or sol[2] < best[2]:
            best = sol
    return best


def assert_batch_matches_reference(instance, dmin, starts, degenerate_hits=None):
    sols = refine_many(instance, dmin, starts)
    assert len(sols) == len(starts)
    for k, (start, sol) in enumerate(zip(starts, sols)):
        fac, c, obj, trace = reference_refine(instance, dmin, start, degenerate_hits)
        assert np.array_equal(sol.facilities, fac), k
        assert np.array_equal(sol.assignment, c), k
        assert sol.objective == obj, k
        assert sol.trace == trace, k
    return sols


class TestRefineManyOracle:
    """The lockstep batch against the one-start-at-a-time descent: every
    start's facilities, assignment, objective and trace are bit-equal."""

    @pytest.mark.parametrize("p", [1, 3, 15])
    def test_n100_feasible_starts(self, inst100, p):
        pts, _ = sample_feasible(inst100, 0.95, count=6 * p, seed=p)
        starts = list(pts.reshape(6, p, 2))
        sols = assert_batch_matches_reference(inst100, 0.95, starts)
        if p == 15:
            # starts leave the batch in different rounds
            assert len({len(s.trace) for s in sols}) > 1

    def test_n1000_p20(self, inst1000):
        pts, _ = sample_feasible(inst1000, 0.3, count=60, seed=3)
        assert_batch_matches_reference(inst1000, 0.3, list(pts.reshape(3, 20, 2)))

    def test_unconstrained(self, inst100):
        rng = np.random.default_rng(2)
        starts = [inst100.demand_xy[rng.choice(100, size=5, replace=False)]
                  for _ in range(4)]
        assert_batch_matches_reference(inst100, 0.0, starts)

    def test_empty_cluster(self):
        inst = Instance(demand_xy=[[1, 1], [1, 2], [2, 1]], weights=[1, 2, 1],
                        obnoxious_xy=[[9, 9]], box=BoundingBox(0, 0, 10, 10))
        starts = [[[1.0, 1.5], [8.0, 1.0]], [[8.0, 1.0], [1.5, 1.5]], [[1, 1], [2, 2]]]
        sols = assert_batch_matches_reference(inst, 0.5, starts)
        assert np.array_equal(sols[0].facilities[1], (8.0, 1.0))
        assert np.array_equal(sols[1].facilities[0], (8.0, 1.0))

    def test_duplicate_starts_first_wins(self, inst100, monkeypatch):
        pts, _ = sample_feasible(inst100, 0.95, count=4, seed=11)
        sols = assert_batch_matches_reference(inst100, 0.95, [pts, pts.copy(), pts])
        assert sols[0].objective == sols[1].objective == sols[2].objective
        # multistart keeps the first of equal objectives
        tagged = [refine_mod.ContinuousSolution(np.full((3, 2), k), np.zeros(100, int),
                                                obj, [obj])
                  for k, obj in enumerate([5.0, 4.0, 4.0, 6.0])]
        monkeypatch.setattr(refine_mod, "refine_many", lambda *a, **k: tagged)
        best = multistart_random(inst100, 0.95, p=3, tries=4, seed=1)
        assert best is tagged[1]

    def test_target_on_protected_point(self):
        # a lone demand point that is itself protected: the first Weiszfeld
        # proposal lands exactly on it (u = 0.5 makes the target exact), so
        # the projection has no direction and takes +x
        inst = Instance(demand_xy=[[5, 5], [1, 1], [9, 2]], weights=[2, 1, 1],
                        obnoxious_xy=[[5, 5]], box=BoundingBox(0, 0, 10, 10))
        starts = [[[5, 9], [1, 3], [9, 3]], [[5, 1], [1, 2], [9, 5]], [[5, 9], [2, 2], [8, 2]]]
        hits = []
        sols = assert_batch_matches_reference(inst, 1.5, starts, hits)
        assert sum(hits) >= 2
        # the +x side of the exclusion circle, to within the feasibility tolerance
        assert np.allclose(sols[0].facilities[0], (6.5, 5.0), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_multistart_matches_sequential_loop(self, inst100, seed):
        fac, c, obj, trace = reference_multistart(inst100, 0.95, 3, tries=6, seed=seed)
        sol = multistart_random(inst100, 0.95, p=3, tries=6, seed=seed)
        assert np.array_equal(sol.facilities, fac)
        assert np.array_equal(sol.assignment, c)
        assert sol.objective == obj
        assert sol.trace == trace


class TestRefineManyErrors:
    def test_infeasible_start_named_before_any_descent(self, inst100, monkeypatch):
        calls = []
        monkeypatch.setattr(refine_mod, "_weber_clusters", lambda *a: calls.append(1))
        good, _ = sample_feasible(inst100, 1.0, count=2, seed=3)
        bad = np.array([good[0], inst100.obnoxious_xy[0]])
        with pytest.raises(InfeasibleStartError, match="start 1: facility 1"):
            refine_many(inst100, 1.0, [good, bad, good])
        # a start that is not (p, 2) like start 0
        with pytest.raises(InfeasibleStartError, match=r"^start 2 has shape \(1, 2\), not \(2, 2\)$"):
            refine_many(inst100, 1.0, [good, good, good[:1], bad[:1]])
        wide = np.column_stack([good, [0.0, 0.0]])
        with pytest.raises(InfeasibleStartError, match=r"^start 1 has shape \(2, 3\), not \(2, 2\)$"):
            refine_many(inst100, 1.0, [good, wide])
        # a start that is no array at all: ragged, first or later
        with pytest.raises(InfeasibleStartError, match=r"^start 0 is not an array of points"):
            refine_many(voromedian.generate(30), 0.0, [[[1, 2], [3]]])
        with pytest.raises(InfeasibleStartError, match=r"^start 1 is not an array of points"):
            refine_many(inst100, 1.0, [good, [good[0], [3.0]], good])
        assert calls == []

    @pytest.mark.parametrize("dmin", [0.0, 1.0])
    def test_non_finite_start_named_before_any_descent(self, inst100, monkeypatch, dmin):
        calls = []
        monkeypatch.setattr(refine_mod, "_weber_clusters", lambda *a: calls.append(1))
        good, _ = sample_feasible(inst100, 1.0, count=2, seed=3)
        for bad in ([np.nan, 1.0], [1.0, np.inf]):
            with pytest.raises(InfeasibleStartError, match="start 1: facility 0 .* not finite"):
                refine_many(inst100, dmin, [good, [bad, good[1]]])
        with pytest.raises(InfeasibleStartError, match="start 0: facility 0"):
            refine(inst100, dmin, [[np.nan, 1], [1, 1]])
        assert calls == []

    def test_empty_batch(self, inst100):
        assert refine_many(inst100, 1.0, []) == []

    @pytest.mark.parametrize("dmin", [float("nan"), -1.0])
    def test_bad_dmin_rejected_before_any_descent(self, inst100, monkeypatch, dmin):
        calls = []
        monkeypatch.setattr(refine_mod, "_weber_clusters", lambda *a: calls.append(1))
        with pytest.raises(ValueError, match=r"^dmin must be >= 0$"):
            refine(inst100, dmin, inst100.demand_xy[:3])
        with pytest.raises(ValueError, match=r"^dmin must be >= 0$"):
            refine_many(inst100, dmin, [inst100.demand_xy[:3]] * 2)
        assert calls == []


def descend_both(instance, dmin, start, max_iter):
    """One cluster set from `start`, descended by the ladder and by the
    one-halving-per-pass reference; the ladder's counts come too. Each
    facility's proposals must be the reference's."""
    x, w = instance.demand_xy, instance.weights
    c, _ = assign(start, instance)
    counts = np.zeros((3, len(start)), dtype=int)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine_mod, "MAX_WEBER_ITER", max_iter)
        got = _weber_clusters(x, w, c, start, instance, dmin, counts)
    proposals = np.zeros(len(start), dtype=int)
    want = reference_weber_clusters(x, w, c, start, instance, dmin,
                                    cKDTree(instance.obnoxious_xy), TOL_REFINE, max_iter, [],
                                    proposals)
    assert np.array_equal(counts[1], proposals)
    return got, want, counts


class TestHalvingLadder:
    """A facility whose step is rejected proposes all of its remaining
    halvings in the same pass. It must take the rung, at the proposal count,
    that the one-halving-per-pass reference takes."""

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5, 9])
    def test_cap_inside_a_ladder(self, inst1000, max_iter):
        pts, _ = sample_feasible(inst1000, 0.3, count=40, seed=7)
        for start in pts.reshape(2, 20, 2):
            got, want, (passes, proposals, _) = descend_both(inst1000, 0.3, start, max_iter)
            assert np.array_equal(got, want)
            assert proposals.max() == max_iter  # the cap cut some facility short
            if max_iter >= 3:  # a pass proposed several rungs of one facility
                assert (proposals > passes).any()

    def test_full_descent_matches_reference(self, inst1000):
        pts, _ = sample_feasible(inst1000, 0.3, count=20, seed=8)
        got, want, (passes, proposals, queries) = descend_both(inst1000, 0.3, pts, MAX_WEBER_ITER)
        assert np.array_equal(got, want)
        assert passes.sum() < proposals.sum() <= queries.sum()

    @pytest.mark.parametrize("start", [[0.5, 0.0], [0.6, 0.3], [1.0, 0.5]])
    def test_facility_exhausts_its_halvings(self, start):
        # every start ends on a point no halved step improves, and gives
        # up after MAX_HALVINGS rejected proposals in its last pass
        got, want, (passes, proposals, _) = descend_both(
            blocked_pair_instance(), 0.5, np.array([start]), MAX_WEBER_ITER)
        assert np.array_equal(got, want)
        assert cluster_cost([[0, 0], [2, 0]], [1, 1], got[0]) == pytest.approx(2.0)
        assert proposals[0] - passes[0] == MAX_HALVINGS - 1
        if start == [0.5, 0.0]:  # already optimal: one pass of rejections
            assert (passes[0], proposals[0]) == (1, MAX_HALVINGS)

    def test_unconstrained_ladder_matches_reference(self, inst100):
        # no projection loop at D = 0, but a rejected step still tries its
        # halvings in the same pass
        start, _ = sample_feasible(inst100, 0.0, count=15, seed=1)
        got, want, (passes, proposals, queries) = descend_both(
            inst100, 0.0, start, MAX_WEBER_ITER)
        assert np.array_equal(got, want)
        assert (proposals > passes).any()
        assert not queries.any()


class TestRefineStats:
    def test_counts_of_one_start(self, inst1000):
        start, _ = sample_feasible(inst1000, 0.3, count=20, seed=9)
        sol = refine(inst1000, 0.3, start)
        stats = sol.stats
        assert set(stats) == {"rounds", "passes", "proposals", "projected"}
        assert stats["rounds"] == len(sol.trace) - 1
        assert 0 < stats["passes"] < stats["proposals"] <= stats["projected"]

    def test_a_batch_counts_each_start_as_if_alone(self, inst100):
        pts, _ = sample_feasible(inst100, 0.95, count=12, seed=2)
        starts = list(pts.reshape(4, 3, 2))
        batch = refine_many(inst100, 0.95, starts)
        assert [s.stats for s in batch] == [refine(inst100, 0.95, s).stats for s in starts]


def two_circle_instance(*protected):
    return Instance(demand_xy=[[0, 0]], weights=[1.0], obnoxious_xy=protected,
                    box=BoundingBox(0, 0, 10, 10))


def clearance(instance, pts):
    return instance.protected_tree.query(np.atleast_2d(pts))[0]


class TestCornerStep:
    """A point that a projection pushes off circle A into circle B goes to
    the crossing of the two circles nearer to it."""

    def test_lens_point_lands_on_the_nearer_crossing(self):
        inst = two_circle_instance([4, 5], [5, 5])
        # nearest B, projected onto B's circle inside A, then to the upper crossing
        pts, feasible, queries = refine_mod._feasibility_fix(np.array([[4.6, 5.2]]), inst, 1.0)
        assert queries.tolist() == [3] and feasible.all()
        assert np.allclose(pts[0], (4.5, 5 + math.sqrt(0.75)), rtol=0, atol=1e-12)
        for center in ([4, 5], [5, 5]):
            assert np.hypot(*(pts[0] - center)) >= 1.0 - refine_mod.FEAS_TOL
        # mirrored below the centre line, the lower crossing
        pts, _, queries = refine_mod._feasibility_fix(np.array([[4.6, 4.8]]), inst, 1.0)
        assert queries.tolist() == [3]
        assert np.allclose(pts[0], (4.5, 5 - math.sqrt(0.75)), rtol=0, atol=1e-12)

    def test_circles_that_do_not_cross_project_radially(self):
        # tangent circles on a lattice 2 * dmin apart, the box edge among them
        grid = np.arange(0.0, 10.5, 1.0)
        inst = two_circle_instance(*np.array(np.meshgrid(grid, grid)).reshape(2, -1).T)
        pts = np.random.default_rng(4).uniform(-0.5, 10.5, size=(2000, 2))
        got, feasible, _ = refine_mod._feasibility_fix(pts, inst, 0.5)
        tree = cKDTree(inst.obnoxious_xy)
        want, want_feasible = reference_feasibility_fix(pts, inst, 0.5, tree, [], corners=False)
        assert np.array_equal(got, want)
        assert np.array_equal(feasible, want_feasible)
        assert (clearance(inst, inst.box.clamp(pts)) < 0.5).sum() > 1000

    def test_crossing_inside_a_third_circle_keeps_projecting(self):
        inst = two_circle_instance([4, 5], [5, 5], [4.5, 6.2])
        pts, feasible, queries = refine_mod._feasibility_fix(np.array([[4.6, 5.2]]), inst, 1.0)
        assert queries[0] > 3
        assert feasible[0] == (clearance(inst, pts)[0] >= 1.0 - refine_mod.FEAS_TOL)
        # a crowd of overlapping circles: every flag is a fresh query's answer
        rng = np.random.default_rng(5)
        crowd = two_circle_instance(*rng.uniform(3, 7, size=(12, 2)))
        pts, feasible, queries = refine_mod._feasibility_fix(
            rng.uniform(2, 8, size=(3000, 2)), crowd, 1.2)
        assert np.array_equal(feasible, clearance(crowd, pts) >= 1.2 - refine_mod.FEAS_TOL)
        assert (queries > 3).any() and feasible.any()

    def test_random_baseline_batch_queries(self, inst1000, monkeypatch):
        # the 10-start n=1000 batch took 429,914 clearance queries with
        # radial projections only
        batch = []
        many = refine_mod.refine_many
        monkeypatch.setattr(refine_mod, "refine_many", lambda *a: batch.extend(many(*a)) or batch)
        multistart_random(inst1000, 0.3, 20, tries=10, seed=1)
        assert len(batch) == 10
        assert sum(s.stats["projected"] for s in batch) <= 250_000
