import importlib
import math

import numpy as np
import pytest

from voromedian.candidates import nearest_obnoxious
from voromedian.geometry import BoundingBox
from voromedian.instances import Instance
from voromedian.refine import (
    InfeasibleStartError,
    NoFeasibleSampleError,
    RefineMonotonicityError,
    assign,
    constrained_weber,
    multistart_random,
    refine,
)


def blocked_pair_instance():
    """Two unit demands on the x-axis with a protected point between them."""
    return Instance(
        demand_xy=[[0, 0], [2, 0]], weights=[1, 1], obnoxious_xy=[[1, 0]],
        box=BoundingBox(-5, -5, 5, 5),
    )


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
        y = constrained_weber([[2, 3]], [1.0], start=[4.0, 4.0], instance=inst, dmin=1.0)
        assert np.allclose(y, (2, 3), atol=1e-9)

    def test_demand_point_is_protected(self):
        # the unconstrained optimum sits on the protected point; the result
        # must land on its exclusion circle, cost = dmin * weight
        inst = Instance(demand_xy=[[5, 5]], weights=[2.0], obnoxious_xy=[[5, 5]],
                        box=BoundingBox(0, 0, 10, 10))
        y = constrained_weber([[5, 5]], [2.0], start=[5.0, 8.0], instance=inst, dmin=1.5)
        assert nearest_obnoxious(y, inst) == pytest.approx(1.5, abs=1e-9)
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
            y = constrained_weber(xy, w, start=start, instance=inst, dmin=dmin)
            assert nearest_obnoxious(y, inst) >= dmin - 1e-9
            assert cluster_cost(xy, w, y) >= oracle - 1e-9
            assert cluster_cost(xy, w, y) <= cluster_cost(xy, w, start) + 1e-12
            assert cluster_cost(xy, w, y) == pytest.approx(oracle, abs=1e-6)

    def test_unconstrained_reaches_stationary_point(self):
        """First-order check via central finite differences, away from
        demand coincidence (the objective is non-smooth at demand points
        and ill-conditioned right next to them)."""
        rng = np.random.default_rng(14)
        inst_box = BoundingBox(0, 0, 10, 10)
        checked = 0
        for trial in range(6):
            xy = rng.uniform(1, 9, size=(10, 2))
            w = rng.uniform(0.5, 2.0, size=10)
            inst = Instance(demand_xy=xy, weights=w, obnoxious_xy=[], box=inst_box)
            y = constrained_weber(xy, w, start=xy.mean(axis=0), instance=inst,
                                  dmin=0.0, tol=1e-15, max_iter=20000)
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
        y = constrained_weber(xy, w, start=[0.0, 0.0], instance=inst, dmin=0.0)
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
            assert nearest_obnoxious(f, inst100) >= 1.0 - 1e-9
        assert sol.feasible

    def test_infeasible_start_rejected(self, inst100):
        with pytest.raises(InfeasibleStartError):
            refine(inst100, 1.0, [inst100.demand_xy[0]])

    def test_objective_increase_raises(self, monkeypatch):
        inst = Instance(demand_xy=[[1, 1], [9, 9]], weights=[1, 1],
                        obnoxious_xy=[[5, 5]], box=BoundingBox(0, 0, 10, 10))
        # a descent step that moves every facility farther from its demand
        # the package re-exports the function `refine` under the module's name
        refine_mod = importlib.import_module("voromedian.refine")
        monkeypatch.setattr(refine_mod, "_weber_clusters",
                            lambda x, w, c, fac, *args: fac + 0.5)
        with pytest.raises(RefineMonotonicityError, match="objective rose"):
            refine(inst, 1.0, [[1, 1], [9, 9]])

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
            assert nearest_obnoxious(f, inst100) >= 0.95 - 1e-9

    def test_deterministic(self, inst100):
        a = multistart_random(inst100, 0.95, p=3, tries=3, seed=5)
        b = multistart_random(inst100, 0.95, p=3, tries=3, seed=5)
        assert a.objective == b.objective
        assert np.array_equal(a.facilities, b.facilities)

    def test_no_feasible_sample(self, inst100):
        with pytest.raises(NoFeasibleSampleError):
            multistart_random(inst100, 50.0, p=2, tries=1, seed=1,
                              pool_attempts=2000)

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
