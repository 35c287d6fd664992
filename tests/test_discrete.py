import inspect
import math

import numpy as np
import pytest

import voromedian.discrete as discrete
from voromedian.candidates import CandidateSite, feasible_candidates
from voromedian.discrete import (
    InfeasibleCardinalityError,
    build_matrix,
    evaluate,
    solve_exact,
    solve_interchange,
)
from voromedian.geometry import BoundingBox
from voromedian.instances import Instance

from conftest import brute_force_pmedian


def site(x, y):
    return CandidateSite(location=(float(x), float(y)), d_nearest=0.0)


class TestBuildMatrix:
    def test_three_four_five(self):
        inst = Instance(demand_xy=[[0, 0]], weights=[1.0], obnoxious_xy=[[0, 0]],
                        box=BoundingBox(-10, -10, 10, 10))
        assert build_matrix(inst, [site(3, 4)])[0, 0] == pytest.approx(5.0)

    def test_coincident_entry_zero(self):
        inst = Instance(demand_xy=[[2, 2]], weights=[1.0], obnoxious_xy=[[0, 0]],
                        box=BoundingBox(-10, -10, 10, 10))
        assert build_matrix(inst, [site(2, 2)])[0, 0] == 0.0

    def test_row_sums_match_independent_recomputation(self, inst100):
        cands = feasible_candidates(inst100, 0.95)
        matrix = build_matrix(inst100, cands)
        # second code path: plain math.hypot loops
        for i in range(0, 100, 17):
            x, y = inst100.demand_xy[i]
            expected = sum(math.hypot(x - c.x, y - c.y) for c in cands)
            assert matrix[i].sum() == pytest.approx(expected, rel=1e-12)


def random_problem(rng, nd, m):
    pts = rng.uniform(0, 10, size=(nd, 2))
    sites = rng.uniform(0, 10, size=(m, 2))
    w = rng.uniform(0.5, 3.0, size=nd)
    diff = pts[:, None, :] - sites[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), w


class TestSolveExact:
    def test_p_equals_m(self):
        rng = np.random.default_rng(1)
        matrix, w = random_problem(rng, 12, 5)
        sol = solve_exact(matrix, w, 5)
        assert sol.selected == (0, 1, 2, 3, 4)
        assert sol.objective == pytest.approx(float(w @ matrix.min(axis=1)))
        assert sol.proven

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(8):
            matrix, w = random_problem(rng, 10, 8)
            p = int(rng.integers(1, 5))
            ref_obj, ref_sel = brute_force_pmedian(matrix, w, p)
            sol = solve_exact(matrix, w, p)
            assert sol.objective == pytest.approx(ref_obj, rel=1e-12)
            assert sol.selected == ref_sel

    def test_infeasible_cardinality(self):
        matrix, w = random_problem(np.random.default_rng(3), 5, 3)
        with pytest.raises(InfeasibleCardinalityError):
            solve_exact(matrix, w, 4)

    def test_branch_and_bound_path(self, monkeypatch):
        # force the search path by shrinking the enumeration threshold
        rng = np.random.default_rng(4)
        matrix, w = random_problem(rng, 15, 12)
        ref_obj, ref_sel = brute_force_pmedian(matrix, w, 3)
        monkeypatch.setattr(discrete, "ENUM_LIMIT", 1)
        sol = solve_exact(matrix, w, 3)
        assert sol.proven
        assert sol.objective == pytest.approx(ref_obj, rel=1e-12)
        assert sol.selected == ref_sel

    def test_budget_exhaustion_returns_incumbent(self, monkeypatch):
        rng = np.random.default_rng(5)
        matrix, w = random_problem(rng, 20, 14)
        monkeypatch.setattr(discrete, "ENUM_LIMIT", 1)
        sol = solve_exact(matrix, w, 4, node_budget=3)
        assert not sol.proven
        assert len(sol.selected) == 4
        # incumbent is still a valid (heuristic-quality) solution
        check = evaluate(matrix, w, sol.selected)
        assert check.objective == pytest.approx(sol.objective, rel=1e-12)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(6)
        matrix, w = random_problem(rng, 15, 9)
        objs = [solve_exact(matrix, w, p).objective for p in range(1, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(7)
        matrix, w = random_problem(rng, 12, 8)
        base = solve_exact(matrix, w, 3)
        scaled = solve_exact(matrix, 4.5 * w, 3)
        assert scaled.selected == base.selected
        assert scaled.objective == pytest.approx(4.5 * base.objective, rel=1e-12)


class TestSolutionInvariants:
    def test_assignment_is_nearest_with_lowest_index_ties(self):
        matrix = np.array([[1.0, 1.0, 2.0], [3.0, 2.0, 2.0]])
        sol = evaluate(matrix, np.ones(2), (0, 1, 2))
        assert sol.assignment.tolist() == [0, 1]

    def test_objective_recomputable(self, inst100):
        cands = feasible_candidates(inst100, 0.95)
        matrix = build_matrix(inst100, cands)
        sol = solve_interchange(matrix, inst100.weights, 6, starts=10, seed=0)
        recomputed = sum(
            inst100.weights[i] * matrix[i, sol.assignment[i]] for i in range(100)
        )
        assert sol.objective == pytest.approx(recomputed, rel=1e-8)
        assert len(sol.selected) == 6


def reference_local_search(d, weights, sel, rng):
    """The closed-form vertex substitution that the incremental search
    replaced: every iteration rebuilds all swap deltas from the nearest and
    second-nearest distances. Same scan order and threshold."""
    nd, m = d.shape
    p = len(sel)
    sel = np.array(sorted(sel), dtype=int)
    if p == m:
        return sorted(int(c) for c in sel), float(weights @ d.min(axis=1))
    while True:
        sub = d[:, sel]
        if p == 1:
            pos1, d1, d2 = np.zeros(nd, dtype=int), sub[:, 0], np.full(nd, np.inf)
        else:
            part = np.argpartition(sub, 1, axis=1)[:, :2]
            dpair = sub[np.arange(nd)[:, None], part]
            swap = dpair[:, 0] > dpair[:, 1]
            part[swap] = part[swap][:, ::-1]
            dpair[swap] = dpair[swap][:, ::-1]
            pos1, d1, d2 = part[:, 0], dpair[:, 0], dpair[:, 1]
        obj = float(weights @ d1)
        closed = np.setdiff1d(np.arange(m), sel)
        dc = d[:, closed]
        gain = weights @ np.maximum(d1[:, None] - dc, 0.0)
        per_row = (np.minimum(dc, d2[:, None]) - np.minimum(dc, d1[:, None])) * weights[:, None]
        onehot = (pos1[:, None] == np.arange(p)[None, :]).astype(float)
        delta = onehot.T @ per_row - gain[None, :]
        if not (delta < -1e-9).any():
            return sorted(int(c) for c in sel), obj
        order = rng.permutation(p * len(closed))
        hit = order[np.nonzero((delta.ravel() < -1e-9)[order])[0][0]]
        r_pos, a_pos = divmod(int(hit), len(closed))
        sel = np.sort(np.concatenate([np.delete(sel, r_pos), [closed[a_pos]]]))


def tied_problem(rng):
    """Small matrix with rounded (tied) distances, duplicate columns and
    integer weights."""
    nd, m = int(rng.integers(4, 25)), int(rng.integers(3, 12))
    matrix, _ = random_problem(rng, nd, m)
    matrix = np.round(matrix, int(rng.integers(0, 2)))
    dup = rng.integers(m, size=int(rng.integers(0, 3)))
    matrix = np.hstack([matrix, matrix[:, dup]])
    return matrix, rng.integers(1, 5, size=nd).astype(float)


def assert_matches_reference(monkeypatch, matrix, w, p, starts, seed):
    with monkeypatch.context() as mp:
        mp.setattr(discrete, "_local_search", reference_local_search)
        ref = solve_interchange(matrix, w, p, starts=starts, seed=seed)
    sol = solve_interchange(matrix, w, p, starts=starts, seed=seed)
    assert sol.selected == ref.selected, (p, seed)
    assert sol.objective == ref.objective, (p, seed)
    return sol


class TestLocalSearchOracle:
    def test_tied_random_matrices(self, monkeypatch):
        rng = np.random.default_rng(20)
        for trial in range(200):
            matrix, w = tied_problem(rng)
            p = int(rng.integers(1, matrix.shape[1] + 1))
            assert_matches_reference(monkeypatch, matrix, w, p, starts=4, seed=trial)

    def test_single_descent_from_random_starts(self):
        # best-of-starts can hide a wrong descent; compare single runs too
        rng = np.random.default_rng(22)
        for trial in range(300):
            matrix, w = tied_problem(rng)
            m = matrix.shape[1]
            start = list(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            got = discrete._local_search(matrix, w, start, np.random.default_rng(trial))
            ref = reference_local_search(matrix, w, start, np.random.default_rng(trial))
            assert got[0] == ref[0], trial
            # the objective is summed as evaluate() sums it, which may differ
            # from the reference's strided sum in the last bits
            assert got[1] == evaluate(matrix, w, got[0]).objective, trial
            assert got[1] == pytest.approx(ref[1], rel=1e-14, abs=1e-12), trial

    def test_result_is_swap_local_optimum(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            matrix, w = tied_problem(rng)
            m = matrix.shape[1]
            p = int(rng.integers(1, m))
            sol = solve_interchange(matrix, w, p, starts=1, seed=trial)
            closed = sorted(set(range(m)) - set(sol.selected))
            for r in sol.selected:
                for a in closed:
                    swapped = (set(sol.selected) - {r}) | {a}
                    assert evaluate(matrix, w, swapped).objective >= sol.objective - 1e-9

    @pytest.mark.parametrize("p", [2, 5, 10, 20])
    def test_benchmark_matrices(self, monkeypatch, inst100, inst500, p):
        for inst, dmin, starts in ((inst100, 0.95, 100), (inst500, 0.42, 20)):
            matrix = build_matrix(inst, feasible_candidates(inst, dmin))
            for seed in (0, 1):
                assert_matches_reference(monkeypatch, matrix, inst.weights, p, starts, seed)


class AggregateCheckingRng:
    """Stands in for `_local_search`'s rng. Each `permutation` call comes once
    per swap iteration, after the deltas are formed; the stub then rebuilds
    gain, loss and extra from scratch for the search's current selection and
    compares them with the live arrays in the caller's frame."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.checks = 0

    def permutation(self, n):
        live = inspect.currentframe().f_back.f_locals
        d, w, cols = live["d"], live["weights"], live["cols"]
        p = len(cols)
        sub = d[:, cols]
        s1 = np.argmin(sub, axis=1)  # a tie adds 0 to loss and extra either way
        pair = np.sort(sub, axis=1)[:, :2]
        d1, d2 = pair[:, 0], pair[:, 1]
        onehot = (s1[:, None] == np.arange(p)[None, :]) * w[:, None]
        gain = w @ np.maximum(d1[:, None] - d, 0.0)
        loss = onehot.T @ (d2 - d1)
        extra = onehot.T @ np.maximum(d2[:, None] - np.maximum(d, d1[:, None]), 0.0)
        for name, rebuilt in (("gain", gain), ("loss", loss), ("extra", extra)):
            np.testing.assert_allclose(live[name], rebuilt, rtol=1e-9, atol=1e-9,
                                       err_msg=name)
        self.checks += 1
        return self.rng.permutation(n)


class TestSwapAggregates:
    def test_tied_random_matrices(self):
        rng = np.random.default_rng(23)
        checks = 0
        for trial in range(200):
            matrix, w = tied_problem(rng)
            m = matrix.shape[1]
            start = list(rng.choice(m, size=int(rng.integers(2, m)), replace=False))
            stub = AggregateCheckingRng(trial)
            got = discrete._local_search(matrix, w, start, stub)
            ref = reference_local_search(matrix, w, start, np.random.default_rng(trial))
            assert got[0] == ref[0], trial
            checks += stub.checks
        assert checks > 200

    @pytest.mark.parametrize("p", [2, 5, 20])
    def test_benchmark_matrix(self, inst100, p):
        matrix = build_matrix(inst100, feasible_candidates(inst100, 0.95))
        start = list(np.random.default_rng(p).choice(matrix.shape[1], size=p, replace=False))
        stub = AggregateCheckingRng(p)
        discrete._local_search(matrix, inst100.weights, start, stub)
        assert stub.checks > 1


class TestSolveInterchange:
    def test_single_facility_is_best_column(self, monkeypatch):
        rng = np.random.default_rng(12)
        for seed in range(10):
            matrix, w = tied_problem(rng)
            sol = assert_matches_reference(monkeypatch, matrix, w, 1, starts=3, seed=seed)
            costs = w @ matrix
            assert np.isfinite(sol.objective)
            assert sol.objective <= costs.min() + 1e-9

    def test_all_but_one_column(self, monkeypatch):
        rng = np.random.default_rng(13)
        for seed in range(10):
            matrix, w = random_problem(rng, 15, 7)
            sol = assert_matches_reference(monkeypatch, matrix, w, 6, starts=3, seed=seed)
            exact = solve_exact(matrix, w, 6)
            assert sol.objective >= exact.objective - 1e-9
            assert len(sol.selected) == 6

    def test_every_column(self, monkeypatch):
        matrix, w = tied_problem(np.random.default_rng(14))
        m = matrix.shape[1]
        sol = assert_matches_reference(monkeypatch, matrix, w, m, starts=2, seed=0)
        assert sol.selected == tuple(range(m))
        assert sol.objective == float(w @ matrix.min(axis=1))

    def test_equals_exact_when_p_is_m(self):
        rng = np.random.default_rng(8)
        matrix, w = random_problem(rng, 10, 4)
        a = solve_exact(matrix, w, 4)
        b = solve_interchange(matrix, w, 4, starts=3, seed=0)
        assert a.selected == b.selected
        assert a.objective == pytest.approx(b.objective)

    def test_matches_exact_on_benchmark(self, inst100):
        cands = feasible_candidates(inst100, 0.95)
        matrix = build_matrix(inst100, cands)
        for p in (2, 3, 4):
            exact = solve_exact(matrix, inst100.weights, p)
            heur = solve_interchange(matrix, inst100.weights, p, starts=20, seed=1)
            assert heur.objective == pytest.approx(exact.objective, rel=1e-9)

    def test_never_below_exact_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            matrix, w = random_problem(rng, 12, 9)
            p = int(rng.integers(2, 5))
            exact = solve_exact(matrix, w, p)
            heur = solve_interchange(matrix, w, p, starts=5, seed=2)
            assert heur.objective >= exact.objective - 1e-9

    def test_deterministic_given_seed(self):
        matrix, w = random_problem(np.random.default_rng(10), 30, 15)
        a = solve_interchange(matrix, w, 5, starts=7, seed=42)
        b = solve_interchange(matrix, w, 5, starts=7, seed=42)
        assert a.selected == b.selected and a.objective == b.objective

    def test_infeasible_cardinality(self):
        matrix, w = random_problem(np.random.default_rng(11), 5, 3)
        with pytest.raises(InfeasibleCardinalityError):
            solve_interchange(matrix, w, 7)
