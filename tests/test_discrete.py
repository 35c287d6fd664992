import inspect
import math

import numpy as np
import pytest

import voromedian.discrete as discrete
from voromedian.candidates import feasible_candidates
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


class TestBuildMatrix:
    def test_three_four_five(self):
        inst = Instance(demand_xy=[[0, 0]], weights=[1.0], obnoxious_xy=[[0, 0]],
                        box=BoundingBox(-10, -10, 10, 10))
        assert build_matrix(inst, np.array([[3.0, 4.0]]))[0, 0] == pytest.approx(5.0)

    def test_coincident_entry_zero(self):
        inst = Instance(demand_xy=[[2, 2]], weights=[1.0], obnoxious_xy=[[0, 0]],
                        box=BoundingBox(-10, -10, 10, 10))
        assert build_matrix(inst, np.array([[2.0, 2.0]]))[0, 0] == 0.0

    def test_row_sums_match_independent_recomputation(self, inst100):
        xy, _ = feasible_candidates(inst100, 0.95)
        matrix = build_matrix(inst100, xy)
        # second code path: plain math.hypot loops
        for i in range(0, 100, 17):
            x, y = inst100.demand_xy[i]
            expected = sum(math.hypot(x - cx, y - cy) for cx, cy in xy)
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

    def test_branch_and_bound_path(self):
        rng = np.random.default_rng(4)
        matrix, w = random_problem(rng, 15, 12)
        ref_obj, ref_sel = brute_force_pmedian(matrix, w, 3)
        sol = solve_exact(matrix, w, 3)
        assert sol.proven
        assert sol.objective == pytest.approx(ref_obj, rel=1e-12)
        assert sol.selected == ref_sel

    def test_budget_exhaustion_returns_incumbent(self, monkeypatch):
        rng = np.random.default_rng(5)
        matrix, w = random_problem(rng, 20, 14)
        monkeypatch.setattr(discrete, "NODE_BUDGET", 3)
        sol = solve_exact(matrix, w, 4)
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

    def test_node_count_on_benchmark_matrix(self, inst100):
        # m=50; pops 40,423 nodes. Requeueing a popped node under its gain
        # bound, instead of pruning or expanding it at once, pops 42,543
        matrix = build_matrix(inst100, feasible_candidates(inst100, 0.95)[0])
        sol = solve_exact(matrix, inst100.weights, 5)
        assert sol.proven
        assert sol.stats["nodes"] <= 41_000


class TestSolutionInvariants:
    def test_objective_recomputable(self, inst100):
        matrix = build_matrix(inst100, feasible_candidates(inst100, 0.95)[0])
        sol = solve_interchange(matrix, inst100.weights, 6, starts=10, seed=0)
        recomputed = sum(
            inst100.weights[i] * min(matrix[i, j] for j in sol.selected) for i in range(100)
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


class TestExactOracle:
    """solve_exact against the exhaustive reference at every p. The reference
    keeps the first optimal set in lexicographic order, solve_exact the first
    one it finds, so the sets are compared only where the optimum is unique:
    on continuous random data with p no larger than the number of distinct
    nearest columns (beyond that, columns that serve no row tie)."""

    def test_random_matrices_every_p(self):
        rng = np.random.default_rng(30)
        compared = 0
        for trial in range(100):
            matrix, w = random_problem(rng, int(rng.integers(3, 16)), int(rng.integers(1, 11)))
            nearest = len(set(matrix.argmin(axis=1).tolist()))
            for p in range(1, matrix.shape[1] + 1):
                ref_obj, ref_sel = brute_force_pmedian(matrix, w, p)
                sol = solve_exact(matrix, w, p)
                assert sol.proven, (trial, p)
                assert sol.objective == pytest.approx(ref_obj, rel=1e-12), (trial, p)
                if p <= nearest:
                    assert sol.selected == ref_sel, (trial, p)
                    compared += 1
        assert compared > 300

    def test_tied_matrices_every_p(self):
        rng = np.random.default_rng(31)
        for trial in range(100):
            matrix, w = tied_problem(rng)
            for p in range(1, matrix.shape[1] + 1):
                ref_obj, _ = brute_force_pmedian(matrix, w, p)
                sol = solve_exact(matrix, w, p)
                assert sol.proven, (trial, p)
                assert sol.objective == pytest.approx(ref_obj, rel=1e-12), (trial, p)


# Optima of the benchmark matrices from exhaustive enumeration of every
# p-subset: (n, D, p) -> (selected, objective)
ENUMERATED_OPTIMA = {
    (100, 0.95, 2): ((12, 44), 293.65756957409025),
    (100, 0.95, 3): ((27, 44, 45), 242.09710735161792),
    (100, 0.95, 4): ((30, 34, 44, 45), 209.54137031067268),
    (100, 0.95, 5): ((29, 30, 34, 44, 45), 187.99801017581342),
    (100, 0.95, 6): ((26, 29, 39, 44, 45, 47), 173.92568966896837),
    (100, 1.1, 15): ((1, 6, 7, 9, 10, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22),
                     184.8746814731901),
    (100, 1.3, 3): ((5, 7, 12), 284.90172188220856),
    (500, 0.42, 2): ((81, 209), 1501.0149949037232),
    (500, 0.42, 3): ((74, 89, 137), 1175.2643483583383),
    (1000, 0.3, 2): ((307, 350), 2945.7061432854116),
}


@pytest.mark.parametrize("n, dmin, p", sorted(ENUMERATED_OPTIMA))
def test_exact_matches_enumerated_benchmark_optima(request, n, dmin, p):
    inst = request.getfixturevalue(f"inst{n}")
    matrix = build_matrix(inst, feasible_candidates(inst, dmin)[0])
    selected, objective = ENUMERATED_OPTIMA[n, dmin, p]
    sol = solve_exact(matrix, inst.weights, p)  # under the default node budget
    assert sol.proven
    assert sol.selected == selected
    assert sol.objective == pytest.approx(objective, rel=1e-12)


def assert_matches_reference(monkeypatch, matrix, w, p, starts, seed):
    with monkeypatch.context() as mp:
        # the reference takes no row order: drop the fifth argument
        mp.setattr(discrete, "_local_search",
                   lambda d, w, sel, rng, row_order: reference_local_search(d, w, sel, rng))
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
            # _local_search takes p >= 2; solve_interchange answers p = 1 itself
            start = list(rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False))
            got = discrete._local_search(matrix, w, start, np.random.default_rng(trial),
                                         discrete._row_order(matrix))
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
            matrix = build_matrix(inst, feasible_candidates(inst, dmin)[0])
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
            got = discrete._local_search(matrix, w, start, stub, discrete._row_order(matrix))
            ref = reference_local_search(matrix, w, start, np.random.default_rng(trial))
            assert got[0] == ref[0], trial
            checks += stub.checks
        assert checks > 200

    @pytest.mark.parametrize("p", [2, 5, 20])
    def test_benchmark_matrix(self, inst100, p):
        assert_aggregates_hold(inst100, 0.95, p)

    def test_wide_candidate_set(self, inst500):
        # 239 candidates: each row's sorted-prefix window is far narrower than m
        assert_aggregates_hold(inst500, 0.42, 20)


def assert_aggregates_hold(inst, dmin, p):
    matrix = build_matrix(inst, feasible_candidates(inst, dmin)[0])
    start = list(np.random.default_rng(p).choice(matrix.shape[1], size=p, replace=False))
    stub = AggregateCheckingRng(p)
    discrete._local_search(matrix, inst.weights, start, stub, discrete._row_order(matrix))
    assert stub.checks > 1


def reference_greedy(d, weights, first, p):
    """The dense greedy construction that the row-update one replaced: every
    step rebuilds the whole saving array from the current distances."""
    m = d.shape[1]
    if first is None:
        first = int(np.argmin(weights @ d))
    chosen = [first]
    in_sel = np.zeros(m, dtype=bool)
    in_sel[first] = True
    cur = d[:, first].copy()
    while len(chosen) < p:
        reduction = weights @ np.maximum(cur[:, None] - d, 0.0)
        reduction[in_sel] = -1.0
        j = int(np.argmax(reduction))
        chosen.append(j)
        in_sel[j] = True
        cur = np.minimum(cur, d[:, j])
    return chosen


class TestGreedyOracle:
    def test_tied_matrices_every_p_and_first_column(self):
        # past the distinct nearest columns every reduction is exactly 0, so
        # these picks pin the zero-reduction tie rule (lowest column first)
        rng = np.random.default_rng(24)
        for trial in range(60):
            matrix, w = tied_problem(rng)
            m = matrix.shape[1]
            for p in range(2, m + 1):  # p = 1 never reaches _greedy
                for first in [None, *range(m)]:
                    got = discrete._greedy(matrix, w, first, p)
                    assert got == reference_greedy(matrix, w, first, p), (trial, p, first)

    @pytest.mark.parametrize("n, dmin, p", [(1000, 0.3, 20), (100, 0.0, 15)])
    def test_benchmark_matrices(self, request, n, dmin, p):
        inst = request.getfixturevalue(f"inst{n}")
        # D = 0 seeds from the demand x demand matrix
        xy = inst.demand_xy if dmin == 0 else feasible_candidates(inst, dmin)[0]
        matrix = build_matrix(inst, xy)
        firsts = np.random.default_rng(n).integers(matrix.shape[1], size=5).tolist()
        for first in [None, *firsts]:
            got = discrete._greedy(matrix, inst.weights, first, p)
            assert got == reference_greedy(matrix, inst.weights, first, p), first

    def test_every_column_in_dense_order(self):
        rng = np.random.default_rng(26)
        for trial in range(20):
            matrix, w = tied_problem(rng)
            m = matrix.shape[1]
            for first in (None, int(rng.integers(m))):
                got = discrete._greedy(matrix, w, first, m)
                assert got == reference_greedy(matrix, w, first, m), (trial, first)
                assert sorted(got) == list(range(m)), (trial, first)


def assert_cheapest_column(matrix, w, sol):
    assert sol.selected == (int(np.argmin(w @ matrix)),)
    assert sol.objective == pytest.approx(brute_force_pmedian(matrix, w, 1)[0], rel=1e-12)
    assert sol.proven
    assert sol.stats == {"starts": 0, "lower_bound": sol.objective, "bound_steps": 0,
                         "bound_gave_up": False}


class TestOneFacility:
    """p = 1 is answered in closed form: the cheapest column, proven, with
    no run and no bound."""

    def test_tied_random_matrices(self):
        rng = np.random.default_rng(15)
        for trial in range(300):
            matrix, w = tied_problem(rng)
            assert_cheapest_column(matrix, w, solve_interchange(matrix, w, 1, seed=trial))

    @pytest.mark.parametrize("n, dmin", [(100, 0.95), (100, 0.2), (500, 0.42), (1000, 0.3)])
    def test_benchmark_matrices(self, request, n, dmin):
        inst = request.getfixturevalue(f"inst{n}")
        matrix = build_matrix(inst, feasible_candidates(inst, dmin)[0])
        assert_cheapest_column(matrix, inst.weights, solve_interchange(matrix, inst.weights, 1))


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
        matrix = build_matrix(inst100, feasible_candidates(inst100, 0.95)[0])
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


class TestLagrangianBound:
    """The bound that stops the interchange multistart: it never exceeds the
    optimum, a proof is never wrong, and it stops early where it can."""

    def test_bound_below_brute_force_optimum(self):
        rng = np.random.default_rng(40)
        checked = 0
        for trial in range(60):
            matrix, w = (tied_problem(rng) if trial % 2 else
                         random_problem(rng, int(rng.integers(3, 16)), int(rng.integers(2, 11))))
            for p in range(1, matrix.shape[1] + 1):
                ref_obj, _ = brute_force_pmedian(matrix, w, p)
                # two starts: the bound refreshes once, after the first
                lb = solve_interchange(matrix, w, p, starts=2).stats["lower_bound"]
                assert lb <= ref_obj + discrete.PROOF_TOL * ref_obj, (trial, p)
                checked += 1
        assert checked > 300

    def test_proofs_match_exact_on_random_problems(self):
        rng = np.random.default_rng(41)
        proven = 0
        for trial in range(50):
            matrix, w = random_problem(rng, int(rng.integers(10, 40)), int(rng.integers(6, 16)))
            p = int(rng.integers(2, 6))
            sol = solve_interchange(matrix, w, p, starts=20, seed=trial)
            if sol.proven:
                exact = solve_exact(matrix, w, p)
                assert exact.proven
                gap = abs(sol.objective - exact.objective)
                assert gap <= discrete.PROOF_TOL * exact.objective, trial
                proven += 1
        assert proven >= 40

    def test_proofs_match_enumerated_benchmark_optima(self, request):
        proven = 0
        for (n, dmin, p), (_, objective) in sorted(ENUMERATED_OPTIMA.items()):
            inst = request.getfixturevalue(f"inst{n}")
            matrix = build_matrix(inst, feasible_candidates(inst, dmin)[0])
            for seed in (0, 1):
                sol = solve_interchange(matrix, inst.weights, p, starts=100, seed=seed)
                assert sol.stats["lower_bound"] <= objective * (1 + discrete.PROOF_TOL)
                if sol.proven:
                    assert abs(sol.objective - objective) <= discrete.PROOF_TOL * objective
                    proven += 1
        assert proven >= 15  # of 20

    @pytest.mark.parametrize("dmin, objective", [
        (0.2, 79.57158074083507), (0.43, 83.08321179474011),
        (0.44, 83.08321179474011), (1.0, 141.87514201948096)])
    def test_frontier_points_stop_early(self, inst100, dmin, objective):
        matrix = build_matrix(inst100, feasible_candidates(inst100, dmin)[0])
        sol = discrete.solve(matrix, inst100.weights, 15, seed=1)
        assert sol.proven
        assert sol.stats["starts"] < 100
        assert sol.objective == objective

    def test_gives_up_where_the_gap_stays_wide(self, inst1000):
        matrix = build_matrix(inst1000, feasible_candidates(inst1000, 0.3)[0])
        sol = solve_interchange(matrix, inst1000.weights, 20, starts=100, seed=1)
        assert sol.stats["bound_gave_up"] and not sol.proven
        assert sol.stats["starts"] == 100
        assert sol.stats["bound_steps"] == discrete.FIRST_STEPS
        assert sol.selected == (65, 164, 178, 246, 249, 250, 258, 263, 271, 273,
                                304, 309, 316, 347, 359, 373, 377, 378, 384, 388)
        assert sol.objective == 868.9763881767349

    def test_exact_warm_start_builds_no_bound(self, monkeypatch):
        built = []

        class Counting(discrete._LagrangianBound):
            def __init__(self, *args):
                built.append(args[2])
                super().__init__(*args)

        monkeypatch.setattr(discrete, "_LagrangianBound", Counting)
        matrix, w = random_problem(np.random.default_rng(42), 20, 12)
        sol = solve_exact(matrix, w, 3)
        assert sol.proven and sol.stats["nodes"] >= 1
        assert built == []
        assert solve_interchange(matrix, w, 3, starts=1).stats["lower_bound"] is None
        solve_interchange(matrix, w, 3, starts=2)
        assert built == [3]  # the counter sees a bound when one is built
