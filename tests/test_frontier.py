import numpy as np
import pytest

from voromedian import frontier
from voromedian.candidates import feasible_candidates
from voromedian.discrete import InfeasibleCardinalityError
from voromedian.frontier import (
    FrontierRecord,
    NoFeasibleCandidatesError,
    _repair_envelope,
    default_grid,
    solve_one,
    sweep,
    write_frontier_csv,
)


class TestSolveOne:
    def test_unconstrained_point(self, inst100):
        rec = solve_one(inst100, p=3, dmin=0.0, starts=5, seed=1)
        assert rec.dmin == 0.0
        assert rec.facilities.shape == (3, 2)
        assert rec.candidate_count == len(feasible_candidates(inst100, 0.0)[0])

    def test_constrained_point_consistency(self, inst100):
        rec = solve_one(inst100, p=3, dmin=1.2, seed=1)
        assert rec.candidate_count == len(feasible_candidates(inst100, 1.2)[0])
        for f in rec.facilities:
            assert inst100.protected_tree.query(f)[0] >= 1.2 - 1e-9
        # stored objective recomputable from the facilities
        from voromedian.refine import assign
        _, cost = assign(rec.facilities, inst100)
        assert rec.objective == pytest.approx(cost, rel=1e-8)

    def test_no_candidates_raises(self, inst100):
        with pytest.raises(NoFeasibleCandidatesError):
            solve_one(inst100, p=2, dmin=5.0)

    def test_nan_dmin_rejected(self, inst100):
        with pytest.raises(ValueError):
            solve_one(inst100, p=2, dmin=float("nan"))

    def test_too_few_candidates_raises(self, inst100):
        with pytest.raises(InfeasibleCardinalityError):
            solve_one(inst100, p=4, dmin=1.6)

    def test_refined_never_above_discrete(self, inst100):
        from voromedian.discrete import build_matrix, solve_exact
        xy, _ = feasible_candidates(inst100, 1.3)
        matrix = build_matrix(inst100, xy)
        dsol = solve_exact(matrix, inst100.weights, 3)
        rec = solve_one(inst100, p=3, dmin=1.3, mode="exact", seed=0)
        assert rec.objective <= dsol.objective + 1e-9
        assert rec.proven


class TestSweep:
    def test_single_zero_grid(self, inst100):
        recs = sweep(inst100, p=2, grid=[0.0], starts=5, seed=2)
        assert len(recs) == 1
        assert recs[0].dmin == 0.0 and recs[0].objective is not None

    def test_gap_records(self, inst100):
        recs = sweep(inst100, p=4, grid=[1.3, 1.6, 5.0], seed=2)
        assert recs[0].objective is not None
        assert recs[1].objective is None
        assert 0 < recs[1].candidate_count < 4  # too few candidates
        assert recs[2].objective is None
        assert recs[2].candidate_count == 0  # no candidates

    def test_objectives_non_decreasing_and_counts_nested(self, inst100):
        grid = [0.5, 0.8, 1.0, 1.2, 1.4]
        recs = sweep(inst100, p=3, grid=grid, seed=3)
        objs = [r.objective for r in recs if r.objective is not None]
        assert objs == sorted(objs)
        counts = [r.candidate_count for r in recs]
        assert counts == sorted(counts, reverse=True)

    def test_each_record_feasible_at_its_own_dmin(self, inst100):
        recs = sweep(inst100, p=3, grid=[0.6, 1.0, 1.3], seed=4)
        for r in recs:
            for f in r.facilities:
                assert inst100.protected_tree.query(f)[0] >= r.dmin - 1e-9

    def test_grid_validation(self, inst100):
        with pytest.raises(ValueError):
            sweep(inst100, p=2, grid=[0.5, 0.5])
        with pytest.raises(ValueError):
            sweep(inst100, p=2, grid=[-0.1, 0.5])
        for grid in ([0.5, float("nan")], [float("nan")]):
            with pytest.raises(ValueError):
                sweep(inst100, p=2, grid=grid)

    def test_parallel_matches_serial(self, inst100):
        grid = [0.9, 1.1, 1.3]
        serial = sweep(inst100, p=3, grid=grid, seed=5, workers=1)
        parallel = sweep(inst100, p=3, grid=grid, seed=5, workers=3)
        assert [r.objective for r in serial] == [r.objective for r in parallel]

    def test_workers_capped_at_grid_points(self, inst100, monkeypatch):
        requested = []

        class SerialPool:
            """Records the worker count asked for and maps in this process."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(frontier, "ProcessPoolExecutor", SerialPool)
        grid = [0.9, 1.1]
        capped = sweep(inst100, p=2, grid=grid, seed=5, workers=8)
        assert requested == [2]
        serial = sweep(inst100, p=2, grid=grid, seed=5, workers=1)
        assert [r.objective for r in capped] == [r.objective for r in serial]
        sweep(inst100, p=2, grid=[0.9], seed=5, workers=8)
        assert requested == [2]  # one point: no executor at all


class TestEnvelopeRepair:
    def rec(self, dmin, objective):
        fac = None if objective is None else np.array([[dmin, objective]])
        return FrontierRecord(dmin=dmin, objective=objective, facilities=fac,
                              candidate_count=0, proven=True)

    def test_propagates_better_high_clearance_solution(self):
        records = [self.rec(0.1, 105.0), self.rec(0.2, 101.0), self.rec(0.3, 103.0)]
        out = _repair_envelope(records)
        assert [r.objective for r in out] == [101.0, 101.0, 103.0]
        assert [r.repaired for r in out] == [True, False, False]
        # the repaired record adopted the donor's facilities
        assert np.array_equal(out[0].facilities, out[1].facilities)

    def test_monotone_input_untouched(self):
        records = [self.rec(0.1, 100.0), self.rec(0.2, 101.0)]
        out = _repair_envelope(records)
        assert [r.repaired for r in out] == [False, False]

    def test_repaired_record_keeps_its_own_proven_flag(self):
        records = [self.rec(0.1, 105.0), self.rec(0.2, 101.0), self.rec(0.3, 99.0)]
        records[0].proven = False  # heuristic solve at 0.1
        records[1].proven = True   # proven optimum at 0.2, still beaten at 0.3
        records[2].proven = False  # heuristic donor
        out = _repair_envelope(records)
        assert [r.repaired for r in out] == [True, True, False]
        assert [r.proven for r in out] == [False, True, False]
        assert [r.objective for r in out] == [99.0, 99.0, 99.0]

    def test_gaps_skipped(self):
        records = [self.rec(0.1, 105.0), self.rec(0.2, None), self.rec(0.3, 100.0)]
        out = _repair_envelope(records)
        assert out[0].objective == 100.0 and out[0].repaired
        assert out[1].objective is None


class TestOutputs:
    def test_default_grid_shape(self, inst100):
        grid = default_grid(inst100, steps=60)
        assert len(grid) == 61 and grid[0] == 0.0
        _, clearance = feasible_candidates(inst100, 0.0)
        assert grid[-1] == pytest.approx(1.2 * clearance[0])

    def test_frontier_csv_format(self, tmp_path, inst100):
        recs = sweep(inst100, p=2, grid=[1.0, 1.4, 5.0], seed=6)
        path = tmp_path / "frontier.csv"
        write_frontier_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "D,objective,m,proven,x1,y1,x2,y2"
        assert len(lines) == 4
        for line in lines[1:]:
            assert len(line.split(",")) == 8
        # gap row leaves objective and coordinates empty
        gap_fields = lines[3].split(",")
        assert gap_fields[1] == "" and gap_fields[4] == ""
