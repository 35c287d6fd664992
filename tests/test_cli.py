import json

import pytest

import voromedian.discrete as discrete
from voromedian.cli import main
from voromedian.frontier import solve_one
from voromedian.instances import read_instance

# instance files whose protected points admit no Voronoi diagram: all
# collinear, two coinciding, none at all
DEGENERATE_INSTANCES = {
    "collinear": "box 0 0 10 10\n1 3\n5 5 1\n1 1\n2 2\n3 3\n",
    "duplicate": "box 0 0 10 10\n1 3\n5 5 1\n1 1\n4 7\n1 1\n",
    "no-protected": "box 0 0 10 10\n2 0\n5 5 1\n2 3 2\n",
}


@pytest.fixture(scope="module")
def inst_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "inst100.txt"
    assert main(["generate", "--n", "100", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_regeneration_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["generate", "--n", "25", "--out", str(a)]) == 0
        assert main(["generate", "--n", "25", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_first_point(self, inst_file):
        row = inst_file.read_text().splitlines()[2].split()
        assert float(row[0]) == 0.0097 and float(row[1]) == 0.0367

    def test_n_zero_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n", "0", "--out", str(tmp_path / "x.txt")])
        assert exc.value.code == 2

    def test_n_too_large_usage_error(self, tmp_path):
        assert main(["generate", "--n", "1001", "--out", str(tmp_path / "x.txt")]) == 2


class TestCandidates:
    def test_benchmark_count(self, inst_file, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["candidates", "--instance", str(inst_file), "--dmin", "0.95",
                     "--out", str(out)]) == 0
        assert "m=50" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 51

    def test_huge_dmin_empty_but_ok(self, inst_file, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["candidates", "--instance", str(inst_file), "--dmin", "99",
                     "--out", str(out)]) == 0
        assert "m=0" in capsys.readouterr().out
        assert out.read_text() == "x,y,d_nearest\n"

    def test_malformed_instance_io_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an instance\n")
        assert main(["candidates", "--instance", str(bad), "--dmin", "1",
                     "--out", str(tmp_path / "c.csv")]) == 4

    def test_missing_instance_io_error(self, tmp_path):
        assert main(["candidates", "--instance", str(tmp_path / "none.txt"),
                     "--dmin", "1", "--out", str(tmp_path / "c.csv")]) == 4

    def test_negative_dmin_usage_error(self, inst_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["candidates", "--instance", str(inst_file), "--dmin", "-1",
                  "--out", str(tmp_path / "c.csv")])
        assert exc.value.code == 2


class TestSolve:
    def test_exact_benchmark_pair(self, inst_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", "--instance", str(inst_file), "--dmin", "0.95",
                     "--p", "2", "--mode", "exact", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["discrete"]["objective"] == pytest.approx(293.66, abs=0.005)
        assert report["discrete"]["proven"] is True
        assert report["refined"]["objective"] <= report["discrete"]["objective"]
        assert len(report["refined"]["facilities"]) == 2
        stdout = capsys.readouterr().out
        assert "293.66" in stdout

    def test_p_larger_than_m_infeasible(self, inst_file, tmp_path):
        assert main(["solve", "--instance", str(inst_file), "--dmin", "1.6",
                     "--p", "10", "--out", str(tmp_path / "s.json")]) == 3

    def test_unconstrained_mode(self, inst_file, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["solve", "--instance", str(inst_file), "--dmin", "0",
                     "--p", "2", "--starts", "3", "--out", str(out)]) == 0
        assert "unconstrained" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["discrete"] is None
        assert report["refined"]["objective"] > 0

    def test_exact_without_proof_exit_code(self, inst_file, tmp_path, monkeypatch):
        # a 10-node budget cannot close the search for 10 of 50 candidates
        monkeypatch.setattr(discrete, "NODE_BUDGET", 10)
        code = main(["solve", "--instance", str(inst_file), "--dmin", "0.95",
                     "--p", "10", "--mode", "exact", "--out", str(tmp_path / "s.json")])
        assert code == 5
        report = json.loads((tmp_path / "s.json").read_text())
        assert report["discrete"]["proven"] is False

    def test_negative_seed_usage_error(self, inst_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(inst_file), "--dmin", "0.95", "--p", "2",
                  "--seed", "-1", "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 2

    def test_deterministic_given_seed(self, inst_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["solve", "--instance", str(inst_file), "--dmin", "1.1",
                  "--p", "3", "--starts", "5", "--seed", "9", "--out", str(out)])
        assert json.loads(a.read_text()) == json.loads(b.read_text())


    @pytest.mark.parametrize("dmin, p, mode", [("0.95", 2, "exact"), ("1.1", 3, "heuristic")])
    def test_report_is_the_solve_one_record(self, inst_file, tmp_path, dmin, p, mode):
        out = tmp_path / "s.json"
        main(["solve", "--instance", str(inst_file), "--dmin", dmin, "--p", str(p),
              "--mode", mode, "--starts", "7", "--seed", "4", "--out", str(out)])
        report = json.loads(out.read_text())
        rec = solve_one(read_instance(inst_file), p, float(dmin), mode=mode, starts=7,
                        seed=4)
        assert report["m"] == rec.candidate_count
        assert report["discrete"] == {
            "objective": rec.discrete.objective,
            "selected": list(rec.discrete.selected),
            "sites": rec.discrete.sites.tolist(),
            "proven": rec.discrete.proven,
            "stats": rec.discrete.stats,
        }
        assert report["refined"] == {
            "objective": rec.objective,
            "facilities": rec.facilities.tolist(),
            "assignment": rec.refined.assignment.tolist(),
            "trace": rec.refined.trace,
            "stats": rec.refined.stats,
        }
        assert set(rec.refined.stats) == {"rounds", "passes", "proposals", "projected"}

    def test_unconstrained_report_is_the_solve_one_record(self, inst_file, tmp_path):
        out = tmp_path / "s.json"
        main(["solve", "--instance", str(inst_file), "--dmin", "0", "--p", "2",
              "--starts", "5", "--seed", "3", "--out", str(out)])
        refined = json.loads(out.read_text())["refined"]
        rec = solve_one(read_instance(inst_file), 2, 0.0, seed=3, starts=5)
        assert refined["objective"] == rec.objective
        assert refined["facilities"] == rec.facilities.tolist()
        assert refined["assignment"] == rec.refined.assignment.tolist()
        assert refined["trace"] == rec.refined.trace
        assert refined["stats"] == rec.refined.stats
        assert refined["stats"]["projected"] == 0  # no clearance to query at D = 0

    @pytest.mark.parametrize("dmin", ["nan", "inf"])
    def test_non_finite_dmin_usage_error(self, inst_file, tmp_path, dmin):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(inst_file), "--dmin", dmin,
                  "--p", "2", "--out", str(tmp_path / "s.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", [
        "box 0 0 10 10\n2 3\n5 5 nan\n2 3 1\n1 1\n4 7\n8 2\n",
        "box 0 0 10 10\n2 3\n5 5 inf\n2 3 1\n1 1\n4 7\n8 2\n",
        "box 0 0 inf 10\n2 3\n5 5 1\n2 3 1\n1 1\n4 7\n8 2\n",
        "box 0 0 10 10\nnan 3\n5 5 1\n2 3 1\n1 1\n4 7\n8 2\n",
        "box 0 0 10 10\n2 inf\n5 5 1\n2 3 1\n1 1\n4 7\n8 2\n",
    ], ids=["nan-weight", "inf-weight", "inf-box", "nan-count", "inf-count"])
    def test_non_finite_instance_io_error(self, tmp_path, capsys, text):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        assert main(["solve", "--instance", str(path), "--dmin", "0.5", "--p", "1",
                     "--out", str(tmp_path / "s.json")]) == 4
        assert capsys.readouterr().err.startswith("error: cannot parse instance:")


class TestDegenerateInstances:
    @pytest.mark.parametrize("kind", sorted(DEGENERATE_INSTANCES))
    @pytest.mark.parametrize("command", [
        ["candidates", "--dmin", "0.5"],
        ["solve", "--dmin", "0.5", "--p", "1"],
    ], ids=["candidates", "solve"])
    def test_named_error_exit_code(self, tmp_path, capsys, kind, command):
        path = tmp_path / f"{kind}.txt"
        path.write_text(DEGENERATE_INSTANCES[kind])
        code = main([command[0], "--instance", str(path), *command[1:],
                     "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: degenerate instance:")


class TestFrontier:
    def test_sweep_outputs(self, inst_file, tmp_path, capsys):
        csv, svg = tmp_path / "f.csv", tmp_path / "f.svg"
        code = main(["frontier", "--instance", str(inst_file), "--p", "3",
                     "--grid-max", "1.5", "--grid-steps", "3",
                     "--out-csv", str(csv), "--out-svg", str(svg),
                     "--workers", "1", "--starts", "20"])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 5  # header + 4 grid points
        body = svg.read_text()
        assert body.startswith("<svg") and "polyline" in body

    def test_single_point_grid(self, inst_file, tmp_path):
        csv, svg = tmp_path / "f.csv", tmp_path / "f.svg"
        code = main(["frontier", "--instance", str(inst_file), "--p", "2",
                     "--grid-max", "1.0", "--grid-steps", "0",
                     "--out-csv", str(csv), "--out-svg", str(svg),
                     "--workers", "1", "--starts", "3"])
        assert code == 0
        assert len(csv.read_text().splitlines()) == 2

    def test_zero_point_matches_solve(self, inst_file, tmp_path):
        # --starts sets the unconstrained tries at D = 0 in both commands
        csv, svg, out = tmp_path / "f.csv", tmp_path / "f.svg", tmp_path / "s.json"
        assert main(["frontier", "--instance", str(inst_file), "--p", "2",
                     "--grid-steps", "0", "--out-csv", str(csv), "--out-svg", str(svg),
                     "--workers", "1", "--starts", "3", "--seed", "3"]) == 0
        assert main(["solve", "--instance", str(inst_file), "--dmin", "0", "--p", "2",
                     "--starts", "3", "--seed", "3", "--out", str(out)]) == 0
        row = csv.read_text().splitlines()[1].split(",")
        assert float(row[1]) == json.loads(out.read_text())["refined"]["objective"]

    def test_negative_seed_usage_error(self, inst_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frontier", "--instance", str(inst_file), "--p", "2", "--seed", "-5",
                  "--out-csv", str(tmp_path / "f.csv"), "--out-svg", str(tmp_path / "f.svg")])
        assert exc.value.code == 2

    def test_bad_grid_max_usage_error(self, inst_file, tmp_path):
        assert main(["frontier", "--instance", str(inst_file), "--p", "2",
                     "--grid-max", "-1", "--grid-steps", "3",
                     "--out-csv", str(tmp_path / "f.csv"),
                     "--out-svg", str(tmp_path / "f.svg")]) == 2

    @pytest.mark.parametrize("grid_max", ["nan", "inf"])
    def test_non_finite_grid_max_usage_error(self, inst_file, tmp_path, grid_max):
        csv = tmp_path / "f.csv"
        assert main(["frontier", "--instance", str(inst_file), "--p", "2",
                     "--grid-max", grid_max, "--grid-steps", "3",
                     "--out-csv", str(csv), "--out-svg", str(tmp_path / "f.svg")]) == 2
        assert not csv.exists()


class TestBaseline:
    def test_comparison_report(self, inst_file, tmp_path, capsys):
        out = tmp_path / "b.json"
        code = main(["baseline", "--instance", str(inst_file), "--dmin", "0.95",
                     "--p", "2", "--tries", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        gap = (report["random_multistart_objective"]
               - report["candidate_seeded_objective"]) / report["candidate_seeded_objective"]
        assert report["gap_fraction"] == pytest.approx(gap)
        assert "gap:" in capsys.readouterr().out

    def test_report_carries_the_work_of_both_sides(self, inst_file, tmp_path):
        base, sol = tmp_path / "b.json", tmp_path / "s.json"
        assert main(["baseline", "--instance", str(inst_file), "--dmin", "0.95", "--p", "3",
                     "--tries", "4", "--seed", "2", "--out", str(base)]) == 0
        assert main(["solve", "--instance", str(inst_file), "--dmin", "0.95", "--p", "3",
                     "--seed", "2", "--out", str(sol)]) == 0
        report, solved = json.loads(base.read_text()), json.loads(sol.read_text())
        assert report["candidate_seeded_stats"] == {
            "discrete": solved["discrete"]["stats"], "refined": solved["refined"]["stats"]}
        random_stats = report["random_multistart_stats"]
        assert set(random_stats) == {"rounds", "passes", "proposals", "projected"}
        assert random_stats["projected"] > 0
        assert report["candidate_seeded_stats"]["refined"]["projected"] > 0

    def test_zero_tries_usage_error(self, inst_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--instance", str(inst_file), "--dmin", "0.95",
                  "--p", "2", "--tries", "0", "--out", str(tmp_path / "b.json")])
        assert exc.value.code == 2

    def test_infeasible_clearance(self, inst_file, tmp_path):
        assert main(["baseline", "--instance", str(inst_file), "--dmin", "9",
                     "--p", "2", "--tries", "5", "--out", str(tmp_path / "b.json")]) == 3

    def test_negative_seed_usage_error(self, inst_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--instance", str(inst_file), "--dmin", "0.95", "--p", "2",
                  "--tries", "5", "--seed", "-1", "--out", str(tmp_path / "b.json")])
        assert exc.value.code == 2

    def test_zero_seeded_objective_has_no_gap(self, tmp_path, capsys):
        # p = n puts a facility on every demand point: the seeded cost is 0
        inst, out = tmp_path / "inst30.txt", tmp_path / "b.json"
        assert main(["generate", "--n", "30", "--out", str(inst)]) == 0
        assert main(["baseline", "--instance", str(inst), "--dmin", "0", "--p", "30",
                     "--tries", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["candidate_seeded_objective"] == 0.0
        assert report["gap_fraction"] is None
        stdout = capsys.readouterr().out.splitlines()
        assert "gap: undefined (seeded objective is 0)" in stdout
        assert stdout[-1] == f"wrote {out}"

    @pytest.mark.parametrize("dmin, tries", [("0", "5"), ("0.95", "5")])
    def test_seeded_side_is_solve(self, inst_file, tmp_path, dmin, tries):
        base, sol = tmp_path / "b.json", tmp_path / "s.json"
        assert main(["baseline", "--instance", str(inst_file), "--dmin", dmin, "--p", "3",
                     "--tries", tries, "--seed", "2", "--out", str(base)]) == 0
        assert main(["solve", "--instance", str(inst_file), "--dmin", dmin, "--p", "3",
                     "--seed", "2", "--out", str(sol)]) == 0
        seeded = json.loads(base.read_text())
        refined = json.loads(sol.read_text())["refined"]
        assert seeded["candidate_seeded_objective"] == refined["objective"]
        assert seeded["candidate_seeded_facilities"] == refined["facilities"]
