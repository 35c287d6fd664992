import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voromedian
from voromedian.instances import (
    Instance,
    InstanceParseError,
    coordinate_pool,
    generate,
    read_instance,
    write_instance,
)
from voromedian.geometry import BoundingBox


class TestCoordinatePool:
    """Column 0 is the x stream from seed 97, column 1 the y stream from
    seed 367, each r_{k+1} = 12219 * r_k mod 100000, divided by 10000."""

    def test_starts_with_known_values(self):
        r = np.rint(coordinate_pool() * 10000).astype(int)
        assert r[:3, 0].tolist() == [97, 85243, 84217]
        assert r[:2, 1].tolist() == [367, 84373]

    def test_rows_follow_recurrence(self):
        r = np.rint(coordinate_pool() * 10000).astype(int)
        assert np.array_equal(r[1:], 12219 * r[:-1] % 100000)
        assert np.array_equal(coordinate_pool(), r / 10000.0)

    def test_values_stay_in_open_range(self):
        # a stream that hit 0 would stay there
        pool = coordinate_pool()
        assert ((pool > 0) & (pool < 10)).all()


class TestGenerate:
    def test_first_points(self):
        inst = generate(2)
        assert np.allclose(inst.demand_xy[0], (0.0097, 0.0367), atol=1e-12)
        assert np.allclose(inst.demand_xy[1], (8.5243, 8.4373), atol=1e-12)

    def test_points_distinct_and_inside(self):
        inst = generate(100)
        assert len(np.unique(inst.demand_xy, axis=0)) == 100
        assert inst.box.contains(inst.demand_xy).all()
        assert (inst.demand_xy > 0).all() and (inst.demand_xy < 10).all()

    def test_demand_equals_obnoxious_unit_weights(self):
        inst = generate(10)
        assert np.array_equal(inst.demand_xy, inst.obnoxious_xy)
        assert np.array_equal(inst.weights, np.ones(10))

    def test_prefix_property(self):
        assert np.array_equal(generate(50).demand_xy, generate(200).demand_xy[:50])

    def test_determinism(self):
        assert np.array_equal(generate(77).demand_xy, generate(77).demand_xy)

    @pytest.mark.parametrize("n", [0, 1001])
    def test_n_range(self, n):
        with pytest.raises(ValueError):
            generate(n)

    def test_pool_size(self):
        assert coordinate_pool().shape == (1000, 2)


class TestInstanceIO:
    def test_round_trip_exact(self, tmp_path, inst100):
        path = tmp_path / "inst.txt"
        write_instance(inst100, path)
        back = read_instance(path)
        assert np.array_equal(back.demand_xy, inst100.demand_xy)
        assert np.array_equal(back.weights, inst100.weights)
        assert np.array_equal(back.obnoxious_xy, inst100.obnoxious_xy)

    def test_round_trip_arbitrary_weights(self, tmp_path):
        inst = Instance(
            demand_xy=[[1.123456789012345, 2.0], [3.0, 4.0]],
            weights=[0.25, 7.5],
            obnoxious_xy=[[5.0, 5.0]],
            box=BoundingBox(0, 0, 10, 10),
        )
        path = tmp_path / "w.txt"
        write_instance(inst, path)
        back = read_instance(path)
        assert np.array_equal(back.demand_xy, inst.demand_xy)
        assert np.array_equal(back.weights, inst.weights)

    def test_zero_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("box 0 0 10 10\n2 0\n1 1 1\n2 2 0\n")
        with pytest.raises(InstanceParseError) as err:
            read_instance(path)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "bad.txt"
        path.write_text(f"box 0 0 10 10\n2 0\n1 1 1\n2 2 {weight}\n")
        with pytest.raises(InstanceParseError) as err:
            read_instance(path)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("counts", ["inf 1", "nan 1", "1 inf", "1 -inf", "1 nan"])
    def test_non_finite_count_rejected(self, tmp_path, counts):
        path = tmp_path / "bad.txt"
        path.write_text(f"box 0 0 10 10\n{counts}\n1 1 1\n2 2\n")
        with pytest.raises(InstanceParseError) as err:
            read_instance(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("header", ["box 0 0 inf 10", "box -inf 0 10 10",
                                        "box 0 nan 10 10"])
    def test_non_finite_box_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n1 0\n1 1 1\n")
        with pytest.raises(InstanceParseError) as err:
            read_instance(path)
        assert err.value.line_no == 1

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("box 0 0 10 10\n3 0\n1 1 1\n2 2 1\n")
        with pytest.raises(InstanceParseError):
            read_instance(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("1 0\n1 1 1\n")
        with pytest.raises(InstanceParseError) as err:
            read_instance(path)
        assert err.value.line_no == 1

    def test_point_outside_box(self, tmp_path):
        # the error names the line of the first row outside the box
        inside = "".join(f"{k % 9 + 0.5} 1 1\n" for k in range(8))
        cases = [
            ("box 0 0 10 10\n1 0\n11 1 1\n", 3),
            ("box 0 0 10 10\n9 1\n" + inside + "1 -1 1\n1 1\n", 11),  # demand row
            ("box 0 0 10 10\n8 2\n" + inside + "1 1\n11 1\n", 12),  # protected row
            ("box 0 0 10 10\n8 3\n" + inside + "1 1\n2 2\nnan 1\n", 13),
        ]
        for k, (text, line_no) in enumerate(cases):
            path = tmp_path / f"outside{k}.txt"
            path.write_text(text)
            with pytest.raises(InstanceParseError, match="point outside bounding box") as err:
                read_instance(path)
            assert err.value.line_no == line_no, k

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("box 0 0 10 10\n1 0\n1 oops 1\n")
        with pytest.raises(InstanceParseError) as err:
            read_instance(path)
        assert err.value.line_no == 3


class TestInstanceInvariants:
    def test_weights_positive(self):
        with pytest.raises(ValueError):
            Instance(demand_xy=[[1, 1]], weights=[-1.0], obnoxious_xy=[[2, 2]],
                     box=BoundingBox(0, 0, 10, 10))

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_weights_finite(self, weight):
        with pytest.raises(ValueError, match="finite"):
            Instance(demand_xy=[[1, 1]], weights=[weight], obnoxious_xy=[[2, 2]],
                     box=BoundingBox(0, 0, 10, 10))

    @pytest.mark.parametrize("bounds", [(0, 0, np.inf, 10), (-np.inf, 0, 10, 10),
                                        (0, np.nan, 10, 10)])
    def test_box_bounds_finite(self, bounds):
        with pytest.raises(ValueError, match="non-finite"):
            BoundingBox(*bounds)

    def test_points_inside_box(self):
        with pytest.raises(ValueError):
            Instance(demand_xy=[[11, 1]], weights=[1.0], obnoxious_xy=[],
                     box=BoundingBox(0, 0, 10, 10))

    def test_disjoint_sets_allowed(self):
        inst = Instance(demand_xy=[[1, 1]], weights=[1.0], obnoxious_xy=[[9, 9]],
                        box=BoundingBox(0, 0, 10, 10))
        assert inst.n_demand == 1 and inst.n_obnoxious == 1


def test_import_and_read_leave_scipy_optimize_unloaded(tmp_path):
    # Importing scipy.optimize takes ~0.13 s and ~10 MB of resident memory,
    # and nothing from `import voromedian` to a parsed instance needs it.
    # A fresh interpreter, because this one may have loaded it already.
    path = tmp_path / "inst.txt"
    write_instance(generate(30), path)
    code = ("import sys, voromedian\n"
            "from voromedian.instances import read_instance\n"
            f"read_instance({str(path)!r})\n"
            "sys.exit('scipy.optimize imported' if 'scipy.optimize' in sys.modules else None)")
    package_root = str(Path(voromedian.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
