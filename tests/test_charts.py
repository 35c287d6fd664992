import re
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from voromedian.charts import _ticks, write_frontier_chart
from voromedian.frontier import FrontierRecord

P = 3
# solved (objective) or gap (None) per clearance: a run of three, an
# interior gap, an isolated solved point, a run of two, then trailing gaps
OBJECTIVES = [100.0, 104.0, 111.0, None, 120.0, None, 131.0, 150.0, None, None]


def _records():
    return [
        FrontierRecord(
            dmin=0.1 * k, objective=obj, candidate_count=0, proven=False,
            facilities=None if obj is None else np.zeros((P, 2)),
        )
        for k, obj in enumerate(OBJECTIVES)
    ]


@pytest.fixture(scope="module")
def svg(tmp_path_factory):
    path = tmp_path_factory.mktemp("chart") / "f.svg"
    write_frontier_chart(_records(), path)
    return path.read_text()


def _circles(svg):
    return [f"{x},{y}" for x, y in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)]


def test_one_circle_per_solved_point(svg):
    circles = _circles(svg)
    assert len(circles) == sum(obj is not None for obj in OBJECTIVES)
    xs = [float(c.split(",")[0]) for c in circles]
    ys = [float(c.split(",")[1]) for c in circles]
    assert xs == sorted(xs)  # in clearance order
    assert ys == sorted(ys, reverse=True)  # a larger objective is drawn higher


def test_one_polyline_per_run_of_solved_points(svg):
    polylines = [pts.split() for pts in re.findall(r'<polyline [^>]*points="([^"]*)"', svg)]
    circles = iter(_circles(svg))
    runs = [[next(circles) for _ in group]
            for solved, group in groupby(OBJECTIVES, key=lambda obj: obj is not None)
            if solved]
    assert [len(run) for run in runs] == [3, 1, 2]
    assert polylines == [run for run in runs if len(run) > 1]


def test_title_and_axis_labels(svg):
    assert f">efficient frontier, p={P}</text>" in svg
    assert ">minimum clearance D</text>" in svg
    assert ">objective</text>" in svg


# Spans of a few ulps: a tick step below the float spacing used to leave
# the tick loop adding a step that rounds away, forever.
ULP_SPANS = [(1.0, float(np.nextafter(1.0, 2.0))), (863.0, 863.0 + 1e-13)]


@pytest.mark.parametrize("lo, hi", ULP_SPANS)
def test_ticks_of_a_span_of_a_few_ulps(lo, hi):
    assert _ticks(lo, hi) == [lo]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_ticks_finish_with_at_most_target_plus_two(lo, hi):
    assume(lo < hi)
    ticks = _ticks(lo, hi)
    assert 1 <= len(ticks) <= 6 + 2
    assert ticks == sorted(ticks)


def test_chart_of_clearances_and_objectives_a_few_ulps_apart(tmp_path):
    (x0, x1), (y0, y1) = ULP_SPANS
    records = [
        FrontierRecord(dmin=x, objective=y, candidate_count=0, proven=False,
                       facilities=np.zeros((P, 2)))
        for x, y in ((x0, y0), (x1, y1))
    ]
    path = tmp_path / "f.svg"
    write_frontier_chart(records, path)
    svg = path.read_text()
    assert len(_circles(svg)) == 2
    tick_labels = re.findall(r'text-anchor="(?:middle|end)">([^<]+)</text>', svg)
    assert {"1", "863"} <= set(tick_labels)
