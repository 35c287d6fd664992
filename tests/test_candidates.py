import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import voromedian.candidates as candidates_mod
from voromedian.candidates import (
    EmptyObnoxiousSetError,
    Lcg64,
    candidate_vertices,
    feasible_candidates,
    nearest_obnoxious,
    sample_feasible,
    triangle_feasible_area,
    write_candidates_csv,
)
from voromedian.cli import main
from voromedian.frontier import default_grid, solve_one, sweep
from voromedian.geometry import (
    BoundingBox,
    CollinearSitesError,
    DuplicateSitesError,
    voronoi_vertices,
)
from voromedian.instances import Instance, generate, write_instance


def toy_instance():
    return Instance(
        demand_xy=[[0, 0]], weights=[1.0], obnoxious_xy=[[3, 4]],
        box=BoundingBox(-10, -10, 10, 10),
    )


class TestNearestObnoxious:
    def test_three_four_five(self):
        assert nearest_obnoxious((0, 0), toy_instance()) == 5.0

    def test_coincident_is_zero(self):
        assert nearest_obnoxious((3, 4), toy_instance()) == 0.0

    def test_empty_set_raises(self):
        inst = Instance(demand_xy=[[0, 0]], weights=[1.0], obnoxious_xy=[],
                        box=BoundingBox(-1, -1, 1, 1))
        with pytest.raises(EmptyObnoxiousSetError):
            nearest_obnoxious((0, 0), inst)

    def test_benchmark_boundary_vertex_clearance(self, inst100):
        assert nearest_obnoxious((0.0, 3.61453), inst100) == pytest.approx(
            1.66317, abs=5e-5
        )


class TestFeasibleCandidates:
    def test_large_dmin_empty(self, inst100):
        xy, clearance = feasible_candidates(inst100, 1.7)
        assert xy.shape == (0, 2) and clearance.shape == (0,)

    def test_zero_dmin_returns_every_vertex(self, inst100):
        verts = voronoi_vertices(inst100.obnoxious_xy, inst100.box)
        assert len(feasible_candidates(inst100, 0.0)[0]) == len(verts)

    def test_monotone_nesting(self, inst100):
        small = set(map(tuple, feasible_candidates(inst100, 0.8)[0].tolist()))
        large = set(map(tuple, feasible_candidates(inst100, 1.2)[0].tolist()))
        assert large <= small

    def test_sorted_descending_with_xy_ties(self, inst100):
        xy, clearance = feasible_candidates(inst100, 0.5)
        keys = [(-c, x, y) for (x, y), c in zip(xy.tolist(), clearance.tolist())]
        assert keys == sorted(keys)

    def test_clearances_are_exact(self, inst100):
        for q, c in zip(*feasible_candidates(inst100, 1.2)):
            assert c == pytest.approx(nearest_obnoxious(q, inst100), abs=1e-9)

    def test_negative_dmin_rejected(self, inst100):
        for dmin in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                feasible_candidates(inst100, dmin)

    def test_csv_export(self, tmp_path, inst100):
        xy, clearance = feasible_candidates(inst100, 1.3)
        path = tmp_path / "c.csv"
        write_candidates_csv(xy, clearance, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,d_nearest"
        assert len(lines) == len(xy) + 1
        x, y, d = map(float, lines[1].split(","))
        assert (x, y, d) == (xy[0, 0], xy[0, 1], clearance[0])


class TestTriangleFeasibleArea:
    def test_tangent_circles_zero(self):
        r = triangle_feasible_area(1.0, 1.0)
        assert r.theta == 0.0
        assert r.area_exact == 0.0 and r.area_approx == 0.0
        assert r.dmax_exact == 0.0 and r.dmax_approx == 0.0

    def test_non_intersecting_marker(self):
        r = triangle_feasible_area(1.0, 2.0 / math.sqrt(3.0) + 0.01)
        assert not r.intersecting
        assert r.area_exact is None

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            triangle_feasible_area(0.0, 1.0)
        with pytest.raises(ValueError):
            triangle_feasible_area(1.0, 0.9)
        with pytest.raises(ValueError, match=r"^dmin must be > 0$"):
            triangle_feasible_area(math.nan, 1.0)
        with pytest.raises(ValueError, match=r"^d_nearest must be >= dmin$"):
            triangle_feasible_area(1.0, math.nan)
        with pytest.raises(ValueError, match=r"^dmin must be finite$"):
            triangle_feasible_area(math.inf, math.inf)

    def test_theta_range(self):
        for ratio in np.linspace(1.0, 2 / math.sqrt(3), 25):
            r = triangle_feasible_area(1.0, ratio)
            assert 0.0 <= r.theta <= math.pi / 6 + 1e-12

    def test_approximation_converges_at_small_margin(self):
        r = triangle_feasible_area(1.0, 1.0 + 1e-4)
        assert r.area_exact > 0
        assert abs(r.area_approx / r.area_exact - 1.0) <= 1e-2

    def test_monte_carlo_oracle_small(self):
        # light version of the sampling cross-check (the acceptance suite
        # runs the full-size one)
        rng = np.random.default_rng(5)
        for _ in range(3):
            dmin = rng.uniform(0.5, 2.0)
            d_nearest = dmin * (1 + rng.uniform(0.005, 1.0) * (2 / math.sqrt(3) - 1))
            r = triangle_feasible_area(dmin, d_nearest)
            est, se = monte_carlo_pocket_area(dmin, d_nearest, 10**6, rng)
            assert abs(est - r.area_exact) <= 4 * se, (dmin, d_nearest)


def monte_carlo_pocket_area(dmin, d_nearest, samples, rng):
    """Sampling estimate of the feasible pocket area, independent of the
    closed form: three protected points at circumradius d_nearest, hits are
    in-triangle points at distance >= dmin from all three."""
    ang = np.array([math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3])
    corners = d_nearest * np.column_stack([np.cos(ang), np.sin(ang)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    box_area = float(np.prod(hi - lo))
    pts = lo + rng.random((samples, 2)) * (hi - lo)

    def inside_triangle(q):
        sign = None
        ok = np.ones(len(q), dtype=bool)
        for i in range(3):
            a, b = corners[i], corners[(i + 1) % 3]
            cross = (b[0] - a[0]) * (q[:, 1] - a[1]) - (b[1] - a[1]) * (q[:, 0] - a[0])
            if sign is None:
                sign = cross >= 0
            ok &= (cross >= 0) == sign
        return ok

    hits = inside_triangle(pts)
    for c in corners:
        hits &= np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) >= dmin
    frac = hits.mean()
    est = box_area * frac
    se = box_area * math.sqrt(max(frac * (1 - frac), 1e-300) / samples)
    return est, se


class TestSampleFeasible:
    def test_zero_dmin_all_accepted(self, inst100):
        pts, exhausted = sample_feasible(inst100, 0.0, count=100, seed=1)
        assert len(pts) == 100 and not exhausted
        assert inst100.box.contains(pts).all()

    def test_impossible_requirement_exhausts(self, inst100):
        pts, exhausted = sample_feasible(inst100, 50.0, count=5, seed=1,
                                         max_attempts=2000)
        assert len(pts) == 0 and exhausted

    def test_all_returned_points_clear(self, inst100):
        pts, exhausted = sample_feasible(inst100, 0.95, count=500, seed=3)
        assert not exhausted and len(pts) == 500
        for q in pts[:: 25]:
            assert nearest_obnoxious(q, inst100) >= 0.95

    def test_deterministic(self, inst100):
        a, _ = sample_feasible(inst100, 0.5, count=50, seed=11)
        b, _ = sample_feasible(inst100, 0.5, count=50, seed=11)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dmin", [math.nan, -1.0])
    def test_invalid_dmin_raises(self, inst100, dmin):
        with pytest.raises(ValueError, match=r"^dmin must be >= 0$"):
            sample_feasible(inst100, dmin, count=5, seed=1)

    def test_lcg_uniforms_in_range(self):
        u = Lcg64(123).uniforms(10000)
        assert ((u >= 0) & (u < 1)).all()
        assert 0.45 < u.mean() < 0.55


def scalar_lcg(state: int, count: int) -> tuple[np.ndarray, int]:
    """The generator's recurrence one Python-int step at a time."""
    out = np.empty(count)
    for i in range(count):
        state = (Lcg64.MULTIPLIER * state + Lcg64.INCREMENT) & Lcg64.MASK
        out[i] = (state >> 11) / 9007199254740992.0  # 2^53
    return out, state


class TestLcg64JumpAhead:
    """The one-jump stream against the scalar recurrence."""

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 200_000])
    def test_matches_scalar_recurrence(self, seed, count):
        rng = Lcg64(seed)
        expected, state = scalar_lcg(rng.state, count)
        assert np.array_equal(rng.uniforms(count), expected)
        assert rng.state == state

    @pytest.mark.parametrize("seed", [0, 17, 2**63 + 12345])
    def test_calls_split_across_the_stream(self, seed):
        rng = Lcg64(seed)
        expected, state = scalar_lcg(rng.state, 3 * 4096 + 7)
        sizes = [0, 1, 4094, 5, 4096, 4097, 0, 2]
        assert sum(sizes) == len(expected)
        got = np.concatenate([rng.uniforms(k) for k in sizes])
        assert np.array_equal(got, expected)
        assert rng.state == state


# Degenerate-geometry property suites. Example generation is derandomized so
# that every run of the suite sees the same inputs.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)

# box corners and side lengths on a quarter grid, so that points placed on a
# side are exactly on it
quarters = st.integers(-8, 8).map(lambda k: k / 4)
sides = st.integers(4, 60).map(lambda k: k / 4)


@st.composite
def boxes(draw):
    x0, y0 = draw(quarters), draw(quarters)
    return BoundingBox(x0, y0, x0 + draw(sides), y0 + draw(sides))


def uniform_points(rng, box, count):
    lo, hi = np.array([box.xmin, box.ymin]), np.array([box.xmax, box.ymax])
    return np.clip(lo + rng.random((count, 2)) * (hi - lo), lo, hi)


@st.composite
def lattice_instances(draw):
    """A square lattice: every cell's four corners are cocircular."""
    k = draw(st.integers(2, 6))
    step = draw(st.integers(1, 8)) / 4
    x0, y0 = draw(quarters), draw(quarters)
    margin = draw(st.integers(0, 8)) / 4
    i, j = np.meshgrid(np.arange(k), np.arange(k))
    pts = np.column_stack([x0 + step * i.ravel(), y0 + step * j.ravel()])
    span = step * (k - 1)
    box = BoundingBox(x0 - margin, y0 - margin, x0 + span + margin, y0 + span + margin)
    return Instance(demand_xy=pts, weights=np.ones(len(pts)), obnoxious_xy=pts, box=box)


@st.composite
def boundary_instances(draw):
    """Points on all four box sides (corners optional) plus a few inside."""
    box = draw(boxes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_side = draw(st.integers(1, 4))
    t = rng.random((4, per_side))
    xs = box.xmin + t[0] * (box.xmax - box.xmin)
    ys = box.ymin + t[1] * (box.ymax - box.ymin)
    pts = [np.column_stack([xs, np.full(per_side, box.ymin)]),
           np.column_stack([np.full(per_side, box.xmax), ys]),
           np.column_stack([box.xmin + t[2] * (box.xmax - box.xmin),
                            np.full(per_side, box.ymax)]),
           np.column_stack([np.full(per_side, box.xmin),
                            box.ymin + t[3] * (box.ymax - box.ymin)]),
           uniform_points(rng, box, draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        pts.append(box.corners())
    pts = box.clamp(np.concatenate(pts))
    return Instance(demand_xy=pts, weights=np.ones(len(pts)), obnoxious_xy=pts, box=box)


@st.composite
def non_square_instances(draw):
    box = draw(boxes().filter(lambda b: b.xmax - b.xmin != b.ymax - b.ymin))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = uniform_points(rng, box, draw(st.integers(1, 30)))
    return Instance(demand_xy=pts, weights=np.ones(len(pts)), obnoxious_xy=pts, box=box)


@st.composite
def disjoint_weighted_instances(draw):
    """Demand and protected sets drawn apart, demand weights not all 1."""
    box = draw(boxes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    demand = uniform_points(rng, box, draw(st.integers(1, 25)))
    protected = uniform_points(rng, box, draw(st.integers(1, 25)))
    weights = rng.uniform(0.1, 5.0, size=len(demand))
    return Instance(demand_xy=demand, weights=weights, obnoxious_xy=protected, box=box)


@st.composite
def duplicated_instances(draw):
    """A lattice, boundary or random layout with one to three protected points
    repeated, exactly or to within less than the coincidence tolerance."""
    base = draw(st.one_of(lattice_instances(), boundary_instances(), non_square_instances()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = base.obnoxious_xy
    copies = pts[rng.integers(len(pts), size=draw(st.integers(1, 3)))]
    jitter = draw(st.sampled_from([0.0, 2e-10]))  # EPS_GEO is 1e-9
    copies = base.box.clamp(copies + jitter * rng.uniform(-1, 1, size=copies.shape))
    pts = rng.permutation(np.concatenate([pts, copies]))
    return Instance(demand_xy=base.demand_xy, weights=base.weights, obnoxious_xy=pts,
                    box=base.box)


def brute_clearance(points, instance):
    diff = points[:, None, :] - instance.obnoxious_xy[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1]).min(axis=1)


def check_candidate_invariants(instance):
    xy, clearance = feasible_candidates(instance, 0.0)
    assert instance.box.contains(xy).all()
    assert np.allclose(clearance, brute_clearance(xy, instance), rtol=0, atol=1e-12)
    assert (np.diff(clearance) <= 0).all()
    # largest empty circle: the best candidate clears at least as much as
    # any point of the box
    samples = uniform_points(np.random.default_rng(0), instance.box, 2000)
    assert brute_clearance(samples, instance).max() <= clearance[0] + 1e-9
    # the pipeline at half the best clearance
    dmin = 0.5 * clearance[0]
    rec = solve_one(instance, min(2, int((clearance >= dmin).sum())), dmin, starts=5)
    assert (brute_clearance(rec.facilities, instance) >= dmin - 1e-9).all()
    assert rec.objective <= rec.discrete.objective + 1e-9 * max(1.0, rec.discrete.objective)


class TestDegenerateGeometryProperties:
    @PROPERTY
    @given(lattice_instances())
    def test_square_lattice(self, instance):
        check_candidate_invariants(instance)

    @PROPERTY
    @given(boundary_instances())
    def test_points_on_the_box_boundary(self, instance):
        check_candidate_invariants(instance)

    @PROPERTY
    @given(non_square_instances())
    def test_non_square_box(self, instance):
        check_candidate_invariants(instance)

    @PROPERTY
    @given(disjoint_weighted_instances())
    def test_disjoint_sets_with_weights(self, instance):
        check_candidate_invariants(instance)

    @PROPERTY
    @given(duplicated_instances())
    def test_duplicated_protected_points_raise_and_exit_4(self, instance):
        with pytest.raises(DuplicateSitesError):
            feasible_candidates(instance, 0.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "instance.txt")
            write_instance(instance, path)
            for command in (["candidates", "--dmin", "0"],
                            ["solve", "--dmin", "0.1", "--p", "1"]):
                code = main([command[0], "--instance", path, *command[1:],
                             "--out", os.path.join(tmp, "out")])
                assert code == 4, command

    @PROPERTY
    @given(st.integers(3, 8), st.integers(-4, 4), st.integers(-4, 4), quarters, quarters)
    def test_collinear_protected_points_raise(self, n, dx, dy, x0, y0):
        if dx == dy == 0:
            dx = 1
        k = np.arange(n)[:, None]
        pts = np.array([x0, y0]) + k * np.array([dx, dy]) / 4
        box = BoundingBox(*(pts.min(axis=0) - 1), *(pts.max(axis=0) + 1))
        instance = Instance(demand_xy=pts[:1], weights=[1.0], obnoxious_xy=pts, box=box)
        with pytest.raises(CollinearSitesError):
            feasible_candidates(instance, 0.0)


class TestCandidateSetBuiltOnce:
    """The clipped Voronoi diagram is built once per instance; every later
    question, at any clearance, reads a prefix of the kept arrays."""

    @pytest.fixture
    def diagrams(self, monkeypatch):
        """Counts diagrams built in this process; one built in a pool worker fails
        the sweep, as the workers' copies of the instance must carry the set."""
        calls, parent = [], os.getpid()

        def counted(sites, box):
            assert os.getpid() == parent, "a worker rebuilt the candidate set"
            calls.append(len(sites))
            return voronoi_vertices(sites, box)

        monkeypatch.setattr(candidates_mod, "voronoi_vertices", counted)
        return calls

    def test_feasible_candidates_at_several_clearances(self, diagrams):
        inst = generate(100)
        for dmin in (0.0, 0.5, 0.95, 1.6, 5.0, 0.95):
            feasible_candidates(inst, dmin)
        assert len(diagrams) == 1

    def test_solve_one_at_zero_and_positive_clearance(self, diagrams):
        inst = generate(100)
        rec = solve_one(inst, 2, -0.0, starts=2)
        assert math.copysign(1.0, rec.dmin) == 1.0  # -0.0 is recorded as 0.0
        solve_one(inst, 2, 1.2)
        assert len(diagrams) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_grid_then_sweep(self, diagrams, workers):
        inst = generate(100)
        grid = default_grid(inst, steps=2)[1:]  # one solved point and one gap
        records = sweep(inst, 2, grid, workers=workers)
        assert [r.objective is None for r in records] == [False, True]
        assert len(diagrams) == 1

    def test_sweep_builds_the_set_before_the_workers_copy_the_instance(self, diagrams):
        records = sweep(generate(100), 2, [1.2, 5.0], workers=2)
        assert [r.candidate_count for r in records] == [17, 0]
        assert len(diagrams) == 1

    def test_cli_frontier_on_the_default_grid(self, diagrams, tmp_path):
        path = tmp_path / "inst.txt"
        write_instance(generate(100), path)
        code = main(["frontier", "--instance", str(path), "--p", "2", "--grid-steps", "2",
                     "--starts", "2", "--workers", "1",
                     "--out-csv", str(tmp_path / "f.csv"), "--out-svg", str(tmp_path / "f.svg")])
        assert code == 0
        assert len(diagrams) == 1

    def test_kept_arrays_are_read_only(self):
        inst = generate(100)
        xy, clearance = candidate_vertices(inst)
        assert inst.candidates[0] is xy and inst.candidates[1] is clearance
        for arr in (xy, clearance, *feasible_candidates(inst, 0.95)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_prefix_equals_the_boolean_mask_filter(self, inst100):
        # the filter the prefix replaced, over a diagram built apart from the kept one
        verts = voronoi_vertices(inst100.obnoxious_xy, inst100.box)
        clearance = inst100.protected_tree.query(verts)[0]
        dmins = np.unique(clearance)
        for dmin in [0.0, *dmins, *np.nextafter(dmins, np.inf)]:
            keep = clearance >= dmin
            xy, c = feasible_candidates(inst100, dmin)
            assert xy.tobytes() == verts[keep].tobytes(), dmin
            assert c.tobytes() == clearance[keep].tobytes(), dmin

    @pytest.mark.parametrize("protected, error, built", [
        ([[1, 1], [4, 7], [1, 1]], DuplicateSitesError, 2),
        ([[1, 1], [2, 2], [3, 3]], CollinearSitesError, 2),
        (np.empty((0, 2)), EmptyObnoxiousSetError, 0),
    ])
    def test_a_failed_build_raises_again(self, diagrams, protected, error, built):
        inst = Instance(demand_xy=[[5, 5]], weights=[1.0], obnoxious_xy=protected,
                        box=BoundingBox(0, 0, 10, 10))
        for _ in range(2):
            with pytest.raises(error):
                feasible_candidates(inst, 0.5)
            assert inst.candidates is None
        assert len(diagrams) == built
