import math

import numpy as np
import pytest

from voromedian.candidates import (
    EmptyObnoxiousSetError,
    Lcg64,
    feasible_candidates,
    nearest_obnoxious,
    sample_feasible,
    triangle_feasible_area,
    write_candidates_csv,
)
from voromedian.geometry import BoundingBox, voronoi_vertices
from voromedian.instances import Instance


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
        assert feasible_candidates(inst100, 1.7) == []

    def test_zero_dmin_returns_every_vertex(self, inst100):
        verts = voronoi_vertices(inst100.obnoxious_xy, inst100.box)
        assert len(feasible_candidates(inst100, 0.0)) == len(verts)

    def test_monotone_nesting(self, inst100):
        small = {c.location for c in feasible_candidates(inst100, 0.8)}
        large = {c.location for c in feasible_candidates(inst100, 1.2)}
        assert large <= small

    def test_sorted_descending_with_xy_ties(self, inst100):
        cands = feasible_candidates(inst100, 0.5)
        keys = [(-c.d_nearest, c.x, c.y) for c in cands]
        assert keys == sorted(keys)

    def test_clearances_are_exact(self, inst100):
        for c in feasible_candidates(inst100, 1.2):
            assert c.d_nearest == pytest.approx(
                nearest_obnoxious(c.location, inst100), abs=1e-9
            )

    def test_negative_dmin_rejected(self, inst100):
        with pytest.raises(ValueError):
            feasible_candidates(inst100, -0.1)

    def test_csv_export(self, tmp_path, inst100):
        cands = feasible_candidates(inst100, 1.3)
        path = tmp_path / "c.csv"
        write_candidates_csv(cands, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,d_nearest"
        assert len(lines) == len(cands) + 1
        x, y, d = map(float, lines[1].split(","))
        assert (x, y, d) == (cands[0].x, cands[0].y, cands[0].d_nearest)


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
    """The block-at-a-time stream against the scalar recurrence."""

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, Lcg64.BLOCK - 1, Lcg64.BLOCK, Lcg64.BLOCK + 1,
                                       200_000])
    def test_matches_scalar_recurrence(self, seed, count):
        rng = Lcg64(seed)
        expected, state = scalar_lcg(rng.state, count)
        assert np.array_equal(rng.uniforms(count), expected)
        assert rng.state == state

    @pytest.mark.parametrize("seed", [0, 17, 2**63 + 12345])
    def test_calls_split_across_the_stream(self, seed):
        rng = Lcg64(seed)
        expected, state = scalar_lcg(rng.state, 3 * Lcg64.BLOCK + 7)
        sizes = [0, 1, Lcg64.BLOCK - 2, 5, Lcg64.BLOCK, Lcg64.BLOCK + 1, 0, 2]
        assert sum(sizes) == len(expected)
        got = np.concatenate([rng.uniforms(k) for k in sizes])
        assert np.array_equal(got, expected)
        assert rng.state == state
