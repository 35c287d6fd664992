import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voromedian.geometry import (
    EPS_GEO,
    BoundingBox,
    CollinearSitesError,
    DuplicateSitesError,
    TooFewSitesError,
    _check_distinct,
    _circumcenters,
    _crossings,
    _dedup,
    delaunay,
    voronoi_vertices,
)
from voromedian.instances import generate

from conftest import brute_force_circumcircle_violations

BOX = BoundingBox(0.0, 0.0, 10.0, 10.0)


class TestCircumcenter:
    def test_right_triangle(self):
        c = _circumcenters(np.array([(0, 0), (2, 0), (0, 2)], float), np.array([[0, 1, 2]]))
        assert np.allclose(c[0], (1, 1), atol=1e-12)

    def test_equilateral(self):
        sites = np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        c = _circumcenters(sites, np.array([[0, 1, 2]]))
        assert np.allclose(c[0], (0.5, math.sqrt(3) / 6), atol=1e-12)

    def test_equidistance_on_random_triples(self):
        rng = np.random.default_rng(0)
        sites = rng.uniform(0, 10, size=(600, 2))  # 200 triples, drawn in turn
        centers = _circumcenters(sites, np.arange(600).reshape(200, 3))
        for center, (a, b, c) in zip(centers, sites.reshape(200, 3, 2)):
            d = [np.hypot(*(center - q)) for q in (a, b, c)]
            scale = max(d)
            assert max(d) - min(d) <= 1e-9 * (1 + scale)


class TestDelaunay:
    def test_single_triangle(self):
        simplices, _ = delaunay([(0, 0), (1, 0), (0, 1)])
        assert len(simplices) == 1
        assert sorted(simplices[0].tolist()) == [0, 1, 2]

    def test_cocircular_square_two_triangles(self):
        sites = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], float)
        simplices, _ = delaunay(sites)
        assert len(simplices) == 2
        # non-strict empty-circumcircle: no site strictly inside
        assert brute_force_circumcircle_violations(sites, simplices) == 0

    def test_too_few_sites(self):
        with pytest.raises(TooFewSitesError):
            delaunay([(0, 0), (1, 1)])

    def test_all_collinear(self):
        with pytest.raises(CollinearSitesError):
            delaunay([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateSitesError):
            delaunay([(0, 0), (1, 0), (0, 1), (1, 0)])

    def test_benchmark_instance_euler_and_circumcircles(self, inst100):
        simplices, neighbors = delaunay(inst100.demand_xy)
        s, h = len(inst100.demand_xy), int((neighbors == -1).sum())  # hull edges
        assert len(simplices) == 2 * s - 2 - h
        assert brute_force_circumcircle_violations(inst100.demand_xy, simplices) == 0

    def test_random_sites_euler_and_circumcircles(self):
        rng = np.random.default_rng(42)
        sites = rng.uniform(0, 10, size=(60, 2))
        simplices, neighbors = delaunay(sites)
        assert len(simplices) == 2 * 60 - 2 - int((neighbors == -1).sum())
        assert brute_force_circumcircle_violations(sites, simplices) == 0


class TestVoronoiVertices:
    def test_single_site_corners_only(self):
        verts = voronoi_vertices([(5, 5)], BOX)
        assert len(verts) == 4
        assert {tuple(v) for v in verts} == {(0, 0), (0, 10), (10, 0), (10, 10)}

    def test_two_sites_bisector_plus_corners(self):
        verts = voronoi_vertices([(2, 5), (8, 5)], BOX)
        assert len(verts) == 6
        on_bisector = [v for v in verts if abs(v[0] - 5) < 1e-12]
        assert len(on_bisector) == 2
        assert sorted(v[1] for v in on_bisector) == [0, 10]

    def test_all_inside_box(self, inst100):
        verts = voronoi_vertices(inst100.demand_xy, inst100.box)
        assert inst100.box.contains(verts).all()

    def test_determinism(self, inst100):
        a = voronoi_vertices(inst100.demand_xy, inst100.box)
        b = voronoi_vertices(inst100.demand_xy, inst100.box)
        assert np.array_equal(a, b)

    def test_sorted_by_xy(self, inst100):
        verts = voronoi_vertices(inst100.demand_xy, inst100.box)
        keys = list(map(tuple, verts.tolist()))
        assert keys == sorted(keys)

    def test_vertex_set_size_matches_clipped_diagram_identity(self, inst100):
        # a clipped Voronoi diagram of n generic sites has exactly 2n + 2 vertices
        verts = voronoi_vertices(inst100.demand_xy, inst100.box)
        assert len(verts) == 2 * 100 + 2

    @pytest.mark.parametrize("n_sites", [20, 60])
    def test_vertex_witness_properties(self, n_sites):
        """Interior vertices touch >= 3 equidistant nearest sites, boundary
        non-corner vertices >= 2, with no site strictly nearer."""
        rng = np.random.default_rng(n_sites)
        sites = rng.uniform(0, 10, size=(n_sites, 2))
        verts = voronoi_vertices(sites, BOX)
        corners = {tuple(c) for c in BOX.corners()}
        for v in verts:
            if tuple(v) in corners:
                continue
            d = np.hypot(*(sites - v).T)
            dmin = d.min()
            witnesses = int((d <= dmin + 1e-6).sum())
            on_boundary = (
                min(v[0] - 0, 10 - v[0], v[1] - 0, 10 - v[1]) < 1e-9
            )
            assert witnesses >= (2 if on_boundary else 3), (v, witnesses)

    def test_reference_vertices_present(self, inst100):
        # one boundary vertex and one interior circumcenter with known
        # coordinates in the n=100 benchmark
        verts = voronoi_vertices(inst100.demand_xy, inst100.box)
        for target in [(0.0, 3.61453), (5.11154, 7.42616)]:
            dist = np.hypot(*(verts - np.array(target)).T)
            assert dist.min() <= 5e-5, target

    @pytest.mark.parametrize("quarter_turns", [0, 1, 2, 3])
    def test_circumcenter_just_inside_a_side_is_a_vertex(self, quarter_turns):
        # The three sites' circumcenter (5, 9.9995) lies 5e-4 inside the top
        # side. Its Voronoi ray crosses the side at (5, 10), which clears the
        # sites by more, so a best-clearance check cannot tell whether the
        # circumcenter was kept; the whole vertex set is compared instead.
        def turn(points):  # quarter turns about the box center
            pts = np.array(points, dtype=float)
            for _ in range(quarter_turns):
                pts = np.column_stack([10.0 - pts[:, 1], pts[:, 0]])
            return pts

        sites = turn([(4, 9.9995), (6, 9.9995), (5, 8.9995)])
        expected = turn([(0, 0), (0, 10), (10, 0), (10, 10),  # corners
                         (5, 9.9995),  # the circumcenter
                         (5, 10), (0, 4.9995), (10, 4.9995)])  # ray crossings
        def by_xy(pts):
            return pts[np.lexsort((pts[:, 1], pts[:, 0]))]

        verts = voronoi_vertices(sites, BOX)
        assert verts.shape == expected.shape
        assert np.allclose(by_xy(verts), by_xy(expected), rtol=0, atol=1e-9)

    def test_site_outside_box_rejected(self):
        with pytest.raises(ValueError):
            voronoi_vertices([(5, 5), (12, 5), (5, 8)], BOX)


# The per-edge construction that the array pass of voronoi_vertices replaced:
# each edge is clipped on its own by a scalar Liang-Barsky clip. It is the
# reference the array pass must reproduce bit for bit.
def reference_clip_to_box(p0, direction, t_lo, t_hi, box):
    tmin, tmax = t_lo, t_hi
    for d, lo, hi, p in (
        (direction[0], box.xmin, box.xmax, p0[0]),
        (direction[1], box.ymin, box.ymax, p0[1]),
    ):
        if abs(d) < 1e-300:
            if p < lo or p > hi:
                return None
            continue
        t1, t2 = (lo - p) / d, (hi - p) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin, tmax = max(tmin, t1), min(tmax, t2)
        if tmin > tmax:
            return None
    return tmin, tmax


def reference_boundary_crossings(p0, direction, t_lo, t_hi, box):
    clipped = reference_clip_to_box(p0, direction, t_lo, t_hi, box)
    if clipped is None:
        return []
    tmin, tmax = clipped
    out = []
    if tmin > t_lo + 1e-15:
        out.append(p0 + tmin * direction)
    if tmax < t_hi - 1e-15:
        out.append(p0 + tmax * direction)
    return out


def reference_voronoi_vertices(sites, box):
    sites = np.asarray(sites, dtype=float).reshape(-1, 2)
    raw = [c for c in box.corners()]
    if len(sites) == 1:
        return _dedup(np.array(raw), box)
    if len(sites) == 2:
        _check_distinct(sites)
        mid = sites.mean(axis=0)
        d = sites[1] - sites[0]
        perp = np.array([-d[1], d[0]])
        raw += reference_boundary_crossings(mid, perp, -np.inf, np.inf, box)
        return _dedup(np.array(raw), box)
    simplices, neighbors = delaunay(sites)
    centers = _circumcenters(sites, simplices)
    raw += list(box.clamp(centers[box.contains(centers, tol=EPS_GEO)]))
    for t in range(len(simplices)):
        for k in range(3):
            nb = neighbors[t, k]
            u, v = simplices[t, (k + 1) % 3], simplices[t, (k + 2) % 3]
            if nb == -1:
                edge = sites[v] - sites[u]
                normal = np.array([-edge[1], edge[0]])
                normal /= np.hypot(*normal)
                mid = 0.5 * (sites[u] + sites[v])
                if np.dot(normal, mid - sites[simplices[t, k]]) < 0:
                    normal = -normal
                raw += reference_boundary_crossings(centers[t], normal, 0.0, np.inf, box)
            elif nb > t:
                seg = centers[nb] - centers[t]
                if np.hypot(*seg) > EPS_GEO:
                    raw += reference_boundary_crossings(centers[t], seg, 0.0, 1.0, box)
    return _dedup(np.array(raw), box)


def assert_matches_reference(sites, box):
    assert voronoi_vertices(sites, box).tobytes() == reference_voronoi_vertices(sites, box).tobytes()


MATCH = settings(derandomize=True, deadline=None, max_examples=60)
quarters = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def boxes(draw, square=False):
    x0, y0, w = draw(quarters), draw(quarters), draw(st.integers(4, 60)) / 4
    h = w if square else draw(st.integers(4, 60)) / 4
    return BoundingBox(x0, y0, x0 + w, y0 + h)


def in_box(box, unit):
    lo, hi = np.array([box.xmin, box.ymin]), np.array([box.xmax, box.ymax])
    return np.clip(lo + unit * (hi - lo), lo, hi)


def random_sites(draw, box, low, high):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return in_box(box, rng.random((draw(st.integers(low, high)), 2)))


class TestMatchesPerEdgeReference:
    @pytest.mark.parametrize("n", [30, 100, 500, 1000])
    def test_benchmark_instances(self, n):
        inst = generate(n)
        assert_matches_reference(inst.obnoxious_xy, inst.box)

    @MATCH
    @given(st.data())
    def test_random_sites(self, data):
        box = data.draw(boxes(square=True))
        assert_matches_reference(random_sites(data.draw, box, 3, 80), box)

    @MATCH
    @given(st.integers(2, 7), st.integers(1, 8), quarters, quarters, st.integers(0, 8))
    def test_square_lattices(self, k, step, x0, y0, margin):
        # every lattice cell has four cocircular corners
        i, j = np.meshgrid(np.arange(k), np.arange(k))
        sites = np.column_stack([x0 + step / 4 * i.ravel(), y0 + step / 4 * j.ravel()])
        span, pad = step / 4 * (k - 1), margin / 4
        assert_matches_reference(
            sites, BoundingBox(x0 - pad, y0 - pad, x0 + span + pad, y0 + span + pad))

    @MATCH
    @given(st.data())
    def test_sites_on_the_boundary(self, data):
        box = data.draw(boxes())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t = rng.random((4, data.draw(st.integers(1, 4))))
        zero, one = np.zeros_like(t[0]), np.ones_like(t[0])
        sides = [np.column_stack(uv) for uv in ((t[0], zero), (one, t[1]), (t[2], one), (zero, t[3]))]
        sites = np.concatenate(sides + [rng.random((data.draw(st.integers(0, 5)), 2))])
        if data.draw(st.booleans()):
            sites = np.concatenate([sites, [[0, 0], [0, 1], [1, 0], [1, 1]]])
        assert_matches_reference(in_box(box, sites), box)

    @MATCH
    @given(st.data())
    def test_non_square_boxes(self, data):
        box = data.draw(boxes().filter(lambda b: b.xmax - b.xmin != b.ymax - b.ymin))
        assert_matches_reference(random_sites(data.draw, box, 3, 40), box)

    @MATCH
    @given(st.data())
    def test_one_and_two_sites(self, data):
        box = data.draw(boxes())
        sites = random_sites(data.draw, box, 1, 2)
        if len(sites) == 2 and data.draw(st.booleans()):
            # an axis-parallel bisector: the two sites share a coordinate
            axis = data.draw(st.integers(0, 1))
            sites[1, axis] = sites[0, axis]
        if len(sites) == 2 and np.hypot(*(sites[1] - sites[0])) <= EPS_GEO:
            return
        assert_matches_reference(sites, box)


class TestCrossingsMatchScalarClip:
    def test_every_edge_kind(self):
        # origins on, inside and outside the box sides; directions with zero,
        # signed-zero and subnormal components; segment, ray and line ranges
        box = BoundingBox(0.0, 0.0, 4.0, 2.0)
        coords = [-3.0, 0.0, 0.5, 2.0, 4.0, 7.0]
        components = [0.0, -0.0, 1e-310, -1e-310, 1e-3, -0.75, 1.0, 2.5]
        ranges = [(0.0, 1.0), (0.0, np.inf), (-np.inf, np.inf)]
        for x, y, dx, dy, (t_lo, t_hi) in itertools.product(
                coords, coords, components, components, ranges):
            origin, direction = np.array([x, y]), np.array([dx, dy])
            if not direction.any():
                continue  # no edge of the diagram has a zero direction
            expected = reference_boundary_crossings(origin, direction, t_lo, t_hi, box)
            got = _crossings(origin[None], direction[None], np.array([t_lo]),
                             np.array([t_hi]), box)
            assert got.tobytes() == np.array(expected).reshape(-1, 2).tobytes(), (
                origin, direction, t_lo, t_hi)
