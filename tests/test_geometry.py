import math

import numpy as np
import pytest

from voromedian.geometry import (
    BoundingBox,
    CollinearSitesError,
    DuplicateSitesError,
    TooFewSitesError,
    _circumcenters,
    delaunay,
    nearest_site_distance,
    voronoi_vertices,
)

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
        tri = delaunay([(0, 0), (1, 0), (0, 1)])
        assert len(tri.simplices) == 1
        assert sorted(tri.simplices[0].tolist()) == [0, 1, 2]

    def test_cocircular_square_two_triangles(self):
        tri = delaunay([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(tri.simplices) == 2
        # non-strict empty-circumcircle: no site strictly inside
        assert brute_force_circumcircle_violations(tri.sites, tri.simplices) == 0

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
        tri = delaunay(inst100.demand_xy)
        s, h = len(tri.sites), int((tri.neighbors == -1).sum())  # hull edges
        assert len(tri.simplices) == 2 * s - 2 - h
        assert brute_force_circumcircle_violations(tri.sites, tri.simplices) == 0

    def test_random_sites_euler_and_circumcircles(self):
        rng = np.random.default_rng(42)
        sites = rng.uniform(0, 10, size=(60, 2))
        tri = delaunay(sites)
        assert len(tri.simplices) == 2 * 60 - 2 - int((tri.neighbors == -1).sum())
        assert brute_force_circumcircle_violations(tri.sites, tri.simplices) == 0


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

    def test_sorted_by_descending_clearance(self, inst100):
        verts = voronoi_vertices(inst100.demand_xy, inst100.box)
        d = nearest_site_distance(verts, inst100.demand_xy)
        assert (np.diff(d) <= 1e-12).all()

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
