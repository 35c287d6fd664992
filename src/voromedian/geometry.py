"""Planar primitives: Delaunay triangulation, its circumcenters, and the
vertex set of the Voronoi diagram clipped to a bounding box.

Triangulation is delegated to Qhull (scipy.spatial.Delaunay) and kept as
its `simplices` and `neighbors` arrays; everything downstream only relies on
the empty-circumcircle property, which the test suite verifies by brute
force. The clipped Voronoi vertex set consists of

  (i)  circumcenters of Delaunay triangles that lie inside or on the box,
  (ii) intersections of Voronoi edges (segments between circumcenters of
       adjacent triangles, and outward rays bisecting hull-adjacent site
       pairs) with the box boundary,
  (iii) the four box corners.

Vertices are deduplicated and returned sorted by descending distance to the
nearest site, ties broken by (x, y); identical inputs give identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

EPS_GEO = 1e-9  # degeneracy tolerance, absolute in miles
EPS_DEDUP = 1e-7  # two vertices closer than this are the same vertex


@dataclass
class BoundingBox:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not np.isfinite([self.xmin, self.ymin, self.xmax, self.ymax]).all():
            raise ValueError("non-finite bounding box")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("empty bounding box")

    def contains(self, points, tol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (
            (pts[:, 0] >= self.xmin - tol)
            & (pts[:, 0] <= self.xmax + tol)
            & (pts[:, 1] >= self.ymin - tol)
            & (pts[:, 1] <= self.ymax + tol)
        )

    def corners(self) -> np.ndarray:
        return np.array(
            [
                [self.xmin, self.ymin],
                [self.xmin, self.ymax],
                [self.xmax, self.ymin],
                [self.xmax, self.ymax],
            ]
        )

    def clamp(self, points) -> np.ndarray:
        pts = np.array(np.atleast_2d(np.asarray(points, dtype=float)))
        pts[:, 0] = np.clip(pts[:, 0], self.xmin, self.xmax)
        pts[:, 1] = np.clip(pts[:, 1], self.ymin, self.ymax)
        return pts


class TooFewSitesError(ValueError):
    """Fewer than 3 distinct sites; no triangulation exists."""


class CollinearSitesError(ValueError):
    """All sites collinear; no triangulation exists."""


class DuplicateSitesError(ValueError):
    """Two sites coincide within tolerance; caller must deduplicate."""


@dataclass
class Triangulation:
    sites: np.ndarray  # (n, 2)
    simplices: np.ndarray  # (T, 3) site indices per triangle
    neighbors: np.ndarray  # (T, 3); entry k = triangle opposite vertex k, -1 on hull


def _circumcenters(sites: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Circumcenters of all triangles at once: row t is equidistant from the
    three sites of simplices[t]."""
    a = sites[simplices[:, 0]]
    b = sites[simplices[:, 1]] - a
    c = sites[simplices[:, 2]] - a
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    b2 = np.einsum("ij,ij->i", b, b)
    c2 = np.einsum("ij,ij->i", c, c)
    ux = (c[:, 1] * b2 - b[:, 1] * c2) / d
    uy = (b[:, 0] * c2 - c[:, 0] * b2) / d
    return a + np.column_stack([ux, uy])


def _check_distinct(sites: np.ndarray) -> None:
    tree = cKDTree(sites)
    pairs = tree.query_pairs(EPS_GEO)
    if pairs:
        i, j = sorted(pairs)[0]
        raise DuplicateSitesError(f"sites {i} and {j} coincide within {EPS_GEO}")


def delaunay(sites) -> Triangulation:
    """Delaunay triangulation of a planar point set.

    The contract is the empty-circumcircle property, not any particular
    construction; cocircular groups may be triangulated with either diagonal.
    """
    sites = np.asarray(sites, dtype=float).reshape(-1, 2)
    if not np.isfinite(sites).all():
        raise ValueError("non-finite site coordinates")
    if len(sites) < 3:
        raise TooFewSitesError(f"need >= 3 sites, got {len(sites)}")
    _check_distinct(sites)
    try:
        tri = Delaunay(sites)
    except QhullError as exc:
        if "QH6013" in str(exc) or "flat" in str(exc) or "QH6154" in str(exc):
            raise CollinearSitesError("all sites collinear") from exc
        raise
    if len(tri.coplanar):
        raise DuplicateSitesError(f"qhull dropped points {tri.coplanar[:, 0].tolist()}")

    return Triangulation(
        sites=sites,
        simplices=tri.simplices.astype(int),
        neighbors=tri.neighbors.astype(int),
    )


def _clip_to_box(p0: np.ndarray, direction: np.ndarray, t_lo: float, t_hi: float,
                 box: BoundingBox) -> tuple[float, float] | None:
    """Liang-Barsky: parameter interval of {p0 + t*direction, t in [t_lo, t_hi]}
    inside the box, or None if the intersection is empty. t_hi may be inf."""
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


def _boundary_crossings(p0, direction, t_lo, t_hi, box) -> list[np.ndarray]:
    """Points where the segment/ray {p0 + t*d, t in [t_lo, t_hi]} crosses the
    box boundary (clip endpoints that are not original endpoints)."""
    clipped = _clip_to_box(p0, direction, t_lo, t_hi, box)
    if clipped is None:
        return []
    tmin, tmax = clipped
    out = []
    if tmin > t_lo + 1e-15:
        out.append(p0 + tmin * direction)
    if tmax < t_hi - 1e-15:  # always true for rays (t_hi = inf) that hit the box
        out.append(p0 + tmax * direction)
    return out


def voronoi_vertices(sites, box: BoundingBox) -> np.ndarray:
    """Vertex set of the Voronoi diagram of `sites` clipped to `box`.

    Returns an (m, 2) array sorted by descending nearest-site distance,
    ties by (x, y). Special cases: a single site yields the box corners
    only; two sites add the bisector/boundary intersections.
    """
    sites = np.asarray(sites, dtype=float).reshape(-1, 2)
    if len(sites) == 0:
        raise TooFewSitesError("no sites")
    if not box.contains(sites).all():
        raise ValueError("box must contain all sites")

    raw: list[np.ndarray] = [c for c in box.corners()]

    if len(sites) == 1:
        return _dedup_sort(np.array(raw), sites, box)

    if len(sites) == 2:
        _check_distinct(sites)
        mid = sites.mean(axis=0)
        d = sites[1] - sites[0]
        perp = np.array([-d[1], d[0]])
        raw += _boundary_crossings(mid, perp, -np.inf, np.inf, box)
        return _dedup_sort(np.array(raw), sites, box)

    tri = delaunay(sites)
    simplices = tri.simplices
    centers = _circumcenters(sites, simplices)

    inside = box.contains(centers, tol=EPS_GEO)
    raw += list(box.clamp(centers[inside]))

    for t in range(len(simplices)):
        for k in range(3):
            nb = tri.neighbors[t, k]
            u, v = simplices[t, (k + 1) % 3], simplices[t, (k + 2) % 3]
            if nb == -1:
                # hull edge: Voronoi ray from this circumcenter, outward
                edge = sites[v] - sites[u]
                normal = np.array([-edge[1], edge[0]])
                norm = np.hypot(*normal)
                normal /= norm
                mid = 0.5 * (sites[u] + sites[v])
                if np.dot(normal, mid - sites[simplices[t, k]]) < 0:
                    normal = -normal
                raw += _boundary_crossings(centers[t], normal, 0.0, np.inf, box)
            elif nb > t:
                # bounded edge between adjacent circumcenters, visited once
                seg = centers[nb] - centers[t]
                if np.hypot(*seg) > EPS_GEO:
                    raw += _boundary_crossings(centers[t], seg, 0.0, 1.0, box)

    return _dedup_sort(np.array(raw), sites, box)


def _dedup_sort(points: np.ndarray, sites: np.ndarray, box: BoundingBox) -> np.ndarray:
    """Clamp onto the box, drop duplicates within EPS_DEDUP, sort by
    descending nearest-site distance then (x, y)."""
    points = box.clamp(points)
    order = np.lexsort((points[:, 1], points[:, 0]))
    points = points[order]
    tree = cKDTree(points)
    keep = np.ones(len(points), dtype=bool)
    for i, j in sorted(tree.query_pairs(EPS_DEDUP)):
        if keep[i]:
            keep[j] = False
    points = points[keep]

    order = np.lexsort((points[:, 1], points[:, 0], -nearest_site_distance(points, sites)))
    return points[order]


def nearest_site_distance(points, sites) -> np.ndarray:
    """Distance from each query point to its nearest site (KD-tree backed;
    values identical to the direct pairwise minimum)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dist, _ = cKDTree(np.asarray(sites, dtype=float)).query(points)
    return dist
