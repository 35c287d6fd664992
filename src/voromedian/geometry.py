"""Planar primitives: Delaunay triangulation, its circumcenters, and the
vertex set of the Voronoi diagram clipped to a bounding box.

The triangulation is delegated to Qhull (scipy.spatial.Delaunay) and
returned as its `simplices` and `neighbors` arrays; everything downstream
only relies on the empty-circumcircle property, which the test suite
verifies by brute force. The clipped Voronoi vertex set is built in one
pass over arrays: the four box corners, the circumcenters inside or on the
box, and the points where Voronoi edges cross the box boundary. The edges
form one list of rows (origin, direction, parameter range): segments between
the circumcenters of adjacent triangles, outward rays from hull triangles,
or the bisector of two sites. One Liang-Barsky clip of the whole list gives
the crossings.

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


def delaunay(sites) -> tuple[np.ndarray, np.ndarray]:
    """Delaunay triangulation of a planar point set, as Qhull's
    (simplices, neighbors): (T, 3) site indices per triangle, and per
    triangle the one opposite each vertex (-1 on the hull).

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
    return tri.simplices.astype(int), tri.neighbors.astype(int)


def _crossings(origin, direction, t_lo, t_hi, box: BoundingBox) -> np.ndarray:
    """Liang-Barsky clip of the edges {origin + t*direction, t in [t_lo, t_hi]}, one
    per row, to the box: the clip ends that are not the edge's own ends."""
    tmin, tmax, hit = t_lo, t_hi, np.ones(len(origin), dtype=bool)
    for axis, (lo, hi) in enumerate(((box.xmin, box.xmax), (box.ymin, box.ymax))):
        d, p = direction[:, axis], origin[:, axis]
        flat = np.abs(d) < 1e-300  # parallel to this side: inside its slab or missed
        hit &= ~flat | ((p >= lo) & (p <= hi))
        with np.errstate(all="ignore"):
            t1 = np.where(flat, -np.inf, (lo - p) / d)
            t2 = np.where(flat, np.inf, (hi - p) / d)
        # comparisons as in a scalar clip, so ties and signed zeros resolve alike
        t1, t2 = np.where(t1 > t2, t2, t1), np.where(t1 > t2, t1, t2)
        tmin, tmax = np.where(t1 > tmin, t1, tmin), np.where(t2 < tmax, t2, tmax)
    hit &= tmin <= tmax
    ends = [(tmin, hit & (tmin > t_lo + 1e-15)), (tmax, hit & (tmax < t_hi - 1e-15))]
    return np.concatenate([origin[k] + t[k, None] * direction[k] for t, k in ends])


def voronoi_vertices(sites, box: BoundingBox) -> np.ndarray:
    """Vertex set of the Voronoi diagram of `sites` clipped to `box`, as an
    (m, 2) array sorted by descending nearest-site distance, ties by (x, y).

    Each Voronoi edge is a row (origin, direction, t range): t in [0, 1]
    between adjacent circumcenters, [0, inf) for a hull ray along the outward
    normal, (-inf, inf) for the bisector of two sites; one site has no edge.
    One clip of all rows gives the boundary crossings.
    """
    sites = np.asarray(sites, dtype=float).reshape(-1, 2)
    if len(sites) == 0:
        raise TooFewSitesError("no sites")
    if not box.contains(sites).all():
        raise ValueError("box must contain all sites")

    centers = origin = direction = np.empty((0, 2))
    t_lo = t_hi = np.empty(0)
    if len(sites) == 2:
        _check_distinct(sites)
        d = sites[1] - sites[0]
        origin, direction = sites.mean(axis=0)[None], np.array([[-d[1], d[0]]])
        t_lo, t_hi = np.array([-np.inf]), np.array([np.inf])
    elif len(sites) > 2:
        simplices, nb = delaunay(sites)
        centers = _circumcenters(sites, simplices)
        t, k = np.nonzero(nb > np.arange(len(simplices))[:, None])  # each bounded edge once
        seg = centers[nb[t, k]] - centers[t]
        long = np.hypot(*seg.T) > EPS_GEO
        h, k = np.nonzero(nb == -1)  # hull edges: rays along the outward normal
        u, v = sites[simplices[h, (k + 1) % 3]], sites[simplices[h, (k + 2) % 3]]
        normal = np.column_stack([u[:, 1] - v[:, 1], v[:, 0] - u[:, 0]])
        normal /= np.hypot(*normal.T)[:, None]
        inward = np.einsum("ij,ij->i", normal, 0.5 * (u + v) - sites[simplices[h, k]]) < 0
        normal[inward] = -normal[inward]
        origin = np.concatenate([centers[t[long]], centers[h]])
        direction = np.concatenate([seg[long], normal])
        t_lo, t_hi = np.zeros(len(origin)), np.repeat([1.0, np.inf], [long.sum(), len(h)])

    raw = [box.corners(), centers[box.contains(centers, tol=EPS_GEO)],
           _crossings(origin, direction, t_lo, t_hi, box)]
    return _dedup_sort(np.concatenate(raw), sites, box)  # clamps every point


def _dedup_sort(points: np.ndarray, sites: np.ndarray, box: BoundingBox) -> np.ndarray:
    """Clamp onto the box, drop duplicates within EPS_DEDUP, sort by
    descending nearest-site distance then (x, y)."""
    points = box.clamp(points)
    order = np.lexsort((points[:, 1], points[:, 0]))
    points = points[order]
    keep = np.ones(len(points), dtype=bool)
    for i, j in sorted(cKDTree(points).query_pairs(EPS_DEDUP)):
        if keep[i]:
            keep[j] = False
    points = points[keep]

    order = np.lexsort((points[:, 1], points[:, 0], -cKDTree(sites).query(points)[0]))
    return points[order]
