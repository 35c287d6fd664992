"""Candidate facility sites and feasible-area analytics.

A candidate site is a vertex of the protected-point Voronoi diagram clipped
to the instance box, annotated with its clearance (distance to the nearest
protected point). A candidate is feasible for a minimum-distance requirement
`dmin` when its clearance is at least `dmin`.

Also provides closed-form area/reach estimates for the small feasible pocket
around a candidate whose clearance barely exceeds the requirement (three
equally spaced protected points at distance `d_nearest`, exclusion radius
`dmin`), and feasible-point rejection sampling for baseline comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import voronoi_vertices, nearest_site_distance
from .instances import Instance


class EmptyObnoxiousSetError(ValueError):
    """Clearance queried against an instance with no protected points."""


@dataclass
class CandidateSite:
    location: tuple[float, float]
    d_nearest: float  # clearance: distance to the closest protected point

    @property
    def x(self) -> float:
        return self.location[0]

    @property
    def y(self) -> float:
        return self.location[1]


@dataclass
class TriangleAreaReport:
    """Feasible-pocket analytics for the three-circle configuration.

    `theta` is the half-angle subtended by one of the three pocket cusps;
    valid inputs satisfy dmin <= d_nearest <= 2*dmin/sqrt(3). Beyond the
    upper bound the exclusion circles no longer intersect pairwise and
    `intersecting` is False with no pocket analytics.
    """

    dmin: float
    d_nearest: float
    intersecting: bool
    theta: float | None = None
    area_exact: float | None = None
    area_approx: float | None = None
    dmax_exact: float | None = None
    dmax_approx: float | None = None


def nearest_obnoxious(q, instance: Instance) -> float:
    """Exact Euclidean distance from q to the closest protected point."""
    if instance.n_obnoxious == 0:
        raise EmptyObnoxiousSetError("instance has no protected points")
    return float(nearest_site_distance(q, instance.obnoxious_xy)[0])


def candidate_vertices(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """All clipped Voronoi vertices of the protected set with clearances.

    Returns (xy, d_nearest) sorted by descending clearance, ties by (x, y).
    """
    if instance.n_obnoxious == 0:
        raise EmptyObnoxiousSetError("instance has no protected points")
    verts = voronoi_vertices(instance.obnoxious_xy, instance.box)
    clearance = nearest_site_distance(verts, instance.obnoxious_xy)
    return verts, clearance


def feasible_candidates(instance: Instance, dmin: float) -> list[CandidateSite]:
    """Candidate sites whose clearance is >= dmin, best-cleared first.

    May be empty: for large dmin no vertex survives the filter.
    """
    if dmin < 0:
        raise ValueError("dmin must be >= 0")
    verts, clearance = candidate_vertices(instance)
    keep = clearance >= dmin
    return [
        CandidateSite(location=(float(x), float(y)), d_nearest=float(c))
        for (x, y), c in zip(verts[keep], clearance[keep])
    ]


def candidates_xy(sites: list[CandidateSite]) -> np.ndarray:
    """(m, 2) coordinate array of a candidate list."""
    if not sites:
        return np.empty((0, 2))
    return np.array([[s.x, s.y] for s in sites])


def write_candidates_csv(sites: list[CandidateSite], path) -> None:
    """Candidate list export: header `x,y,d_nearest`, full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,d_nearest\n")
        for s in sites:
            fh.write(f"{s.x:.17g},{s.y:.17g},{s.d_nearest:.17g}\n")


def triangle_feasible_area(dmin: float, d_nearest: float) -> TriangleAreaReport:
    """Pocket area and reach for a candidate at clearance d_nearest.

    Three protected points sit at the corners of an equilateral triangle
    with circumradius d_nearest; each carries an exclusion circle of radius
    dmin. The feasible pocket around the center has exact area
    3*dmin*(d_nearest*sin(theta) - dmin*theta) and is well approximated by
    3*sqrt(3)*(d_nearest - dmin)^2 when the clearance margin is small. The
    farthest pocket point lies at dmin/sqrt(3)*sin(theta) ~ d_nearest - dmin
    from the center.
    """
    if dmin <= 0:
        raise ValueError("dmin must be > 0")
    if d_nearest < dmin:
        raise ValueError("d_nearest must be >= dmin")
    if d_nearest > 2.0 * dmin / math.sqrt(3.0):
        return TriangleAreaReport(dmin=dmin, d_nearest=d_nearest, intersecting=False)

    ratio = min(math.sqrt(3.0) * d_nearest / (2.0 * dmin), 1.0)
    theta = math.asin(ratio) - math.pi / 3.0
    area_approx = 3.0 * math.sqrt(3.0) * (d_nearest - dmin) ** 2
    if theta < 1e-4:
        # sin(theta) - theta cancellation dominates here; the quadratic
        # approximation is accurate to O(theta^3) in this range
        area_exact = area_approx
    else:
        area_exact = 3.0 * dmin * (d_nearest * math.sin(theta) - dmin * theta)
    return TriangleAreaReport(
        dmin=dmin,
        d_nearest=d_nearest,
        intersecting=True,
        theta=theta,
        area_exact=area_exact,
        area_approx=area_approx,
        dmax_exact=dmin / math.sqrt(3.0) * math.sin(theta),
        dmax_approx=d_nearest - dmin,
    )


class Lcg64:
    """Auxiliary 64-bit linear congruential generator for sampling.

    state' = 6364136223846793005 * state + 1442695040888963407  (mod 2^64),
    doubles taken from the top 53 bits. Kept separate from the instance
    coordinate streams so baselines never perturb instance reproduction.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1
    BLOCK = 4096  # states produced per jump-ahead step
    _jump = None  # (A^k, C_k) for k = 1..BLOCK, built on first use

    def __init__(self, seed: int):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & self.MASK

    @classmethod
    def _jump_tables(cls) -> tuple[np.ndarray, np.ndarray]:
        """k steps map s to A^k s + C_k (mod 2^64); uint64 arithmetic wraps."""
        if cls._jump is None:
            a = np.array([cls.MULTIPLIER], dtype=np.uint64)
            c = np.array([cls.INCREMENT], dtype=np.uint64)
            while len(a) < cls.BLOCK:
                # L + j steps: A^(L+j) = A^j A^L and C_(L+j) = A^j C_L + C_j
                a, c = np.concatenate([a, a * a[-1]]), np.concatenate([c, a * c[-1] + c])
            cls._jump = (a[: cls.BLOCK], c[: cls.BLOCK])
        return cls._jump

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles in [0, 1): the recurrence above, a block at a time."""
        a, c = self._jump_tables()
        out = np.empty(count)
        s = np.uint64(self.state)
        for lo in range(0, count, self.BLOCK):
            states = a[: count - lo] * s + c[: count - lo]
            out[lo : lo + len(states)] = states >> np.uint64(11)
            s = states[-1]
        out *= 2.0**-53
        self.state = int(s)
        return out


def sample_feasible(
    instance: Instance,
    dmin: float,
    count: int,
    seed: int,
    max_attempts: int = 10_000_000,
    chunk: int = 8192,
) -> tuple[np.ndarray, bool]:
    """Uniform feasible points by rejection sampling over the box.

    Returns (points, exhausted): up to `count` points each at distance
    >= dmin from every protected point; `exhausted` is True when the attempt
    cap was reached before `count` points were found.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    box = instance.box
    rng = Lcg64(seed)
    tree = cKDTree(instance.obnoxious_xy) if instance.n_obnoxious else None
    accepted: list[np.ndarray] = []
    found = 0
    attempts = 0
    while found < count and attempts < max_attempts:
        take = min(chunk, max_attempts - attempts)
        u = rng.uniforms(2 * take).reshape(take, 2)
        pts = np.column_stack(
            [
                box.xmin + u[:, 0] * (box.xmax - box.xmin),
                box.ymin + u[:, 1] * (box.ymax - box.ymin),
            ]
        )
        attempts += take
        if tree is not None and dmin > 0:
            ok = tree.query(pts)[0] >= dmin
            pts = pts[ok]
        if len(pts):
            accepted.append(pts)
            found += len(pts)
    points = np.concatenate(accepted)[:count] if accepted else np.empty((0, 2))
    return points, found < count
