"""Candidate facility sites and feasible-area analytics.

A candidate site is a vertex of the protected-point Voronoi diagram clipped
to the instance box, annotated with its clearance (distance to the nearest
protected point). A candidate is feasible for a minimum-distance requirement
`dmin` when its clearance is at least `dmin`. Candidates are held as two
read-only arrays, `(xy, clearance)`, from the Voronoi step to the distance
matrix, built once per instance; this module sorts the (x, y)-ordered vertices
by descending clearance, so the one clearance filter, `feasible_candidates`,
returns a prefix of them. Every clearance here, sampling included, queries
`instance.protected_tree`.

Also provides closed-form area/reach estimates for the small feasible pocket
around a candidate whose clearance barely exceeds the requirement (three
equally spaced protected points at distance `d_nearest`, exclusion radius
`dmin`), and feasible-point rejection sampling for baseline comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import voronoi_vertices
from .instances import Instance


SAMPLE_CHUNK = 8192  # box points drawn per rejection-sampling pass


class EmptyObnoxiousSetError(ValueError):
    """Candidates asked of an instance with no protected points."""


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


def candidate_vertices(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """All clipped Voronoi vertices of the protected set with clearances.

    Returns (xy, d_nearest) sorted by descending clearance; the sort is
    stable over the diagram's (x, y) order, so ties go by (x, y). The first
    call that succeeds keeps both, read-only, in `instance.candidates`.
    """
    if instance.candidates is None:
        if instance.n_obnoxious == 0:
            raise EmptyObnoxiousSetError("instance has no protected points")
        verts = voronoi_vertices(instance.obnoxious_xy, instance.box)
        clearance = instance.protected_tree.query(verts)[0]
        order = np.argsort(-clearance, kind="stable")
        verts, clearance = verts[order], clearance[order]
        verts.flags.writeable = clearance.flags.writeable = False
        instance.candidates = verts, clearance
    return instance.candidates


def feasible_candidates(instance: Instance, dmin: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate sites whose clearance is >= dmin, best-cleared first.

    Returns (xy, clearance): read-only (m, 2) and (m,) views of the first m
    rows of `candidate_vertices`, empty for a dmin that no vertex clears.
    """
    if not dmin >= 0:  # NaN fails too
        raise ValueError("dmin must be >= 0")
    verts, clearance = candidate_vertices(instance)
    m = int(np.count_nonzero(clearance >= dmin))  # clearances descend: a prefix
    return verts[:m], clearance[:m]


def write_candidates_csv(xy: np.ndarray, clearance: np.ndarray, path) -> None:
    """Candidate export: header `x,y,d_nearest`, full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,d_nearest\n")
        for (x, y), c in zip(xy.tolist(), clearance.tolist()):
            fh.write(f"{x:.17g},{y:.17g},{c:.17g}\n")


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
    if not dmin > 0:  # NaN fails too
        raise ValueError("dmin must be > 0")
    if dmin == math.inf:
        raise ValueError("dmin must be finite")
    if not d_nearest >= dmin:
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

    def __init__(self, seed: int):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & self.MASK

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles in [0, 1): the recurrence above in one jump.

        k steps map s to A^k s + C_k with C_k = INC (1 + A + ... + A^(k-1))
        (mod 2^64); the tables for k = 1..count are built per call, in
        wrapping uint64 arithmetic."""
        if count == 0:
            return np.empty(0)
        a = np.cumprod(np.full(count, self.MULTIPLIER, dtype=np.uint64))
        c = np.uint64(self.INCREMENT) * np.cumsum(np.concatenate([[np.uint64(1)], a[:-1]]))
        states = a * np.uint64(self.state) + c
        self.state = int(states[-1])
        return (states >> np.uint64(11)) * 2.0**-53


def sample_feasible(
    instance: Instance,
    dmin: float,
    count: int,
    seed: int,
    max_attempts: int = 10_000_000,
) -> tuple[np.ndarray, bool]:
    """Uniform feasible points by rejection sampling over the box.

    Returns (points, exhausted): up to `count` points each at distance
    >= dmin from every protected point; `exhausted` is True when the attempt
    cap was reached before `count` points were found.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not dmin >= 0:  # NaN fails too
        raise ValueError("dmin must be >= 0")
    box = instance.box
    rng = Lcg64(seed)
    accepted: list[np.ndarray] = []
    found = 0
    attempts = 0
    while found < count and attempts < max_attempts:
        take = min(SAMPLE_CHUNK, max_attempts - attempts)
        u = rng.uniforms(2 * take).reshape(take, 2)
        pts = np.column_stack(
            [
                box.xmin + u[:, 0] * (box.xmax - box.xmin),
                box.ymin + u[:, 1] * (box.ymax - box.ymin),
            ]
        )
        attempts += take
        if dmin > 0:
            pts = pts[instance.protected_tree.query(pts)[0] >= dmin]
        if len(pts):
            accepted.append(pts)
            found += len(pts)
    points = np.concatenate(accepted)[:count] if accepted else np.empty((0, 2))
    return points, found < count
