"""Benchmark instance generation and instance file I/O.

Instances are reproduced bit-exactly from a multiplicative congruential
recurrence so that results can be compared across implementations:

    r_{k+1} = (12219 * r_k) mod 100000

with seed 97 driving the x coordinates and seed 367 the y coordinates.
The seed itself is the first value of each stream, every value is divided
by 10000, and the resulting points live in a 10 x 10 square.

Each `Instance` builds its protected-point KD-tree, the clearance oracle, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import BoundingBox

LCG_MULTIPLIER = 12219
LCG_MODULUS = 100000
X_SEED = 97
Y_SEED = 367
POOL_SIZE = 1000  # points generated per stream; generate(n) takes the first n


class InstanceParseError(ValueError):
    """Raised when an instance file is malformed; carries the offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Instance:
    """Demand points with weights, protected (obnoxious-affected) points, box.

    The demand and protected sets may coincide, overlap or be disjoint.
    `protected_tree.query(pts)[0]` is the clearance oracle: each point's
    distance to the nearest protected point, `inf` when there is none.
    `candidates` holds the read-only (xy, clearance) arrays of
    `candidates.candidate_vertices`, filled by its first call that succeeds.
    """

    demand_xy: np.ndarray  # (nd, 2)
    weights: np.ndarray  # (nd,), all finite and > 0
    obnoxious_xy: np.ndarray  # (no, 2)
    box: BoundingBox
    protected_tree: cKDTree = field(init=False, repr=False, compare=False)
    candidates: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.demand_xy = np.asarray(self.demand_xy, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.obnoxious_xy = np.asarray(self.obnoxious_xy, dtype=float).reshape(-1, 2)
        if len(self.weights) != len(self.demand_xy):
            raise ValueError("one weight per demand point required")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        for pts in (self.demand_xy, self.obnoxious_xy):
            if len(pts) and not self.box.contains(pts).all():
                raise ValueError("point outside bounding box")
        self.protected_tree = cKDTree(self.obnoxious_xy)

    @property
    def n_demand(self) -> int:
        return len(self.demand_xy)

    @property
    def n_obnoxious(self) -> int:
        return len(self.obnoxious_xy)


def coordinate_pool() -> np.ndarray:
    """The full (POOL_SIZE, 2) coordinate pool behind every generated instance.

    Row k holds seed * 12219^k mod 100000 for each stream, divided by 10000.
    12219 = 3 * 4073 shares no factor with 100000, so no value is ever 0.
    """
    r = np.array([pow(LCG_MULTIPLIER, k, LCG_MODULUS) for k in range(POOL_SIZE)])
    return np.outer(r, [X_SEED, Y_SEED]) % LCG_MODULUS / 10000.0


def generate(n: int) -> Instance:
    """Benchmark instance with n points (demand and protected sets coincide).

    All weights are 1. The first n of the 1000 pooled points are used, so
    smaller instances are prefixes of larger ones.
    """
    if not 1 <= n <= POOL_SIZE:
        raise ValueError(f"n must be in [1, {POOL_SIZE}]")
    pts = coordinate_pool()[:n]
    return Instance(
        demand_xy=pts,
        weights=np.ones(n),
        obnoxious_xy=pts.copy(),
        box=BoundingBox(0.0, 0.0, 10.0, 10.0),
    )


def write_instance(instance: Instance, path) -> None:
    """Plain-text instance file; coordinates round-trip exactly.

    Format: line 1 `box xmin ymin xmax ymax`; line 2 `nd no`; then nd lines
    `x y w` (demand) and no lines `x y` (protected points).
    """
    box = instance.box
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"box {box.xmin:.17g} {box.ymin:.17g} {box.xmax:.17g} {box.ymax:.17g}\n")
        fh.write(f"{instance.n_demand} {instance.n_obnoxious}\n")
        for (x, y), w in zip(instance.demand_xy, instance.weights):
            fh.write(f"{x:.17g} {y:.17g} {w:.17g}\n")
        for x, y in instance.obnoxious_xy:
            fh.write(f"{x:.17g} {y:.17g}\n")


def read_instance(path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def parse_floats(line_no: int, expect: int) -> list[float]:
        if line_no > len(lines):
            raise InstanceParseError("unexpected end of file", line_no)
        parts = lines[line_no - 1].split()
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise InstanceParseError(f"not numeric: {lines[line_no - 1]!r}", line_no) from None
        if len(values) != expect:
            raise InstanceParseError(f"expected {expect} fields, got {len(values)}", line_no)
        return values

    if not lines or not lines[0].startswith("box "):
        raise InstanceParseError("missing `box xmin ymin xmax ymax` header", 1)
    try:
        box = BoundingBox(*[float(p) for p in lines[0].split()[1:]])
    except (TypeError, ValueError) as exc:
        raise InstanceParseError(f"bad box header: {exc}", 1) from None

    nd, no = parse_floats(2, 2)
    # is_integer() is False for nan and inf too
    if not (nd.is_integer() and no.is_integer() and nd >= 1 and no >= 0):
        raise InstanceParseError("counts must be integers with nd >= 1, no >= 0", 2)
    nd, no = int(nd), int(no)

    demand, weights, obnox = [], [], []
    for i in range(nd):
        x, y, w = parse_floats(3 + i, 3)
        if not 0 < w < np.inf:
            raise InstanceParseError(f"weight must be finite and > 0, got {w}", 3 + i)
        demand.append((x, y))
        weights.append(w)
    for i in range(no):
        x, y = parse_floats(3 + nd + i, 2)
        obnox.append((x, y))
    if len(lines) > 2 + nd + no and any(s.strip() for s in lines[2 + nd + no :]):
        raise InstanceParseError("trailing content after declared rows", 3 + nd + no)

    rows = np.array(demand + obnox, dtype=float)  # row k is on line 3 + k
    outside = np.flatnonzero(~box.contains(rows))
    if len(outside):
        raise InstanceParseError("point outside bounding box", 3 + int(outside[0]))
    return Instance(demand_xy=rows[:nd], weights=np.array(weights, dtype=float),
                    obnoxious_xy=rows[nd:], box=box)
