"""Planar p-median location with minimum-distance (obnoxious) constraints.

Pipeline: clipped Voronoi vertices of the protected points are the candidate
sites; a discrete p-median solve over the feasible candidates seeds a
constrained continuous location-allocation refinement; sweeping the
clearance requirement yields the efficient frontier.
"""

__version__ = "0.1.0"

from .candidates import (
    TriangleAreaReport,
    feasible_candidates,
    sample_feasible,
    triangle_feasible_area,
)
from .discrete import (
    DiscreteSolution,
    InfeasibleCardinalityError,
    build_matrix,
    solve_exact,
    solve_interchange,
)
from .frontier import (
    FrontierRecord,
    default_grid,
    solve_one,
    sweep,
)
from .geometry import (
    BoundingBox,
    delaunay,
    voronoi_vertices,
)
from .instances import Instance, generate, read_instance, write_instance
from .refine import (
    ContinuousSolution,
    InfeasibleStartError,
    NoFeasibleSampleError,
    RefineMonotonicityError,
    assign,
    multistart_random,
    refine_many,
)

__all__ = [
    "BoundingBox",
    "ContinuousSolution",
    "DiscreteSolution",
    "FrontierRecord",
    "Instance",
    "InfeasibleCardinalityError",
    "InfeasibleStartError",
    "NoFeasibleSampleError",
    "RefineMonotonicityError",
    "TriangleAreaReport",
    "assign",
    "build_matrix",
    "default_grid",
    "delaunay",
    "feasible_candidates",
    "generate",
    "multistart_random",
    "read_instance",
    "refine_many",
    "sample_feasible",
    "solve_exact",
    "solve_interchange",
    "solve_one",
    "sweep",
    "triangle_feasible_area",
    "voronoi_vertices",
    "write_instance",
]
