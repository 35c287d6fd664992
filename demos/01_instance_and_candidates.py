"""Generate a benchmark instance and inspect its candidate facility sites.

Every candidate is a vertex of the protected-point Voronoi diagram clipped
to the instance box: circumcenters of Delaunay triangles inside the square,
crossings of Voronoi edges with the square boundary, and the four corners.
They are the locally-best-cleared spots, so filtering them by clearance
finds every feasible pocket, however small.

Run: python demos/01_instance_and_candidates.py
"""

from voromedian import feasible_candidates, generate
from voromedian.candidates import write_candidates_csv

inst = generate(100)
print(f"instance: {inst.n_demand} demand points in a "
      f"{inst.box.xmax - inst.box.xmin:.0f}x{inst.box.ymax - inst.box.ymin:.0f} square, "
      f"protected set = demand set")
print(f"first points: {inst.demand_xy[:3].tolist()}")

all_xy, _ = feasible_candidates(inst, 0.0)
print(f"\n{len(all_xy)} candidate vertices in total")

dmin = 0.95
xy, clearance = feasible_candidates(inst, dmin)  # (m, 2) and (m,) arrays
print(f"{len(xy)} candidates keep a clearance of at least {dmin} miles\n")



def print_rows(rows):
    for i in rows:
        print(f"   {i + 1:2d}  {xy[i, 0]:8.5f}  {xy[i, 1]:8.5f}   {clearance[i]:.5f}")


print(" rank        x         y   clearance")
print_rows(range(10))
print("  ...")
print_rows(range(len(xy) - 2, len(xy)))

write_candidates_csv(xy, clearance, "candidates_n100.csv")
print("\nwrote candidates_n100.csv")
