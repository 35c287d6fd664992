"""Solve one constrained instance end to end and watch each stage.

Stage 1 restricts facilities to the feasible candidate vertices and picks
the best p of them (exact subset optimum here). Stage 2 releases the
facilities into the continuous feasible region and descends by alternating
nearest-facility assignment with per-cluster constrained Weiszfeld moves.
`solve_one` runs both; its record carries each stage's result.

Run: python demos/02_solve_pipeline.py
"""

import numpy as np

from voromedian import feasible_candidates, generate, solve_one

inst = generate(100)
dmin, p = 0.95, 5

xy, _ = feasible_candidates(inst, dmin)
print(f"{len(xy)} feasible candidates at clearance {dmin}")

record = solve_one(inst, p, dmin, mode="exact")
discrete = record.discrete
print(f"\ndiscrete stage: objective {discrete.objective:.2f} "
      f"({'proven optimal' if discrete.proven else 'heuristic'})")
for j, (x, y) in zip(discrete.selected, discrete.sites):
    print(f"  site {j:2d} at ({x:.5f}, {y:.5f})")

trace = record.refined.trace
print(f"\ncontinuous stage: objective {record.objective:.2f} "
      f"after {len(trace) - 1} rounds")
print("round trace:", " -> ".join(f"{v:.2f}" for v in trace))
for f in record.facilities:  # inst.protected_tree is the clearance oracle
    print(f"  facility at ({f[0]:.5f}, {f[1]:.5f}), "
          f"clearance {inst.protected_tree.query(f)[0]:.5f}")

moved = np.hypot(*(record.facilities - discrete.sites).T)
print(f"\nfacilities moved {moved.min():.4f}..{moved.max():.4f} miles off their seeds")
assert record.objective <= discrete.objective
