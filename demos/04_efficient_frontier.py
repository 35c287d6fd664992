"""Trade-off curve: objective versus the minimum clearance requirement.

Sweeping the clearance from 0 upward re-solves the pipeline at each value.
Larger clearances leave fewer candidate pockets, so the cost curve rises,
gently at first and steeply once whole regions become infeasible. The
envelope repair guarantees the reported curve never decreases.

Run: python demos/04_efficient_frontier.py  (under 5 s on 2 CPUs)
"""

from voromedian import generate, sweep
from voromedian.charts import write_frontier_chart
from voromedian.frontier import write_frontier_csv

inst = generate(100)
p = 5
grid = [round(0.1 * k, 1) for k in range(0, 15)]

records = sweep(inst, p, grid, seed=0)
print(" D      objective   candidates   proven  repaired")
for r in records:
    obj = f"{r.objective:9.2f}" if r.objective is not None else "      gap"
    print(f" {r.dmin:4.1f}  {obj}      {r.candidate_count:4d}      "
          f"{str(r.proven):5s}   {r.repaired}")

write_frontier_csv(records, "frontier_p5.csv")
write_frontier_chart(records, "frontier_p5.svg")
print("\nwrote frontier_p5.csv and frontier_p5.svg")

base = records[0].objective
knee = next((r for r in records if r.objective > 1.25 * base), None)
if knee:
    print(f"cost stays within 25% of the unconstrained value until about "
          f"D={knee.dmin:.1f}")
