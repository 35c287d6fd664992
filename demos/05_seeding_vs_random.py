"""Candidate-vertex seeding versus random feasible multistart.

Both sides refine with the same continuous descent; only the starting
configurations differ. Random starts almost never land in the small
feasible pockets, so with more facilities the random side falls behind
even with many more tries.

Run: python demos/05_seeding_vs_random.py  (about 7 s on 2 CPUs)
"""

from voromedian import feasible_candidates, generate, multistart_random, solve_one

inst = generate(100)
dmin = 0.95
xy, _ = feasible_candidates(inst, dmin)

print(f"n=100, clearance {dmin}, {len(xy)} candidates\n")
print("  p   seeded   random(100 tries)    gap")
for p in (2, 5, 10, 15, 20):
    # interchange over the candidates, then refine from the selected sites
    seeded = solve_one(inst, p, dmin, mode="heuristic", starts=100, seed=1)
    rand = multistart_random(inst, dmin, p, tries=100, seed=7)
    gap = (rand.objective - seeded.objective) / seeded.objective
    print(f" {p:2d}  {seeded.objective:7.2f}        {rand.objective:7.2f}     "
          f"{100 * gap:+6.2f}%")

print("\nthe seeded side also runs far fewer refinements: one per p "
      "instead of one per try")
