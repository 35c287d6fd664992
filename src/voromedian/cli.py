"""Command-line surface tying the pipeline together.

Subcommands:
  generate    write a benchmark instance file
  candidates  feasible candidate sites at a clearance, as CSV
  solve       discrete + refined solution at one clearance, as JSON
  frontier    clearance sweep, as CSV plus an SVG chart
  baseline    candidate-seeded vs random-feasible multistart comparison

Exit codes: 0 success; 2 usage (a non-finite clearance or grid bound, or a
negative seed, included); 3 infeasible or empty result; 4 I/O, parse (a
non-finite box bound or weight included) or degenerate-instance failure
(collinear, coinciding or no protected points); 5 exact mode finished
without an optimality proof.

Every solve goes through `frontier.solve_one`; `solve` reports both stages
of its record, and `baseline`'s seeded side is `solve` with default flags.
`--starts` caps the interchange multistarts, which stop once proven, and
also sets the unconstrained tries at dmin=0.

The solve/baseline JSON reports carry full-precision numbers; stdout
summaries round to 2 decimals. `baseline` reports a null gap when the seeded
objective is 0. Every command is deterministic given its full flag set,
seeds included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .candidates import EmptyObnoxiousSetError, feasible_candidates, write_candidates_csv
from .charts import write_frontier_chart
from .discrete import PROOF_TOL, InfeasibleCardinalityError
from .frontier import (
    DEFAULT_GRID_STEPS,
    DEFAULT_STARTS,
    NoFeasibleCandidatesError,
    default_grid,
    solve_one,
    sweep,
    write_frontier_csv,
)
from .geometry import CollinearSitesError, DuplicateSitesError
from .instances import InstanceParseError, generate, read_instance, write_instance
from .refine import NoFeasibleSampleError, multistart_random

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4
EXIT_UNPROVEN = 5

STARTS_HELP = ("heuristic multistarts: at most this many; stops once a Lagrangian bound "
               f"proves the incumbent within {PROOF_TOL:g} relative (also the "
               "unconstrained tries at dmin=0)")


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _nonneg_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _nonneg_float(value: str) -> float:
    x = float(value)
    if not (0 <= x < np.inf):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {x}")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voromedian",
        description="Minimum-distance constrained planar p-median solver "
        "seeded from clipped Voronoi vertices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a benchmark instance file")
    g.add_argument("--n", type=_positive_int, required=True, help="number of points (1..1000)")
    g.add_argument("--out", required=True, help="instance file to write")

    c = sub.add_parser("candidates", help="feasible candidate sites as CSV")
    c.add_argument("--instance", required=True)
    c.add_argument("--dmin", type=_nonneg_float, required=True, help="minimum clearance")
    c.add_argument("--out", required=True, help="CSV file to write")

    s = sub.add_parser("solve", help="solve at one clearance, JSON report")
    s.add_argument("--instance", required=True)
    s.add_argument("--dmin", type=_nonneg_float, required=True)
    s.add_argument("--p", type=_positive_int, required=True)
    s.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto",
                   help="discrete solver (auto: exact up to 10^7 p-subsets); no effect at --dmin 0")
    s.add_argument("--starts", type=_positive_int, default=DEFAULT_STARTS,
                   help=STARTS_HELP)
    s.add_argument("--seed", type=_nonneg_int, default=0)
    s.add_argument("--out", required=True, help="JSON report to write")

    f = sub.add_parser("frontier", help="clearance sweep: CSV + SVG chart")
    f.add_argument("--instance", required=True)
    f.add_argument("--p", type=_positive_int, required=True)
    f.add_argument("--grid-max", type=float, default=None,
                   help="largest clearance (default: 1.2x best candidate clearance)")
    f.add_argument("--grid-steps", type=_nonneg_int, default=DEFAULT_GRID_STEPS,
                   help="uniform steps from 0 to grid-max (0: the single point D=0)")
    f.add_argument("--out-csv", required=True)
    f.add_argument("--out-svg", required=True)
    f.add_argument("--workers", type=_positive_int, default=os.cpu_count() or 1,
                   help="parallel grid-point workers (at most one per grid point)")
    f.add_argument("--seed", type=_nonneg_int, default=0)
    f.add_argument("--starts", type=_positive_int, default=DEFAULT_STARTS,
                   help=STARTS_HELP)

    b = sub.add_parser("baseline", help="seeded vs random-start comparison")
    b.add_argument("--instance", required=True)
    b.add_argument("--dmin", type=_nonneg_float, required=True)
    b.add_argument("--p", type=_positive_int, required=True)
    b.add_argument("--tries", type=_positive_int, required=True,
                   help="random feasible starting tuples")
    b.add_argument("--seed", type=_nonneg_int, default=0)
    b.add_argument("--out", required=True, help="JSON report to write")
    return parser


def _write_json(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def cmd_generate(args) -> int:
    try:
        instance = generate(args.n)
    except ValueError as exc:
        print(f"error: --n: {exc}", file=sys.stderr)
        return EXIT_USAGE
    write_instance(instance, args.out)
    print(f"wrote {args.out} (n={args.n})")
    return EXIT_OK


def cmd_candidates(args) -> int:
    instance = read_instance(args.instance)
    xy, clearance = feasible_candidates(instance, args.dmin)
    write_candidates_csv(xy, clearance, args.out)
    print(f"m={len(xy)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    record = solve_one(instance, args.p, args.dmin, mode=args.mode, starts=args.starts,
                       seed=args.seed)
    dsol, rsol = record.discrete, record.refined
    report = {
        "command": "solve",
        "instance": args.instance,
        "dmin": args.dmin,
        "p": args.p,
        "mode": args.mode,
        "seed": args.seed,
        "m": record.candidate_count,
        "discrete": None if dsol is None else {
            "objective": dsol.objective,
            "selected": list(dsol.selected),
            "sites": dsol.sites.tolist(),
            "proven": dsol.proven,
            "stats": dsol.stats,
        },
        "refined": {
            "objective": rsol.objective,
            "facilities": rsol.facilities.tolist(),
            "assignment": rsol.assignment.tolist(),
            "trace": rsol.trace,
            "stats": rsol.stats,
        },
    }
    if dsol is None:
        print("unconstrained mode (dmin=0)")
    else:
        print(f"m={record.candidate_count}")
        print(f"discrete objective: {dsol.objective:.2f}"
              + (" (proven optimal over candidates)" if dsol.proven else " (heuristic)"))
    print(f"refined objective: {record.objective:.2f}")
    _write_json(report, args.out)
    unproven_exact = args.mode == "exact" and dsol is not None and not dsol.proven
    return EXIT_UNPROVEN if unproven_exact else EXIT_OK


def cmd_frontier(args) -> int:
    instance = read_instance(args.instance)
    if args.grid_max is None:
        grid = default_grid(instance, args.grid_steps)
    else:
        if not (0 < args.grid_max < np.inf):
            print("error: --grid-max must be finite and > 0", file=sys.stderr)
            return EXIT_USAGE
        grid = np.linspace(0.0, args.grid_max, args.grid_steps + 1)
    records = sweep(instance, args.p, grid, starts=args.starts, seed=args.seed,
                    workers=args.workers)
    write_frontier_csv(records, args.out_csv)
    solved = [r for r in records if r.objective is not None]
    if not solved:
        print("no grid point was solvable (all gaps)", file=sys.stderr)
        return EXIT_INFEASIBLE
    write_frontier_chart(records, args.out_svg)
    gaps = len(records) - len(solved)
    print(f"wrote {args.out_csv} and {args.out_svg} "
          f"({len(solved)} points, {gaps} gaps, objective "
          f"{solved[0].objective:.2f}..{solved[-1].objective:.2f})")
    return EXIT_OK


def cmd_baseline(args) -> int:
    instance = read_instance(args.instance)
    seeded = solve_one(instance, args.p, args.dmin, seed=args.seed)
    random_best = multistart_random(instance, args.dmin, args.p,
                                    tries=args.tries, seed=args.seed)
    gap = (None if seeded.objective == 0
           else (random_best.objective - seeded.objective) / seeded.objective)
    report = {
        "command": "baseline",
        "instance": args.instance,
        "dmin": args.dmin,
        "p": args.p,
        "tries": args.tries,
        "seed": args.seed,
        "candidate_seeded_objective": seeded.objective,
        "random_multistart_objective": random_best.objective,
        "gap_fraction": gap,
        "candidate_seeded_facilities": seeded.facilities.tolist(),
        "random_multistart_facilities": random_best.facilities.tolist(),
        "candidate_seeded_stats": {"discrete": None if seeded.discrete is None
                                   else seeded.discrete.stats, "refined": seeded.refined.stats},
        "random_multistart_stats": random_best.stats,
    }
    print(f"candidate-seeded objective: {seeded.objective:.2f}")
    print(f"random multistart objective ({args.tries} tries): {random_best.objective:.2f}")
    print("gap: undefined (seeded objective is 0)" if gap is None else f"gap: {100 * gap:.2f}%")
    _write_json(report, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "candidates": cmd_candidates,
        "solve": cmd_solve,
        "frontier": cmd_frontier,
        "baseline": cmd_baseline,
    }
    try:
        return handlers[args.command](args)
    except InstanceParseError as exc:
        print(f"error: cannot parse instance: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CollinearSitesError, DuplicateSitesError, EmptyObnoxiousSetError) as exc:
        print(f"error: degenerate instance: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NoFeasibleCandidatesError, InfeasibleCardinalityError,
            NoFeasibleSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
