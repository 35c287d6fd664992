"""End-to-end and per-stage benchmark of the voromedian pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/`. One process runs one solve at a time in a closed loop (no worker
pool). The paper's instance is generated, written to a file and loaded with
`read_instance`. Op i of a run passes a solver seed derived from `--seed`
(op 0 passes `--seed` itself), so the same seed gives the same inputs and a
run's median spans several seeds.

`--trace 0` prints the end-to-end metrics: median op wall time, median
fresh-interpreter set-up time, median objective of the first ops and peak
RSS. It makes at least OPS_MIN ops, and its set-up samples (at least
SETUP_MIN) fill what the ops leave of `--seconds`. `--trace 1` alternates
untraced and traced ops and prints the per-layer metrics, derived from
spans recorded around the calls into each module (see tracing.py).
The last stdout line is the result object; the line before it, also saved
under `.bench_build/perfbench/`, holds per-op detail and provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
# At least two untraced ops, so that wall_s is never one sample: a solve op
# takes 16-21 s on a 2-vCPU host, and only one may fit the run's seconds.
# The objective is the median over these first ops, whose number does not
# depend on timing, so it is deterministic for a given seed.
OPS_MIN = 2
SETUP_MIN = 7
SETUP_TIMEOUT_S = 60
instances = workloads = None  # set by import_program()

# A fresh interpreter up to a loaded instance: what every CLI call pays.
# perf_counter is CLOCK_MONOTONIC, so the child's reading is comparable
# with the parent's start time.
SETUP_CHILD = """\
import sys, time
import voromedian
inst = voromedian.read_instance(sys.argv[1])
print(time.perf_counter(), inst.n_demand, voromedian.__file__)
"""


def import_program() -> None:
    """Import the package from this checkout's src/ (and the modules that
    use it). Deferred so that a checkout without src/ fails cleanly."""
    global instances, workloads
    sys.path.insert(0, str(SRC))
    from voromedian import instances

    import workloads


def op_seeds(seed: int):
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def measure_setup(path: Path, n: int, deadline: float) -> list[float]:
    """Set-up times of fresh interpreters loading `path`: SETUP_MIN of them,
    then more while the next would end by `deadline` (a perf_counter time)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times: list[float] = []
    while len(times) < SETUP_MIN or time.perf_counter() + statistics.median(times) <= deadline:
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(path)], env=env,
                             cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S)
        ready, n_read, module = out.stdout.split()
        if int(n_read) != n or not Path(module).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child loaded {n_read} points from {module}")
        times.append(float(ready) - t0)
    return times


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        rev = out.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "git_rev": rev, "src_lines": src_lines}


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(times)[n - 11]}


class Runner:
    """Ops of one workload in a closed loop, with their checks."""

    def __init__(self, workload, instance, seed: int):
        self.w = workload
        self.instance = instance
        self.seeds = op_seeds(seed)
        self.records: list[dict] = []

    def op(self, seed: int, around=contextlib.nullcontext, **extra) -> float:
        """One timed call, checked; returns its wall time."""
        t0 = time.perf_counter()
        try:
            with around():
                out = workloads.run_op(self.w, self.instance, seed)
            errors = None
        except Exception:  # a raising op is a failed op, not a failed run
            out, errors = None, [traceback.format_exc()]
        wall = time.perf_counter() - t0
        if errors is None:
            errors = workloads.check(self.w, self.instance, out)
        self.records.append({
            "seed": seed, "wall_s": wall, "objective": out.objective if out else None,
            "proven": [pt.proven for pt in out.points if pt.proven is not None] if out else [],
            "errors": errors, **extra})
        return wall

    def loop(self, seconds: float, step, at_least: int = 1) -> None:
        """Call step(seed) `at_least` times, then until the next call would
        end past `seconds`."""
        start = time.perf_counter()
        durations = []
        while True:
            durations.append(step(next(self.seeds)))
            if (len(durations) >= at_least
                    and time.perf_counter() - start + statistics.median(durations) > seconds):
                return

    @property
    def failed(self) -> int:
        return sum(bool(r["errors"]) for r in self.records)


def load_instance(n: int, path: Path, tracer=None):
    """Generate the paper instance, write it to `path`, load it with
    read_instance (traced when a tracer is given)."""
    generated = instances.generate(n)
    instances.write_instance(generated, path)
    with tracer.installed() if tracer else contextlib.nullcontext():
        instance = instances.read_instance(path)
    for a, b in ((generated.demand_xy, instance.demand_xy), (generated.weights, instance.weights),
                 (generated.obnoxious_xy, instance.obnoxious_xy)):
        if a.shape != b.shape or (a != b).any():
            raise RuntimeError("instance file does not round-trip")
    return instance


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result, detail) of one benchmark run."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "provenance": provenance()}
    tracer = tracing.Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        path = Path(tmp) / f"congruential-{workload.n}.txt"
        instance = load_instance(workload.n, path, tracer)
        runner = Runner(workload, instance, seed)
        if not trace:
            deadline = time.perf_counter() + seconds
            runner.loop(seconds, runner.op, at_least=OPS_MIN)
            setup = measure_setup(path, workload.n, deadline)
        else:
            untraced, traced = [], []

            def pair(s: int) -> float:
                untraced.append(runner.op(s, traced=False))
                tracer.run += 1
                with tracer.installed():
                    traced.append(runner.op(s, around=lambda: tracer.span("op"), traced=True))
                return untraced[-1] + traced[-1]

            runner.loop(seconds, pair)
    if not trace:
        walls = [r["wall_s"] for r in runner.records]
        objectives = [r["objective"] for r in runner.records[:OPS_MIN]
                      if r["objective"] is not None]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "objective": (statistics.median(objectives) if objectives else 0.0, "miles"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        proven = [p for r in runner.records for p in r["proven"]]
        detail.update(setup_s=setup, wall_samples=len(walls), wall_tail=tail(walls),
                      proven_frac=sum(proven) / len(proven) if proven else None)
    else:
        layers = tracing.layer_metrics(tracer.spans, len(traced), tracer.sample_attempts,
                                       workloads.FRONTIER_GRID)
        layers["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
        metrics = {k: (v, tracing.unit(k)) for k, v in layers.items()}
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    detail.update(failed_frac=runner.failed / len(runner.records), ops=runner.records)
    result = {"correct": runner.failed == 0, "attempted": len(runner.records),
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "voromedian" / "__init__.py").is_file():
        print(f"perfbench: no voromedian package under {SRC}", file=sys.stderr)
        return 2
    import_program()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, detail = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))
    line = json.dumps(detail)
    name = f"detail-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
