"""Golden outputs of the CLI and the demos, for a byte-for-byte comparison.

    python tools/golden_outputs.py <src-dir> <out-dir>

<src-dir> is a source checkout: the runs import the package from its
`src/` and run the scripts in its `demos/`. Every run works in <out-dir>
and names its files relative to it, and the two directory names are
rewritten to `<src>` and `<out>` in what a run prints, so no output depends
on where the checkout or the outputs live. Each run leaves
`<out-dir>/<name>.log` (exit code, stdout, stderr) next to the files it
writes. Two checkouts compare with one command:

    python tools/golden_outputs.py <parent-checkout> <dir>/parent
    python tools/golden_outputs.py . <dir>/change
    diff -r <dir>/parent <dir>/change

The CLI runs and the demos take ~20 s in all on 2 CPUs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

CLI = "import sys; from voromedian.cli import main; sys.exit(main(sys.argv[1:]))"
INSTANCE = ["--instance", "inst100.txt"]


def frontier(name: str, *args: str) -> tuple[str, list[str]]:
    return name, ["frontier", *INSTANCE, *args,
                  "--out-csv", f"{name}.csv", "--out-svg", f"{name}.svg"]


# (name, CLI arguments); `generate` comes first, the others read its instance
RUNS = [
    ("generate", ["generate", "--n", "100", "--out", "inst100.txt"]),
    ("candidates", ["candidates", *INSTANCE, "--dmin", "0.95", "--out", "candidates.csv"]),
    ("solve-exact", ["solve", *INSTANCE, "--dmin", "0.95", "--p", "2", "--mode", "exact",
                     "--out", "solve-exact.json"]),
    ("solve-heuristic", ["solve", *INSTANCE, "--dmin", "1.1", "--p", "3", "--mode", "heuristic",
                         "--out", "solve-heuristic.json"]),
    ("solve-heuristic-proven", ["solve", *INSTANCE, "--dmin", "0.43", "--p", "15",
                                "--mode", "heuristic", "--out", "solve-heuristic-proven.json"]),
    ("solve-p1", ["solve", *INSTANCE, "--dmin", "0.95", "--p", "1", "--mode", "heuristic",
                  "--out", "solve-p1.json"]),
    ("solve-d0", ["solve", *INSTANCE, "--dmin", "0", "--p", "2", "--starts", "5",
                  "--out", "solve-d0.json"]),
    ("solve-no-candidates", ["solve", *INSTANCE, "--dmin", "5", "--p", "2",
                             "--out", "solve-no-candidates.json"]),
    ("solve-fewer-than-p", ["solve", *INSTANCE, "--dmin", "1.6", "--p", "4",
                            "--out", "solve-fewer-than-p.json"]),
    frontier("frontier-workers2", "--p", "3", "--grid-max", "1.5", "--grid-steps", "6",
             "--workers", "2"),
    frontier("frontier-default-grid", "--p", "4", "--grid-steps", "8", "--workers", "1"),
    frontier("frontier-gap", "--p", "4", "--grid-max", "1.8", "--grid-steps", "4"),
    ("baseline", ["baseline", *INSTANCE, "--dmin", "0.95", "--p", "5", "--tries", "10",
                  "--out", "baseline.json"]),
]


def run(name: str, argv: list[str], src: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src / "src")}
    proc = subprocess.run([sys.executable, *argv], cwd=out, env=env,
                          capture_output=True, text=True)
    text = f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
    for path, label in ((out, "<out>"), (src, "<src>")):
        text = text.replace(str(path), label)
    (out / f"{name}.log").write_text(text, encoding="utf-8")
    print(f"{name}: exit {proc.returncode}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    for name, args in RUNS:
        run(name, ["-c", CLI, *args], src, out)
    for demo in sorted((src / "demos").glob("*.py")):
        run(demo.stem, [str(demo)], src, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
