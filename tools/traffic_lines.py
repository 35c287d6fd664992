"""Statements of the package that ordinary traffic never runs.

    python tools/traffic_lines.py <checkout>

Line-traces (`sys.settrace`) the package under `<checkout>/src` while it
serves three kinds of traffic, all in this one process:

- one `perfbench/workloads.run_op` op per benchmark workload at seed 0, on
  the instance written and re-read as `perfbench/run.py` does (the benchmark
  files are imported, not copied);
- the CLI runs of `tools/golden_outputs.RUNS`, through `cli.main`;
- every script in `<checkout>/demos`, through `runpy`.

Everything runs in a temporary directory. The script prints each statement
of `src/voromedian` that never ran as `file:line: code`, and exits 0. A
statement counts as run when any line of it ran (for a compound statement,
any line of its header); statements that compile to no code, such as
function docstrings, are left out.

Pool children are not traced, so every CLI run goes at `--workers 1` and the
pool lines show as never run. A run takes about 20 s on 2 CPUs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import types
from pathlib import Path


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of a nested statement."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return range(first, body[0].lineno)
    return range(node.lineno, node.end_lineno + 1)


def code_lines(code: types.CodeType) -> set[int]:
    """Every line that some instruction of `code`, nested code included, is on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def never_ran(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    has_code = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    missed = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            lines = set(own_lines(node))
            if lines & has_code and not lines & hit:
                missed.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(missed)


def traffic(checkout: Path) -> None:
    sys.path.insert(0, str(checkout / "perfbench"))
    sys.path.insert(0, str(checkout / "tools"))
    import golden_outputs
    import run as bench

    bench.import_program()  # imports the package from <checkout>/src
    from voromedian import cli

    for w in bench.workloads.WORKLOADS.values():
        instance = bench.load_instance(w.n, Path(f"congruential-{w.n}.txt"))
        bench.workloads.run_op(w, instance, 0)
    for _, args in golden_outputs.RUNS:
        # pool children are not traced; argparse keeps the last --workers
        cli.main(args + ["--workers", "1"] if args[0] == "frontier" else args)
    for demo in sorted((checkout / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    package = checkout / "src" / "voromedian"
    prefix = f"{package}{os.sep}"
    hits: dict[str, set[int]] = {}

    def on_line(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        os.chdir(tmp)
        sys.settrace(on_call)
        try:
            traffic(checkout)
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    for path in sorted(package.glob("*.py")):
        for line, code in never_ran(path, hits.get(str(path), set())):
            print(f"{path.relative_to(checkout)}:{line}: {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
