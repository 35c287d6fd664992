"""Smoke test of the benchmark harness on a tiny instance (n=30, p=3).

    python3 -m pytest perfbench
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

run.import_program()
WORKLOADS = run.workloads.WORKLOADS
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    tiny = dataclasses.replace(WORKLOADS[name], n=30, p=3)
    result, detail = run.run_workload(tiny, seed=3, seconds=0.01, trace=trace)
    assert result["correct"], detail["ops"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    json.dumps(result, allow_nan=False)
    assert set(detail["provenance"]) == {"nproc", "python", "numpy", "scipy",
                                         "blas_threads", "git_rev", "src_lines"}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
        for module_name, attr, _, _ in tracing.PATCHES:
            assert not hasattr(getattr(importlib.import_module(module_name), attr),
                               "__wrapped__"), (module_name, attr)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-n1000-p20",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_coverage_drops_when_a_stage_span_is_missing():
    def spans(with_refine):
        out = [tracing.Span(0, None, "op", 0.0, 10.0, 0),
               tracing.Span(1, 0, "refine.multistart", 0.0, 10.0, 0)]
        if with_refine:
            out.append(tracing.Span(2, 1, "refine.refine", 0.5, 9.5, 0))
        return out

    coverage = [tracing.layer_metrics(spans(w), 1, 0, ())["trace.coverage"]
                for w in (True, False)]
    assert coverage == pytest.approx([0.9, 0.0])
