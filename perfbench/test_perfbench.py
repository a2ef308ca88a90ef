"""Tests of the benchmark harness itself, at tiny image sizes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import run  # noqa: E402
from tracing import Span, Tracer, self_times_ms  # noqa: E402
from workloads import WORKLOADS, Denoise  # noqa: E402

TINY = {"denoise-1mp": 24, "sweep-256": 24, "pgm-ascii": 16}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(name, tmp_path, trace, digests=None):
    workload = WORKLOADS[name](5, tmp_path, size=TINY[name], digests=digests)
    result, lines, _ = run.measure(workload, 0.0, trace, _spec())
    return result, lines


def test_wrong_digest_raises_fail_ratio(tmp_path):
    clean, _ = _measure("denoise-1mp", tmp_path, False)
    assert clean["correct"] and clean["failed"] == 0
    wrong = dict.fromkeys(Denoise.CONFIGS, "0" * 64)
    result, lines = _measure("denoise-1mp", tmp_path, False, digests=wrong)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any(line.startswith("# attempted") and "fail_ratio 0.0000" not in line for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    result, lines = _measure(name, tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    entries = _spec()["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {e["name"]: e["unit"] for e in entries}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        latency = f"# {WORKLOADS[name].latency}"
        assert any(line.startswith(latency) and "  p50 " in line for line in lines)
    json.dumps(result)


def test_traced_denoise_records_every_config(tmp_path):
    result, _ = _measure("denoise-1mp", tmp_path, True)
    for config in Denoise.CONFIGS:
        for field in ("ms", "ns_per_px", "peak_mib", "replaced", "flagged", "useful_ratio"):
            assert result["metrics"][f"filters.{config}.{field}"]["value"] > 0
    assert result["metrics"]["bench.run_grid_ms"]["value"] == 0.0


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("op"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert [s.op_id for s in tracer.spans] == [0, 0, 0, 0]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert [round(t) for t in self_times_ms(tracer.spans)] == [4000, 2000, 3000, 1000]


def test_self_time_counts_overlapping_children_once():
    # children cover [1, 7] and, clipped to the parent, [9, 10]
    spans = [Span("op", 0, None, 0.0, 10.0), Span("a", 0, 0, 1.0, 5.0),
             Span("b", 0, 0, 3.0, 7.0), Span("c", 0, 0, 9.0, 12.0)]
    assert [round(t) for t in self_times_ms(spans)] == [3000, 4000, 4000, 3000]


def test_self_times_of_a_traced_run(tmp_path):
    workload = WORKLOADS["sweep-256"](1, tmp_path, size=TINY["sweep-256"])
    workload.setup()
    tracer = Tracer()
    for index in range(2):
        with tracer.span("op"):
            workload.op(tracer, index)
    spans = tracer.spans
    assert {s.op_id for s in spans} == {0, 1}
    for i, (span, self_ms) in enumerate(zip(spans, self_times_ms(spans))):
        children = sum(c.ms for c in spans if c.parent == i)
        assert self_ms == pytest.approx(span.ms - children, abs=1e-6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pgm-ascii", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_import_is_timed_in_fresh_interpreters():
    assert 0 < run.import_seconds() < 60
