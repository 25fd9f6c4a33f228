"""Tests for the benchmark itself: span arithmetic, wrapping, smoke runs."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

from catalog import END_TO_END, PER_LAYER
from tracing import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_of_nested_overlapping_and_cross_thread_spans():
    spans = [
        Span("root", 0, 100, None, 1, "r"),
        Span("a", 10, 30, 0, 1, "r"),
        Span("b", 20, 50, 0, 1, "r"),       # overlaps a: the union [10, 50] counts once
        Span("a.inner", 12, 18, 1, 1, "r"),  # grandchild: only subtracted from a
        Span("other", 40, 90, 0, 2, "r"),    # names root as parent but runs on another thread
        Span("late", 90, 120, 0, 1, "r"),    # runs past its parent: clipped to [90, 100]
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 6, 50, 30]


def test_tracer_spans_counters_and_restore():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    mod.hot = lambda x: x
    mod.parse = lambda buf: None if not buf else len(buf)
    originals = dict(vars(mod))

    tracer = Tracer()
    tracer.wrap_span(mod, "outer", "outer")
    tracer.wrap_span(mod, "inner", "inner", on_result=lambda r: tracer.add("sizes", r))
    tracer.wrap_counter(mod, "hot", "hot")
    tracer.wrap_counter(mod, "parse", "parse", timed=True)
    tracer.wrap_counter(mod, "absent", "absent")
    try:
        tracer.trace_id = 7
        assert mod.outer(1) == 4
        with tracer.span("benchmark"):
            for _ in range(3):
                mod.hot(0)
            mod.parse(b"")
            mod.parse(b"abc")
        worker = threading.Thread(target=lambda: [mod.hot(0), mod.parse(b"x")])
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.restore()

    assert {k: v for k, v in vars(mod).items() if k in originals} == originals
    assert tracer.skipped == ["fake.absent"]
    spans = tracer.spans()
    assert [s.name for s in spans] == ["outer", "inner", "benchmark"]
    assert spans[1].parent == 0 and spans[0].parent is None and spans[2].parent is None
    assert all(s.trace == 7 and s.end >= s.start for s in spans)
    assert spans[2].counted_ns > 0 and spans[0].counted_ns == 0
    assert tracer.counter("hot")[0] == 4
    calls, ns, frames = tracer.counter("parse")
    assert (calls, frames) == (3, 2) and ns > 0
    assert tracer.counter("sizes") == (1, 0, 2)


def test_benchmark_json_matches_catalog_and_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    from workload import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_report_checks_flag_non_finite_loss_and_bad_accuracy():
    from workload import Phase, Workload

    phase = Phase()
    report = types.SimpleNamespace(round=3, train_loss=math.nan, train_losses={0: 1.0}, accuracy=1.5)
    Workload._check_report(report, seed=1, phase=phase)
    assert len(phase.problems) == 2


def test_host_clock_rescales_only_the_cpu_part():
    from workload import CALIB_REF_NS, HostClock

    clock = HostClock()
    clock.times, clock.kernel_ns = [100, 200], [2 * CALIB_REF_NS, 4 * CALIB_REF_NS]
    assert clock.slowdown(50) == 2.0       # before the first calibration
    assert clock.slowdown(150) == 3.0      # between two: their mean
    assert clock.slowdown(250) == 4.0      # after the last
    assert clock.normalize((150, 900, 600)) == 300 + 600 / 3  # the 300 ns of waiting stay
    assert clock.normalize((150, 900, 0)) == 900
    assert clock.normalize((150, 900, 1800)) == 900 / 3       # two busy threads: all of it is CPU


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["desk", "cohort100", "tcp_loopback"])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
                "--rounds", "5", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 15
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m.name: m.unit for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace and workload == "cohort100":
        assert result["metrics"]["geometry.angle_evals_per_round"]["value"] == 4950 + 9900 + 100
        assert result["metrics"]["nn.server_passes_per_round"]["value"] == 100
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
