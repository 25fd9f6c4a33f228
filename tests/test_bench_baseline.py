"""The committed benchmark baselines (``BENCH_*.json``, written by
``tests/bench_record.py``) still read against BENCHMARK.json."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASELINES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_baseline_is_committed():
    assert BASELINES


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_every_record_names_each_end_to_end_metric_and_is_correct(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    records = json.loads(path.read_text(encoding="utf-8"))["records"]
    assert {r["workload"] for r in records} == {w["name"] for w in spec["workloads"]}
    for r in records:
        assert {name: r["end_to_end"].get(name, {}).get("unit") for name in units} == units
        assert r["correct"] is True
