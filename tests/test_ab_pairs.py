"""``tests/ab_pairs.py --records``: both sides' records in the baseline layout."""

import json

import pytest

import ab_pairs

ROOT = ab_pairs.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def other(tmp_path, monkeypatch):
    """A checkout with a bench/run.py, and a bench_run that records its calls
    instead of running anything."""
    (tmp_path / "other" / "bench").mkdir(parents=True)
    (tmp_path / "other" / "bench" / "run.py").write_text("")
    calls = []

    def bench_run(checkout, workload, seed, trace):
        calls.append((checkout, seed))
        value = float(seed) + (checkout == ab_pairs.ROOT)
        return {"workload": workload, "seed": seed, "trace": trace, "attempted": 10, "failed": 0,
                "correct": True, "end_to_end": {m["name"]: {"value": value, "unit": m["unit"]}
                                                for m in SPEC["end_to_end"]}}

    monkeypatch.setattr(ab_pairs, "bench_run", bench_run)
    return tmp_path / "other", calls


def test_records_holds_both_sides_in_the_baseline_layout(other, tmp_path, capsys):
    checkout, calls = other
    path = tmp_path / "PAIRS_desk.json"
    argv = [str(checkout), "--workload", "desk", "--pairs", "3", "--records", str(path)]
    assert ab_pairs.main(argv) == 0
    # odd pairs run the other checkout first
    assert calls == [(checkout, 1), (ab_pairs.ROOT, 1), (ab_pairs.ROOT, 2), (checkout, 2),
                     (checkout, 3), (ab_pairs.ROOT, 3)]
    written = json.loads(path.read_text(encoding="utf-8"))
    assert list(written) == ["command", "host", "records"]
    assert written["command"] == ["python", "tests/ab_pairs.py", *argv]
    assert written["host"]["nproc"] >= 1
    assert [(r["side"], r["seed"]) for r in written["records"]] == [
        ("other", 1), ("other", 2), ("other", 3), ("this", 1), ("this", 2), ("this", 3)]
    assert all(r["workload"] == "desk" and r["correct"] for r in written["records"])
    assert "desk: 3 pairs" in capsys.readouterr().out
    assert path not in ROOT.glob("BENCH_*.json")


def test_records_refuses_a_baseline_name(other, tmp_path, capsys):
    checkout, calls = other
    with pytest.raises(SystemExit) as stop:
        ab_pairs.main([str(checkout), "--workload", "desk", "--records", str(tmp_path / "BENCH_x.json")])
    assert stop.value.code == 2 and calls == []
    assert "BENCH_*.json" in capsys.readouterr().err
