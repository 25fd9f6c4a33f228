"""Record a benchmark baseline of this tree: every workload, untraced and traced.

    python tests/bench_record.py --host "2-vCPU shared host"

For each workload BENCHMARK.json lists, each seed n in SEEDS (1, 2 and 3)
and each of ``--trace 0`` and ``--trace 1``, runs the unchanged
``bench/run.py --workload W --seed n`` with the run length BENCHMARK.json
sets, through ``tests/ab_pairs.py``'s ``bench_run``. It then writes
``BENCH_<git describe>.json`` at the repo root with:

- ``command``: this command line;
- ``host``: the ``--host`` description, the CPU count, and for every
  workload each end-to-end metric's min, median and max over its untraced
  runs (so a later pair can tell this host's spread from a change);
- ``records``: every record ``bench/run.py`` wrote, as it wrote it, less
  ``spans_file``: that file goes with the run's temporary directory.

The exit code is nonzero when any run failed an output check; the file is
written all the same. Pytest does not collect this file (its name does not
start with ``test_``); ``tests/test_bench_baseline.py`` checks the files it
writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from ab_pairs import ROOT, bench_run

SEEDS = range(1, 4)


def describe() -> str:
    """``git describe`` of this tree, as the benchmark's records name it."""
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def spread(records: list[dict]) -> dict:
    """Each workload's min, median and max of every end-to-end metric over its untraced runs."""
    out: dict = {}
    for rec in records:
        if not rec["trace"]:
            for name, m in rec["end_to_end"].items():
                out.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return {
        workload: {name: {"min": min(v), "median": statistics.median(v), "max": max(v), "runs": len(v)}
                   for name, v in metrics.items()}
        for workload, metrics in out.items()
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", required=True, help="what the host is, as 'N-vCPU shared host'")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    name = describe()
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                records.append(bench_run(ROOT, workload, seed, trace))
                print(f"{workload} seed {seed} trace {trace} done", file=sys.stderr, flush=True)
    baseline = {
        "command": ["python", "tests/bench_record.py", *argv],
        "host": {"description": args.host, "nproc": os.cpu_count(), "spread": spread(records)},
        "records": records,
    }
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}: {len(records)} records")
    return 0 if all(rec["correct"] for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
