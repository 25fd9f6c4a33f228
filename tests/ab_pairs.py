"""Alternating benchmark pairs: this tree against another checkout.

    python tests/ab_pairs.py OTHER_CHECKOUT --workload W [--pairs N] [--records PATH]

Pair i (i = 1..N, default N = 10) runs ``bench/run.py --workload W --seed
i`` once in this tree and once in OTHER_CHECKOUT, each with its own
``bench/run.py`` and the run length its BENCHMARK.json sets. Odd pairs run
the other checkout first, even pairs this tree first, so drift on the host
falls on both sides alike. Each run writes its result files to a temporary
directory, never into either ``bench/``.

For every end-to-end metric of this tree's BENCHMARK.json the command
prints each side's median and quartiles, the change of this tree's median
relative to the other's, and the pairs this tree wins (ties count for
neither side), reading "better" from BENCHMARK.json. Two verdicts close
each row:

- claim: this tree wins at least nine tenths of the pairs, and its median
  is better than the other's by more than the distance between the other's
  quartiles;
- bound: "worse" when this tree's median is worse than the other's by more
  than the metric's bound (a fraction of the other's median),
  "unresolved" when the other's quartile spread is wider than the bound
  and not every run of this tree reads better than every run of the other,
  else "ok".

It also prints each side's failed share of attempted rounds. With
``--records PATH`` it writes both sides' records to PATH in
``tests/bench_record.py``'s layout: ``command``, ``host`` (the CPU count)
and ``records``, each record as ``bench/run.py`` wrote it plus its
``side`` ("this" or "other"). So a perf change can commit its before/after
pair, under a name such as ``PAIRS_<workload>.json``: a ``BENCH_*.json``
name would read as a baseline of every workload to
``tests/test_bench_baseline.py``, and is refused. Pytest does not collect
this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``; returns the record it wrote,
    less ``spans_file``: that file goes with the temporary directory."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out", out]
        done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
        path = Path(out) / f"{workload}-seed{seed}-trace{trace}.json"
        if not path.exists():  # a failed output check still writes its record, and exits 1
            raise SystemExit(f"bench/run.py in {checkout} (workload {workload}, seed {seed}, trace {trace}) "
                             f"exited with status {done.returncode} and wrote no record")
        rec = json.loads(path.read_text(encoding="utf-8"))
    rec.pop("spans_file", None)
    return rec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdicts(this: list[float], other: list[float], better: str, bound: float) -> dict:
    """The row of one metric: this tree's runs ``this`` against the other
    checkout's ``other``, pair by pair."""
    sign = 1.0 if better == "higher" else -1.0  # sign * (a - b) > 0: a is better than b
    t1, t_med, t3 = quartiles(this)
    o1, o_med, o3 = quartiles(other)
    wins = sum(sign * (a - b) > 0 for a, b in zip(this, other))
    gain = sign * (t_med - o_med)  # > 0: this tree's median is better
    claim = wins >= 0.9 * len(this) and gain > o3 - o1
    if -gain > bound * abs(o_med):
        status = "worse"
    elif o3 - o1 > bound * abs(o_med) and not all(sign * (a - b) > 0 for a in this for b in other):
        status = "unresolved"
    else:
        status = "ok"
    change = (t_med - o_med) / abs(o_med) if o_med else math.nan
    return {"this": (t1, t_med, t3), "other": (o1, o_med, o3), "change": change,
            "wins": wins, "claim": claim, "bound": status}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare against (its root)")
    parser.add_argument("--workload", required=True, help="a workload BENCHMARK.json lists")
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run, seeds 1..N (default 10)")
    parser.add_argument("--records", type=Path, help="write both sides' records to this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")
    if not (args.other / "bench" / "run.py").is_file():
        parser.error(f"{args.other} holds no bench/run.py")
    if args.records and args.records.match("BENCH_*.json"):
        parser.error("--records: a BENCH_*.json name is a baseline's; name the pair file otherwise")

    runs: dict[str, list[dict]] = {"this": [], "other": []}
    for seed in range(1, args.pairs + 1):
        order = [("other", args.other), ("this", ROOT)]
        for side, checkout in order if seed % 2 else order[::-1]:
            runs[side].append(bench_run(checkout, args.workload, seed, trace=0))
        print(f"pair {seed}/{args.pairs} done", file=sys.stderr, flush=True)
    if args.records:
        records = [{**r, "side": side} for side in ("other", "this") for r in runs[side]]
        pairs = {"command": ["python", "tests/ab_pairs.py", *argv], "host": {"nproc": os.cpu_count()},
                 "records": records}
        args.records.write_text(json.dumps(pairs, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload}: {args.pairs} pairs, this tree {ROOT} against {args.other}")
    print(f"{'metric':<20} {'unit':<10} {'other median [q1, q3]':>34} {'this median [q1, q3]':>34} "
          f"{'change':>8} {'wins':>6}  claim  bound")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        this = [r["end_to_end"][name]["value"] for r in runs["this"]]
        other = [r["end_to_end"][name]["value"] for r in runs["other"]]
        row = verdicts(this, other, metric["better"], metric["bound"])
        cols = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]" for q1, m, q3 in (row["other"], row["this"])]
        print(f"{name:<20} {metric['unit']:<10} {cols[0]:>34} {cols[1]:>34} {row['change']:>+8.2%} "
              f"{row['wins']:>3}/{args.pairs:<2}  {'yes' if row['claim'] else 'no':<5}  {row['bound']}")
    for side in ("other", "this"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"{side}: {failed}/{attempted} rounds failed, {wrong} runs with a failed output check")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
