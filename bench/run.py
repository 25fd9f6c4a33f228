"""gapsl benchmark: closed-loop training workloads timed from outside the library.

    python3 bench/run.py                       # every workload, end-to-end table
    python3 bench/run.py --trace 1             # every workload, per-layer table
    python3 bench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Each workload runs in its own process (bench/workload.py) with the
BLAS/OpenMP thread pools pinned to one thread, so peak memory, warm
caches and leftover sockets stay with the workload that made them. With
``--workload`` the child's output is passed through unchanged: metric
lines with units and sample counts, then one JSON result line. Without
it every workload listed in BENCHMARK.json runs in turn and a table of
all of them closes the output. The exit code is nonzero when any output
check fails or a workload does not finish within its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def result_path(workload: str, args: argparse.Namespace) -> Path:
    return args.out / f"{workload}-seed{args.seed}-trace{args.trace}.json"


def run_workload(workload: str, args: argparse.Namespace) -> tuple[int, str]:
    """Run one workload in a fresh process; returns (exit code, its stdout)."""
    result_path(workload, args).unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(args.out),
    ]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **PINNED},
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: workload {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def table(results: list[tuple[str, int]], args: argparse.Namespace) -> str:
    lines = [f"{'workload':<13} {'metric':<46} {'value':>14} {'unit':<10} samples"]
    for workload, code in results:
        path = result_path(workload, args)
        if not path.exists():
            lines.append(f"{workload:<13} (no result, exit code {code})")
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        metrics = record["per_layer"] if args.trace else {**record["end_to_end"], **record["informational"]}
        for name, m in metrics.items():
            lines.append(f"{workload:<13} {name:<46} {m['value']:>14.6g} {m['unit']:<10} {m.get('samples', '')}")
        lines.append(f"{workload:<13} {'correct':<46} {str(record['correct']):>14}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed n: config seeds 3n+1..3n+3")
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="override the config's rounds (smoke runs only)")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="result directory")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "gapsl", ROOT / "configs" / "desk_noniid.cfg") if not p.exists()]
    if missing:
        print(f"error: not a gapsl checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.out = args.out.resolve()

    if args.workload is not None:
        code, out = run_workload(args.workload, args)
        sys.stdout.write(out)
        return code

    results = []
    for workload in (w["name"] for w in spec["workloads"]):
        code, out = run_workload(workload, args)
        sys.stdout.write(out)
        results.append((workload, code))
    print(table(results, args))
    return 0 if all(code == 0 for _, code in results) else 1


if __name__ == "__main__":
    sys.exit(main())
