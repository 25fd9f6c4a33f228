"""Paired seed statistics of one config on this tree and another checkout.

    python tests/seed_noise.py OTHER_CHECKOUT [NAME] [--seeds A-B]

``NAME`` is a config of ``tests/fingerprints.py``'s ``MATRIX`` (default
``desk``): the desk config (``configs/desk_noniid.cfg``) with that entry's
overrides. Each checkout runs seeds A-B (default 1-10) in its own
subprocess, importing the package from its own ``src/``; both read this
tree's config file and overrides. A ``tcp`` entry runs in process, as its
in-process twin, whose bits the fingerprints show it replays.

The command prints each seed's final accuracy and run-mean pairwise
deviation on both checkouts, then each metric's paired mean difference
(this tree minus the other) with its standard error, and the number of
seeds on which the two are identical. Pytest does not collect this file
(its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESK = ROOT / "configs" / "desk_noniid.cfg"
METRICS = ("final_accuracy", "pairwise_dev")


def worker(src: str, overrides: dict[str, str], seeds: list[int]) -> None:
    """Run ``seeds`` in process with the package found in ``src`` and print
    one JSON line per seed."""
    sys.path.insert(0, src)
    import numpy as np
    from gapsl.config import parse_config
    from gapsl.orchestrator import run_experiment

    overrides = {k: v for k, v in overrides.items() if k not in ("transport", "listen")}
    cfg = parse_config(str(DESK), {**overrides, "seeds": ",".join(map(str, seeds))})
    for seed in cfg.seeds:
        reports = run_experiment(cfg, seed)
        accs = [r.accuracy for r in reports if r.accuracy is not None]
        devs = [r.pairwise_deviation for r in reports if r.pairwise_deviation is not None]
        row = {"seed": seed, "final_accuracy": accs[-1], "pairwise_dev": float(np.mean(devs))}  # as summary.json
        print(json.dumps(row), flush=True)


def spawn(checkout: Path, overrides: dict[str, str], seeds: list[int]) -> subprocess.Popen:
    args = [str(checkout / "src"), json.dumps(overrides), ",".join(map(str, seeds))]
    return subprocess.Popen([sys.executable, __file__, "--worker", *args], stdout=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, checkout: Path) -> dict[int, dict]:
    out, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"the run on {checkout} exited with status {proc.returncode}")
    return {row["seed"]: row for row in map(json.loads, out.splitlines())}


def paired(diffs: list[float]) -> tuple[float, float]:
    """Mean of the paired differences and its standard error."""
    n = len(diffs)
    mean = math.fsum(diffs) / n
    if n < 2:
        return mean, math.nan
    var = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    return mean, math.sqrt(var / n)


def seed_range(text: str) -> list[int]:
    first, sep, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last if sep else first) + 1))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"seeds must be A-B, got {text!r}") from e
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        src, overrides, seeds = argv[1:]
        worker(src, json.loads(overrides), [int(s) for s in seeds.split(",")])
        return 0
    sys.path.insert(0, str(Path(__file__).parent))
    from fingerprints import MATRIX

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare against (its root)")
    parser.add_argument("name", nargs="?", default="desk", choices=list(MATRIX))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), metavar="A-B")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "gapsl").is_dir():
        parser.error(f"{args.other} holds no src/gapsl")

    overrides = MATRIX[args.name]
    procs = [(ROOT, spawn(ROOT, overrides, args.seeds)), (args.other, spawn(args.other, overrides, args.seeds))]
    this, other = (collect(proc, checkout) for checkout, proc in procs)

    print(f"{args.name}, seeds {args.seeds[0]}-{args.seeds[-1]}: this tree {ROOT}, other {args.other}")
    print(f"{'seed':>4}  {'acc this':>10} {'acc other':>10}  {'dev this':>10} {'dev other':>10}")
    for s in args.seeds:
        a, b = this[s], other[s]
        print(f"{s:>4}  {a['final_accuracy']:>10.6f} {b['final_accuracy']:>10.6f}  "
              f"{a['pairwise_dev']:>10.6f} {b['pairwise_dev']:>10.6f}")
    for metric in METRICS:
        diffs = [this[s][metric] - other[s][metric] for s in args.seeds]
        mean, se = paired(diffs)
        same = sum(this[s][metric] == other[s][metric] for s in args.seeds)
        print(f"{metric}: this - other = {mean:+.3e} ± {se:.3e} (SE), identical on {same}/{len(diffs)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
