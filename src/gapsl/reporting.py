"""Metrics sinks and run summaries.

Every run directory gets a manifest.json (written before round one), a
metrics.csv with one row per (seed, round), and a summary.json with
per-strategy aggregates. Floats are serialized with repr so identical
runs produce byte-identical files; the wall_ms column is pinned to 0 in
the CSV for the same reason (timings are printed to the console instead).

"Rounds to target" is the first evaluated round whose accuracy reaches
95% of the best strategy's mean final accuracy; runs that never get there
count as rounds+1.
"""

from __future__ import annotations

import csv
import json
import subprocess
from pathlib import Path

import numpy as np

from . import BLAS_THREADS
from .config import ExperimentConfig, config_to_text
from .errors import ConfigError, DataError
from .orchestrator import RoundReport

CSV_COLUMNS = [
    "strategy", "seed", "alpha", "round", "epoch_equiv", "train_loss", "global_loss",
    "accuracy", "pairwise_dev", "k_t", "theta_th", "selected", "survived", "wall_ms",
]

TARGET_FRACTION = 0.95


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def metrics_rows(strategy: str, seed: int, alpha: float | None, reports: list[RoundReport]) -> list[list[str]]:
    alpha_str = "iid" if alpha is None else repr(float(alpha))
    rows = []
    for r in reports:
        rows.append([
            strategy,
            str(seed),
            alpha_str,
            str(r.round),
            _fmt(float(r.epoch_equiv)),
            _fmt(float(r.train_loss)),
            _fmt(r.global_loss),
            _fmt(r.accuracy),
            _fmt(r.pairwise_deviation),
            _fmt(r.k_percent),
            _fmt(r.theta_threshold),
            _fmt(r.selected_count),
            _fmt(r.survivor_count),
            "0",
        ])
    return rows


def write_metrics_csv(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def read_metrics_csv(path: Path) -> list[dict]:
    """Parse a metrics.csv back into typed records ('' becomes None)."""
    int_cols = {"seed", "round", "selected", "survived"}
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_COLUMNS:
            raise DataError(f"{path}: unexpected CSV header {reader.fieldnames}")
        for raw in reader:
            rec: dict = {}
            for key, val in raw.items():
                if key in ("strategy", "alpha"):
                    rec[key] = val
                elif val == "":
                    rec[key] = None
                elif key in int_cols:
                    rec[key] = int(val)
                else:
                    rec[key] = float(val)
            out.append(rec)
    return out


def build_id() -> str:
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    from . import __version__

    return f"gapsl-{__version__}"


def write_manifest(outdir: Path, cfg: ExperimentConfig) -> dict:
    config_map = {}
    for line in config_to_text(cfg).splitlines():
        key, _, value = line.partition(" = ")
        config_map[key] = value
    blas = "{name} {version}".format(**np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    manifest = {
        "schema": 1,
        "build_id": build_id(),
        "output_dir": str(outdir),
        "seeds": list(cfg.seeds),
        "config": config_map,
        "numerics": {"numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS},  # what a replay must match
    }
    with open(outdir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def read_manifest(outdir: Path) -> dict:
    path = Path(outdir) / "manifest.json"
    if not path.exists():
        raise DataError(f"missing manifest file: {path}")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _per_seed(records: list[dict], seed: int) -> list[dict]:
    return [r for r in records if r["seed"] == seed]


def _final_accuracy(rows: list[dict]) -> float:
    evals = [r["accuracy"] for r in rows if r["accuracy"] is not None]
    if not evals:
        raise DataError("run has no evaluation rows")
    return evals[-1]


def rounds_to_target(rows: list[dict], target: float, total_rounds: int) -> int:
    for r in rows:
        if r["accuracy"] is not None and r["accuracy"] >= target:
            return r["round"]
    return total_rounds + 1


def compute_summary(records: list[dict], seeds: list[int], total_rounds: int) -> dict:
    """Aggregate a run's parsed CSV records into summary.json content."""
    finals = [_final_accuracy(_per_seed(records, s)) for s in seeds]
    target = TARGET_FRACTION * float(np.mean(finals))
    rtt = [rounds_to_target(_per_seed(records, s), target, total_rounds) for s in seeds]
    pairwise = []
    for s in seeds:
        devs = [r["pairwise_dev"] for r in _per_seed(records, s) if r["pairwise_dev"] is not None]
        pairwise.append(float(np.mean(devs)) if devs else None)
    usable_pairwise = [p for p in pairwise if p is not None]
    return {
        "strategy": records[0]["strategy"] if records else None,
        "alpha": records[0]["alpha"] if records else None,
        "seeds": seeds,
        "rounds": total_rounds,
        "final_accuracy": {
            "per_seed": finals,
            "mean": float(np.mean(finals)),
            "std": float(np.std(finals)),
        },
        "target_accuracy": target,
        "rounds_to_target": {
            "per_seed": rtt,
            "mean": float(np.mean(rtt)),
            "std": float(np.std(rtt)),
        },
        "pairwise_deviation": {
            "per_seed": pairwise,
            "mean": float(np.mean(usable_pairwise)) if usable_pairwise else None,
        },
    }


def write_summary(outdir: Path, summary: dict) -> None:
    with open(outdir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")


_SHARED_KEYS = (
    "dataset", "alpha", "samples_per_class", "spread", "model_dims", "clients",
    "train_images", "train_labels", "test_images", "test_labels",
)


def compare_table(run_dirs: list[str]) -> str:
    """Cross-run comparison against a shared accuracy target.

    All runs must share the dataset configuration and seed list; the
    target is 95% of the best mean final accuracy among them.
    """
    loaded = []
    for d in run_dirs:
        outdir = Path(d)
        manifest = read_manifest(outdir)
        records = read_metrics_csv(outdir / "metrics.csv")
        loaded.append((outdir, manifest, records))

    base_manifest = loaded[0][1]
    for outdir, manifest, _ in loaded[1:]:
        if manifest["seeds"] != base_manifest["seeds"]:
            raise ConfigError(
                f"cannot compare {outdir}: seeds {manifest['seeds']} differ from {base_manifest['seeds']}"
            )
        for key in _SHARED_KEYS:
            if manifest["config"].get(key) != base_manifest["config"].get(key):
                raise ConfigError(
                    f"cannot compare {outdir}: config key {key!r} differs "
                    f"({manifest['config'].get(key)} vs {base_manifest['config'].get(key)})"
                )

    summaries = []
    for outdir, manifest, records in loaded:
        seeds = manifest["seeds"]
        rounds = int(manifest["config"]["rounds"])
        summaries.append((outdir, compute_summary(records, seeds, rounds), records, seeds, rounds))

    shared_target = TARGET_FRACTION * max(s[1]["final_accuracy"]["mean"] for s in summaries)
    lines = [
        f"target accuracy: {shared_target * 100:.2f}% "
        f"({TARGET_FRACTION:.0%} of best mean final accuracy)",
        f"{'run':<28} {'strategy':<12} {'final acc':<16} {'rounds->target':<15} {'pairwise dev':<12}",
    ]
    for outdir, summary, records, seeds, rounds in summaries:
        rtt = [rounds_to_target(_per_seed(records, s), shared_target, rounds) for s in seeds]
        acc = summary["final_accuracy"]
        dev = summary["pairwise_deviation"]["mean"]
        lines.append(
            f"{outdir.name:<28} {summary['strategy']:<12} "
            f"{acc['mean'] * 100:6.2f} ± {acc['std'] * 100:4.2f}%  "
            f"{float(np.mean(rtt)):<15.1f} "
            f"{dev if dev is None else f'{dev:.4f}'}"
        )
    return "\n".join(lines)
