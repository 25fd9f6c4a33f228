"""Fingerprints of the engine's bits over a fixed matrix of configs.

    PYTHONPATH=src python tests/fingerprints.py [NAME ...]

Each config is the desk config (``configs/desk_noniid.cfg``) with the
overrides named in :data:`MATRIX`. For each one, the command runs seeds
1-3 in process and prints one sha256 over every seed's ``metrics_rows``
and its final server and client-bank parameters. Two checkouts that
print the same line for a config replay it bit for bit on this host.

No reference hashes are kept: OpenBLAS picks its kernels per CPU at run
time, so the bits depend on the host as much as on the code. Compare
two checkouts on one machine instead. Pytest does not collect this file
(its name does not start with ``test_``).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gapsl.config import parse_config  # noqa: E402
from gapsl.orchestrator import TrainingEngine  # noqa: E402
from gapsl.reporting import metrics_rows  # noqa: E402

DESK = ROOT / "configs" / "desk_noniid.cfg"
SEEDS = (1, 2, 3)
MATRIX: dict[str, dict[str, str]] = {
    "desk": {},
    "clients2": {"clients": "2", "rounds": "20"},
    "clients3": {"clients": "3", "rounds": "20"},
    "clients100": {"clients": "100", "rounds": "20"},
    "loss_only": {"gda_mode": "loss_only"},
    "non_gda": {"non_gda": "true"},
    "rand_gda": {"rand_gda": "true"},
    "rand_lgi": {"rand_lgi": "true"},
    "non_lgi": {"non_lgi": "true"},
    "psl": {"strategy": "psl"},
    "sfl": {"strategy": "sfl"},
    "batch5": {"batch_size": "5"},
    "relu_cut1": {"activation": "relu", "cut": "1"},
}


def fingerprint(overrides: dict[str, str]) -> str:
    """One sha256 over seeds 1-3 of the desk config with ``overrides``."""
    cfg = parse_config(str(DESK), overrides)
    digest = hashlib.sha256()
    for seed in SEEDS:
        engine = TrainingEngine(cfg, seed)
        reports = engine.run()
        for row in metrics_rows(cfg.strategy, seed, cfg.alpha, reports):
            digest.update(",".join(row).encode() + b"\n")
        digest.update(engine.server_params.tobytes())
        digest.update(engine.clients.params.tobytes())
    return digest.hexdigest()


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MATRIX]
    if unknown:
        print(f"unknown config(s) {unknown}; choose from {list(MATRIX)}", file=sys.stderr)
        return 2
    for name in names or MATRIX:
        print(f"{name:<12} {fingerprint(MATRIX[name])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
