"""Fingerprints of the engine's bits over a fixed matrix of configs.

    PYTHONPATH=src python tests/fingerprints.py [NAME ...]

Each config is the desk config (``configs/desk_noniid.cfg``) with the
overrides named in :data:`MATRIX`. For each one, the command runs seeds
1-3 and prints one sha256 over:

- every round's server gradient matrix ``g``, as the round's cohort holds it;
- every GDA pass's deviations to the leader, caught from
  ``gda.deviations_to_leader``, and every alignment correction's result,
  in float64: the engine's float32 state rounds a change of one ulp in
  them away;
- each seed's ``metrics_rows`` and its final server and client-bank
  parameters.

Two checkouts that print the same line for a config replay it bit for bit
on this host. A ``tcp`` config runs its clients over loopback TCP, each a
bank of one in its own thread; it hashes the same things as its in-process
twin in :data:`TWINS`, so each pair prints the same line. The command exits
1, naming the pair, when both members of a pair ran and their lines differ.

No reference hashes are kept: OpenBLAS picks its kernels per CPU at run
time, so the bits depend on the host as much as on the code. Compare
two checkouts on one machine instead. Pytest does not collect this file
(its name does not start with ``test_``).
"""

from __future__ import annotations

import hashlib
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gapsl import gda as gda_mod  # noqa: E402
from gapsl import orchestrator  # noqa: E402
from gapsl.config import config_to_text, parse_config  # noqa: E402
from gapsl.orchestrator import TrainingEngine  # noqa: E402
from gapsl.reporting import metrics_rows  # noqa: E402
from gapsl.transport import Listener, RemoteClientProxy, client_loop, connect  # noqa: E402

DESK = ROOT / "configs" / "desk_noniid.cfg"
SEEDS = (1, 2, 3)
TCP = {"transport": "tcp", "listen": "127.0.0.1:0"}
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
    "psl2": {"strategy": "psl", "clients": "2", "rounds": "20"},
    "sfl": {"strategy": "sfl"},
    "vanilla_sl": {"strategy": "vanilla_sl"},
    "batch5": {"batch_size": "5"},
    "batch1": {"batch_size": "1"},
    "relu_cut1": {"activation": "relu", "cut": "1"},
    "tcp2": {"clients": "2", "rounds": "20", **TCP},
    "tcp10": TCP,
    "tcp10_psl": {"strategy": "psl", **TCP},
    "tcp2_psl": {"strategy": "psl", "clients": "2", "rounds": "20", **TCP},
}
# each TCP config and its in-process twin
TWINS = {"tcp2": "clients2", "tcp10": "desk", "tcp10_psl": "psl", "tcp2_psl": "psl2"}


@contextmanager
def probes(digest):
    """Hash every round's ``g`` as the round builds its cohort, every GDA
    pass's (id, deviation) pairs in float64 and every alignment correction's
    result, in float64 as ``run_gda`` passes it, into ``digest``.

    The deviations are caught as ``deviations_to_leader`` returns them and
    hashed once ``run_gda`` returns, after that pass's correction, so each
    pass feeds the digest in the same order as when the outcome held them."""
    cohort, run_gda = orchestrator.Cohort, gda_mod.run_gda
    deviations, correct = gda_mod.deviations_to_leader, gda_mod.alignment_correction
    caught = []

    def probed_cohort(ids, values, round_t):
        digest.update(values.tobytes())
        return cohort(ids, values, round_t)

    def probed_deviations(gradients, leader):
        out = deviations(gradients, leader)
        caught.append(list(zip(gradients.usable, out)))
        return out

    def probed_gda(*args, **kwargs):
        out = run_gda(*args, **kwargs)
        digest.update(np.array(caught.pop(), dtype=np.float64).tobytes())
        return out

    def probed_correction(*args, **kwargs):
        out = correct(*args, **kwargs)
        digest.update(out.tobytes())
        return out

    probed = (probed_cohort, probed_gda, probed_deviations, probed_correction)
    saved = (cohort, run_gda, deviations, correct)
    orchestrator.Cohort, gda_mod.run_gda, gda_mod.deviations_to_leader, gda_mod.alignment_correction = probed
    try:
        yield
    finally:
        orchestrator.Cohort, gda_mod.run_gda, gda_mod.deviations_to_leader, gda_mod.alignment_correction = saved


def run_inproc(cfg):
    """Each seed's (reports, server parameters, bank parameters), in process."""
    for seed in SEEDS:
        engine = TrainingEngine(cfg, seed)
        yield engine.run(), engine.server_params, engine.clients.params


def run_tcp(cfg):
    """Each seed's (reports, server parameters, bank parameters) with every
    client a bank of one behind loopback TCP; the banks' rows stacked in id
    order are the in-process bank's matrix."""
    banks, errors = {}, []
    bank_cls = orchestrator.ClientBank

    class RecordedBank(bank_cls):
        def __init__(self, cfg, seed, client_ids, train, test):
            super().__init__(cfg, seed, client_ids, train, test)
            banks[seed, self.client_ids[0]] = self

    def client(address, client_id):
        channel = connect(address)
        try:
            client_loop(channel, client_id)
        except Exception as e:  # thread boundary: report it from the main thread
            errors.append(f"client {client_id}: {e!r}")
        finally:
            channel.close()

    orchestrator.ClientBank = RecordedBank  # client_loop imports it at call time
    listener = Listener(cfg.listen)
    threads = [
        threading.Thread(target=client, args=(listener.address, i), daemon=True) for i in range(cfg.clients)
    ]
    try:
        for th in threads:
            th.start()
        proxies = {i: RemoteClientProxy(ch, i) for i, ch in listener.accept_clients(
            cfg.clients, config_to_text(cfg)).items()}
        runs = []
        for seed in SEEDS:
            engine = TrainingEngine(cfg, seed, proxies)
            runs.append((engine.run(), engine.server_params))
        for proxy in proxies.values():
            proxy.finish({})
        for th in threads:
            th.join()
    finally:
        orchestrator.ClientBank = bank_cls
        listener.close()
    if errors:
        raise RuntimeError("; ".join(errors))
    return [
        (reports, server_params, np.concatenate([banks[seed, i].params for i in range(cfg.clients)]))
        for seed, (reports, server_params) in zip(SEEDS, runs)
    ]


def fingerprint(overrides: dict[str, str]) -> str:
    """One sha256 over seeds 1-3 of the desk config with ``overrides``."""
    cfg = parse_config(str(DESK), {"seeds": ",".join(map(str, SEEDS)), **overrides})
    digest = hashlib.sha256()
    with probes(digest):
        seeds = list((run_tcp if cfg.transport == "tcp" else run_inproc)(cfg))
    for seed, (reports, server_params, bank_params) in zip(SEEDS, seeds):
        for row in metrics_rows(cfg.strategy, seed, cfg.alpha, reports):
            digest.update(",".join(row).encode() + b"\n")
        digest.update(server_params.tobytes())
        digest.update(bank_params.tobytes())
    return digest.hexdigest()


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MATRIX]
    if unknown:
        print(f"unknown config(s) {unknown}; choose from {list(MATRIX)}", file=sys.stderr)
        return 2
    hashes = {}
    for name in names or MATRIX:
        hashes[name] = fingerprint(MATRIX[name])
        print(f"{name:<12} {hashes[name]}", flush=True)
    split = [f"{tcp} != {twin}" for tcp, twin in TWINS.items()
             if tcp in hashes and twin in hashes and hashes[tcp] != hashes[twin]]
    if split:
        print(f"twins differ: {', '.join(split)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
