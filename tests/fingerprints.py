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

A ``tcp`` config runs its clients over loopback TCP, each a bank of one in
its own thread; it hashes the same things as its in-process twin in
:data:`TWINS`, so each pair prints the same line.

OpenBLAS picks its kernels per CPU at run time, so the bits depend on the
build and the host as much as on the code. ``FINGERPRINTS.json`` keeps the
reference lines per build, keyed by :func:`build_key`: the numpy version,
the BLAS build string ``manifest.json`` records and the OpenBLAS core
picked at run time. The command exits

- 0 when every line it printed equals this build's reference;
- 1 when a line differs from it (the line is marked ``moved``), when
  both members of a twin pair ran and their lines differ, or when the
  reference holds a row :data:`MATRIX` does not define (a stale row);
- 3 with "no reference for this build" when the file holds no entry for
  this build's key, so the lines can be compared across two checkouts on
  one machine only.

Whenever a line moved, a stale row is found or no reference exists, it
prints this build's entry with the new lines and without stale rows to
stderr, as JSON: a change that moves bits on purpose puts that entry in
the file and names every moved row.
``tests/test_fingerprints.py`` runs the command under pytest. Pytest does
not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gapsl  # noqa: E402,F401  (before numpy: it pins the BLAS thread pools)
import numpy as np  # noqa: E402

from gapsl import gda as gda_mod  # noqa: E402
from gapsl import orchestrator  # noqa: E402
from gapsl.config import config_to_text, parse_config  # noqa: E402
from gapsl.orchestrator import TrainingEngine  # noqa: E402
from gapsl.reporting import metrics_rows  # noqa: E402
from gapsl.transport import Listener, RemoteClientProxy, client_loop, connect  # noqa: E402

DESK = ROOT / "configs" / "desk_noniid.cfg"
REFERENCE = ROOT / "FINGERPRINTS.json"
NO_REFERENCE = 3  # exit status when the file holds no entry for this build
SEEDS = (1, 2, 3)
TCP = {"transport": "tcp", "listen": "127.0.0.1:0"}
MATRIX: dict[str, dict[str, str]] = {
    "desk": {},
    "clients2": {"clients": "2", "rounds": "20"},
    "clients3": {"clients": "3", "rounds": "20"},
    "clients100": {"clients": "100", "rounds": "20"},
    "lambda0": {"lambda": "0"},
    "non_gda": {"non_gda": "true"},
    "rand_gda": {"rand_gda": "true"},
    "rand_lgi": {"rand_lgi": "true"},
    "non_lgi": {"k_min": "100", "k_max": "100"},  # every usable client leads
    "iid": {"alpha": "iid"},
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


def openblas_core() -> str:
    """The kernel set OpenBLAS picked for this CPU, as the loaded library
    names it, or "unknown" where numpy's bundled library does not say."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def build_key() -> str:
    """The numpy version, the BLAS build as ``manifest.json`` records it,
    and the OpenBLAS core picked at run time."""
    blas = "{name} {version}".format(**np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    return f"numpy {np.__version__} | {blas} | {openblas_core()}"


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MATRIX]
    if unknown:
        print(f"unknown config(s) {unknown}; choose from {list(MATRIX)}", file=sys.stderr)
        return 2
    key = build_key()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(key)
    stale = [name for name in reference or {} if name not in MATRIX]
    hashes, moved = {}, []
    for name in names or MATRIX:
        hashes[name] = fingerprint(MATRIX[name])
        if reference is not None and reference.get(name) != hashes[name]:
            moved.append(name)
        print(f"{name:<12} {hashes[name]}" + ("  moved" if name in moved else ""), flush=True)
    split = [f"{tcp} != {twin}" for tcp, twin in TWINS.items()
             if tcp in hashes and twin in hashes and hashes[tcp] != hashes[twin]]
    if reference is None or moved or stale:
        kept = {name: line for name, line in (reference or {}).items() if name in MATRIX}
        entry = {key: {**kept, **hashes}}
        print(f"this build's entry with these lines:\n{json.dumps(entry, indent=2)}", file=sys.stderr)
    if split:
        print(f"twins differ: {', '.join(split)}", file=sys.stderr)
    if moved:
        print(f"moved from the reference: {', '.join(moved)}", file=sys.stderr)
    if stale:
        print(f"not in MATRIX, so never compared: {', '.join(stale)}", file=sys.stderr)
    if split or moved or stale:
        return 1
    if reference is None:
        print(f"no reference for this build: {key}", file=sys.stderr)
        return NO_REFERENCE
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
