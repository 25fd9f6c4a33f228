"""Run one benchmark workload in this process and print its result.

    python3 bench/workload.py --workload desk --seed 0 --seconds 20 --trace 0

bench/run.py starts this script in a fresh process per workload, with the
BLAS/OpenMP pools pinned to one thread. Every workload is a closed loop
through the library API: round t+1 starts only when
``TrainingEngine.run_round(t)`` returns, and the benchmark times each
round from outside. A "pass" runs every seed of the workload once; passes
repeat until the next one would end after ``--seconds`` (at least one
always runs), so a faster program does more passes in the same time.
Round and set-up times are reported with their CPU part restated at a
reference host speed (:class:`HostClock`); the plain wall times are
reported alongside as ``raw.*``.

``--trace 1`` measures an untraced half and a traced half of the time,
derives the per-layer metrics from the traced half, and checks that both
halves produced identical metrics rows. The last line printed is the
JSON result; the full record (environment, sample counts, every pass)
goes to ``<out>/<workload>-seed<n>-trace<t>.json``. The exit code is 1
when an output check fails.
"""

from __future__ import annotations

import argparse
import bisect
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gapsl.gda as gda_mod  # noqa: E402
import gapsl.geometry as geometry_mod  # noqa: E402
import gapsl.lgi as lgi_mod  # noqa: E402
import gapsl.orchestrator as orch  # noqa: E402
import gapsl.transport as transport  # noqa: E402
from gapsl.config import config_to_text, parse_config_text  # noqa: E402
from gapsl.errors import ProtocolError  # noqa: E402
from gapsl.reporting import metrics_rows  # noqa: E402

from catalog import END_TO_END, INFORMATIONAL, PER_LAYER, UNITS  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

CONFIG = ROOT / "configs" / "desk_noniid.cfg"

# config overrides per workload; everything else is the shipped desk config
WORKLOADS = {
    "desk": {},
    "cohort100": {"clients": "100"},
    "tcp_loopback": {"clients": "2", "transport": "tcp", "listen": "127.0.0.1:0"},
}
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS_PER_RUN = 3
WARMUP_ROUNDS = 2
# in-process runs whose seeds take long (cohort100) add a set-up-only engine
# build whenever this long has passed without a set-up sample, so set-up
# times are spread over the run like round times
SETUP_EVERY_NS = 2_000_000_000
# host-speed calibration: see HostClock
CALIB_EVERY_NS = 250_000_000
CALIB_REF_NS = 1_000_000  # calibration kernel time on the unloaded 2-vCPU host the benchmark was sized on

Timing = tuple[int, int, int]  # (start, wall ns, process CPU ns) of one round or set-up


def config_seeds(seed: int) -> tuple[int, ...]:
    """Workload seed n runs config seeds 3n+1..3n+3; n = 0 is the shipped 1,2,3."""
    return tuple(SEEDS_PER_RUN * seed + k for k in range(1, SEEDS_PER_RUN + 1))


def ms(ns: float) -> float:
    return ns / 1e6


def calibration_kernel() -> int:
    """ns for a fixed mix of small numpy calls and Python glue, like a round's; uses no gapsl code."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 32)).astype(np.float32)
    w = rng.standard_normal((32, 32)).astype(np.float32)
    a, b = x[0], x[1]
    acc = 0.0
    start = time.perf_counter_ns()
    for _ in range(100):
        h = np.tanh(x @ w)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        c = float(np.dot(a64, b64)) / float(np.sqrt(np.dot(a64, a64) * np.dot(b64, b64)))
        acc += float(np.arccos(min(1.0, max(-1.0, c)))) + float(h.sum())
        acc += sum({k: k * c for k in range(16)}.values())
    return time.perf_counter_ns() - start


class HostClock:
    """Follows the host's speed so CPU time can be stated at a reference speed.

    A shared host runs the same code up to ~1.8x slower for stretches of
    seconds and drifts by ~25% over minutes, which moves a raw round-time
    median by more than any useful regression bound. Every CALIB_EVERY_NS,
    between rounds, the clock times a fixed kernel that shares no code with
    the program; a timed sample's slowdown is that kernel time around it
    over CALIB_REF_NS. :meth:`normalize` divides only the sample's CPU part
    by the slowdown: waiting (the TCP delayed-ACK stall) is not host speed.
    """

    def __init__(self):
        self.times: list[int] = []
        self.kernel_ns: list[int] = []

    def sample(self) -> None:
        self.kernel_ns.append(min(calibration_kernel() for _ in range(3)))
        self.times.append(time.perf_counter_ns())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter_ns() - self.times[-1] > CALIB_EVERY_NS:
            self.sample()

    def slowdown(self, t: int) -> float:
        """Mean kernel time of the calibrations just before and after ``t``, over the reference."""
        i = bisect.bisect_right(self.times, t)
        return statistics.mean(self.kernel_ns[max(0, i - 1) : i + 1]) / CALIB_REF_NS

    def normalize(self, timing: Timing) -> float:
        """Wall ns with the CPU part rescaled to the reference speed."""
        start, wall, cpu = timing
        cpu = min(cpu, wall)  # parallel threads: the whole wall time is CPU-bound
        return wall - cpu + cpu / self.slowdown(start)


class Stopwatch:
    def __init__(self):
        self.start = time.perf_counter_ns()
        self.cpu = time.process_time_ns()

    def read(self) -> Timing:
        return self.start, time.perf_counter_ns() - self.start, time.process_time_ns() - self.cpu


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Phase:
    """Everything measured while passes of one kind (traced or not) ran."""

    setups: list[Timing] = field(default_factory=list)
    train: list[Timing] = field(default_factory=list)
    evals: list[Timing] = field(default_factory=list)
    last_setup: int = 0  # perf_counter_ns at the end of the latest set-up sample
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    passes: list[dict] = field(default_factory=list)
    first_rows: list[list[str]] | None = None
    first_reports: list = field(default_factory=list)
    final_accuracy: dict[int, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        """Rounds that completed."""
        return len(self.train) + len(self.evals)

    def samples_per_s(self, clock: HostClock | None = None) -> float:
        """Samples over the summed round times, normalized by ``clock`` when given."""
        rounds = self.train + self.evals
        busy = sum(clock.normalize(x) for x in rounds) if clock else sum(x[1] for x in rounds)
        return self.samples / (busy / 1e9) if busy else 0.0

    def add_setup(self, watch: Stopwatch) -> None:
        self.setups.append(watch.read())
        self.last_setup = time.perf_counter_ns()


class Workload:
    def __init__(self, name: str, seed: int, rounds: int | None):
        self.seeds = config_seeds(seed)
        self.overrides = dict(WORKLOADS[name], seeds=",".join(map(str, self.seeds)))
        if rounds is not None:
            self.overrides["rounds"] = str(rounds)
        self.text = CONFIG.read_text(encoding="utf-8")
        self.tcp = self.overrides.get("transport") == "tcp"
        self.tracer: Tracer | None = None
        self.clock = HostClock()

    def config(self, **extra: str):
        return parse_config_text(self.text, {**self.overrides, **extra}, source=str(CONFIG))

    # ---- one seed ----------------------------------------------------------

    def _engine(self, cfg, seed, proxies=None):
        if self.tracer is None:
            return orch.TrainingEngine(cfg, seed, proxies)
        with self.tracer.span("orchestrator.engine_setup"):
            return orch.TrainingEngine(cfg, seed, proxies)

    def _run_seed(self, engine, cfg, seed: int, phase: Phase, pass_no: int) -> tuple[list, bool]:
        tracer = self.tracer
        reports = []
        ok = True
        for t in range(1, cfg.rounds + 1):
            watch = Stopwatch()
            try:
                if tracer is None:
                    report = engine.run_round(t)
                else:
                    tracer.trace_id = (pass_no, seed, t)
                    with tracer.span("orchestrator.run_round"):
                        report = engine.run_round(t)
            except Exception:  # a raising round fails the rest of its seed; the run still reports
                traceback.print_exc()
                phase.attempted += cfg.rounds - t + 1
                phase.failed += cfg.rounds - t + 1
                ok = False
                break
            (phase.train if report.accuracy is None else phase.evals).append(watch.read())
            phase.attempted += 1
            self._check_report(report, seed, phase)
            reports.append(report)
            if not self.tcp and time.perf_counter_ns() - phase.last_setup > SETUP_EVERY_NS:
                watch = Stopwatch()
                self._engine(self.config(), seed)
                phase.add_setup(watch)
            self.clock.maybe_sample()
        phase.samples += engine.samples_consumed
        evaluated = [r.accuracy for r in reports if r.accuracy is not None]
        if evaluated:
            phase.final_accuracy.setdefault(seed, evaluated[-1])
        else:
            phase.problems.append(f"seed {seed}: no evaluated round")
        return reports, ok

    @staticmethod
    def _check_report(report, seed: int, phase: Phase) -> None:
        losses = [report.train_loss, *report.train_losses.values()]
        if not all(math.isfinite(x) for x in losses):
            phase.problems.append(f"seed {seed} round {report.round}: non-finite train loss")
        if report.accuracy is not None and not 0.0 <= report.accuracy <= 1.0:
            phase.problems.append(f"seed {seed} round {report.round}: accuracy {report.accuracy} outside [0, 1]")

    # ---- one pass over every seed ----------------------------------------

    def _inproc_pass(self, phase: Phase, pass_no: int) -> tuple[list, list, bool]:
        rows, reports, ok = [], [], True
        for seed in self.seeds:
            watch = Stopwatch()
            cfg = self.config()
            engine = self._engine(cfg, seed)
            phase.add_setup(watch)
            got, seed_ok = self._run_seed(engine, cfg, seed, phase, pass_no)
            ok &= seed_ok
            reports.extend(got)
            rows.extend(metrics_rows(cfg.strategy, seed, cfg.alpha, got))
        return rows, reports, ok

    def _tcp_pass(self, phase: Phase, pass_no: int) -> tuple[list, list, bool]:
        watch = Stopwatch()
        cfg = self.config()
        listener = transport.Listener(cfg.listen)
        errors: list[str] = []
        threads = [
            threading.Thread(target=_tcp_client, args=(listener.address, i, errors), name=f"client-{i}")
            for i in range(cfg.clients)
        ]
        for th in threads:
            th.start()
        rows, reports, ok, clean = [], [], True, False
        channels = {}
        try:
            try:
                channels = listener.accept_clients(cfg.clients, config_to_text(cfg))
            except ProtocolError as e:
                phase.problems.append(f"handshake: {e}")
                ok = False
            proxies = {i: transport.RemoteClientProxy(ch, i) for i, ch in channels.items()}
            for k, seed in enumerate(self.seeds):
                if not ok:  # the connections are gone: the rest of the pass fails
                    phase.attempted += cfg.rounds
                    phase.failed += cfg.rounds
                    continue
                engine = self._engine(cfg, seed, proxies)
                if k == 0:
                    phase.add_setup(watch)
                got, ok = self._run_seed(engine, cfg, seed, phase, pass_no)
                reports.extend(got)
                rows.extend(metrics_rows(cfg.strategy, seed, cfg.alpha, got))
            if ok:
                for i in sorted(proxies):
                    proxies[i].finish({})
                clean = True
        finally:
            listener.close()
            if not clean:  # unblock client threads still waiting on their sockets
                for ch in channels.values():
                    ch.close()
            for th in threads:
                th.join(timeout=30)
        if any(th.is_alive() for th in threads):
            errors.append("client thread still running 30 s after the pass")
        for err in errors:
            phase.problems.append(err)
        return rows, reports, ok and not errors

    # ---- timed phases ------------------------------------------------------

    def warm_up(self) -> None:
        """Run a few untimed in-process rounds so lazy numpy set-up is not measured."""
        cfg = self.config(transport="inproc", rounds=str(WARMUP_ROUNDS))
        orch.TrainingEngine(cfg, self.seeds[0]).run()

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        one_pass = self._tcp_pass if self.tcp else self._inproc_pass
        self.clock.sample()
        began = time.perf_counter_ns()
        while True:
            pass_no = len(phase.passes)
            p0 = time.perf_counter_ns()
            rows, reports, ok = one_pass(phase, pass_no)
            took = time.perf_counter_ns() - p0
            phase.passes.append({"pass": pass_no, "seconds": took / 1e9, "rounds": len(reports), "ok": ok})
            if phase.first_rows is None:
                phase.first_rows, phase.first_reports = rows, reports
            elif rows != phase.first_rows:
                phase.problems.append(f"pass {pass_no}: metrics rows differ from pass 0 (rerun not identical)")
            elapsed = time.perf_counter_ns() - began
            if not ok or elapsed + took > seconds * 1e9:
                return phase

    def reference_rows(self) -> list[list[str]]:
        """Metrics rows of the same config run fully in process (TCP transparency reference)."""
        cfg = self.config(transport="inproc")
        rows = []
        for seed in self.seeds:
            rows.extend(metrics_rows(cfg.strategy, seed, cfg.alpha, orch.TrainingEngine(cfg, seed).run()))
        return rows


def _tcp_client(address: str, client_id: int, errors: list[str]) -> None:
    try:
        channel = transport.connect(address)
    except ProtocolError as e:
        errors.append(f"client {client_id}: {e}")
        return
    try:
        transport.client_loop(channel, client_id)
    except Exception as e:  # thread boundary: hand the failure to the coordinator thread
        errors.append(f"client {client_id}: {e!r}")
    finally:
        channel.close()


# ---- tracing -----------------------------------------------------------------


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the layer functions at the names the engine actually calls."""
    for fn in ("forward_client", "backward_client", "forward_server", "backward_server",
               "sgd_step", "logits_from_activations"):
        tracer.wrap_span(orch, fn, f"nn.{fn}")
    for fn in ("synth_gaussian_mixture", "dirichlet_partition", "iid_partition"):
        tracer.wrap_span(orch, fn, f"data.{fn}")
    tracer.wrap_span(orch, "pairwise_mean_deviation", "geometry.pairwise_mean_deviation")
    for mod, label in ((geometry_mod, "geometry"), (lgi_mod, "lgi"), (gda_mod, "gda")):
        tracer.wrap_counter(mod, "angular_deviation", f"{label}.angular_deviation")
    tracer.wrap_span(lgi_mod, "run_lgi", "lgi.run_lgi")
    tracer.wrap_span(gda_mod, "run_gda", "gda.run_gda")
    tracer.wrap_span(transport, "encode", "transport.encode",
                     on_result=lambda frame: tracer.add("transport.bytes", len(frame)))
    tracer.wrap_counter(transport, "decode", "transport.decode", timed=True)
    tracer.wrap_span(transport.Listener, "accept_clients", "transport.accept_clients")
    tracer.wrap_span(transport.RemoteClientProxy, "forward_round", "transport.forward_round")
    tracer.wrap_span(transport.RemoteClientProxy, "eval_activations", "transport.eval_activations")


def per_layer_metrics(
    tracer: Tracer, phase: Phase, untraced: Phase, clock: HostClock, clients: int
) -> dict[str, float]:
    spans = tracer.spans()
    selfs = self_times(spans)
    rounds = max(1, phase.rounds)
    eval_rounds = max(1, len(phase.evals))
    train_rounds = max(1, len(phase.train))
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0) + (s.end - s.start)
        counts[s.name] = counts.get(s.name, 0) + 1
    eval_traces = {s.trace for s in spans if s.name == "transport.eval_activations"}

    def per_round(name: str) -> float:
        return ms(totals.get(name, 0)) / rounds

    def mean_ms(name: str) -> float:
        return ms(totals.get(name, 0)) / counts[name] if counts.get(name) else 0.0

    angle_evals = sum(tracer.counter(f"{m}.angular_deviation")[0] for m in ("geometry", "lgi", "gda"))
    reports = phase.first_reports
    skipped = sum(r.coordination_skipped for r in reports)
    # distinct angles a round needs: every pair once, plus each client to the
    # leader in rounds where coordination ran
    evals_per_round = angle_evals / rounds
    skip_share = skipped / len(reports) if reports else 0.0
    distinct_per_round = clients * (clients - 1) / 2 + (1.0 - skip_share) * clients
    selected = [(r.selected_count, len(r.train_losses)) for r in reports if r.selected_ids is not None]
    survived = [(r.survivor_count, len(r.train_losses)) for r in reports if r.survivor_ids is not None]

    run_round_self = sum(t for s, t in zip(spans, selfs) if s.name == "orchestrator.run_round")
    wait_train = wait_eval = 0
    for s, t in zip(spans, selfs):
        if s.name in ("transport.forward_round", "transport.eval_activations"):
            wait = t - s.counted_ns
            if s.trace in eval_traces:
                wait_eval += wait
            else:
                wait_train += wait
    data_ns = sum(v for k, v in totals.items() if k.startswith("data."))
    decode_calls, decode_ns, decode_frames = tracer.counter("transport.decode")
    _, _, frame_bytes = tracer.counter("transport.bytes")
    traced_sps, untraced_sps = phase.samples_per_s(clock), untraced.samples_per_s(clock)

    return {
        "geometry.angle_evals_per_round": evals_per_round,
        "geometry.distinct_angle_share": distinct_per_round / evals_per_round if evals_per_round else 0.0,
        "geometry.pairwise_mean_deviation.ms_per_round": per_round("geometry.pairwise_mean_deviation"),
        "lgi.run_lgi.ms_per_round": per_round("lgi.run_lgi"),
        "lgi.selected_share": sum(a for a, _ in selected) / max(1, sum(b for _, b in selected)),
        "lgi.skipped_rounds": skipped,
        "gda.run_gda.ms_per_round": per_round("gda.run_gda"),
        "gda.survivor_share": sum(a for a, _ in survived) / max(1, sum(b for _, b in survived)),
        "gda.fallback_rounds": sum(r.gda_fallback for r in reports),
        "nn.forward_client.ms_per_round": per_round("nn.forward_client"),
        "nn.backward_client.ms_per_round": per_round("nn.backward_client"),
        "nn.forward_server.ms_per_round": per_round("nn.forward_server"),
        "nn.backward_server.ms_per_round": per_round("nn.backward_server"),
        "nn.server_passes_per_round": counts.get("nn.forward_server", 0) / rounds,
        "nn.sgd_step.ms_per_round": per_round("nn.sgd_step"),
        "nn.logits_from_activations.ms_per_eval_round":
            ms(totals.get("nn.logits_from_activations", 0)) / eval_rounds,
        "orchestrator.run_round.self_ms_per_round": ms(run_round_self) / rounds,
        "orchestrator.engine_setup_ms": mean_ms("orchestrator.engine_setup"),
        "data.setup_ms": ms(data_ns) / max(1, counts.get("orchestrator.engine_setup", 0)),
        "transport.frames_per_round": counts.get("transport.encode", 0) / rounds,
        "transport.bytes_per_round": frame_bytes / rounds,
        "transport.encode.ms_per_round": per_round("transport.encode"),
        "transport.decode.ms_per_round": ms(decode_ns) / rounds,
        "transport.decode_attempts_per_frame": decode_calls / decode_frames if decode_frames else 0.0,
        "transport.wait_ms_per_train_round": ms(wait_train) / train_rounds,
        "transport.wait_ms_per_eval_round": ms(wait_eval) / eval_rounds,
        "transport.handshake_ms": mean_ms("transport.accept_clients"),
        "trace.samples_per_s_untraced": untraced_sps,
        "trace.samples_per_s_traced": traced_sps,
        "trace.overhead_share": 1.0 - traced_sps / untraced_sps if untraced_sps else 0.0,
    }


def end_to_end_metrics(
    phase: Phase, clock: HostClock, attempted: int, failed: int
) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count) for the gated and the informational end-to-end metrics."""

    def stats(prefix: str, measure) -> dict[str, tuple[float, int]]:
        train = [ms(measure(x)) for x in phase.train] or [0.0]
        evals = [ms(measure(x)) for x in phase.evals] or [0.0]
        setups = [measure(x) / 1e9 for x in phase.setups] or [0.0]
        return {
            f"{prefix}setup_s": (statistics.median(setups), len(phase.setups)),
            f"{prefix}train_round_ms_p50": (statistics.median(train), len(phase.train)),
            f"{prefix}train_round_ms_p90": (percentile(train, 0.9), len(phase.train)),
            f"{prefix}eval_round_ms_p50": (statistics.median(evals), len(phase.evals)),
        }

    slowdowns = [clock.slowdown(x[0]) for x in phase.train + phase.evals] or [0.0]
    return {
        **stats("", clock.normalize),
        "samples_per_s": (phase.samples_per_s(clock), phase.rounds),
        "final_accuracy": (
            statistics.mean(phase.final_accuracy.values()) if phase.final_accuracy else 0.0,
            len(phase.final_accuracy),
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        **stats("raw.", lambda x: x[1]),
        "raw.samples_per_s": (phase.samples_per_s(), phase.rounds),
        "host.slowdown_p50": (statistics.median(slowdowns), len(clock.times)),
        "failed_round_share": (failed / attempted if attempted else 0.0, attempted),
    }


def environment() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        describe = git.stdout.strip() if git.returncode == 0 else "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        describe = "unavailable (git not runnable)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_build": blas.get("openblas configuration", "?"),
        "thread_pins": {var: os.environ.get(var) for var in PIN_VARS},
        "git_describe": describe,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, rounds: int | None, out: Path) -> dict:
    """Measure one workload; returns the full record (``correct`` false on a failed check)."""
    tracer = Tracer() if trace else None
    wl = Workload(workload, seed, rounds)
    wl.warm_up()
    problems: list[str] = []
    reference = wl.reference_rows() if wl.tcp else None

    untraced = wl.measure(seconds / 2 if trace else seconds)
    phases = [untraced]
    if trace:
        install_wrappers(tracer)
        wl.tracer = tracer
        try:
            traced = wl.measure(seconds / 2)
        finally:
            tracer.restore()
            wl.tracer = None
        phases.append(traced)
        if traced.first_rows != untraced.first_rows:
            problems.append("traced metrics rows differ from untraced ones")
    for ph in phases:
        problems.extend(ph.problems)
        if reference is not None and ph.first_rows != reference:
            problems.append("tcp metrics rows differ from the in-process run of the same config")

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    e2e = {
        name: {"value": value, "unit": UNITS[name], "samples": n}
        for name, (value, n) in end_to_end_metrics(untraced, wl.clock, attempted, failed).items()
    }
    record = {
        "workload": workload,
        "seed": seed,
        "config_seeds": list(wl.seeds),
        "seconds": seconds,
        "trace": int(trace),
        "rounds_override": rounds,
        "env": environment(),
        "end_to_end": {m.name: e2e[m.name] for m in END_TO_END},
        "informational": {m.name: e2e[m.name] for m in INFORMATIONAL},
        "final_accuracy_per_seed": {str(k): v for k, v in sorted(untraced.final_accuracy.items())},
        "passes": {"untraced": untraced.passes},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": not problems,
    }
    if trace:
        clients = wl.config().clients
        layer = per_layer_metrics(tracer, traced, untraced, wl.clock, clients)
        record["per_layer"] = {k: {"value": v, "unit": UNITS[k]} for k, v in layer.items()}
        record["passes"]["traced"] = traced.passes
        record["skipped_wrappers"] = tracer.skipped
        spans_path = out / f"{workload}-seed{seed}-trace1.spans.jsonl.gz"
        with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as f:
            for s in tracer.spans():
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.thread, s.trace, s.counted_ns]) + "\n")
        record["spans_file"] = str(spans_path)
    with open(out / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    return record


def result_line(record: dict) -> dict:
    """The one-line JSON result: end-to-end metrics untraced, per-layer metrics traced."""
    names = [m.name for m in (PER_LAYER if record["trace"] else END_TO_END)]
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": source[n]["value"], "unit": source[n]["unit"]} for n in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="n runs config seeds 3n+1..3n+3 (default 0: 1,2,3)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="override the config's rounds (smoke runs only)")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    args.out.mkdir(parents=True, exist_ok=True)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.rounds, args.out)
    for kind in ("end_to_end", "informational", "per_layer"):
        for name, m in record.get(kind, {}).items():
            n = f"  n={m['samples']}" if "samples" in m else ""
            print(f"{record['workload']:<13} {name:<46} {m['value']:>14.6g} {m['unit']:<10}{n}")
    for kind, passes in record["passes"].items():
        for p in passes:
            print(f"{kind} pass {p['pass']}: {p['rounds']} rounds in {p['seconds']:.3f} s, ok={p['ok']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
