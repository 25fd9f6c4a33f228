"""Every metric the benchmark reports, with the layer it belongs to.

``moves`` records, before any optimisation is written, which end-to-end
metric on which workload a change to that layer should move; a claimed
gain elsewhere is a different claim. BENCHMARK.json lists the same names,
units and directions (a test keeps the two in step) plus the bounds.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str


# Timings are wall times with their CPU part restated at a reference host
# speed (workload.HostClock): the shared host this was sized on runs the same
# code up to ~1.8x slower for seconds at a time and drifts by ~25% over
# minutes. The raw wall-time figures are reported too, ungated, in
# INFORMATIONAL.
END_TO_END = [
    Metric("setup_s", "s", "lower", "end_to_end",
           "median set-up, config parse to first round ready: dataset, partition, model init, client workers; "
           "on tcp_loopback also listen and HELLO/CONFIG handshake"),
    Metric("samples_per_s", "samples/s", "higher", "end_to_end",
           "training samples consumed by all clients / summed round times, eval rounds included"),
    Metric("train_round_ms_p50", "ms", "lower", "end_to_end", "median time of non-evaluation rounds"),
    Metric("train_round_ms_p90", "ms", "lower", "end_to_end", "90th percentile of the same: the tail"),
    Metric("eval_round_ms_p50", "ms", "lower", "end_to_end",
           "median time of evaluation rounds (t % eval_interval == 0 or the last round)"),
    Metric("final_accuracy", "fraction", "higher", "end_to_end",
           "mean over the run's seeds of the last evaluated accuracy; the quality guard"),
    Metric("peak_rss_mb", "MiB", "lower", "end_to_end", "peak resident memory of the workload process"),
]

INFORMATIONAL = [
    Metric("raw.setup_s", "s", "lower", "end_to_end", "setup_s in plain wall time"),
    Metric("raw.train_round_ms_p50", "ms", "lower", "end_to_end", "train_round_ms_p50 in plain wall time"),
    Metric("raw.train_round_ms_p90", "ms", "lower", "end_to_end", "train_round_ms_p90 in plain wall time"),
    Metric("raw.eval_round_ms_p50", "ms", "lower", "end_to_end", "eval_round_ms_p50 in plain wall time"),
    Metric("raw.samples_per_s", "samples/s", "higher", "end_to_end", "samples_per_s in plain wall time"),
    Metric("host.slowdown_p50", "ratio", "lower", "end_to_end",
           "median host slowdown against the reference speed over the timed rounds; samples = calibrations"),
    Metric("failed_round_share", "ratio", "lower", "end_to_end",
           "rounds that raised / rounds attempted; a raise fails every remaining round of its seed"),
]

_COHORT_ANGLES = "train_round_ms_p50, samples_per_s on cohort100; barely desk; not tcp_loopback"
_COORD_GUARD = "guards final_accuracy (vectorizing can flip top-k ties); expected unchanged"
_TRANSPORT = "eval_round_ms_p50, samples_per_s on tcp_loopback; nothing on the in-process workloads"

PER_LAYER = [
    Metric("geometry.angle_evals_per_round", "count", "lower", "geometry", _COHORT_ANGLES),
    Metric("geometry.distinct_angle_share", "ratio", "higher", "geometry", _COHORT_ANGLES),
    Metric("geometry.pairwise_mean_deviation.ms_per_round", "ms", "lower", "geometry", _COHORT_ANGLES),
    Metric("lgi.run_lgi.ms_per_round", "ms", "lower", "lgi", _COHORT_ANGLES),
    Metric("lgi.selected_share", "ratio", "higher", "lgi", _COORD_GUARD),
    Metric("lgi.skipped_rounds", "count", "lower", "lgi", _COORD_GUARD),
    Metric("gda.run_gda.ms_per_round", "ms", "lower", "gda", _COHORT_ANGLES),
    Metric("gda.survivor_share", "ratio", "higher", "gda", _COORD_GUARD),
    Metric("gda.fallback_rounds", "count", "lower", "gda", _COORD_GUARD),
    Metric("nn.forward_client.ms_per_round", "ms", "lower", "nn",
           "train_round_ms_p50 on desk; on cohort100 once coordination shrinks"),
    Metric("nn.backward_client.ms_per_round", "ms", "lower", "nn",
           "train_round_ms_p50 on desk; on cohort100 once coordination shrinks"),
    Metric("nn.forward_server.ms_per_round", "ms", "lower", "nn",
           "train_round_ms_p50 on desk; on cohort100 once coordination shrinks"),
    Metric("nn.backward_server.ms_per_round", "ms", "lower", "nn",
           "train_round_ms_p50 on desk; on cohort100 once coordination shrinks"),
    Metric("nn.server_passes_per_round", "count", "lower", "nn",
           "n today, 1 after one batched server pass; train_round_ms_p50 on cohort100 and desk"),
    Metric("nn.sgd_step.ms_per_round", "ms", "lower", "nn", "train_round_ms_p50 on desk"),
    Metric("nn.logits_from_activations.ms_per_eval_round", "ms", "lower", "nn", "eval_round_ms_p50 on desk"),
    Metric("orchestrator.run_round.self_ms_per_round", "ms", "lower", "orchestrator",
           "train_round_ms_p50 on desk (dict and stack glue plus unflatten)"),
    Metric("orchestrator.engine_setup_ms", "ms", "lower", "orchestrator", "setup_s on cohort100"),
    Metric("data.setup_ms", "ms", "lower", "data", "setup_s on every workload"),
    Metric("transport.frames_per_round", "count", "lower", "transport", _TRANSPORT),
    Metric("transport.bytes_per_round", "bytes", "lower", "transport", _TRANSPORT),
    Metric("transport.encode.ms_per_round", "ms", "lower", "transport", _TRANSPORT),
    Metric("transport.decode.ms_per_round", "ms", "lower", "transport", _TRANSPORT),
    Metric("transport.decode_attempts_per_frame", "ratio", "lower", "transport", _TRANSPORT),
    Metric("transport.wait_ms_per_train_round", "ms", "lower", "transport", _TRANSPORT),
    Metric("transport.wait_ms_per_eval_round", "ms", "lower", "transport", _TRANSPORT),
    Metric("transport.handshake_ms", "ms", "lower", "transport", "setup_s on tcp_loopback"),
    Metric("trace.samples_per_s_untraced", "samples/s", "higher", "trace",
           "untraced throughput of the trace run, the base of the overhead"),
    Metric("trace.samples_per_s_traced", "samples/s", "higher", "trace", "throughput with every wrapper installed"),
    Metric("trace.overhead_share", "ratio", "lower", "trace",
           "1 - traced / untraced samples_per_s; the cost of the tracing itself"),
]

UNITS = {m.name: m.unit for m in END_TO_END + INFORMATIONAL + PER_LAYER}
