"""Round-based training strategies over the split model.

One coordinator owns the shared server-side model and, per round, drives
three barrier-separated steps: clients forward one batch and ship
activations; the server runs forward/backward per client, coordinates the
per-client server-side gradients into one update, and steps the server
model; every client then receives its activation gradients and updates
its own client-side model.

Strategies:
  gapsl       leader identification plus direction alignment on the server
  psl         plain mean of all per-client server gradients
  sfl         psl plus periodic FedAvg of the client-side models
  vanilla_sl  sequential: one relayed client model visits clients round-robin

Clients are driven through proxies so the same engine runs both the
in-process simulation and the TCP deployment. Every random choice comes
from a seeded substream, so a (config, seed) pair replays bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import gda as gda_mod
from . import lgi as lgi_mod
from .config import ExperimentConfig, is_eval_round
from .data import Dataset, Partition, dirichlet_partition, iid_partition, load_idx_dataset, synth_gaussian_mixture
from .errors import ConfigError, CoordinationSkipped, ProtocolError
from .geometry import GradientVector, flatten, pairwise_mean_deviation, unflatten
from .nn import (
    ModelSpec,
    SplitModel,
    backward_client,
    backward_server,
    forward_client,
    forward_server,
    grads_arrays,
    logits_from_activations,
    params_arrays,
    set_params,
    sgd_state,
    sgd_step,
    split_model,
)

# substream tags: every consumer of randomness gets its own child stream of
# the run seed, so strategies never perturb each other's draws
STREAM_DATASET = 1
STREAM_PARTITION = 2
STREAM_INIT = 3
STREAM_SHUFFLE = 4
STREAM_ABLATION = 5


def substream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng((seed, *tags))


def build_dataset(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    if cfg.dataset == "idx":
        return (
            load_idx_dataset(cfg.train_images, cfg.train_labels),
            load_idx_dataset(cfg.test_images, cfg.test_labels),
        )
    return synth_gaussian_mixture(
        num_classes=cfg.num_classes,
        dim=cfg.input_dim,
        samples_per_class=cfg.samples_per_class,
        spread=cfg.spread,
        seed=substream(seed, STREAM_DATASET),
    )


def build_partition(cfg: ExperimentConfig, seed: int, labels: np.ndarray) -> Partition:
    rng = substream(seed, STREAM_PARTITION)
    if cfg.alpha is None:
        return iid_partition(labels, cfg.clients, rng)
    return dirichlet_partition(labels, cfg.clients, cfg.alpha, rng)


def build_model(cfg: ExperimentConfig, seed: int, dtype=np.float32) -> SplitModel:
    spec = ModelSpec(tuple(cfg.model_dims), cfg.activation)
    return split_model(spec, cfg.cut, substream(seed, STREAM_INIT), dtype=dtype)


class ShardCursor:
    """Deterministic batch-index stream over one client's shard.

    Reshuffles with its own generator at every epoch boundary; the final
    batch of an epoch may be short.
    """

    def __init__(self, indices: np.ndarray, rng: np.random.Generator, batch_size: int):
        self.indices = np.asarray(indices)
        self.rng = rng
        self.batch_size = batch_size
        self._perm: np.ndarray | None = None
        self._pos = 0

    def next(self) -> np.ndarray:
        if self._perm is None or self._pos >= len(self._perm):
            self._perm = self.rng.permutation(self.indices)
            self._pos = 0
        take = min(self.batch_size, len(self._perm) - self._pos)
        out = self._perm[self._pos : self._pos + take]
        self._pos += take
        return out


class ClientWorker:
    """Client-side model, optimizer and data pipeline for one device; the
    in-process :class:`ClientProxy`."""

    def __init__(
        self,
        cfg: ExperimentConfig,
        seed: int,
        client_id: int,
        data: tuple[Dataset, Dataset, Partition] | None = None,
        dtype=np.float32,
    ):
        self.client_id = client_id
        self.activation = cfg.activation
        if data is None:
            train, test = build_dataset(cfg, seed)
            partition = build_partition(cfg, seed, train.labels)
        else:
            train, test, partition = data
        model = build_model(cfg, seed, dtype=dtype)
        self.layers = model.client
        self.opt = sgd_state(self.layers, cfg.lr_client, cfg.momentum)
        self.train_inputs = train.inputs.astype(dtype, copy=False)
        self.test_inputs = test.inputs.astype(dtype, copy=False)
        self.cursor = ShardCursor(
            partition.client_indices[client_id],
            substream(seed, STREAM_SHUFFLE, client_id),
            cfg.batch_size,
        )
        self._cache = None

    def forward_round(self, round_t: int) -> np.ndarray:
        return self.forward_indices(self.cursor.next())

    def forward_indices(self, indices: np.ndarray) -> np.ndarray:
        acts, self._cache = forward_client(self.layers, self.train_inputs[indices], self.activation)
        return acts

    def apply_grads(self, round_t: int, act_grads: np.ndarray) -> None:
        if self._cache is None:
            raise ProtocolError(f"client {self.client_id}: gradients received before any forward pass")
        grads = backward_client(self.layers, self._cache, act_grads)
        self._cache = None
        sgd_step(self.layers, grads, self.opt)

    def eval_activations(self, round_t: int) -> np.ndarray:
        acts, _ = forward_client(self.layers, self.test_inputs, self.activation)
        return acts

    def get_params(self) -> list[np.ndarray]:
        return [a.copy() for a in params_arrays(self.layers)]

    def set_params(self, arrays: list[np.ndarray]) -> None:
        set_params(self.layers, arrays)


class ClientProxy(Protocol):
    """What the coordinator needs from a client: a ClientWorker in process,
    a transport.RemoteClientProxy over TCP."""

    def forward_round(self, round_t: int) -> np.ndarray: ...
    def apply_grads(self, round_t: int, act_grads: np.ndarray) -> None: ...
    def eval_activations(self, round_t: int) -> np.ndarray: ...
    def get_params(self) -> list[np.ndarray]: ...
    def set_params(self, arrays: list[np.ndarray]) -> None: ...


@dataclass
class RoundReport:
    """Everything the metrics sink records about one training round."""

    round: int
    epoch_equiv: float
    train_losses: dict[int, float]
    train_loss: float
    accuracy: float | None = None
    pairwise_deviation: float | None = None
    # coordination stages; the defaults stand where a stage did not run
    regularized_losses: dict[int, float] | None = None
    global_loss: float | None = None
    k_percent: float | None = None
    theta_threshold: float | None = None
    selected_ids: tuple[int, ...] | None = None
    survivor_ids: tuple[int, ...] | None = None
    coordination_skipped: bool = False
    gda_fallback: bool = False
    wall_ms: float = 0.0

    @property
    def selected_count(self) -> int | None:
        return None if self.selected_ids is None else len(self.selected_ids)

    @property
    def survivor_count(self) -> int | None:
        return None if self.survivor_ids is None else len(self.survivor_ids)


def fedavg(param_sets: list[list[np.ndarray]], weights: list[float]) -> list[np.ndarray]:
    """Convex combination of parameter lists with normalized weights."""
    if not param_sets:
        raise ConfigError("fedavg of zero models")
    shapes = [tuple(a.shape) for a in param_sets[0]]
    for ps in param_sets[1:]:
        if [tuple(a.shape) for a in ps] != shapes:
            raise ConfigError("fedavg models disagree on parameter shapes")
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(param_sets) or (w < 0).any() or w.sum() == 0:
        raise ConfigError(f"bad fedavg weights {weights}")
    w = w / w.sum()
    merged = []
    for k in range(len(shapes)):
        acc = np.zeros(shapes[k], dtype=np.float64)
        for wi, ps in zip(w, param_sets):
            acc += wi * ps[k].astype(np.float64)
        merged.append(acc.astype(param_sets[0][k].dtype))
    return merged


class TrainingEngine:
    """Runs one (config, seed) experiment over a set of client proxies."""

    def __init__(
        self,
        cfg: ExperimentConfig,
        seed: int,
        proxies: dict[int, ClientProxy] | None = None,
        dtype=np.float32,
        data: tuple[Dataset, Dataset, Partition] | None = None,
    ):
        self.cfg = cfg
        self.seed = seed
        self.dtype = dtype
        if data is None:
            self.train, self.test = build_dataset(cfg, seed)
            self.partition = build_partition(cfg, seed, self.train.labels)
        else:
            self.train, self.test, self.partition = data
        model = build_model(cfg, seed, dtype=dtype)
        self.activation = cfg.activation
        self.server = model.server
        self.fan_in = self.server[0].w.shape[0]
        self.server_opt = sgd_state(self.server, cfg.lr_server, cfg.momentum)
        self.server_shapes = [a.shape for a in params_arrays(self.server)]
        # the coordinator's own batch cursors replay exactly what each client
        # draws, so it can pair incoming activations with the right labels
        # without labels ever crossing the wire
        self.label_cursors = [
            ShardCursor(
                self.partition.client_indices[i],
                substream(seed, STREAM_SHUFFLE, i),
                cfg.batch_size,
            )
            for i in range(cfg.clients)
        ]
        if proxies is None:
            shared = (self.train, self.test, self.partition)
            count = 1 if cfg.strategy == "vanilla_sl" else cfg.clients
            proxies = {i: ClientWorker(cfg, seed, i, data=shared, dtype=dtype) for i in range(count)}
        self.proxies = proxies
        self.lgi_state = lgi_mod.LgiState()
        self.lgi_cfg = lgi_mod.LgiConfig(total_rounds=cfg.rounds, k_min=cfg.k_min, k_max=cfg.k_max)
        self.gda_cfg = gda_mod.GdaConfig(
            eta=cfg.eta,
            lam=cfg.lam,
            apply_correction=(cfg.gda_mode == "gradient"),
            threshold_override=cfg.theta_th_override,
        )
        self.ablation_rng = substream(seed, STREAM_ABLATION)
        self.samples_consumed = 0

    # ---- per-round pieces ------------------------------------------------

    def _server_pass(self, acts: np.ndarray, labels: np.ndarray):
        _, mean_loss, cache = forward_server(self.server, acts, labels, self.activation)
        server_grads, act_grads = backward_server(self.server, cache)
        return mean_loss, flatten(grads_arrays(server_grads)), act_grads

    def _apply_server_update(self, update_vec: np.ndarray) -> None:
        arrays = unflatten(update_vec, self.server_shapes)
        pairs = [(arrays[2 * i], arrays[2 * i + 1]) for i in range(len(self.server))]
        sgd_step(self.server, pairs, self.server_opt)

    def _call_client(self, t: int, i: int, phase: str, call, *args, shape=None):
        """Run one engine call into client ``i``; protocol errors and (when
        ``shape`` is given) a returned matrix of the wrong shape are raised
        as a ProtocolError naming the round, the client and the phase."""
        try:
            out = call(*args)
            # checked here so a lying peer is a protocol error, not a model error
            if shape is not None and out.shape != shape:
                raise ProtocolError(f"expected activations of shape {shape}, got {out.shape}")
        except ProtocolError as e:
            raise ProtocolError(f"round {t} client {i} ({phase}): {e}") from e
        return out

    def _coordinate(
        self, cohort: list[GradientVector], g: np.ndarray, losses: dict[int, float], round_t: int
    ):
        """GAPSL coordination of the round's ``g[clients, params]`` (``cohort``
        holds its rows); returns (update_vec, the report fields it sets)."""
        cfg = self.cfg
        try:
            mode = "all" if cfg.non_lgi else ("random" if cfg.rand_lgi else "consistent")
            lgi_out = lgi_mod.run_lgi(
                cohort,
                self.lgi_state,
                self.lgi_cfg,
                round_t,
                mode=mode,
                rng=self.ablation_rng if cfg.rand_lgi else None,
            )
        except CoordinationSkipped:
            return g.mean(axis=0), {"coordination_skipped": True}

        fields = {"k_percent": lgi_out.k_percent, "selected_ids": lgi_out.selected}
        if cfg.non_gda:
            return lgi_out.leader.values, fields

        gda_out = gda_mod.run_gda(
            cohort,
            losses,
            lgi_out.leader,
            self.gda_cfg,
            survivor_mode="random" if cfg.rand_gda else "threshold",
            rng=self.ablation_rng if cfg.rand_gda else None,
        )
        fields.update(
            theta_threshold=gda_out.threshold,
            survivor_ids=gda_out.survivors,
            regularized_losses=gda_out.regularized_losses,
            global_loss=gda_out.global_loss,
            gda_fallback=gda_out.fallback,
        )
        if gda_out.fallback:
            return lgi_out.leader.values, fields
        update = np.stack([gda_out.corrected[i] for i in sorted(gda_out.survivors)]).mean(axis=0)
        return update, fields

    def _evaluate(self, round_t: int) -> float:
        shape = (len(self.test), self.fan_in)
        accs = []
        for i in sorted(self.proxies):
            acts = self._call_client(round_t, i, "eval", self.proxies[i].eval_activations, round_t, shape=shape)
            logits = logits_from_activations(self.server, acts, self.activation)
            pred = logits.argmax(axis=1)
            accs.append(float((pred == self.test.labels).sum()) / len(self.test.labels))
        return float(np.mean(accs))

    # ---- rounds ----------------------------------------------------------

    def _round_parallel(self, t: int) -> RoundReport:
        cfg = self.cfg
        ids = range(cfg.clients)
        acts, labels = [], []
        for i in ids:
            idx = self.label_cursors[i].next()
            labels.append(self.train.labels[idx])
            shape = (len(idx), self.fan_in)
            acts.append(self._call_client(t, i, "forward", self.proxies[i].forward_round, t, shape=shape))
            self.samples_consumed += len(idx)

        # the round's cohort is one g[clients, params] matrix, prepared once
        losses, rows, act_grads = zip(*map(self._server_pass, acts, labels))
        g = np.stack(rows)
        cohort = [GradientVector(i, t, g[i]) for i in ids]
        train_losses = dict(enumerate(losses))

        pairwise = pairwise_mean_deviation(cohort)
        fields = {}
        if cfg.strategy == "gapsl":
            update, fields = self._coordinate(cohort, g, train_losses, t)
        else:
            update = g.mean(axis=0)
        self._apply_server_update(update)

        for i in ids:
            self._call_client(t, i, "backward", self.proxies[i].apply_grads, t, act_grads[i])

        if cfg.strategy == "sfl" and t % cfg.sfl_interval == 0:
            sizes = [float(len(self.partition.client_indices[i])) for i in ids]
            merged = fedavg([self.proxies[i].get_params() for i in ids], sizes)
            for i in ids:
                self.proxies[i].set_params(merged)

        return RoundReport(
            round=t,
            epoch_equiv=self.samples_consumed / len(self.train),
            train_losses=train_losses,
            train_loss=float(np.mean(losses)),
            pairwise_deviation=pairwise,
            **fields,
        )

    def _round_vanilla(self, t: int) -> RoundReport:
        active = (t - 1) % self.cfg.clients
        idx = self.label_cursors[active].next()
        labels = self.train.labels[idx]
        relay: ClientWorker = self.proxies[0]  # vanilla_sl runs in process only
        acts = self._call_client(t, active, "forward", relay.forward_indices, idx, shape=(len(idx), self.fan_in))
        self.samples_consumed += len(idx)
        loss, g_vec, act_grads = self._server_pass(acts, labels)
        self._apply_server_update(g_vec)
        self._call_client(t, active, "backward", relay.apply_grads, t, act_grads)
        return RoundReport(
            round=t,
            epoch_equiv=self.samples_consumed / len(self.train),
            train_losses={active: loss},
            train_loss=loss,
        )

    def run_round(self, t: int) -> RoundReport:
        started = time.perf_counter()
        if self.cfg.strategy == "vanilla_sl":
            report = self._round_vanilla(t)
        else:
            report = self._round_parallel(t)
        if is_eval_round(self.cfg, t):
            report.accuracy = self._evaluate(t)
        report.wall_ms = (time.perf_counter() - started) * 1000.0
        return report

    def run(self) -> list[RoundReport]:
        return [self.run_round(t) for t in range(1, self.cfg.rounds + 1)]


def run_experiment(cfg: ExperimentConfig, seed: int, dtype=np.float32) -> list[RoundReport]:
    """Run one seed fully in process and return its round reports."""
    if cfg.rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {cfg.rounds}")
    return TrainingEngine(cfg, seed, dtype=dtype).run()
