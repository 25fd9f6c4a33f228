"""Round-based training strategies over the split model.

One coordinator owns the shared server-side model and, per round, drives
three barrier-separated steps: clients forward one batch and ship
activations; the server runs its forward per client and one backward over
the stacked clients, coordinates the per-client server-side gradients into
one update, and steps the server model; every client then receives its
activation gradients and updates its own client-side model.

Strategies:
  gapsl       leader identification plus direction alignment on the server
  psl         plain mean of all per-client server gradients
  sfl         psl plus periodic FedAvg of the client-side models
  vanilla_sl  sequential: one relayed client model visits clients round-robin

Every strategy runs one round function over a list of client ids (all
of them, or one per round for vanilla_sl). The coordinator draws every
batch and drives clients through one cohort interface: one stacked
:class:`ClientBank` in process, a ``transport.ProxyCohort`` over TCP,
which checks every matrix a peer sends. A training round's clients stay
one padded ``[clients, maxlen, cut]`` stack from the bank's forward
through the server to the bank's backward; the server forwards each
client on its rows of the stack, and per-client arrays exist only on the
wire and in evaluation. Every random choice comes from a seeded
substream, so a (config, seed) pair replays bit-identically.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import gda as gda_mod
from . import lgi as lgi_mod
from .config import TCP_STRATEGIES, ExperimentConfig, is_eval_round, require_valid
from .data import Dataset, dirichlet_partition, iid_partition, load_idx_dataset, synth_gaussian_mixture
from .errors import ConfigError, CoordinationSkipped
from .geometry import Cohort, pairwise_mean_deviation
from .nn import (
    DenseLayer,
    ModelSpec,
    SplitModel,
    backward_client,
    backward_server,
    forward_client,
    forward_hidden,
    forward_server,
    layer_views,
    logits_from_activations,
    sgd_state,
    sgd_step,
    split_model,
    stack_caches,
)
from .transport import ProxyCohort, RemoteClientProxy

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
    """The run's train and test sets, for the coordinator and a TCP client
    alike. Raises :class:`ConfigError` when an idx set's input width is not
    ``model_dims[0]`` or it holds a label the output layer cannot score;
    the synthetic sets are drawn to fit."""
    if cfg.dataset == "idx":
        sets = (
            load_idx_dataset(cfg.train_images, cfg.train_labels),
            load_idx_dataset(cfg.test_images, cfg.test_labels),
        )
        for name, ds in zip(("train", "test"), sets):
            width = ds.inputs.shape[1]
            if width != cfg.input_dim:
                raise ConfigError(f"{name} set inputs have width {width}, but model_dims[0] is {cfg.input_dim}")
            top = ds.num_classes - 1  # an idx set's num_classes is its largest label + 1
            if top >= cfg.num_classes:
                raise ConfigError(f"{name} set holds label {top}, but model_dims[-1] is {cfg.num_classes}")
        return sets
    return synth_gaussian_mixture(
        num_classes=cfg.num_classes,
        dim=cfg.input_dim,
        samples_per_class=cfg.samples_per_class,
        spread=cfg.spread,
        seed=substream(seed, STREAM_DATASET),
    )


def build_partition(cfg: ExperimentConfig, seed: int, labels: np.ndarray) -> list[np.ndarray]:
    rng = substream(seed, STREAM_PARTITION)
    if cfg.alpha is None:
        return iid_partition(labels, cfg.clients, rng)
    return dirichlet_partition(labels, cfg.clients, cfg.alpha, rng)


def build_model(cfg: ExperimentConfig, seed: int) -> SplitModel:
    """The run's initial float32 model: the engine trains in the wire's precision."""
    return split_model(ModelSpec(tuple(cfg.model_dims)), cfg.cut, substream(seed, STREAM_INIT))


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


def shard_cursors(
    cfg: ExperimentConfig, seed: int, partition: list[np.ndarray], ids: Iterable[int]
) -> list[ShardCursor]:
    """The batch streams of clients ``ids``; a TCP client replays its own."""
    return [ShardCursor(partition[i], substream(seed, STREAM_SHUFFLE, i), cfg.batch_size) for i in ids]


def padded_rows(batches: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """The round's batches as one ``[clients, maxlen]`` index matrix, each
    row padded by reading sample 0, and their lengths. The matrix is at
    least two rows deep, even when every batch is one row: numpy multiplies
    a one-row matrix by gemv, which rounds differently from gemm, so every
    client's products run gemm whatever its cohort or transport."""
    lengths = [len(b) for b in batches]
    rows = np.zeros((len(batches), max(2, *lengths)), dtype=np.intp)
    for k, b in enumerate(batches):
        rows[k, : len(b)] = b
    return rows, lengths


class ClientBank:
    """Client-side models and optimizers of a set of clients: one ``[clients,
    P]`` parameter matrix, row k client k's, with ``layers`` its views. The
    in-process :class:`ClientCohort`; a TCP client is a bank of one.

    Every client starts from the same ``build_model(cfg, seed)``. A round
    runs one stacked forward over the index matrix of :func:`padded_rows`,
    returns the ``[clients, maxlen, cut]`` activation stack, and takes back
    a gradient stack of that shape whose padding rows are zero, for one
    stacked backward, into a gradient matrix the bank allocates once, and
    one momentum-SGD step. Padding rows weigh nothing and
    every product runs gemm, so each client's bits do not depend on its bank.
    """

    def __init__(
        self, cfg: ExperimentConfig, seed: int, client_ids: Iterable[int], train: Dataset, test: Dataset
    ):
        self.client_ids = list(client_ids)
        self.activation = cfg.activation
        self.widths = cfg.model_dims[: cfg.cut + 1]
        self.params = np.repeat(build_model(cfg, seed).client_params[None], len(self.client_ids), axis=0)
        self.layers = layer_views(self.params, self.widths)
        self.opt = sgd_state(self.layers, cfg.lr_client, cfg.momentum)
        self.grads = np.empty_like(self.params)  # every round's backward writes here
        self.train_inputs = train.inputs.astype(np.float32, copy=False)
        self.test_inputs = test.inputs.astype(np.float32, copy=False)
        self._cache = None  # the stacked forward's, until its gradients arrive

    def _models(self, k: int) -> list[DenseLayer]:
        """Client ``k``'s layers, as views."""
        return [DenseLayer(l.w[k], l.b[k]) for l in self.layers]

    def forward(self, round_t: int, rows: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
        acts, self._cache = forward_client(self.layers, self.train_inputs[rows], self.activation)
        return acts

    def apply_grads(self, round_t: int, act_grads: np.ndarray) -> None:
        cache, self._cache = self._cache, None
        backward_client(self.layers, cache, act_grads, self.grads)
        sgd_step(self.params, self.grads, self.opt)

    def eval_activations(self, round_t: int) -> Iterator[np.ndarray]:
        # client by client: a stacked pass over the test set would hold
        # every client's activations at once; no backward follows, so no cache
        for k in range(len(self.client_ids)):
            yield forward_hidden(self._models(k), self.test_inputs, self.activation)

    def average(self, weights: Sequence[float]) -> None:
        """FedAvg: give every client the ``weights``-weighted mean of the
        clients' models, summed in float64 in client order."""
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()
        # Python's sum adds client after client; numpy's axis-0 sum need not
        rows = self.params.astype(np.float64)
        self.params[...] = sum(wk * row for wk, row in zip(w, rows)).astype(self.params.dtype)


class ClientCohort(Protocol):
    """What the coordinator needs from its clients, one call per round step:
    a :class:`ClientBank` in process, a :class:`ProxyCohort` over TCP.

    A training round crosses as stacks: ``forward`` gets the round's batches
    as :func:`padded_rows` gives them and returns the ``[clients, maxlen,
    cut]`` activation stack, as deep as the index matrix; ``apply_grads``
    takes the activation-gradient stack of that shape, zero on padding rows,
    once per forward. Evaluation yields one array per client, in id order."""

    def forward(self, round_t: int, rows: np.ndarray, lengths: Sequence[int]) -> np.ndarray: ...
    def apply_grads(self, round_t: int, act_grads: np.ndarray) -> None: ...
    def eval_activations(self, round_t: int) -> Iterator[np.ndarray]: ...


@dataclass
class RoundReport:
    """Everything the metrics sink records about one training round.

    ``client_losses`` holds the clients' training losses in float64, in
    ``client_ids`` order; :attr:`train_losses` maps id to loss on access.
    A run keeps every report, and at 100 clients a stored dict of 100
    Python floats would be most of a report's memory.
    """

    round: int
    epoch_equiv: float
    client_ids: tuple[int, ...]
    client_losses: np.ndarray
    train_loss: float
    accuracy: float | None = None
    pairwise_deviation: float | None = None
    # coordination stages; the defaults stand where a stage did not run
    global_loss: float | None = None
    k_percent: float | None = None
    theta_threshold: float | None = None
    selected_ids: tuple[int, ...] | None = None
    survivor_ids: tuple[int, ...] | None = None
    coordination_skipped: bool = False
    gda_fallback: bool = False

    @property
    def train_losses(self) -> dict[int, float]:
        return dict(zip(self.client_ids, self.client_losses.tolist()))

    @property
    def selected_count(self) -> int | None:
        return None if self.selected_ids is None else len(self.selected_ids)

    @property
    def survivor_count(self) -> int | None:
        return None if self.survivor_ids is None else len(self.survivor_ids)


class TrainingEngine:
    """Runs one (config, seed) experiment over its client cohort.

    Raises :class:`ConfigError` listing every rule ``cfg`` breaks, or when
    :func:`build_dataset`'s train or test set does not fit the model.
    ``proxies`` are the remote clients of a TCP run, which serves gapsl and
    psl only, and whose largest training batch and test set must each fit
    one frame; without them the clients are one in-process :class:`ClientBank`.
    """

    def __init__(self, cfg: ExperimentConfig, seed: int, proxies: dict[int, RemoteClientProxy] | None = None):
        require_valid(cfg)
        if proxies is not None and cfg.strategy not in TCP_STRATEGIES:
            raise ConfigError(f"tcp transport supports only gapsl and psl, got {cfg.strategy}")
        if proxies is not None and sorted(proxies) != list(range(cfg.clients)):
            raise ConfigError(f"tcp transport needs one proxy per client 0..{cfg.clients - 1}, got {sorted(proxies)}")
        self.cfg = cfg
        self.train, self.test = build_dataset(cfg, seed)
        self.partition = build_partition(cfg, seed, self.train.labels)
        model = build_model(cfg, seed)
        self.activation = cfg.activation
        self.server, self.server_params = model.server, model.server_params
        self.server_opt = sgd_state(self.server, cfg.lr_server, cfg.momentum)
        self.cursors = shard_cursors(cfg, seed, self.partition, range(cfg.clients))
        self.clients: ClientCohort
        if proxies is None:
            ids = [0] if cfg.strategy == "vanilla_sl" else range(cfg.clients)  # vanilla_sl relays one model
            self.clients = ClientBank(cfg, seed, ids, self.train, self.test)
        else:  # a client's largest batch is at most its shard
            batch = min(cfg.batch_size, max(map(len, self.partition)))
            self.clients = ProxyCohort(proxies, cfg.model_dims[cfg.cut], batch, len(self.test))
        self.lgi_state = lgi_mod.LgiState()
        self.lgi_cfg = lgi_mod.LgiConfig(total_rounds=cfg.rounds, k_min=cfg.k_min, k_max=cfg.k_max)
        self.gda_cfg = gda_mod.GdaConfig(eta=cfg.eta, lam=cfg.lam, threshold_override=cfg.theta_th_override)
        self.ablation_rng = substream(seed, STREAM_ABLATION)
        self.samples_consumed = 0

    # ---- per-round pieces ------------------------------------------------

    def _coordinate(self, cohort: Cohort, losses: np.ndarray):
        """GAPSL coordination of the round's cohort, whose clients' losses
        are ``losses`` by row; returns (update_vec, the report fields it sets)."""
        cfg = self.cfg
        try:
            lgi_out = lgi_mod.run_lgi(
                cohort, self.lgi_state, self.lgi_cfg, cohort.round, rng=self.ablation_rng if cfg.rand_lgi else None
            )
        except CoordinationSkipped:
            return np.add.reduce(cohort.values, axis=0) / len(cohort.ids), {"coordination_skipped": True}

        fields = {"k_percent": lgi_out.k_percent, "selected_ids": lgi_out.selected}
        if cfg.non_gda:
            return lgi_out.leader.values, fields

        gda_out = gda_mod.run_gda(
            cohort, losses, lgi_out.leader, self.gda_cfg, rng=self.ablation_rng if cfg.rand_gda else None
        )
        fields.update(
            theta_threshold=gda_out.threshold,
            survivor_ids=gda_out.survivors,
            global_loss=gda_out.global_loss,
            gda_fallback=gda_out.fallback,
        )
        if gda_out.fallback:
            return lgi_out.leader.values, fields
        block = gda_out.corrected_rows
        return np.add.reduce(block, axis=0) / len(block), fields

    def _evaluate(self, round_t: int) -> float:
        accs = []
        for acts in self.clients.eval_activations(round_t):
            logits = logits_from_activations(self.server, acts, self.activation)
            hits = np.count_nonzero(logits.argmax(axis=1) == self.test.labels)
            accs.append(hits / len(self.test.labels))
        return float(np.add.reduce(accs) / len(accs))

    # ---- rounds ----------------------------------------------------------

    def _round(self, t: int, ids: Sequence[int]) -> RoundReport:
        """One round over clients ``ids``: every client for the parallel
        strategies, the relay's current client for vanilla_sl."""
        cfg = self.cfg
        rows, lengths = padded_rows([self.cursors[i].next() for i in ids])
        acts = self.clients.forward(t, rows, lengths)  # [clients, maxlen, cut]: built by the bank, or checked per peer
        self.samples_consumed += sum(lengths)

        # the server forwards client by client on views of the stack, then
        # backprops every client in one stack, whose rows are the round's
        # g[clients, params] matrix, its cohort: prepared once, its Gram
        # serves the pairwise stat, LGI and GDA
        labels = self.train.labels[rows]
        losses, caches = [], []
        for k, n in enumerate(lengths):
            _, loss, cache = forward_server(self.server, acts[k, :n], labels[k, :n], self.activation)
            losses.append(loss)
            caches.append(cache)
        g = np.empty((len(ids), self.server_params.size), dtype=self.server_params.dtype)
        stack, weights = stack_caches(caches, acts, labels)
        act_grads = backward_server(self.server, stack, g, weights)
        client_losses = np.array(losses)
        cohort = Cohort(ids, g, t)

        pairwise = pairwise_mean_deviation(cohort)
        fields = {}
        if cfg.strategy == "gapsl":
            update, fields = self._coordinate(cohort, client_losses)
        else:
            update = np.add.reduce(cohort.values, axis=0) / len(ids)
        sgd_step(self.server_params, update, self.server_opt)

        self.clients.apply_grads(t, act_grads)

        if cfg.strategy == "sfl" and t % cfg.sfl_interval == 0:  # in process only: a ClientBank
            self.clients.average([len(self.partition[i]) for i in ids])

        return RoundReport(
            round=t,
            epoch_equiv=self.samples_consumed / len(self.train),
            client_ids=tuple(ids),
            client_losses=client_losses,
            train_loss=float(np.add.reduce(client_losses) / len(ids)),
            pairwise_deviation=pairwise,
            **fields,
        )

    def run_round(self, t: int) -> RoundReport:
        n = self.cfg.clients
        report = self._round(t, [(t - 1) % n] if self.cfg.strategy == "vanilla_sl" else range(n))
        if is_eval_round(self.cfg, t):
            report.accuracy = self._evaluate(t)
        return report

    def run(self) -> list[RoundReport]:
        return [self.run_round(t) for t in range(1, self.cfg.rounds + 1)]


def run_experiment(cfg: ExperimentConfig, seed: int) -> list[RoundReport]:
    """Run one seed fully in process and return its round reports."""
    return TrainingEngine(cfg, seed).run()
