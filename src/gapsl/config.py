"""Experiment configuration: flat key=value files, flag overrides, validation.

The file format is line-oriented ``key = value`` with ``#`` comments.
Values given on the command line override file values. Validation collects
every violation before failing so a bad config is reported in one shot.
:func:`validate` is the only place a config rule is checked: the data, model,
optimizers, LGI and GDA built from a valid config take their arguments as given.
The wire's limits a config can break live here too; ``transport`` holds the
frame layout, and refuses a seed whose matrix frames would pass the cap.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ConfigError

ACTIVATIONS = ("relu", "tanh")
STRATEGIES = ("gapsl", "psl", "sfl", "vanilla_sl")
DATASETS = ("gaussian", "idx")
TRANSPORTS = ("inproc", "tcp")
TCP_STRATEGIES = ("gapsl", "psl")  # the wire carries no client models
MAX_TCP_CLIENTS = 0xFFFF  # HELLO and the matrix headers carry the client id as u16
MAX_TCP_ROUNDS = 0xFFFFFFFF  # the matrix headers carry the round as u32
MAX_FRAME = 64 * 1024 * 1024  # a frame body's cap, in bytes


@dataclass
class ExperimentConfig:
    strategy: str = "gapsl"
    clients: int = 10
    rounds: int = 80
    batch_size: int = 32
    seeds: tuple[int, ...] = (1,)
    eval_interval: int = 5

    # data
    dataset: str = "gaussian"
    alpha: float | None = 0.1            # None = IID partition
    samples_per_class: int = 400
    spread: float = 0.2
    train_images: str | None = None      # idx dataset paths
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None

    # model
    model_dims: tuple[int, ...] = (16, 32, 32, 8)
    cut: int = 2
    activation: str = "tanh"

    # optimization (desk-scale toy defaults; the coordination defaults
    # below follow the reference hyper-parameter choices)
    lr_client: float = 0.02
    lr_server: float = 0.8
    momentum: float = 0.9

    # coordination (bounds and eta/lambda defaults mirror the reference
    # setup; desk-scale experiments usually raise lambda, see configs/)
    k_min: float = 20.0
    k_max: float = 80.0
    eta: float = 1.0
    lam: float = 5e-4
    theta_th_override: float | None = None

    # ablation flags (gapsl only)
    rand_lgi: bool = False
    non_gda: bool = False
    rand_gda: bool = False

    # baselines / transport
    sfl_interval: int = 1
    transport: str = "inproc"
    listen: str | None = None

    @property
    def num_classes(self) -> int:
        return self.model_dims[-1]

    @property
    def input_dim(self) -> int:
        return self.model_dims[0]


def is_eval_round(cfg: ExperimentConfig, t: int) -> bool:
    """Whether round ``t`` ends with an evaluation.

    The coordinator and every TCP client follow this one schedule; if they
    disagreed, the run would fail with a ProtocolError instead of blocking.
    """
    return t % cfg.eval_interval == 0 or t == cfg.rounds


def parse_address(address: str) -> tuple[str, int]:
    """Split a host:port string; a ConfigError refuses a host the socket
    layer cannot encode, one holding a NUL or without an IDNA encoding (a
    TypeError from ``bind``, a UnicodeError from ``getaddrinfo``), and any
    port but a decimal number in [0, 65535], the range a socket takes
    without an OverflowError."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"address must be host:port, got {address!r}")
    try:
        host.encode("idna")  # as getaddrinfo encodes every str host
        encodable = "\0" not in host  # a NUL passes IDNA, but bind refuses it
    except UnicodeError:
        encodable = False
    if not encodable:
        raise ConfigError(f"host must hold no NUL and have an IDNA encoding, got {host!r} in address {address!r}")
    if not port.isdecimal() or int(port) > 0xFFFF:
        raise ConfigError(f"port must be in [0, 65535], got {port!r} in address {address!r}")
    return host, int(port)


def _parse_bool(v: str) -> bool:
    lv = v.strip().lower()
    if lv in ("true", "1", "yes", "on"):
        return True
    if lv in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_alpha(v: str) -> float | None:
    return None if v.strip().lower() == "iid" else float(v)


def _parse_ints(v: str) -> tuple[int, ...]:
    return tuple(int(p) for p in v.replace(" ", "").split(",") if p)


def _optional(parse):
    def parse_optional(v: str):
        v = v.strip()
        return None if v.lower() in ("", "none") else parse(v)
    return parse_optional


# one parser per field annotation (a string, under ``from __future__ import
# annotations``); alpha alone also reads "iid"
_TYPE_PARSERS = {
    "str": str.strip,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_ints,
    "str | None": _optional(str),
    "float | None": _optional(float),
}

# dataclass field -> config-file key, where they differ
_FIELD_TO_KEY = {"lam": "lambda"}

# config-file key -> (field, parser); keys not listed here are unknown, and a
# field whose annotation has no parser fails here, at import
_KEYS = {
    _FIELD_TO_KEY.get(f.name, f.name): (f.name, _parse_alpha if f.name == "alpha" else _TYPE_PARSERS[f.type])
    for f in dataclasses.fields(ExperimentConfig)
}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical key=value serialization (sorted keys); parses back losslessly."""
    lines = []
    for key, (name, _) in sorted(_KEYS.items()):
        value = getattr(cfg, name)
        lines.append(f"{key} = {'iid' if name == 'alpha' and value is None else _format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_config_text(
    text: str, overrides: dict[str, str] | None = None, source: str = "<config>"
) -> ExperimentConfig:
    """Parse key=value text, apply overrides, validate; raises ConfigError."""
    violations: list[str] = []
    values: dict[str, object] = {}

    def absorb(key: str, raw: str, where: str) -> None:
        key = key.strip()
        if key not in _KEYS:
            violations.append(f"{where}: unknown key {key!r}")
            return
        name, parser = _KEYS[key]
        try:
            values[name] = parser(raw)
        except ValueError as e:
            violations.append(f"{where}: bad value for {key!r}: {e}")

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            violations.append(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, raw = stripped.split("=", 1)
        absorb(key, raw, f"{source}:{lineno}")

    for key, raw in (overrides or {}).items():
        absorb(key, raw, "override")

    # build from whatever parsed cleanly so semantic violations surface
    # alongside parse-level ones in a single report
    return require_valid(ExperimentConfig(**values), violations)


def parse_config(
    path: str | None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Parse a config file (may be None for pure defaults) plus overrides."""
    text = ""
    source = "<defaults>"
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        source = path
    return parse_config_text(text, overrides, source)


def require_valid(cfg: ExperimentConfig, violations: Sequence[str] = ()) -> ExperimentConfig:
    """``cfg`` when it breaks no rule; otherwise a :class:`ConfigError` that
    lists ``violations`` (found while parsing) and every rule it breaks."""
    violations = [*violations, *validate(cfg)]
    if violations:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(violations))
    return cfg


def validate(cfg: ExperimentConfig) -> list[str]:
    """Every rule violation in the config, empty when valid."""
    v: list[str] = []
    for key, (name, _) in _KEYS.items():
        value = getattr(cfg, name)
        if isinstance(value, float) and not math.isfinite(value):
            v.append(f"{key} must be finite, got {value}")
    if cfg.strategy not in STRATEGIES:
        v.append(f"strategy must be one of {STRATEGIES}, got {cfg.strategy!r}")
    # the run's client-count rule (a partition asks only for one sample per
    # client): one client runs psl, sfl and vanilla_sl alike, as
    # centralized split training; gapsl needs two to compare
    if cfg.clients < (2 if cfg.strategy == "gapsl" else 1):
        v.append(f"clients must be >= 2 for gapsl and >= 1 otherwise, got {cfg.clients}")
    if cfg.rounds < 1:
        v.append(f"rounds must be >= 1, got {cfg.rounds}")
    if cfg.batch_size < 1:
        v.append(f"batch_size must be >= 1, got {cfg.batch_size}")
    if not cfg.seeds:
        v.append("seeds must not be empty")
    elif any(s < 0 for s in cfg.seeds):
        v.append(f"seeds must be non-negative, got {cfg.seeds}")
    elif len(set(cfg.seeds)) < len(cfg.seeds):
        v.append(f"seeds must not repeat, got {cfg.seeds}")
    if cfg.eval_interval < 1:
        v.append(f"eval_interval must be >= 1, got {cfg.eval_interval}")

    if cfg.dataset not in DATASETS:
        v.append(f"dataset must be {' or '.join(DATASETS)}, got {cfg.dataset!r}")
    if cfg.dataset == "idx":
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if getattr(cfg, key) is None:
                v.append(f"dataset idx requires {key}")
    if cfg.alpha is not None and cfg.alpha <= 0:
        v.append(f"alpha must be > 0 or 'iid', got {cfg.alpha}")
    if cfg.samples_per_class < 5:
        v.append(f"samples_per_class must be >= 5, got {cfg.samples_per_class}")
    if cfg.spread < 0:
        v.append(f"spread must be >= 0, got {cfg.spread}")

    if len(cfg.model_dims) < 3:
        v.append(f"model_dims needs >= 3 entries, got {cfg.model_dims}")
    elif any(d < 1 for d in cfg.model_dims):
        v.append(f"model_dims entries must be >= 1, got {cfg.model_dims}")
    elif not (1 <= cfg.cut <= len(cfg.model_dims) - 2):
        v.append(f"cut must be in [1, {len(cfg.model_dims) - 2}], got {cfg.cut}")
    if cfg.activation not in ACTIVATIONS:
        v.append(f"activation must be {' or '.join(ACTIVATIONS)}, got {cfg.activation!r}")

    for key in ("lr_client", "lr_server"):
        if getattr(cfg, key) <= 0:
            v.append(f"{key} must be > 0, got {getattr(cfg, key)}")
    if not (0 <= cfg.momentum < 1):
        v.append(f"momentum must be in [0, 1), got {cfg.momentum}")

    if not (0 < cfg.k_min <= 100):
        v.append(f"k_min must be in (0, 100], got {cfg.k_min}")
    if not (0 < cfg.k_max <= 100):
        v.append(f"k_max must be in (0, 100], got {cfg.k_max}")
    if cfg.k_min > cfg.k_max:
        v.append(f"k_min ({cfg.k_min}) must be <= k_max ({cfg.k_max})")
    if cfg.eta < 0:
        v.append(f"eta must be >= 0, got {cfg.eta}")
    if cfg.lam < 0:
        v.append(f"lambda must be >= 0, got {cfg.lam}")

    flags = [cfg.rand_lgi, cfg.non_gda, cfg.rand_gda]
    if any(flags) and cfg.strategy != "gapsl":
        v.append("ablation flags are only valid with strategy gapsl")
    if cfg.non_gda and cfg.rand_gda:
        v.append("non_gda and rand_gda are mutually exclusive")

    if cfg.sfl_interval < 1:
        v.append(f"sfl_interval must be >= 1, got {cfg.sfl_interval}")
    if cfg.transport not in TRANSPORTS:
        v.append(f"transport must be one of {TRANSPORTS}, got {cfg.transport!r}")
    if cfg.transport == "tcp" and not cfg.listen:
        v.append("tcp transport needs listen HOST:PORT")
    elif cfg.transport == "tcp":
        try:
            parse_address(cfg.listen)
        except ConfigError as e:
            v.append(f"listen: {e}")
    if cfg.transport == "tcp" and cfg.strategy not in TCP_STRATEGIES:
        v.append("tcp transport supports only gapsl and psl (no client-model shipping)")
    if cfg.transport == "tcp" and cfg.clients > MAX_TCP_CLIENTS:
        v.append(f"tcp transport carries client ids as u16: clients must be <= {MAX_TCP_CLIENTS}, "
                 f"got {cfg.clients}")
    if cfg.transport == "tcp" and cfg.rounds > MAX_TCP_ROUNDS:
        v.append(f"tcp transport carries the round as u32: rounds must be <= {MAX_TCP_ROUNDS}, got {cfg.rounds}")
    if cfg.transport == "tcp" and len(config_to_text(cfg).encode("utf-8")) > MAX_FRAME:
        v.append(f"tcp transport sends the config as one frame: its text must fit {MAX_FRAME} bytes")
    return v
