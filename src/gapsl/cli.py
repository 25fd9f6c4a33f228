"""Experiment driver CLI.

    gapsl run --config exp.cfg [--strategy psl] [--seeds 1,2,3] [--out DIR] ...
    gapsl compare DIR...
    gapsl client --connect HOST:PORT --client-id K

``run`` executes every seed, writing manifest.json, metrics.csv and
summary.json into the output directory. With ``--transport tcp`` it
listens for the configured number of worker processes (started with the
``client`` subcommand) instead of simulating clients in process. A client
takes its whole config from the server at the handshake.

Exit codes: 0 success, 2 configuration/data error, 3 protocol error,
4 numeric error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import STRATEGIES, TRANSPORTS, parse_config
from .errors import ConfigError, DataError, NumericError, ProtocolError
from .orchestrator import TrainingEngine, run_experiment
from .reporting import (
    compare_table,
    compute_summary,
    metrics_rows,
    read_metrics_csv,
    write_manifest,
    write_metrics_csv,
    write_summary,
)
from .transport import Listener, RemoteClientProxy, client_loop, connect
from . import config as config_mod


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gapsl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag but --config and --out is a config key: its dest is the key
    run_p = sub.add_parser("run", help="run an experiment for every seed")
    run_p.add_argument("--config", help="key=value config file")
    run_p.add_argument("--strategy", choices=STRATEGIES)
    seed_group = run_p.add_mutually_exclusive_group()
    seed_group.add_argument("--seed", type=int, dest="seeds", metavar="SEED", help="single seed")
    seed_group.add_argument("--seeds", help="comma-separated seed list")
    run_p.add_argument("--rounds", type=int)
    run_p.add_argument("--clients", type=int)
    run_p.add_argument("--alpha", help="Dirichlet alpha, or 'iid'")
    run_p.add_argument("--k-min", type=float)
    run_p.add_argument("--k-max", type=float)
    run_p.add_argument("--eta", type=float)
    run_p.add_argument("--lambda", type=float)
    run_p.add_argument("--batch-size", type=int)
    run_p.add_argument("--eval-interval", type=int)
    run_p.add_argument("--transport", choices=TRANSPORTS)
    run_p.add_argument("--listen", help="bind address host:port for tcp transport")
    for flag in ("--rand-lgi", "--non-gda", "--rand-gda"):
        run_p.add_argument(flag, action="store_true", default=None)
    run_p.add_argument("--out", default="runs", help="output directory (default: runs)")

    cmp_p = sub.add_parser("compare", help="tabulate finished runs against a shared target")
    cmp_p.add_argument("dirs", nargs="+", help="run output directories")

    cli_p = sub.add_parser("client", help="TCP worker process for one client device")
    cli_p.add_argument("--connect", required=True, help="server address host:port")
    cli_p.add_argument("--client-id", type=int, required=True, dest="client_id")
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    """The config keys given as flags; an absent flag is None (a given 0 is kept)."""
    return {
        key: str(value)
        for key, value in vars(args).items()
        if key not in ("command", "config", "out") and value is not None
    }


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, _collect_overrides(args))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(outdir, cfg)

    started = time.perf_counter()
    rows: list[list[str]] = []
    if cfg.transport == "tcp":
        listener = Listener(cfg.listen)
        channels, clean = {}, False
        try:
            print(f"listening on {listener.address}, waiting for {cfg.clients} clients", file=sys.stderr)
            channels = listener.accept_clients(cfg.clients, config_mod.config_to_text(cfg))
            proxies = {i: RemoteClientProxy(ch, i) for i, ch in channels.items()}
            for seed in cfg.seeds:
                reports = TrainingEngine(cfg, seed, proxies).run()
                rows.extend(metrics_rows(cfg.strategy, seed, cfg.alpha, reports))
            clean = True
        finally:
            listener.close()
            if not clean:  # the run failed: no farewell will close the admitted channels
                for ch in channels.values():
                    ch.close()
    else:
        for seed in cfg.seeds:
            reports = run_experiment(cfg, seed)
            rows.extend(metrics_rows(cfg.strategy, seed, cfg.alpha, reports))

    csv_path = outdir / "metrics.csv"
    write_metrics_csv(csv_path, rows)
    records = read_metrics_csv(csv_path)
    summary = compute_summary(records, list(cfg.seeds), cfg.rounds)
    write_summary(outdir, summary)

    if cfg.transport == "tcp":
        farewell = {"final_accuracy_mean": summary["final_accuracy"]["mean"]}
        for i in sorted(proxies):
            proxies[i].finish(farewell)

    elapsed = time.perf_counter() - started
    acc = summary["final_accuracy"]
    print(
        f"{cfg.strategy}: final accuracy {acc['mean'] * 100:.2f} ± {acc['std'] * 100:.2f}% "
        f"over seeds {list(cfg.seeds)} ({elapsed:.1f}s) -> {outdir}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    print(compare_table(args.dirs))
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    if not 0 <= args.client_id < config_mod.MAX_TCP_CLIENTS:  # HELLO carries it as u16
        raise ConfigError(f"--client-id must be in [0, {config_mod.MAX_TCP_CLIENTS}), got {args.client_id}")
    channel = connect(args.connect)
    try:
        final = client_loop(channel, args.client_id)
    finally:
        channel.close()
    print(f"client {args.client_id} finished: {final}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_client(args)
    except (ConfigError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ProtocolError as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
