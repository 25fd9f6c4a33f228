"""Config parsing, the run driver, metrics files, and comparisons."""

import argparse
import dataclasses
import json
import math
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import gapsl
import gapsl.cli as cli
import gapsl.transport as tp
from gapsl.cli import _build_parser, _collect_overrides, main
from gapsl.config import ExperimentConfig, config_to_text, parse_address, parse_config, parse_config_text, validate
from gapsl.errors import ConfigError, DataError, ProtocolError
from gapsl.orchestrator import TrainingEngine
from gapsl.reporting import CSV_COLUMNS, compare_table, read_metrics_csv
from gapsl.transport import Hello, connect

# a host of one 70-character label: over IDNA's 63, so it has no encoding
UNENCODABLE = "ü" * 70


def run_cli(*args):
    return main(list(args))


class TestParseConfig:
    def test_empty_file_gives_pure_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(str(path))
        assert cfg == ExperimentConfig()
        assert (cfg.clients, cfg.alpha, cfg.k_min, cfg.k_max) == (10, 0.1, 20.0, 80.0)
        assert (cfg.momentum, cfg.eta, cfg.lam) == (0.9, 1.0, 5e-4)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_inverted_bounds_error_names_both_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k_min = 90\nk_max = 20\n")
        with pytest.raises(ConfigError, match="k_min.*k_max"):
            parse_config(str(path))

    def test_flag_overrides_file_value(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alpha = 0.1\nrounds = 5\n")
        cfg = parse_config(str(path), {"alpha": "0.5"})
        assert cfg.alpha == 0.5
        assert cfg.rounds == 5

    def test_alpha_iid_marker(self):
        cfg = parse_config_text("alpha = iid\n")
        assert cfg.alpha is None

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as e:
            parse_config_text("clients = 1\nrounds = 0\nmomentum = 2\nbogus = 3\n")
        text = str(e.value)
        for fragment in ("clients", "rounds", "momentum", "unknown key 'bogus'"):
            assert fragment in text

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# a comment\n\nrounds = 7\n")
        assert cfg.rounds == 7

    def test_the_environment_sets_no_seed(self, monkeypatch):
        # seeds come from the seeds key or --seed/--seeds alone
        for value in ("123", "not a seed"):
            monkeypatch.setenv("GAPSL_SEED", value)
            assert parse_config_text("").seeds == ExperimentConfig().seeds == (1,)

    def test_round_trip_through_canonical_text(self):
        cfg = ExperimentConfig(strategy="sfl", alpha=None, seeds=(3, 9), lam=1e-3,
                               model_dims=(4, 8, 4), cut=1, listen="127.0.0.1:9000")
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_ablation_flags_need_gapsl(self):
        with pytest.raises(ConfigError, match="ablation"):
            parse_config_text("strategy = psl\nrand_lgi = true\n")

    @pytest.mark.parametrize("line", ["non_lgi = true", "gda_mode = loss_only"])
    def test_a_removed_ablation_key_is_unknown(self, line, tmp_path, capsys):
        # the arms they spelled are k_min = k_max = 100 and lambda = 0
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
        key = line.split(" = ")[0]
        assert f"{cfg}:1: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_tcp_limited_to_parallel_strategies(self):
        with pytest.raises(ConfigError, match="tcp"):
            parse_config_text("strategy = sfl\ntransport = tcp\n")

    def test_tcp_client_ids_must_fit_u16(self):
        # HELLO and the matrix headers carry the client id as u16
        with pytest.raises(ConfigError, match="u16"):
            parse_config_text("transport = tcp\nclients = 65536\n")
        assert validate(ExperimentConfig(transport="tcp", clients=65535, listen="127.0.0.1:0")) == []
        assert validate(ExperimentConfig(transport="inproc", clients=65536)) == []

    def test_tcp_rounds_must_fit_u32(self):
        # the matrix headers carry the round as u32; in process any count runs
        with pytest.raises(ConfigError, match="rounds must be <= 4294967295, got 4294967296"):
            parse_config_text("transport = tcp\nlisten = 127.0.0.1:0\nrounds = 4294967296\n")
        assert validate(ExperimentConfig(transport="tcp", rounds=0xFFFFFFFF, listen="127.0.0.1:0")) == []
        assert TrainingEngine(parse_config_text("rounds = 4294967296\n"), 1).cfg.rounds == 1 << 32

    @pytest.mark.parametrize("address, problem", [
        ("nonsense", "address must be host:port, got 'nonsense'"),
        (":80", "address must be host:port, got ':80'"),
        ("127.0.0.1:", "port must be in [0, 65535], got '' in address '127.0.0.1:'"),
        ("127.0.0.1:-1", "port must be in [0, 65535], got '-1' in address '127.0.0.1:-1'"),
        ("127.0.0.1:65536", "port must be in [0, 65535], got '65536' in address '127.0.0.1:65536'"),
        pytest.param("a\0b:80", "host must hold no NUL and have an IDNA encoding, got 'a\\x00b' in address "
                     "'a\\x00b:80'", id="nul-host"),
        pytest.param(UNENCODABLE + ":80", "host must hold no NUL and have an IDNA encoding, "
                     f"got {UNENCODABLE!r} in address '{UNENCODABLE}:80'", id="no-idna-host"),
    ])
    def test_tcp_listen_must_be_host_and_u16_port(self, address, problem):
        # a port past 16 bits would reach bind() as an OverflowError, a host
        # with a NUL or without an IDNA encoding as a TypeError
        assert validate(ExperimentConfig(transport="tcp", listen=address)) == [f"listen: {problem}"]
        assert validate(ExperimentConfig(transport="inproc", listen=address)) == []  # nothing listens
        with pytest.raises(ConfigError) as e:
            parse_address(address)
        assert str(e.value) == problem

    def test_an_address_splits_at_its_last_colon(self):
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_address("::1:65535") == ("::1", 65535)

    def test_tcp_config_text_must_fit_one_frame(self, monkeypatch):
        # CONFIG carries the canonical text in one frame
        text = "transport = tcp\nlisten = 127.0.0.1:0\n"
        size = len(config_to_text(parse_config_text(text)))
        monkeypatch.setattr(gapsl.config, "MAX_FRAME", size)
        assert parse_config_text(text).listen == "127.0.0.1:0"
        monkeypatch.setattr(gapsl.config, "MAX_FRAME", size - 1)
        with pytest.raises(ConfigError, match=f"its text must fit {size - 1} bytes"):
            parse_config_text(text)
        assert parse_config_text("listen = 127.0.0.1:0\n").transport == "inproc"  # nothing to frame


def config_keys():
    """Every config-file key, read from the canonical serialization."""
    return [line.split(" = ")[0] for line in config_to_text(ExperimentConfig()).splitlines()]


# one non-default value per field; "dataset" also needs its idx paths and
# "transport" its listen address
NON_DEFAULT = dict(
    strategy="sfl", clients=3, rounds=7, batch_size=5, seeds=(4, 2), eval_interval=3,
    dataset="idx", alpha=None, samples_per_class=9, spread=0.35,
    train_images="a.idx", train_labels="b.idx", test_images="c.idx", test_labels="d.idx",
    model_dims=(4, 8, 8, 3), cut=1, activation="relu",
    lr_client=0.125, lr_server=1e-3, momentum=0.0,
    k_min=12.5, k_max=100.0, eta=0.0, lam=2.5, theta_th_override=0.75,
    rand_lgi=True, non_gda=True, rand_gda=True,
    sfl_interval=4, transport="tcp", listen="127.0.0.1:0",
)
IDX_PATHS = {k: NON_DEFAULT[k] for k in ("train_images", "train_labels", "test_images", "test_labels")}


class TestConfigKeys:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_every_field_round_trips_a_non_default_value(self, name):
        assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert NON_DEFAULT[name] != getattr(ExperimentConfig(), name)
        needs = {"dataset": IDX_PATHS, "transport": {"listen": NON_DEFAULT["listen"]}}.get(name, {})
        cfg = ExperimentConfig(**{name: NON_DEFAULT[name], **needs})
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_every_run_flag_is_a_config_key(self):
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in sub.choices["run"]._actions if a.dest != "help"}
        assert dests - {"config", "out", "seed"} <= set(config_keys())

    def test_flags_become_overrides_and_absent_flags_none(self):
        parse = _build_parser().parse_args
        assert _collect_overrides(parse(["run"])) == {}
        args = parse(["run", "--rounds", "0", "--lambda", "0.5", "--seed", "3", "--rand-lgi", "--k-min", "0"])
        assert _collect_overrides(args) == {
            "rounds": "0", "lambda": "0.5", "seeds": "3", "rand_lgi": "True", "k_min": "0.0",
        }

    def test_zero_flag_reaches_validation(self, tmp_path, capsys):
        assert run_cli("run", "--rounds", "0", "--out", str(tmp_path / "x")) == 2
        assert "rounds must be >= 1, got 0" in capsys.readouterr().err

    def test_readme_lists_exactly_the_config_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listing = re.search(r"## Config keys\n\n`([^`]*)`", readme).group(1)
        named = [name for item in listing.split(",") for name in item.split("(")[0].strip().split("/")]
        assert sorted(named) == sorted(config_keys())


class TestValidation:
    @pytest.mark.parametrize("key, value", [
        ("alpha", "nan"), ("lambda", "inf"), ("eta", "nan"), ("lr_server", "inf"),
        ("spread", "nan"), ("theta_th_override", "nan"),
    ])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"{key} must be finite, got {value}"):
            parse_config_text(f"{key} = {value}\n")

    def test_non_finite_alpha_flag_exits_2(self, tmp_path, capsys):
        assert run_cli("run", "--alpha", "nan", "--rounds", "2", "--out", str(tmp_path / "x")) == 2
        assert "alpha must be finite" in capsys.readouterr().err

    def test_repeated_seeds_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"seeds must not repeat, got \(1, 1\)"):
            parse_config_text("seeds = 1,1\n")
        assert run_cli("run", "--seeds", "1,1", "--rounds", "2", "--out", str(tmp_path / "x")) == 2
        assert "seeds must not repeat" in capsys.readouterr().err

    # one bad value per rule that the data, the model, its optimizers, LGI
    # and GDA leave to validate: (field, value, validate's message)
    @pytest.mark.parametrize("name, value, message", [
        ("model_dims", (16, 32), "model_dims needs >= 3 entries, got (16, 32)"),
        ("model_dims", (16, 0, 8), "model_dims entries must be >= 1, got (16, 0, 8)"),
        ("activation", "gelu", "activation must be relu or tanh, got 'gelu'"),
        ("cut", 0, "cut must be in [1, 2], got 0"),
        ("cut", 3, "cut must be in [1, 2], got 3"),
        ("lr_client", 0.0, "lr_client must be > 0, got 0.0"),
        ("lr_server", -1.0, "lr_server must be > 0, got -1.0"),
        ("momentum", 1.0, "momentum must be in [0, 1), got 1.0"),
        ("k_min", 0.0, "k_min must be in (0, 100], got 0.0"),
        ("k_max", 101.0, "k_max must be in (0, 100], got 101.0"),
        ("k_min", 90.0, "k_min (90.0) must be <= k_max (80.0)"),
        ("rounds", 0, "rounds must be >= 1, got 0"),
        ("eta", -0.1, "eta must be >= 0, got -0.1"),
        ("lam", -1.0, "lambda must be >= 0, got -1.0"),
        ("samples_per_class", 4, "samples_per_class must be >= 5, got 4"),
        ("spread", -1.0, "spread must be >= 0, got -1.0"),
        ("alpha", -0.5, "alpha must be > 0 or 'iid', got -0.5"),
    ])
    def test_rule_is_checked_by_validate(self, name, value, message):
        cfg = ExperimentConfig(**{name: value})
        want = f"invalid configuration:\n  {message}"
        with pytest.raises(ConfigError) as parsed:
            parse_config_text(config_to_text(cfg))
        with pytest.raises(ConfigError) as built:
            TrainingEngine(cfg, 1)
        assert str(parsed.value) == str(built.value) == want


FAST = (
    "strategy = psl\nclients = 3\nrounds = 3\nbatch_size = 8\n"
    "samples_per_class = 20\nmodel_dims = 8,12,4\ncut = 1\n"
    "eval_interval = 1\nseeds = 1,2\n"
)


class TestRunCommand:
    def test_row_count_and_header(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 3  # 2 seeds x 3 rounds

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", str(cfg), "--out", str(out_a)) == 0
        assert run_cli("run", "--config", str(cfg), "--out", str(out_b)) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_summary_matches_recomputation_from_csv(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "out"
        run_cli("run", "--config", str(cfg), "--out", str(out))
        summary = json.loads((out / "summary.json").read_text())
        records = read_metrics_csv(out / "metrics.csv")
        finals = []
        for seed in (1, 2):
            accs = [r["accuracy"] for r in records if r["seed"] == seed and r["accuracy"] is not None]
            finals.append(accs[-1])
        assert summary["final_accuracy"]["per_seed"] == finals
        assert summary["final_accuracy"]["mean"] == pytest.approx(float(np.mean(finals)))

    def test_manifest_written_with_config_snapshot(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "out"
        run_cli("run", "--config", str(cfg), "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [1, 2]
        assert manifest["config"]["strategy"] == "psl"
        assert manifest["config"]["model_dims"] == "8,12,4"
        assert manifest["build_id"]
        numerics = manifest["numerics"]
        assert numerics["numpy"] == np.__version__
        assert numerics["blas_threads"] == gapsl.BLAS_THREADS
        assert set(numerics) == {"numpy", "blas", "blas_threads"} and numerics["blas"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("rounds = 0\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert "rounds" in capsys.readouterr().err

    def test_idx_set_without_pixels_exits_2_naming_the_file(self, tmp_path, capsys):
        # a zero-image file; the other three files are well formed
        paths = {k: tmp_path / f"{k}.idx" for k in ("train_images", "train_labels", "test_images", "test_labels")}
        paths["train_images"].write_bytes(struct.pack(">IIII", 0x803, 0, 2, 2))
        paths["train_labels"].write_bytes(struct.pack(">II", 0x801, 0))
        paths["test_images"].write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + bytes(16))
        paths["test_labels"].write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 2, 3]))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST.replace("model_dims = 8,12,4", "model_dims = 4,12,4") + "dataset = idx\nalpha = iid\n"
                       + "".join(f"{k} = {v}\n" for k, v in paths.items()))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert f"{paths['train_images']}: no pixels to train on" in capsys.readouterr().err

    def test_tcp_without_listen_fails_before_writing_anything(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST.replace("psl", "gapsl") + "transport = tcp\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2
        assert "tcp transport needs listen" in capsys.readouterr().err
        assert not out.exists()

    def test_wall_ms_column_is_pinned_zero(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "out"
        run_cli("run", "--config", str(cfg), "--out", str(out))
        assert all(r["wall_ms"] == 0 for r in read_metrics_csv(out / "metrics.csv"))


def record_tcp(monkeypatch):
    """Make ``gapsl run`` record its listener (built or not) and the channels it admits."""
    listeners, admitted = [], []

    class Recorded(cli.Listener):
        def __init__(self, address):
            try:
                super().__init__(address)
            finally:
                listeners.append(self)

        def accept_clients(self, *args, **kwargs):
            channels = super().accept_clients(*args, **kwargs)
            admitted.extend(channels.values())
            return channels

    monkeypatch.setattr(cli, "Listener", Recorded)
    return listeners, admitted


def listening_address(listeners):
    deadline = time.monotonic() + 10
    while not listeners and time.monotonic() < deadline:
        time.sleep(0.01)
    assert listeners, "the coordinator never listened"
    return listeners[0].address


class TestOneClient:
    """One client runs psl, sfl and vanilla_sl alike, as centralized split
    training; psl also runs it over TCP."""

    @staticmethod
    def run_one(tmp_path, name, *flags):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / name
        assert run_cli("run", "--config", str(cfg), "--clients", "1", "--rounds", "6", "--out", str(out), *flags) == 0
        return (out / "metrics.csv").read_text().splitlines()

    @pytest.mark.parametrize("alpha", ["0.1", "iid"])
    def test_strategies_write_the_same_rows_bar_the_strategy(self, tmp_path, alpha):
        rows = {}
        for strategy in ("psl", "sfl", "vanilla_sl"):
            lines = self.run_one(tmp_path, strategy, "--strategy", strategy, "--alpha", alpha)
            assert len(lines) == 1 + 2 * 6 and all(line.startswith(f"{strategy},") for line in lines[1:])
            rows[strategy] = [line.split(",", 1)[1] for line in lines[1:]]
        assert rows["sfl"] == rows["psl"] and rows["vanilla_sl"] == rows["psl"]

    def test_psl_over_tcp_writes_the_in_process_rows(self, tmp_path, monkeypatch):
        listeners, _ = record_tcp(monkeypatch)
        tcp_lines = []
        coordinator = threading.Thread(target=lambda: tcp_lines.append(self.run_one(
            tmp_path, "tcp", "--transport", "tcp", "--listen", "127.0.0.1:0")))
        coordinator.start()
        try:
            assert run_cli("client", "--connect", listening_address(listeners), "--client-id", "0") == 0
        finally:
            coordinator.join(timeout=30)
        assert not coordinator.is_alive()
        assert tcp_lines == [self.run_one(tmp_path, "inproc")]


class TestTcpRunFailures:
    """A TCP run that fails exits with its documented code and leaves no socket open."""

    def test_peer_gone_after_hello_closes_every_socket(self, tmp_path, monkeypatch, capsys):
        listeners, admitted = record_tcp(monkeypatch)
        codes = []
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        coordinator = threading.Thread(target=lambda: codes.append(run_cli(
            "run", "--config", str(cfg), "--clients", "1", "--transport", "tcp",
            "--listen", "127.0.0.1:0", "--out", str(tmp_path / "out"))))
        coordinator.start()
        try:
            peer = connect(listening_address(listeners))
            peer.send(Hello(0))
            peer.recv(timeout=10)  # the CONFIG: the coordinator has admitted this peer
            peer.close()
        finally:
            coordinator.join(timeout=30)
        assert codes == [3]
        assert "round 1 client 0 (forward): connection closed mid-stream" in capsys.readouterr().err
        assert len(admitted) == 1
        assert admitted[0].sock.fileno() == -1 and listeners[0]._sock.fileno() == -1

    def test_client_of_a_stalled_coordinator_exits_3(self, monkeypatch, capsys):
        # the coordinator answers HELLO with CONFIG, then reads on and says
        # nothing: the client gives up (2 * 2 + 1) * 0.1 s after sending
        # round 1's activations
        monkeypatch.setattr(tp, "PEER_TIMEOUT_S", 0.1)
        monkeypatch.setattr(tp, "HANDSHAKE_TIMEOUT_S", 1.0)
        margin = 0.5
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(10)
        cfg = ExperimentConfig(strategy="psl", clients=2, rounds=2, batch_size=4, samples_per_class=10,
                               model_dims=(4, 6, 3), cut=1, seeds=(1,))
        arrived = []

        def stalled():
            conn, _ = server.accept()
            channel = tp.FrameChannel(conn)
            try:
                channel.recv(timeout=10)  # the HELLO
                channel.send(tp.ConfigMsg(config_to_text(cfg)))
                channel.recv(timeout=10)  # round 1's activations
                arrived.append(time.monotonic())
                while True:
                    channel.recv(timeout=10)  # the client's hang-up
            except ProtocolError:
                pass
            finally:
                channel.close()

        coordinator = threading.Thread(target=stalled)
        coordinator.start()
        try:
            assert run_cli("client", "--connect", "{}:{}".format(*server.getsockname()[:2]), "--client-id", "0") == 3
            assert time.monotonic() - arrived[0] < 0.5 + margin
        finally:
            coordinator.join(timeout=10)
            server.close()
        assert not coordinator.is_alive()
        assert ("protocol error: round 1 client 0 (backward): timed out after 0.5s waiting for a frame"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("client_id", ["-1", "65535", "70000"])
    def test_client_id_outside_the_tcp_ids_exits_2_before_connecting(self, client_id, monkeypatch, capsys):
        # HELLO carries the id as u16, and an admitted id is below MAX_TCP_CLIENTS
        monkeypatch.setattr(cli, "connect", lambda address: pytest.fail("connected"))
        assert run_cli("client", "--connect", "127.0.0.1:1", "--client-id", client_id) == 2
        assert f"error: --client-id must be in [0, 65535), got {client_id}" in capsys.readouterr().err

    def test_rounds_beyond_u32_exit_2_before_listening(self, tmp_path, monkeypatch, capsys):
        listeners, _ = record_tcp(monkeypatch)
        assert run_cli("run", "--clients", "1", "--strategy", "psl", "--rounds", str(1 << 32), "--transport", "tcp",
                       "--listen", "127.0.0.1:0", "--out", str(tmp_path / "out")) == 2
        assert "rounds must be <= 4294967295, got 4294967296" in capsys.readouterr().err
        assert listeners == [] and not (tmp_path / "out").exists()

    def test_a_test_set_past_the_frame_cap_exits_2_before_round_1(self, tmp_path, monkeypatch, capsys):
        # 4096 test rows x 4096 cut floats: the EVAL_RESULT body would be 14
        # bytes over the cap. The coordinator refuses the seed at set-up,
        # before it reads a frame, and closes the client's socket.
        listeners, admitted = record_tcp(monkeypatch)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("strategy = psl\nclients = 1\nrounds = 2\nmodel_dims = 16,4096,8\ncut = 1\n"
                       "samples_per_class = 2560\n")
        codes = []
        coordinator = threading.Thread(target=lambda: codes.append(run_cli(
            "run", "--config", str(cfg), "--transport", "tcp", "--listen", "127.0.0.1:0", "--out", str(tmp_path / "out"))))
        coordinator.start()
        try:
            assert run_cli("client", "--connect", listening_address(listeners), "--client-id", "0") == 3
        finally:
            coordinator.join(timeout=30)
        assert codes == [2]
        assert ("error: tcp transport cannot carry the test set of 4096 rows x 4096 floats"
                in capsys.readouterr().err)
        assert len(admitted) == 1 and admitted[0].sock.fileno() == -1

    @pytest.mark.parametrize("address, problem", [
        ("127.0.0.1:70000", "port must be in [0, 65535], got '70000'"),
        ("nonsense", "address must be host:port, got 'nonsense'"),
        pytest.param("a\0b:0", "host must hold no NUL and have an IDNA encoding, got 'a\\x00b'", id="nul-host"),
        pytest.param(UNENCODABLE + ":0", f"host must hold no NUL and have an IDNA encoding, got {UNENCODABLE!r}",
                     id="no-idna-host"),
    ])
    def test_bad_listen_address_exits_2_before_writing_anything(self, address, problem, tmp_path, monkeypatch,
                                                                capsys):
        listeners, _ = record_tcp(monkeypatch)
        out = tmp_path / "out"
        assert run_cli("run", "--transport", "tcp", "--listen", address, "--out", str(out)) == 2
        assert f"listen: {problem}" in capsys.readouterr().err
        assert listeners == [] and not out.exists()

    @pytest.mark.parametrize("address", [
        "127.0.0.1:99999999999999999999", "127.0.0.1:http", "nonsense",
        pytest.param("a\0b:80", id="nul-host"), pytest.param(UNENCODABLE + ":80", id="no-idna-host"),
    ])
    def test_bad_connect_address_exits_2_before_connecting(self, address, monkeypatch, capsys):
        # a port past 16 bits would reach getaddrinfo as an OverflowError, a
        # host without an IDNA encoding as a UnicodeError
        monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: pytest.fail("connected"))
        assert run_cli("client", "--connect", address, "--client-id", "0") == 2
        assert f"{address!r}" in capsys.readouterr().err

    def test_busy_listen_port_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        listeners, _ = record_tcp(monkeypatch)
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            address = f"127.0.0.1:{busy.getsockname()[1]}"
            assert run_cli("run", "--clients", "1", "--strategy", "psl", "--transport", "tcp",
                           "--listen", address, "--out", str(tmp_path / "out")) == 2
        assert f"error: cannot listen on {address}: " in capsys.readouterr().err
        assert listeners[0]._sock.fileno() == -1


ROOT = Path(__file__).resolve().parents[1]


class TestReplay:
    def test_the_test_session_itself_runs_pinned(self):
        # the root conftest imports gapsl before any test module loads
        # numpy, so in-process tests run at the thread count a replay pins
        assert gapsl.BLAS_THREADS == dict.fromkeys(gapsl.BLAS_THREAD_VARS, "1")

    def test_metrics_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # at 100 clients the coordinator's Gram rounds differently on one and
        # two OpenBLAS threads; the package pins the count before numpy loads,
        # whatever the environment says
        out = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            env.update(dict.fromkeys(gapsl.BLAS_THREAD_VARS, threads))
            out[threads] = tmp_path / f"threads{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "gapsl.cli", "run", "--config", str(ROOT / "configs" / "desk_noniid.cfg"),
                 "--seed", "1", "--clients", "100", "--rounds", "20", "--out", str(out[threads])],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            manifest = json.loads((out[threads] / "manifest.json").read_text())
            assert manifest["numerics"]["blas_threads"] == dict.fromkeys(gapsl.BLAS_THREAD_VARS, "1")
        one, two = ((out[t] / "metrics.csv").read_bytes() for t in ("1", "2"))
        assert one == two


class TestCompareCommand:
    def run_pair(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        a, b = tmp_path / "psl", tmp_path / "gapsl"
        run_cli("run", "--config", str(cfg), "--out", str(a))
        run_cli("run", "--config", str(cfg), "--strategy", "gapsl", "--out", str(b))
        return a, b

    def test_self_comparison_zero_delta(self, tmp_path):
        a, _ = self.run_pair(tmp_path)
        table = compare_table([str(a), str(a)])
        rows = [l for l in table.splitlines() if "psl" in l]
        assert len(rows) == 2 and rows[0].split()[1:] == rows[1].split()[1:]

    def test_compare_runs_to_stdout(self, tmp_path, capsys):
        a, b = self.run_pair(tmp_path)
        assert run_cli("compare", str(a), str(b)) == 0
        out = capsys.readouterr().out
        assert "gapsl" in out and "psl" in out and "target accuracy" in out

    def test_mismatched_seeds_rejected(self, tmp_path):
        a, _ = self.run_pair(tmp_path)
        cfg = tmp_path / "other.cfg"
        cfg.write_text(FAST.replace("seeds = 1,2", "seeds = 5"))
        c = tmp_path / "other"
        run_cli("run", "--config", str(cfg), "--out", str(c))
        with pytest.raises(ConfigError, match="seeds"):
            compare_table([str(a), str(c)])

    def test_missing_manifest_names_path(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            compare_table([str(tmp_path / "nope")])


class TestCsvSchema:
    def test_parse_back_types(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST.replace("strategy = psl", "strategy = gapsl"))
        out = tmp_path / "out"
        run_cli("run", "--config", str(cfg), "--out", str(out))
        records = read_metrics_csv(out / "metrics.csv")
        r = records[0]
        assert isinstance(r["round"], int) and isinstance(r["seed"], int)
        assert isinstance(r["train_loss"], float)
        assert r["strategy"] == "gapsl"
        assert isinstance(r["k_t"], float)
        assert r["theta_th"] is None or 0 <= r["theta_th"] <= math.pi / 2
