"""The engine's bits against ``FINGERPRINTS.json``, through ``tests/fingerprints.py``."""

import json
import subprocess
import sys

import pytest

import fingerprints


def test_every_config_replays_its_reference():
    # a fresh process, as a reader runs the script: about 7 s for the matrix
    done = subprocess.run(
        [sys.executable, fingerprints.__file__], capture_output=True, text=True, timeout=600
    )
    if done.returncode == fingerprints.NO_REFERENCE:
        pytest.skip(done.stderr.strip().splitlines()[-1])
    assert done.returncode == 0, done.stdout + done.stderr


class TestOutcomes:
    @pytest.fixture
    def reference(self, tmp_path, monkeypatch):
        path = tmp_path / "FINGERPRINTS.json"
        monkeypatch.setattr(fingerprints, "REFERENCE", path)
        return path

    def test_a_build_without_an_entry_has_no_reference(self, reference, capsys):
        reference.write_text(json.dumps({"another build": {"psl2": "0" * 64}}))
        assert fingerprints.main(["psl2"]) == fingerprints.NO_REFERENCE
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"no reference for this build: {fingerprints.build_key()}"
        assert fingerprints.build_key() in err  # the entry to commit

    def test_a_moved_line_fails_and_is_named(self, reference, capsys):
        key = fingerprints.build_key()
        reference.write_text(json.dumps({key: {"psl2": "0" * 64, "desk": "kept"}}))
        assert fingerprints.main(["psl2"]) == 1
        out, err = capsys.readouterr()
        assert out.rstrip().endswith("moved")
        assert "moved from the reference: psl2" in err
        entry = json.loads(err[err.index("{") : err.rindex("}") + 1])
        assert entry[key]["desk"] == "kept" and entry[key]["psl2"] != "0" * 64

    def test_a_stale_row_fails_and_is_left_out_of_the_entry(self, reference, capsys):
        # a row MATRIX no longer defines is never compared: it must not ride along
        key = fingerprints.build_key()
        line = fingerprints.fingerprint(fingerprints.MATRIX["psl2"])
        reference.write_text(json.dumps({key: {"psl2": line, "gone": "0" * 64}}))
        assert fingerprints.main(["psl2"]) == 1
        out, err = capsys.readouterr()
        assert not out.rstrip().endswith("moved")
        assert err.splitlines()[-1] == "not in MATRIX, so never compared: gone"
        entry = json.loads(err[err.index("{") : err.rindex("}") + 1])
        assert entry == {key: {"psl2": line}}
