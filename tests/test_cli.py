"""Tests for the command-line interface."""

import sys

import pytest

from repro.cli import main


class TestCli:
    def test_table2_smoke(self, capsys):
        assert main(["--scale", "smoke", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "b11" in out

    def test_die_command(self, capsys):
        assert main(["die", "b11", "0"]) == 0
        out = capsys.readouterr().out
        assert "b11_die0" in out
        assert "ours/tight" in out
        assert "overhead" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_scale_exits(self):
        with pytest.raises(SystemExit):
            main(["--scale", "galactic", "table2"])

    def test_profile_command(self, capsys):
        assert main(["profile", "b11", "0"]) == 0
        out = capsys.readouterr().out
        assert "profiling b11_die0" in out
        assert "flow.graph" in out
        assert "clique.merges" in out
        assert "agrawal/tight" in out and "ours/tight" in out

    def test_runtime_flags_configure(self, capsys):
        from repro.runtime import current_config
        assert main(["--jobs", "2", "--scale", "smoke", "table2"]) == 0
        assert current_config().jobs == 2
        # flags are also accepted after the subcommand
        assert main(["table2", "--scale", "smoke", "--jobs", "3"]) == 0
        assert current_config().jobs == 3

    def test_cache_flags(self, tmp_path, capsys):
        from repro.runtime import current_config
        assert main(["--cache-dir", str(tmp_path), "--scale", "smoke",
                     "figure7"]) == 0
        config = current_config()
        assert config.cache_dir == str(tmp_path)
        assert not config.no_cache
        assert main(["--no-cache", "--scale", "smoke", "table2"]) == 0
        assert current_config().no_cache

    def test_supervision_flags_configure(self, tmp_path, capsys):
        from repro.runtime import current_config
        assert main(["table2", "--scale", "smoke", "--timeout", "30",
                     "--retries", "2", "--strict",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        config = current_config()
        assert config.timeout_s == 30.0
        assert config.retries == 2
        assert config.strict
        assert config.checkpoint_dir == str(tmp_path)
        # a zero timeout means "no budget"
        assert main(["table2", "--scale", "smoke", "--timeout", "0"]) == 0
        assert current_config().timeout_s is None

    def test_negative_timeout_exits(self):
        with pytest.raises(SystemExit):
            main(["table2", "--scale", "smoke", "--timeout", "-1"])

    def test_session_script(self, tmp_path, capsys):
        script = tmp_path / "edits.eco"
        script.write_text("info\n"
                          "solve\n"
                          "move-ff ff0 12 34\n"
                          "solve\n"
                          "set d_th_um 200\n"
                          "solve\n")
        assert main(["session", "b11", "0", "--script", str(script),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "session: b11_die0 loaded" in out
        assert "[solve 1]" in out and "[solve 3]" in out
        assert out.count("verify=ok") == 3
        assert "MISMATCH" not in out

    def test_session_bad_edit_exits(self, tmp_path, capsys):
        script = tmp_path / "bad.eco"
        script.write_text("move-ff no_such_ff 0 0\n")
        assert main(["session", "b11", "0",
                     "--script", str(script)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tables_alias(self, capsys, monkeypatch):
        import repro.cli as cli
        monkeypatch.setattr(cli, "_EXPORT_ORDER", ("table2",))
        assert main(["--scale", "smoke", "tables"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_export(self, tmp_path, capsys, monkeypatch):
        # export the two cheap artifacts only (the full set is the
        # benchmark harness's job)
        import repro.cli as cli
        monkeypatch.setattr(cli, "_EXPORT_ORDER", ("table2", "figure7"))
        target = tmp_path / "results.md"
        assert main(["--scale", "smoke", "export", str(target)]) == 0
        text = target.read_text()
        assert "# Regenerated results" in text
        assert "table2" in text and "figure7" in text


class _FakeStdin:
    """Non-tty stdin whose readline can be scripted to raise."""

    def __init__(self, exc=None):
        self.exc = exc

    def isatty(self):
        return False

    def readline(self):
        if self.exc is not None:
            raise self.exc
        return ""  # EOF


class TestSessionInterrupt:
    def test_ctrl_c_exits_130_on_a_fresh_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin",
                            _FakeStdin(KeyboardInterrupt()))
        assert main(["session", "b11", "0"]) == 130
        out = capsys.readouterr().out
        assert out.endswith("\n")  # terminal left on a fresh line

    def test_eof_exits_cleanly_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", _FakeStdin())
        assert main(["session", "b11", "0"]) == 0
        assert "session: b11_die0 loaded" in capsys.readouterr().out


class _Reached(Exception):
    """Raised by a stand-in harness once it has seen its arguments."""


class TestSeedZero:
    """``--seed 0`` is a seed like any other, not a request for the
    default seed."""

    def test_scale_passes_seed_zero(self, monkeypatch):
        from repro.bench import scaling

        seeds = []

        def run_scaling(*args, seed, **kwargs):
            seeds.append(seed)
            raise _Reached

        monkeypatch.setattr(scaling, "run_scaling", run_scaling)
        with pytest.raises(_Reached):
            main(["scale", "--families", "grid", "--gates", "1e3:1e3",
                  "--seed", "0"])
        assert seeds == [0]

    def test_session_passes_seed_zero(self, monkeypatch):
        import repro.bench

        seeds = []

        def generate_die(profile, seed):
            seeds.append(seed)
            raise _Reached

        monkeypatch.setattr(repro.bench, "generate_die", generate_die)
        with pytest.raises(_Reached):
            main(["session", "b11", "0", "--seed", "0"])
        assert seeds == [0]
