"""The ignored ``backend`` argument and ``--backend`` flag.

Each kernel has one implementation (DESIGN.md §11). The
``configure(backend=...)`` argument and the hidden ``--backend`` CLI
flag survive only because the end-to-end benchmark still passes them:
both accept ``python`` and ``numpy``, reject anything else, and change
nothing. Nothing under ``repro`` imports numpy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime.config import configure, current_config
from repro.util.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSelection:
    def test_known_names_accepted_and_ignored(self):
        before = current_config()
        for name in ("python", "numpy"):
            assert configure(backend=name) is before
        assert not hasattr(before, "backend")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            configure(backend="fortran")


class TestCliBackend:
    def test_bad_backend_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "fortran", "die", "b11", "0"])
        assert excinfo.value.code == 2

    def test_numpy_backend_runs(self, capsys):
        assert main(["--backend", "numpy", "die", "b11", "0"]) == 0
        assert "b11_die0" in capsys.readouterr().out

    def test_flag_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["die", "--help"])
        assert "--backend" not in capsys.readouterr().out


_NO_NUMPY_SCRIPT = textwrap.dedent("""
    import sys

    from repro.atpg.engine import AtpgConfig, run_stuck_at_atpg
    from repro.cli import main
    from repro.dft.testview import build_prebond_test_view
    from repro.runtime.config import configure
    from repro.sta.timer import TimingContext
    from repro.verify.fuzz import spec_for_iteration

    configure(backend="numpy")
    assert main(["--backend", "numpy", "die", "b11", "0"]) == 0
    problem = spec_for_iteration(2019, 0).build_problem()
    result = run_stuck_at_atpg(
        build_prebond_test_view(problem.netlist),
        AtpgConfig(seed=3, block_width=64, max_random_blocks=2,
                   podem_fault_limit=50))
    assert result.total_faults > 0
    assert TimingContext(problem.netlist).analyze().arrival_ps
    print("numpy imported:", "numpy" in sys.modules)
""")


def test_numpy_never_imported():
    """Asking for numpy through both entry points, then running ATPG
    and STA, leaves numpy out of ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy imported: False"
