"""Import layering: the substrate packages load no higher layer.

Each import runs in a fresh interpreter, so the modules it pulls in
are exactly the ones its package ``__init__`` chain reaches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """\
import json, sys
import {module}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""


def _loaded_layers(module):
    """The ``repro`` subpackages that ``import module`` loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c",
                           _SCRIPT.format(module=module)],
                          env=env, capture_output=True, text=True,
                          check=True)
    return {name.split(".")[1] for name in json.loads(proc.stdout)}


def test_netlist_core_loads_only_netlist_and_util():
    assert _loaded_layers("repro.netlist.core") == {"netlist", "util"}


def test_dft_loads_no_atpg_threed_or_runtime():
    layers = _loaded_layers("repro.dft")
    assert "dft" in layers
    assert not layers & {"atpg", "threed", "runtime"}, layers
