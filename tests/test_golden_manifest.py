"""Golden-manifest regression: the table3 smoke run is pinned.

``tests/golden/table3_smoke_manifest.json`` is the manifest of
``repro table3 --scale smoke`` with the environment-dependent sections
(timings, git, volatile metrics) stripped and the content fingerprints
kept. A fresh run must gate cleanly against it — any change to the
flow, partitioner, STA or metrics wiring that shifts the computation
shows up here as a readable diff, not as a silent drift.

The run happens in a subprocess so the per-process memo caches warmed
by other tests cannot suppress the metric observations. It runs at
``--jobs 1`` and ``--jobs 2``: the worker metric ship-back must roll up
to the same pinned manifest as the serial run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime.trace import load_manifest, manifest_fingerprint

GOLDEN = Path(__file__).parent / "golden" / "table3_smoke_manifest.json"
MUTATED = Path(__file__).parent / "golden" / \
    "table3_smoke_manifest_mutated.json"
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", params=[1, 2], ids=["jobs1", "jobs2"])
def fresh_manifest(request, tmp_path_factory):
    """Manifest of a hermetic `repro table3 --scale smoke --jobs N` run."""
    trace_dir = tmp_path_factory.mktemp(f"table3-trace-j{request.param}")
    env = dict(os.environ)
    env.pop("REPRO_SCALE", None)
    env.pop("REPRO_JOBS", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table3", "--scale", "smoke",
         "--jobs", str(request.param), "--trace-dir", str(trace_dir)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return trace_dir / "manifest-table3.json"


def test_golden_fingerprint_is_self_consistent():
    payload = json.loads(GOLDEN.read_text())
    assert manifest_fingerprint(payload) == payload["fingerprint"]


def test_fresh_run_gates_clean_against_golden(fresh_manifest, capsys):
    assert main(["bench", "gate", str(fresh_manifest),
                 "--golden", str(GOLDEN)]) == 0
    out = capsys.readouterr().out
    assert "gate: OK" in out
    assert "fingerprint" in out  # the identity check actually ran


def test_fresh_run_rejected_by_mutated_golden(fresh_manifest, capsys):
    assert main(["bench", "gate", str(fresh_manifest),
                 "--golden", str(MUTATED)]) == 1
    out = capsys.readouterr().out
    assert "gate: FAIL" in out
    # the diff names the metric that moved, with both values
    assert "clique.merges" in out
    assert "expected" in out and "got" in out


def test_fresh_manifest_matches_golden_fingerprint(fresh_manifest):
    fresh = load_manifest(fresh_manifest)
    golden = load_manifest(GOLDEN)
    assert fresh["fingerprint"] == golden["fingerprint"]
    assert fresh["result_fingerprint"] == golden["result_fingerprint"]
