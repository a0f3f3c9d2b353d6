"""Golden-manifest regression: the table3 and table4 smoke runs are
pinned.

``tests/golden/table3_smoke_manifest.json`` is the manifest of
``repro table3 --scale smoke`` with the environment-dependent sections
(timings, git, volatile metrics) stripped and the content fingerprints
kept; ``table4_smoke_manifest.json`` is the same for ``repro table4``,
which adds the stuck-at and transition ATPG runs. A fresh run must gate
cleanly against its golden — any change to the flow, partitioner, STA,
ATPG or metrics wiring that shifts the computation shows up here as a
readable diff, not as a silent drift.

The runs happen in a subprocess so the per-process memo caches warmed
by other tests cannot suppress the metric observations. table3 runs at
``--jobs 1`` and ``--jobs 2``: the worker metric ship-back must roll up
to the same pinned manifest as the serial run. table4 runs once, at
``--jobs 2``.
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
GOLDEN_TABLE4 = Path(__file__).parent / "golden" / \
    "table4_smoke_manifest.json"
REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_smoke(table, jobs, tmp_path_factory):
    """Manifest of a hermetic `repro TABLE --scale smoke --jobs N` run:
    ``--no-cache`` keeps a warm ``$REPRO_CACHE_DIR`` from serving the
    cells, which would skip the flows and ATPG the golden counts."""
    trace_dir = tmp_path_factory.mktemp(f"{table}-trace-j{jobs}")
    env = dict(os.environ)
    env.pop("REPRO_SCALE", None)
    env.pop("REPRO_JOBS", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", table, "--scale", "smoke",
         "--jobs", str(jobs), "--no-cache", "--trace-dir", str(trace_dir)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return trace_dir / f"manifest-{table}.json"


@pytest.fixture(scope="module", params=[1, 2], ids=["jobs1", "jobs2"])
def fresh_manifest(request, tmp_path_factory):
    return _run_smoke("table3", request.param, tmp_path_factory)


@pytest.fixture(scope="module")
def fresh_table4_manifest(tmp_path_factory):
    return _run_smoke("table4", 2, tmp_path_factory)


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


def test_table4_golden_fingerprint_is_self_consistent():
    payload = json.loads(GOLDEN_TABLE4.read_text())
    assert manifest_fingerprint(payload) == payload["fingerprint"]


def test_table4_fresh_run_gates_clean_against_golden(fresh_table4_manifest,
                                                     capsys):
    assert main(["bench", "gate", str(fresh_table4_manifest),
                 "--golden", str(GOLDEN_TABLE4)]) == 0
    assert "gate: OK" in capsys.readouterr().out


def test_table4_fresh_manifest_matches_golden_fingerprint(
        fresh_table4_manifest):
    fresh = load_manifest(fresh_table4_manifest)
    golden = load_manifest(GOLDEN_TABLE4)
    assert fresh["fingerprint"] == golden["fingerprint"]
    assert fresh["result_fingerprint"] == golden["result_fingerprint"]
