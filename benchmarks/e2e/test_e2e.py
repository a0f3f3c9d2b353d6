"""Smoke check of the end-to-end benchmark at its ``--quick`` size.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Outside the tier-1 ``testpaths``. Runs the four workloads untraced and
traced (well under a minute together) and checks the benchmark's own
contract: names and units, no failed operation, spans that account for
the traced pass, and a comparison that catches a slowdown.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spans import PASS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "1",
         *args], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("set") / "run.json"
    lines, summary = run_bench("--out", str(out))
    return lines, summary, out


@pytest.fixture(scope="module")
def traced():
    return run_bench("--trace")


def printed(lines, workload, metric, unit):
    return any(line.split()[:2] == [workload, metric]
               and line.split()[-1] == unit for line in lines)


def test_names_are_valid():
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    lines, summary, _ = untraced
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            assert printed(lines, workload, metric["name"], metric["unit"])
            value = summary["metrics"][f"{workload}/{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0, (workload, metric["name"])


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    lines, summary = traced
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert printed(lines, workload, metric["name"], metric["unit"])
            assert (summary["metrics"][f"{workload}/{metric['name']}"]
                    ["unit"] == metric["unit"])


def test_no_operation_fails(untraced, traced):
    for summary in (untraced[1], traced[1]):
        assert summary["correct"]
        assert summary["failed"] == 0 and summary["attempted"] > 0


def test_self_times_account_for_the_traced_pass(traced):
    """Layer self times sum to the traced passes' wall time within 5 %:
    the benchmark's own code between the layer spans is under 5 %."""
    spans = json.loads((ROOT / ".e2e-bench" / "spans.json").read_text())
    for workload in WORKLOADS:
        tracer = Tracer()
        tracer.spans = [[s["id"], s["parent"], s["name"], s["start"],
                         s["end"]] for s in spans[workload]]
        self_times = tracer.self_times(PASS)
        glue = self_times.pop(PASS)
        layers = sum(self_times.values())
        assert layers > 0
        assert glue <= 0.05 * (layers + glue), (workload, glue, layers)


def test_compare_self_check_passes(untraced):
    _, _, out = untraced
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out.parent),
         str(out.parent)], cwd=ROOT, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout
    assert "worse" not in proc.stdout.split("self-check")[0]
