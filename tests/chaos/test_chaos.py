"""End-to-end chaos validation on a real driver sweep.

Injects worker crashes, cell hangs, malformed netlists and cache
corruption into a ``--jobs 4`` Table III sweep over the four b11 dies
and asserts the contract from DESIGN.md: the sweep completes, exactly
the injured cells come back failed, the CLI exits non-zero, and every
*surviving* cell is byte-identical to a clean serial run.
"""

import json
from dataclasses import replace

import pytest

from repro import cli
from repro.experiments import run_table3
from repro.experiments.common import SCALES
from repro.runtime import configure, trace
from repro.runtime.chaos import ChaosPlan, ChaosSpec, corrupt_cache_entry
from repro.runtime.config import current_config

B11_ONLY = replace(SCALES["smoke"], circuits=("b11",))

#: generous per-cell budget (a clean b11 cell takes well under 1s);
#: the injected hang sleeps far past it and must be killed
TIMEOUT_S = 10.0


@pytest.fixture(autouse=True)
def _fresh_memos(monkeypatch):
    """Empty the in-process run memo so forked workers recompute from
    scratch instead of inheriting earlier tests' results."""
    import repro.experiments.common as common

    monkeypatch.setattr(common, "_RUNS", {})
    yield


def _clean_serial():
    return run_table3(B11_ONLY, jobs=1)


class TestInjectedFailures:
    def test_crash_and_hang_in_jobs4_sweep(self):
        clean = _clean_serial()
        assert not clean.failures

        plan = ChaosPlan(
            cells={1: ChaosSpec("crash", attempts=99),
                   2: ChaosSpec("hang", attempts=99)},
            hang_seconds=600.0)
        configure(jobs=4, timeout_s=TIMEOUT_S, chaos=plan)
        injured = run_table3(B11_ONLY)

        # exactly the injured cells failed, with honest diagnoses
        assert set(injured.failures) == {("b11", 1), ("b11", 2)}
        assert "crashed" in injured.failures[("b11", 1)]
        assert "wall-clock" in injured.failures[("b11", 2)]

        # every surviving cell is byte-identical to the clean run
        assert set(injured.cells) == {("b11", 0), ("b11", 3)}
        for key in injured.cells:
            assert injured.cells[key] == clean.cells[key]

        # and the rendered table says so, loudly
        rendered = injured.render()
        assert "FAILED" in rendered
        assert "b11_d1" in rendered and "b11_d2" in rendered

    def test_netlist_chaos_is_a_failed_cell(self):
        plan = ChaosPlan(cells={0: ChaosSpec("netlist", attempts=99)})
        configure(jobs=2, chaos=plan)
        result = run_table3(B11_ONLY)
        assert set(result.failures) == {("b11", 0)}
        assert "NetlistError" in result.failures[("b11", 0)]

    def test_injured_then_retried_cell_matches_clean(self):
        clean = _clean_serial()
        plan = ChaosPlan(cells={3: ChaosSpec("crash", attempts=1)})
        configure(jobs=2, retries=1, chaos=plan)
        healed = run_table3(B11_ONLY)
        assert not healed.failures
        assert healed.cells == clean.cells


class TestCacheCorruption:
    def test_corrupt_entries_are_quarantined_and_recomputed(
            self, tmp_path):
        configure(cache_dir=str(tmp_path))
        clean = _clean_serial().render()

        # one unparsable entry, one valid-JSON-wrong-shape entry
        corrupt_cache_entry(tmp_path, nth=0, mode="truncate")
        corrupt_cache_entry(tmp_path, nth=1, mode="misshape")

        again = _clean_serial().render()
        assert again == clean

        quarantined = list((tmp_path / "quarantine").glob("*.json"))
        assert len(quarantined) == 2


class TestCheckpointResume:
    def test_resume_recomputes_only_the_injured_cell(self, tmp_path):
        clean = _clean_serial()

        plan = ChaosPlan(cells={1: ChaosSpec("crash", attempts=99)})
        configure(jobs=2, checkpoint_dir=str(tmp_path), chaos=plan)
        first = run_table3(B11_ONLY)
        assert set(first.failures) == {("b11", 1)}

        # "fix the bug" (drop the chaos) and rerun: the three completed
        # cells come back from the journal, only die 1 is recomputed
        current_config().chaos = None
        current_config().jobs = 1
        with trace.collect() as collected:
            second = run_table3(B11_ONLY)
        assert not second.failures
        assert second.cells == clean.cells
        counters = collected.metrics.counters
        assert counters["supervisor.checkpoint_restored"] == 3
        assert counters["supervisor.cells"] == 1


class TestCliExitCodes:
    def test_cli_exits_nonzero_and_renders_failures(
            self, monkeypatch, capsys):
        import repro.experiments.common as common

        monkeypatch.setitem(common.SCALES, "smoke", B11_ONLY)
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"cells": {"0": {"action": "raise"}}}))
        code = cli.main(["table3", "--scale", "smoke", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.out
        assert "cell(s) failed" in captured.err

    def test_cli_strict_aborts_with_exit_2(self, monkeypatch, capsys):
        import repro.experiments.common as common

        monkeypatch.setitem(common.SCALES, "smoke", B11_ONLY)
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps({"cells": {"0": {"action": "raise",
                                        "attempts": 99}}}))
        code = cli.main(["table3", "--scale", "smoke", "--jobs", "2",
                         "--strict"])
        captured = capsys.readouterr()
        assert code == 2
        assert "sweep aborted" in captured.err


class TestChaosWithTracing:
    """Events must survive injected crashes and timeout kills: the
    per-line flush contract of the trace sink, end to end."""

    def test_events_flushed_on_crash_and_timeout(self, tmp_path):
        from repro.runtime import trace

        plan = ChaosPlan(
            cells={1: ChaosSpec("crash", attempts=99),
                   2: ChaosSpec("hang", attempts=99)},
            hang_seconds=600.0)
        configure(jobs=4, timeout_s=TIMEOUT_S, chaos=plan,
                  trace_dir=str(tmp_path))
        injured = run_table3(B11_ONLY)
        trace.stop()
        assert set(injured.failures) == {("b11", 1), ("b11", 2)}

        events = list(trace.read_events(tmp_path))
        assert events, "no events survived the injured sweep"

        # the supervisor recorded both failure modes in the main log
        points = {}
        for record in events:
            if record["ev"] == "point":
                points.setdefault(record["name"], []).append(
                    record.get("attrs", {}))
        assert any(a.get("index") == 1
                   for a in points.get("supervisor.crash", []))
        assert any(a.get("index") == 2
                   for a in points.get("supervisor.timeout", []))

        # killed workers still left their span_start lines on disk:
        # the crashed cell 1 and the hung cell 2 both opened a span
        # in a worker log before dying
        worker_logs = list(tmp_path.glob("events-w*.jsonl"))
        assert worker_logs, "worker processes wrote no event logs"
        injured_starts = {
            record["attrs"]["index"]
            for record in events
            if record["ev"] == "span_start" and record["name"] == "cell"
            and record.get("attrs", {}).get("index") in (1, 2)}
        assert injured_starts == {1, 2}

        # the chaos injections themselves are on the record
        chaos_actions = {a.get("action")
                         for a in points.get("chaos.injected", [])}
        assert {"crash", "hang"} <= chaos_actions
