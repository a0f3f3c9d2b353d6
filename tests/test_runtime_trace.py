"""Structured tracing layer: spans, metrics, manifests, the gate.

Covers the observability contracts the rest of the repo leans on:
span nesting and id stability in the JSONL event trail, histogram
bucketing, manifest fingerprint stability across worker counts, the
no-op fast path when tracing is off, and `repro bench gate` exit
behaviour (accepts identical timings, rejects a 20% slowdown at the
default 10% tolerance).
"""

import json
import time

import pytest

from repro.runtime import configure, trace
from repro.runtime.supervisor import supervised_map
from repro.runtime.trace import (
    TRACE_SCHEMA_VERSION,
    GaugeStat,
    Histogram,
    MetricsRegistry,
    build_manifest,
    diff_manifests,
    gate,
    load_manifest,
    manifest_fingerprint,
    read_events,
    write_bench_json,
    write_manifest,
)


def _traced_cell(value):
    """Module-level (picklable) cell that records every metric kind."""
    trace.inc("work.items")
    trace.inc("cache.hits")  # volatile: must not enter the fingerprint
    trace.observe("clique.size", value)
    trace.set_gauge("work.value", value)
    return value * 2


# ---------------------------------------------------------------------------
# Histograms and gauges
# ---------------------------------------------------------------------------
class TestHistogram:
    def test_bucketing_with_boundary_values(self):
        histogram = Histogram((1, 10, 100))
        for value in (0, 1, 2, 10, 11, 1000):
            histogram.observe(value)
        # bisect_left: a value equal to a bound lands in that bucket
        assert histogram.counts == [2, 2, 1, 1]
        assert histogram.count == 6
        assert histogram.minimum == 0.0
        assert histogram.maximum == 1000.0

    def test_merge_requires_identical_buckets(self):
        a = Histogram((1, 2))
        b = Histogram((1, 3))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_payload_round_trip(self):
        histogram = Histogram((0.5, 5.0))
        for value in (0.1, 0.7, 9.0):
            histogram.observe(value)
        clone = Histogram.from_payload(histogram.to_payload())
        assert clone.to_payload() == histogram.to_payload()

    def test_gauge_merge_equals_serial(self):
        serial = GaugeStat()
        for value in (3, 1, 4, 1, 5):
            serial.set(value)
        left, right = GaugeStat(), GaugeStat()
        for value in (3, 1):
            left.set(value)
        for value in (4, 1, 5):
            right.set(value)
        left.merge(right)
        assert left.to_payload() == serial.to_payload()


# ---------------------------------------------------------------------------
# Spans and the event trail
# ---------------------------------------------------------------------------
class TestSpans:
    def test_nesting_ids_and_jsonl_round_trip(self, tmp_path):
        trace.start(tmp_path)
        with trace.span("outer", kind="experiment", table="t3"):
            with trace.span("inner"):
                trace.event("ping", n=1)
        trace.stop()

        events = list(read_events(tmp_path))
        by_kind = {}
        for record in events:
            by_kind.setdefault(record["ev"], []).append(record)
        assert by_kind["trace_start"][0]["schema"] == TRACE_SCHEMA_VERSION
        starts = {r["name"]: r for r in by_kind["span_start"]}
        assert starts["outer"]["parent"] is None
        assert starts["outer"]["attrs"] == {"table": "t3"}
        assert starts["inner"]["parent"] == starts["outer"]["id"]
        assert starts["inner"]["id"] != starts["outer"]["id"]
        point = by_kind["point"][0]
        assert point["name"] == "ping"
        assert point["parent"] == starts["inner"]["id"]
        ends = {r["name"]: r for r in by_kind["span_end"]}
        assert ends["outer"]["wall_s"] >= ends["inner"]["wall_s"] >= 0.0
        assert "cpu_s" in ends["outer"]
        assert by_kind["trace_end"], "trace_end must be flushed on stop"

    def test_every_line_is_valid_json(self, tmp_path):
        trace.start(tmp_path)
        with trace.span("s", note="x"):
            trace.event("e", data={"k": [1, 2]})
        trace.stop()
        with open(tmp_path / "events.jsonl", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == len(list(read_events(tmp_path)))
        for line in lines:
            json.loads(line)

    def test_error_span_records_exception_name(self, tmp_path):
        trace.start(tmp_path)
        with pytest.raises(ValueError):
            with trace.span("doomed"):
                raise ValueError("boom")
        trace.stop()
        ends = [r for r in read_events(tmp_path) if r["ev"] == "span_end"]
        assert ends[0]["error"] == "ValueError"

    def test_phase_opens_span_under_tracer(self, tmp_path):
        trace.start(tmp_path)
        with trace.span("wcm.partition", kind="phase"):
            trace.inc("clique.merges", 3)
        tracer = trace.stop()
        starts = [(r["name"], r["kind"]) for r in read_events(tmp_path)
                  if r["ev"] == "span_start"]
        assert ("wcm.partition", "phase") in starts
        assert tracer.metrics.counters["clique.merges"] == 3
        assert "wcm.partition" in tracer.bench_timings()


# ---------------------------------------------------------------------------
# No-op fast path
# ---------------------------------------------------------------------------
class TestNoopMode:
    def test_zero_events_written_without_tracer(self, tmp_path, monkeypatch):
        assert trace.active() is None
        monkeypatch.chdir(tmp_path)
        with trace.span("s"):
            trace.event("e")
            trace.inc("c")
            trace.observe("h", 1.0)
        with trace.span("p", kind="phase"):
            trace.inc("c")
        assert list(tmp_path.rglob("events*.jsonl")) == []

    def test_span_helper_returns_shared_noop(self):
        assert trace.span("a") is trace.span("b")

    def test_overhead_is_bounded(self):
        # 200k no-op phase spans plus counts must stay well under a
        # second: the off path is one global read, no I/O.
        started = time.perf_counter()
        for _ in range(200_000):
            with trace.span("hot.phase", kind="phase"):
                trace.inc("hot.counter")
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"no-op path too slow: {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# Worker metric ship-back and manifest fingerprint stability
# ---------------------------------------------------------------------------
def _rollup_for_jobs(tmp_path, jobs):
    configure(trace_dir=str(tmp_path))
    sweep = supervised_map(_traced_cell, [3, 1, 4, 1, 5, 9, 2, 6],
                           jobs=jobs, seed=7, label="trace-test")
    assert sweep.ok
    tracer = trace.active()
    manifest = build_manifest(
        "trace-test", config={"jobs-independent": True}, seed=7,
        scale="smoke", result_fingerprint="r", metrics=tracer.metrics,
        timings=tracer.bench_timings())
    trace.stop()
    return manifest


class TestFingerprintStability:
    def test_manifest_identical_serial_vs_parallel(self, tmp_path):
        serial = _rollup_for_jobs(tmp_path / "j1", jobs=1)
        parallel = _rollup_for_jobs(tmp_path / "j4", jobs=4)
        assert serial["metrics"] == parallel["metrics"]
        assert serial["fingerprint"] == parallel["fingerprint"]
        # the volatile counter was recorded but kept out of the print
        assert "cache.hits" not in serial["metrics"]["counters"]
        assert serial["volatile_metrics"]["counters"]["cache.hits"] == 8
        # timings differ between runs yet never affect the fingerprint
        assert serial["timings"] != {} and parallel["timings"] != {}

    def test_worker_events_land_on_disk(self, tmp_path):
        configure(trace_dir=str(tmp_path))
        supervised_map(_traced_cell, [1, 2, 3, 4], jobs=2, seed=7,
                       label="workers")
        trace.stop()
        names = [r.get("name") for r in read_events(tmp_path)]
        assert names.count("cell") >= 4  # span per cell, worker logs
        assert (tmp_path / "events.jsonl").exists()
        assert list(tmp_path.glob("events-w*.jsonl"))


# ---------------------------------------------------------------------------
# Manifests, diff, gate
# ---------------------------------------------------------------------------
def _manifest(timings=None, counter=5):
    registry = MetricsRegistry()
    registry.inc("work.items", counter)
    return build_manifest("t", config={"scale": "smoke"}, seed=1,
                          scale="smoke", result_fingerprint="abc",
                          metrics=registry, timings=timings)


class TestManifest:
    def test_fingerprint_ignores_timings_and_git(self):
        a = _manifest(timings={"k": {"mean_s": 0.1, "min_s": 0.1,
                                     "stddev_s": 0.0, "rounds": 3}})
        b = _manifest(timings=None)
        b["git"] = "somewhere-else"
        assert a["fingerprint"] == b["fingerprint"]
        assert manifest_fingerprint(b) == b["fingerprint"]

    def test_fingerprint_tracks_metrics(self):
        assert _manifest()["fingerprint"] != \
            _manifest(counter=6)["fingerprint"]

    def test_write_load_round_trip(self, tmp_path):
        payload = _manifest()
        path = write_manifest(tmp_path / "m.json", payload)
        assert load_manifest(path) == payload

    def test_load_normalizes_raw_bench_json(self, tmp_path):
        timings = {"kern": {"mean_s": 0.01, "min_s": 0.009,
                            "stddev_s": 0.001, "rounds": 5}}
        path = write_bench_json(tmp_path / "BENCH_x.json", timings)
        manifest = load_manifest(path)
        assert manifest["timings"] == timings
        assert manifest["fingerprint"] is None
        assert manifest["label"] is None

    def test_diff_reports_metric_change_readably(self):
        golden, candidate = _manifest(), _manifest(counter=9)
        problems = diff_manifests(golden, candidate)
        assert any("work.items" in p for p in problems)
        assert any("expected 5" in p and "got 9" in p for p in problems)

    def test_render_rounds_histograms_and_totals_spans(self):
        registry = MetricsRegistry()
        registry.observe("sta.worst_slack_ps", -41.737187678544615)
        registry.observe("sta.worst_slack_ps", 144.0)
        rendered = trace.render_manifest(build_manifest(
            "t", metrics=registry,
            timings={"flow.sta": {"mean_s": 0.002, "min_s": 0.001,
                                  "stddev_s": 0.0, "rounds": 3}}))
        # min/max print at 4 significant digits, like the mean
        assert "-41.74" in rendered and "-41.737" not in rendered
        # the span table carries rounds x mean as total_ms
        row = next(line for line in rendered.splitlines()
                   if line.startswith("flow.sta"))
        assert [cell.strip() for cell in row.split("|")] == \
            ["flow.sta", "3", "6.000", "2.000", "1.000"]


class TestBenchGate:
    TIMINGS = {"kernel": {"mean_s": 0.100, "min_s": 0.09,
                          "stddev_s": 0.002, "rounds": 5}}

    def _paths(self, tmp_path, candidate_mean):
        golden = write_bench_json(tmp_path / "golden.json", self.TIMINGS)
        slowed = {"kernel": dict(self.TIMINGS["kernel"],
                                 mean_s=candidate_mean)}
        candidate = write_bench_json(tmp_path / "candidate.json", slowed)
        return candidate, golden

    def test_accepts_identical(self, tmp_path):
        candidate, golden = self._paths(tmp_path, 0.100)
        ok, lines = gate(candidate, golden)
        assert ok and any("gate: OK" in line for line in lines)

    def test_rejects_twenty_percent_slowdown(self, tmp_path):
        candidate, golden = self._paths(tmp_path, 0.120)
        ok, lines = gate(candidate, golden)
        assert not ok
        assert any("gate: FAIL" in line for line in lines)
        assert any("kernel" in line and "%" in line for line in lines)

    def test_being_faster_passes(self, tmp_path):
        candidate, golden = self._paths(tmp_path, 0.050)
        ok, _lines = gate(candidate, golden)
        assert ok

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        candidate, golden = self._paths(tmp_path, 0.120)
        assert main(["bench", "gate", str(candidate),
                     "--golden", str(golden)]) == 1
        assert "gate: FAIL" in capsys.readouterr().out
        assert main(["bench", "gate", str(golden),
                     "--golden", str(golden)]) == 0
        assert main(["bench", "gate", str(candidate),
                     "--golden", str(golden), "--tolerance", "25"]) == 0

    def test_cli_trace_show_and_diff(self, tmp_path, capsys):
        from repro.cli import main

        a = write_manifest(tmp_path / "a.json", _manifest())
        b = write_manifest(tmp_path / "b.json", _manifest(counter=9))
        assert main(["trace", "show", str(a)]) == 0
        assert "work.items" in capsys.readouterr().out
        assert main(["trace", "diff", str(a), str(a)]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert "work.items" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Scoped collection: trace.collect() and the re-entrancy rule
# ---------------------------------------------------------------------------
def _collect_workload():
    """Spans, a re-entered span and every metric kind."""
    with trace.span("outer", kind="phase"):
        trace.inc("work.items", 2)
        trace.observe("clique.size", 3)
        with trace.span("inner", kind="phase"):
            trace.inc("work.items")
            with trace.span("inner", kind="phase"):
                trace.event("ping")
    with trace.span("outer", kind="phase"):
        trace.set_gauge("work.value", 1.5)


def _untraced(_cell):
    return trace.active() is None


def _traced_run(trace_dir, wrap):
    """(counters etc., span rounds, events sans clocks, block) of one
    traced run of the workload, inside a collect() block or not."""
    tracer = trace.start(trace_dir)
    trace.inc("before")
    block = None
    if wrap:
        with trace.collect() as block:
            _collect_workload()
        assert trace.active() is tracer
    else:
        _collect_workload()
    trace.inc("after")
    trace.stop()
    rounds = {name: t["rounds"]
              for name, t in tracer.bench_timings().items()}
    events = [{k: v for k, v in record.items()
               if k not in ("ts", "wall_s", "cpu_s")}
              for record in read_events(trace_dir)]
    return tracer.metrics.to_payload(), rounds, events, block


class TestCollect:
    def test_reentrant_same_name_phase_not_double_counted(self):
        with trace.collect() as collected:
            started = time.perf_counter()
            with trace.span("repair", kind="phase"):
                time.sleep(0.02)
                with trace.span("repair", kind="phase"):
                    time.sleep(0.02)
            wall = time.perf_counter() - started
        stat = collected.bench_timings()["repair"]
        # the outermost entry charges the whole elapsed time once; a
        # double-count would report ~1.5x the real wall-clock
        assert stat["rounds"] == 1
        assert stat["mean_s"] == pytest.approx(wall, abs=0.02)

    def test_block_under_tracer_leaves_its_rollup_unchanged(self, tmp_path):
        plain = _traced_run(tmp_path / "plain", wrap=False)
        wrapped = _traced_run(tmp_path / "wrapped", wrap=True)
        assert wrapped[:3] == plain[:3]
        assert plain[1] == {"inner": 1, "outer": 2}
        # the block saw its own work only, not the tracer's before/after
        block = wrapped[3]
        assert block.metrics.counters == {"work.items": 3}
        assert {name: t["rounds"]
                for name, t in block.bench_timings().items()} == plain[1]

    def test_block_with_tracing_off_writes_no_files(self, tmp_path,
                                                    monkeypatch):
        assert trace.active() is None
        monkeypatch.chdir(tmp_path)
        with trace.collect() as collected:
            assert trace.active() is collected
            _collect_workload()
        assert trace.active() is None
        assert list(tmp_path.rglob("*")) == []
        assert collected.metrics.counters == {"work.items": 3}
        assert collected.metrics.histograms["clique.size"].count == 1
        assert collected.bench_timings()["outer"]["rounds"] == 2

    def test_untraced_workers_stay_on_noop_path(self):
        # per-cell collection is for ship-back under a running tracer
        # only; an untraced --jobs N cell must see tracing off
        sweep = supervised_map(_untraced, [0, 1, 2, 3], jobs=2, seed=7,
                               label="untraced")
        assert sweep.results_or_raise() == [True] * 4


class TestGarbageCollector:
    def test_forced_collection_is_charged_to_the_innermost_span(self):
        import gc

        assert trace.active() is None
        assert trace._on_gc not in gc.callbacks
        with trace.collect() as collected:
            assert trace._on_gc in gc.callbacks
            with trace.span("outer", kind="phase"):
                with trace.span("inner", kind="phase"):
                    gc.collect()
        assert trace._on_gc not in gc.callbacks
        timings = collected.bench_timings()
        assert timings["inner"]["gc_s"] > 0.0
        counters = collected.runtime.counters
        assert counters["runtime.gc.collections"] >= 1
        assert counters["runtime.gc_s"] >= timings["inner"]["gc_s"]
        # runtime metrics stay out of the reproducible counters
        assert not any(name.startswith("runtime.")
                       for name in collected.metrics.counters)
        manifest = build_manifest("gc", metrics=collected.metrics,
                                  runtime=collected.runtime,
                                  timings=timings)
        assert manifest["fingerprint"] == build_manifest(
            "gc", metrics=collected.metrics, timings=timings)["fingerprint"]
        assert "runtime.gc.collections" in \
            manifest["volatile_metrics"]["counters"]
        assert "gc_ms" in trace.render_manifest(manifest)

    def test_hook_lives_exactly_as_long_as_a_started_tracer(self, tmp_path):
        import gc

        assert trace._on_gc not in gc.callbacks
        tracer = trace.start(tmp_path)
        try:
            assert trace._on_gc in gc.callbacks
            with trace.span("phase", kind="phase"):
                gc.collect()
        finally:
            trace.stop()
        assert trace._on_gc not in gc.callbacks
        assert tracer.runtime.counters["runtime.gc.collections"] >= 1
        gc.collect()  # no tracer: nothing is counted anywhere
        assert trace.active() is None
