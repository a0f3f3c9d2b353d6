"""Tests for the strict supervised map and the instrumentation."""

import random
from dataclasses import replace

from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow
from repro.experiments import run_table3
from repro.experiments.common import SCALES
from repro.runtime import trace
from repro.runtime.supervisor import SupervisorPolicy, cell_seed, supervised_map

B11_ONLY = replace(SCALES["smoke"], circuits=("b11",))


def _strict_map(fn, cells, jobs, seed=0):
    """Every result in order, or the first terminal failure raised."""
    policy = replace(SupervisorPolicy.from_config(), strict=True,
                     checkpoint_dir=None)
    return supervised_map(fn, cells, jobs=jobs, seed=seed,
                          policy=policy).results_or_raise()


def _square(value):
    return value * value


def _draw(_cell):
    return random.random()


class TestParallelMap:
    def test_order_preserved(self):
        cells = list(range(12))
        assert _strict_map(_square, cells, jobs=1) == \
            _strict_map(_square, cells, jobs=3) == \
            [v * v for v in cells]

    def test_per_cell_seeding_matches_serial(self):
        serial = _strict_map(_draw, range(6), jobs=1, seed=7)
        parallel = _strict_map(_draw, range(6), jobs=2, seed=7)
        assert serial == parallel
        # distinct deterministic stream per cell, and per root seed
        assert len(set(serial)) == len(serial)
        assert _strict_map(_draw, range(6), jobs=1, seed=8) != serial

    def test_cell_seed_is_stable(self):
        assert cell_seed(2019, 3) == cell_seed(2019, 3)
        assert cell_seed(2019, 3) != cell_seed(2019, 4)
        assert cell_seed(2019, 3) != cell_seed(2020, 3)

    def test_single_cell_stays_serial(self):
        assert _strict_map(_square, [5], jobs=8) == [25]


class TestParallelDrivers:
    def test_table3_parallel_equals_serial(self, monkeypatch):
        import repro.experiments.common as common

        # Empty the in-process memo first, so forked workers recompute
        # from scratch instead of inheriting earlier tests' results.
        monkeypatch.setattr(common, "_RUNS", {})
        parallel = run_table3(B11_ONLY, jobs=2).render()
        serial = run_table3(B11_ONLY, jobs=1).render()
        assert parallel == serial


class TestInstrumentation:
    def test_noop_without_collector(self):
        with trace.span("test.phase", kind="phase"):
            pass
        trace.inc("test.counter", 3)
        assert trace.active() is None

    def test_collects_flow_phases_and_counters(self, small_problem):
        with trace.collect() as collected:
            run_wcm_flow(small_problem,
                         WcmConfig.ours(Scenario.area_optimized()))
        timings = collected.bench_timings()
        assert timings["flow.graph"]["rounds"] == 2  # both TSV kinds
        assert timings["flow.partition"]["rounds"] == 2
        assert "flow.adoption" in timings
        counters = collected.metrics.counters
        assert counters.get("clique.merges", 0) >= 0
        assert "flow.eco_rounds" in counters
        rendered = trace.render_manifest({
            "label": "unit test", "metrics": collected.metrics.to_payload(),
            "timings": timings})
        assert "flow.graph" in rendered and "unit test" in rendered
        assert "total_ms" in rendered

    def test_nested_collectors_are_scoped(self):
        with trace.collect() as outer:
            trace.inc("outer.only")
            with trace.span("outer.phase", kind="phase"):
                with trace.collect() as inner:
                    trace.inc("inner.only")
                    with trace.span("inner.phase", kind="phase"):
                        pass
        # the inner block sees only its own work, the outer one both
        assert inner.metrics.counters == {"inner.only": 1}
        assert set(inner.bench_timings()) == {"inner.phase"}
        assert outer.metrics.counters == {"outer.only": 1, "inner.only": 1}
        assert set(outer.bench_timings()) == {"outer.phase", "inner.phase"}
