"""Wrapper/TAM co-optimization bench: driver sweep + packer throughput.

Two regression-tracked timings, exported to ``BENCH_schedule.json``
through the session-finish hook:

* the full ``repro schedule`` driver at the configured scale (fixed
  pattern counts, so the timing isolates the scheduling path from
  ATPG), asserting the paper's acceptance property — ours never tests
  slower than Agrawal on any die — as part of the bench, and
* the best-fit packer alone on a synthetic 64-die corpus, with the
  resulting makespan, utilization and schedule fingerprint pinned as
  extra info (the ``schedule-smoke`` CI job compares fingerprints
  across runs; the gate tracks the wall time).
"""

from repro.experiments import common
from repro.experiments.common import result_fingerprint
from repro.schedule import DieTestModel, best_fit_schedule, run_schedule
from repro.util.rng import DeterministicRng

FIXED_PATTERNS = 32
PACK_DIES = 64
PACK_BUDGET = 16


def _cold_start():
    """Empty the per-process die and flow memos, so every round pays
    for the same cold sweep as the first."""
    common._PREPARED.clear()
    common._RUNS.clear()


def test_bench_schedule_table(benchmark, scale, echo):
    # Five rounds, so the recorded mean carries a real spread.
    result = benchmark.pedantic(
        run_schedule, args=(scale,),
        kwargs={"fixed_patterns": FIXED_PATTERNS},
        setup=_cold_start, rounds=5, iterations=1)
    echo(result.render())
    assert not result.failures, result.failures
    leq, strict, total = result.die_wins()
    assert leq == total, "ours tested slower than Agrawal on a die"
    benchmark.extra_info["dies"] = total
    benchmark.extra_info["strict_wins"] = strict
    benchmark.extra_info["fingerprint"] = result_fingerprint(result)


def _pack_corpus():
    rng = DeterministicRng(2019).child("schedule", "bench")
    return [
        DieTestModel(
            f"d{i}",
            tuple(rng.randint(4, 40) for _ in range(rng.randint(1, 4))),
            rng.randint(0, 30), rng.randint(16, 96))
        for i in range(PACK_DIES)
    ]


def test_bench_schedule_packer(benchmark, echo):
    models = _pack_corpus()
    schedule = benchmark(best_fit_schedule, models, PACK_BUDGET)
    assert len(schedule.placements) == PACK_DIES
    echo(f"[schedule packer] {PACK_DIES} dies over {PACK_BUDGET} lanes: "
         f"makespan {schedule.makespan}, "
         f"utilization {100 * schedule.utilization:.0f}%")
    benchmark.extra_info["makespan"] = schedule.makespan
    benchmark.extra_info["utilization"] = round(schedule.utilization, 4)
    benchmark.extra_info["fingerprint"] = schedule.fingerprint()
