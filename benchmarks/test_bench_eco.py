"""Incremental-session (ECO) latency benchmark.

Measures the median single-edit re-solve latency of a warm
:class:`WcmSession` against a cold ``build_problem`` + ``run_wcm_flow``
on the same die, over a mixed edit workload (FF moves, TSV moves,
threshold re-tunes). The speedup and both medians are exported to
``BENCH_eco.json``, so the incremental path is regression-tracked
alongside the kernel micro-benchmarks.
"""

import statistics
import time

import pytest

from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow
from repro.core.problem import build_problem, tight_clock_for
from repro.core.session import MoveFf, MoveTsv, SetThreshold, WcmSession
from repro.dft.scan import stitch_scan_chains
from repro.place.placer import place_die

#: regression floor for warm/cold speedup; measured ~12x on an idle
#: machine (see BENCH_eco.json) — the slack absorbs CI noise.
MIN_SPEEDUP = 8.0

WARM_EDITS = 36
COLD_SOLVES = 3


@pytest.fixture(scope="module")
def eco_die():
    netlist = generate_die(die_profile("b12", 1), seed=2019)
    place_die(netlist)
    stitch_scan_chains(netlist)
    return netlist


def test_bench_eco_single_edit(benchmark, eco_die, echo):
    netlist = eco_die.clone()
    problem = build_problem(netlist, already_prepared=True)
    clock = tight_clock_for(problem)
    config = WcmConfig.ours(Scenario.performance_optimized(clock.period_ps))

    session = WcmSession(netlist, config, already_prepared=True)
    session.solve()

    colds = []
    for _ in range(COLD_SOLVES):
        clone = netlist.clone()
        t0 = time.perf_counter()
        cold_problem = build_problem(clone, clock=config.scenario.clock,
                                     already_prepared=True)
        run_wcm_flow(cold_problem, config)
        colds.append(time.perf_counter() - t0)
    cold_median = statistics.median(colds)

    ffs = [inst.name for inst in netlist.scan_flip_flops()]
    tsvs = [p.name for p in netlist.ports.values() if p.is_tsv]
    d0 = config.d_th_um
    step = {"count": 0}

    def one_edit():
        k = step["count"]
        step["count"] += 1
        kind = ("ff", "tsv", "th")[k % 3]
        if kind == "ff":
            name = ffs[(k // 3) % len(ffs)]
            inst = netlist.instances[name]
            session.apply(MoveFf(name, inst.x + 0.1, inst.y + 0.1))
        elif kind == "tsv":
            name = tsvs[(k // 3) % len(tsvs)]
            port = netlist.ports[name]
            session.apply(MoveTsv(name, port.x + 0.1, port.y + 0.1))
        else:
            session.apply(SetThreshold(d_th_um=d0 + 0.2 * ((k // 3) % 5)))
        return session.solve()

    benchmark.pedantic(one_edit, rounds=WARM_EDITS, iterations=1,
                       warmup_rounds=3)
    warm_median = benchmark.stats.stats.median
    speedup = cold_median / warm_median
    benchmark.extra_info["cold_median_s"] = cold_median
    benchmark.extra_info["speedup"] = speedup
    echo(f"[eco] cold {cold_median * 1000:.0f}ms, "
         f"warm edit {warm_median * 1000:.1f}ms, "
         f"speedup {speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"incremental session regressed: {speedup:.1f}x < "
        f"{MIN_SPEEDUP}x (cold {cold_median * 1000:.0f}ms, "
        f"warm {warm_median * 1000:.1f}ms)")
