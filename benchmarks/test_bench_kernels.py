"""Micro-benchmarks of the substrate kernels.

These time the hot loops every experiment leans on (packed fault
simulation, STA, one sign-off build, placement, clique partitioning)
on a fixed mid-size die, so performance regressions in the substrates
are visible independently of the table sweeps.
"""

import pytest

from repro.atpg.engine import AtpgConfig, _FaultDispatcher, run_stuck_at_atpg
from repro.atpg.faults import build_fault_list
from repro.atpg.sim import CompiledCircuit
from repro.bench.families import FamilySpec, generate_family_die
from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.clique import partition_cliques
from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow, signoff_build
from repro.core.graph import build_wcm_graph
from repro.core.problem import build_problem, tight_clock_for
from repro.core.timing_model import ReuseTimingModel
from repro.dft.scan import stitch_scan_chains
from repro.dft.testview import build_prebond_test_view
from repro.dft.wrapper import dedicated_plan, insert_wrappers
from repro.netlist.core import PortKind
from repro.place.placer import PlacementConfig, place_die
from repro.sta.timer import TimingContext
from repro.util.rng import DeterministicRng


@pytest.fixture(scope="module")
def kernel_die():
    netlist = generate_die(die_profile("b12", 1), seed=2019)
    place_die(netlist)
    stitch_scan_chains(netlist)
    return netlist


@pytest.fixture(scope="module")
def kernel_problem(kernel_die):
    return build_problem(kernel_die, already_prepared=True)


def test_bench_generate_and_place(benchmark, echo):
    def build():
        netlist = generate_die(die_profile("b12", 1), seed=7)
        place_die(netlist)
        return netlist

    result = benchmark(build)
    assert result.gate_count == 397


def test_bench_sta(benchmark, kernel_die):
    timer = TimingContext(kernel_die)
    result = benchmark(timer.analyze)
    assert result.critical_path_ps > 0


def _grid_problem():
    """The e2e grid die (4,000 gates, 40 TSVs per kgate), prepared."""
    netlist = generate_family_die(
        "grid", FamilySpec.from_density(4000, tsvs_per_kgate=40),
        seed=2019)
    place_die(netlist, PlacementConfig(seed=2019))
    stitch_scan_chains(netlist)
    return build_problem(netlist, already_prepared=True)


@pytest.mark.parametrize("die", ["b12_d1", "grid"])
def test_bench_signoff_build(benchmark, kernel_problem, die):
    """One round of the sign-off repair loop on the ours/tight plan:
    insert the plan, restitch, derive the timing context from the
    problem's reference build and run both sign-off analyses
    (functional and test mode). b12_d1 carries 207 TSVs per kgate, so
    most of its wrapped die is touched; the grid die carries 40."""
    base = kernel_problem if die == "b12_d1" else _grid_problem()
    clock = tight_clock_for(base)
    problem = base.retime(clock)
    config = WcmConfig.ours(Scenario.performance_optimized(clock.period_ps))
    plan = run_wcm_flow(problem, config).plan
    _wrapped, _report, functional, test = benchmark(
        signoff_build, problem, plan, config)
    assert not functional.has_violation and not test.has_violation


def test_bench_packed_good_simulation(benchmark, kernel_die):
    wrapped, _ = insert_wrappers(kernel_die, dedicated_plan(kernel_die))
    stitch_scan_chains(wrapped, restitch=True)
    circuit = CompiledCircuit(build_prebond_test_view(wrapped))
    rng = DeterministicRng(3)
    mask = (1 << 256) - 1
    words = [rng.getrandbits(256) for _ in range(circuit.input_count)]
    values = benchmark(circuit.simulate, words, mask)
    assert len(values) == circuit.n_nets


def test_bench_stuck_at_atpg(benchmark, kernel_die):
    wrapped, _ = insert_wrappers(kernel_die, dedicated_plan(kernel_die))
    stitch_scan_chains(wrapped, restitch=True)
    view = build_prebond_test_view(wrapped)
    config = AtpgConfig(seed=3, block_width=128, max_random_blocks=6,
                        podem_fault_limit=200)
    # Five rounds, so the recorded mean carries a real spread.
    result = benchmark.pedantic(run_stuck_at_atpg, args=(view, config),
                                rounds=5, iterations=1)
    assert result.coverage > 0.9


def test_bench_event_propagation(benchmark, kernel_die):
    """Block fault detection, as the ATPG engine runs it: the whole
    collapsed stuck-at universe scored against one 192-pattern block
    (region sensitization and one event-driven propagation per stem)."""
    wrapped, _ = insert_wrappers(kernel_die, dedicated_plan(kernel_die))
    stitch_scan_chains(wrapped, restitch=True)
    view = build_prebond_test_view(wrapped)
    circuit = CompiledCircuit(view)
    rng = DeterministicRng(5)
    mask = (1 << 192) - 1
    words = [rng.getrandbits(192) for _ in range(circuit.input_count)]
    good = circuit.simulate(words, mask)
    faults = build_fault_list(view).faults
    dispatcher = _FaultDispatcher(circuit, faults)
    indices = range(len(faults))

    def run():
        return dispatcher.detect_many(circuit, good, indices, mask)

    detections = benchmark(run)
    assert sum(1 for word in detections if word) > len(faults) // 2


@pytest.mark.parametrize("kind", [PortKind.TSV_INBOUND,
                                  PortKind.TSV_OUTBOUND],
                         ids=lambda kind: kind.name)
def test_bench_graph_timed(benchmark, kernel_problem, kind):
    """The sharing-graph sweep under the tight clock (distance active):
    the inbound launch rows and the outbound capture rows."""
    clock = tight_clock_for(kernel_problem)
    problem = kernel_problem.retime(clock)
    config = WcmConfig.ours(Scenario.performance_optimized(clock.period_ps))

    def run():
        return build_wcm_graph(problem, kind, problem.scan_ffs, config)

    graph = benchmark(run)
    assert graph.stats.nodes > 0


def test_bench_graph_and_clique(benchmark, kernel_problem):
    config = WcmConfig.agrawal(Scenario.area_optimized())
    model = ReuseTimingModel(kernel_problem, config)

    def run():
        graph = build_wcm_graph(kernel_problem, PortKind.TSV_INBOUND,
                                kernel_problem.scan_ffs, config, model)
        return partition_cliques(graph, model)

    partition = benchmark(run)
    assert partition.cliques
