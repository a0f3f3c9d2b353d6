"""Trimmed scaling-law bench: the CI-tracked slice of ``repro scale``.

Benches the phases of the scaling sweep on two families at the
10^3-10^4-gate decades (generation, packed simulation, both sharing
graphs and the graph layer's cold per-die set-up at the high end and
the full WCM flow at the low end), exporting
``BENCH_scaling.json`` through the session-finish hook so ``repro bench
gate`` tracks regressions. Each entry carries the instance's content
fingerprint as extra info — the gate ignores it, the ``scaling-smoke``
CI job pins it across runs.

The full sweep (10^3-10^6 gates, all families, TSV-density knobs) runs
via ``repro scale``; see DESIGN.md §14.
"""

import pytest

from repro.atpg.sim import CompiledCircuit
from repro.bench.families import (FamilySpec, generate_family_die,
                                  netlist_fingerprint)
from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow
from repro.core.graph import _cone_bitsets, build_wcm_graph
from repro.core.problem import build_problem, tight_clock_for
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.dft.scan import stitch_scan_chains
from repro.dft.testview import build_prebond_test_view
from repro.netlist.core import PortKind
from repro.place.placer import place_die
from repro.util.fingerprint import fingerprint
from repro.util.rng import DeterministicRng

SEED = 2019
CELLS = [("grid", 1000), ("grid", 10000),
         ("htree", 1000), ("htree", 10000)]
_WIDTH = 64
_MASK = (1 << _WIDTH) - 1


def _die(family, gates):
    return generate_family_die(family, FamilySpec.from_density(gates),
                               seed=SEED)


def _tight_problem(family, gates):
    """The die placed, stitched and timed, with its ours/tight config."""
    netlist = _die(family, gates)
    place_die(netlist)
    stitch_scan_chains(netlist)
    problem = build_problem(netlist, already_prepared=True)
    problem = problem.retime(tight_clock_for(problem))
    config = WcmConfig.ours(Scenario.performance_optimized(
        problem.timing.constraint.period_ps))
    return problem, config


@pytest.mark.parametrize("family,gates", CELLS,
                         ids=[f"{f}-g{g}" for f, g in CELLS])
def test_scaling_generate(benchmark, family, gates):
    netlist = benchmark(_die, family, gates)
    benchmark.extra_info["gates"] = gates
    benchmark.extra_info["fingerprint"] = netlist_fingerprint(netlist)


@pytest.mark.parametrize("family,gates", CELLS,
                         ids=[f"{f}-g{g}" for f, g in CELLS])
def test_scaling_sim(benchmark, family, gates):
    circuit = CompiledCircuit(build_prebond_test_view(_die(family,
                                                           gates)))
    rng = DeterministicRng(SEED).child("scale", "patterns")
    words = [rng.getrandbits(_WIDTH) for _ in range(circuit.input_count)]
    values = benchmark(circuit.simulate, words, _MASK)
    benchmark.extra_info["gates"] = gates
    benchmark.extra_info["fingerprint"] = f"{sum(values):x}"


@pytest.mark.parametrize("family", ["grid", "htree"])
def test_scaling_graph(benchmark, family):
    """Both sharing graphs at the 10^4 decade, ours/tight, each with a
    fresh timing model and estimator per round, as ``repro scale``
    times its graph phase."""
    problem, config = _tight_problem(family, 10000)
    ffs = list(problem.scan_ffs)

    def graphs():
        return {kind.name: build_wcm_graph(
            problem, kind, ffs, config,
            timing_model=ReuseTimingModel(problem, config),
            estimator=OverlapTestabilityEstimator(problem))
                for kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND)}

    graph_by_kind = benchmark(graphs)
    benchmark.extra_info["gates"] = 10000
    benchmark.extra_info["fingerprint"] = fingerprint(
        {name: graph.stats for name, graph in graph_by_kind.items()})


def test_bench_graph_setup(benchmark):
    """The sharing graph's per-die set-up on the 10^4 grid die, cold:
    each round compiles the gate graph and computes both kinds' cone
    bitsets from an empty cache, then counts one estimator's fault
    universe, as the first flow over a fresh problem does.
    ``test_scaling_graph`` does not time this: its rounds reuse the
    bitsets its problem cached in round 1."""
    problem, _config = _tight_problem("grid", 10000)
    nodes = {kind: list(problem.scan_ffs) + problem.tsvs_of_kind(kind)
             for kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND)}

    def setup():
        problem.cone_bitset_cache.clear()
        bitsets = {kind.name: _cone_bitsets(problem, names, kind)
                   for kind, names in nodes.items()}
        return bitsets, OverlapTestabilityEstimator(problem).universe_size()

    bitsets, universe = benchmark(setup)
    benchmark.extra_info["gates"] = 10000
    benchmark.extra_info["fingerprint"] = fingerprint({
        "universe": universe,
        "cone_gates": {name: sum(bin(bits).count("1")
                                 for bits in by_node.values())
                       for name, by_node in bitsets.items()}})


@pytest.mark.parametrize("family", ["grid", "htree"])
def test_scaling_flow(benchmark, family):
    """Full WCM flow at the 10^3 decade only — the flow-capped end."""
    problem, config = _tight_problem(family, 1000)
    result = benchmark(run_wcm_flow, problem, config)
    from repro.core.session import result_fingerprint

    benchmark.extra_info["gates"] = 1000
    benchmark.extra_info["fingerprint"] = result_fingerprint(result)
