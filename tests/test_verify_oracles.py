"""Oracle-vs-kernel byte identity on the repo's own fixtures.

The fuzzer exercises the oracles on synthetic instances; these tests
pin them against the same fixture circuits the rest of the suite
trusts (the ITC'99-profiled dies and the hand-built tiny netlist), so
a drifting oracle fails here even if the fuzzer stream happens to
dodge it.
"""

import pytest

from repro.atpg.engine import _FaultDispatcher
from repro.atpg.faults import build_fault_list
from repro.atpg.sim import CompiledCircuit
from repro.core.config import Scenario, WcmConfig
from repro.core.clique import partition_cliques
from repro.core.graph import build_wcm_graph
from repro.core.problem import tight_clock_for
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.dft.testview import build_prebond_test_view
from repro.netlist.core import PortKind
from repro.sta.constraints import UNCONSTRAINED
from repro.sta.timer import TimingContext, default_case
from repro.util.rng import DeterministicRng
from repro.verify.checks import _compare_graph, _compare_timing
from repro.verify.oracles import (
    exact_min_clique_partition,
    exhaustive_input_words,
    oracle_build_graph,
    oracle_detect_word,
    oracle_simulate,
    oracle_sta,
    partition_violations,
)

_TSV_KINDS = (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND)


@pytest.fixture(scope="module")
def tight_small(small_problem):
    """(retimed problem, ours/tight config) for the b11 fixture die."""
    clock = tight_clock_for(small_problem)
    problem = small_problem.retime(clock)
    scenario = Scenario.performance_optimized(clock.period_ps)
    return problem, WcmConfig.ours(scenario)


# ---------------------------------------------------------------------------
# STA
# ---------------------------------------------------------------------------
def test_oracle_sta_matches_problem_baselines(small_problem):
    """The path-enumeration oracle reproduces the problem's stored
    functional and test-mode analyses byte for byte."""
    wrapped = small_problem.dedicated_netlist
    clock = small_problem.timing.constraint
    assert not _compare_timing(
        "functional", small_problem.timing,
        oracle_sta(wrapped, clock,
                   case=default_case(wrapped, test_mode=0)))
    assert not _compare_timing(
        "test", small_problem.test_timing,
        oracle_sta(wrapped, clock,
                   case=default_case(wrapped, test_mode=1)))


def test_oracle_sta_matches_timer_unconstrained(tiny_netlist):
    kernel = TimingContext(tiny_netlist).analyze(UNCONSTRAINED)
    assert not _compare_timing("tiny", kernel,
                               oracle_sta(tiny_netlist, UNCONSTRAINED))


def test_oracle_sta_tsv_cap_monotone(tiny_netlist):
    """Doubling the outbound-TSV load never decreases any arrival —
    the property the fuzzer's monotonicity check relies on."""
    light = oracle_sta(tiny_netlist, UNCONSTRAINED, tsv_cap_ff=15.0)
    heavy = oracle_sta(tiny_netlist, UNCONSTRAINED, tsv_cap_ff=30.0)
    assert set(light.arrival_ps) == set(heavy.arrival_ps)
    assert all(heavy.arrival_ps[n] >= light.arrival_ps[n]
               for n in light.arrival_ps)
    assert any(heavy.arrival_ps[n] > light.arrival_ps[n]
               for n in light.arrival_ps)


# ---------------------------------------------------------------------------
# Simulation and fault detection
# ---------------------------------------------------------------------------
def test_oracle_simulate_tiny_exhaustive(tiny_netlist):
    view = build_prebond_test_view(tiny_netlist)
    circuit = CompiledCircuit(view)
    words, mask = exhaustive_input_words(circuit.input_count)
    kernel = circuit.simulate(words, mask)
    oracle = oracle_simulate(view, words, mask)
    for name, word in oracle.items():
        assert kernel[circuit.net_ids[name]] == word, name


def test_oracle_simulate_small_view_random(small_test_view):
    circuit = CompiledCircuit(small_test_view)
    rng = DeterministicRng(2019).child("verify", "oracle-sim")
    mask = (1 << 64) - 1
    words = [rng.getrandbits(64) for _ in range(circuit.input_count)]
    kernel = circuit.simulate(words, mask)
    oracle = oracle_simulate(small_test_view, words, mask)
    for name, word in oracle.items():
        assert kernel[circuit.net_ids[name]] == word, name


def test_oracle_detects_match_dispatcher_tiny(tiny_netlist):
    """Every collapsed fault, every input pattern: event-driven kernel
    detection equals full forced re-simulation."""
    view = build_prebond_test_view(tiny_netlist)
    circuit = CompiledCircuit(view)
    words, mask = exhaustive_input_words(circuit.input_count)
    faults = build_fault_list(view)
    dispatcher = _FaultDispatcher(circuit, faults.faults)
    good = circuit.simulate(words, mask)
    oracle_good = oracle_simulate(view, words, mask)
    for index, fault in enumerate(faults.faults):
        kernel = dispatcher.detect_word(circuit, good, index, mask)
        oracle = oracle_detect_word(view, fault, words, mask,
                                    good=oracle_good)
        assert kernel == oracle, (fault.kind, fault.net, fault.polarity)


def test_oracle_detects_match_dispatcher_small_sample(small_test_view):
    circuit = CompiledCircuit(small_test_view)
    rng = DeterministicRng(2019).child("verify", "oracle-faults")
    mask = (1 << 32) - 1
    words = [rng.getrandbits(32) for _ in range(circuit.input_count)]
    faults = build_fault_list(small_test_view)
    dispatcher = _FaultDispatcher(circuit, faults.faults)
    good = circuit.simulate(words, mask)
    oracle_good = oracle_simulate(small_test_view, words, mask)
    for index in range(0, len(faults.faults), 7):  # every 7th fault
        fault = faults.faults[index]
        kernel = dispatcher.detect_word(circuit, good, index, mask)
        oracle = oracle_detect_word(small_test_view, fault, words, mask,
                                    good=oracle_good)
        assert kernel == oracle, (fault.kind, fault.net, fault.polarity)


# ---------------------------------------------------------------------------
# Sharing graph and clique partition
# ---------------------------------------------------------------------------
def test_oracle_graph_matches_kernel(tight_small):
    problem, config = tight_small
    ffs = list(problem.scan_ffs)
    for kind in _TSV_KINDS:
        kernel = build_wcm_graph(
            problem, kind, ffs, config,
            timing_model=ReuseTimingModel(problem, config),
            estimator=OverlapTestabilityEstimator(problem))
        oracle = oracle_build_graph(
            problem, kind, ffs, config,
            timing_model=ReuseTimingModel(problem, config),
            estimator=OverlapTestabilityEstimator(problem))
        assert not _compare_graph(kind.name, kernel, oracle)


def test_partition_valid_and_not_below_exact_minimum(tight_small):
    problem, config = tight_small
    ffs = list(problem.scan_ffs)
    for kind in _TSV_KINDS:
        graph = build_wcm_graph(
            problem, kind, ffs, config,
            timing_model=ReuseTimingModel(problem, config),
            estimator=OverlapTestabilityEstimator(problem))
        partition = partition_cliques(
            graph, ReuseTimingModel(problem, config))
        assert not partition_violations(graph, partition,
                                        config.max_group_size)
        exact = exact_min_clique_partition(graph)
        if exact is not None:
            assert len(partition.cliques) >= exact


def test_exact_partition_on_known_graph():
    """A 4-node path graph a-b-c-d has clique cover number exactly 2."""
    from repro.core.graph import GraphStats, WcmGraph

    graph = WcmGraph(
        kind=PortKind.TSV_OUTBOUND,
        nodes=["a", "b", "c", "d"],
        is_ff={n: False for n in "abcd"},
        adjacency={"a": {"b"}, "b": {"a", "c"}, "c": {"b", "d"},
                   "d": {"c"}},
        excluded_tsvs=[],
        stats=GraphStats(nodes=4, ff_nodes=0, tsv_nodes=4,
                         excluded_tsvs=0, edges=3),
    )
    assert exact_min_clique_partition(graph) == 2
