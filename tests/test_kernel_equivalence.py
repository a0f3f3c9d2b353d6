"""Equivalence of the kernelized hot loops with their reference forms.

Three kernels were specialized for speed (DESIGN.md §6): the op-tape
block simulator, the reusable STA context, and the sharing-graph
sweep with its pair-log replay. Each must be *byte-identical* to a
straightforward reference — the truth-table simulation and O(n^2)
graph oracles of :mod:`repro.verify.oracles`, a fresh STA context, a
build without a log — and these tests pin that down on random circuits
and on a real die.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.faults import build_fault_list, count_faults
from repro.atpg.sim import BlockDetector, CompiledCircuit
from repro.bench.families import FAMILIES
from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.config import Scenario, WcmConfig
from repro.core.graph import (
    PairLog,
    _cone_bitsets,
    build_wcm_graph,
    effective_d_th,
)
from repro.core.problem import build_problem, tight_clock_for
from repro.core.testability import (
    OverlapTestabilityEstimator,
    build_ideal_wrapped_view,
)
from repro.core.timing_model import ReuseTimingModel
from repro.dft.cones import ConeAnalysis
from repro.dft.scan import stitch_scan_chains
from repro.dft.testview import build_prebond_test_view
from repro.netlist.core import PortKind
from repro.place.placer import place_die
from repro.runtime import trace
from repro.sta.constraints import ClockConstraint
from repro.sta.timer import TimingContext, default_case
from repro.util.rng import DeterministicRng
from repro.verify.instances import InstanceSpec
from repro.verify.oracles import oracle_build_graph, oracle_simulate

from tests.test_properties import random_circuit

_WIDTH = 64
_MASK = (1 << _WIDTH) - 1
_CLOCK = ClockConstraint(period_ps=900.0)
_KINDS = (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND)

pytestmark = pytest.mark.usefixtures("kernel")


def _view(seed: int, n_gates: int = 30, n_inputs: int = 5):
    return build_prebond_test_view(random_circuit(seed, n_gates, n_inputs))


def _compiled(seed: int, n_gates: int = 30, n_inputs: int = 5):
    return CompiledCircuit(_view(seed, n_gates, n_inputs))


def _assert_matches_oracle(circuit, view, values, words):
    """Every net's simulated word equals the truth-table oracle's."""
    oracle = oracle_simulate(view, words, _MASK)
    assert {name: values[circuit.net_ids[name]] for name in oracle} \
        == oracle


# ---------------------------------------------------------------------------
# Op-tape block simulator vs the truth-table simulation oracle
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_tape_matches_reference_interpreter(seed):
    view = _view(seed)
    circuit = CompiledCircuit(view)
    rng = DeterministicRng(seed)
    words = [rng.getrandbits(_WIDTH) for _ in range(circuit.input_count)]
    _assert_matches_oracle(circuit, view, circuit.simulate(words, _MASK),
                           words)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_tape_buffer_reuse_is_transparent(seed):
    """Reusing one values buffer across blocks changes nothing."""
    view = _view(seed)
    circuit = CompiledCircuit(view)
    rng = DeterministicRng(seed)
    buffer = circuit.make_buffer()
    for _ in range(3):
        words = [rng.getrandbits(_WIDTH) for _ in range(circuit.input_count)]
        reused = circuit.simulate(words, _MASK, out=buffer)
        assert reused is buffer
        _assert_matches_oracle(circuit, view, reused, words)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_event_propagation_matches_full_resimulation(seed):
    """Block stem detection == brute-force faulty resim, for every
    gate output, both polarities, from one detector per block."""
    circuit = _compiled(seed)
    rng = DeterministicRng(seed)
    words = [rng.getrandbits(_WIDTH) for _ in range(circuit.input_count)]
    good = circuit.simulate(words, _MASK)
    detector = BlockDetector(circuit, good, _MASK)
    observed = circuit.observed

    for gate in circuit.gates:
        stem = gate.out
        for value in (0, 1):
            forced = _MASK if value else 0
            # Brute force: re-evaluate the whole circuit with the stem
            # pinned to the fault value.
            faulty = list(good)
            faulty[stem] = forced
            for g in circuit.gates:
                if g.out == stem:
                    continue
                faulty[g.out] = g.op([faulty[i] for i in g.ins], _MASK)
            expected = 0
            for nid in observed:
                expected |= (faulty[nid] ^ good[nid])
            expected &= _MASK
            if forced == (good[stem] & _MASK):
                expected = 0  # never activated
            assert detector.stem(stem, value) == expected


# ---------------------------------------------------------------------------
# Reusable STA context vs a fresh context per call
# ---------------------------------------------------------------------------
def _results_equal(a, b):
    assert a.arrival_ps == b.arrival_ps
    assert a.required_ps == b.required_ps
    assert a.net_load_ff == b.net_load_ff
    assert a.critical_path_ps == b.critical_path_ps
    assert a.port_slack_ps == b.port_slack_ps
    assert [(e.kind, e.name, e.arrival_ps, e.required_ps)
            for e in a.endpoints] \
        == [(e.kind, e.name, e.arrival_ps, e.required_ps)
            for e in b.endpoints]


def test_context_reuse_matches_fresh_analyzer(medium_die):
    context = TimingContext(medium_die)
    for test_mode in (0, 1, 0, 1):  # repeated calls over one context
        case = default_case(medium_die, test_mode=test_mode)
        reused = context.analyze(_CLOCK, case=case)
        fresh = TimingContext(medium_die).analyze(_CLOCK, case=case)
        _results_equal(reused, fresh)


def test_context_invalidate_nets_tracks_in_place_moves():
    # A private die: this test moves an instance in place.
    die = generate_die(die_profile("b11", 0), seed=2019)
    place_die(die)
    stitch_scan_chains(die)
    context = TimingContext(die)
    context.analyze(_CLOCK)  # force preparation

    # Move a combinational instance; every net on its pins changes
    # either its wire delays (as a sink) or its load (as a driver).
    inst = next(i for i in die.instances.values()
                if i.output_net() is not None)
    inst.x += 37.0
    inst.y += 11.0
    context.invalidate_nets(set(inst.connections.values()))

    reused = context.analyze(_CLOCK)
    fresh = TimingContext(die).analyze(_CLOCK)
    _results_equal(reused, fresh)


def test_context_full_invalidation(medium_die):
    context = TimingContext(medium_die)
    before = context.analyze(_CLOCK)
    context.invalidate()
    _results_equal(before, context.analyze(_CLOCK))


# ---------------------------------------------------------------------------
# Sharing-graph sweep vs the brute-force O(n^2) oracle
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def timed_problem(medium_die):
    problem = build_problem(medium_die, already_prepared=True)
    return problem.retime(tight_clock_for(problem))


@pytest.mark.parametrize("kind", [PortKind.TSV_INBOUND,
                                  PortKind.TSV_OUTBOUND])
@pytest.mark.parametrize("d_th_fraction", [0.05, 0.15, 0.4, 1.0])
def test_grid_sweep_matches_brute_force(timed_problem, kind, d_th_fraction):
    """The sweep equals the oracle at distance limits from 5 % to 100 %
    of the die's half-perimeter (the name is from the spatial hash the
    sweep no longer has)."""
    period = timed_problem.timing.constraint.period_ps
    scenario = Scenario.performance_optimized(period)
    config = dataclasses.replace(WcmConfig.ours(scenario),
                                 d_th_fraction=d_th_fraction,
                                 d_th_um=math.inf)
    ffs = timed_problem.scan_ffs
    grid = build_wcm_graph(timed_problem, kind, ffs, config)
    brute = oracle_build_graph(timed_problem, kind, ffs, config)
    assert grid.adjacency == brute.adjacency
    assert grid.stats == brute.stats
    assert grid.nodes == brute.nodes
    assert grid.excluded_tsvs == brute.excluded_tsvs


def test_grid_sweep_zero_threshold_rejects_all_pairs(timed_problem):
    """``d_th = 0`` rejects every pair on distance, as in the oracle."""
    period = timed_problem.timing.constraint.period_ps
    config = dataclasses.replace(
        WcmConfig.ours(Scenario.performance_optimized(period)),
        d_th_fraction=None, d_th_um=0.0)
    ffs = timed_problem.scan_ffs
    grid = build_wcm_graph(timed_problem, PortKind.TSV_INBOUND, ffs, config)
    brute = oracle_build_graph(timed_problem, PortKind.TSV_INBOUND, ffs,
                               config)
    assert grid.stats == brute.stats
    assert grid.stats.edges == 0


@settings(max_examples=25, deadline=None)
@given(spec=st.builds(InstanceSpec,
                      seed=st.integers(min_value=0, max_value=10**6),
                      gates=st.integers(min_value=20, max_value=80),
                      ffs=st.integers(min_value=1, max_value=8),
                      tsv_in=st.integers(min_value=0, max_value=6),
                      tsv_out=st.integers(min_value=0, max_value=6),
                      family=st.sampled_from(("itc99",) + FAMILIES),
                      # cones and fault universes ignore the clock
                      scenario=st.just("area")))
def test_cone_bitsets_and_universe_count_match_their_oracles(spec):
    """On generated stitched dies, for both kinds and every FF and TSV
    node: each compiled cone bitset holds as many gates as
    ``ConeAnalysis.gate_cone``, and every pair's AND is empty exactly
    when ``ConeAnalysis.overlap`` is, with its popcount as the overlap's
    size. The counted fault universe equals the listed one on the ideal
    wrapped view and on the pre-bond view, whose inbound TSV nets are
    X sources."""
    problem = spec.build_problem()
    cones = ConeAnalysis(problem.netlist)
    for kind in _KINDS:
        names = list(problem.scan_ffs) + problem.tsvs_of_kind(kind)
        bits = _cone_bitsets(problem, names, kind)
        for name in names:
            assert bin(bits[name]).count("1") \
                == len(cones.gate_cone(name, kind))
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                shared = bits[a] & bits[b]
                overlap = cones.overlap(a, b, kind)
                assert bool(shared) == bool(overlap)
                assert bin(shared).count("1") == len(overlap)
    for view in (build_ideal_wrapped_view(problem.netlist),
                 build_prebond_test_view(problem.netlist)):
        assert count_faults(view) == build_fault_list(view).total
    assert build_prebond_test_view(problem.netlist).x_nets \
        or not problem.inbound_tsvs


# ---------------------------------------------------------------------------
# Pair-log replay vs a build without a log
# ---------------------------------------------------------------------------
def _tight_config(problem, d_th_fraction=0.4):
    period = problem.timing.constraint.period_ps
    return dataclasses.replace(
        WcmConfig.ours(Scenario.performance_optimized(period)),
        d_th_fraction=d_th_fraction, d_th_um=math.inf)


def _assert_same_graph(got, want):
    assert got.nodes == want.nodes
    assert got.adjacency == want.adjacency
    assert got.stats == want.stats
    assert got.excluded_tsvs == want.excluded_tsvs


@pytest.mark.parametrize("kind", [PortKind.TSV_INBOUND,
                                  PortKind.TSV_OUTBOUND])
def test_pair_log_refills_for_a_shorter_ff_list(timed_problem, kind):
    """A log filled for one FF list no longer matches a shorter one, so
    the build sweeps every pair again and refills the log."""
    config = _tight_config(timed_problem)
    estimator = OverlapTestabilityEstimator(timed_problem)
    ffs = list(timed_problem.scan_ffs)
    log = PairLog()
    build_wcm_graph(timed_problem, kind, ffs, config, estimator=estimator,
                    pair_log=log)
    with trace.collect() as collected:
        got = build_wcm_graph(timed_problem, kind, ffs[1:], config,
                              estimator=estimator, pair_log=log)
    assert "session.graph_replays" not in collected.metrics.counters
    assert log.ffs == ffs[1:]
    assert len(log.rows) == got.stats.tsv_nodes + got.stats.ff_nodes
    assert sum(len(dists) for dists, _outcomes in log.rows) == (
        got.stats.tsv_nodes * (got.stats.tsv_nodes - 1) // 2
        + got.stats.ff_nodes * got.stats.tsv_nodes)
    _assert_same_graph(got, build_wcm_graph(timed_problem, kind, ffs[1:],
                                            config, estimator=estimator))


def test_pair_log_replays_moved_nodes(medium_die):
    """A replay that re-evaluates the moved nodes' pairs equals a fresh
    build; one that keeps their logged outcomes does not."""
    problem = build_problem(medium_die.clone(), already_prepared=True)
    problem = problem.retime(tight_clock_for(problem))
    config = _tight_config(problem)
    estimator = OverlapTestabilityEstimator(problem)
    kind = PortKind.TSV_INBOUND
    ffs = list(problem.scan_ffs)
    log = PairLog()
    build_wcm_graph(problem, kind, ffs, config, estimator=estimator,
                    pair_log=log)
    stale_log = PairLog(ffs=list(log.ffs), tsvs=list(log.tsvs),
                        rows=[(list(dists), list(outcomes))
                              for dists, outcomes in log.rows])
    ff = problem.netlist.instances[ffs[0]]
    tsv = problem.netlist.ports[log.tsvs[0]]
    tsv.x, tsv.y = ff.x, ff.y
    ff.x += 10.0 * effective_d_th(problem, config)
    with trace.collect() as collected:
        replay = build_wcm_graph(problem, kind, ffs, config,
                                 estimator=estimator, pair_log=log,
                                 dirty={ff.name, tsv.name})
    assert collected.metrics.counters["session.graph_replays"] == 1
    fresh = build_wcm_graph(problem, kind, ffs, config, estimator=estimator)
    _assert_same_graph(replay, fresh)
    stale = build_wcm_graph(problem, kind, ffs, config, estimator=estimator,
                            pair_log=stale_log)
    assert stale.stats != fresh.stats


def _graph_fingerprint(graph, collected):
    """Everything a build hands on: nodes, stats, each adjacency set in
    its iteration order, and the coverage-drop observations."""
    drops = collected.metrics.histograms.get("graph.coverage_drop")
    return (graph.nodes, graph.excluded_tsvs, graph.stats,
            [list(graph.adjacency[name]) for name in graph.nodes],
            drops.to_payload() if drops is not None else None)


def _traced_build(problem, kind, config, estimator, **log_args):
    with trace.collect() as collected:
        graph = build_wcm_graph(problem, kind, list(problem.scan_ffs),
                                config, ReuseTimingModel(problem, config),
                                estimator, **log_args)
    return _graph_fingerprint(graph, collected)


_MOVE = st.tuples(st.integers(min_value=0, max_value=10**6),
                  st.integers(min_value=-60, max_value=60),
                  st.integers(min_value=-60, max_value=60))


@settings(max_examples=30, deadline=None)
@given(spec=st.builds(InstanceSpec,
                      seed=st.integers(min_value=0, max_value=10**6),
                      gates=st.integers(min_value=20, max_value=60),
                      ffs=st.integers(min_value=2, max_value=8),
                      tsv_in=st.integers(min_value=2, max_value=8),
                      tsv_out=st.integers(min_value=2, max_value=8),
                      method=st.sampled_from(["ours", "agrawal"]),
                      coincident=st.booleans()),
       cap_scale=st.sampled_from([0.3, 0.6, 1.0]),
       s_th_scale=st.sampled_from([0.0, 0.2, 0.4]),
       d_th_fraction=st.sampled_from([0.2, 0.5, 0.8]),
       retuned_fraction=st.sampled_from([0.1, 0.4, 1.0]),
       moves=st.lists(_MOVE, min_size=1, max_size=4))
def test_row_sweep_matches_oracle_and_replays(spec, cap_scale, s_th_scale,
                                              d_th_fraction,
                                              retuned_fraction, moves):
    """On generated dies, both methods, under tightened ``cap_th`` and
    ``s_th`` and a distance limit: a cold build equals
    ``oracle_build_graph``, and a pair-log replay after random FF and
    TSV moves and a ``d_th`` re-tune, with the moved nodes dirty,
    equals a cold build of the moved die under the new ``d_th``."""
    problem = spec.build_problem()
    period = problem.timing.constraint.period_ps
    default = Scenario.performance_optimized(period)
    scenario = Scenario.performance_optimized(
        period, cap_th_ff=cap_scale * default.cap_th_ff,
        s_th_ps=s_th_scale * period)
    config = dataclasses.replace(
        getattr(WcmConfig, spec.method)(scenario),
        d_th_fraction=d_th_fraction, d_th_um=math.inf)

    def estimator():
        return (OverlapTestabilityEstimator(problem)
                if config.allow_overlap else None)

    ffs = list(problem.scan_ffs)
    shared = estimator()
    logs = {kind: PairLog() for kind in _KINDS}
    for kind in _KINDS:
        cold = build_wcm_graph(problem, kind, ffs, config,
                               estimator=shared)
        _assert_same_graph(cold, oracle_build_graph(
            problem, kind, ffs, config,
            timing_model=ReuseTimingModel(problem, config),
            estimator=estimator()))
        assert _traced_build(problem, kind, config, shared,
                             pair_log=logs[kind]) \
            == _traced_build(problem, kind, config, shared)

    # Move FFs and TSVs of both kinds. A moved sink also changes the
    # model load of the inbound TSVs that drive it, so those are dirty
    # too, as the session's node signatures make them.
    def loads():
        model = ReuseTimingModel(problem, config)
        return {tsv: model.model_load_ff(tsv)
                for tsv in problem.inbound_tsvs}

    before = loads()
    netlist = problem.netlist
    movable = ffs + problem.inbound_tsvs + problem.outbound_tsvs
    moved = set()
    for pick, dx, dy in moves:
        name = movable[pick % len(movable)]
        node = netlist.instances.get(name) or netlist.ports[name]
        node.x += dx
        node.y += dy
        moved.add(name)
    after = loads()
    dirty = moved | {tsv for tsv in after if after[tsv] != before[tsv]}

    retuned = dataclasses.replace(config, d_th_fraction=retuned_fraction)
    for kind in _KINDS:
        assert _traced_build(problem, kind, retuned, shared,
                             pair_log=logs[kind], dirty=dirty) \
            == _traced_build(problem, kind, retuned, shared)
