"""Cross-cutting property-based tests on randomly built circuits."""

from hypothesis import given, settings, strategies as st

from repro.atpg.engine import AtpgConfig
from repro.atpg.sim import CompiledCircuit
from repro.dft.testview import build_prebond_test_view
from repro.netlist.builder import NetlistBuilder
from repro.netlist.topology import topological_instances
from repro.netlist.validate import validate_netlist
from repro.util.rng import DeterministicRng
from repro.verify.instances import InstanceSpec

_CELLS = [("INV_X1", 1), ("BUF_X1", 1), ("NAND2_X1", 2), ("NOR2_X1", 2),
          ("AND2_X1", 2), ("OR2_X1", 2), ("XOR2_X1", 2), ("XNOR2_X1", 2),
          ("NAND3_X1", 3), ("AOI21_X1", 3), ("OAI21_X1", 3),
          ("MUX2_X1", 3)]


def random_circuit(seed: int, n_gates: int, n_inputs: int):
    """A random acyclic circuit over the full cell set."""
    rng = DeterministicRng(seed)
    builder = NetlistBuilder(f"rand{seed}")
    signals = [builder.add_input(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_gates):
        cell, arity = rng.choice(_CELLS)
        ins = [rng.choice(signals)]
        while len(ins) < arity:
            candidate = rng.choice(signals)
            if candidate not in ins or len(signals) < arity:
                ins.append(candidate)
        signals.append(builder.add_gate(cell, ins[:arity]))
    builder.add_output("po", signals[-1])
    # observe a few mid signals so not everything is dead
    for j, net in enumerate(signals[n_inputs::3]):
        builder.add_output(f"obs{j}", net)
    return builder.finish()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n_gates=st.integers(min_value=3, max_value=40),
       n_inputs=st.integers(min_value=2, max_value=6))
def test_random_circuits_validate_and_levelize(seed, n_gates, n_inputs):
    netlist = random_circuit(seed, n_gates, n_inputs)
    validate_netlist(netlist)
    assert len(topological_instances(netlist)) == n_gates


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_packed_simulation_agrees_with_per_pattern(seed):
    """Simulating W patterns packed equals W single-pattern runs."""
    netlist = random_circuit(seed, 20, 4)
    view = build_prebond_test_view(netlist)
    circuit = CompiledCircuit(view)
    rng = DeterministicRng(seed)
    width = 16
    mask = (1 << width) - 1
    words = [rng.getrandbits(width) for _ in range(circuit.input_count)]
    packed = circuit.simulate(words, mask)
    for k in (0, width // 2, width - 1):
        singles = [(w >> k) & 1 for w in words]
        single = circuit.simulate(singles, 1)
        for nid in circuit.observe_ids:
            assert (packed[nid] >> k) & 1 == single[nid]


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_atpg_replay_invariant(seed):
    """Coverage claims replay: re-simulating the emitted pattern set
    detects at least 98% of what the engine reported detected."""
    from repro.atpg.engine import AtpgEngine, _patterns_to_words

    netlist = random_circuit(seed, 30, 5)
    view = build_prebond_test_view(netlist)
    engine = AtpgEngine(view, AtpgConfig(
        seed=seed, block_width=32, max_random_blocks=4,
        podem_fault_limit=100))
    result = engine.run()
    if not result.patterns:
        return
    words = _patterns_to_words(result.patterns, engine.circuit.input_count)
    mask = (1 << len(result.patterns)) - 1
    good = engine.circuit.simulate(words, mask)
    replayed = sum(
        1 for i in range(len(engine.fault_list.faults))
        if engine.dispatcher.detect_word(engine.circuit, good, i, mask))
    assert replayed >= result.detected * 0.98


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_sta_arrival_monotone_under_period_change(seed):
    """Arrivals are constraint-independent; only slacks change."""
    from repro.sta.constraints import ClockConstraint
    from repro.sta.timer import TimingContext

    netlist = random_circuit(seed, 25, 4)
    timer = TimingContext(netlist)
    loose = timer.analyze(ClockConstraint(period_ps=10000.0))
    tight = timer.analyze(ClockConstraint(period_ps=100.0))
    assert loose.arrival_ps == tight.arrival_ps
    assert loose.worst_slack_ps > tight.worst_slack_ps


# ---------------------------------------------------------------------------
# Verification-instance properties: the fuzz generator's subjects obey
# the structural invariants the differential checks assume.
# ---------------------------------------------------------------------------
_instance_specs = st.builds(
    InstanceSpec,
    seed=st.integers(min_value=0, max_value=10**6),
    gates=st.integers(min_value=12, max_value=30),
    ffs=st.integers(min_value=1, max_value=5),
    tsv_in=st.integers(min_value=0, max_value=5),
    tsv_out=st.integers(min_value=0, max_value=5),
    scenario=st.sampled_from(["tight", "area"]),
    method=st.sampled_from(["ours", "agrawal"]),
    coincident=st.booleans(),
)


@settings(max_examples=8, deadline=None)
@given(spec=_instance_specs)
def test_instance_graph_symmetric_and_partition_valid(spec):
    """On any generated instance: the sharing graph's adjacency is
    symmetric and self-loop-free, and the heuristic partition is a
    disjoint clique cover obeying the group-size cap."""
    from repro.core.clique import partition_cliques
    from repro.core.timing_model import ReuseTimingModel
    from repro.netlist.core import PortKind
    from repro.verify.checks import Subject
    from repro.verify.oracles import partition_violations

    subject = Subject(spec)
    for kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND):
        graph = subject.kernel_graph(kind)
        for name, neighbours in graph.adjacency.items():
            assert name not in neighbours
            for other in neighbours:
                assert name in graph.adjacency[other], (name, other)
        partition = partition_cliques(
            graph, ReuseTimingModel(subject.problem, subject.config))
        assert not partition_violations(graph, partition,
                                        subject.config.max_group_size)


@settings(max_examples=6, deadline=None)
@given(spec=_instance_specs)
def test_instance_sta_monotone_under_tsv_load_increase(spec):
    """Doubling the outbound-TSV load model can only push arrivals
    later, pointwise, on the generated die."""
    from repro.sta.constraints import UNCONSTRAINED
    from repro.sta.timer import TimingContext

    netlist = spec.build_netlist()
    light = TimingContext(netlist, tsv_cap_ff=15.0).analyze(UNCONSTRAINED)
    heavy = TimingContext(netlist, tsv_cap_ff=30.0).analyze(UNCONSTRAINED)
    assert set(light.arrival_ps) == set(heavy.arrival_ps)
    for net, arrival in light.arrival_ps.items():
        assert heavy.arrival_ps[net] >= arrival, net
    assert heavy.critical_path_ps >= light.critical_path_ps


# ---------------------------------------------------------------------------
# Compiled timing graph: case maps that pin internal nets
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(spec=_instance_specs,
       case_seed=st.integers(min_value=0, max_value=10**6),
       test_mode=st.sampled_from([None, 0, 1]),
       mover=st.integers(min_value=0, max_value=10**6),
       dx=st.integers(min_value=-60, max_value=60),
       dy=st.integers(min_value=-60, max_value=60))
def test_compiled_sta_matches_oracle_under_pinned_cases(spec, case_seed,
                                                        test_mode, mover,
                                                        dx, dy):
    """On a generated wrapped die under a case map that pins internal
    nets (constants several levels deep, gate values overriding case
    entries), ``TimingContext.analyze`` equals the path-enumeration
    oracle, and ``analyze_delta`` after a random move equals a fresh
    context."""
    from repro.sta.timer import TimingContext, default_case
    from repro.verify.checks import _compare_timing, pinned_case
    from repro.verify.oracles import oracle_sta

    problem = spec.build_problem()
    netlist = problem.dedicated_netlist
    clock = problem.timing.constraint
    case = (default_case(netlist, test_mode=test_mode)
            if test_mode is not None else {})
    case.update(pinned_case(netlist, case_seed))
    context = TimingContext(netlist)
    previous = context.analyze(clock, case=case)
    assert _compare_timing("analyze", previous,
                           oracle_sta(netlist, clock, case=case)) == []

    instances = list(netlist.instances.values())
    moved = instances[mover % len(instances)]
    moved.x += dx
    moved.y += dy
    dirty = sorted(set(moved.connections.values()))
    context.invalidate_nets(dirty)
    delta = context.analyze_delta(clock, case=case, previous=previous,
                                  dirty_nets=dirty)
    fresh = TimingContext(netlist).analyze(clock, case=case)
    assert _compare_timing("analyze_delta", delta, fresh) == []


# ---------------------------------------------------------------------------
# Observability layer: rollups and report merges under reordering
# ---------------------------------------------------------------------------
_METRIC_OP = st.tuples(
    st.sampled_from(["inc", "observe", "gauge"]),
    st.sampled_from(["clique.size", "work.items", "x.generic"]),
    st.integers(min_value=-1000, max_value=1000),
)


def _apply_ops(registry, ops):
    for kind, name, value in ops:
        if kind == "inc":
            registry.inc(name, value)
        elif kind == "observe":
            registry.observe(name, value)
        else:
            registry.set_gauge(name, value)


@settings(max_examples=20, deadline=None)
@given(ops=st.lists(_METRIC_OP, max_size=60),
       cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
       order_seed=st.integers(min_value=0, max_value=10**6))
def test_metric_rollup_order_independent(ops, cuts, order_seed):
    """Partitioning ops across registries and merging in any order —
    the supervised-sweep completion-order situation — rolls up identically
    to a serial registry (integer values, so sums are exact)."""
    from repro.runtime.trace import MetricsRegistry

    serial = MetricsRegistry()
    _apply_ops(serial, ops)

    bounds = sorted({min(c, len(ops)) for c in cuts} | {0, len(ops)})
    chunks = [ops[a:b] for a, b in zip(bounds, bounds[1:])] or [ops]
    parts = []
    for chunk in chunks:
        registry = MetricsRegistry()
        _apply_ops(registry, chunk)
        parts.append(registry)
    DeterministicRng(order_seed).shuffle(parts)

    merged = MetricsRegistry()
    for part in parts:
        merged.merge_payload(part.to_payload())  # worker ship-back path
    assert merged.to_payload() == serial.to_payload()
    assert merged.rollup(volatile=False) == serial.rollup(volatile=False)

