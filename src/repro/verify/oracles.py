"""Independent brute-force oracles for the optimized kernels.

Every oracle recomputes, from the netlist alone, a result one of the
hand-optimized kernels produces incrementally — and must match it
**byte for byte** (identical floats, identical dict contents). The
oracles deliberately share only leaf arithmetic with the kernels (cell
delay/cap lookups, :class:`~repro.sta.delay.WireModel`, the
truth-table source :data:`~repro.netlist.library.LOGIC_FUNCTIONS`);
all *control flow* is independent:

==============================  =====================================
kernel                          oracle strategy
==============================  =====================================
op-tape block simulation        per-pattern truth-table lookup via
(``atpg/sim.py``)               demand-driven recursion (no tape, no
                                topological order, no packing tricks)
block fault detection           full forced re-simulation of the
(fanout-free regions, stem      faulty machine for every fault
propagation; ``atpg/sim.py``)
PODEM test generation           each detected cube replayed through
(``atpg/podem.py``)             the fault oracle under both
                                don't-care fills; each untestable
                                verdict checked over every input
                                pattern (random ones on big circuits)
levelized STA with reusable     path-enumeration: memoized recursion
context (``sta/timer.py``)      over the netlist, all loads and wire
                                delays recomputed from scratch
sharing-graph sweep             O(n^2) sweep over all pairs with
(``core/graph.py``: compiled    per-node cone traversals and
gate-graph cone bitsets,        frozenset cone intersection (no
popcount overlaps) and its      bitsets, no pair log) and every
hoisted timing checks           timing term derived per pair (no
(``core/timing_model.py``)      per-node caches)
fault-universe count            the length of the listed universe,
(``atpg/faults.py``, read by    ``build_fault_list`` of the same
the testability estimator)      ideal wrapped view
heuristic clique partition      exact minimum clique partition by
(``core/clique.py``)            branch-and-bound (small instances) —
                                a lower bound on any valid partition
wrapper insertion               functional equivalence with the bare
(``dft/wrapper.py``)            die at ``test_mode = 0``: packed
                                random simulation of both netlists
                                (on the compiled simulator, which the
                                ``sim`` check holds to the truth
                                table) over their shared controls
==============================  =====================================

Contracts the oracles pin down (and the fuzzer cross-checks):

* float results must be *identical*, not close: sums replicate the
  kernel's operand order (per-net loads accumulate in ``net.sinks``
  order); max/min reductions are order-independent;
* the branch-fault site resolution mirrors the kernel's documented
  choice: when a gate ties one net to several pins, the fault forces
  the first matching pin in cell pin order;
* the STA oracle replicates the kernel's published asymmetries (e.g.
  output-port required times relax without a constant-net check);
* PODEM is checked for soundness, not identity: a cube or verdict is a
  claim the oracle must confirm, and an aborted search claims nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.faults import Fault, FaultKind
from repro.atpg.sim import CompiledCircuit
from repro.core.config import WcmConfig
from repro.core.graph import GraphStats, WcmGraph, effective_d_th
from repro.core.problem import WcmProblem
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import PREDICTION_MARGIN_PS, ReuseTimingModel
from repro.dft.cones import ConeAnalysis
from repro.dft.testview import TestView
from repro.netlist.core import Instance, Netlist, PortDirection, PortKind
from repro.netlist.library import LOGIC_FUNCTIONS
from repro.sta.constraints import ClockConstraint, UNCONSTRAINED
from repro.sta.delay import WireModel
from repro.sta.timer import (
    DEFAULT_TSV_CAP_FF,
    EndpointSlack,
    TimingResult,
    _UNTIMED_PORT_KINDS,
)
from repro.util.errors import TimingError
from repro.util.rng import DeterministicRng

INF = math.inf
_X = 2

#: pins that never carry combinational data
_NON_DATA_PINS = ("CK", "SE", "SI")


# ---------------------------------------------------------------------------
# Truth-table gate evaluation
# ---------------------------------------------------------------------------
_TRUTH_TABLES: Dict[Tuple[str, int], Tuple[int, ...]] = {}


def _truth_table(function: str, arity: int) -> Tuple[int, ...]:
    """All 2^arity single-bit outputs of a logic function, built once
    from the library's reference implementation and then *looked up*
    (index arithmetic, no big-int expressions) at simulation time."""
    table = _TRUTH_TABLES.get((function, arity))
    if table is None:
        fn = LOGIC_FUNCTIONS[function]
        rows = []
        for combo in range(1 << arity):
            bits = [(combo >> position) & 1 for position in range(arity)]
            rows.append(fn(bits, 1) & 1)
        table = tuple(rows)
        _TRUTH_TABLES[(function, arity)] = table
    return table


def _data_input_nets(inst: Instance) -> List[str]:
    """Connected data-input nets in cell pin order (the same pin
    filtering the compiled circuit applies)."""
    return [inst.connections[pin.name] for pin in inst.cell.input_pins
            if pin.name not in _NON_DATA_PINS
            and pin.name in inst.connections]


class _NetEvaluator:
    """Demand-driven single-word netlist evaluator.

    ``override`` maps net names to forced words (fault effects);
    ``pinned`` optionally forces one input pin of one gate. Values are
    memoized per evaluator instance.
    """

    def __init__(self, netlist: Netlist, sources: Dict[str, int],
                 mask: int,
                 override: Optional[Dict[str, int]] = None,
                 pinned: Optional[Tuple[str, str, int]] = None) -> None:
        self.netlist = netlist
        self.sources = sources
        self.mask = mask
        self.override = override or {}
        #: (gate name, net name, forced word) — first matching pin only
        self.pinned = pinned
        self._memo: Dict[str, int] = {}
        self._visiting: Set[str] = set()

    def value(self, net_name: str) -> int:
        memo = self._memo
        cached = memo.get(net_name)
        if cached is not None:
            return cached
        if net_name in self.override:
            word = self.override[net_name]
        else:
            word = self._evaluate_driver(net_name)
        memo[net_name] = word
        return word

    def _evaluate_driver(self, net_name: str) -> int:
        net = self.netlist.nets.get(net_name)
        driven_by_gate = (net is not None and net.driver is not None
                          and not net.driver.is_port
                          and not self.netlist.instance(
                              net.driver.owner_name).is_sequential)
        if not driven_by_gate:
            # Port- or FF-driven / floating nets take their source word
            # (tied to 0 when the view declares none).
            return self.sources.get(net_name, 0)
        # A comb-gate value wins over any source binding on the same
        # net — the kernel's tape writes after the source columns.
        inst = self.netlist.instance(net.driver.owner_name)
        if net_name in self._visiting:
            raise TimingError(
                f"{self.netlist.name}: combinational cycle at {net_name!r}")
        self._visiting.add(net_name)
        input_nets = _data_input_nets(inst)
        words = [self.value(n) for n in input_nets]
        if self.pinned is not None and self.pinned[0] == inst.name:
            for position, n in enumerate(input_nets):
                if n == self.pinned[1]:
                    words[position] = self.pinned[2]
                    break
        self._visiting.discard(net_name)
        table = _truth_table(inst.cell.function, len(words))
        mask = self.mask
        out = 0
        bit = 1
        while bit <= mask:
            index = 0
            for position, word in enumerate(words):
                if word & bit:
                    index |= (1 << position)
            if table[index]:
                out |= bit
            bit <<= 1
        return out


def _view_sources(view: TestView, input_words: Sequence[int], mask: int
                  ) -> Dict[str, int]:
    """Source words per net: controls by column, constants, X ties."""
    sources: Dict[str, int] = {}
    column = 0
    seen: Set[str] = set()
    for net in view.control_nets:
        if net in seen:
            continue
        seen.add(net)
        sources[net] = input_words[column] & mask
        column += 1
    for net, constant in view.constant_nets.items():
        sources[net] = mask if constant else 0
    for net in view.x_nets:
        sources.setdefault(net, 0)
    return sources


def oracle_simulate(view: TestView, input_words: Sequence[int], mask: int
                    ) -> Dict[str, int]:
    """Good-machine values of *every* net, by name.

    Independent of the compiled tape: truth-table lookups and
    demand-driven recursion instead of opcode dispatch over a
    topological order.
    """
    sources = _view_sources(view, input_words, mask)
    evaluator = _NetEvaluator(view.netlist, sources, mask)
    return {name: evaluator.value(name) for name in view.netlist.nets}


# ---------------------------------------------------------------------------
# Fault detection by full forced re-simulation
# ---------------------------------------------------------------------------
def _observed_nets(view: TestView) -> List[str]:
    observed: List[str] = []
    seen: Set[str] = set()
    for _label, net in view.observe_nets:
        if net not in seen:
            seen.add(net)
            observed.append(net)
    return observed


def oracle_detect_word(view: TestView, fault: Fault,
                       input_words: Sequence[int], mask: int,
                       good: Optional[Dict[str, int]] = None) -> int:
    """Detection word of one stuck-at fault: re-simulate the whole
    faulty machine and OR the observed differences. No event queue, no
    cone limiting, no activation shortcuts."""
    if good is None:
        good = oracle_simulate(view, input_words, mask)
    forced = mask if int(fault.polarity) else 0
    if fault.kind is FaultKind.OBS_BRANCH:
        # The faulty branch feeds the observer directly; the rest of
        # the net is healthy, so activation equals detection.
        return (good[fault.net] ^ forced) & mask

    sources = _view_sources(view, input_words, mask)
    if fault.kind is FaultKind.STEM:
        evaluator = _NetEvaluator(view.netlist, sources, mask,
                                  override={fault.net: forced})
    else:  # BRANCH: force the first matching pin of the owning gate
        evaluator = _NetEvaluator(view.netlist, sources, mask,
                                  pinned=(fault.owner, fault.net, forced))
    detect = 0
    for net in _observed_nets(view):
        detect |= (evaluator.value(net) ^ good[net])
    return detect & mask


def exhaustive_input_words(input_count: int) -> Tuple[List[int], int]:
    """All 2^n patterns as packed per-column words (pattern k's value
    for column j is bit k of word j), plus the block mask."""
    patterns = 1 << input_count
    mask = (1 << patterns) - 1
    words = []
    for column in range(input_count):
        word = 0
        for k in range(patterns):
            if (k >> column) & 1:
                word |= (1 << k)
        words.append(word)
    return words, mask


# ---------------------------------------------------------------------------
# Path-enumeration STA
# ---------------------------------------------------------------------------
def oracle_sta(netlist: Netlist, constraint: ClockConstraint = UNCONSTRAINED,
               case: Optional[Dict[str, int]] = None,
               wire_model: Optional[WireModel] = None,
               tsv_cap_ff: float = DEFAULT_TSV_CAP_FF) -> TimingResult:
    """From-scratch STA with no shared context and no levelized sweep.

    Positions, loads, wire delays and gate delays are recomputed here;
    arrivals come from memoized forward recursion, required times from
    memoized backward recursion over net sinks. Matches
    :meth:`repro.sta.timer.TimingContext.analyze` byte for byte,
    including its conventions: per-net loads accumulate in
    ``net.sinks`` order (float sums are order-sensitive), FF D
    endpoints skip untimed nets while output-port required times relax
    unconditionally, and a constant mux select drops the unselected
    data pin.
    """
    wire = wire_model or WireModel()

    # ---- geometry and electrical state, recomputed wholesale ---------
    pos: Dict[str, Tuple[float, float]] = {}
    for inst in netlist.instances.values():
        pos[inst.name] = (inst.x, inst.y)
    for port in netlist.ports.values():
        pos[port.name] = (port.x, port.y)

    def sink_cap(sink) -> float:
        if sink.is_port:
            port = netlist.port(sink.owner_name)
            return tsv_cap_ff if port.kind is PortKind.TSV_OUTBOUND else 2.0
        if sink.pin_name == "SI":
            return 0.0
        return netlist.instance(sink.owner_name).cell.input_cap(sink.pin_name)

    loads: Dict[str, float] = {}
    wire_delays: Dict[Tuple[str, str, str], float] = {}
    for net in netlist.nets.values():
        total = 0.0
        driver_pos = (pos[net.driver.owner_name]
                      if net.driver is not None else None)
        for sink in net.sinks:
            if not sink.is_port and sink.pin_name == "SI":
                continue
            total += sink_cap(sink)
            if driver_pos is not None:
                sink_pos = pos[sink.owner_name]
                length = (abs(driver_pos[0] - sink_pos[0])
                          + abs(driver_pos[1] - sink_pos[1]))
                total += wire.wire_cap_ff(length)
        loads[net.name] = total
        if net.driver is not None:
            dpos = pos[net.driver.owner_name]
            for sink in net.sinks:
                spos = pos[sink.owner_name]
                length = abs(dpos[0] - spos[0]) + abs(dpos[1] - spos[1])
                wire_delays[(net.name, sink.owner_name, sink.pin_name)] = \
                    wire.wire_delay_ps(length, sink_cap(sink))

    gate_delay: Dict[str, float] = {}
    for inst in netlist.instances.values():
        out = inst.output_net()
        if out is not None:
            gate_delay[inst.name] = inst.cell.delay_ps(loads.get(out, 0.0))

    untimed_base = {port.net for port in netlist.ports.values()
                    if port.kind in _UNTIMED_PORT_KINDS
                    and port.net is not None}

    # ---- 3-valued constant propagation, by recursion -----------------
    from repro.atpg.podem import _eval3

    case = case or {}
    consts: Dict[str, int] = {}

    def timed_pairs(inst: Instance) -> List[Tuple[str, str]]:
        return [(p, n) for p, n in inst.input_nets()
                if p not in _NON_DATA_PINS]

    const_memo: Dict[str, int] = {}
    const_visiting: Set[str] = set()

    def const_of(net_name: str) -> int:
        """Final constant value of a net (or _X), replicating the
        kernel's overwrite rule: a gate's non-X output value takes
        precedence over a case entry on the same net."""
        cached = const_memo.get(net_name)
        if cached is not None:
            return cached
        net = netlist.nets.get(net_name)
        value = _X
        if net is not None and net.driver is not None \
                and not net.driver.is_port:
            inst = netlist.instance(net.driver.owner_name)
            if not inst.is_sequential and inst.output_net() == net_name:
                if net_name in const_visiting:
                    raise TimingError(f"{netlist.name}: combinational "
                                      f"cycle at {net_name!r}")
                const_visiting.add(net_name)
                ins = [const_of(n) for _p, n in timed_pairs(inst)]
                const_visiting.discard(net_name)
                value = _eval3(inst.cell.function, ins) if ins else _X
        if value == _X and net_name in case:
            value = case[net_name]
        const_memo[net_name] = value
        return value

    if case:
        for name in netlist.nets:
            if const_of(name) != _X:
                consts[name] = const_memo[name]
        # Sequential Q nets and port-driven nets keep their case value
        # even when no gate drives them (dict(case) seeding).
        for name, value in case.items():
            consts.setdefault(name, value)

    untimed_nets = untimed_base | set(consts)

    def active_input_nets(inst: Instance) -> List[Tuple[str, str]]:
        out_net = inst.output_net()
        if out_net is not None and out_net in consts:
            return []
        pairs = [(p, n) for p, n in timed_pairs(inst)
                 if n not in untimed_nets]
        if inst.cell.function == "mux2":
            s_net = inst.connections.get("S")
            s_val = consts.get(s_net, _X) if s_net else _X
            if s_val == 0:
                pairs = [(p, n) for p, n in pairs if p != "B"]
            elif s_val == 1:
                pairs = [(p, n) for p, n in pairs if p != "A"]
        return pairs

    # ---- forward: arrival by recursion -------------------------------
    arrival: Dict[str, float] = {}
    for port in netlist.ports.values():
        if port.direction is PortDirection.INPUT and port.net is not None \
                and port.kind not in _UNTIMED_PORT_KINDS:
            arrival[port.net] = constraint.input_delay_ps
    ffs = netlist.flip_flops()
    for inst in ffs:
        out = inst.output_net()
        if out is not None:
            arrival[out] = gate_delay[inst.name]

    arrival_done: Set[str] = set(arrival)
    arrival_visiting: Set[str] = set()

    def ensure_arrival(net_name: str) -> None:
        if net_name in arrival_done:
            return
        arrival_done.add(net_name)
        net = netlist.nets.get(net_name)
        if net is None or net.driver is None or net.driver.is_port:
            return
        inst = netlist.instance(net.driver.owner_name)
        if inst.is_sequential or inst.output_net() != net_name \
                or net_name in consts:
            return
        if net_name in arrival_visiting:
            raise TimingError(
                f"{netlist.name}: combinational cycle at {net_name!r}")
        arrival_visiting.add(net_name)
        worst_in = 0.0
        for pin_name, in_net in active_input_nets(inst):
            ensure_arrival(in_net)
            pin_arrival = (arrival.get(in_net, 0.0)
                           + wire_delays.get((in_net, inst.name, pin_name),
                                             0.0))
            worst_in = max(worst_in, pin_arrival)
        arrival_visiting.discard(net_name)
        arrival[net_name] = worst_in + gate_delay[inst.name]

    for inst in netlist.instances.values():
        if inst.is_sequential:
            continue
        out = inst.output_net()
        if out is not None and out not in consts:
            ensure_arrival(out)

    # ---- endpoints ---------------------------------------------------
    period = constraint.period_ps if constraint.is_constrained else INF
    ff_required = period - constraint.setup_ps if period is not INF else INF
    port_required = (period - constraint.output_margin_ps
                     if period is not INF else INF)

    endpoints: List[EndpointSlack] = []
    port_slack: Dict[str, float] = {}
    critical = 0.0

    for inst in ffs:
        net_name = inst.connections.get("D")
        if net_name is None or net_name in untimed_nets:
            continue
        pin_arrival = (arrival.get(net_name, 0.0)
                       + wire_delays.get((net_name, inst.name, "D"), 0.0))
        critical = max(critical, pin_arrival + constraint.setup_ps)
        endpoints.append(EndpointSlack(kind="ff_d", name=inst.name,
                                       arrival_ps=pin_arrival,
                                       required_ps=ff_required))

    for port in netlist.ports.values():
        if port.direction is not PortDirection.OUTPUT or port.net is None \
                or port.net in consts:
            continue
        pin_arrival = (arrival.get(port.net, 0.0)
                       + wire_delays.get((port.net, port.name, ""), 0.0))
        critical = max(critical, pin_arrival + constraint.output_margin_ps)
        endpoint = EndpointSlack(kind="port", name=port.name,
                                 arrival_ps=pin_arrival,
                                 required_ps=port_required)
        endpoints.append(endpoint)
        port_slack[port.name] = endpoint.slack_ps

    # ---- backward: required by recursion over net sinks --------------
    required_memo: Dict[str, float] = {}
    required_visiting: Set[str] = set()

    def required_of(net_name: str) -> float:
        cached = required_memo.get(net_name)
        if cached is not None:
            return cached
        if net_name in required_visiting:
            raise TimingError(
                f"{netlist.name}: combinational cycle at {net_name!r}")
        required_visiting.add(net_name)
        best = INF
        net = netlist.nets.get(net_name)
        for sink in (net.sinks if net is not None else ()):
            if sink.is_port:
                port = netlist.port(sink.owner_name)
                if port.direction is PortDirection.OUTPUT:
                    # The kernel relaxes output ports without a consts
                    # check — replicated deliberately.
                    best = min(best, port_required - wire_delays.get(
                        (net_name, port.name, ""), 0.0))
                continue
            inst = netlist.instance(sink.owner_name)
            if inst.is_sequential:
                if sink.pin_name == "D" and net_name not in untimed_nets:
                    best = min(best, ff_required - wire_delays.get(
                        (net_name, inst.name, "D"), 0.0))
                continue
            out = inst.output_net()
            if out is None or out in consts:
                continue
            if (sink.pin_name, net_name) not in active_input_nets(inst):
                continue
            out_required = required_of(out)
            if out_required is INF:
                continue
            budget = out_required - gate_delay[inst.name]
            best = min(best, budget - wire_delays.get(
                (net_name, inst.name, sink.pin_name), 0.0))
        required_visiting.discard(net_name)
        required_memo[net_name] = best
        return best

    required: Dict[str, float] = {}
    for name in netlist.nets:
        value = required_of(name)
        if value is not INF:
            required[name] = value

    return TimingResult(
        netlist_name=netlist.name,
        constraint=constraint,
        arrival_ps=arrival,
        required_ps=required,
        net_load_ff=dict(loads),
        endpoints=endpoints,
        port_slack_ps=port_slack,
        critical_path_ps=critical,
    )


# ---------------------------------------------------------------------------
# Brute-force O(n^2) sharing graph
# ---------------------------------------------------------------------------
def _oracle_driver_resistance(netlist: Netlist, net_name: str) -> float:
    net = netlist.net(net_name)
    if net.driver is None or net.driver.is_port:
        return 0.0
    return netlist.instance(net.driver.owner_name).cell.drive_resistance


def oracle_pair_feasible(model: ReuseTimingModel, name_a: str, name_b: str,
                         kind: PortKind, a_is_ff: bool) -> bool:
    """Algorithm 1's timing check of one candidate pair (*name_b* is a
    TSV), every term derived for this pair alone.

    This is the per-pair formulation the model's hoisted checks must
    reproduce bit for bit: an FF–TSV pair runs the FF's reuse checks
    against the TSV's singleton state with an empty reuse budget, a
    TSV–TSV pair the share check. It reads only the model's leaf
    primitives (locations, loads, required times, initial states, wire
    terms, timing results) and the library cells, never the model's
    per-node FF and share terms or its shared reuse checks.
    """
    problem = model.problem
    netlist = problem.netlist
    scenario = model.config.scenario
    library = netlist.library
    mux, xor = library.get("MUX2_X1"), library.get("XOR2_X1")
    buf, sdff = library.get("BUF_X2"), library.get("SDFF_X1")
    period = scenario.clock.period_ps
    ff_required = (period - scenario.clock.setup_ps
                   if period is not None else math.inf)

    if kind is PortKind.TSV_INBOUND and not a_is_ff:
        cap_th = scenario.cap_th_ff
        if cap_th is math.inf:
            return True
        coupling = model._wire_cap(model.distance_um(name_a, name_b))
        total = (model.model_load_ff(name_a) + model.model_load_ff(name_b)
                 + 2 * mux.input_cap("B") + coupling)
        return total < cap_th
    if not scenario.is_timed:
        return True

    if not a_is_ff:
        dist = model.distance_um(name_a, name_b)
        worst = 0.0
        for tsv in (name_a, name_b):
            net = netlist.port(tsv).net
            arrival = (model.timing.arrival_ps.get(net, 0.0)
                       + model._wire_delay(dist, xor.input_cap("B"))
                       + 2 * xor.delay_ps(xor.input_cap("A"))
                       + mux.delay_ps(sdff.input_cap("D")))
            worst = max(worst, arrival)
        slack = ff_required - worst
        return slack > scenario.s_th_ps + PREDICTION_MARGIN_PS

    state = model.initial_state(name_b, kind, is_ff=False)
    ff = netlist.instance(name_a)
    fx, fy = problem.location_of(name_a)
    hop = abs(fx - state.anchor[0]) + abs(fy - state.anchor[1])
    if kind is PortKind.TSV_INBOUND:
        q_net = ff.output_net()
        new_cap = 0.0 + buf.input_cap("A")
        delta_delay = ff.cell.drive_resistance * new_cap
        if model.timing.slack_of_net(q_net) \
                < delta_delay + PREDICTION_MARGIN_PS:
            return False
        if state.min_required_ps is math.inf:
            return True
        cap = state.cap_ff + model._wire_cap(hop)
        if cap >= scenario.cap_th_ff:
            return False
        path = (model.timing.arrival_ps.get(q_net, 0.0) + delta_delay
                + buf.delay_ps(cap)
                + model._wire_delay(state.max_span_um + hop,
                                    mux.input_cap("B")))
        return path + PREDICTION_MARGIN_PS <= state.min_required_ps

    d_net = ff.connections.get("D")
    if d_net is None:
        return False
    mux_penalty = mux.delay_ps(sdff.input_cap("D"))
    delta = (xor.input_cap("A") + mux.input_cap("A")
             - sdff.input_cap("D"))
    d_slow = _oracle_driver_resistance(netlist, d_net) * max(delta, 0.0)
    d_slack = min(model.timing.slack_of_net(d_net),
                  model.test_timing.slack_of_net(d_net))
    if d_slack < mux_penalty + d_slow + PREDICTION_MARGIN_PS:
        return False
    # The capture through the FF's XOR chain, one hop beyond the TSV.
    # The adopting FF's probe state carries no member-slack bound.
    span = state.max_span_um + hop
    xor_pin = xor.input_cap("B")
    tap_cap = xor_pin + model._wire_cap(span)
    slowdown = state.worst_member_resistance * tap_cap
    member_source = (state.worst_arrival_ps + slowdown
                     + model._wire_delay(span, xor_pin))
    d_source = model.test_timing.arrival_ps.get(d_net, 0.0) + d_slow
    chain_depth = max(1, len(state.members))
    capture = (max(member_source, d_source)
               + chain_depth * xor.delay_ps(xor.input_cap("A"))
               + mux.delay_ps(sdff.input_cap("D")))
    slack = ff_required - capture
    return slack > scenario.s_th_ps + PREDICTION_MARGIN_PS


def oracle_build_graph(problem: WcmProblem, kind: PortKind,
                       available_ffs: Sequence[str], config: WcmConfig,
                       timing_model: Optional[ReuseTimingModel] = None,
                       estimator: Optional[OverlapTestabilityEstimator] = None
                       ) -> WcmGraph:
    """Algorithm 1 without the kernels: every pair visited explicitly
    (no pair log), cones from :class:`ConeAnalysis` traversals and
    overlaps via frozenset intersection (no gate graph, no bitsets),
    distances straight from coordinates (no memo).

    The timing check is :func:`oracle_pair_feasible`, the per-pair
    formulation of the model's hoisted checks. Pass a *fresh*
    model/estimator, so the leaf values the oracle reads are computed
    by this sweep, not read back from the kernel's.
    """
    model = timing_model or ReuseTimingModel(problem, config)
    stats = GraphStats()

    tsvs: List[str] = []
    excluded: List[str] = []
    for tsv in problem.tsvs_of_kind(kind):
        if kind is PortKind.TSV_INBOUND:
            eligible = model.inbound_node_eligible(tsv)
        else:
            eligible = model.outbound_node_eligible(tsv)
        (tsvs if eligible else excluded).append(tsv)

    ffs = list(available_ffs)
    nodes = ffs + tsvs
    is_ff = {name: True for name in ffs}
    is_ff.update({name: False for name in tsvs})
    adjacency: Dict[str, Set[str]] = {name: set() for name in nodes}

    stats.ff_nodes = len(ffs)
    stats.tsv_nodes = len(tsvs)
    stats.nodes = len(nodes)
    stats.excluded_tsvs = len(excluded)

    analysis = ConeAnalysis(problem.netlist)
    cones = {name: analysis.gate_cone(name, kind) for name in nodes}
    location = {name: problem.location_of(name) for name in nodes}
    d_th = effective_d_th(problem, config)
    check_distance = math.isfinite(d_th) and config.scenario.is_timed

    def consider(name_a: str, name_b: str, a_is_ff: bool) -> None:
        if check_distance:
            ax, ay = location[name_a]
            bx, by = location[name_b]
            if abs(ax - bx) + abs(ay - by) >= d_th:
                stats.rejected_distance += 1
                return
        if not oracle_pair_feasible(model, name_a, name_b, kind, a_is_ff):
            stats.rejected_timing += 1
            return
        if not (cones[name_a] & cones[name_b]):
            adjacency[name_a].add(name_b)
            adjacency[name_b].add(name_a)
            stats.edges += 1
            return
        if not a_is_ff or not config.allow_overlap or estimator is None:
            stats.rejected_overlap += 1
            return
        overlap = analysis.overlap(name_a, name_b, kind)
        estimate = estimator.estimate(len(overlap))
        if estimate.within(config.cov_th, config.p_th):
            adjacency[name_a].add(name_b)
            adjacency[name_b].add(name_a)
            stats.edges += 1
            stats.overlap_edges += 1
        else:
            stats.rejected_testability += 1

    for i, tsv_a in enumerate(tsvs):
        for tsv_b in tsvs[i + 1:]:
            consider(tsv_a, tsv_b, a_is_ff=False)
    for ff in ffs:
        for tsv in tsvs:
            consider(ff, tsv, a_is_ff=True)

    return WcmGraph(kind=kind, nodes=nodes, is_ff=is_ff,
                    adjacency=adjacency, excluded_tsvs=excluded,
                    stats=stats)


# ---------------------------------------------------------------------------
# Exact minimum clique partition (branch-and-bound)
# ---------------------------------------------------------------------------
def exact_min_clique_partition(graph: WcmGraph, node_limit: int = 16,
                               step_limit: int = 250_000) -> Optional[int]:
    """Minimum number of cliques covering every graph node, or ``None``
    when the instance exceeds *node_limit* nodes or the search exceeds
    *step_limit* recursion steps.

    Purely graph-theoretic (no capacity/slack constraints), so the
    result is a **lower bound** on the clique count of any valid
    partition — Algorithm 2's heuristic output can never be smaller.
    """
    names = graph.nodes
    n = len(names)
    if n > node_limit:
        return None
    index = {name: position for position, name in enumerate(names)}
    adjacency_bits = [0] * n
    for name, neighbours in graph.adjacency.items():
        i = index[name]
        for other in neighbours:
            adjacency_bits[i] |= (1 << index[other])

    # High-degree nodes first: their clique choices constrain the most.
    order = sorted(range(n), key=lambda i: -bin(adjacency_bits[i]).count("1"))
    best = n  # all-singletons is always valid
    clique_masks: List[int] = []
    steps = 0
    aborted = False

    def descend(position: int) -> None:
        nonlocal best, steps, aborted
        steps += 1
        if steps > step_limit:
            aborted = True
            return
        if aborted or len(clique_masks) >= best:
            return
        if position == n:
            best = len(clique_masks)
            return
        node = order[position]
        bit = 1 << node
        adj = adjacency_bits[node]
        for slot, mask in enumerate(clique_masks):
            if mask & ~adj == 0:  # adjacent to every member
                clique_masks[slot] = mask | bit
                descend(position + 1)
                clique_masks[slot] = mask
                if aborted:
                    return
        if len(clique_masks) + 1 < best:
            clique_masks.append(bit)
            descend(position + 1)
            clique_masks.pop()

    descend(0)
    return None if aborted else best


def partition_violations(graph: WcmGraph, partition, max_group_size: int
                         ) -> List[str]:
    """Structural invariants any Algorithm 2 output must satisfy:
    disjoint cover of all graph nodes, pairwise original-graph
    adjacency inside each clique, at most one FF per clique, group
    size within the design rule."""
    problems: List[str] = []
    seen_tsvs: Dict[str, int] = {}
    seen_ffs: Dict[str, int] = {}
    for clique_index, clique in enumerate(partition.cliques):
        members = list(clique.tsvs) + ([clique.ff] if clique.ff else [])
        if not members:
            problems.append(f"clique {clique_index} is empty")
            continue
        for tsv in clique.tsvs:
            if graph.is_ff.get(tsv, True):
                problems.append(f"clique {clique_index}: {tsv} is not a "
                                f"TSV node of the graph")
            seen_tsvs[tsv] = seen_tsvs.get(tsv, 0) + 1
        if clique.ff is not None:
            if not graph.is_ff.get(clique.ff, False):
                problems.append(f"clique {clique_index}: {clique.ff} is "
                                f"not an FF node of the graph")
            seen_ffs[clique.ff] = seen_ffs.get(clique.ff, 0) + 1
        if len(clique.tsvs) > max_group_size:
            problems.append(f"clique {clique_index}: {len(clique.tsvs)} "
                            f"TSVs exceed max_group_size {max_group_size}")
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if b not in graph.adjacency.get(a, ()):
                    problems.append(
                        f"clique {clique_index}: {a} and {b} are not "
                        f"adjacent in the original graph")
    tsv_nodes = {name for name in graph.nodes if not graph.is_ff[name]}
    ff_nodes = {name for name in graph.nodes if graph.is_ff[name]}
    for tsv, count in seen_tsvs.items():
        if count > 1:
            problems.append(f"TSV {tsv} appears in {count} cliques")
    for ff, count in seen_ffs.items():
        if count > 1:
            problems.append(f"FF {ff} anchors {count} cliques")
    missing_tsvs = tsv_nodes - set(seen_tsvs)
    if missing_tsvs:
        problems.append(f"TSV nodes not covered: {sorted(missing_tsvs)}")
    missing_ffs = ff_nodes - set(seen_ffs)
    if missing_ffs:
        problems.append(f"FF nodes not covered: {sorted(missing_ffs)}")
    return problems


# ---------------------------------------------------------------------------
# Functional equivalence of DFT insertion
# ---------------------------------------------------------------------------
# DFT insertion must be functionally invisible: with ``test_mode = 0``
# the wrapped die computes exactly what the bare die computes at every
# primary output, outbound TSV and flip-flop D input. This is not a
# formal checker (no SAT): for DFT-style rewiring a few thousand random
# patterns across the scan-state space give overwhelming confidence,
# and the first differing observable comes with a concrete stimulus.
@dataclass
class Mismatch:
    """One observable where the two netlists disagree."""

    observable: str
    #: input assignment (control net name -> bit) reproducing it
    stimulus: Dict[str, int]


@dataclass
class EquivalenceResult:
    equivalent: bool
    patterns_checked: int
    compared_observables: int
    #: observables present in only one netlist (not compared)
    uncompared: List[str] = field(default_factory=list)
    mismatch: Optional[Mismatch] = None


def _functional_view(netlist: Netlist) -> TestView:
    """The functional-mode view: test_mode pinned 0, scan_enable 0,
    inbound TSVs treated as real inputs (post-bond functional space),
    observables at POs, outbound TSVs and FF D nets."""
    view = TestView(netlist=netlist)
    for port in netlist.ports.values():
        if port.net is None:
            continue
        if port.kind in (PortKind.PRIMARY_INPUT, PortKind.TSV_INBOUND):
            view.control_nets.append(port.net)
        elif port.kind in (PortKind.TEST_MODE, PortKind.SCAN_ENABLE):
            view.constant_nets[port.net] = 0
        elif port.kind in (PortKind.PRIMARY_OUTPUT, PortKind.TSV_OUTBOUND):
            view.observe_nets.append((port.name, port.net))
    for ff in netlist.flip_flops():
        q_net = ff.output_net()
        if q_net is not None:
            view.control_nets.append(q_net)
        d_net = ff.connections.get("D")
        if d_net is not None:
            view.observe_nets.append((f"{ff.name}.D", d_net))
    return view


def check_functional_equivalence(golden: Netlist, revised: Netlist,
                                 patterns: int = 2048, seed: int = 2019
                                 ) -> EquivalenceResult:
    """Compare *revised* against *golden* in functional mode.

    Control points are matched by name: primary inputs, inbound TSVs
    and flip-flop Q nets shared by both netlists are driven with the
    same random values; observables (POs, outbound TSVs, FF D inputs)
    shared by both are compared bit-for-bit. Wrapper cells exist only
    in *revised*, so their scan state is part of revised's input space:
    they are driven randomly too — a correct insertion is insensitive
    to them in functional mode.
    """
    view_g = _functional_view(golden)
    view_r = _functional_view(revised)
    circuit_g = CompiledCircuit(view_g)
    circuit_r = CompiledCircuit(view_r)

    rng = DeterministicRng(seed).child("equivalence", golden.name)
    width = 256
    mask = (1 << width) - 1

    # Shared control names drive identical words; extras get their own.
    cols_g = [circuit_g.net_names[nid] for nid in circuit_g.input_columns]
    cols_r = [circuit_r.net_names[nid] for nid in circuit_r.input_columns]
    shared = set(cols_g) & set(cols_r)

    obs_g = {label: net for label, net in view_g.observe_nets}
    obs_r = {label: net for label, net in view_r.observe_nets}
    compared = sorted(set(obs_g) & set(obs_r))
    uncompared = sorted(set(obs_g) ^ set(obs_r))

    checked = 0
    for _block in range(max(1, (patterns + width - 1) // width)):
        words: Dict[str, int] = {name: rng.getrandbits(width)
                                 for name in shared}
        in_g = [words.get(name, rng.getrandbits(width)) for name in cols_g]
        in_r = [words.get(name, rng.getrandbits(width)) for name in cols_r]
        values_g = circuit_g.simulate(in_g, mask)
        values_r = circuit_r.simulate(in_r, mask)
        for label in compared:
            word_g = values_g[circuit_g.net_ids[obs_g[label]]]
            word_r = values_r[circuit_r.net_ids[obs_r[label]]]
            diff = word_g ^ word_r
            if diff:
                k = (diff & -diff).bit_length() - 1
                stimulus = {name: (words[name] >> k) & 1
                            for name in sorted(shared)}
                return EquivalenceResult(
                    equivalent=False, patterns_checked=checked + k + 1,
                    compared_observables=len(compared),
                    uncompared=uncompared,
                    mismatch=Mismatch(observable=label, stimulus=stimulus),
                )
        checked += width

    return EquivalenceResult(
        equivalent=True, patterns_checked=checked,
        compared_observables=len(compared), uncompared=uncompared,
    )


# ---------------------------------------------------------------------------
# Scheduling oracles (re-exported): the exhaustive wrapper-chain
# designer and the branch-and-bound session packer live next to the
# heuristics they check, but they belong to this registry — the fuzzer
# and the mutation-kill harness reach them from here.
# ---------------------------------------------------------------------------
from repro.schedule.oracle import (  # noqa: E402  (re-export)
    exact_schedule,
    exact_wrapper_max_length,
    waterfill_max,
)
from repro.schedule.pack import schedule_violations  # noqa: E402
