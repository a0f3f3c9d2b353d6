"""Levelized static timing analysis.

Forward pass computes arrival times at every net (at its driver output
pin), backward pass computes required times; slack follows. Wire delay
between a net's driver and each sink uses the placement distance and
the Elmore model; disabling the wire model reproduces [4]'s load-only
timing.

The constraint-independent part of the work — positions, per-net
loads, topological order, per-(net, sink) wire delays, per-gate cell
delays — lives in a :class:`TimingContext` bound to one netlist and is
computed once; repeated :meth:`TimingContext.analyze` calls (dual-mode
sign-off, ECO rounds, path reports) redo only the arrival/required
sweeps. :meth:`TimingContext.invalidate_nets` refreshes the cached
state for nets a caller mutated in place (placement moves, load
changes); structural edits (new instances/nets) need
:meth:`TimingContext.invalidate`.

Conventions:

* paths launch at input-direction ports (arrival = ``input_delay_ps``)
  and at flip-flop outputs (arrival = FF cell delay under its load),
* paths capture at FF ``D``/``SI`` pins (required = period - setup) and
  at output-direction ports (required = period - output margin),
* nets driven by clock / scan-enable / test-mode ports carry no timing,
* an unconstrained clock (``period_ps=None``) yields +inf required
  times, so slacks are +inf and nothing violates — the paper's
  area-optimized scenario.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netlist.core import (
    Instance,
    Net,
    Netlist,
    Pin,
    Port,
    PortDirection,
    PortKind,
)
from repro.netlist.topology import topological_instances
from repro.runtime import trace
from repro.sta.constraints import ClockConstraint, UNCONSTRAINED
from repro.sta.delay import WireModel
from repro.util.errors import TimingError

INF = math.inf

#: Port kinds excluded from the timing graph.
_UNTIMED_PORT_KINDS = {PortKind.CLOCK, PortKind.SCAN_ENABLE, PortKind.TEST_MODE}

#: TSV landing pad + via capacitance seen by an outbound TSV driver (fF).
DEFAULT_TSV_CAP_FF = 15.0

#: 3-valued unknown used by case analysis
_X = 2


def default_case(netlist: Netlist, test_mode: int = 0) -> Dict[str, int]:
    """The usual sign-off case analysis: scan_enable = 0 and test_mode
    as given. Functional sign-off uses ``test_mode=0`` (wrapper mux B
    paths excluded), the at-speed capture check ``test_mode=1``."""
    case: Dict[str, int] = {}
    for port in netlist.ports.values():
        if port.net is None:
            continue
        if port.kind is PortKind.TEST_MODE:
            case[port.net] = test_mode
        elif port.kind is PortKind.SCAN_ENABLE:
            case[port.net] = 0
    return case


@dataclass
class EndpointSlack:
    """Slack at one capture endpoint."""

    kind: str  # "ff_d", "ff_si", "port"
    name: str  # instance or port name
    arrival_ps: float
    required_ps: float

    @property
    def slack_ps(self) -> float:
        return self.required_ps - self.arrival_ps

    @property
    def violated(self) -> bool:
        return self.slack_ps < 0.0


@dataclass
class TimingResult:
    """Full STA result for one die under one constraint set."""

    netlist_name: str
    constraint: ClockConstraint
    arrival_ps: Dict[str, float]
    required_ps: Dict[str, float]
    net_load_ff: Dict[str, float]
    endpoints: List[EndpointSlack]
    port_slack_ps: Dict[str, float]
    critical_path_ps: float

    @property
    def worst_slack_ps(self) -> float:
        if not self.endpoints:
            return INF
        return min(e.slack_ps for e in self.endpoints)

    @property
    def violations(self) -> List[EndpointSlack]:
        return [e for e in self.endpoints if e.violated]

    @property
    def has_violation(self) -> bool:
        return any(e.violated for e in self.endpoints)

    def slack_of_net(self, net_name: str) -> float:
        req = self.required_ps.get(net_name, INF)
        arr = self.arrival_ps.get(net_name, 0.0)
        return req - arr

    def slack_of_port(self, port_name: str) -> float:
        try:
            return self.port_slack_ps[port_name]
        except KeyError:
            raise TimingError(
                f"{self.netlist_name}: no timed endpoint for port {port_name!r}"
            ) from None

    def load_of_net(self, net_name: str) -> float:
        return self.net_load_ff.get(net_name, 0.0)


class TimingContext:
    """Constraint-independent STA state bound to one netlist.

    Builds positions, per-net loads, the topological instance order,
    per-(net, sink) wire delays and per-gate cell delays once; every
    :meth:`analyze` call then runs only the arrival/required sweeps.
    Byte-identical to a from-scratch analysis — the cached values are
    the same floats the sweeps would recompute.
    """

    def __init__(self, netlist: Netlist, wire_model: Optional[WireModel] = None,
                 tsv_cap_ff: float = DEFAULT_TSV_CAP_FF) -> None:
        self.netlist = netlist
        self.wire = wire_model or WireModel()
        self.tsv_cap_ff = tsv_cap_ff
        self._prepared = False

    # ------------------------------------------------------------------
    # Preparation (once per netlist, or after invalidation)
    # ------------------------------------------------------------------
    def _sink_cap(self, sink: Pin) -> float:
        # Position-independent (port kind / library cap), so cached per
        # pin across invalidate_nets refreshes.
        key = (sink.owner_name, sink.pin_name)
        cached = self._sink_cap_cache.get(key)
        if cached is not None:
            return cached
        if sink.is_port:
            port = self.netlist.port(sink.owner_name)
            value = (self.tsv_cap_ff
                     if port.kind is PortKind.TSV_OUTBOUND else 2.0)
        elif sink.pin_name == "SI":
            # Scan-shift paths are timed at the (slow) shift clock and
            # chain routing rides dedicated resources; excluding SI
            # keeps functional/test sign-off independent of chain order.
            value = 0.0
        else:
            inst = self.netlist.instance(sink.owner_name)
            value = inst.cell.input_cap(sink.pin_name)
        self._sink_cap_cache[key] = value
        return value

    def _compute_positions(self) -> Dict[str, Tuple[float, float]]:
        pos: Dict[str, Tuple[float, float]] = {}
        for inst in self.netlist.instances.values():
            pos[inst.name] = (inst.x, inst.y)
        for port in self.netlist.ports.values():
            pos[port.name] = (port.x, port.y)
        return pos

    def _net_load(self, net: Net) -> float:
        """Per-net capacitive load: sink pin caps + star wire cap.

        This is the quantity Algorithm 1 compares against ``cap_th``
        for inbound TSVs.
        """
        pos = self._pos
        total = 0.0
        driver_pos = (pos[net.driver.owner_name]
                      if net.driver is not None else None)
        for sink in net.sinks:
            if not sink.is_port and sink.pin_name == "SI":
                continue  # scan chain: shift-clock domain
            total += self._sink_cap(sink)
            if driver_pos is not None:
                sink_pos = pos[sink.owner_name]
                length = (abs(driver_pos[0] - sink_pos[0])
                          + abs(driver_pos[1] - sink_pos[1]))
                total += self.wire.wire_cap_ff(length)
        return total

    def _net_wire_delays(self, net: Net) -> None:
        """(Re)compute the driver-to-sink wire delay of every sink."""
        if net.driver is None:
            return
        pos = self._pos
        delays = self._wire_delays
        dpos = pos[net.driver.owner_name]
        for sink in net.sinks:
            spos = pos[sink.owner_name]
            length = abs(dpos[0] - spos[0]) + abs(dpos[1] - spos[1])
            delays[(net.name, sink.owner_name, sink.pin_name)] = \
                self.wire.wire_delay_ps(length, self._sink_cap(sink))

    def _prepare(self) -> None:
        netlist = self.netlist
        self._sink_cap_cache: Dict[Tuple[str, str], float] = {}
        self._pos = self._compute_positions()
        self._topo: List[str] = list(topological_instances(netlist))
        self._ffs: List[Instance] = netlist.flip_flops()

        self._loads: Dict[str, float] = {}
        self._wire_delays: Dict[Tuple[str, str, str], float] = {}
        for net in netlist.nets.values():
            self._loads[net.name] = self._net_load(net)
            self._net_wire_delays(net)

        # Per-gate cell delay under the net's (constraint-independent)
        # load — the same value both sweep directions ask for.
        self._gate_delay: Dict[str, float] = {}
        for inst in netlist.instances.values():
            out = inst.output_net()
            if out is not None:
                self._gate_delay[inst.name] = inst.cell.delay_ps(
                    self._loads.get(out, 0.0))

        # Timeable (pin, net) pairs per instance, in cell pin order.
        self._inst_pairs: Dict[str, List[Tuple[str, str]]] = {}
        for name in self._topo:
            inst = netlist.instance(name)
            self._inst_pairs[name] = [
                (p, n) for p, n in inst.input_nets()
                if p not in ("CK", "SE", "SI")
            ]

        self._untimed_base = {
            port.net for port in netlist.ports.values()
            if port.kind in _UNTIMED_PORT_KINDS and port.net is not None
        }

        # Reverse maps for the delta sweeps. Structure-only, so they
        # survive invalidate_nets and are rebuilt only here.
        self._topo_index: Dict[str, int] = {
            name: i for i, name in enumerate(self._topo)}
        self._consumers: Dict[str, List[str]] = {}
        for name in self._topo:
            for _pin, net in self._inst_pairs[name]:
                entry = self._consumers.setdefault(net, [])
                if not entry or entry[-1] != name:
                    entry.append(name)
        self._ffd_sinks: Dict[str, List[Instance]] = {}
        for inst in self._ffs:
            net = inst.connections.get("D")
            if net is not None:
                self._ffd_sinks.setdefault(net, []).append(inst)
        self._oport_sinks: Dict[str, List[Port]] = {}
        for port in netlist.ports.values():
            if port.direction is PortDirection.OUTPUT \
                    and port.net is not None:
                self._oport_sinks.setdefault(port.net, []).append(port)
        #: case -> propagated constants; pure in (structure, case)
        self._const_cache: Dict[Tuple, Dict[str, int]] = {}
        #: case -> (ff endpoint plan, port endpoint plan) for
        #: analyze_delta; pure in (structure, case)
        self._endpoint_plans: Dict[Tuple, Tuple[list, list]] = {}
        #: case -> instance -> timeable (pin, net) pairs after case
        #: pruning; pure in (structure, case) like the plans above
        self._active_pairs: Dict[Tuple, Dict[str, List[Tuple[str, str]]]] = {}

        self._prepared = True
        trace.inc("sta.context_builds")

    # ------------------------------------------------------------------
    # Invalidation hooks
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop all cached state (needed after structural edits)."""
        self._prepared = False

    def invalidate_nets(self, net_names) -> None:
        """Refresh loads / wire delays / driver delays for nets whose
        endpoints moved or whose pin loads changed in place.

        Callers must pass *every* net incident to a moved object (the
        positions of the named nets' pin owners are re-read first, then
        the per-net quantities recomputed — an unlisted net keeps its
        cached geometry). Output-port sinks may also have been rewired
        in place on the listed nets (a scan restitch moves the scan-out
        port with the chain tail): the reverse endpoint map is
        refreshed per net. Adding or removing instances or gate
        connections changes the topological order — use
        :meth:`invalidate` for that.
        """
        if not self._prepared:
            return
        netlist = self.netlist
        pos = self._pos
        nets = []
        for name in net_names:
            net = netlist.nets.get(name)
            if net is None:
                # The net is gone: that is a structural edit.
                self.invalidate()
                return
            nets.append(net)
            pins = net.sinks if net.driver is None \
                else [net.driver] + net.sinks
            for pin in pins:
                owner = pin.owner_name
                obj = (netlist.ports.get(owner) if pin.is_port
                       else netlist.instances.get(owner))
                if obj is not None:
                    pos[owner] = (obj.x, obj.y)
        plans_stale = False
        for net in nets:
            self._loads[net.name] = self._net_load(net)
            self._net_wire_delays(net)
            if net.driver is not None and not net.driver.is_port:
                inst = netlist.instance(net.driver.owner_name)
                self._gate_delay[inst.name] = inst.cell.delay_ps(
                    self._loads.get(net.name, 0.0))
            oports = [port for port in
                      (netlist.ports.get(s.owner_name)
                       for s in net.sinks if s.is_port)
                      if port is not None
                      and port.direction is PortDirection.OUTPUT]
            old = self._oport_sinks.get(net.name, [])
            if [p.name for p in oports] != [p.name for p in old]:
                plans_stale = True
            if oports:
                self._oport_sinks[net.name] = oports
            else:
                self._oport_sinks.pop(net.name, None)
        if plans_stale:
            # a port endpoint moved between nets: the per-case endpoint
            # plans snapshot the port->net map, so drop them
            self._endpoint_plans.clear()
        trace.inc("sta.context_invalidations")

    # ------------------------------------------------------------------
    def loads(self) -> Dict[str, float]:
        """Per-net capacitive load map (a private snapshot)."""
        if not self._prepared:
            self._prepare()
        return dict(self._loads)

    def _propagate_constants(self, case: Dict[str, int]) -> Dict[str, int]:
        """3-valued constant propagation of the case-analysis values."""
        from repro.atpg.podem import _eval3  # shared 3-valued evaluator

        consts: Dict[str, int] = dict(case)
        for name in self._topo:
            inst = self.netlist.instance(name)
            ins = [consts.get(net, _X) for _pin, net in inst.input_nets()
                   if _pin not in ("CK", "SE", "SI")]
            out = inst.output_net()
            if out is None:
                continue
            value = _eval3(inst.cell.function, ins) if ins else _X
            if value != _X:
                consts[out] = value
        return consts

    def _consts_for(self, case: Dict[str, int]) -> Dict[str, int]:
        """Cached constant propagation: pure in (structure, case), so
        repeated sign-off analyses of the same case share one sweep."""
        key = tuple(sorted(case.items()))
        cached = self._const_cache.get(key)
        if cached is None:
            cached = self._propagate_constants(case)
            self._const_cache[key] = cached
        return cached

    def _active_inputs_fn(self, consts: Dict[str, int], untimed_nets,
                          case_key: Optional[Tuple] = None):
        """The (pin, net) pairs of an instance that can propagate a
        transition — shared by :meth:`analyze` and
        :meth:`analyze_delta` so both prune identically.

        Pure in (structure, case): ``_inst_pairs`` already excludes the
        scan/clock pins, and *consts*/*untimed_nets* derive from the
        case alone. With *case_key* the per-instance results are cached
        on the context (dropped on ``_prepare``), so delta analyses
        skip the pruning comprehensions. Callers only iterate the
        returned lists.
        """
        inst_pairs = self._inst_pairs
        cache = (self._active_pairs.setdefault(case_key, {})
                 if case_key is not None else None)

        def active_input_nets(inst: Instance) -> List[tuple]:
            if cache is not None:
                hit = cache.get(inst.name)
                if hit is not None:
                    return hit
            out_net = inst.output_net()
            if out_net is not None and out_net in consts:
                pairs: List[tuple] = []
            else:
                pairs = [(p, n) for p, n in inst_pairs[inst.name]
                         if n not in untimed_nets]
                if inst.cell.function == "mux2":
                    s_net = inst.connections.get("S")
                    s_val = consts.get(s_net, _X) if s_net else _X
                    if s_val == 0:
                        pairs = [(p, n) for p, n in pairs if p != "B"]
                    elif s_val == 1:
                        pairs = [(p, n) for p, n in pairs if p != "A"]
            if cache is not None:
                cache[inst.name] = pairs
            return pairs

        return active_input_nets

    def analyze(self, constraint: ClockConstraint = UNCONSTRAINED,
                case: Optional[Dict[str, int]] = None) -> TimingResult:
        """STA under *constraint*, optionally with case analysis.

        *case* maps net names to constant 0/1 (see :func:`default_case`).
        Constant nets carry no transitions: they are neither timing
        startpoints nor endpoints, and a mux whose select is constant
        passes arrival only from the selected data input.
        """
        if not self._prepared:
            self._prepare()
        trace.inc("sta.analyze_calls")
        netlist = self.netlist
        loads = self._loads
        gate_delay = self._gate_delay
        wire_delays = self._wire_delays
        consts = self._consts_for(case) if case else {}

        untimed_nets = self._untimed_base | set(consts)

        case_key = tuple(sorted(case.items())) if case else ()
        active_input_nets = self._active_inputs_fn(consts, untimed_nets,
                                                   case_key)

        # ---- forward: arrival at net driver outputs --------------------
        arrival: Dict[str, float] = {}
        for port in netlist.ports.values():
            if port.direction is PortDirection.INPUT \
                    and port.net is not None \
                    and port.kind not in _UNTIMED_PORT_KINDS:
                arrival[port.net] = constraint.input_delay_ps
        for inst in self._ffs:
            out = inst.output_net()
            if out is not None:
                arrival[out] = gate_delay[inst.name]

        for name in self._topo:
            inst = netlist.instance(name)
            active = active_input_nets(inst)
            out = inst.output_net()
            if out is None or out in consts:
                continue
            worst_in = 0.0
            for pin_name, net_name in active:
                pin_arrival = (arrival.get(net_name, 0.0)
                               + wire_delays.get(
                                   (net_name, name, pin_name), 0.0))
                worst_in = max(worst_in, pin_arrival)
            arrival[out] = worst_in + gate_delay[name]

        # ---- endpoints ---------------------------------------------------
        period = constraint.period_ps if constraint.is_constrained else INF
        ff_required = period - constraint.setup_ps if period is not INF else INF
        port_required = (period - constraint.output_margin_ps
                         if period is not INF else INF)

        endpoints: List[EndpointSlack] = []
        port_slack: Dict[str, float] = {}
        critical = 0.0

        for inst in self._ffs:
            net_name = inst.connections.get("D")
            if net_name is None or net_name in untimed_nets:
                continue
            pin_arrival = (arrival.get(net_name, 0.0)
                           + wire_delays.get((net_name, inst.name, "D"), 0.0))
            critical = max(critical, pin_arrival + constraint.setup_ps)
            endpoints.append(EndpointSlack(
                kind="ff_d",
                name=inst.name,
                arrival_ps=pin_arrival,
                required_ps=ff_required,
            ))

        for port in netlist.ports.values():
            if port.direction is not PortDirection.OUTPUT or port.net is None \
                    or port.net in consts:
                continue
            pin_arrival = (arrival.get(port.net, 0.0)
                           + wire_delays.get((port.net, port.name, ""), 0.0))
            critical = max(critical, pin_arrival + constraint.output_margin_ps)
            endpoint = EndpointSlack(
                kind="port", name=port.name,
                arrival_ps=pin_arrival, required_ps=port_required,
            )
            endpoints.append(endpoint)
            port_slack[port.name] = endpoint.slack_ps

        # ---- backward: required time at each net ------------------------
        required: Dict[str, float] = {}

        def relax(net_name: str, value: float) -> None:
            current = required.get(net_name, INF)
            if value < current:
                required[net_name] = value

        for inst in self._ffs:
            net_name = inst.connections.get("D")
            if net_name is None or net_name in untimed_nets:
                continue
            relax(net_name,
                  ff_required - wire_delays.get(
                      (net_name, inst.name, "D"), 0.0))
        for port in netlist.ports.values():
            if port.direction is PortDirection.OUTPUT \
                    and port.net is not None:
                relax(port.net,
                      port_required - wire_delays.get(
                          (port.net, port.name, ""), 0.0))

        for name in reversed(self._topo):
            inst = netlist.instance(name)
            out = inst.output_net()
            if out is None or out in consts:
                continue
            out_required = required.get(out, INF)
            if out_required is INF:
                continue
            budget = out_required - gate_delay[name]
            for pin_name, net_name in active_input_nets(inst):
                relax(net_name,
                      budget - wire_delays.get(
                          (net_name, name, pin_name), 0.0))

        result = TimingResult(
            netlist_name=netlist.name,
            constraint=constraint,
            arrival_ps=arrival,
            required_ps=required,
            net_load_ff=dict(loads),
            endpoints=endpoints,
            port_slack_ps=port_slack,
            critical_path_ps=critical,
        )
        if trace.active() is not None:
            worst = result.worst_slack_ps
            if worst is not INF:
                trace.observe("sta.worst_slack_ps", worst)
        return result

    def analyze_delta(self, constraint: ClockConstraint = UNCONSTRAINED,
                      case: Optional[Dict[str, int]] = None, *,
                      previous: TimingResult,
                      dirty_nets) -> TimingResult:
        """Incremental STA: patch *previous* instead of full sweeps.

        Contract: *previous* came from :meth:`analyze` (or an earlier
        :meth:`analyze_delta`) on THIS context under the same
        *constraint* and *case*, and :meth:`invalidate_nets` has since
        been called with a superset of *dirty_nets* — every net whose
        load, wire delays or driver gate delay may have changed (i.e.
        all nets incident to a moved instance or port). The result is
        byte-identical to a fresh :meth:`analyze`: untouched arrival/
        required entries are reused, touched ones are recomputed with
        the exact full-sweep formulas, and changes propagate through
        the same topological orders. Endpoints on untouched capture
        nets are reused from *previous*; the critical path is re-folded
        over every endpoint.
        """
        if not self._prepared:
            return self.analyze(constraint, case)
        if previous.constraint != constraint:
            raise TimingError(
                f"{self.netlist.name}: analyze_delta constraint differs "
                f"from the previous result's")
        trace.inc("sta.analyze_calls")
        trace.inc("sta.delta_analyze_calls")
        netlist = self.netlist
        gate_delay = self._gate_delay
        wire_delays = self._wire_delays
        consts = self._consts_for(case) if case else {}
        untimed_nets = self._untimed_base | set(consts)
        case_key = tuple(sorted(case.items())) if case else ()
        active_input_nets = self._active_inputs_fn(consts, untimed_nets,
                                                   case_key)
        dirty = set(dirty_nets)

        # ---- forward: recompute dirty / downstream-of-changed ----------
        # Worklist in topological order (a heap over topo indices): the
        # exact instance set a full scan would recompute — drivers and
        # consumers of dirty nets, plus consumers of any net whose
        # arrival changed — without touching the clean remainder.
        arrival = dict(previous.arrival_ps)
        changed = set()
        for inst in self._ffs:
            out = inst.output_net()
            if out is not None and out in dirty:
                value = gate_delay[inst.name]
                if arrival.get(out) != value:
                    arrival[out] = value
                    changed.add(out)

        topo_index = self._topo_index
        consumers = self._consumers
        pending: List[int] = []
        scheduled = set()

        def schedule_consumers(net_name: str) -> None:
            for cname in consumers.get(net_name, ()):
                idx = topo_index[cname]
                if idx not in scheduled:
                    scheduled.add(idx)
                    heapq.heappush(pending, idx)

        for net_name in dirty:
            schedule_consumers(net_name)
            net = netlist.nets.get(net_name)
            if net is not None and net.driver is not None \
                    and not net.driver.is_port:
                idx = topo_index.get(net.driver.owner_name)
                if idx is not None and idx not in scheduled:
                    scheduled.add(idx)
                    heapq.heappush(pending, idx)
        for net_name in changed:
            schedule_consumers(net_name)

        while pending:
            name = self._topo[heapq.heappop(pending)]
            inst = netlist.instance(name)
            out = inst.output_net()
            if out is None or out in consts:
                continue
            worst_in = 0.0
            for pin_name, net_name in active_input_nets(inst):
                pin_arrival = (arrival.get(net_name, 0.0)
                               + wire_delays.get(
                                   (net_name, name, pin_name), 0.0))
                worst_in = max(worst_in, pin_arrival)
            value = worst_in + gate_delay[name]
            if arrival.get(out) != value:
                arrival[out] = value
                changed.add(out)
                schedule_consumers(out)

        # ---- endpoints: patch where the capture net was touched ---------
        # An endpoint's arrival is arrival[net] + a wire delay of that
        # net; required depends only on the (unchanged) constraint. So
        # endpoints whose capture net is neither dirty nor downstream of
        # a change are reused from *previous* — only the critical-path
        # max is re-folded over everything (cheap float reads).
        period = constraint.period_ps if constraint.is_constrained else INF
        ff_required = period - constraint.setup_ps if period is not INF else INF
        port_required = (period - constraint.output_margin_ps
                         if period is not INF else INF)

        touched = changed | dirty
        # Per-case endpoint plan: the (name, capture net) pairs the full
        # sweep would visit, in its exact order. Structure- and
        # case-dependent only (both route through _prepare on change),
        # so *previous.endpoints* — produced in the same order — can be
        # reused index-aligned instead of via an O(n) dict build per
        # call. Any misalignment just recomputes the endpoint from the
        # arrival map, which is always correct.
        plans = self._endpoint_plans.get(case_key)
        if plans is None:
            ff_plan = []
            for inst in self._ffs:
                net_name = inst.connections.get("D")
                if net_name is not None and net_name not in untimed_nets:
                    ff_plan.append((inst.name, net_name))
            port_plan = []
            for port in netlist.ports.values():
                if port.direction is PortDirection.OUTPUT \
                        and port.net is not None and port.net not in consts:
                    port_plan.append((port.name, port.net))
            plans = (ff_plan, port_plan)
            self._endpoint_plans[case_key] = plans
        ff_plan, port_plan = plans
        prev_list = previous.endpoints
        aligned = len(prev_list) == len(ff_plan) + len(port_plan)

        endpoints: List[EndpointSlack] = []
        port_slack: Dict[str, float] = {}
        critical = 0.0

        for i, (name, net_name) in enumerate(ff_plan):
            endpoint = prev_list[i] if aligned else None
            if endpoint is not None and (net_name in touched
                                         or endpoint.kind != "ff_d"
                                         or endpoint.name != name
                                         or endpoint.required_ps
                                         != ff_required):
                endpoint = None
            if endpoint is None:
                pin_arrival = (arrival.get(net_name, 0.0)
                               + wire_delays.get(
                                   (net_name, name, "D"), 0.0))
                endpoint = EndpointSlack(
                    kind="ff_d",
                    name=name,
                    arrival_ps=pin_arrival,
                    required_ps=ff_required,
                )
            critical = max(critical,
                           endpoint.arrival_ps + constraint.setup_ps)
            endpoints.append(endpoint)

        base = len(ff_plan)
        for i, (name, net_name) in enumerate(port_plan):
            endpoint = prev_list[base + i] if aligned else None
            if endpoint is not None and (net_name in touched
                                         or endpoint.kind != "port"
                                         or endpoint.name != name
                                         or endpoint.required_ps
                                         != port_required):
                endpoint = None
            if endpoint is None:
                pin_arrival = (arrival.get(net_name, 0.0)
                               + wire_delays.get(
                                   (net_name, name, ""), 0.0))
                endpoint = EndpointSlack(
                    kind="port", name=name,
                    arrival_ps=pin_arrival, required_ps=port_required,
                )
            critical = max(critical,
                           endpoint.arrival_ps + constraint.output_margin_ps)
            endpoints.append(endpoint)
            port_slack[name] = endpoint.slack_ps

        # ---- backward: recompute required where inputs changed ----------
        required = dict(previous.required_ps)
        prev_required = previous.required_ps

        def recompute_required(n: str) -> float:
            """Exactly the full sweep's min over all contributions to
            net *n*, read off the reverse maps. Every consumer's own
            required is final by the time *n*'s driver is visited in
            the reversed topological order."""
            vals: List[float] = []
            if n not in untimed_nets:
                for ff in self._ffd_sinks.get(n, ()):
                    vals.append(ff_required - wire_delays.get(
                        (n, ff.name, "D"), 0.0))
            for oport in self._oport_sinks.get(n, ()):
                vals.append(port_required - wire_delays.get(
                    (n, oport.name, ""), 0.0))
            for cname in self._consumers.get(n, ()):
                cinst = netlist.instance(cname)
                cout = cinst.output_net()
                if cout is None or cout in consts:
                    continue
                out_required = required.get(cout, INF)
                if out_required == INF:
                    continue
                budget = out_required - gate_delay[cname]
                for pin_name, net_name in active_input_nets(cinst):
                    if net_name == n:
                        vals.append(budget - wire_delays.get(
                            (n, cname, pin_name), 0.0))
            return min(vals) if vals else INF

        # Worklist in reverse topological order (max-heap over topo
        # indices): visits exactly the instances whose output net needs
        # a fresh required time, growing the set through active inputs
        # as the full reversed scan would.
        needs = set(dirty)
        req_changed = set()
        recomputed = set()
        rev_pending: List[int] = []
        rev_scheduled = set()

        def schedule_driver(net_name: str) -> None:
            net = netlist.nets.get(net_name)
            if net is None or net.driver is None or net.driver.is_port:
                return
            idx = self._topo_index.get(net.driver.owner_name)
            if idx is not None and idx not in rev_scheduled:
                rev_scheduled.add(idx)
                heapq.heappush(rev_pending, -idx)

        for net_name in dirty:
            schedule_driver(net_name)

        while rev_pending:
            name = self._topo[-heapq.heappop(rev_pending)]
            inst = netlist.instance(name)
            out = inst.output_net()
            if out is None or out in consts:
                continue
            if out in needs:
                recomputed.add(out)
                new = recompute_required(out)
                if new == INF:
                    required.pop(out, None)
                else:
                    required[out] = new
                if new != prev_required.get(out, INF):
                    req_changed.add(out)
            if out in req_changed or (out in dirty
                                      and required.get(out, INF) < INF):
                for _pin, net_name in active_input_nets(inst):
                    needs.add(net_name)
                    schedule_driver(net_name)
        # Nets not driven by an active combinational gate (FF outputs,
        # port-driven, undriven, constant-out drivers) never pass the
        # loop; their consumers are all finalized now.
        for n in needs - recomputed:
            new = recompute_required(n)
            if new == INF:
                required.pop(n, None)
            else:
                required[n] = new

        result = TimingResult(
            netlist_name=netlist.name,
            constraint=constraint,
            arrival_ps=arrival,
            required_ps=required,
            net_load_ff=dict(self._loads),
            endpoints=endpoints,
            port_slack_ps=port_slack,
            critical_path_ps=critical,
        )
        if trace.active() is not None:
            worst = result.worst_slack_ps
            if worst is not INF:
                trace.observe("sta.worst_slack_ps", worst)
        return result


class TimingAnalyzer:
    """STA engine bound to one netlist, wire model and TSV cap.

    A thin veneer over :class:`TimingContext`: the context is built on
    the first :meth:`analyze` and reused for every later call, so
    dual-mode sign-off and constraint sweeps pay the graph preparation
    once. Callers that mutate the netlist in place must call
    :meth:`invalidate` (or :meth:`TimingContext.invalidate_nets` on
    :attr:`context`) before re-analyzing.
    """

    def __init__(self, netlist: Netlist, wire_model: Optional[WireModel] = None,
                 tsv_cap_ff: float = DEFAULT_TSV_CAP_FF) -> None:
        self.netlist = netlist
        self.wire = wire_model or WireModel()
        self.tsv_cap_ff = tsv_cap_ff
        self._context: Optional[TimingContext] = None

    @property
    def context(self) -> TimingContext:
        if self._context is None:
            self._context = TimingContext(self.netlist, self.wire,
                                          self.tsv_cap_ff)
        return self._context

    def invalidate(self) -> None:
        """Drop cached context state after netlist edits."""
        if self._context is not None:
            self._context.invalidate()

    def compute_loads(self) -> Dict[str, float]:
        """Per-net capacitive load: sink pin caps + star wire cap."""
        return self.context.loads()

    def analyze(self, constraint: ClockConstraint = UNCONSTRAINED,
                case: Optional[Dict[str, int]] = None) -> TimingResult:
        """STA under *constraint*, optionally with case analysis."""
        return self.context.analyze(constraint, case)
