"""Levelized static timing analysis.

Forward pass computes arrival times at every net (at its driver output
pin), backward pass computes required times; slack follows. Wire delay
between a net's driver and each sink uses the placement distance and
the Elmore model; disabling the wire model reproduces [4]'s load-only
timing.

The constraint-independent part of the work lives in a
:class:`TimingContext` bound to one netlist and is computed once:
positions, per-net loads, and the timing graph compiled to flat arc
lists — each combinational instance, in topological order, with its
gate delay and the ``(pin, net, wire delay)`` arcs of its timed inputs.
Repeated :meth:`TimingContext.analyze` calls (dual-mode sign-off, ECO
rounds, path reports) sweep only those lists; case analysis compiles
once per case map, by propagating the constants event-driven from the
case nets. :meth:`TimingContext.invalidate_nets` patches the compiled
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
from typing import Dict, List, Optional, Set, Tuple

from repro.netlist.core import (
    Instance,
    Net,
    Netlist,
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

#: pins that carry no timing arc: clock, scan enable, scan in
_NON_DATA_PINS = ("CK", "SE", "SI")


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


class _CaseArcs:
    """The compiled timing graph under one case-analysis map.

    ``active[i]`` is the entry the sweeps visit for topological index
    *i* (``None``: skipped, because the instance has no output net or
    a constant one). It is the context's base entry except at
    *overrides*: instances that read a constant net, whose arcs drop
    the constant inputs and, behind a constant mux select, the
    unselected data input. ``entries`` lists the non-``None`` entries
    in topological order. Pure in (structure, case), so one table
    serves every analysis of the case until :meth:`TimingContext.
    invalidate`; :meth:`TimingContext.invalidate_nets` patches the
    overrides in place.
    """

    __slots__ = ("consts", "untimed", "active", "entries", "overrides",
                 "ff_ends", "port_ends")

    def __init__(self, consts: Dict[str, int], untimed: Set[str],
                 active: List[Optional[list]], overrides: Dict[int, list],
                 ff_ends: List[list], port_ends: List[list]) -> None:
        self.consts = consts
        self.untimed = untimed
        self.active = active
        self.entries = [entry for entry in active if entry is not None]
        self.overrides = overrides
        self.ff_ends = ff_ends
        #: output-port endpoints off the constant nets (refiltered when
        #: a port is rewired)
        self.port_ends = port_ends


class TimingContext:
    """Constraint-independent STA state bound to one netlist.

    Builds positions, per-net loads and the compiled timing graph once:
    every combinational instance, in topological order, is one entry
    ``[output net, gate delay, arcs]`` whose arcs are ``(pin, net, wire
    delay)`` triples over its timed data inputs. Flip-flops contribute
    ``[Q net, clock-to-Q delay]`` launches and ``[name, D net, wire
    delay]`` capture endpoints, output ports ``[name, net, wire delay]``
    endpoints. Every :meth:`analyze` call then runs two tight loops
    over the entries of its case. Byte-identical to a from-scratch
    analysis: the compiled values are the same floats the sweeps would
    recompute, folded in the same order.
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
    def _port_cap(self, port: Port) -> float:
        return self.tsv_cap_ff if port.kind is PortKind.TSV_OUTBOUND else 2.0

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
        for inbound TSVs. Scan-shift paths are timed at the (slow)
        shift clock and chain routing rides dedicated resources, so SI
        sinks are excluded: functional/test sign-off stays independent
        of chain order.
        """
        pos = self._pos
        instances = self.netlist.instances
        wire_cap = self.wire.wire_cap_ff
        total = 0.0
        driver_pos = (pos[net.driver.owner_name]
                      if net.driver is not None else None)
        for sink in net.sinks:
            if sink.is_port:
                total += self._port_cap(self.netlist.ports[sink.owner_name])
            elif sink.pin_name == "SI":
                continue  # scan chain: shift-clock domain
            else:
                total += instances[sink.owner_name].cell.input_caps[
                    sink.pin_name]
            if driver_pos is not None:
                sink_pos = pos[sink.owner_name]
                length = (abs(driver_pos[0] - sink_pos[0])
                          + abs(driver_pos[1] - sink_pos[1]))
                total += wire_cap(length)
        return total

    def _wire_delay(self, net_name: str, sink_pos: Tuple[float, float],
                    cap: float) -> float:
        """Driver-to-sink wire delay of *net_name* into a pin of *cap*
        at *sink_pos* (0 on an undriven net)."""
        driver = self.netlist.nets[net_name].driver
        if driver is None:
            return 0.0
        dpos = self._pos[driver.owner_name]
        length = abs(dpos[0] - sink_pos[0]) + abs(dpos[1] - sink_pos[1])
        return self.wire.wire_delay_ps(length, cap)

    def _compile_arcs(self, inst: Instance,
                      index: Optional[int] = None) -> Tuple[tuple, ...]:
        """The ``(pin, net, wire delay)`` arcs of *inst*'s timed data
        inputs, in cell pin order. With *index* (its topological
        index), also records *inst* as a reader of every data-input
        net, timed or not."""
        readers = self._readers
        sink_pos = self._pos[inst.name]
        arcs = []
        for cpin in inst.cell.input_pins:
            pin = cpin.name
            net = inst.connections.get(pin)
            if net is None or pin in _NON_DATA_PINS:
                continue
            if index is not None:
                seen = readers.get(net)
                if seen is None:
                    readers[net] = [index]
                elif seen[-1] != index:
                    seen.append(index)
            if net not in self._untimed_base:
                arcs.append((pin, net,
                             self._wire_delay(net, sink_pos, cpin.cap_ff)))
        return tuple(arcs)

    def _prepare(self) -> None:
        netlist = self.netlist
        instances = netlist.instances
        self._pos = self._compute_positions()
        self._topo: List[str] = list(topological_instances(netlist))
        self._untimed_base = {
            port.net for port in netlist.ports.values()
            if port.kind in _UNTIMED_PORT_KINDS and port.net is not None
        }
        loads = self._loads = {}
        for net in netlist.nets.values():
            loads[net.name] = self._net_load(net)

        # The compiled graph: one entry per combinational instance, in
        # topological order, plus the structure-only reverse maps the
        # event-driven passes read.
        self._base: List[Optional[list]] = []
        self._readers: Dict[str, List[int]] = {}
        self._driver_index: Dict[str, int] = {}
        for index, name in enumerate(self._topo):
            inst = instances[name]
            arcs = self._compile_arcs(inst, index)
            out = inst.output_net()
            if out is None:
                self._base.append(None)
                continue
            self._driver_index[out] = index
            self._base.append([out, inst.cell.delay_ps(loads.get(out, 0.0)),
                               arcs])

        self._launches: List[list] = []
        self._launch_of: Dict[str, list] = {}
        self._ff_ends: List[list] = []
        self._ffd_sinks: Dict[str, List[list]] = {}
        for inst in netlist.flip_flops():
            out = inst.output_net()
            if out is not None:
                launch = [out, inst.cell.delay_ps(loads.get(out, 0.0))]
                self._launches.append(launch)
                self._launch_of[out] = launch
            net = inst.connections.get("D")
            if net is not None:
                end = [inst.name, net, self._wire_delay(
                    net, self._pos[inst.name], inst.cell.input_cap("D"))]
                self._ff_ends.append(end)
                self._ffd_sinks.setdefault(net, []).append(end)
        self._index_ports()
        #: case key -> compiled graph under that case
        self._cases: Dict[Tuple, _CaseArcs] = {}

        self._prepared = True
        trace.inc("sta.context_builds")

    def _index_ports(self) -> None:
        """Launch nets of the timed input ports and the endpoints of
        the output ports, in port order."""
        self._input_nets: List[str] = []
        self._port_ends: List[list] = []
        self._oport_sinks: Dict[str, List[list]] = {}
        for port in self.netlist.ports.values():
            net = port.net
            if net is None:
                continue
            if port.direction is PortDirection.INPUT:
                if port.kind not in _UNTIMED_PORT_KINDS:
                    self._input_nets.append(net)
                continue
            end = [port.name, net, self._wire_delay(
                net, self._pos[port.name], self._port_cap(port))]
            self._port_ends.append(end)
            self._oport_sinks.setdefault(net, []).append(end)

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
        port with the chain tail): the port endpoints are then
        re-indexed. Adding or removing instances or gate connections
        changes the topological order — use :meth:`invalidate` for
        that.
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
        patched: Set[int] = set()
        ports_stale = False
        for net in nets:
            load = self._loads[net.name] = self._net_load(net)
            driver = net.driver
            if driver is not None and not driver.is_port:
                delay = netlist.instance(driver.owner_name).cell.delay_ps(
                    load)
                index = self._driver_index.get(net.name)
                if index is not None:
                    self._base[index][1] = delay
                    patched.add(index)
                elif net.name in self._launch_of:
                    self._launch_of[net.name][1] = delay
            patched.update(self._refresh_sink_delays(net))
            ports_stale = self._refresh_port_ends(net) or ports_stale
        if ports_stale:
            # a port endpoint moved between nets: re-index the ports
            # and refilter each case's port endpoints
            self._index_ports()
            for arcs in self._cases.values():
                arcs.port_ends = self._live_port_ends(arcs.consts)
        for arcs in self._cases.values():
            for index in patched.intersection(arcs.overrides):
                fresh = self._case_entry(index, arcs.consts)
                arcs.overrides[index][1:] = fresh[1:]
        trace.inc("sta.context_invalidations")

    def _refresh_sink_delays(self, net: Net) -> List[int]:
        """Recompute the wire delays of the arcs and flip-flop
        endpoints *net* feeds; return the patched entries' indices."""
        name = net.name
        patched = []
        for index in self._readers.get(name, ()):
            entry = self._base[index]
            if entry is None:
                continue
            entry[2] = self._compile_arcs(
                self.netlist.instances[self._topo[index]])
            patched.append(index)
        for end in self._ffd_sinks.get(name, ()):
            inst = self.netlist.instances[end[0]]
            end[2] = self._wire_delay(name, self._pos[inst.name],
                                      inst.cell.input_cap("D"))
        return patched

    def _refresh_port_ends(self, net: Net) -> bool:
        """Recompute the wire delays of the output-port endpoints on
        *net*. True when its output ports are no longer the indexed
        ones (a port was rewired), which needs :meth:`_index_ports`."""
        ports = self.netlist.ports
        current = [port for port in (ports.get(sink.owner_name)
                                     for sink in net.sinks if sink.is_port)
                   if port is not None
                   and port.direction is PortDirection.OUTPUT]
        ends = {end[0]: end for end in self._oport_sinks.get(net.name, ())}
        if len(current) != len(ends) \
                or any(port.name not in ends for port in current):
            return True
        for port in current:
            ends[port.name][2] = self._wire_delay(
                net.name, self._pos[port.name], self._port_cap(port))
        return False

    # ------------------------------------------------------------------
    def loads(self) -> Dict[str, float]:
        """Per-net capacitive load map (a private snapshot)."""
        if not self._prepared:
            self._prepare()
        return dict(self._loads)

    def _propagate_constants(self, case: Dict[str, int]) -> Dict[str, int]:
        """3-valued constant propagation of the case-analysis values.

        Event-driven: only the gates reading a constant are evaluated,
        in topological order (a heap over topological indices), so each
        sees its inputs' final values. A gate with no constant input
        evaluates to X, so the result equals a sweep over every gate —
        including its overwrite rule: a gate's non-X value takes
        precedence over a case entry on its output net.
        """
        from repro.atpg.podem import _eval3  # shared 3-valued evaluator

        consts: Dict[str, int] = dict(case)
        instances = self.netlist.instances
        readers = self._readers
        pending: List[int] = []
        scheduled: Set[int] = set()

        def schedule_readers(net_name: str) -> None:
            for index in readers.get(net_name, ()):
                if index not in scheduled:
                    scheduled.add(index)
                    heapq.heappush(pending, index)

        for net_name in case:
            schedule_readers(net_name)
        while pending:
            inst = instances[self._topo[heapq.heappop(pending)]]
            out = inst.output_net()
            if out is None:
                continue
            ins = [consts.get(net, _X) for pin, net in inst.input_nets()
                   if pin not in _NON_DATA_PINS]
            value = _eval3(inst.cell.function, ins)
            if value != _X:
                consts[out] = value
                schedule_readers(out)
        return consts

    def _case_entry(self, index: int,
                    consts: Dict[str, int]) -> Optional[list]:
        """The entry of topological index *index* under *consts*: the
        base entry, ``None`` when the output is constant, or a copy
        whose arcs drop the constant inputs and, behind a constant mux
        select, the unselected data input."""
        entry = self._base[index]
        if entry is None or entry[0] in consts:
            return None
        arcs = [arc for arc in entry[2] if arc[1] not in consts]
        inst = self.netlist.instances[self._topo[index]]
        if inst.cell.function == "mux2":
            s_net = inst.connections.get("S")
            s_val = consts.get(s_net, _X) if s_net else _X
            if s_val == 0:
                arcs = [arc for arc in arcs if arc[0] != "B"]
            elif s_val == 1:
                arcs = [arc for arc in arcs if arc[0] != "A"]
        if len(arcs) == len(entry[2]):
            return entry
        return [entry[0], entry[1], tuple(arcs)]

    def _case_arcs(self, case: Optional[Dict[str, int]]) -> _CaseArcs:
        """The compiled graph under *case*, built on first use. A case
        differs from the base entries only at the instances that read
        or drive a constant net."""
        key = tuple(sorted(case.items())) if case else ()
        arcs = self._cases.get(key)
        if arcs is not None:
            return arcs
        consts = self._propagate_constants(case) if case else {}
        active = list(self._base)
        overrides: Dict[int, list] = {}
        touched: Set[int] = set()
        for net_name in consts:
            touched.update(self._readers.get(net_name, ()))
            index = self._driver_index.get(net_name)
            if index is not None:
                touched.add(index)
        for index in touched:
            entry = self._case_entry(index, consts)
            if entry is not active[index]:
                active[index] = entry
                if entry is not None:
                    overrides[index] = entry
        untimed = self._untimed_base | set(consts)
        arcs = _CaseArcs(consts, untimed, active, overrides,
                         [end for end in self._ff_ends
                          if end[1] not in untimed],
                         self._live_port_ends(consts))
        self._cases[key] = arcs
        return arcs

    def _live_port_ends(self, consts: Dict[str, int]) -> List[list]:
        """The output-port endpoints whose net is not constant."""
        return [end for end in self._port_ends if end[1] not in consts]

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
        arcs = self._case_arcs(case)

        # ---- forward: arrival at net driver outputs --------------------
        arrival: Dict[str, float] = {}
        for net_name in self._input_nets:
            arrival[net_name] = constraint.input_delay_ps
        for out, delay in self._launches:
            arrival[out] = delay
        arrival_of = arrival.get
        # ``if x > worst: worst = x`` is ``max(worst, x)`` without the
        # call: the same float, the first operand kept on ties
        for out, delay, inputs in arcs.entries:
            worst_in = 0.0
            for _pin, net_name, wire in inputs:
                pin_arrival = arrival_of(net_name, 0.0) + wire
                if pin_arrival > worst_in:
                    worst_in = pin_arrival
            arrival[out] = worst_in + delay

        # ---- endpoints ---------------------------------------------------
        period = constraint.period_ps if constraint.is_constrained else INF
        ff_required = period - constraint.setup_ps if period is not INF else INF
        port_required = (period - constraint.output_margin_ps
                         if period is not INF else INF)

        endpoints: List[EndpointSlack] = []
        port_slack: Dict[str, float] = {}
        critical = 0.0

        for name, net_name, wire in arcs.ff_ends:
            pin_arrival = arrival_of(net_name, 0.0) + wire
            captured = pin_arrival + constraint.setup_ps
            if captured > critical:
                critical = captured
            endpoints.append(EndpointSlack(
                kind="ff_d",
                name=name,
                arrival_ps=pin_arrival,
                required_ps=ff_required,
            ))

        for name, net_name, wire in arcs.port_ends:
            pin_arrival = arrival_of(net_name, 0.0) + wire
            captured = pin_arrival + constraint.output_margin_ps
            if captured > critical:
                critical = captured
            endpoint = EndpointSlack(
                kind="port", name=name,
                arrival_ps=pin_arrival, required_ps=port_required,
            )
            endpoints.append(endpoint)
            port_slack[name] = endpoint.slack_ps

        # ---- backward: required time at each net ------------------------
        # Output ports relax without a constant-net check (a published
        # asymmetry the oracle replicates).
        required: Dict[str, float] = {}
        required_of = required.get
        for _name, net_name, wire in arcs.ff_ends:
            value = ff_required - wire
            if value < required_of(net_name, INF):
                required[net_name] = value
        for _name, net_name, wire in self._port_ends:
            value = port_required - wire
            if value < required_of(net_name, INF):
                required[net_name] = value
        for out, delay, inputs in reversed(arcs.entries):
            out_required = required_of(out, INF)
            if out_required is INF:
                continue
            budget = out_required - delay
            for _pin, net_name, wire in inputs:
                value = budget - wire
                if value < required_of(net_name, INF):
                    required[net_name] = value

        result = TimingResult(
            netlist_name=self.netlist.name,
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
        the exact full-sweep formulas over the same compiled entries,
        and changes propagate through the same topological orders.
        Endpoints on untouched capture nets are reused from *previous*;
        the critical path is re-folded over every endpoint.
        """
        if not self._prepared:
            return self.analyze(constraint, case)
        if previous.constraint != constraint:
            raise TimingError(
                f"{self.netlist.name}: analyze_delta constraint differs "
                f"from the previous result's")
        trace.inc("sta.analyze_calls")
        trace.inc("sta.delta_analyze_calls")
        arcs = self._case_arcs(case)
        active = arcs.active
        readers = self._readers
        driver_index = self._driver_index
        dirty = set(dirty_nets)

        # ---- forward: recompute dirty / downstream-of-changed ----------
        # Worklist in topological order (a heap over topo indices): the
        # exact instance set a full scan would recompute — drivers and
        # readers of dirty nets, plus readers of any net whose arrival
        # changed — without touching the clean remainder.
        arrival = dict(previous.arrival_ps)
        changed = set()
        for out, delay in self._launches:
            if out in dirty and arrival.get(out) != delay:
                arrival[out] = delay
                changed.add(out)

        pending: List[int] = []
        scheduled = set()

        def schedule_readers(net_name: str) -> None:
            for index in readers.get(net_name, ()):
                if index not in scheduled:
                    scheduled.add(index)
                    heapq.heappush(pending, index)

        for net_name in dirty:
            schedule_readers(net_name)
            index = driver_index.get(net_name)
            if index is not None and index not in scheduled:
                scheduled.add(index)
                heapq.heappush(pending, index)
        for net_name in changed:
            schedule_readers(net_name)

        while pending:
            entry = active[heapq.heappop(pending)]
            if entry is None:
                continue
            out, delay, inputs = entry
            worst_in = 0.0
            for _pin, net_name, wire in inputs:
                pin_arrival = arrival.get(net_name, 0.0) + wire
                if pin_arrival > worst_in:
                    worst_in = pin_arrival
            value = worst_in + delay
            if arrival.get(out) != value:
                arrival[out] = value
                changed.add(out)
                schedule_readers(out)

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
        # The case's endpoint lists are the ones the full sweep visits,
        # in its exact order, so *previous.endpoints* — produced in the
        # same order — can be reused index-aligned. Any misalignment
        # just recomputes the endpoint from the arrival map, which is
        # always correct.
        ff_ends = arcs.ff_ends
        port_ends = arcs.port_ends
        prev_list = previous.endpoints
        aligned = len(prev_list) == len(ff_ends) + len(port_ends)

        endpoints: List[EndpointSlack] = []
        port_slack: Dict[str, float] = {}
        critical = 0.0

        for i, (name, net_name, wire) in enumerate(ff_ends):
            endpoint = prev_list[i] if aligned else None
            if endpoint is not None and (net_name in touched
                                         or endpoint.kind != "ff_d"
                                         or endpoint.name != name
                                         or endpoint.required_ps
                                         != ff_required):
                endpoint = None
            if endpoint is None:
                endpoint = EndpointSlack(
                    kind="ff_d",
                    name=name,
                    arrival_ps=arrival.get(net_name, 0.0) + wire,
                    required_ps=ff_required,
                )
            critical = max(critical,
                           endpoint.arrival_ps + constraint.setup_ps)
            endpoints.append(endpoint)

        base = len(ff_ends)
        for i, (name, net_name, wire) in enumerate(port_ends):
            endpoint = prev_list[base + i] if aligned else None
            if endpoint is not None and (net_name in touched
                                         or endpoint.kind != "port"
                                         or endpoint.name != name
                                         or endpoint.required_ps
                                         != port_required):
                endpoint = None
            if endpoint is None:
                endpoint = EndpointSlack(
                    kind="port", name=name,
                    arrival_ps=arrival.get(net_name, 0.0) + wire,
                    required_ps=port_required,
                )
            critical = max(critical,
                           endpoint.arrival_ps + constraint.output_margin_ps)
            endpoints.append(endpoint)
            port_slack[name] = endpoint.slack_ps

        # ---- backward: recompute required where inputs changed ----------
        required = dict(previous.required_ps)
        prev_required = previous.required_ps
        untimed = arcs.untimed

        def recompute_required(n: str) -> float:
            """Exactly the full sweep's min over all contributions to
            net *n*, read off the reverse maps. Every reader's own
            required is final by the time *n*'s driver is visited in
            the reversed topological order."""
            vals: List[float] = []
            if n not in untimed:
                for end in self._ffd_sinks.get(n, ()):
                    vals.append(ff_required - end[2])
            for end in self._oport_sinks.get(n, ()):
                vals.append(port_required - end[2])
            for index in readers.get(n, ()):
                entry = active[index]
                if entry is None:
                    continue
                out_required = required.get(entry[0], INF)
                if out_required == INF:
                    continue
                budget = out_required - entry[1]
                for _pin, net_name, wire in entry[2]:
                    if net_name == n:
                        vals.append(budget - wire)
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
            index = driver_index.get(net_name)
            if index is not None and index not in rev_scheduled:
                rev_scheduled.add(index)
                heapq.heappush(rev_pending, -index)

        for net_name in dirty:
            schedule_driver(net_name)

        while rev_pending:
            entry = active[-heapq.heappop(rev_pending)]
            if entry is None:
                continue
            out = entry[0]
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
                for _pin, net_name, _wire in entry[2]:
                    needs.add(net_name)
                    schedule_driver(net_name)
        # Nets not driven by an active combinational gate (FF outputs,
        # port-driven, undriven, constant-out drivers) never pass the
        # loop; their readers are all finalized now.
        for n in needs - recomputed:
            new = recompute_required(n)
            if new == INF:
                required.pop(n, None)
            else:
                required[n] = new

        result = TimingResult(
            netlist_name=self.netlist.name,
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

