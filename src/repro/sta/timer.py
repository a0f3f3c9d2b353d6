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
case nets. One compile kernel builds that state three ways: cold
from nothing, :meth:`TimingContext.derive` from the compiled context
of a netlist the edited one was copied from (recompiling only the nets
the edit touched, their drivers and readers, and the new instances),
and :meth:`TimingContext.invalidate_nets`, which recompiles in place
the nets a caller mutated (placement moves, load changes). Structural
edits (new or removed instances and nets) derive a new context.

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


def _required_times(constraint: ClockConstraint) -> Tuple[float, float]:
    """Required times at flip-flop ``D`` pins and at output ports under
    *constraint* (``INF`` when unconstrained)."""
    period = constraint.period_ps if constraint.is_constrained else INF
    if period is INF:
        return INF, INF
    return (period - constraint.setup_ps,
            period - constraint.output_margin_ps)


def _push_readers(readers: Dict[str, List[int]], net_name: str,
                  scheduled: Set[int], pending: List[int]) -> None:
    """Schedule the unscheduled readers of *net_name* on the heap of
    topological indices *pending*."""
    for index in readers.get(net_name, ()):
        if index not in scheduled:
            scheduled.add(index)
            heapq.heappush(pending, index)


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
    recompute, folded in the same order. A context compiles cold on
    first use, or is :meth:`derive`-d from the context of the netlist
    it was edited from.
    """

    def __init__(self, netlist: Netlist, wire_model: Optional[WireModel] = None,
                 tsv_cap_ff: float = DEFAULT_TSV_CAP_FF) -> None:
        self.netlist = netlist
        self.wire = wire_model or WireModel()
        self.tsv_cap_ff = tsv_cap_ff
        self._prepared = False

    # ------------------------------------------------------------------
    # Compilation: cold, derived from a compiled base, or patched
    # ------------------------------------------------------------------
    @classmethod
    def derive(cls, base: "TimingContext", netlist: Netlist,
               touched: Set[str], fresh: Set[str],
               stale: Set[str]) -> "TimingContext":
        """The compiled context of *netlist*, an edited copy of
        *base*'s netlist, recompiling only what the edit touched.

        *touched* names every net that is new, gone, or whose driver or
        non-``SI`` sinks differ from the base netlist, and every net of
        an object that was added, removed or moved; *fresh* names the
        instances of *netlist* that are not the base's (added, or
        replacing a base instance of the same name), *stale* the base
        instances that do not survive. The loads of the touched nets
        are recomputed, and so are the entries of the fresh instances
        and of every driver and data reader of a touched net; every
        other load, entry and reader list is copied from *base*, which
        the new context never shares a mutable entry with. Surviving
        instances keep the base's order and fresh ones are spliced in
        after their latest combinational driver; when an edge of a
        touched net then runs backwards the context compiles cold
        (Kahn's order). The order stays private: ``netlist._topo_cache``
        is not written. Byte-identical to a cold context of *netlist*,
        because any topological order yields the same arrival maxima,
        required minima and case constants."""
        context = cls(netlist, base.wire, base.tsv_cap_ff)
        if not base._prepared:
            base._prepare()
        context._compile(base, touched, fresh, stale)
        return context

    def _prepare(self) -> None:
        """The cold compile: a derivation from nothing, every net
        touched, Kahn's order."""
        self._compile(None, set(), set(), set())

    def _port_cap(self, port: Port) -> float:
        return self.tsv_cap_ff if port.kind is PortKind.TSV_OUTBOUND else 2.0

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

    def _compile_entry(self, inst: Instance, index: Optional[int] = None,
                       record: Optional[Set[str]] = None
                       ) -> Optional[list]:
        """The entry ``[output net, gate delay, arcs]`` of *inst*
        (``None`` without an output net): the ``(pin, net, wire
        delay)`` arcs of its timed data inputs, in cell pin order. With
        *index* (its topological index), also records *inst* as a
        reader of each data-input net, timed or not, that is in
        *record* (every net when *record* is ``None``)."""
        readers = self._readers
        untimed = self._untimed_base
        sink_pos = self._pos[inst.name]
        connections = inst.connections
        arcs = []
        for cpin in inst.cell.input_pins:
            pin = cpin.name
            net = connections.get(pin)
            if net is None or pin in _NON_DATA_PINS:
                continue
            if index is not None and (record is None or net in record):
                seen = readers.get(net)
                if seen is None:
                    readers[net] = [index]
                elif seen[-1] != index:
                    seen.append(index)
            if net not in untimed:
                arcs.append((pin, net,
                             self._wire_delay(net, sink_pos, cpin.cap_ff)))
        out = inst.output_net()
        if out is None:
            return None
        return [out, inst.cell.delay_ps(self._loads.get(out, 0.0)),
                tuple(arcs)]

    def _recompiled(self, touched: Set[str]) -> Set[str]:
        """The drivers and data readers of the *touched* nets that
        exist: the instances a derivation compiles afresh."""
        nets = self.netlist.nets
        out: Set[str] = set()
        for name in touched:
            net = nets.get(name)
            if net is None:
                continue
            driver = net.driver
            if driver is not None and not driver.is_port:
                out.add(driver.owner_name)
            for sink in net.sinks:
                if not sink.is_port and sink.pin_name not in _NON_DATA_PINS:
                    out.add(sink.owner_name)
        return out

    def _spliced_order(self, base: "TimingContext", fresh: Set[str],
                       stale: Set[str]) -> Tuple[List[str], List[int]]:
        """The base order without the *stale* instances, each fresh
        combinational instance spliced in after its latest
        combinational driver (fresh drivers first). Returns the order
        and, per position, the base index of a survivor (-1: fresh)."""
        instances = self.netlist.instances
        nets = self.netlist.nets
        base_driver = base._driver_index
        slots: Dict[str, int] = {}
        after: Dict[int, List[str]] = {}

        def slot_of(name: str) -> int:
            slot = slots.get(name)
            if slot is not None:
                if slot == -2:
                    raise TimingError(
                        f"{self.netlist.name}: combinational cycle "
                        f"through {name!r}")
                return slot
            slots[name] = -2  # in progress
            latest = -1
            for _pin, net_name in instances[name].input_nets():
                driver = nets[net_name].driver
                if driver is None or driver.is_port:
                    continue
                owner = driver.owner_name
                if owner in fresh:
                    if instances[owner].is_sequential:
                        continue
                    index = slot_of(owner)
                else:
                    index = base_driver.get(net_name, -1)
                if index > latest:
                    latest = index
            slots[name] = latest
            after.setdefault(latest, []).append(name)
            return latest

        for name in fresh:
            if not instances[name].is_sequential and name not in slots:
                slot_of(name)
        order: List[str] = list(after.get(-1, ()))
        origin: List[int] = [-1] * len(order)
        for index, name in enumerate(base._topo):
            if name in stale:
                continue
            order.append(name)
            origin.append(index)
            spliced = after.get(index)
            if spliced:
                order.extend(spliced)
                origin.extend([-1] * len(spliced))
        return order, origin

    def _compile(self, base: Optional["TimingContext"], touched: Set[str],
                 fresh: Set[str], stale: Set[str]) -> None:
        """Compile this context's netlist, from nothing (*base* None)
        or from *base* (see :meth:`derive`)."""
        netlist = self.netlist
        instances = netlist.instances
        nets = netlist.nets
        self._untimed_base = {
            port.net for port in netlist.ports.values()
            if port.kind in _UNTIMED_PORT_KINDS and port.net is not None
        }
        self._readers: Dict[str, List[int]] = {}
        if base is None:
            pos = self._pos = {}
            for inst in instances.values():
                pos[inst.name] = (inst.x, inst.y)
            for port in netlist.ports.values():
                pos[port.name] = (port.x, port.y)
            loads = self._loads = {}
            for net in nets.values():
                loads[net.name] = self._net_load(net)
            order = list(topological_instances(netlist))
            origin = None
            recompiled: Set[str] = set()
            record = None
        else:
            pos = self._pos = dict(base._pos)
            for name in fresh:
                inst = instances[name]
                pos[name] = (inst.x, inst.y)
            for port in netlist.ports.values():
                pos[port.name] = (port.x, port.y)
            loads = dict(base._loads)
            for name in touched:
                net = nets.get(name)
                if net is None:
                    loads.pop(name, None)
                else:
                    loads[name] = self._net_load(net)
            # every analysis copies the loads, and CPython copies a
            # dict that holds deleted entries key by key: compact it
            self._loads = dict(loads)
            order, origin = self._spliced_order(base, fresh, stale)
            recompiled = self._recompiled(touched)
            record = touched

        # The compiled graph: one entry per combinational instance, in
        # topological order, plus the structure-only reverse maps the
        # event-driven passes read.
        entries: List[Optional[list]] = []
        driver_index: Dict[str, int] = {}
        base_entries = base._base if base is not None else None
        for index, name in enumerate(order):
            old = origin[index] if origin is not None else -1
            if old < 0 or name in recompiled:
                entry = self._compile_entry(instances[name], index, record)
            else:
                entry = base_entries[old]
                if entry is not None:
                    entry = [entry[0], entry[1], entry[2]]
            if entry is not None:
                driver_index[entry[0]] = index
            entries.append(entry)
        if base is not None:
            readers = self._readers
            for name in touched:
                # a reader list runs in increasing index order, so its
                # head is the touched net's earliest reader
                index = driver_index.get(name)
                seen = readers.get(name)
                if index is not None and seen and seen[0] <= index:
                    self._prepare()
                    return
            remap = [-1] * len(base._topo)
            for index, old in enumerate(origin):
                if old >= 0:
                    remap[old] = index
            for name, seen in base._readers.items():
                if name not in touched:
                    readers[name] = [remap[index] for index in seen]
        self._topo: List[str] = order
        self._base: List[Optional[list]] = entries
        self._driver_index: Dict[str, int] = driver_index
        self._index_flip_flops()
        self._index_ports()
        #: case key -> compiled graph under that case
        self._cases: Dict[Tuple, _CaseArcs] = {}
        self._prepared = True
        trace.inc("sta.context_builds")

    def _index_flip_flops(self) -> None:
        """Launch entries ``[Q net, clock-to-Q delay]`` and capture
        endpoints ``[name, D net, wire delay]`` of the flip-flops, in
        instance order."""
        loads = self._loads
        self._launches: List[list] = []
        self._launch_of: Dict[str, list] = {}
        self._ff_ends: List[list] = []
        self._ffd_sinks: Dict[str, List[list]] = {}
        for inst in self.netlist.flip_flops():
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
        """Drop all compiled state; the next use compiles cold."""
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
        re-indexed. The entries of the nets' data readers are
        recompiled in place by the compile kernel the cold and derived
        builds run; their drivers take the gate delay of the new load.
        Adding or removing instances or gate
        connections is a structural edit: :meth:`derive` a context of
        the edited netlist instead.
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
        loads = self._loads
        for net in nets:
            loads[net.name] = self._net_load(net)
        patched = self._refresh_entries(nets)
        ports_stale = False
        for net in nets:
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

    def _refresh_entries(self, nets: List[Net]) -> Set[int]:
        """Recompile in place the entries of the data readers of
        *nets*, the gate delays of their drivers (the launch delays of
        flip-flop drivers) and the wire delays of the flip-flop
        endpoints they feed; return the patched entries' indices."""
        instances = self.netlist.instances
        loads = self._loads
        drivers: Set[int] = set()
        readers: Set[int] = set()
        for net in nets:
            name = net.name
            index = self._driver_index.get(name)
            if index is not None:
                drivers.add(index)
            elif name in self._launch_of:
                driver = instances[net.driver.owner_name]
                self._launch_of[name][1] = driver.cell.delay_ps(loads[name])
            readers.update(self._readers.get(name, ()))
            for end in self._ffd_sinks.get(name, ()):
                inst = instances[end[0]]
                end[2] = self._wire_delay(name, self._pos[inst.name],
                                          inst.cell.input_cap("D"))
        base = self._base
        topo = self._topo
        for index in readers:
            entry = base[index]
            if entry is not None:
                entry[1:] = self._compile_entry(instances[topo[index]])[1:]
        for index in drivers - readers:
            # only the output load moved: the arcs stand
            entry = base[index]
            entry[1] = instances[topo[index]].cell.delay_ps(loads[entry[0]])
        return drivers | readers

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
        for net_name in case:
            _push_readers(readers, net_name, scheduled, pending)
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
                _push_readers(readers, out, scheduled, pending)
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
        ff_required, port_required = _required_times(constraint)

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

        return self._result(constraint, arrival, required, endpoints,
                            port_slack, critical)

    def _result(self, constraint: ClockConstraint,
                arrival: Dict[str, float], required: Dict[str, float],
                endpoints: List[EndpointSlack], port_slack: Dict[str, float],
                critical: float) -> TimingResult:
        """The :class:`TimingResult` of one sweep, its worst slack
        observed when tracing."""
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
        scheduled: Set[int] = set()
        for net_name in dirty:
            _push_readers(readers, net_name, scheduled, pending)
            index = driver_index.get(net_name)
            if index is not None and index not in scheduled:
                scheduled.add(index)
                heapq.heappush(pending, index)
        for net_name in changed:
            _push_readers(readers, net_name, scheduled, pending)

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
                _push_readers(readers, out, scheduled, pending)

        # ---- endpoints: patch where the capture net was touched ---------
        # An endpoint's arrival is arrival[net] + a wire delay of that
        # net; required depends only on the (unchanged) constraint. So
        # endpoints whose capture net is neither dirty nor downstream of
        # a change are reused from *previous* — only the critical-path
        # max is re-folded over everything (cheap float reads).
        ff_required, port_required = _required_times(constraint)

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

        return self._result(constraint, arrival, required, endpoints,
                            port_slack, critical)

