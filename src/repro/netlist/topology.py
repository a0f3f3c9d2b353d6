"""Levelization and fan-in/fan-out cone analysis.

The clique-graph construction of the paper needs two structural
queries on the die netlist:

* *fan-out cone* of a source (scan FF output or inbound TSV): all logic
  reachable going forward, stopping at sequential capture points, TSVs
  and primary outputs;
* *fan-in cone* of a sink (scan FF data input or outbound TSV): all
  logic reachable going backward, stopping at sequential launch points,
  TSVs and primary inputs.

Cones are returned as frozensets of object names (instances and ports),
endpoints included. :class:`repro.dft.cones.ConeAnalysis` caches them as
the reference for the sharing graph's compiled cone bitsets.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Set

from repro.netlist.core import Netlist, PortDirection
from repro.util.errors import NetlistError


def topological_instances(netlist: Netlist) -> List[str]:
    """Topologically order *combinational* instances (Kahn's algorithm).

    Sequential instances and ports are sources/sinks, not ordered nodes.
    Raises :class:`NetlistError` on a combinational cycle.
    """
    if netlist._topo_cache is not None:
        return netlist._topo_cache

    indegree: Dict[str, int] = {}
    dependents: Dict[str, List[str]] = {}
    nets = netlist.nets
    instances = netlist.instances

    for inst in instances.values():
        if inst.cell.is_sequential:
            continue
        count = 0
        for _pin, net_name in inst.input_nets():
            net = nets.get(net_name)
            if net is None:
                net = netlist.net(net_name)  # raises the NetlistError
            drv = net.driver
            if drv is None or drv.is_port:
                continue
            if instances[drv.owner_name].cell.is_sequential:
                continue
            count += 1
            dependents.setdefault(drv.owner_name, []).append(inst.name)
        indegree[inst.name] = count

    ready = deque(sorted(name for name, deg in indegree.items() if deg == 0))
    order: List[str] = []
    while ready:
        name = ready.popleft()
        order.append(name)
        for dep in dependents.get(name, ()):
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)

    if len(order) != len(indegree):
        stuck = [n for n, d in indegree.items() if d > 0][:5]
        raise NetlistError(
            f"{netlist.name}: combinational cycle involving {stuck} "
            f"({len(indegree) - len(order)} gates unplaced)"
        )
    netlist._topo_cache = order
    return order


def combinational_levels(netlist: Netlist) -> Dict[str, int]:
    """Level of each combinational instance (sources at level 0)."""
    levels: Dict[str, int] = {}
    for name in topological_instances(netlist):
        inst = netlist.instance(name)
        level = 0
        for _pin, net_name in inst.input_nets():
            drv = netlist.net(net_name).driver
            if drv is None or drv.is_port:
                continue
            driver_inst = netlist.instance(drv.owner_name)
            if driver_inst.is_sequential:
                continue
            level = max(level, levels[drv.owner_name] + 1)
        levels[name] = level
    return levels


def _forward_from_net(netlist: Netlist, net_name: str, visited_nets: Set[str],
                      cone: Set[str]) -> None:
    stack = [net_name]
    while stack:
        current = stack.pop()
        if current in visited_nets:
            continue
        visited_nets.add(current)
        net = netlist.net(current)
        for sink in net.sinks:
            if sink.is_port:
                cone.add(sink.owner_name)
                continue
            inst = netlist.instance(sink.owner_name)
            if inst.name in cone:
                continue
            cone.add(inst.name)
            if inst.is_sequential:
                continue  # capture endpoint; do not cross
            out = inst.output_net()
            if out is not None:
                stack.append(out)


def _backward_from_net(netlist: Netlist, net_name: str, visited_nets: Set[str],
                       cone: Set[str]) -> None:
    stack = [net_name]
    while stack:
        current = stack.pop()
        if current in visited_nets:
            continue
        visited_nets.add(current)
        net = netlist.net(current)
        drv = net.driver
        if drv is None:
            continue
        if drv.is_port:
            cone.add(drv.owner_name)
            continue
        inst = netlist.instance(drv.owner_name)
        if inst.name in cone:
            continue
        cone.add(inst.name)
        if inst.is_sequential:
            continue  # launch endpoint; do not cross
        for _pin, in_net in inst.input_nets():
            stack.append(in_net)


def fanout_cone(netlist: Netlist, source: str) -> FrozenSet[str]:
    """Fan-out cone of *source* (an instance name or input-direction port).

    For a sequential instance the walk starts at its output net; for a
    port at its connected net. The source itself is not included.
    """
    cone: Set[str] = set()
    visited: Set[str] = set()
    if source in netlist.instances:
        inst = netlist.instance(source)
        out = inst.output_net()
        if out is not None:
            _forward_from_net(netlist, out, visited, cone)
    elif source in netlist.ports:
        port = netlist.port(source)
        if port.direction is not PortDirection.INPUT:
            raise NetlistError(f"fanout cone of output port {source!r} is empty by definition")
        if port.net is not None:
            _forward_from_net(netlist, port.net, visited, cone)
    else:
        raise NetlistError(f"{netlist.name}: unknown object {source!r}")
    cone.discard(source)
    return frozenset(cone)


def fanin_cone(netlist: Netlist, sink: str) -> FrozenSet[str]:
    """Fan-in cone of *sink* (an instance name or output-direction port).

    For a sequential instance the walk starts at its D-input net; for a
    port at its connected net. The sink itself is not included.
    """
    cone: Set[str] = set()
    visited: Set[str] = set()
    if sink in netlist.instances:
        inst = netlist.instance(sink)
        start_nets = [net for pin, net in inst.input_nets() if pin not in ("CK", "SE")]
        for net_name in start_nets:
            _backward_from_net(netlist, net_name, visited, cone)
    elif sink in netlist.ports:
        port = netlist.port(sink)
        if port.direction is not PortDirection.OUTPUT:
            raise NetlistError(f"fanin cone of input port {sink!r} is empty by definition")
        if port.net is not None:
            _backward_from_net(netlist, port.net, visited, cone)
    else:
        raise NetlistError(f"{netlist.name}: unknown object {sink!r}")
    cone.discard(sink)
    return frozenset(cone)
