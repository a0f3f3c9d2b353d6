"""Core netlist data model: pins, nets, ports, instances, netlists.

Design notes
------------
* A :class:`Net` has exactly one driver (an instance output pin or an
  input-direction port) and any number of sinks (instance input pins or
  output-direction ports). Connectivity is maintained bidirectionally by
  :class:`Netlist` mutators so cone/timing traversals are O(edges).
* TSVs are modelled as die *ports* of kind ``TSV_INBOUND`` (an input to
  the die whose driver is the absent neighbouring die) or
  ``TSV_OUTBOUND`` (an output of the die). This is all pre-bond test
  analysis needs: pre-bond, an inbound TSV is an uncontrollable input
  and an outbound TSV an unobservable output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.netlist.library import CellType, Library, PinDirection
from repro.util.errors import NetlistError


class PortDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class PortKind(enum.Enum):
    PRIMARY_INPUT = "primary_input"
    PRIMARY_OUTPUT = "primary_output"
    TSV_INBOUND = "tsv_inbound"
    TSV_OUTBOUND = "tsv_outbound"
    CLOCK = "clock"
    SCAN_IN = "scan_in"
    SCAN_OUT = "scan_out"
    SCAN_ENABLE = "scan_enable"
    TEST_MODE = "test_mode"
    #: Virtual control point added by the DFT test view (e.g. a wrapper
    #: cell's scan value driving an inbound TSV net during test).
    PSEUDO_INPUT = "pseudo_input"
    #: Virtual observation point added by the DFT test view.
    PSEUDO_OUTPUT = "pseudo_output"


_INPUT_KINDS = {
    PortKind.PRIMARY_INPUT,
    PortKind.TSV_INBOUND,
    PortKind.CLOCK,
    PortKind.SCAN_IN,
    PortKind.SCAN_ENABLE,
    PortKind.TEST_MODE,
    PortKind.PSEUDO_INPUT,
}


def direction_for_kind(kind: PortKind) -> PortDirection:
    return PortDirection.INPUT if kind in _INPUT_KINDS else PortDirection.OUTPUT


@dataclass(frozen=True)
class Pin:
    """A reference to a pin of an instance or a port endpoint.

    ``owner_kind`` is ``"instance"`` or ``"port"``; ``owner_name`` is the
    instance/port name; ``pin_name`` is the cell pin name (empty for
    ports, which are single-ended).
    """

    owner_kind: str
    owner_name: str
    pin_name: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.owner_kind == "port":
            return f"port:{self.owner_name}"
        return f"{self.owner_name}.{self.pin_name}"

    @property
    def is_port(self) -> bool:
        return self.owner_kind == "port"


@dataclass
class Net:
    """A single-driver signal net."""

    name: str
    driver: Optional[Pin] = None
    sinks: List[Pin] = field(default_factory=list)

    def fanout(self) -> int:
        return len(self.sinks)


@dataclass
class Port:
    """A die-level I/O, including TSV endpoints."""

    name: str
    kind: PortKind
    net: Optional[str] = None  # connected net name
    #: Physical location, filled by placement (um).
    x: float = 0.0
    y: float = 0.0

    @property
    def direction(self) -> PortDirection:
        return direction_for_kind(self.kind)

    @property
    def is_tsv(self) -> bool:
        return self.kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND)

    def pin(self) -> Pin:
        return Pin("port", self.name)


@dataclass
class Instance:
    """An instantiated library cell."""

    name: str
    cell: CellType
    #: pin name -> net name
    connections: Dict[str, str] = field(default_factory=dict)
    #: Physical location, filled by placement (um).
    x: float = 0.0
    y: float = 0.0

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential

    @property
    def is_scan(self) -> bool:
        return self.cell.is_scan

    def pin(self, pin_name: str) -> Pin:
        return Pin("instance", self.name, pin_name)

    def output_net(self) -> Optional[str]:
        return self.connections.get(self.cell.output_pin.name)

    def input_nets(self) -> List[Tuple[str, str]]:
        """Return (pin_name, net_name) for every connected input pin."""
        result = []
        for cpin in self.cell.input_pins:
            net = self.connections.get(cpin.name)
            if net is not None:
                result.append((cpin.name, net))
        return result


class Netlist:
    """A flat gate-level netlist for one die (or one full 2D circuit)."""

    def __init__(self, name: str, library: Library) -> None:
        self.name = name
        self.library = library
        self.instances: Dict[str, Instance] = {}
        self.nets: Dict[str, Net] = {}
        self.ports: Dict[str, Port] = {}
        #: invalidated by mutation; rebuilt lazily by topology helpers
        self._topo_cache: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, name: str) -> Net:
        if name in self.nets:
            raise NetlistError(f"{self.name}: duplicate net {name!r}")
        net = Net(name=name)
        self.nets[name] = net
        self._topo_cache = None
        return net

    def get_or_add_net(self, name: str) -> Net:
        return self.nets.get(name) or self.add_net(name)

    def add_port(self, name: str, kind: PortKind, net: Optional[str] = None) -> Port:
        if name in self.ports:
            raise NetlistError(f"{self.name}: duplicate port {name!r}")
        port = Port(name=name, kind=kind)
        self.ports[name] = port
        if net is not None:
            self.connect_port(name, net)
        self._topo_cache = None
        return port

    def add_instance(self, name: str, cell_name: str) -> Instance:
        if name in self.instances:
            raise NetlistError(f"{self.name}: duplicate instance {name!r}")
        cell = self.library.get(cell_name)
        inst = Instance(name=name, cell=cell)
        self.instances[name] = inst
        self._topo_cache = None
        return inst

    def connect(self, instance_name: str, pin_name: str, net_name: str) -> None:
        """Attach an instance pin to a net (creating the net if needed)."""
        inst = self.instance(instance_name)
        cpin = inst.cell.pin(pin_name)  # validates pin exists
        net = self.get_or_add_net(net_name)
        if pin_name in inst.connections:
            raise NetlistError(
                f"{self.name}: {instance_name}.{pin_name} already connected"
            )
        inst.connections[pin_name] = net_name
        pin = inst.pin(pin_name)
        if cpin.direction is PinDirection.OUTPUT:
            if net.driver is not None:
                raise NetlistError(
                    f"{self.name}: net {net_name!r} has multiple drivers "
                    f"({net.driver} and {pin})"
                )
            net.driver = pin
        else:
            net.sinks.append(pin)
        self._topo_cache = None

    def connect_port(self, port_name: str, net_name: str) -> None:
        port = self.port(port_name)
        if port.net is not None:
            raise NetlistError(f"{self.name}: port {port_name!r} already connected")
        net = self.get_or_add_net(net_name)
        port.net = net_name
        pin = port.pin()
        if port.direction is PortDirection.INPUT:
            if net.driver is not None:
                raise NetlistError(
                    f"{self.name}: net {net_name!r} has multiple drivers "
                    f"({net.driver} and port {port_name})"
                )
            net.driver = pin
        else:
            net.sinks.append(pin)
        self._topo_cache = None

    def disconnect_pin(self, instance_name: str, pin_name: str) -> None:
        """Detach an instance pin from its net (used by DFT rewiring)."""
        inst = self.instance(instance_name)
        net_name = inst.connections.pop(pin_name, None)
        if net_name is None:
            return
        net = self.net(net_name)
        pin = inst.pin(pin_name)
        if net.driver == pin:
            net.driver = None
        else:
            net.sinks = [s for s in net.sinks if s != pin]
        self._topo_cache = None

    def retarget_sink(self, sink: Pin, new_net_name: str) -> None:
        """Move one sink pin from its current net onto *new_net_name*.

        This is the primitive wrapper insertion uses to splice a mux in
        front of a TSV's sink logic.
        """
        if sink.is_port:
            port = self.port(sink.owner_name)
            old = port.net
            if old is None:
                raise NetlistError(f"{self.name}: port {sink.owner_name} unconnected")
            old_net = self.net(old)
            old_net.sinks = [s for s in old_net.sinks if s != sink]
            port.net = None
            self.connect_port(sink.owner_name, new_net_name)
        else:
            inst = self.instance(sink.owner_name)
            old = inst.connections.get(sink.pin_name)
            if old is None:
                raise NetlistError(f"{self.name}: {sink} unconnected")
            old_net = self.net(old)
            old_net.sinks = [s for s in old_net.sinks if s != sink]
            del inst.connections[sink.pin_name]
            self.connect(sink.owner_name, sink.pin_name, new_net_name)
        self._topo_cache = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def instance(self, name: str) -> Instance:
        try:
            return self.instances[name]
        except KeyError:
            raise NetlistError(f"{self.name}: unknown instance {name!r}") from None

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise NetlistError(f"{self.name}: unknown net {name!r}") from None

    def port(self, name: str) -> Port:
        try:
            return self.ports[name]
        except KeyError:
            raise NetlistError(f"{self.name}: unknown port {name!r}") from None

    # ------------------------------------------------------------------
    # Views used throughout the system
    # ------------------------------------------------------------------
    def flip_flops(self) -> List[Instance]:
        return [i for i in self.instances.values() if i.is_sequential]

    def scan_flip_flops(self) -> List[Instance]:
        return [i for i in self.instances.values() if i.is_scan]

    def ports_of_kind(self, kind: PortKind) -> List[Port]:
        return [p for p in self.ports.values() if p.kind == kind]

    def inbound_tsvs(self) -> List[Port]:
        return self.ports_of_kind(PortKind.TSV_INBOUND)

    def outbound_tsvs(self) -> List[Port]:
        return self.ports_of_kind(PortKind.TSV_OUTBOUND)

    def primary_inputs(self) -> List[Port]:
        return self.ports_of_kind(PortKind.PRIMARY_INPUT)

    def primary_outputs(self) -> List[Port]:
        return self.ports_of_kind(PortKind.PRIMARY_OUTPUT)

    @property
    def gate_count(self) -> int:
        """Number of combinational gates (the paper's ``#gates``)."""
        return sum(1 for i in self.instances.values() if not i.is_sequential)

    @property
    def tsv_count(self) -> int:
        return len(self.inbound_tsvs()) + len(self.outbound_tsvs())

    # ------------------------------------------------------------------
    # Electrical helpers
    # ------------------------------------------------------------------
    def sink_cap_ff(self, net_name: str) -> float:
        """Total input capacitance hanging on a net (pins only, no wire)."""
        net = self.net(net_name)
        total = 0.0
        for sink in net.sinks:
            if sink.is_port:
                continue  # port sinks are die boundaries; no pin cap
            inst = self.instance(sink.owner_name)
            total += inst.cell.input_cap(sink.pin_name)
        return total

    def location_of(self, name: str) -> Tuple[float, float]:
        """Physical (x, y) of an instance or port, post-placement."""
        if name in self.instances:
            inst = self.instances[name]
            return (inst.x, inst.y)
        if name in self.ports:
            port = self.ports[name]
            return (port.x, port.y)
        raise NetlistError(f"{self.name}: unknown object {name!r}")

    # ------------------------------------------------------------------
    # Cloning (DFT builds test-mode netlists on a copy)
    # ------------------------------------------------------------------
    def clone(self, name: Optional[str] = None) -> "Netlist":
        other = Netlist(name or self.name, self.library)
        for net in self.nets.values():
            copy = other.add_net(net.name)
            copy.driver = net.driver
            copy.sinks = list(net.sinks)
        for port in self.ports.values():
            copy_port = Port(name=port.name, kind=port.kind, net=port.net,
                             x=port.x, y=port.y)
            other.ports[port.name] = copy_port
        for inst in self.instances.values():
            copy_inst = Instance(
                name=inst.name,
                cell=inst.cell,
                connections=dict(inst.connections),
                x=inst.x,
                y=inst.y,
            )
            other.instances[inst.name] = copy_inst
        return other

    def stats(self) -> Dict[str, int]:
        return {
            "instances": len(self.instances),
            "gates": self.gate_count,
            "flip_flops": len(self.flip_flops()),
            "scan_flip_flops": len(self.scan_flip_flops()),
            "nets": len(self.nets),
            "ports": len(self.ports),
            "inbound_tsvs": len(self.inbound_tsvs()),
            "outbound_tsvs": len(self.outbound_tsvs()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"Netlist({self.name!r}, gates={s['gates']}, ffs={s['flip_flops']}, "
            f"tsvs={s['inbound_tsvs']}+{s['outbound_tsvs']})"
        )


NodeRef = Union[Instance, Port]
