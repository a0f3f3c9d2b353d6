"""Gate-level netlist substrate.

This package is the structural foundation every other subsystem builds
on: a 45 nm-like standard-cell :class:`~repro.netlist.library.Library`
with logic functions, pin capacitances and a linear delay model; the
:class:`~repro.netlist.core.Netlist` container (instances, nets, ports);
levelization and fan-in/fan-out cone analysis; and a structural
validator. It imports nothing outside ``repro.netlist`` and
``repro.util``.
"""

from repro.netlist.library import (
    CellPin,
    CellType,
    Library,
    PinDirection,
    default_library,
    evaluate_cell,
)
from repro.netlist.core import (
    Instance,
    Net,
    Netlist,
    Pin,
    Port,
    PortDirection,
    PortKind,
)
from repro.netlist.builder import NetlistBuilder
from repro.netlist.topology import (
    combinational_levels,
    fanin_cone,
    fanout_cone,
    topological_instances,
)
from repro.netlist.validate import validate_netlist

__all__ = [
    "CellPin",
    "CellType",
    "Library",
    "PinDirection",
    "default_library",
    "evaluate_cell",
    "Instance",
    "Net",
    "Netlist",
    "Pin",
    "Port",
    "PortDirection",
    "PortKind",
    "NetlistBuilder",
    "combinational_levels",
    "fanin_cone",
    "fanout_cone",
    "topological_instances",
    "validate_netlist",
]
