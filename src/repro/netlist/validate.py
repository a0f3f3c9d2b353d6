"""Structural netlist validation.

Run after generation and after every DFT transformation; a silent
structural error (floating net, double driver) would corrupt every
downstream measurement, so we fail fast instead.
"""

from __future__ import annotations

from typing import List

from repro.netlist.core import Netlist
from repro.netlist.library import PinDirection
from repro.netlist.topology import topological_instances
from repro.util.errors import NetlistError


def validate_netlist(netlist: Netlist, allow_dangling_outputs: bool = True,
                     allow_undriven_nets: bool = False) -> List[str]:
    """Validate structure; returns a list of warnings, raises on errors.

    *allow_dangling_outputs* tolerates nets with a driver but no sinks
    (common right after TSV rewiring). *allow_undriven_nets* tolerates
    driverless nets, which test views use as X sources.
    """
    warnings: List[str] = []

    # Cross-check instance connections against net records.
    for inst in netlist.instances.values():
        for pin_name, net_name in inst.connections.items():
            if net_name not in netlist.nets:
                raise NetlistError(
                    f"{netlist.name}: {inst.name}.{pin_name} references "
                    f"missing net {net_name!r}"
                )
            net = netlist.nets[net_name]
            pin = inst.pin(pin_name)
            cpin = inst.cell.pin(pin_name)
            if cpin.direction is PinDirection.OUTPUT:
                if net.driver != pin:
                    raise NetlistError(
                        f"{netlist.name}: net {net_name!r} driver record "
                        f"disagrees with {pin}"
                    )
            else:
                if pin not in net.sinks:
                    raise NetlistError(
                        f"{netlist.name}: net {net_name!r} sink record "
                        f"missing {pin}"
                    )
        # All data input pins of an instantiated cell must be tied.
        for cpin in inst.cell.input_pins:
            if cpin.name in ("SI", "SE"):
                continue  # scan pins may be stitched later
            if cpin.name not in inst.connections:
                raise NetlistError(
                    f"{netlist.name}: {inst.name}.{cpin.name} unconnected"
                )

    for port in netlist.ports.values():
        if port.net is None:
            warnings.append(f"port {port.name} unconnected")
            continue
        if port.net not in netlist.nets:
            raise NetlistError(
                f"{netlist.name}: port {port.name} references missing net "
                f"{port.net!r}"
            )

    for net in netlist.nets.values():
        if net.driver is None and not allow_undriven_nets:
            raise NetlistError(f"{netlist.name}: net {net.name!r} has no driver")
        if not net.sinks:
            msg = f"net {net.name} has no sinks"
            if allow_dangling_outputs:
                warnings.append(msg)
            else:
                raise NetlistError(f"{netlist.name}: {msg}")

    # Acyclicity (raises on combinational cycles).
    topological_instances(netlist)
    return warnings
