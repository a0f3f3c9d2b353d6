"""Pre-bond test view of a (wrapped) die.

The test view abstracts one scan load/capture/unload cycle into a
combinational problem, which is what ATPG operates on:

* **controllable** nets: primary-input port nets and every flip-flop Q
  net (scan chains make all FFs — including wrapper cells — load-able);
* **constant** nets: ``test_mode`` = 1 (wrapper muxes select the test
  path), ``scan_enable`` = 0 (capture mode);
* **X-source** nets: inbound TSV port nets — pre-bond, the TSV floats.
  Faults sited on these nets are *pre-bond untestable* and excluded
  from the fault universe (the test-coverage convention commercial
  ATPG reports);
* **observed** nets: primary-output port nets and every flip-flop D
  net (captured and unloaded through the scan chain). Outbound TSV
  ports are NOT observed pre-bond — that is exactly why they need
  wrapper observation, which insertion realizes as XOR taps folded
  into FF D nets.

Because shared wrappers are materialized as real muxes/XORs in the
netlist, the coverage effects of sharing (correlated drive values,
XOR observation aliasing) emerge in simulation rather than being
modelled by formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.netlist.core import Netlist, PortKind


@dataclass
class TestView:
    """Combinational abstraction of one scan test cycle."""

    netlist: Netlist
    control_nets: List[str] = field(default_factory=list)
    constant_nets: Dict[str, int] = field(default_factory=dict)
    x_nets: List[str] = field(default_factory=list)
    #: (observer label, net name)
    observe_nets: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def input_count(self) -> int:
        return len(self.control_nets)


def build_prebond_test_view(netlist: Netlist) -> TestView:
    """Build the pre-bond test view of *netlist* (wrapped or bare)."""
    view = TestView(netlist=netlist)

    for port in netlist.ports.values():
        if port.net is None:
            continue
        if port.kind is PortKind.PRIMARY_INPUT:
            view.control_nets.append(port.net)
        elif port.kind is PortKind.TEST_MODE:
            view.constant_nets[port.net] = 1
        elif port.kind is PortKind.SCAN_ENABLE:
            view.constant_nets[port.net] = 0
        elif port.kind is PortKind.TSV_INBOUND:
            view.x_nets.append(port.net)
        elif port.kind is PortKind.PRIMARY_OUTPUT:
            view.observe_nets.append((port.name, port.net))
        elif port.kind is PortKind.PSEUDO_INPUT:
            view.control_nets.append(port.net)
        elif port.kind is PortKind.PSEUDO_OUTPUT:
            view.observe_nets.append((port.name, port.net))

    for ff in netlist.flip_flops():
        q_net = ff.output_net()
        if q_net is not None:
            view.control_nets.append(q_net)
        d_net = ff.connections.get("D")
        if d_net is not None:
            view.observe_nets.append((ff.name, d_net))

    return view
