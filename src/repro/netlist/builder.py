"""Fluent construction helper for netlists.

The raw :class:`~repro.netlist.core.Netlist` mutators are deliberately
low-level (one pin at a time). The builder adds the idioms every
generator and DFT pass needs: "new gate with these input nets, give me
the output net", automatic unique naming, and scan-FF creation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.netlist.core import Instance, Netlist, PortKind
from repro.netlist.library import Library, default_library
from repro.util.errors import NetlistError


class NetlistBuilder:
    """Incrementally build a :class:`Netlist`."""

    def __init__(self, name: str, library: Optional[Library] = None) -> None:
        self.netlist = Netlist(name, library or default_library())
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def unique_name(self, prefix: str) -> str:
        """Return a name like ``prefix_7`` unused by nets and instances."""
        while True:
            count = self._counters.get(prefix, 0)
            self._counters[prefix] = count + 1
            candidate = f"{prefix}_{count}"
            if (candidate not in self.netlist.instances
                    and candidate not in self.netlist.nets
                    and candidate not in self.netlist.ports):
                return candidate

    # ------------------------------------------------------------------
    def add_input(self, name: str, kind: PortKind = PortKind.PRIMARY_INPUT) -> str:
        """Add an input-direction port driving a same-named net."""
        net = self.netlist.add_net(name)
        self.netlist.add_port(name + "__port", kind, net=name)
        return net.name

    def add_output(self, name: str, source_net: str,
                   kind: PortKind = PortKind.PRIMARY_OUTPUT) -> str:
        """Add an output-direction port observing *source_net*."""
        port = self.netlist.add_port(name + "__port", kind)
        self.netlist.connect_port(port.name, source_net)
        return port.name

    def add_gate(self, cell_name: str, inputs: Sequence[str],
                 name: Optional[str] = None, output_net: Optional[str] = None) -> str:
        """Instantiate a combinational cell fed by *inputs* (net names).

        Returns the output net name.
        """
        cell = self.netlist.library.get(cell_name)
        input_pins = cell.data_input_pins
        if len(inputs) != len(input_pins):
            raise NetlistError(
                f"{cell_name} takes {len(input_pins)} inputs, got {len(inputs)}"
            )
        inst_name = name or self.unique_name(cell_name.split("_")[0].lower())
        out_net = output_net or self.unique_name("n")
        inst = self.netlist.add_instance(inst_name, cell_name)
        for pin, net in zip(input_pins, inputs):
            self.netlist.connect(inst_name, pin.name, net)
        self.netlist.connect(inst_name, cell.output_pin.name, out_net)
        return out_net

    def add_flip_flop(self, d_net: str, clock_net: str, scan: bool = True,
                      name: Optional[str] = None,
                      q_net: Optional[str] = None) -> Instance:
        """Instantiate a (scan) flip-flop; returns the instance.

        Scan-chain pins (SI/SE) are left unconnected here; scan stitching
        is a separate DFT pass (:mod:`repro.dft.scan`).
        """
        cell_name = "SDFF_X1" if scan else "DFF_X1"
        inst_name = name or self.unique_name("ff")
        inst = self.netlist.add_instance(inst_name, cell_name)
        self.netlist.connect(inst_name, "D", d_net)
        self.netlist.connect(inst_name, "CK", clock_net)
        out = q_net or self.unique_name("q")
        self.netlist.connect(inst_name, "Q", out)
        return inst

    def add_clock(self, name: str = "clk") -> str:
        return self.add_input(name, kind=PortKind.CLOCK)

    # ------------------------------------------------------------------
    def finish(self) -> Netlist:
        return self.netlist
