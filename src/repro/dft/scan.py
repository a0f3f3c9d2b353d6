"""Scan-chain stitching.

Connects every scan flip-flop's SI input into one or more chains fed
from ``scan_in`` ports and observed at ``scan_out`` ports, with a
shared ``scan_enable``. Chain order is placement-aware (serpentine
sort) so the scan wiring is short, as a layout-driven stitcher would
produce. Stitching is re-runnable: wrapper insertion adds new scan
cells, after which the flow unstitches and restitches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.netlist.core import Instance, Netlist, Pin, PortKind
from repro.util.errors import NetlistError


@dataclass
class ScanChain:
    """One stitched chain: ordered FF instance names, head/tail ports."""

    index: int
    flip_flops: List[str]
    scan_in_port: str
    scan_out_port: str

    @property
    def length(self) -> int:
        return len(self.flip_flops)


def _serpentine_order(flip_flops: List[Instance], rows: int = 16) -> List[Instance]:
    """Order FFs row-major with alternating direction (short stitches)."""
    if not flip_flops:
        return []
    ys = [ff.y for ff in flip_flops]
    y_min, y_max = min(ys), max(ys)
    span = (y_max - y_min) or 1.0

    def row_of(ff: Instance) -> int:
        return min(rows - 1, int((ff.y - y_min) / span * rows))

    # Single-pass bucketing keeps each row in flip_flops order (same as
    # a per-row filter), so the stable x-sort yields identical chains.
    buckets: List[List[Instance]] = [[] for _ in range(rows)]
    for ff in flip_flops:
        buckets[row_of(ff)].append(ff)
    ordered: List[Instance] = []
    for row, members in enumerate(buckets):
        members.sort(key=lambda ff: ff.x, reverse=(row % 2 == 1))
        ordered.extend(members)
    return ordered


def unstitch_scan_chains(netlist: Netlist) -> None:
    """Remove all scan stitching (SI/SE connections and scan ports).

    Each net drops its SI/SE sinks in one pass that keeps the order of
    the remaining sinks (pin-by-pin ``disconnect_pin`` would rebuild
    the shared scan-enable net's sink list once per flip-flop)."""
    dropped: Dict[str, Set[Pin]] = {}
    for inst in netlist.scan_flip_flops():
        for pin_name in ("SI", "SE"):
            net_name = inst.connections.pop(pin_name, None)
            if net_name is not None:
                dropped.setdefault(net_name, set()).add(inst.pin(pin_name))
    for net_name, pins in dropped.items():
        net = netlist.net(net_name)
        net.sinks = [s for s in net.sinks if s not in pins]
    for port in list(netlist.ports.values()):
        if port.kind in (PortKind.SCAN_IN, PortKind.SCAN_OUT,
                         PortKind.SCAN_ENABLE):
            net_name = port.net
            if net_name is not None:
                net = netlist.net(net_name)
                pin = port.pin()
                if net.driver == pin:
                    net.driver = None
                net.sinks = [s for s in net.sinks if s != pin]
                if net.driver is None and not net.sinks:
                    del netlist.nets[net_name]
            del netlist.ports[port.name]
    netlist._topo_cache = None


def stitch_scan_chains(netlist: Netlist, chain_count: int = 1,
                       restitch: bool = False) -> List[ScanChain]:
    """Stitch all scan FFs into *chain_count* balanced chains.

    With ``restitch=True`` any existing stitching is removed first.
    """
    if restitch:
        unstitch_scan_chains(netlist)

    flip_flops = netlist.scan_flip_flops()
    for ff in flip_flops:
        if "SI" in ff.connections or "SE" in ff.connections:
            raise NetlistError(
                f"{netlist.name}: {ff.name} already stitched; "
                f"pass restitch=True"
            )
    if not flip_flops:
        return []

    chain_count = max(1, min(chain_count, len(flip_flops)))
    ordered = _serpentine_order(flip_flops)

    se_net = netlist.get_or_add_net("scan_enable")
    if "scan_enable__port" not in netlist.ports:
        netlist.add_port("scan_enable__port", PortKind.SCAN_ENABLE,
                         net=se_net.name)

    chains: List[ScanChain] = []
    per_chain = (len(ordered) + chain_count - 1) // chain_count
    for chain_index in range(chain_count):
        members = ordered[chain_index * per_chain:(chain_index + 1) * per_chain]
        if not members:
            continue
        si_port = f"scan_in{chain_index}__port"
        so_port = f"scan_out{chain_index}__port"
        si_net = netlist.get_or_add_net(f"scan_in{chain_index}")
        netlist.add_port(si_port, PortKind.SCAN_IN, net=si_net.name)

        previous_net = si_net.name
        for ff in members:
            netlist.connect(ff.name, "SI", previous_net)
            netlist.connect(ff.name, "SE", se_net.name)
            previous_net = ff.output_net()
            if previous_net is None:
                raise NetlistError(f"{netlist.name}: {ff.name} has no Q net")
        netlist.add_port(so_port, PortKind.SCAN_OUT)
        netlist.connect_port(so_port, previous_net)
        chains.append(ScanChain(
            index=chain_index,
            flip_flops=[ff.name for ff in members],
            scan_in_port=si_port,
            scan_out_port=so_port,
        ))
    return chains
