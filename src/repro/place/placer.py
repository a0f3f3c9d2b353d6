"""Force-directed placement with grid legalization and TSV arrays.

Algorithm
---------
1. Die floorplan: side length from total cell area over a target
   utilization; standard cells occupy a uniform site grid.
2. Peripheral ports (primary I/O, clock, scan) are spread along the die
   edges; TSV ports get a dedicated uniform array of TSV sites across
   the die interior, as 3D-IC via-first/middle flows do.
3. Iterative force-directed refinement: each movable object moves to
   the weighted centroid of its net neighbours (ports heavier), damped.
4. Legalization: cells are snapped to distinct grid sites preserving
   spatial order; TSVs snap to distinct TSV-array sites greedily.

The result writes ``x``/``y`` on every instance and port, which is all
downstream consumers (STA wire delay, `distance(n1,n2)` in Algorithm 1)
need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netlist.core import Netlist
from repro.util.rng import DeterministicRng


@dataclass
class PlacementConfig:
    utilization: float = 0.70
    iterations: int = 12
    #: damping of each force step (0 = frozen, 1 = jump to centroid)
    damping: float = 0.80
    #: weight of port anchors relative to cell neighbours
    port_weight: float = 2.0
    seed: int = 2019


@dataclass
class PlacementResult:
    """Summary of one die placement."""

    die_width_um: float
    die_height_um: float
    sites: int
    tsv_sites: int
    iterations: int


def _peripheral_positions(count: int, width: float, height: float
                          ) -> List[Tuple[float, float]]:
    """Evenly spread *count* points along the die boundary."""
    if count <= 0:
        return []
    perimeter = 2.0 * (width + height)
    positions: List[Tuple[float, float]] = []
    for i in range(count):
        t = (i + 0.5) / count * perimeter
        if t < width:
            positions.append((t, 0.0))
        elif t < width + height:
            positions.append((width, t - width))
        elif t < 2 * width + height:
            positions.append((2 * width + height - t, height))
        else:
            positions.append((0.0, perimeter - t))
    return positions


def _tsv_array(count: int, width: float, height: float
               ) -> List[Tuple[float, float]]:
    """A uniform interior array with at least *count* TSV sites."""
    if count <= 0:
        return []
    cols = max(1, int(math.ceil(math.sqrt(count * width / max(height, 1e-9)))))
    rows = max(1, int(math.ceil(count / cols)))
    sites: List[Tuple[float, float]] = []
    for r in range(rows):
        for c in range(cols):
            x = (c + 0.5) / cols * width
            y = (r + 0.5) / rows * height
            sites.append((x, y))
    return sites


def place_die(netlist: Netlist, config: Optional[PlacementConfig] = None
              ) -> PlacementResult:
    """Place *netlist* in-place; returns a :class:`PlacementResult`."""
    config = config or PlacementConfig()
    rng = DeterministicRng(config.seed).child("place", netlist.name)

    instances = list(netlist.instances.values())
    total_area = sum(inst.cell.area_um2 for inst in instances) or 1.0
    die_area = total_area / config.utilization
    width = height = math.sqrt(die_area)

    # ---- fixed port sites ------------------------------------------------
    peripheral = [p for p in netlist.ports.values() if not p.is_tsv]
    tsvs = [p for p in netlist.ports.values() if p.is_tsv]
    for port, (x, y) in zip(peripheral,
                            _peripheral_positions(len(peripheral), width, height)):
        port.x, port.y = x, y

    tsv_sites = _tsv_array(len(tsvs), width, height)
    # Temporary positions; refined with the force loop, snapped at the end.
    for port, (x, y) in zip(tsvs, tsv_sites):
        port.x, port.y = x, y

    # ---- initial cell positions -------------------------------------------
    for inst in instances:
        inst.x = rng.uniform(0.0, width)
        inst.y = rng.uniform(0.0, height)

    # ---- adjacency (object name -> [(neighbour name, weight)]) -------------
    neighbours: Dict[str, List[Tuple[str, float]]] = {}

    def add_edge(a: str, b: str, weight: float) -> None:
        neighbours.setdefault(a, []).append((b, weight))
        neighbours.setdefault(b, []).append((a, weight))

    for net in netlist.nets.values():
        endpoints: List[Tuple[str, bool]] = []
        if net.driver is not None:
            endpoints.append((net.driver.owner_name, net.driver.is_port))
        for sink in net.sinks:
            endpoints.append((sink.owner_name, sink.is_port))
        if len(endpoints) < 2:
            continue
        # Star model around the driver keeps the graph sparse.
        hub_name, hub_is_port = endpoints[0]
        for name, is_port in endpoints[1:]:
            weight = config.port_weight if (is_port or hub_is_port) else 1.0
            add_edge(hub_name, name, weight)

    positions: Dict[str, Tuple[float, float]] = {}
    movable: Dict[str, bool] = {}
    for inst in instances:
        positions[inst.name] = (inst.x, inst.y)
        movable[inst.name] = True
    for port in netlist.ports.values():
        positions[port.name] = (port.x, port.y)
        movable[port.name] = port.is_tsv  # TSVs float until snapped

    # ---- force-directed refinement -----------------------------------------
    for _iteration in range(config.iterations):
        updates: Dict[str, Tuple[float, float]] = {}
        for name, is_movable in movable.items():
            if not is_movable:
                continue
            edges = neighbours.get(name)
            if not edges:
                continue
            sx = sy = sw = 0.0
            for other, weight in edges:
                ox, oy = positions[other]
                sx += weight * ox
                sy += weight * oy
                sw += weight
            cx, cy = sx / sw, sy / sw
            x, y = positions[name]
            nx = x + config.damping * (cx - x)
            ny = y + config.damping * (cy - y)
            updates[name] = (min(max(nx, 0.0), width), min(max(ny, 0.0), height))
        positions.update(updates)

    # ---- legalize cells onto a uniform site grid -----------------------------
    count = len(instances)
    if count:
        cols = max(1, int(math.ceil(math.sqrt(count))))
        rows = int(math.ceil(count / cols))
        # Order cells by placement position (y-major), assign sites in the
        # same order: preserves spatial order, enforces uniform density.
        ordered = sorted(instances,
                         key=lambda i: (positions[i.name][1], positions[i.name][0]))
        for index, inst in enumerate(ordered):
            r, c = divmod(index, cols)
            inst.x = (c + 0.5) / cols * width
            inst.y = (r + 0.5) / rows * height

    # ---- snap TSVs to distinct array sites -----------------------------------
    if len(tsvs) <= 500:
        # Exact greedy nearest-site assignment.
        free_sites = list(tsv_sites)
        for port in tsvs:
            x, y = positions[port.name]
            best_index = min(range(len(free_sites)),
                             key=lambda i: abs(free_sites[i][0] - x)
                             + abs(free_sites[i][1] - y))
            port.x, port.y = free_sites.pop(best_index)
    else:
        # Large arrays: order-preserving assignment (sort both by (y, x)
        # and zip) — O(n log n) and spatially consistent.
        ordered_ports = sorted(tsvs, key=lambda p: (positions[p.name][1],
                                                    positions[p.name][0]))
        ordered_sites = sorted(tsv_sites[:len(tsvs)], key=lambda s: (s[1], s[0]))
        for port, (x, y) in zip(ordered_ports, ordered_sites):
            port.x, port.y = x, y

    return PlacementResult(
        die_width_um=width,
        die_height_um=height,
        sites=count,
        tsv_sites=len(tsv_sites),
        iterations=config.iterations,
    )
