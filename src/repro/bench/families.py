"""Parameterized topology families: grid/chain/ring/star/htree/soc dies.

The ITC'99-calibrated generator (:mod:`repro.bench.generator`) produces
one topology shape. This module adds *families*: the die is still a set
of layered-DAG clusters, built by the generator module's layered-cluster
engine, but the inter-cluster wiring follows an explicit topology with
a closed-form edge set — a 2-D mesh, a pipeline chain, a token ring, a
hub-and-spoke star, a balanced H-tree, or a mixed "soc" blend (a star
of heterogeneous blocks). The topology is the family's part of the
engine: its source deal, its plan-neighbour taps, its per-cluster hubs,
its edge bridging and its hard TSV fan-out caps. Any instance is
reproducible from ``(family, spec, seed)``.

Structural contract (pinned by ``tests/test_families.py``):

* cluster counts and inter-cluster edges match the family's closed
  form (:func:`plan_family`);
* cross-cluster wires run **only** along topology edges and tap foreign
  level-0 sources only, so combinational logic stays acyclic and fan-in
  cones stay modular;
* every topology edge is realized by at least one wire (clusters keep a
  queue of unbridged incident edges and burn one input slot per gate on
  them until the queue drains);
* gate/FF/TSV counts equal the spec exactly; levels are hard-bounded by
  ``max_depth``; inbound-TSV fanout never exceeds ``hub_fanout``.

Scalability: unlike the ITC generator there is no 128-bit signature
redundancy filter — at the 10^6-gate end of ``repro scale`` the filter
would dominate generation time, and the scaling/differential workloads
care about structure and determinism, not ATPG-quality logic.

Fan-out statistics are Rent-style configurable: with ``rent_exponent``
set, the per-slot cross-cluster tap probability is derived from
``T = t * G^p`` (Rent's rule, G = gates per cluster), so bigger
clusters expose proportionally fewer external pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.bench.generator import _GATE_MIX, _ClusterGenerator, check_knobs
from repro.netlist.core import Netlist
from repro.netlist.library import Library
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRng

#: the supported family names, in canonical order
FAMILIES: Tuple[str, ...] = ("grid", "chain", "ring", "star", "htree",
                             "soc")

#: std-cell mix presets: (cell, weight, #data inputs) distributions.
#: "balanced" is the ITC'99-calibrated histogram; the others skew the
#: distribution the way synthesis constraints do (area-driven NAND
#: mapping, datapath XOR logic, control-heavy MUX/AOI logic).
CELL_MIXES: Dict[str, Tuple[Tuple[str, float, int], ...]] = {
    "balanced": _GATE_MIX,
    "nand": (
        ("NAND2_X1", 40.0, 2), ("NAND3_X1", 14.0, 3),
        ("NOR2_X1", 16.0, 2), ("INV_X1", 20.0, 1),
        ("AOI21_X1", 5.0, 3), ("OAI21_X1", 5.0, 3),
    ),
    "xor": (
        ("XOR2_X1", 24.0, 2), ("XNOR2_X1", 12.0, 2),
        ("NAND2_X1", 16.0, 2), ("AND2_X1", 10.0, 2),
        ("OR2_X1", 10.0, 2), ("INV_X1", 12.0, 1),
        ("MUX2_X1", 8.0, 3), ("NOR2_X1", 8.0, 2),
    ),
    "mux": (
        ("MUX2_X1", 26.0, 3), ("AOI21_X1", 14.0, 3),
        ("OAI21_X1", 14.0, 3), ("NAND2_X1", 14.0, 2),
        ("NOR2_X1", 10.0, 2), ("INV_X1", 14.0, 1),
        ("BUF_X1", 8.0, 1),
    ),
}


@dataclass(frozen=True)
class FamilySpec:
    """Size and shape knobs of one family instance (exact counts)."""

    gates: int = 1200
    ffs: int = 72
    tsv_in: int = 24
    tsv_out: int = 24
    primary_inputs: int = 4
    primary_outputs: int = 2
    #: std-cell mix preset name (see :data:`CELL_MIXES`)
    cell_mix: str = "balanced"
    #: target gates per cluster (modularity grain)
    cluster_gates: int = 24
    #: hard bound on combinational depth
    max_depth: int = 12
    #: fan-out caps: ordinary nets, designated hubs, non-hub inbound TSVs
    max_fanout: int = 8
    hub_fanout: int = 16
    tsv_max_fanout: int = 4
    #: fraction of gates promoted to high-fanout hubs
    hub_fraction: float = 0.01
    #: fraction of inbound TSVs promoted to hubs (exceed ``cap_th``)
    hub_tsv_fraction: float = 0.03
    #: per-slot probability of a cross-cluster tap along a topology edge
    p_cross: float = 0.12
    #: base probability of drawing from the unused-signal queue
    p_unused: float = 0.50
    #: probability of drawing a designated hub signal
    p_hub: float = 0.02
    #: Rent's-rule exponent: when set, overrides ``p_cross`` with
    #: ``min(0.5, rent_t * G**(rent_exponent - 1))`` for G gates/cluster
    rent_exponent: Optional[float] = None
    rent_t: float = 2.5

    def __post_init__(self) -> None:
        if self.gates < 1:
            raise ReproError(f"family spec needs >= 1 gate, got "
                             f"{self.gates}")
        if self.ffs < 1:
            raise ReproError(f"family spec needs >= 1 FF, got {self.ffs}")
        if self.tsv_in < 0 or self.tsv_out < 0:
            raise ReproError("family spec TSV counts must be >= 0")
        if self.cell_mix not in CELL_MIXES:
            raise ReproError(f"unknown cell mix {self.cell_mix!r} "
                             f"(have {sorted(CELL_MIXES)})")
        check_knobs(self)

    @classmethod
    def from_density(cls, gates: int, ffs_per_kgate: float = 60.0,
                     tsvs_per_kgate: float = 40.0,
                     tsv_in_fraction: float = 0.5,
                     **overrides) -> "FamilySpec":
        """Derive exact counts from per-kilogate densities.

        Rounding keeps the realized density within one count of the
        request (pinned by the property suite).
        """
        ffs = max(1, round(gates * ffs_per_kgate / 1000.0))
        tsvs = max(0, round(gates * tsvs_per_kgate / 1000.0))
        tsv_in = round(tsvs * tsv_in_fraction)
        return cls(gates=gates, ffs=ffs, tsv_in=tsv_in,
                   tsv_out=tsvs - tsv_in, **overrides)

    def cross_probability(self, cluster_gates: int) -> float:
        if self.rent_exponent is None:
            return self.p_cross
        g = max(1, cluster_gates)
        return min(0.5, self.rent_t * g ** (self.rent_exponent - 1.0))


@dataclass(frozen=True)
class FamilyPlan:
    """Closed-form cluster topology of one family instance."""

    family: str
    clusters: int
    #: inter-cluster edges, each ``(a, b)`` with ``a < b``, sorted
    edges: Tuple[Tuple[int, int], ...]
    #: family-specific dimensions (rows/cols, depth, block sizes)
    shape: Tuple[Tuple[str, int], ...] = ()

    def neighbors(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.clusters)]
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return [sorted(n) for n in out]


def plan_family(family: str, clusters: int) -> FamilyPlan:
    """The topology of *family* over at most *clusters* clusters.

    Families with rigid shapes (grid, htree) round *down* to the
    nearest realizable count, so the result never exceeds the request —
    callers size the request by available level-0 sources.
    """
    clusters = max(1, clusters)
    if family == "grid":
        rows = max(1, math.isqrt(clusters))
        cols = max(1, clusters // rows)
        n = rows * cols
        edges = sorted(
            [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
            + [(r * cols + c, (r + 1) * cols + c)
               for r in range(rows - 1) for c in range(cols)])
        return FamilyPlan("grid", n, tuple(edges),
                          (("cols", cols), ("rows", rows)))
    if family == "chain":
        edges = tuple((i, i + 1) for i in range(clusters - 1))
        return FamilyPlan("chain", clusters, edges,
                          (("length", clusters),))
    if family == "ring":
        if clusters < 3:
            # Degenerate ring: two clusters collapse onto a single
            # chain edge (one collapses to an isolated cluster).
            edges = ((0, 1),) if clusters == 2 else ()
            return FamilyPlan("ring", clusters, edges,
                              (("size", clusters),))
        edges = tuple(sorted([(i, i + 1) for i in range(clusters - 1)]
                             + [(0, clusters - 1)]))
        return FamilyPlan("ring", clusters, edges,
                          (("size", clusters),))
    if family == "star":
        edges = tuple((0, i) for i in range(1, clusters))
        return FamilyPlan("star", clusters, edges,
                          (("leaves", clusters - 1),))
    if family == "htree":
        depth = 0
        while 2 ** (depth + 2) - 1 <= clusters:
            depth += 1
        n = 2 ** (depth + 1) - 1
        edges = tuple(sorted(
            (i, child) for i in range(n)
            for child in (2 * i + 1, 2 * i + 2) if child < n))
        return FamilyPlan("htree", n, edges, (("depth", depth),))
    if family == "soc":
        # A hub cluster (interconnect fabric) fronting three
        # heterogeneous blocks: a grid (compute array), a chain
        # (pipeline) and a ring (token bus), split as evenly as the
        # budget allows.
        rest = clusters - 1
        base, extra = divmod(rest, 3)
        sizes = [base + (1 if i < extra else 0) for i in range(3)]
        edges: List[Tuple[int, int]] = []
        shape: List[Tuple[str, int]] = []
        offset = 1
        for block_family, size in zip(("grid", "chain", "ring"), sizes):
            if size <= 0:
                shape.append((block_family, 0))
                continue
            sub = plan_family(block_family, size)
            edges.extend((a + offset, b + offset) for a, b in sub.edges)
            edges.append((0, offset))
            shape.append((block_family, sub.clusters))
            offset += sub.clusters
        return FamilyPlan("soc", offset, tuple(sorted(edges)),
                          tuple(shape))
    raise ReproError(f"unknown family {family!r} (have {FAMILIES})")


@dataclass
class FamilyInstance:
    """A generated family die plus the structure it was built from."""

    family: str
    spec: FamilySpec
    seed: int
    netlist: Netlist
    plan: FamilyPlan
    #: net name -> owning cluster (sources and gate outputs)
    cluster_of_net: Dict[str, int] = field(default_factory=dict)
    #: instance name -> owning cluster (gates and FFs)
    cluster_of_instance: Dict[str, int] = field(default_factory=dict)
    #: net name -> assigned level (0 = sources)
    levels: Dict[str, int] = field(default_factory=dict)

    def realized_edges(self) -> Set[Tuple[int, int]]:
        """Inter-cluster edges actually carrying at least one wire."""
        out: Set[Tuple[int, int]] = set()
        for net in self.netlist.nets.values():
            src = self.cluster_of_net.get(net.name)
            if src is None:
                continue  # clock / scan-stitch nets
            for sink in net.sinks:
                if sink.is_port:
                    continue
                dst = self.cluster_of_instance.get(sink.owner_name)
                if dst is not None and dst != src:
                    out.add((min(src, dst), max(src, dst)))
        return out


def netlist_fingerprint(netlist: Netlist) -> str:
    """Content fingerprint over the full structural payload — the
    byte-identity surface for family determinism (same payload the ECO
    session and job server fingerprint)."""
    from repro.core.session import netlist_payload
    from repro.util.fingerprint import fingerprint

    return fingerprint(netlist_payload(netlist))


class _FamilyGenerator(_ClusterGenerator):
    """Layered-cluster generation over an explicit topology plan: a
    cluster taps only its plan neighbours, bridges every incident edge,
    keeps its hubs to itself, and never pushes a TSV past its cap."""

    hard_tsv_caps = True

    def __init__(self, family: str, spec: FamilySpec, seed: int,
                 library: Optional[Library], name: Optional[str]) -> None:
        # Clamp by *non-TSV* sources: every cluster must own at least
        # one PI or FF-Q signal, so no fallback path is ever forced
        # onto an over-cap TSV net (the TSV fan-out caps stay hard).
        non_tsv_sources = spec.primary_inputs + spec.ffs
        requested = max(1, min(1024,
                               round(spec.gates / spec.cluster_gates) or 1,
                               non_tsv_sources))
        self.plan = plan_family(family, requested)
        self.family = family
        self.spec = spec
        self.seed = seed
        n = self.plan.clusters
        super().__init__(
            spec, name or f"{family}_g{spec.gates}_s{seed}", library,
            DeterministicRng(seed).child("family", family),
            CELL_MIXES[spec.cell_mix], n,
            (spec.gates, spec.ffs, spec.tsv_in, spec.tsv_out))
        # Two-phase shuffled round-robin deal: PIs and FFs first (the
        # cluster count is clamped so every cluster lands at least one
        # of these non-TSV sources), TSVs separately from a seeded
        # offset. A cluster whose only level-0 source is a TSV would
        # force fallback picks past the TSV fan-out caps.
        tags = ["pi"] * spec.primary_inputs + ["ff"] * spec.ffs
        self.rng.child("source_deal").shuffle(tags)
        self._deal(tags)
        offset = self.rng.child("tsv_deal").randint(0, n - 1) if n > 1 \
            else 0
        self._deal(["tsvin"] * spec.tsv_in, offset)
        self.neighbors = self.plan.neighbors()
        self.hubs_by_cluster = [[] for _ in range(n)]
        self.p_cross = [spec.cross_probability(gates)
                        for gates in self.gates_per_cluster]
        #: unbridged incident topology edges, per cluster
        self.pending_edges: List[List[Tuple[int, int]]] = [
            sorted((min(c, o), max(c, o)) for o in self.neighbors[c])
            for c in range(n)]
        self.bridged: Set[Tuple[int, int]] = set()

    def run(self) -> FamilyInstance:
        netlist = super().run()
        # Each gate output and FF-Q net is driven by a cell of the
        # net's cluster (FF i sinks in the cluster its ffq<i> was dealt).
        cluster_of_instance = {}
        for net, cluster in self.cluster_of_net.items():
            driver = netlist.nets[net].driver
            if not driver.is_port:
                cluster_of_instance[driver.owner_name] = cluster
        levels: Dict[str, int] = {}
        for pool in self.pools:
            levels.update(pool.levels)
        return FamilyInstance(
            family=self.family, spec=self.spec, seed=self.seed,
            netlist=netlist, plan=self.plan,
            cluster_of_net=self.cluster_of_net,
            cluster_of_instance=cluster_of_instance, levels=levels)

    def _pick_bridge(self, cluster: int) -> Optional[str]:
        """A foreign level-0 source across the next unbridged incident
        edge, or None once the cluster's queue has drained."""
        pending = self.pending_edges[cluster]
        while pending:
            edge = pending[0]
            if edge in self.bridged:
                pending.pop(0)
                continue
            other = edge[1] if edge[0] == cluster else edge[0]
            bucket = self.pools[other].by_level[0]
            if not bucket:
                pending.pop(0)
                continue
            for _attempt in range(6):
                candidate = self.rng.choice(bucket)
                if self._fanout_ok(candidate):
                    break
            else:
                # Over-cap: fall back to any non-TSV foreign source
                # (every cluster owns one by construction).
                candidate = self.rng.choice(self._within_caps(bucket))
            pending.pop(0)
            self.bridged.add(edge)
            return candidate
        return None

    def _pick_inputs(self, cluster: int, level: int, cell_name: str,
                     n_inputs: int) -> List[str]:
        chosen: List[str] = []
        # Bridge requirement first: level-1 gates may spend their setter
        # slot on a foreign level-0 source (level 0 < 1 keeps the
        # bound), so even one-input cells can realize a topology edge.
        if level == 1:
            bridge = self._pick_bridge(cluster)
            if bridge is not None:
                chosen.append(bridge)
        if not chosen:
            chosen.append(self._pick_level_setter(cluster, level))
        if len(chosen) < n_inputs:
            bridge = self._pick_bridge(cluster)
            if bridge is not None and bridge not in chosen:
                chosen.append(bridge)
        while len(chosen) < n_inputs:
            chosen.append(self._pick_filler(cluster, level, chosen))
        return chosen


def generate_family(family: str, spec: Optional[FamilySpec] = None,
                    seed: int = 2019, library: Optional[Library] = None,
                    name: Optional[str] = None) -> FamilyInstance:
    """Generate one family instance (netlist + plan + cluster maps).

    Fully deterministic: same ``(family, spec, seed)`` -> byte-identical
    netlist (:func:`netlist_fingerprint`), regardless of
    ``PYTHONHASHSEED`` or worker-process fan-out.
    """
    if family not in FAMILIES:
        raise ReproError(f"unknown family {family!r} (have {FAMILIES})")
    generator = _FamilyGenerator(family, spec or FamilySpec(), seed,
                                 library, name)
    return generator.run()


def generate_family_die(family: str, spec: Optional[FamilySpec] = None,
                        seed: int = 2019,
                        library: Optional[Library] = None,
                        name: Optional[str] = None) -> Netlist:
    """Just the netlist of :func:`generate_family` (unstitched,
    unplaced — run placement and scan stitching next, as with
    :func:`repro.bench.generator.generate_die`)."""
    return generate_family(family, spec, seed, library, name).netlist


def family_die_specs(spec: FamilySpec, dies: int = 4
                     ) -> List[FamilySpec]:
    """Per-die spec variants for a homogeneous family stack: the die
    index only perturbs the TSV split (upper dies trade inbound for
    outbound), mirroring Table II's unequal per-die totals."""
    out: List[FamilySpec] = []
    for index in range(dies):
        shift = min(index, spec.tsv_in // 2, spec.tsv_out // 2)
        out.append(replace(spec, tsv_in=spec.tsv_in - shift,
                           tsv_out=spec.tsv_out + shift))
    return out
