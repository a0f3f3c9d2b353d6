"""Deterministic gate-level die generator calibrated to Table II.

``generate_die(profile, seed)`` produces a die netlist with *exactly*
``profile.scan_flip_flops`` scan FFs, ``profile.gates`` combinational
gates, ``profile.inbound_tsvs`` inbound and ``profile.outbound_tsvs``
outbound TSV ports.

Structure. The die is built as a set of *clusters* (a few dozen gates
each) of layered DAG logic, with a small fraction of cross-cluster
wires — the modularity a synthesized RTL design actually has. This is
load-bearing for the WCM reproduction:

* fan-in/fan-out cones stay mostly inside one cluster, so most
  (FF, TSV) and (TSV, TSV) pairs have **non-overlapping** cones — the
  no-overlap baseline [4] gets a rich sharing graph, and allowing
  overlapped cones (the paper's expansion) adds the few percent of
  intra-cluster pairs on top (Fig. 7's ≈2.8 %);
* every gate is pre-assigned a level in ``1..max_depth``, so depth is
  hard-bounded by construction (local cones, sane critical paths);
* designated "hub" signals carry larger fan-out, so a few inbound
  TSVs exceed ``cap_th`` and are excluded by Algorithm 1's node
  filter;
* nearly every signal is consumed (dead logic would be unobservable
  and would deflate fault coverage artificially);
* the cell mix includes XOR-class gates that resist random patterns,
  so the ATPG's deterministic phase is exercised.

The layered-cluster engine (:class:`_ClusterGenerator`: source ports,
level plan, level setter, filler picks, gate clouds, hub promotion,
fan-out caps, late-signal picks and sinks) is written once here; the
topology families of :mod:`repro.bench.families` run it too. A
generator subclass only deals the sources over its clusters, names the
clusters each cluster may tap, and picks a gate's inputs — the die runs
a 128-bit signature redundancy filter, a family bridges its topology
edges.

Generation is reproducible: same (profile, seed) -> identical netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.itc99 import DieProfile
from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import Netlist, PortKind
from repro.netlist.library import LOGIC_FUNCTIONS, Library
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRng

#: width of the signature simulation used by the redundancy filter
_SIG_BITS = 128
_SIG_MASK = (1 << _SIG_BITS) - 1

#: (cell name, weight, #data inputs) — weights roughly follow a
#: synthesized-netlist cell histogram at 45 nm.
_GATE_MIX: Tuple[Tuple[str, float, int], ...] = (
    ("NAND2_X1", 22.0, 2),
    ("NOR2_X1", 14.0, 2),
    ("INV_X1", 14.0, 1),
    ("AND2_X1", 9.0, 2),
    ("OR2_X1", 9.0, 2),
    ("NAND3_X1", 5.0, 3),
    ("NOR3_X1", 3.0, 3),
    ("AND3_X1", 2.0, 3),
    ("OR3_X1", 2.0, 3),
    ("XOR2_X1", 4.0, 2),
    ("XNOR2_X1", 2.0, 2),
    ("AOI21_X1", 3.0, 3),
    ("OAI21_X1", 3.0, 3),
    ("MUX2_X1", 2.0, 3),
    ("BUF_X1", 2.0, 1),
)


def check_knobs(knobs) -> None:
    """Reject engine knobs no netlist can be built from.

    *knobs* is a :class:`DieGeneratorConfig` or a
    :class:`repro.bench.families.FamilySpec`; both call this at
    construction, under the same knob names.
    """
    if knobs.max_depth < 2:
        raise ReproError(f"need max_depth >= 2, got {knobs.max_depth}")
    if knobs.cluster_gates < 1:
        raise ReproError(f"need cluster_gates >= 1, got "
                         f"{knobs.cluster_gates}")
    if knobs.max_fanout < 2 or knobs.hub_fanout < knobs.max_fanout:
        raise ReproError("need max_fanout >= 2 and hub_fanout >= "
                         "max_fanout")
    if knobs.tsv_max_fanout < 1:
        raise ReproError(f"need tsv_max_fanout >= 1, got "
                         f"{knobs.tsv_max_fanout}")
    if knobs.primary_inputs < 0 or knobs.primary_outputs < 0:
        raise ReproError("primary input/output counts must be >= 0")
    for name in ("p_cross", "p_unused", "p_hub", "hub_fraction",
                 "hub_tsv_fraction"):
        if not 0.0 <= getattr(knobs, name) <= 1.0:
            raise ReproError(f"{name} must lie in [0, 1], got "
                             f"{getattr(knobs, name)}")


@dataclass
class DieGeneratorConfig:
    """Structural knobs of the generator (defaults used by experiments)."""

    #: primary inputs/outputs in addition to TSVs; small, as in a deeply
    #: partitioned die where most I/O crosses TSVs.
    primary_inputs: int = 4
    primary_outputs: int = 2
    #: hard bound on combinational depth
    max_depth: int = 12
    #: target gates per cluster (modularity grain)
    cluster_gates: int = 24
    #: hard cap on cluster count
    max_clusters: int = 1024
    #: minimum level-0 sources per cluster — a cluster computing dozens
    #: of gates from two or three variables would be mostly redundant
    #: logic (untestable faults), which synthesized netlists are not
    min_sources_per_cluster: int = 10
    #: probability that a filler input crosses into another cluster
    #: (taps foreign *sources* only, keeping fan-in cones modular)
    p_cross: float = 0.10
    #: probability that a filler input comes from the unused queue
    #: (raised automatically under backlog pressure)
    p_unused: float = 0.50
    #: probability of drawing a designated hub signal
    p_hub: float = 0.02
    #: fraction of inbound TSVs promoted to hubs (high fan-out)
    hub_tsv_fraction: float = 0.03
    #: fraction of gates promoted to hubs
    hub_fraction: float = 0.01
    #: fan-out cap for ordinary signals (real flows buffer beyond this)
    max_fanout: int = 8
    #: fan-out cap for hub signals
    hub_fanout: int = 12
    #: fan-out cap for non-hub inbound TSV nets — keeps their load under
    #: ``cap_th`` so only hub TSVs are excluded by Algorithm 1 (a few %)
    tsv_max_fanout: int = 4
    #: keep each cluster's top layer small enough for its sinks
    top_layer_sink_fraction: float = 0.5

    def __post_init__(self) -> None:
        check_knobs(self)
        if self.min_sources_per_cluster < 1:
            raise ReproError(f"need min_sources_per_cluster >= 1, got "
                             f"{self.min_sources_per_cluster}")


class _ClusterPool:
    """Per-cluster layered signal pool with lazily pruned unused queues."""

    def __init__(self, max_depth: int) -> None:
        self.max_depth = max_depth
        self.by_level: List[List[str]] = [[] for _ in range(max_depth + 1)]
        self.levels: Dict[str, int] = {}
        self.unused_by_level: List[List[str]] = [[] for _ in range(max_depth + 1)]

    def add(self, name: str, level: int) -> None:
        level = min(level, self.max_depth)
        self.by_level[level].append(name)
        self.levels[name] = level
        self.unused_by_level[level].append(name)

    def pop_unused_below(self, level: int, unused_set: set) -> Optional[str]:
        """An unused signal at the deepest level below *level*."""
        for l in range(level - 1, -1, -1):
            queue = self.unused_by_level[l]
            while queue:
                candidate = queue[-1]
                if candidate in unused_set:
                    return candidate
                queue.pop()
        return None


def _split(total: int, count: int) -> List[int]:
    base, extra = divmod(total, count)
    return [base + (1 if i < extra else 0) for i in range(count)]


class _ClusterGenerator:
    """The layered-cluster engine: sources, gate clouds and sinks.

    A subclass constructs it over its cluster count, then deals the
    PI/TSV/FF sources (:meth:`_deal`), fills :attr:`neighbors` (the
    clusters each cluster may tap), :attr:`hubs_by_cluster` (the hub
    list each cluster draws from) and :attr:`p_cross`, and implements
    :meth:`_pick_inputs`.
    """

    #: the TSV fan-out caps are hard bounds: no fallback pick lands on
    #: an over-cap inbound TSV (the families promise it; the die lets
    #: its last-resort picks exceed them)
    hard_tsv_caps = False

    def __init__(self, knobs, name: str, library: Optional[Library],
                 rng: DeterministicRng, mix: Sequence[Tuple[str, float, int]],
                 clusters: int, counts: Tuple[int, int, int, int]) -> None:
        self.knobs = knobs
        self.rng = rng
        self.builder = NetlistBuilder(name, library)
        self.mix = mix
        self.gates, self.ffs, self.tsv_in, tsv_out = counts
        self.n_clusters = clusters
        self.pools = [_ClusterPool(knobs.max_depth) for _ in range(clusters)]
        self.pis_per_cluster = [0] * clusters
        self.tsvin_per_cluster = [0] * clusters
        self.ffs_per_cluster = [0] * clusters
        self.gates_per_cluster = _split(self.gates, clusters)
        self.tsvout_per_cluster = _split(tsv_out, clusters)
        self.pos_per_cluster = _split(knobs.primary_outputs, clusters)
        self.neighbors: List[List[int]] = []
        self.hubs_by_cluster: List[List[str]] = []
        self.p_cross: List[float] = []
        self.clock_net = ""
        self.ff_q_nets: List[str] = []
        self.use_counts: Dict[str, int] = {}
        self.unused_set: set = set()
        self.hub_set: set = set()
        self.tsv_set: set = set()
        self.cluster_of_net: Dict[str, int] = {}
        self.remaining_slots = 0

    # ------------------------------------------------------------------
    def run(self) -> Netlist:
        self._create_sources()
        self._create_clouds()
        self._create_sinks()
        return self.builder.finish()

    def _deal(self, tags: List[str], offset: int = 0) -> None:
        """Deal source *tags* (``pi``/``tsvin``/``ff``) round-robin over
        the clusters, starting at cluster *offset*."""
        per = {"pi": self.pis_per_cluster, "tsvin": self.tsvin_per_cluster,
               "ff": self.ffs_per_cluster}
        for index, tag in enumerate(tags):
            per[tag][(offset + index) % self.n_clusters] += 1

    def _pick_inputs(self, cluster: int, level: int, cell_name: str,
                     n_inputs: int) -> List[str]:
        raise NotImplementedError

    def _register(self, cluster: int, name: str, level: int,
                  hub: bool = False, is_tsv: bool = False) -> None:
        self.pools[cluster].add(name, level)
        self.cluster_of_net[name] = cluster
        self.use_counts[name] = 0
        self.unused_set.add(name)
        if hub:
            self.hub_set.add(name)
            self.hubs_by_cluster[cluster].append(name)
        if is_tsv:
            self.tsv_set.add(name)

    def _mark_used(self, name: str) -> None:
        self.use_counts[name] += 1
        self.unused_set.discard(name)

    def _fanout_ok(self, name: str) -> bool:
        knobs = self.knobs
        if name in self.hub_set:
            cap = knobs.hub_fanout
        elif name in self.tsv_set:
            cap = knobs.tsv_max_fanout
        else:
            cap = knobs.max_fanout
        return self.use_counts[name] < cap

    def _within_caps(self, bucket: List[str]) -> List[str]:
        """*bucket* less its TSVs under hard TSV caps, unless that
        leaves nothing."""
        if not self.hard_tsv_caps:
            return bucket
        return [c for c in bucket if c not in self.tsv_set] or bucket

    # ------------------------------------------------------------------
    def _create_sources(self) -> None:
        knobs, rng = self.knobs, self.rng
        self.clock_net = self.builder.add_clock("clk")

        hub_picks = set(rng.sample(
            range(self.tsv_in),
            max(1, round(self.tsv_in * knobs.hub_tsv_fraction)))) \
            if self.tsv_in else set()

        pi_index = tsv_index = ff_index = 0
        for cluster in range(self.n_clusters):
            for _ in range(self.pis_per_cluster[cluster]):
                net = self.builder.add_input(f"pi{pi_index}")
                pi_index += 1
                self._register(cluster, net, level=0)
            for _ in range(self.tsvin_per_cluster[cluster]):
                net = self.builder.add_input(f"tsvin{tsv_index}",
                                             kind=PortKind.TSV_INBOUND)
                self._register(cluster, net, level=0,
                               hub=(tsv_index in hub_picks), is_tsv=True)
                tsv_index += 1
            for _ in range(self.ffs_per_cluster[cluster]):
                net_name = f"ffq{ff_index}"
                ff_index += 1
                self.builder.netlist.add_net(net_name)
                self.ff_q_nets.append(net_name)
                self._register(cluster, net_name, level=0)

    # ------------------------------------------------------------------
    def _level_plan(self, cluster: int) -> List[int]:
        max_depth = self.knobs.max_depth
        budget = self.gates_per_cluster[cluster]
        if budget <= 0:
            return []
        # Depth varies per cluster: real designs mix shallow and deep
        # paths, which is where outbound-TSV slack diversity (and hence
        # the s_th filter's bite) comes from.
        low = max(2, max_depth // 2)
        depth = self.rng.child("depth", cluster).randint(low, max_depth)
        return _split(budget, min(depth, max(1, budget)))

    def _pick_level_setter(self, cluster: int, level: int) -> str:
        pool, rng = self.pools[cluster], self.rng
        queue = pool.unused_by_level[level - 1]
        while queue and queue[-1] not in self.unused_set:
            queue.pop()
        # Usually take the unused head; sometimes randomize so the
        # die's redundancy-filter retries see different level setters.
        if queue and rng.random() < 0.8:
            return queue[-1]
        candidates = pool.by_level[level - 1]
        if not candidates:
            # Tiny cluster with an empty layer: any lower local layer.
            for l in range(level - 1, -1, -1):
                if pool.by_level[l]:
                    candidates = pool.by_level[l]
                    break
        for _attempt in range(8):
            candidate = rng.choice(candidates)
            if self._fanout_ok(candidate):
                return candidate
        return rng.choice(self._within_caps(candidates))

    def _pick_filler(self, cluster: int, level: int,
                     exclude: List[str]) -> str:
        knobs, rng = self.knobs, self.rng
        pool = self.pools[cluster]
        hard = self.hard_tsv_caps
        pressure = len(self.unused_set) / max(1, self.remaining_slots)
        p_unused = max(knobs.p_unused, min(0.98, 1.4 * pressure))
        excluded = set(exclude)
        neighbors = self.neighbors[cluster]
        hubs = self.hubs_by_cluster[cluster]

        for _attempt in range(8):
            draw = rng.random()
            candidate: Optional[str] = None
            if draw < p_unused:
                candidate = pool.pop_unused_below(level, self.unused_set)
            elif hubs and draw < p_unused + knobs.p_hub:
                candidate = rng.choice(hubs)
            if candidate is None:
                # Random draw: mostly local; cross-cluster taps read
                # foreign level-0 sources only, so a deep fan-in cone
                # imports single foreign sources, not foreign subcones.
                if neighbors and rng.random() < self.p_cross[cluster]:
                    bucket = self.pools[rng.choice(neighbors)].by_level[0]
                else:
                    bucket = pool.by_level[rng.randint(0, level - 1)]
                if not bucket:
                    continue
                candidate = rng.choice(bucket)
            if candidate in excluded:
                continue
            # All picks must respect the global level bound.
            owner = self.pools[self.cluster_of_net[candidate]]
            if owner.levels[candidate] >= level:
                continue
            if hard and candidate in self.tsv_set \
                    and not self._fanout_ok(candidate):
                continue  # hard TSV caps are never relaxed by retries
            if not self._fanout_ok(candidate) and _attempt < 6:
                continue
            return candidate

        # Fallback: any local signal below the level (not a TSV under
        # hard caps).
        for _attempt in range(32):
            bucket = pool.by_level[rng.randint(0, level - 1)]
            if not bucket:
                continue
            candidate = rng.choice(bucket)
            if candidate not in excluded \
                    and not (hard and candidate in self.tsv_set):
                return candidate
        if hard:
            bucket = [c for c in pool.by_level[0] if c not in self.tsv_set]
            if bucket:
                return rng.choice(bucket)
        return exclude[0] if exclude else pool.by_level[0][0]

    def _create_clouds(self) -> None:
        rng = self.rng
        cells = [g[0] for g in self.mix]
        weights = [g[1] for g in self.mix]
        arity = {g[0]: g[2] for g in self.mix}

        gate_cells = rng.choices(cells, weights, k=self.gates)
        self.remaining_slots = sum(arity[c] for c in gate_cells)
        hub_budget = max(1, round(self.gates * self.knobs.hub_fraction))
        gate_index = 0
        for cluster in range(self.n_clusters):
            for level_minus_1, count in enumerate(self._level_plan(cluster)):
                level = level_minus_1 + 1
                for _ in range(count):
                    cell_name = gate_cells[gate_index]
                    gate_index += 1
                    n_inputs = arity[cell_name]
                    self.remaining_slots -= n_inputs
                    chosen = self._pick_inputs(cluster, level, cell_name,
                                               n_inputs)
                    for name in chosen:
                        self._mark_used(name)
                    out_net = self.builder.add_gate(cell_name, chosen)
                    promote = hub_budget > 0 and rng.random() < 0.02
                    if promote:
                        hub_budget -= 1
                    self._register(cluster, out_net, level=level,
                                   hub=promote)

    # ------------------------------------------------------------------
    def _late_signals(self, cluster: int, count: int, taken: set
                      ) -> List[str]:
        """Sink sources from *cluster*, deepest-unused first."""
        pool, rng = self.pools[cluster], self.rng
        chosen: List[str] = []
        ff_q_set = set(self.ff_q_nets)
        skip_tsvs = self.hard_tsv_caps

        for level in range(pool.max_depth, 0, -1):
            if len(chosen) >= count:
                break
            for name in pool.unused_by_level[level]:
                if len(chosen) >= count:
                    break
                if name not in self.unused_set:
                    continue
                if name in taken or name in ff_q_set:
                    continue
                chosen.append(name)
                taken.add(name)

        attempts = 0
        while len(chosen) < count and attempts < 50 * count + 100:
            attempts += 1
            level = pool.max_depth - int((rng.random() ** 1.5)
                                         * pool.max_depth)
            bucket = pool.by_level[min(level, pool.max_depth)]
            if not bucket:
                continue
            candidate = rng.choice(bucket)
            if candidate in taken or candidate in ff_q_set \
                    or (skip_tsvs and candidate in self.tsv_set):
                continue
            chosen.append(candidate)
            taken.add(candidate)

        repeats = [n for l in range(1, pool.max_depth + 1)
                   for n in pool.by_level[l]] \
            or self._within_caps(pool.by_level[0])
        while len(chosen) < count:
            chosen.append(rng.choice(repeats))
        return chosen

    def _create_sinks(self) -> None:
        taken: set = set()
        out_index = ff_index = po_index = 0
        for cluster in range(self.n_clusters):
            for src in self._late_signals(cluster,
                                          self.tsvout_per_cluster[cluster],
                                          taken):
                self._mark_used(src)
                self.builder.add_output(f"tsvout{out_index}", src,
                                        kind=PortKind.TSV_OUTBOUND)
                out_index += 1
            for src in self._late_signals(cluster,
                                          self.ffs_per_cluster[cluster],
                                          taken):
                self._mark_used(src)
                self.builder.add_flip_flop(
                    src, self.clock_net, scan=True, name=f"ff{ff_index}",
                    q_net=self.ff_q_nets[ff_index],
                )
                ff_index += 1
            for src in self._late_signals(cluster,
                                          self.pos_per_cluster[cluster],
                                          taken):
                self._mark_used(src)
                self.builder.add_output(f"po{po_index}", src)
                po_index += 1


class _DieGenerator(_ClusterGenerator):
    """Table II dies: any cluster may tap any other, hubs are global,
    and a 128-bit signature filter re-picks redundant gates."""

    def __init__(self, profile: DieProfile, seed: int,
                 config: DieGeneratorConfig, library: Optional[Library]) -> None:
        total_sources = (config.primary_inputs + profile.inbound_tsvs
                         + profile.scan_flip_flops)
        count = max(1, min(config.max_clusters,
                           round(profile.gates / config.cluster_gates),
                           total_sources // config.min_sources_per_cluster
                           or 1))
        super().__init__(
            config, profile.name, library,
            DeterministicRng(seed).child("die", profile.name), _GATE_MIX,
            count, (profile.gates, profile.scan_flip_flops,
                    profile.inbound_tsvs, profile.outbound_tsvs))
        # Sources are dealt jointly (shuffled round-robin) so every
        # cluster owns at least one level-0 signal; per-type splits
        # would pile all the "extras" onto the early clusters and leave
        # late clusters sourceless.
        tags = (["pi"] * config.primary_inputs
                + ["tsvin"] * profile.inbound_tsvs
                + ["ff"] * profile.scan_flip_flops)
        self.rng.child("source_deal").shuffle(tags)
        self._deal(tags)
        # Every other cluster is a neighbour (a choice over the sorted
        # list draws as a randint over the other indices would); one
        # shared list makes the hubs global.
        self.neighbors = [[o for o in range(count) if o != c]
                          for c in range(count)]
        self.hubs_by_cluster = [[]] * count
        self.p_cross = [config.p_cross] * count
        cells = self.builder.netlist.library
        self.functions = {cell: LOGIC_FUNCTIONS[cells.get(cell).function]
                          for cell, _, _ in _GATE_MIX}
        #: 128-pattern random signature per signal — the redundancy
        #: filter rejects gates whose function collapses to an input,
        #: its complement, or a constant (synthesis would have removed
        #: them, and they are exactly what breeds untestable faults)
        self.signatures: Dict[str, int] = {}
        self.sig_rng = self.rng.child("signatures")
        self._gate_signature = 0

    def _level_plan(self, cluster: int) -> List[int]:
        counts = super()._level_plan(cluster)
        sink_capacity = (self.tsvout_per_cluster[cluster]
                         + self.ffs_per_cluster[cluster]
                         + self.pos_per_cluster[cluster])
        top_cap = max(1, int(sink_capacity
                             * self.knobs.top_layer_sink_fraction))
        if counts and counts[-1] > top_cap:
            excess = counts[-1] - top_cap
            counts[-1] = top_cap
            for i in range(excess):
                counts[i % max(1, len(counts) - 1)] += 1
        return counts

    def _register(self, cluster: int, name: str, level: int,
                  hub: bool = False, is_tsv: bool = False) -> None:
        # A gate output takes its function's signature, a source a
        # random one.
        self.signatures[name] = (self._gate_signature if level
                                 else self.sig_rng.getrandbits(_SIG_BITS))
        super()._register(cluster, name, level, hub, is_tsv)

    def _pick_inputs(self, cluster: int, level: int, cell_name: str,
                     n_inputs: int) -> List[str]:
        fn = self.functions[cell_name]
        chosen: List[str] = []
        signature = 0
        for _retry in range(10):
            chosen = [self._pick_level_setter(cluster, level)]
            while len(chosen) < n_inputs:
                chosen.append(self._pick_filler(cluster, level, chosen))
            sigs = [self.signatures[c] for c in chosen]
            signature = fn(sigs, _SIG_MASK)
            if cell_name in ("INV_X1", "BUF_X1"):
                break
            if signature in (0, _SIG_MASK):
                continue  # constant: redundant gate
            if not self._collapses(fn, sigs, signature):
                break
        self._gate_signature = signature
        return chosen

    @staticmethod
    def _collapses(fn, sigs: List[int], signature: int) -> bool:
        """The gate equals an input or its complement, or a pin whose
        stuck value would not change the function breeds a locally
        untestable fault."""
        for s in sigs:
            if signature == s or signature == (~s & _SIG_MASK):
                return True
        for position in range(len(sigs)):
            for forced in (0, _SIG_MASK):
                trial = list(sigs)
                trial[position] = forced
                if fn(trial, _SIG_MASK) == signature:
                    return True
        return False


def generate_die(profile: DieProfile, seed: int = 2019,
                 config: Optional[DieGeneratorConfig] = None,
                 library: Optional[Library] = None) -> Netlist:
    """Generate a die netlist matching *profile* exactly.

    The result has unstitched scan FFs (SI/SE open) and no placement;
    run :mod:`repro.dft.scan` and :mod:`repro.place` next, as the flow
    in Fig. 6 does.
    """
    generator = _DieGenerator(profile, seed, config or DieGeneratorConfig(),
                              library)
    return generator.run()
