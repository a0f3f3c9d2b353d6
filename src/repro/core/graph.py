"""WCM graph construction — Algorithm 1 of the paper.

Nodes: available scan FFs plus the TSVs of one direction that pass the
node filters (``cap_th`` for inbound load, ``s_th`` for outbound
slack). Filtered-out TSVs are recorded; they receive dedicated wrapper
cells and count toward the additional-cell total.

Edges (at least one endpoint a TSV, never FF–FF):

1. ``distance(n1, n2) < d_th`` (ours only — [4] has no distance limit),
2. the method's timing model admits the pair,
3. cones non-overlapped — tested with per-node cone *bitsets* — or,
   when overlapped and ``allow_overlap`` is set, the structural
   testability estimate (:mod:`repro.core.testability`) stays within
   ``cov_th``/``p_th``.

The O(n²) sweep runs row by row: one row per TSV over the TSVs after
it, then one row per FF over every TSV. What a pair's checks read about
one node (site, cone bitset, the timing model's per-node terms) is read
once per graph, and a row runs its distances, its timing check (the
model's row forms, :meth:`ReuseTimingModel.share_row` and
:meth:`ReuseTimingModel.reuse_row`), its cone ANDs and its estimates as
passes over the columns, so a pair costs its Manhattan distance, a few
float operations and one big-int AND; only an overlapped FF–TSV pair
also counts the AND's bits for its estimate. Each node's cone bitset is
one DFS over the die's gate graph, compiled once per problem. The sweep
visits every pair: at the paper's ``d_th`` (0.8 × the die's
half-perimeter) the distance limit rejects under 1 % of them, so a
spatial index would prune almost nothing.

The returned :class:`WcmGraph` carries rejection statistics for the
Fig. 7 edge-count analysis.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import WcmConfig
from repro.core.problem import WcmProblem
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.netlist.core import Netlist, PortKind
from repro.runtime import trace


@dataclass
class GraphStats:
    """Why edges exist / were rejected (feeds Fig. 7 and Table V)."""

    nodes: int = 0
    ff_nodes: int = 0
    tsv_nodes: int = 0
    excluded_tsvs: int = 0
    edges: int = 0
    #: edges admitted despite overlapped cones (the paper's expansion)
    overlap_edges: int = 0
    rejected_distance: int = 0
    rejected_timing: int = 0
    rejected_overlap: int = 0
    rejected_testability: int = 0


@dataclass
class WcmGraph:
    """The sharing graph for one TSV direction."""

    kind: PortKind
    nodes: List[str]
    is_ff: Dict[str, bool]
    adjacency: Dict[str, Set[str]]
    excluded_tsvs: List[str]
    stats: GraphStats = field(default_factory=GraphStats)


@dataclass
class PairLog:
    """One direction's last sweep, row by row, owned by the caller (an
    ECO session) and replayed by the next :func:`build_wcm_graph` it is
    passed to.

    ``rows`` follows the sweep: one row per TSV of ``tsvs`` over the
    TSVs after it, then one row per FF of ``ffs`` over every TSV. A row
    is a ``(distances_um, outcomes)`` pair of lists with one entry per
    column. An outcome is taken before ``d_th`` applies and holds the
    testability estimate itself, so no threshold is baked into the
    log."""

    ffs: List[str] = field(default_factory=list)
    tsvs: List[str] = field(default_factory=list)
    rows: List[Optional[Tuple[List[float], List[object]]]] = field(
        default_factory=list)


class _GateGraph:
    """A die's combinational gates compiled for cone passes.

    Gate ids follow instance order, and each gate keeps its
    combinational readers (fan-out edges) and drivers (fan-in edges) as
    id lists. A node's gate cone is then one DFS over ids into a
    bitmap, read out as an int with one bit per gate: the gates
    :meth:`repro.dft.cones.ConeAnalysis.gate_cone` returns, since
    sequential instances and ports end a cone there too.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        instances = netlist.instances
        self.ids: Dict[str, int] = {}
        for name, inst in instances.items():
            if not inst.cell.is_sequential:
                self.ids[name] = len(self.ids)
        self.readers: List[List[int]] = [[] for _ in self.ids]
        self.drivers: List[List[int]] = [[] for _ in self.ids]
        for name, gate in self.ids.items():
            out = instances[name].output_net()
            if out is None:
                continue
            for reader in self._readers_of(out):
                self.readers[gate].append(reader)
                self.drivers[reader].append(gate)
        self.width = (len(self.ids) + 7) >> 3  # bitmap bytes

    def _readers_of(self, net_name: str) -> List[int]:
        ids = self.ids
        return [ids[sink.owner_name]
                for sink in self.netlist.nets[net_name].sinks
                if not sink.is_port and sink.owner_name in ids]

    def _driver_of(self, net_name: str) -> List[int]:
        driver = self.netlist.nets[net_name].driver
        if driver is None or driver.is_port \
                or driver.owner_name not in self.ids:
            return []
        return [self.ids[driver.owner_name]]

    def cone(self, name: str, kind: PortKind) -> int:
        """Bitset of the gates in *name*'s fan-out cone (inbound kind:
        from an FF's Q or an inbound TSV) or fan-in cone (outbound
        kind: into an FF's data inputs or an outbound TSV)."""
        netlist = self.netlist
        inst = netlist.instances.get(name)
        if kind is PortKind.TSV_INBOUND:
            edges, seeds_of = self.readers, self._readers_of
            starts = [inst.output_net() if inst is not None
                      else netlist.port(name).net]
        else:
            edges, seeds_of = self.drivers, self._driver_of
            starts = ([net for pin, net in inst.input_nets()
                       if pin not in ("CK", "SE")] if inst is not None
                      else [netlist.port(name).net])
        stack = [gate for net in starts if net is not None
                 for gate in seeds_of(net)]
        bitmap = bytearray(self.width)
        while stack:
            gate = stack.pop()
            byte, bit = gate >> 3, 1 << (gate & 7)
            if not bitmap[byte] & bit:
                bitmap[byte] |= bit
                stack += edges[gate]
        return int.from_bytes(bitmap, "little")


def _cone_bitsets(problem: WcmProblem, names: Sequence[str], kind: PortKind
                  ) -> Dict[str, int]:
    """Each node's gate cone as a bitset, one bit per gate id.

    Cones depend only on the (immutable) die topology, so the compiled
    gate graph (key ``"gates"``) and the bitsets (keyed by TSV kind)
    are cached on the problem and shared by every graph build over it
    and over its retimes (methods, clique restarts, sessions). Gate ids
    are fixed when the gate graph is compiled, so bitsets from
    different builds AND correctly.
    """
    cache = problem.cone_bitset_cache
    gates = cache.get("gates")
    if gates is None:
        gates = cache["gates"] = _GateGraph(problem.netlist)
    bitsets = cache.setdefault(kind, {})
    out: Dict[str, int] = {}
    for name in names:
        value = bitsets.get(name)
        if value is None:
            trace.inc("graph.cone_bitset_builds")
            value = bitsets[name] = gates.cone(name, kind)
        out[name] = value
    return out


def effective_d_th(problem: WcmProblem, config: WcmConfig) -> float:
    """Resolve d_th: explicit um value, or a fraction of die span."""
    if math.isfinite(config.d_th_um) or config.d_th_fraction is None:
        return config.d_th_um
    xs = [p.x for p in problem.netlist.ports.values()]
    ys = [p.y for p in problem.netlist.ports.values()]
    if not xs:
        return config.d_th_um
    span = (max(xs) - min(xs)) + (max(ys) - min(ys))
    return config.d_th_fraction * span


#: A pair's outcome before the distance limit: one of these sentinels
#: or the pair's :class:`OverlapEstimate`.
_EDGE = "edge"
_REJ_TIMING = "timing"
_REJ_OVERLAP = "overlap"


def build_wcm_graph(problem: WcmProblem, kind: PortKind,
                    available_ffs: Sequence[str], config: WcmConfig,
                    timing_model: Optional[ReuseTimingModel] = None,
                    estimator: Optional[OverlapTestabilityEstimator] = None,
                    pair_log: Optional[PairLog] = None,
                    dirty: AbstractSet[str] = frozenset()) -> WcmGraph:
    """Algorithm 1: build the sharing graph for one TSV direction.

    The sweep runs row by row, in the pair order of
    :func:`repro.verify.oracles.oracle_build_graph`, this kernel's
    reference: one row per TSV over the TSVs after it, then one row per
    FF over every TSV. A row is evaluated whole: every pair's distance,
    timing check (the model's row form), cone AND and, for an
    overlapped FF–TSV pair, testability estimate, whatever the
    distance. The tally then folds the row into the graph in column
    order, rejecting a pair on distance, timing, cone overlap and
    testability, in that order, under the current ``d_th``, ``cov_th``
    and ``p_th``.

    *pair_log* makes the build incremental. When its node lists equal
    this build's, the row of a node in *dirty* is re-evaluated whole,
    every other row only at the columns of dirty TSVs, and every other
    pair keeps its logged distance and outcome. Otherwise the sweep
    refills the log. Every row is tallied either way, so a threshold
    re-tune replays too, and stats, counters and coverage-drop
    observations equal a build without a log. The caller must put in
    *dirty* every node whose position, timing or cone changed since the
    log was filled, and drop the log when any other config field
    changes. Without a log each row is dropped once tallied.
    """
    model = timing_model or ReuseTimingModel(problem, config)

    # ---- node construction --------------------------------------------
    tsvs: List[str] = []
    excluded: List[str] = []
    for tsv in problem.tsvs_of_kind(kind):
        if kind is PortKind.TSV_INBOUND:
            eligible = model.inbound_node_eligible(tsv)
        else:
            eligible = model.outbound_node_eligible(tsv)
        (tsvs if eligible else excluded).append(tsv)

    ffs = list(available_ffs)
    nodes = ffs + tsvs
    is_ff = {name: True for name in ffs}
    is_ff.update({name: False for name in tsvs})
    adjacency: Dict[str, Set[str]] = {name: set() for name in nodes}
    stats = GraphStats(nodes=len(nodes), ff_nodes=len(ffs),
                       tsv_nodes=len(tsvs), excluded_tsvs=len(excluded))

    cones = _cone_bitsets(problem, nodes, kind)
    d_th = effective_d_th(problem, config)
    # d_th guards wire delay and routing congestion; the unconstrained
    # area scenario imposes neither. A pair at or beyond *limit* is
    # rejected on distance.
    limit = (d_th if math.isfinite(d_th) and config.scenario.is_timed
             else math.inf)

    # ---- per-node terms, read once per graph ---------------------------
    sites = {name: problem.location_of(name) for name in nodes}
    share_terms = {name: model.share_term(name, kind) for name in tsvs}
    #: the sweep's columns, one entry per TSV: site, cone bits,
    #: singleton state and share term
    columns = ([sites[name] for name in tsvs],
               [cones[name] for name in tsvs],
               [model.initial_state(name, kind, False) for name in tsvs],
               [share_terms[name] for name in tsvs])
    estimate = (estimator.estimate
                if config.allow_overlap and estimator is not None else None)

    def evaluate(name_a: str, a_is_ff: bool, cols, lo: int):
        """Distances and outcomes of *name_a*'s row over the columns
        ``cols[k][lo:]``."""
        points, bits, states, terms = cols
        ax, ay = sites[name_a]
        dists = [abs(ax - x) + abs(ay - y) for x, y in points[lo:]]
        if a_is_ff:
            fits = model.reuse_row(name_a, kind, dists, states[lo:])
        else:
            fits = model.share_row(kind, share_terms[name_a], dists,
                                   terms[lo:])
        cone_a = cones[name_a]
        # The paper's relaxation (Fig. 4) concerns reusing a *scan FF*
        # despite overlapped cones; TSV-TSV sharing keeps the strict
        # non-overlap rule in every method. An estimate reads the
        # overlap's size: the popcount of the AND.
        estimated = a_is_ff and estimate is not None
        return dists, [((estimate(bin(shared).count("1"))
                         if estimated else _REJ_OVERLAP)
                        if (shared := cone_a & cone_b) else _EDGE)
                       if fit else _REJ_TIMING
                       for fit, cone_b in zip(fits, bits[lo:])]

    observing = trace.active() is not None
    cov_th, p_th = config.cov_th, config.p_th

    #: the columns' adjacency sets, in column order
    column_sets = [adjacency[name] for name in tsvs]

    def tally(name_a: str, lo: int, dists: List[float],
              outcomes: List[object]) -> None:
        """Fold one row into adjacency and stats, in column order."""
        adjacency_a = adjacency[name_a]
        for name_b, adjacency_b, dist, outcome in zip(
                tsvs[lo:], column_sets[lo:], dists, outcomes):
            if dist >= limit:
                stats.rejected_distance += 1
            elif outcome is _EDGE:
                adjacency_a.add(name_b)
                adjacency_b.add(name_a)
                stats.edges += 1
            elif outcome is _REJ_TIMING:
                stats.rejected_timing += 1
            elif outcome is _REJ_OVERLAP:
                stats.rejected_overlap += 1
            else:
                if observing:
                    trace.observe("graph.coverage_drop",
                                  outcome.coverage_drop)
                if outcome.within(cov_th, p_th):
                    adjacency_a.add(name_b)
                    adjacency_b.add(name_a)
                    stats.edges += 1
                    stats.overlap_edges += 1
                else:
                    stats.rejected_testability += 1

    # ---- edge construction: the oracle's pair order, row by row -------
    sweep = [(name, False, i + 1) for i, name in enumerate(tsvs)]
    sweep += [(name, True, 0) for name in ffs]
    rows: Optional[list] = None
    if pair_log is not None:
        if pair_log.ffs == ffs and pair_log.tsvs == tsvs:
            # Counted as a session counter: only ECO sessions keep logs.
            trace.inc("session.graph_replays")
        else:  # refill: every row starts unevaluated (None)
            pair_log.ffs, pair_log.tsvs = ffs, tsvs
            pair_log.rows = [None] * len(sweep)
        rows = pair_log.rows
    #: the dirty TSVs' column indices and columns, patched into the
    #: logged rows of clean nodes
    dirty_at = ([j for j, name in enumerate(tsvs) if name in dirty]
                if rows is not None else [])
    dirty_columns = tuple([column[j] for j in dirty_at]
                          for column in columns)
    for index, (name_a, a_is_ff, lo) in enumerate(sweep):
        row = rows[index] if rows is not None else None
        if row is None or name_a in dirty:
            row = evaluate(name_a, a_is_ff, columns, lo)
            if rows is not None:
                rows[index] = row
        elif dirty_at:
            first = bisect_left(dirty_at, lo)
            dists, outcomes = row
            for j, dist, outcome in zip(
                    dirty_at[first:],
                    *evaluate(name_a, a_is_ff, dirty_columns, first)):
                dists[j - lo] = dist
                outcomes[j - lo] = outcome
        tally(name_a, lo, *row)

    if observing:
        trace.observe("graph.edges", stats.edges)
    return WcmGraph(kind=kind, nodes=nodes, is_ff=is_ff,
                    adjacency=adjacency, excluded_tsvs=excluded,
                    stats=stats)
