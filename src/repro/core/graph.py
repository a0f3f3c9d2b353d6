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

What a pair's checks read about one node (location, cone bitset, the
timing model's per-node terms) is computed once per node, so a pair of
the O(n²) sweep costs its Manhattan distance, a few float operations
and one big-int AND; only an overlapped FF–TSV pair also intersects the
two cones for its estimate. The sweep visits every pair: at the
paper's ``d_th`` (0.8 × the die's half-perimeter) the distance limit
rejects under 1 % of them, so a spatial index would prune almost
nothing.

The returned :class:`WcmGraph` carries rejection statistics for the
Fig. 7 edge-count analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import WcmConfig
from repro.core.problem import WcmProblem
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.netlist.core import PortKind
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

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self.adjacency.values()) // 2


@dataclass
class PairLog:
    """One direction's last sweep, owned by the caller (an ECO session)
    and replayed by the next :func:`build_wcm_graph` it is passed to.

    ``pairs`` maps ``(name_a, name_b, a_is_ff)`` to ``(distance_um,
    outcome)`` in sweep order. The outcome is taken before ``d_th``
    applies and holds the testability estimate itself, so no threshold
    is baked into the log."""

    ffs: List[str] = field(default_factory=list)
    tsvs: List[str] = field(default_factory=list)
    pairs: Dict[Tuple[str, str, bool], Tuple[float, object]] = field(
        default_factory=dict)


def _cone_bitsets(problem: WcmProblem, names: Sequence[str], kind: PortKind
                  ) -> Dict[str, int]:
    """Cone-as-bitset per node: one shared bit index per object name.

    Cones depend only on the (immutable) die topology, so bitsets are
    cached on the problem per TSV direction and shared across repeated
    graph builds (methods, retimes, clique restarts). The bit index
    grows incrementally with newly seen nodes; only AND-emptiness is
    ever consumed, which is invariant to bit assignment.
    """
    index, bitsets = problem.cone_bitset_cache.setdefault(kind, ({}, {}))
    out: Dict[str, int] = {}
    for name in names:
        value = bitsets.get(name)
        if value is None:
            trace.inc("graph.cone_bitset_builds")
            cone = problem.cones.gate_cone(name, kind)
            value = 0
            for item in cone:
                bit = index.get(item)
                if bit is None:
                    bit = len(index)
                    index[item] = bit
                value |= (1 << bit)
            bitsets[name] = value
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

    The sweep visits every TSV–TSV pair, then every FF–TSV pair, in the
    order of :func:`repro.verify.oracles.oracle_build_graph`, this
    kernel's reference, and rejects a pair on distance, timing, cone
    overlap and testability, in that order.

    *pair_log* makes the build incremental. When its node lists equal
    this build's, only the logged pairs touching a node in *dirty* are
    re-evaluated; every other pair keeps its logged distance and
    outcome. Otherwise the sweep refills the log, evaluating every pair
    whatever its distance. Either way the current ``d_th``, ``cov_th``
    and ``p_th`` are applied while tallying the log in sweep order, so
    a threshold re-tune replays too, and stats, counters and
    coverage-drop observations equal a build without a log. The caller
    must put in *dirty* every node whose position, timing or cone
    changed since the log was filled, and drop the log when any other
    config field changes. Without a log the sweep makes one pass and
    evaluates only the pairs within ``d_th``.
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
    # area scenario imposes neither.
    check_distance = math.isfinite(d_th) and config.scenario.is_timed

    # ---- edge construction ----------------------------------------------
    def outcome_of(name_a: str, name_b: str, a_is_ff: bool):
        if not model.pair_feasible(name_a, name_b, kind, a_is_ff, False):
            return _REJ_TIMING
        if cones[name_a] & cones[name_b] == 0:
            return _EDGE
        if not a_is_ff or not config.allow_overlap or estimator is None:
            # The paper's relaxation (Fig. 4) concerns reusing a
            # *scan FF* despite overlapped cones; TSV-TSV sharing
            # keeps the strict non-overlap rule in every method.
            return _REJ_OVERLAP
        return estimator.estimate(problem.cones.overlap(name_a, name_b,
                                                        kind))

    def tally(outcome, name_a: str, name_b: str) -> None:
        """Fold one within-distance outcome into adjacency and stats."""
        if outcome is _EDGE:
            adjacency[name_a].add(name_b)
            adjacency[name_b].add(name_a)
            stats.edges += 1
        elif outcome is _REJ_TIMING:
            stats.rejected_timing += 1
        elif outcome is _REJ_OVERLAP:
            stats.rejected_overlap += 1
        else:
            if trace.active() is not None:
                trace.observe("graph.coverage_drop", outcome.coverage_drop)
            if outcome.within(config.cov_th, config.p_th):
                adjacency[name_a].add(name_b)
                adjacency[name_b].add(name_a)
                stats.edges += 1
                stats.overlap_edges += 1
            else:
                stats.rejected_testability += 1

    # the oracle's order: TSV–TSV pairs (i < j), then FF–TSV pairs
    sweep = chain(((a, b, False) for a, b in combinations(tsvs, 2)),
                  ((a, b, True) for a, b in product(ffs, tsvs)))
    if pair_log is None:
        for name_a, name_b, a_is_ff in sweep:
            if check_distance and model.distance_um(name_a, name_b) >= d_th:
                stats.rejected_distance += 1
            else:
                tally(outcome_of(name_a, name_b, a_is_ff), name_a, name_b)
    else:
        if pair_log.ffs == ffs and pair_log.tsvs == tsvs:
            # Counted as a session counter: only ECO sessions keep logs.
            trace.inc("session.graph_replays")
        else:  # refill: every pair starts unevaluated (None)
            pair_log.ffs, pair_log.tsvs = ffs, tsvs
            pair_log.pairs = dict.fromkeys(sweep)
        pairs = pair_log.pairs
        for key, logged in pairs.items():
            name_a, name_b, a_is_ff = key
            if logged is None or name_a in dirty or name_b in dirty:
                logged = pairs[key] = (model.distance_um(name_a, name_b),
                                       outcome_of(name_a, name_b, a_is_ff))
            if check_distance and logged[0] >= d_th:
                stats.rejected_distance += 1
            else:
                tally(logged[1], name_a, name_b)

    if trace.active() is not None:
        trace.observe("graph.edges", stats.edges)
    return WcmGraph(kind=kind, nodes=nodes, is_ff=is_ff,
                    adjacency=adjacency, excluded_tsvs=excluded,
                    stats=stats)
