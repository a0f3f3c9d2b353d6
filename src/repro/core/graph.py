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
two cones for its estimate.

The returned :class:`WcmGraph` carries rejection statistics for the
Fig. 7 edge-count analysis.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import WcmConfig
from repro.core.problem import WcmProblem
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.netlist.core import PortKind
from repro.runtime import trace


#: Relative bucket offsets scanned around a node's bucket by the
#: grid-indexed sweep. Module-level so the verification mutants can
#: patch it (dropping an offset must be caught by the fuzzer).
_GRID_OFFSETS: Tuple[int, ...] = (-1, 0, 1)


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


def _bucket_candidates(tsvs: Sequence[str], location_of, d_th: float):
    """The grid sweep's candidate generator: a spatial hash bucketed at
    cell size ``d_th`` and a function mapping a node name to the TSV
    indices in its 3x3 bucket neighbourhood (ascending). Shared by the
    full sweep and the session's incremental replay."""
    inv_cell = 1.0 / d_th

    def bucket_of(name: str) -> Tuple[int, int]:
        x, y = location_of(name)
        return (math.floor(x * inv_cell), math.floor(y * inv_cell))

    buckets: Dict[Tuple[int, int], List[int]] = {}
    for j, tsv in enumerate(tsvs):
        buckets.setdefault(bucket_of(tsv), []).append(j)

    def candidates(name: str) -> List[int]:
        bx, by = bucket_of(name)
        found: List[int] = []
        for dx in _GRID_OFFSETS:
            for dy in _GRID_OFFSETS:
                hit = buckets.get((bx + dx, by + dy))
                if hit:
                    found.extend(hit)
        found.sort()
        return found

    return candidates


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


#: edge-memo outcome sentinels (the fourth outcome is an
#: :class:`OverlapEstimate`, kept so threshold re-tunes re-apply
#: ``within`` without re-estimating). ``_REJ_DISTANCE`` appears only
#: in pair logs — distance is re-checked on every build, never
#: memoized.
_EDGE = "edge"
_REJ_TIMING = "timing"
_REJ_OVERLAP = "overlap"
_REJ_DISTANCE = "distance"


def pair_outcome(problem: WcmProblem, config: WcmConfig,
                 model: ReuseTimingModel,
                 estimator: Optional[OverlapTestabilityEstimator],
                 cones: Dict[str, int], kind: PortKind,
                 name_a: str, name_b: str, a_is_ff: bool,
                 edge_memo: Optional[Dict] = None):
    """The post-distance outcome of one candidate pair: a sentinel or
    the pair's :class:`OverlapEstimate`. Shared by the full sweep and
    the session's incremental replay so both apply identical rules."""
    key = ((kind, name_a, name_b, a_is_ff)
           if edge_memo is not None else None)
    outcome = edge_memo.get(key) if key is not None else None
    if outcome is None:
        if not model.pair_feasible(name_a, name_b, kind,
                                   a_is_ff, False):
            outcome = _REJ_TIMING
        elif cones[name_a] & cones[name_b] == 0:
            outcome = _EDGE
        elif not a_is_ff or not config.allow_overlap \
                or estimator is None:
            # The paper's relaxation (Fig. 4) concerns reusing a
            # *scan FF* despite overlapped cones; TSV-TSV sharing
            # keeps the strict non-overlap rule in every method.
            outcome = _REJ_OVERLAP
        else:
            overlap = problem.cones.overlap(name_a, name_b, kind)
            outcome = estimator.estimate(overlap)
        if key is not None:
            edge_memo[key] = outcome
    return outcome


def apply_outcome(outcome, name_a: str, name_b: str,
                  adjacency: Dict[str, Set[str]], stats: GraphStats,
                  config: WcmConfig) -> None:
    """Fold one pair outcome into adjacency/statistics — the single
    place edges, rejection counts and coverage-drop observations are
    produced, for both the full sweep and the incremental replay."""
    if outcome is _REJ_DISTANCE:
        stats.rejected_distance += 1
    elif outcome is _EDGE:
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


def build_wcm_graph(problem: WcmProblem, kind: PortKind,
                    available_ffs: Sequence[str], config: WcmConfig,
                    timing_model: Optional[ReuseTimingModel] = None,
                    estimator: Optional[OverlapTestabilityEstimator] = None,
                    edge_memo: Optional[Dict] = None,
                    pair_log: Optional[Dict] = None) -> WcmGraph:
    """Algorithm 1: build the sharing graph for one TSV direction.

    One scalar sweep visits the candidate pairs in per-node ascending
    order. When the distance limit is active the candidates come from a
    spatial hash bucketed at ``d_th`` (a superset of all pairs with
    Manhattan distance < ``d_th``), and the pairs in non-neighbouring
    buckets are charged to ``rejected_distance`` arithmetically.
    Candidate pairs still run the exact distance check, so edges,
    statistics and estimator call order are identical to the O(n²)
    sweep of :func:`repro.verify.oracles.oracle_build_graph`, which is
    this kernel's reference.

    *edge_memo* (a caller-owned dict, used by ECO sessions) memoizes
    each candidate pair's post-distance outcome — timing rejection,
    cone-overlap rejection, clean edge, or the testability estimate —
    keyed by ``(kind, name_a, name_b, a_is_ff)``. The caller must drop
    every entry touching a node whose position, timing signature or
    cone changed. Distance is never memoized (position-dependent and
    cheap) and estimates are stored as values, so ``d_th``/``cov_th``
    re-tunes stay correct without invalidation; coverage-drop
    observations are re-emitted on hits, keeping stats, counters and
    manifests byte-identical to an unmemoized build.

    *pair_log*, when given, records every visited candidate pair as
    ``(name_a, name_b, a_is_ff) -> outcome`` (including exact-distance
    rejections) — the session's incremental replay re-derives the next
    build from it by re-considering only pairs touching dirty nodes.
    """
    model = timing_model or ReuseTimingModel(problem, config)
    stats = GraphStats()

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

    stats.ff_nodes = len(ffs)
    stats.tsv_nodes = len(tsvs)
    stats.nodes = len(nodes)
    stats.excluded_tsvs = len(excluded)

    cones = _cone_bitsets(problem, nodes, kind)
    d_th = effective_d_th(problem, config)
    # d_th guards wire delay and routing congestion; the unconstrained
    # area scenario imposes neither.
    check_distance = math.isfinite(d_th) and config.scenario.is_timed

    # ---- edge construction ----------------------------------------------
    def consider(name_a: str, name_b: str, a_is_ff: bool) -> None:
        if check_distance and model.distance_um(name_a, name_b) >= d_th:
            outcome = _REJ_DISTANCE
        else:
            outcome = pair_outcome(problem, config, model, estimator,
                                   cones, kind, name_a, name_b,
                                   a_is_ff, edge_memo)
        if pair_log is not None:
            pair_log[(name_a, name_b, a_is_ff)] = outcome
        apply_outcome(outcome, name_a, name_b, adjacency, stats, config)

    if not check_distance:
        every_tsv = list(range(len(tsvs)))

        def candidates(name: str) -> List[int]:
            return every_tsv
    elif d_th <= 0.0:
        # distance >= d_th holds for every pair: all rejected, no sweep.
        def candidates(name: str) -> List[int]:
            return []
    else:
        # Spatial hash at cell size d_th: any pair with Manhattan
        # distance < d_th sits in the same or an adjacent bucket, so
        # the 3x3 neighbourhood is a sound candidate superset.
        candidates = _bucket_candidates(tsvs, problem.location_of, d_th)

    candidate_pairs = 0
    for i, tsv_a in enumerate(tsvs):
        js = candidates(tsv_a)  # ascending: the j > i ones are a suffix
        for j in js[bisect_right(js, i):]:
            candidate_pairs += 1
            consider(tsv_a, tsvs[j], a_is_ff=False)
    for ff in ffs:
        for j in candidates(ff):
            candidate_pairs += 1
            consider(ff, tsvs[j], a_is_ff=True)
    # Pairs outside the neighbourhood have distance >= d_th by
    # construction; charge them without visiting.
    total_pairs = len(tsvs) * (len(tsvs) - 1) // 2 + len(ffs) * len(tsvs)
    stats.rejected_distance += total_pairs - candidate_pairs
    trace.inc("graph.grid_candidate_pairs", candidate_pairs)
    trace.inc("graph.grid_skipped_pairs", total_pairs - candidate_pairs)

    if trace.active() is not None:
        trace.observe("graph.edges", stats.edges)
    return WcmGraph(kind=kind, nodes=nodes, is_ff=is_ff,
                    adjacency=adjacency, excluded_tsvs=excluded,
                    stats=stats)
