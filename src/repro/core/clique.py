"""Heuristic clique partitioning — Algorithm 2 of the paper.

Start with every node a singleton clique. Repeatedly take the
minimum-degree node with non-zero degree and its minimum-degree
neighbour; if the merged wrapper stays legal (the paper's
``cap + 1 < cap_th`` test, generalized by
:meth:`~repro.core.timing_model.ReuseTimingModel.merged_state` to the
accurate load/slack bookkeeping), merge them into one clique whose
neighbourhood is the *intersection* of the two neighbourhoods (keeping
the partition's clique invariant); otherwise delete the edge. Stop when
no edges remain.

Minimizing cliques minimizes additional wrapper cells: every clique
without a scan FF needs one new cell, and the number of FF cliques is
fixed.
"""

from __future__ import annotations

import dataclasses
import heapq
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.graph import WcmGraph
from repro.core.timing_model import CliqueTimingState, ReuseTimingModel
from repro.netlist.core import PortKind
from repro.runtime import trace


@dataclass
class Clique:
    """One clique of the final partition."""

    kind: PortKind
    tsvs: List[str]
    ff: Optional[str] = None
    #: load/slack bookkeeping carried out of Algorithm 2 (used by the
    #: FF-adoption phase, DESIGN.md §4)
    state: Optional[CliqueTimingState] = None

    @property
    def is_reuse(self) -> bool:
        return self.ff is not None and bool(self.tsvs)


@dataclass
class CliquePartition:
    """Result of Algorithm 2 on one graph."""

    kind: PortKind
    cliques: List[Clique]
    #: merge attempts rejected by the capacity/slack test
    rejected_merges: int = 0
    merges: int = 0
    #: merges contributed by the singleton-rescue pass (also included
    #: in ``merges``); carried so an incremental re-partition can
    #: re-emit the same counters without re-running Algorithm 2
    singleton_rescues: int = 0

    @property
    def additional_cells(self) -> int:
        """Cliques holding TSVs but no FF (excluded TSVs counted later)."""
        return sum(1 for c in self.cliques if c.tsvs and c.ff is None)


_STATE_GETTER = operator.attrgetter(
    *(f.name for f in dataclasses.fields(CliqueTimingState)))


def _state_key(state: CliqueTimingState) -> tuple:
    """Hashable identity of a clique timing state (all fields are
    floats, strings, tuples or enums — no nesting, so a flat attribute
    tuple equals ``dataclasses.astuple`` at a fraction of the cost)."""
    return _STATE_GETTER(state)


def _merged_state_fn(model: ReuseTimingModel,
                     merge_memo: Optional[Dict]) -> Callable:
    """``merged_state`` with an optional cross-run memo.

    ``merged_state`` is pure in its two state arguments plus session-
    constant configuration (``max_group_size``, ``cap_th``, ``s_th``,
    library caps, the wire model), so outcomes can be memoized on the
    state *values* and shared across re-partitions — states embed every
    timing quantity the check reads, so a stale-timing hit is
    impossible. Result states are never mutated after partitioning, so
    sharing the memoized objects is safe.
    """
    if merge_memo is None:
        return model.merged_state

    def merged(a: CliqueTimingState, b: CliqueTimingState):
        key = (_state_key(a), _state_key(b))
        try:
            return merge_memo[key]
        except KeyError:
            result = model.merged_state(a, b)
            merge_memo[key] = result
            return result

    return merged


def partition_cliques(graph: WcmGraph, model: ReuseTimingModel,
                      merge_memo: Optional[Dict] = None
                      ) -> CliquePartition:
    """Run Algorithm 2 on *graph* with merge checks from *model*.

    *merge_memo* (a plain dict owned by the caller) memoizes
    ``merged_state`` outcomes across repeated partitions — see
    :func:`_merged_state_fn`; results are byte-identical with or
    without it.
    """
    merged_state = _merged_state_fn(model, merge_memo)
    # Clique state, keyed by an integer id.
    members: Dict[int, List[str]] = {}
    ff_of: Dict[int, Optional[str]] = {}
    states: Dict[int, CliqueTimingState] = {}
    adjacency: Dict[int, Set[int]] = {}

    id_of_node: Dict[str, int] = {}
    for index, name in enumerate(graph.nodes):
        id_of_node[name] = index
        if graph.is_ff[name]:
            members[index] = []
            ff_of[index] = name
        else:
            members[index] = [name]
            ff_of[index] = None
        states[index] = model.initial_state(name, graph.kind,
                                            graph.is_ff[name])
    for name, neighbours in graph.adjacency.items():
        adjacency[id_of_node[name]] = {id_of_node[n] for n in neighbours}

    next_id = len(graph.nodes)
    rejected = 0
    merges = 0

    # Lazy min-degree heap over (degree, id).
    heap: List[Tuple[int, int]] = [
        (len(neigh), cid) for cid, neigh in adjacency.items() if neigh
    ]
    heapq.heapify(heap)

    def push(cid: int) -> None:
        degree = len(adjacency[cid])
        if degree:
            heapq.heappush(heap, (degree, cid))

    while heap:
        degree, n1 = heapq.heappop(heap)
        if n1 not in adjacency:
            continue  # stale: merged away
        current = len(adjacency[n1])
        if current == 0:
            continue
        if degree != current:
            heapq.heappush(heap, (current, n1))
            continue

        # Minimum-degree neighbour (sampled when the neighbourhood is
        # huge; exact min over thousands of candidates per iteration
        # would make dense graphs quadratic).
        neighbours = adjacency[n1]
        if len(neighbours) <= 64:
            n2 = min(neighbours, key=lambda c: (len(adjacency[c]), c))
        else:
            # The sample must not depend on set-iteration order (clique
            # ids are ints, but "first 64 seen" still tracks insertion
            # history); take the 64 smallest ids — deterministic and
            # O(n log 64).
            sample = heapq.nsmallest(64, neighbours)
            n2 = min(sample, key=lambda c: (len(adjacency[c]), c))

        merged = merged_state(states[n1], states[n2])
        if merged is None:
            rejected += 1
            adjacency[n1].discard(n2)
            adjacency[n2].discard(n1)
            push(n1)
            push(n2)
            continue

        # Merge n1 and n2 into n'.
        merges += 1
        new_id = next_id
        next_id += 1
        common = (adjacency[n1] & adjacency[n2]) - {n1, n2}
        members[new_id] = members[n1] + members[n2]
        ff_of[new_id] = ff_of[n1] or ff_of[n2]
        states[new_id] = merged
        adjacency[new_id] = set(common)

        for cid in adjacency[n1]:
            if cid not in (n1, n2):
                adjacency[cid].discard(n1)
        for cid in adjacency[n2]:
            if cid not in (n1, n2):
                adjacency[cid].discard(n2)
        for cid in common:
            adjacency[cid].add(new_id)
            push(cid)
        del adjacency[n1], adjacency[n2]
        del states[n1], states[n2]
        push(new_id)
        # Nodes that lost an edge need their heap entries refreshed.
        # (Stale entries are skipped lazily on pop.)

    cliques: List[Clique] = []
    for cid, member_list in members.items():
        if cid not in adjacency:
            continue  # merged away
        cliques.append(Clique(kind=graph.kind, tsvs=list(member_list),
                              ff=ff_of[cid], state=states.get(cid)))

    rescued = _absorb_singletons(graph, merged_state, cliques)
    merges += rescued

    trace.inc("clique.merges", merges)
    trace.inc("clique.rejected_merges", rejected)
    trace.inc("clique.singleton_rescues", rescued)
    if trace.active() is not None:
        for clique in cliques:
            trace.observe("clique.size", len(clique.tsvs))

    return CliquePartition(kind=graph.kind, cliques=cliques,
                           rejected_merges=rejected, merges=merges,
                           singleton_rescues=rescued)


def _absorb_singletons(graph: WcmGraph, merged_state: Callable,
                       cliques: List[Clique]) -> int:
    """Second-chance pass: Algorithm 2's intersection adjacency loses
    information as cliques form, stranding nodes whose merged
    neighbours disappeared. Re-check stranded small cliques against the
    ORIGINAL graph: a clique may absorb another when every cross pair
    is an original edge and the merged load/slack state stays legal.
    The clique property is preserved exactly."""
    adjacency = graph.adjacency
    merges = 0
    # Smallest donors first; try absorbing them into any compatible host.
    order = sorted(range(len(cliques)),
                   key=lambda i: (len(cliques[i].tsvs),
                                  cliques[i].ff is not None))
    absorbed: set = set()
    for donor_index in order:
        donor = cliques[donor_index]
        if donor_index in absorbed or not donor.tsvs or donor.state is None:
            continue
        if len(donor.tsvs) > 2:
            continue  # only rescue the stragglers
        donor_nodes = list(donor.tsvs) + ([donor.ff] if donor.ff else [])
        for host_index, host in enumerate(cliques):
            if host_index == donor_index or host_index in absorbed:
                continue
            if not host.tsvs or host.state is None:
                continue
            if donor.ff is not None and host.ff is not None:
                continue
            host_nodes = list(host.tsvs) + ([host.ff] if host.ff else [])
            if not all(b in adjacency.get(a, ())
                       for a in donor_nodes for b in host_nodes):
                continue
            merged = merged_state(host.state, donor.state)
            if merged is None:
                continue
            host.tsvs.extend(donor.tsvs)
            host.ff = host.ff or donor.ff
            host.state = merged
            donor.tsvs = []
            donor.ff = None
            absorbed.add(donor_index)
            merges += 1
            break
    cliques[:] = [c for c in cliques if c.tsvs or c.ff]
    return merges


def repartition(graph: WcmGraph, model: ReuseTimingModel,
                dirty_nodes: Set[str], frozen: CliquePartition,
                merge_memo: Optional[Dict] = None) -> CliquePartition:
    """Incremental entry point for ECO sessions.

    When the edit left the sharing graph untouched (*dirty_nodes* is
    empty and the rebuilt *graph* matches the one *frozen* was computed
    from), Algorithm 2 would reproduce *frozen* exactly — so skip it and
    re-emit the same counters/observations from the frozen partition.
    Any dirty node invalidates the greedy merge order globally (the
    min-degree heap is sequential), so a non-empty dirty set falls back
    to a full re-run of Algorithm 2, accelerated by *merge_memo* which
    short-circuits the load/slack checks for state pairs already decided
    in previous partitions.
    """
    if not dirty_nodes:
        trace.inc("clique.merges", frozen.merges)
        trace.inc("clique.rejected_merges", frozen.rejected_merges)
        trace.inc("clique.singleton_rescues", frozen.singleton_rescues)
        if trace.active() is not None:
            for clique in frozen.cliques:
                trace.observe("clique.size", len(clique.tsvs))
        cliques = [Clique(kind=c.kind, tsvs=list(c.tsvs), ff=c.ff,
                          state=c.state)
                   for c in frozen.cliques]
        return CliquePartition(kind=frozen.kind, cliques=cliques,
                               rejected_merges=frozen.rejected_merges,
                               merges=frozen.merges,
                               singleton_rescues=frozen.singleton_rescues)
    return partition_cliques(graph, model, merge_memo=merge_memo)
