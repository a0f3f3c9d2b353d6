"""Incremental ECO sessions: scoped re-solve instead of cold WCM runs.

The paper's flow (Fig. 6) re-runs sharing-graph construction, clique
partitioning and STA from scratch for every die configuration, yet a
typical ECO edit — move one FF or TSV, nudge ``d_th``/``cov_th`` —
perturbs only a small neighbourhood of the sharing graph.
:class:`WcmSession` loads a die once and serves a typed edit stream,
re-solving incrementally:

* **Baseline delta.** A position edit is mirrored into the dedicated
  reference build (same-name objects plus the wrapper gear anchored at
  them, via ``WcmProblem.dedicated_anchors``); the warm
  :class:`~repro.sta.timer.TimingContext` refreshes loads/wire delays
  with ``invalidate_nets`` and re-times both sign-off modes with
  ``analyze_delta`` instead of full sweeps.
* **Dirty region.** Per-node signatures capture everything the
  sharing graph's row kernel reads of a node (position, baseline
  arrivals/requireds, loads). Each direction keeps the row-shaped pair
  log of its last sharing-graph build (:class:`repro.core.graph.PairLog`:
  every pair's distance and its outcome before ``d_th`` applies, one
  row per TSV and per FF); the next build re-evaluates a dirty node's
  row and a dirty TSV's column, and re-tallies every row under the
  current thresholds, so rejection statistics and trace counters come
  out identical to a cold build, ``d_th`` re-tunes included.
* **Partition reuse.** ``merged_state`` outcomes are memoized on state
  values (:func:`repro.core.clique._merged_state_fn`); when an edit
  leaves a kind's graph and node states untouched,
  :func:`repro.core.clique.repartition` re-emits the frozen partition
  without re-running Algorithm 2.
* **Sign-off cache.** Wrapped builds are cached per plan fingerprint;
  a cache hit mirrors the moved positions, invalidates the affected
  nets and delta-times both modes on the entry's warm context —
  skipping insertion, restitching and full STA.
* **Fallback.** Structural edits (``AddTsv``/``RemoveTsv``), a scan
  restitch-order change, or a dirty fraction above ``fallback_ratio``
  drop the scoped path and re-solve cold (the pair logs and other
  memos are rebuilt on the way through).

Every scoped mechanism is differentially verified against a cold solve
as the oracle — results, per-category stats and manifest fingerprints
must be byte-identical (``repro.verify`` check ``eco``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.clique import CliquePartition, Clique, partition_cliques, repartition
from repro.core.config import WcmConfig
from repro.core.flow import FlowHooks, WcmRunResult, run_wcm_flow
from repro.core.graph import PairLog, WcmGraph, build_wcm_graph
from repro.core.problem import WcmProblem, build_problem
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.dft.scan import _serpentine_order, stitch_scan_chains
from repro.dft.wrapper import InsertionReport, insert_wrappers
from repro.netlist.core import Netlist, PortKind
from repro.runtime import trace
from repro.sta.timer import TimingContext, TimingResult, default_case
from repro.util.errors import ConfigError


# ---------------------------------------------------------------------------
# Edit stream
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MoveFf:
    """Move a scan flip-flop to a new site (um)."""

    name: str
    x: float
    y: float


@dataclass(frozen=True)
class MoveTsv:
    """Move a TSV landing pad to a new site (um)."""

    name: str
    x: float
    y: float


@dataclass(frozen=True)
class AddTsv:
    """Add a TSV port.

    An inbound TSV drives a fresh net (``net=None``) or an existing
    driverless net; an outbound TSV observes an existing net (``net``
    required).
    """

    name: str
    kind: PortKind
    x: float
    y: float
    net: Optional[str] = None


@dataclass(frozen=True)
class RemoveTsv:
    """Remove a TSV port (its net is deleted when left unconnected;
    removing an inbound TSV leaves its sinks undriven — their arrivals
    fall back to 0, matching a cold solve of the same netlist)."""

    name: str


@dataclass(frozen=True)
class SetThreshold:
    """Re-tune ``d_th`` (um) and/or ``cov_th`` without touching the die."""

    d_th_um: Optional[float] = None
    cov_th: Optional[float] = None


Edit = Union[MoveFf, MoveTsv, AddTsv, RemoveTsv, SetThreshold]


# ---------------------------------------------------------------------------
# Memoized flow pieces
# ---------------------------------------------------------------------------
@dataclass
class _WrappedBuild:
    """One cached sign-off build (keyed by its plan's fingerprint)."""

    wrapped: Netlist
    report: InsertionReport
    context: TimingContext
    functional: TimingResult
    test: TimingResult
    #: bare anchor (FF/TSV) positions at the entry's last STA
    positions: Dict[str, Tuple[float, float]]
    #: serpentine restitch order the build was stitched with
    order: List[str]
    #: bare anchor name -> wrapper instances placed at it
    anchors_rev: Dict[str, List[str]]


_SCAN_PORT_KINDS = (PortKind.SCAN_IN, PortKind.SCAN_OUT,
                    PortKind.SCAN_ENABLE)


def _scan_port_nets(netlist: Netlist) -> Set[str]:
    return {port.net for port in netlist.ports.values()
            if port.kind in _SCAN_PORT_KINDS and port.net is not None}


def _restitch_in_place(netlist: Netlist) -> Set[str]:
    """Rewire the scan chains of an already-stitched netlist and return
    the nets whose timing quantities can change. A chain-order change
    only re-routes SI wiring — untimed and excluded from every load —
    except at the scan ports: the shared scan-enable net (its SE sink
    order feeds the load sum), the scan-in nets, and the old and new
    chain-tail Q nets that carry the scan-out ports (an output-port
    sink adds load and an endpoint)."""
    affected = _scan_port_nets(netlist)
    stitch_scan_chains(netlist, restitch=True)
    return affected | _scan_port_nets(netlist)


def _reverse_anchors(anchors: Dict[str, str]) -> Dict[str, List[str]]:
    rev: Dict[str, List[str]] = {}
    for inst, anchor in anchors.items():
        rev.setdefault(anchor, []).append(inst)
    return rev


def _copy_partition(partition: CliquePartition) -> CliquePartition:
    """Pristine copy to freeze — the flow mutates partitions in place
    (FF adoption), states are never mutated and may be shared."""
    return CliquePartition(
        kind=partition.kind,
        cliques=[Clique(kind=c.kind, tsvs=list(c.tsvs), ff=c.ff,
                        state=c.state) for c in partition.cliques],
        rejected_merges=partition.rejected_merges,
        merges=partition.merges,
        singleton_rescues=partition.singleton_rescues,
    )


def _graph_sig(graph: WcmGraph):
    """Value identity of a sharing graph (nodes, edges, filter stats)."""
    return (tuple(graph.nodes),
            tuple(sorted((name, v) for name, v in graph.is_ff.items())),
            tuple(sorted((name, tuple(sorted(neigh)))
                         for name, neigh in graph.adjacency.items())),
            tuple(graph.excluded_tsvs),
            graph.stats)


class _SessionHooks(FlowHooks):
    def __init__(self, session: "WcmSession") -> None:
        self._session = session

    def make_model(self, problem, config):
        return self._session._solve_model

    def make_estimator(self, problem, config):
        return self._session._make_estimator(problem, config)

    def build_graph(self, problem, kind, available_ffs, config, model,
                    estimator):
        return self._session._build_graph(problem, kind, available_ffs,
                                          config, model, estimator)

    def partition(self, graph, model):
        return self._session._partition(graph, model)

    def signoff(self, problem, plan, config):
        return self._session._signoff(problem, plan, config)


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------
class WcmSession:
    """Hold one die and serve incremental WCM re-solves over an edit
    stream. See the module docstring for the mechanism; results are
    byte-identical to ``run_wcm_flow`` on a freshly built problem.

    The session owns *netlist* (edits mutate it) and the returned
    ``WcmRunResult.wrapped_netlist`` objects may be shared across
    solves — treat both as read-only outside the edit API.
    """

    #: plan-cache size bound (entries are whole wrapped netlists)
    MAX_PLAN_CACHE = 64

    def __init__(self, netlist: Netlist, config: WcmConfig, *,
                 placement=None, already_prepared: bool = False,
                 fallback_ratio: float = 0.25) -> None:
        self.config = config
        self.fallback_ratio = fallback_ratio
        self._clock = config.scenario.clock
        self.netlist = netlist
        with trace.span("session.load", kind="phase"):
            self.problem = build_problem(
                netlist, clock=self._clock, placement=placement,
                already_prepared=already_prepared)
        # cross-solve memos
        self._merge_memo: Dict = {}
        self._pair_logs: Dict[PortKind, PairLog] = {}
        self._frozen: Dict[PortKind, Tuple[object, CliquePartition]] = {}
        self._plan_cache: Dict[tuple, _WrappedBuild] = {}
        self._node_sigs: Dict[str, tuple] = {}
        self._estimator: Optional[OverlapTestabilityEstimator] = None
        # pending-edit state
        self._moved: Set[str] = set()
        self._structural = False
        # baseline bookkeeping
        self._base_rev = _reverse_anchors(self.problem.dedicated_anchors)
        self._base_order = self._dedicated_order()
        # telemetry of the last solve (read by the CLI)
        self.last_dirty_frac = 0.0
        self.last_fallback: Optional[str] = None
        self.edit_count = 0
        # per-solve scratch (set in solve())
        self._solve_model: Optional[ReuseTimingModel] = None
        self._solve_dirty: Set[str] = set()
        #: FF/TSV sites of the solve; no edit lands mid-solve, so every
        #: sign-off round reads the same map
        self._solve_positions: Dict[str, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def apply(self, edit: Edit) -> None:
        """Queue one edit; the next :meth:`solve` accounts for it."""
        trace.inc("session.edits")
        self.edit_count += 1
        netlist = self.netlist
        if isinstance(edit, MoveFf):
            inst = netlist.instance(edit.name)
            if not inst.is_scan:
                raise ConfigError(f"{edit.name} is not a scan flip-flop")
            inst.x, inst.y = edit.x, edit.y
            self._moved.add(edit.name)
        elif isinstance(edit, MoveTsv):
            port = netlist.port(edit.name)
            if not port.is_tsv:
                raise ConfigError(f"{edit.name} is not a TSV")
            port.x, port.y = edit.x, edit.y
            self._moved.add(edit.name)
        elif isinstance(edit, AddTsv):
            self._add_tsv(edit)
            self._structural = True
        elif isinstance(edit, RemoveTsv):
            self._remove_tsv(edit)
            self._structural = True
        elif isinstance(edit, SetThreshold):
            changes = {}
            if edit.d_th_um is not None:
                changes["d_th_um"] = edit.d_th_um
            if edit.cov_th is not None:
                changes["cov_th"] = edit.cov_th
            if changes:
                self.config = dataclasses.replace(self.config, **changes)
        else:
            raise ConfigError(f"unknown edit {edit!r}")

    def _add_tsv(self, edit: AddTsv) -> None:
        netlist = self.netlist
        if edit.kind not in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND):
            raise ConfigError(f"AddTsv kind must be a TSV kind, "
                              f"got {edit.kind}")
        if edit.kind is PortKind.TSV_OUTBOUND:
            if edit.net is None:
                raise ConfigError("AddTsv(outbound) needs net= — the TSV "
                                  "observes an existing signal")
            netlist.net(edit.net)  # must exist
            net_name = edit.net
        else:
            net_name = edit.net if edit.net is not None \
                else f"{edit.name}_net"
        port = netlist.add_port(edit.name, edit.kind)
        netlist.connect_port(edit.name, net_name)
        port.x, port.y = edit.x, edit.y

    def _remove_tsv(self, edit: RemoveTsv) -> None:
        netlist = self.netlist
        port = netlist.port(edit.name)
        if not port.is_tsv:
            raise ConfigError(f"{edit.name} is not a TSV")
        net_name = port.net
        if net_name is not None:
            net = netlist.net(net_name)
            pin = port.pin()
            if net.driver == pin:
                net.driver = None
            net.sinks = [s for s in net.sinks if s != pin]
            if net.driver is None and not net.sinks:
                del netlist.nets[net_name]
        del netlist.ports[edit.name]
        netlist._topo_cache = None

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> WcmRunResult:
        """Re-solve the die under the pending edits."""
        with trace.span("session.solve", kind="phase"):
            return self._solve()

    def _solve(self) -> WcmRunResult:
        self.last_fallback = None
        if self._structural:
            self._fallback("structural")
        else:
            self._refresh_baseline()

        model = ReuseTimingModel(self.problem, self.config)
        sigs = self._node_signatures(model)
        dirty = {name for name in set(sigs) | set(self._node_sigs)
                 if sigs.get(name) != self._node_sigs.get(name)}
        frac = (len(dirty) / max(1, len(sigs))
                if self._node_sigs else 1.0)
        self.last_dirty_frac = frac
        trace.observe("session.dirty_frac", frac)
        if self.last_fallback is None and self._node_sigs \
                and frac > self.fallback_ratio:
            self._fallback("dirty_frac")
            # the problem was rebuilt; re-derive the model and
            # signatures from it
            model = ReuseTimingModel(self.problem, self.config)
            sigs = self._node_signatures(model)
            dirty = set(sigs)
        self._node_sigs = sigs
        self._solve_model = model
        self._solve_dirty = dirty
        self._solve_positions = self._anchor_positions()
        self._moved.clear()

        result = run_wcm_flow(self.problem, self.config,
                              hooks=_SessionHooks(self))
        self._solve_model = None
        return result

    def _fallback(self, reason: str) -> None:
        """Drop the scoped path: rebuild the problem cold and let the
        memo caches refill on the way through the flow."""
        trace.inc("session.fallback")
        self.last_fallback = reason
        self.problem = build_problem(self.netlist, clock=self._clock,
                                     already_prepared=True)
        self._base_rev = _reverse_anchors(self.problem.dedicated_anchors)
        self._base_order = self._dedicated_order()
        self._pair_logs.clear()
        self._frozen.clear()
        self._node_sigs.clear()
        if self._structural:
            # cached wrapped builds and the testability estimator embed
            # the old die structure
            self._plan_cache.clear()
            self._estimator = None
        self._structural = False
        self._moved.clear()

    # -- baseline refresh ----------------------------------------------
    def _dedicated_order(self) -> List[str]:
        return [ff.name for ff in _serpentine_order(
            self.problem.dedicated_netlist.scan_flip_flops())]

    def _refresh_baseline(self) -> None:
        """Mirror pending moves into the dedicated reference build and
        delta-time it. When the moves change the serpentine order the
        dedicated build is first rewired in place — restitching removes
        and recreates the scan ports/nets exactly as a cold
        ``insert_wrappers`` + restitch would — and the scan-affected
        nets simply join the dirty set (see :func:`_restitch_in_place`).
        Cones, the mux-out map and the anchors are position-independent
        and survive; the node signatures pick up every timing shift, so
        the scoped graph/partition path continues normally."""
        if not self._moved:
            return
        problem = self.problem
        dedicated = problem.dedicated_netlist
        context = problem.timing_context
        dirty_nets = self._mirror_positions(
            dedicated, self._moved, self._base_rev)
        if self._dedicated_order() != self._base_order:
            trace.inc("session.restitch")
            self.last_fallback = "restitch"
            with trace.span("session.restitch", kind="phase"):
                dirty_nets |= _restitch_in_place(dedicated)
            self._base_order = self._dedicated_order()
        if context is None:
            context = problem.timing_context = TimingContext(dedicated)
            with trace.span("session.baseline", kind="phase"):
                timing = context.analyze(
                    self._clock, case=default_case(dedicated, test_mode=0))
                test_timing = context.analyze(
                    self._clock, case=default_case(dedicated, test_mode=1))
        else:
            with trace.span("session.baseline", kind="phase"):
                context.invalidate_nets(sorted(dirty_nets))
                timing = context.analyze_delta(
                    self._clock, case=default_case(dedicated, test_mode=0),
                    previous=problem.timing, dirty_nets=dirty_nets)
                test_timing = context.analyze_delta(
                    self._clock, case=default_case(dedicated, test_mode=1),
                    previous=problem.test_timing, dirty_nets=dirty_nets)
        problem.timing = timing
        problem.test_timing = test_timing
        problem.dedicated_critical_path_ps = max(
            timing.critical_path_ps, test_timing.critical_path_ps)

    def _mirror_positions(self, target: Netlist, moved,
                          anchors_rev: Dict[str, List[str]]) -> Set[str]:
        """Copy the bare-netlist positions of *moved* objects onto their
        same-name twins in *target* plus the wrapper gear anchored at
        them; return the incident nets (the dirty set for STA)."""
        dirty: Set[str] = set()

        def reposition(name: str, x: float, y: float) -> None:
            inst = target.instances.get(name)
            if inst is not None:
                inst.x, inst.y = x, y
                dirty.update(inst.connections.values())
                return
            port = target.ports.get(name)
            if port is not None:
                port.x, port.y = x, y
                if port.net is not None:
                    dirty.add(port.net)

        for name in moved:
            source = self.netlist.instances.get(name) \
                or self.netlist.ports.get(name)
            if source is None:
                continue
            reposition(name, source.x, source.y)
            for anchored in anchors_rev.get(name, ()):
                reposition(anchored, source.x, source.y)
        return dirty

    # -- node signatures ------------------------------------------------
    def _node_signatures(self, model: ReuseTimingModel) -> Dict[str, tuple]:
        """Everything the graph's row kernel (``reuse_row``,
        ``share_row``, ``initial_state``) reads per node; an unchanged
        signature certifies every logged pair touching the node."""
        problem = self.problem
        netlist = problem.netlist
        t, tt = problem.timing, problem.test_timing
        sigs: Dict[str, tuple] = {}
        for name in problem.scan_ffs:
            inst = netlist.instances[name]
            q = inst.output_net()
            d = inst.connections.get("D")
            sigs[name] = (
                "ff", inst.x, inst.y,
                t.arrival_ps.get(q), t.required_ps.get(q),
                t.arrival_ps.get(d), t.required_ps.get(d),
                tt.arrival_ps.get(q), tt.required_ps.get(q),
                tt.arrival_ps.get(d), tt.required_ps.get(d),
            )
        for name in problem.inbound_tsvs:
            port = netlist.ports[name]
            sigs[name] = (
                "in", port.x, port.y,
                model.model_load_ff(name),
                model.required_at_mux_b(name),
            )
        for name in problem.outbound_tsvs:
            port = netlist.ports[name]
            net = port.net
            sigs[name] = (
                "out", port.x, port.y,
                tt.slack_of_port(name),
                t.arrival_ps.get(net), t.required_ps.get(net),
                tt.arrival_ps.get(net), tt.required_ps.get(net),
            )
        return sigs

    # -- flow hooks ------------------------------------------------------
    def _make_estimator(self, problem: WcmProblem, config: WcmConfig
                        ) -> Optional[OverlapTestabilityEstimator]:
        if not config.allow_overlap:
            return None
        # Estimates depend only on cone overlaps and the fault
        # universe — netlist structure, not positions, timing or
        # thresholds — so one instance (its universe counted once)
        # serves every scoped solve; dropped on structural edits.
        if self._estimator is None:
            self._estimator = OverlapTestabilityEstimator(problem)
        return self._estimator

    def _build_graph(self, problem: WcmProblem, kind: PortKind,
                     available_ffs, config: WcmConfig,
                     model: ReuseTimingModel, estimator) -> WcmGraph:
        return build_wcm_graph(
            problem, kind, available_ffs, config, model, estimator,
            pair_log=self._pair_logs.setdefault(kind, PairLog()),
            dirty=self._solve_dirty)

    def _partition(self, graph: WcmGraph,
                   model: ReuseTimingModel) -> CliquePartition:
        sig = _graph_sig(graph)
        frozen = self._frozen.get(graph.kind)
        if frozen is not None and frozen[0] == sig:
            dirty = self._solve_dirty & set(graph.nodes)
        else:
            dirty = {"__graph_changed__"}
        if frozen is None:
            result = partition_cliques(graph, model,
                                       merge_memo=self._merge_memo)
        else:
            result = repartition(graph, model, dirty, frozen[1],
                                 merge_memo=self._merge_memo)
        self._frozen[graph.kind] = (sig, _copy_partition(result))
        return result

    def _signoff(self, problem: WcmProblem, plan, config: WcmConfig):
        # structural identity of the plan — cheaper than a generic
        # fingerprint() and injective on everything insertion reads
        key = (plan.die_name,
               tuple((g.kind, tuple(g.tsvs), g.reused_ff)
                     for g in plan.groups),
               tuple(plan.excluded_tsvs))
        entry = self._plan_cache.get(key)
        positions = self._solve_positions
        if entry is not None:
            moved = [name for name, pos in positions.items()
                     if entry.positions.get(name) != pos]
            hit = self._warm_signoff(entry, moved)
            if hit:
                trace.inc("session.signoff_hits")
                entry.positions = positions
                return (entry.wrapped, entry.report, entry.functional,
                        entry.test)
        # same steps (and counters) as flow.signoff_build, but keeping
        # the TimingContext so later solves can delta-time this build
        with trace.span("flow.insertion", kind="phase"):
            wrapped, report = insert_wrappers(problem.netlist, plan)
            stitch_scan_chains(wrapped, restitch=True)
        with trace.span("flow.sta", kind="phase"):
            context = TimingContext(wrapped)
            functional = context.analyze(
                self._clock, case=default_case(wrapped, test_mode=0))
            test = context.analyze(
                self._clock, case=default_case(wrapped, test_mode=1))
        entry = _WrappedBuild(
            wrapped=wrapped, report=report, context=context,
            functional=functional, test=test, positions=positions,
            order=[ff.name for ff in
                   _serpentine_order(wrapped.scan_flip_flops())],
            anchors_rev=_reverse_anchors(report.placement_anchors),
        )
        while len(self._plan_cache) >= self.MAX_PLAN_CACHE:
            self._plan_cache.pop(next(iter(self._plan_cache)))
        self._plan_cache[key] = entry
        return wrapped, report, functional, test

    def _warm_signoff(self, entry: _WrappedBuild, moved) -> bool:
        """Delta-time a cached build after mirroring *moved*. When the
        moves change its restitch order the entry is rewired in place
        (matching a cold insert + restitch) and the scan-affected nets
        join the dirty set."""
        if not moved:
            return True
        with trace.span("flow.insertion", kind="phase"):
            dirty = self._mirror_positions(entry.wrapped, moved,
                                           entry.anchors_rev)
            order = [ff.name for ff in
                     _serpentine_order(entry.wrapped.scan_flip_flops())]
            if order != entry.order:
                dirty |= _restitch_in_place(entry.wrapped)
                entry.order = order
        with trace.span("flow.sta", kind="phase"):
            entry.context.invalidate_nets(sorted(dirty))
            entry.functional = entry.context.analyze_delta(
                self._clock,
                case=default_case(entry.wrapped, test_mode=0),
                previous=entry.functional, dirty_nets=dirty)
            entry.test = entry.context.analyze_delta(
                self._clock,
                case=default_case(entry.wrapped, test_mode=1),
                previous=entry.test, dirty_nets=dirty)
        return True

    def _anchor_positions(self) -> Dict[str, Tuple[float, float]]:
        netlist = self.netlist
        positions = {name: (inst.x, inst.y)
                     for name, inst in netlist.instances.items()
                     if inst.is_scan}
        for name, port in netlist.ports.items():
            if port.is_tsv:
                positions[name] = (port.x, port.y)
        return positions


# ---------------------------------------------------------------------------
# Public byte-identity surface (shared by repro.verify and repro.serve)
# ---------------------------------------------------------------------------
def netlist_payload(netlist: Netlist) -> dict:
    """Canonical structural payload of a netlist (not a dataclass, so
    :func:`repro.util.fingerprint.fingerprint` needs the explicit
    rendering)."""
    return {
        "name": netlist.name,
        "ports": [(p.name, p.kind.value, p.net, p.x, p.y)
                  for p in netlist.ports.values()],
        "instances": [(i.name, i.cell.name,
                       tuple(sorted(i.connections.items())), i.x, i.y)
                      for i in netlist.instances.values()],
        "nets": [(net.name, net.driver, tuple(net.sinks))
                 for net in netlist.nets.values()],
    }


def result_fingerprint(result: WcmRunResult) -> str:
    """Fingerprint of everything a solve produces — the byte-identity
    oracle surface (plan, wrapped netlist, timings, stats, order) that
    a warm session re-solve, a served job, and a cold
    :func:`~repro.core.flow.run_wcm_flow` must agree on."""
    from repro.util.fingerprint import fingerprint

    return fingerprint({
        "plan": result.plan,
        "insertion": result.insertion,
        "final_timing": result.final_timing,
        "test_mode_timing": result.test_mode_timing,
        "graph_stats": result.graph_stats,
        "partitions": result.partitions,
        "order": [kind.value for kind in result.order],
        "wrapped": netlist_payload(result.wrapped_netlist),
    })
