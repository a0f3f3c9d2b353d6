"""Incremental ECO sessions: scoped re-solve instead of cold WCM runs.

The paper's flow (Fig. 6) re-runs sharing-graph construction, clique
partitioning and STA from scratch for every die configuration, yet a
typical ECO edit — move one FF or TSV, nudge ``d_th``/``cov_th`` —
perturbs only a small neighbourhood of the sharing graph.
:class:`WcmSession` loads a die once and serves a typed edit stream,
re-solving incrementally:

* **One warm path.** The problem's dedicated reference build and
  every cached sign-off build is a :class:`~repro.core.problem.SignoffBuild`,
  and each solve *follows* them to the bare die's FF/TSV sites
  (:meth:`~repro.core.problem.SignoffBuild.follow`): moved sites are
  copied onto their twins and the wrapper gear anchored at them, a
  changed serpentine order is restitched in place, and the warm
  :class:`~repro.sta.timer.TimingContext` re-times both sign-off modes
  with ``invalidate_nets`` + ``analyze_delta`` instead of full sweeps.
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
* **Sign-off cache.** Sign-off builds are cached per plan
  fingerprint with their last results; a cache hit follows the build
  to the solve's sites, skipping insertion and full STA, and a miss
  derives its context from the followed reference build.
* **Fallback.** Structural edits (``AddTsv``/``RemoveTsv``) or a
  dirty fraction above ``fallback_ratio`` drop the scoped path and
  re-solve cold (the pair logs and other memos are rebuilt on the way
  through). A chain-order change is not a fallback: the warm path
  restitches in place (reported as ``last_fallback == "restitch"``).

Every scoped mechanism is differentially verified against a cold solve
as the oracle — results, per-category stats and manifest fingerprints
must be byte-identical (``repro.verify`` check ``eco``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple, Union

from repro.core.clique import CliquePartition, Clique, partition_cliques, repartition
from repro.core.config import WcmConfig
from repro.core.flow import FlowHooks, WcmRunResult, run_wcm_flow
from repro.core.graph import PairLog, WcmGraph, build_wcm_graph
from repro.core.problem import (SignoffBuild, SignoffTiming, WcmProblem,
                                build_problem)
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.netlist.core import Netlist, PortKind
from repro.runtime import trace
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


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------
class WcmSession(FlowHooks):
    """Hold one die and serve incremental WCM re-solves over an edit
    stream. See the module docstring for the mechanism; results are
    byte-identical to ``run_wcm_flow`` on a freshly built problem.
    The session is the flow's hooks: each one serves its step from the
    session's memos.

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
        #: plan key -> its sign-off build and that build's last results
        self._plan_cache: Dict[tuple, Tuple[SignoffBuild, SignoffTiming]] = {}
        self._node_sigs: Dict[str, tuple] = {}
        self._estimator: Optional[OverlapTestabilityEstimator] = None
        # pending-edit state (moves need none: every build compares its
        # twins with the bare die's sites)
        self._structural = False
        # telemetry of the last solve (read by the CLI)
        self.last_dirty_frac = 0.0
        self.last_fallback: Optional[str] = None
        self.edit_count = 0
        # per-solve scratch (set in solve())
        self._solve_model: Optional[ReuseTimingModel] = None
        self._solve_dirty: Set[str] = set()
        #: FF/TSV sites of the solve; no edit lands mid-solve, so the
        #: baseline and every sign-off round follow the same map
        self._solve_sites: Dict[str, Tuple[float, float]] = {}

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
        elif isinstance(edit, MoveTsv):
            port = netlist.port(edit.name)
            if not port.is_tsv:
                raise ConfigError(f"{edit.name} is not a TSV")
            port.x, port.y = edit.x, edit.y
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
        self._solve_sites = self._sites()
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

        result = run_wcm_flow(self.problem, self.config, hooks=self)
        self._solve_model = None
        return result

    def _fallback(self, reason: str) -> None:
        """Drop the scoped path: rebuild the problem cold and let the
        memo caches refill on the way through the flow."""
        trace.inc("session.fallback")
        self.last_fallback = reason
        self.problem = build_problem(self.netlist, clock=self._clock,
                                     already_prepared=True)
        self._pair_logs.clear()
        self._frozen.clear()
        self._node_sigs.clear()
        if self._structural:
            # cached sign-off builds and the testability estimator embed
            # the old die structure
            self._plan_cache.clear()
            self._estimator = None
        self._structural = False

    # -- baseline refresh ----------------------------------------------
    def _refresh_baseline(self) -> None:
        """Follow the dedicated reference build to the solve's sites
        (:meth:`SignoffBuild.follow`). A move that changes the
        serpentine order restitches the build in place, as a cold
        insertion + restitch would, and is counted as a restitch. Cones
        and the mux-out map are position-independent and survive; the
        node signatures pick up every timing shift, so the scoped
        graph/partition path continues normally."""
        problem = self.problem
        (timing, test_timing), restitched = problem.reference.follow(
            self._solve_sites, (problem.timing, problem.test_timing),
            edit_phase=None, restitch_phase="session.restitch",
            sta_phase="session.baseline")
        if restitched:
            trace.inc("session.restitch")
            self.last_fallback = "restitch"
        problem.timing = timing
        problem.test_timing = test_timing
        problem.dedicated_critical_path_ps = max(
            timing.critical_path_ps, test_timing.critical_path_ps)

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
    def make_model(self, problem: WcmProblem,
                   config: WcmConfig) -> ReuseTimingModel:
        return self._solve_model

    def make_estimator(self, problem: WcmProblem, config: WcmConfig
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

    def build_graph(self, problem: WcmProblem, kind: PortKind,
                    available_ffs, config: WcmConfig,
                    model: ReuseTimingModel, estimator) -> WcmGraph:
        return build_wcm_graph(
            problem, kind, available_ffs, config, model, estimator,
            pair_log=self._pair_logs.setdefault(kind, PairLog()),
            dirty=self._solve_dirty)

    def partition(self, graph: WcmGraph,
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

    def signoff(self, problem: WcmProblem, plan, config: WcmConfig):
        """A cached build of the same plan follows the solve's sites;
        any other plan is built, its context derived from the followed
        reference, and cached (FIFO-bounded)."""
        # structural identity of the plan — cheaper than a generic
        # fingerprint() and injective on everything insertion reads
        # (the kind's value: an Enum hashes in Python, a str in C)
        key = (plan.die_name,
               tuple((g.kind.value, tuple(g.tsvs), g.reused_ff)
                     for g in plan.groups),
               tuple(plan.excluded_tsvs))
        entry = self._plan_cache.get(key)
        if entry is not None:
            trace.inc("session.signoff_hits")
            build, timing = entry
            timing, _restitched = build.follow(self._solve_sites, timing)
        else:
            build, timing = SignoffBuild.signoff(problem.netlist, plan,
                                                 self._clock,
                                                 problem.reference)
            while len(self._plan_cache) >= self.MAX_PLAN_CACHE:
                self._plan_cache.pop(next(iter(self._plan_cache)))
        self._plan_cache[key] = (build, timing)
        return (build.wrapped, build.report) + timing

    def _sites(self) -> Dict[str, Tuple[float, float]]:
        netlist = self.netlist
        sites = {name: (inst.x, inst.y)
                 for name, inst in netlist.instances.items()
                 if inst.is_scan}
        for name, port in netlist.ports.items():
            if port.is_tsv:
                sites[name] = (port.x, port.y)
        return sites


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
