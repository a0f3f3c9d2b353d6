"""End-to-end WCM flow (the paper's Fig. 6).

For one prepared die and one method configuration:

1. **TSV analysis / ordering** — ours processes the larger TSV set
   first (Section IV-A, motivated by Table I); [4] processes inbound
   first. An explicit override supports the Table I experiment.
2. Per TSV set: **graph construction** (Algorithm 1) over the still-
   available scan FFs, then **heuristic clique partitioning**
   (Algorithm 2). FFs reused in the first pass are consumed.
3. **Wrapper generation** — cliques become a
   :class:`~repro.dft.wrapper.WrapperPlan`; excluded TSVs get
   dedicated cells.
4. **Sign-off** — each round builds the plan as a
   :class:`~repro.core.problem.SignoffBuild` (insertion, restitch, one
   timing context) and analyzes both modes under the scenario clock;
   the final round decides the Table III timing-violation verdict.
   ATPG (:func:`measure_testability`) provides the Table IV/V coverage
   and pattern counts.

The steps an ECO session memoizes are :class:`FlowHooks`; the session
(``repro.core.session``) is itself a subclass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.atpg.engine import AtpgConfig, AtpgResult, run_stuck_at_atpg
from repro.atpg.transition import run_transition_atpg
from repro.core.clique import CliquePartition, partition_cliques
from repro.core.config import WcmConfig
from repro.core.graph import GraphStats, WcmGraph, build_wcm_graph
from repro.core.problem import SignoffBuild, WcmProblem
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import FfReuseLedger, ReuseTimingModel
from repro.dft.testview import build_prebond_test_view
from repro.dft.wrapper import InsertionReport, WrapperGroup, WrapperPlan
from repro.netlist.core import Netlist, PortKind
from repro.runtime import trace
from repro.sta.timer import TimingResult
from repro.util.errors import ConfigError


@dataclass
class WcmRunResult:
    """Everything one method run produces for one die."""

    die_name: str
    method: str
    scenario: str
    plan: WrapperPlan
    wrapped_netlist: Netlist
    insertion: InsertionReport
    #: functional-mode sign-off STA (test_mode = 0)
    final_timing: TimingResult
    #: at-speed test-capture STA (test_mode = 1)
    test_mode_timing: Optional[TimingResult] = None
    graph_stats: Dict[str, GraphStats] = field(default_factory=dict)
    partitions: Dict[str, CliquePartition] = field(default_factory=dict)
    order: Tuple[PortKind, ...] = ()

    # -- the paper's headline quantities ---------------------------------
    @property
    def reused_scan_ffs(self) -> int:
        return self.plan.reused_scan_ff_count

    @property
    def additional_wrapper_cells(self) -> int:
        return self.plan.additional_wrapper_cells

    @property
    def timing_violation(self) -> bool:
        if self.final_timing.has_violation:
            return True
        return (self.test_mode_timing is not None
                and self.test_mode_timing.has_violation)

    @property
    def worst_slack_ps(self) -> float:
        worst = self.final_timing.worst_slack_ps
        if self.test_mode_timing is not None:
            worst = min(worst, self.test_mode_timing.worst_slack_ps)
        return worst

    @property
    def total_graph_edges(self) -> int:
        return sum(s.edges for s in self.graph_stats.values())


def decide_order(problem: WcmProblem, config: WcmConfig
                 ) -> Tuple[PortKind, ...]:
    """TSV-set processing order (Section IV-A)."""
    inbound, outbound = PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND
    if not config.order_by_set_size:
        return (inbound, outbound)  # [4]'s fixed order
    if len(problem.outbound_tsvs) > len(problem.inbound_tsvs):
        return (outbound, inbound)
    return (inbound, outbound)


def _adopt_ffs(problem: WcmProblem, graph, partition: CliquePartition,
               model: ReuseTimingModel, ledger: FfReuseLedger,
               max_candidates: int = 24) -> int:
    """FF-adoption phase (DESIGN.md §4): FF-less cliques adopt a scan FF
    that (a) has a graph edge to every member and (b) still has timing
    budget in the ledger. Returns the number of adoptions."""
    ff_names = [n for n in graph.nodes if graph.is_ff[n]]
    ff_set = set(ff_names)
    adopted = 0
    for clique in partition.cliques:
        if clique.ff is not None or not clique.tsvs:
            continue
        candidates: Optional[set] = None
        for member in clique.tsvs:
            member_ffs = graph.adjacency.get(member, set()) & ff_set
            candidates = (member_ffs if candidates is None
                          else candidates & member_ffs)
            if not candidates:
                break
        if not candidates:
            continue
        anchor = clique.state.anchor if clique.state else (0.0, 0.0)

        def hop(ff: str) -> float:
            fx, fy = problem.location_of(ff)
            return abs(fx - anchor[0]) + abs(fy - anchor[1])

        # Tie-break lexicographically: *candidates* is a set of FF-name
        # strings, and a plain stable sort would leave equidistant FFs
        # in hash order (PYTHONHASHSEED-dependent).
        for ff in sorted(candidates, key=lambda f: (hop(f), f))[:max_candidates]:
            if clique.state is not None \
                    and ledger.adoption_feasible(ff, clique.state):
                clique.ff = ff
                ledger.commit(ff, clique.state)
                adopted += 1
                break
    return adopted


def _walk_critical_path(wrapped: Netlist, timing: TimingResult,
                        endpoint_name: str, max_steps: int = 200
                        ) -> Iterator[str]:
    """Instance names along the worst-arrival chain into an endpoint,
    yielded lazily: the caller stops reading once it has chosen a
    group. The chain follows a flip-flop's D pin past its Q, so an
    unread walk runs on through the launching flops to *max_steps*."""
    if endpoint_name in wrapped.instances:
        current = wrapped.instances[endpoint_name].connections.get("D")
    elif endpoint_name in wrapped.ports:
        current = wrapped.ports[endpoint_name].net
    else:
        return
    for _ in range(max_steps):
        if current is None:
            break
        net = wrapped.nets.get(current)
        if net is None or net.driver is None or net.driver.is_port:
            break
        inst_name = net.driver.owner_name
        yield inst_name
        inst = wrapped.instances[inst_name]
        candidates = [(pin, n) for pin, n in inst.input_nets()
                      if pin not in ("CK", "SE", "SI")]
        if not candidates:
            break
        current = max(candidates,
                      key=lambda pn: timing.arrival_ps.get(pn[1], 0.0))[1]


def _evict_violating_groups(wrapped: Netlist, report: InsertionReport,
                            plan: WrapperPlan, violations, evict_budget: int,
                            max_endpoints: int = 40):
    """Demote/split the groups *on the critical paths* of violating
    endpoints — at most *evict_budget* changes per round, worst paths
    first. Whole-cone attribution would evict innocents; walking the
    worst-arrival chain pinpoints the causal group. Returns
    (plan, changed). *violations* is a list of (endpoint, timing)."""
    inst_to_group: Dict[str, int] = {}
    for index, instances in enumerate(report.group_instances):
        for name in instances:
            inst_to_group[name] = index

    n_groups = len(plan.groups)
    evict: set = set()
    split: set = set()
    budget = max(1, evict_budget)
    worst_first = sorted(violations, key=lambda pair: pair[0].slack_ps)
    for endpoint, timing in worst_first[:max_endpoints]:
        if len(evict) + len(split) >= budget:
            break
        path = _walk_critical_path(wrapped, timing, endpoint.name)
        if endpoint.name in inst_to_group:
            path = itertools.chain((endpoint.name,), path)
        chosen = None
        fallback = None
        for inst_name in path:
            group_index = inst_to_group.get(inst_name)
            if group_index is None or group_index >= n_groups:
                continue
            if group_index in evict or group_index in split:
                chosen = group_index  # already being fixed this round
                break
            group = plan.groups[group_index]
            if group.reused_ff is not None:
                chosen = group_index
                break
            if len(group.tsvs) > 1 and fallback is None:
                fallback = group_index
        if chosen is not None and chosen not in evict | split:
            evict.add(chosen)
        elif chosen is None and fallback is not None:
            split.add(fallback)

    if not evict and not split:
        return plan, False

    new_groups: List[WrapperGroup] = []
    for index, group in enumerate(plan.groups):
        if index in evict and group.reused_ff is not None:
            new_groups.append(WrapperGroup(kind=group.kind,
                                           tsvs=list(group.tsvs),
                                           reused_ff=None))
        elif index in split or (index in evict
                                and group.reused_ff is None):
            for tsv in group.tsvs:
                new_groups.append(WrapperGroup(kind=group.kind, tsvs=[tsv]))
        else:
            new_groups.append(group)
    return WrapperPlan(die_name=plan.die_name, groups=new_groups,
                       excluded_tsvs=list(plan.excluded_tsvs)), True


def signoff_violations(functional_timing: TimingResult,
                       test_timing: TimingResult):
    """Violating endpoints of one sign-off round, worst-cause pairs."""
    return ([(e, functional_timing) for e in functional_timing.violations]
            + [(e, test_timing) for e in test_timing.violations])


def signoff_build(problem: WcmProblem, plan: WrapperPlan, config: WcmConfig
                  ) -> Tuple[Netlist, InsertionReport, TimingResult,
                             TimingResult]:
    """One sign-off round (:meth:`SignoffBuild.signoff`): insert the
    plan, restitch, derive the timing context from the problem's
    reference build, analyze both sign-off modes."""
    build, (functional, test) = SignoffBuild.signoff(
        problem.netlist, plan, config.scenario.clock, problem.reference)
    return build.wrapped, build.report, functional, test


class FlowHooks:
    """Substitutable steps of :func:`run_wcm_flow`.

    The defaults reproduce the cold flow exactly; an incremental
    session (:class:`repro.core.session.WcmSession`) overrides them
    with memoized variants whose results must stay byte-identical —
    enforced by the ``eco`` differential check in ``repro.verify``.
    """

    def make_model(self, problem: WcmProblem,
                   config: WcmConfig) -> ReuseTimingModel:
        return ReuseTimingModel(problem, config)

    def make_estimator(self, problem: WcmProblem, config: WcmConfig
                       ) -> Optional[OverlapTestabilityEstimator]:
        return (OverlapTestabilityEstimator(problem)
                if config.allow_overlap else None)

    def build_graph(self, problem: WcmProblem, kind: PortKind,
                    available_ffs: List[str], config: WcmConfig,
                    model: ReuseTimingModel,
                    estimator: Optional[OverlapTestabilityEstimator]
                    ) -> WcmGraph:
        return build_wcm_graph(problem, kind, available_ffs, config,
                               model, estimator)

    def partition(self, graph: WcmGraph,
                  model: ReuseTimingModel) -> CliquePartition:
        return partition_cliques(graph, model)

    def signoff(self, problem: WcmProblem, plan: WrapperPlan,
                config: WcmConfig):
        return signoff_build(problem, plan, config)


_DEFAULT_HOOKS = FlowHooks()


def run_wcm_flow(problem: WcmProblem, config: WcmConfig,
                 order_override: Optional[Tuple[PortKind, ...]] = None,
                 hooks: Optional[FlowHooks] = None) -> WcmRunResult:
    """Run one method/scenario on one prepared die."""
    hooks = hooks or _DEFAULT_HOOKS
    model = hooks.make_model(problem, config)
    estimator = hooks.make_estimator(problem, config)
    order = order_override or decide_order(problem, config)
    if set(order) != {PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND}:
        raise ConfigError(f"order must cover both TSV kinds, got {order}")

    all_ffs = list(problem.scan_ffs)
    ledger = FfReuseLedger(model)
    groups: List[WrapperGroup] = []
    excluded: List[str] = []
    graph_stats: Dict[str, GraphStats] = {}
    partitions: Dict[str, CliquePartition] = {}

    for kind in order:
        with trace.span("flow.graph", kind="phase"):
            graph = hooks.build_graph(problem, kind, all_ffs, config,
                                      model, estimator)
        with trace.span("flow.partition", kind="phase"):
            partition = hooks.partition(graph, model)
        graph_stats[kind.value] = graph.stats
        partitions[kind.value] = partition

        # Ledger first records the FFs Algorithm 2 itself placed...
        for clique in partition.cliques:
            if clique.ff is not None and clique.tsvs and clique.state:
                ledger.commit(clique.ff, clique.state)
        # ...then FF-less cliques adopt FFs with remaining budget.
        with trace.span("flow.adoption", kind="phase"):
            adopted = _adopt_ffs(problem, graph, partition, model, ledger)
        trace.inc("flow.adopted_ffs", adopted)

        for clique in partition.cliques:
            if not clique.tsvs:
                continue  # an unused FF
            groups.append(WrapperGroup(kind=kind, tsvs=list(clique.tsvs),
                                       reused_ff=clique.ff))
        excluded.extend(graph.excluded_tsvs)

    plan = WrapperPlan(die_name=problem.netlist.name, groups=groups,
                       excluded_tsvs=excluded)

    # ---- insertion + sign-off (+ ECO repair for the proposed method).
    # Per-group predictions cannot see the global arrival fixed point
    # (each reuse inflates arrivals downstream of its mux), so the flow
    # iterates sign-off STA and demotes reuse groups found on violating
    # paths to dedicated cells — the ECO loop every physical DFT flow
    # runs. [4] ships its first answer (signoff_repair=False), which is
    # exactly why it violates under tight timing (Table III).
    rounds = (config.repair_iterations
              if (config.signoff_repair and config.scenario.is_timed) else 1)
    wrapped = report = functional_timing = test_timing = None
    for _round in range(max(1, rounds)):
        trace.inc("flow.eco_rounds")
        wrapped, report, functional_timing, test_timing = \
            hooks.signoff(problem, plan, config)
        if not (config.signoff_repair and config.scenario.is_timed):
            break
        violations = signoff_violations(functional_timing, test_timing)
        if not violations:
            break
        # Gentle schedule: single evictions first (most violations have
        # one dominant cause), escalate only if they persist.
        budget = 1 if _round < 10 else 2 ** (_round - 9)
        plan, changed = _evict_violating_groups(
            wrapped, report, plan, violations, evict_budget=budget)
        if not changed:
            break
        trace.inc("flow.eco_repairs")

    return WcmRunResult(
        die_name=problem.netlist.name,
        method=config.method,
        scenario=config.scenario.name,
        plan=plan,
        wrapped_netlist=wrapped,
        insertion=report,
        final_timing=functional_timing,
        test_mode_timing=test_timing,
        graph_stats=graph_stats,
        partitions=partitions,
        order=tuple(order),
    )


@dataclass
class TestabilityReport:
    """ATPG outcome of a wrapped die (one Table IV cell pair)."""

    stuck_at: AtpgResult
    transition: Optional[AtpgResult] = None

    @property
    def stuck_at_pair(self) -> Tuple[float, int]:
        return (self.stuck_at.coverage, self.stuck_at.pattern_count)


def measure_testability(result: WcmRunResult,
                        atpg_config: Optional[AtpgConfig] = None,
                        include_transition: bool = True
                        ) -> TestabilityReport:
    """Run ATPG on the wrapped die (the flow's fault-coverage check)."""
    view = build_prebond_test_view(result.wrapped_netlist)
    stuck_at = run_stuck_at_atpg(view, atpg_config)
    transition = (run_transition_atpg(view, atpg_config)
                  if include_transition else None)
    return TestabilityReport(stuck_at=stuck_at, transition=transition)
