"""Differential and metamorphic checks: kernel vs oracle on one instance.

Each check takes a built :class:`Subject` and returns a list of
human-readable divergence strings (empty = clean). Checks are pure
observers — they never mutate the subject's problem — so one subject
can run the whole registry. The fuzzer treats any non-empty list (or
any exception during build/check) as a failure to shrink.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Callable, Dict, List, Optional

from repro.atpg.engine import _FaultDispatcher
from repro.atpg.faults import Fault, FaultKind, build_fault_list
from repro.atpg.podem import PodemGenerator
from repro.atpg.sim import CompiledCircuit
from repro.core.clique import CliquePartition, partition_cliques
from repro.core.config import WcmConfig
from repro.core.graph import WcmGraph, build_wcm_graph
from repro.core.problem import WcmProblem
from repro.core.session import result_fingerprint
from repro.core.testability import (
    OverlapTestabilityEstimator,
    build_ideal_wrapped_view,
)
from repro.core.timing_model import ReuseTimingModel
from repro.dft.testview import TestView, build_prebond_test_view
from repro.netlist.core import Netlist, PortKind
from repro.sta.constraints import UNCONSTRAINED
from repro.sta.timer import TimingContext, TimingResult, default_case
from repro.util.rng import DeterministicRng
from repro.verify.instances import InstanceSpec
from repro.verify.oracles import (
    check_functional_equivalence,
    exact_min_clique_partition,
    exhaustive_input_words,
    oracle_build_graph,
    oracle_detect_word,
    oracle_simulate,
    oracle_sta,
    partition_violations,
)

_TSV_KINDS = (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND)

#: inputs at or below this simulate every pattern instead of sampling
EXHAUSTIVE_INPUT_LIMIT = 10
_RANDOM_BLOCK_BITS = 64


class Subject:
    """One built verification instance shared by all checks."""

    def __init__(self, spec: InstanceSpec) -> None:
        self.spec = spec
        self.problem: WcmProblem = spec.build_problem()
        self.config: WcmConfig = spec.build_config(self.problem)
        self.view: TestView = build_prebond_test_view(self.problem.netlist)
        self.circuit = CompiledCircuit(self.view)

    # Fresh collaborators per call: the model caches per-node terms and
    # the estimator its fault universe, so a shared one would hand the
    # oracle side values the kernel side computed.
    def fresh_model(self) -> ReuseTimingModel:
        return ReuseTimingModel(self.problem, self.config)

    def fresh_estimator(self, config: Optional[WcmConfig] = None
                        ) -> Optional[OverlapTestabilityEstimator]:
        config = config or self.config
        if not config.allow_overlap:
            return None
        return OverlapTestabilityEstimator(self.problem)

    def kernel_graph(self, kind: PortKind) -> WcmGraph:
        return build_wcm_graph(self.problem, kind,
                               list(self.problem.scan_ffs), self.config,
                               timing_model=self.fresh_model(),
                               estimator=self.fresh_estimator())

    def input_blocks(self) -> tuple:
        """(input_words, mask): exhaustive when small, random otherwise."""
        count = self.circuit.input_count
        if count <= EXHAUSTIVE_INPUT_LIMIT:
            return exhaustive_input_words(count)
        rng = DeterministicRng(self.spec.seed).child("verify", "patterns")
        mask = (1 << _RANDOM_BLOCK_BITS) - 1
        words = [rng.getrandbits(_RANDOM_BLOCK_BITS) for _ in range(count)]
        return words, mask

    # The oracle side of the simulation, fault and PODEM checks: pure
    # functions of the view and the input block, computed once.
    @cached_property
    def faults(self) -> List[Fault]:
        """The collapsed stuck-at fault universe."""
        return build_fault_list(self.view).faults

    @cached_property
    def oracle_good(self) -> Dict[str, int]:
        """Oracle good-machine word of every net over the input block."""
        return oracle_simulate(self.view, *self.input_blocks())

    @cached_property
    def oracle_detections(self) -> List[int]:
        """Oracle detection word of every fault over the input block."""
        words, mask = self.input_blocks()
        return [oracle_detect_word(self.view, fault, words, mask,
                                   good=self.oracle_good)
                for fault in self.faults]


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------
def _compare_timing(label: str, kernel: TimingResult, oracle: TimingResult
                    ) -> List[str]:
    out: List[str] = []
    for field in ("netlist_name", "constraint", "arrival_ps", "required_ps",
                  "net_load_ff", "endpoints", "port_slack_ps",
                  "critical_path_ps"):
        k = getattr(kernel, field)
        o = getattr(oracle, field)
        if k != o:
            if isinstance(k, dict) and isinstance(o, dict):
                keys = [key for key in set(k) | set(o)
                        if k.get(key) != o.get(key)]
                out.append(f"{label}: {field} differs on {sorted(keys)[:4]} "
                           f"(+{max(0, len(keys) - 4)} more)")
            else:
                out.append(f"{label}: {field} kernel={k!r} oracle={o!r}")
    return out


def _compare_graph(label: str, kernel: WcmGraph, oracle: WcmGraph
                   ) -> List[str]:
    out: List[str] = []
    if kernel.nodes != oracle.nodes:
        out.append(f"{label}: node lists differ "
                   f"({len(kernel.nodes)} vs {len(oracle.nodes)})")
    if kernel.is_ff != oracle.is_ff:
        out.append(f"{label}: is_ff maps differ")
    if kernel.excluded_tsvs != oracle.excluded_tsvs:
        out.append(f"{label}: excluded TSVs kernel={kernel.excluded_tsvs} "
                   f"oracle={oracle.excluded_tsvs}")
    if kernel.adjacency != oracle.adjacency:
        names = [n for n in set(kernel.adjacency) | set(oracle.adjacency)
                 if kernel.adjacency.get(n) != oracle.adjacency.get(n)]
        out.append(f"{label}: adjacency differs at {sorted(names)[:4]} "
                   f"(+{max(0, len(names) - 4)} more)")
    if kernel.stats != oracle.stats:
        out.append(f"{label}: stats kernel={kernel.stats} "
                   f"oracle={oracle.stats}")
    return out


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------
def check_simulation(subject: Subject) -> List[str]:
    """Op-tape simulation vs the truth-table oracle, including the
    reusable-buffer entry point."""
    out: List[str] = []
    circuit = subject.circuit
    words, mask = subject.input_blocks()

    tape = circuit.simulate(words, mask)
    buffer = circuit.make_buffer()
    circuit.simulate([0] * len(words), mask, out=buffer)  # dirty it
    reused = circuit.simulate(words, mask, out=buffer)
    if reused != tape:
        out.append("sim: buffer-reuse simulate differs from fresh")

    for name, word in subject.oracle_good.items():
        if tape[circuit.net_ids[name]] != word:
            out.append(f"sim: net {name!r} kernel="
                       f"{tape[circuit.net_ids[name]]:#x} oracle={word:#x}")
            if len(out) > 6:
                break
    return out


def check_fault_detection(subject: Subject) -> List[str]:
    """The engine's block detector (fanout-free-region sensitization
    times stem observability) vs full forced re-simulation, for the
    complete collapsed fault universe scored as one block."""
    out: List[str] = []
    circuit = subject.circuit
    words, mask = subject.input_blocks()
    dispatcher = _FaultDispatcher(circuit, subject.faults)
    good = circuit.simulate(words, mask)
    kernels = dispatcher.detect_many(circuit, good,
                                     range(len(subject.faults)), mask)
    for index, fault in enumerate(subject.faults):
        kernel = kernels[index]
        oracle = subject.oracle_detections[index]
        if kernel != oracle:
            out.append(f"fault {fault.kind.name} sa{int(fault.polarity)} "
                       f"{fault.net!r} (owner={fault.owner!r}): kernel="
                       f"{kernel:#x} oracle={oracle:#x}")
            if len(out) > 6:
                break
    return out


def check_podem(subject: Subject) -> List[str]:
    """PODEM verdicts vs the forced-resimulation oracle, over the full
    collapsed fault list plus a justification of every stem net to 0
    and to 1.

    3-valued implication is sound, so a "detected" cube must detect
    (or justify) under *any* fill of its don't-cares; both the all-0
    and the all-1 fill are checked, packed as one 2-pattern block. An
    "untestable" verdict must hold over the subject's input block:
    every input pattern when there are few enough inputs to enumerate,
    a random sample otherwise. Aborted searches claim nothing."""
    out: List[str] = []
    circuit = subject.circuit
    view = subject.view
    generator = PodemGenerator(circuit)
    _words, mask = subject.input_blocks()

    def fills(assignment) -> List[int]:
        # bit 0 fills every don't-care with 0, bit 1 with 1
        return [(0b11 if assignment[nid] else 0b00)
                if nid in assignment else 0b10
                for nid in circuit.input_columns]

    def named(assignment) -> Dict[str, int]:
        return {circuit.net_names[nid]: value
                for nid, value in sorted(assignment.items())}

    for index, fault in enumerate(subject.faults):
        outcome = generator.run(fault)
        if outcome.status == "detected":
            detect = oracle_detect_word(view, fault,
                                        fills(outcome.assignment), 0b11)
            if detect != 0b11:
                missed = ("0-fill", "1-fill", "both fills")[
                    (detect ^ 0b11) - 1]
                out.append(f"podem[{fault.describe()}]: detected cube "
                           f"{named(outcome.assignment)} misses the "
                           f"fault on its {missed}")
        elif outcome.status == "untestable" \
                and subject.oracle_detections[index]:
            out.append(f"podem[{fault.describe()}]: untestable, but an "
                       f"oracle pattern detects it")
        if len(out) > 6:
            return out

    stems = sorted({f.net for f in subject.faults
                    if f.kind is FaultKind.STEM})
    for net in stems:
        for value in (0, 1):
            outcome = generator.justify(circuit.net_ids[net], value)
            if outcome.status == "detected":
                got = oracle_simulate(view, fills(outcome.assignment),
                                      0b11)[net]
                if got != (0b11 if value else 0b00):
                    out.append(f"podem[justify {net}={value}]: cube "
                               f"{named(outcome.assignment)} fills to "
                               f"{got:#04b}")
            elif outcome.status == "untestable":
                good = subject.oracle_good[net]
                if (good if value else ~good) & mask:
                    out.append(f"podem[justify {net}={value}]: "
                               f"untestable, but an oracle pattern "
                               f"reaches it")
            if len(out) > 6:
                return out
    return out


def pinned_case(netlist: Netlist, seed: int) -> Dict[str, int]:
    """A seeded case map that pins internal nets: the outputs of a few
    combinational gates, and for about half of them every data input
    of the driving gate as well. Constants then propagate several
    levels, and a gate's own value overrides (or agrees with) the entry
    on its output net. ``default_case`` reaches neither: its constants
    stop at the test-mode mux selects."""
    rng = DeterministicRng(seed).child("verify", "pinned-case")
    gates = [inst for inst in netlist.instances.values()
             if not inst.is_sequential and inst.output_net() is not None]
    case: Dict[str, int] = {}
    for inst in rng.sample(gates, min(len(gates), 4)):
        case[inst.output_net()] = rng.randint(0, 1)
        if rng.random() < 0.5:
            for pin, net in inst.input_nets():
                if pin not in ("CK", "SE", "SI"):
                    case.setdefault(net, rng.randint(0, 1))
    return case


def check_sta(subject: Subject) -> List[str]:
    """Reusable-context STA vs path-enumeration oracle: the problem's
    own baselines (functional + test mode), an unconstrained run, and
    a seeded case map pinning internal nets (:func:`pinned_case`)."""
    out: List[str] = []
    problem = subject.problem
    wrapped = problem.dedicated_netlist
    clock = problem.timing.constraint
    out += _compare_timing(
        "sta[functional]", problem.timing,
        oracle_sta(wrapped, clock, case=default_case(wrapped, test_mode=0)))
    out += _compare_timing(
        "sta[test]", problem.test_timing,
        oracle_sta(wrapped, clock, case=default_case(wrapped, test_mode=1)))
    fresh = TimingContext(wrapped)
    out += _compare_timing("sta[unconstrained]",
                           fresh.analyze(UNCONSTRAINED),
                           oracle_sta(wrapped, UNCONSTRAINED))
    case = pinned_case(wrapped, subject.spec.seed)
    out += _compare_timing("sta[pinned]", fresh.analyze(clock, case=case),
                           oracle_sta(wrapped, clock, case=case))
    return out


def check_sta_reuse(subject: Subject) -> List[str]:
    """Incremental invalidation vs recomputation: move one instance,
    invalidate its nets, and demand the cached context equals a
    from-scratch oracle on the moved netlist."""
    netlist = subject.problem.dedicated_netlist.clone()
    context = TimingContext(netlist)
    context.analyze(UNCONSTRAINED)  # populate caches
    instances = list(netlist.instances.values())
    if not instances:
        return []
    mover = instances[len(instances) // 2]
    mover.x += 13.0
    mover.y += 7.0
    context.invalidate_nets(set(mover.connections.values()))
    kernel = context.analyze(UNCONSTRAINED)
    oracle = oracle_sta(netlist, UNCONSTRAINED)
    return _compare_timing(f"sta[reuse after moving {mover.name}]",
                           kernel, oracle)


def check_graph(subject: Subject) -> List[str]:
    """The sharing-graph sweep vs the O(n^2) oracle, for both TSV
    directions, and the estimator's counted fault universe vs the
    length of the listed one."""
    out: List[str] = []
    problem = subject.problem
    ffs = list(problem.scan_ffs)
    for kind in _TSV_KINDS:
        kernel = subject.kernel_graph(kind)
        oracle = oracle_build_graph(problem, kind, ffs, subject.config,
                                    timing_model=subject.fresh_model(),
                                    estimator=subject.fresh_estimator())
        out += _compare_graph(f"graph[{kind.name}] kernel-vs-oracle",
                              kernel, oracle)
    counted = OverlapTestabilityEstimator(problem).universe_size()
    listed = max(1, build_fault_list(
        build_ideal_wrapped_view(problem.netlist)).total)
    if counted != listed:
        out.append(f"graph[universe]: the estimator counted {counted} "
                   f"faults, the ideal view's fault list holds {listed}")
    return out


def check_clique(subject: Subject) -> List[str]:
    """Partition validity (disjoint clique cover of the graph) plus the
    branch-and-bound lower bound on small instances."""
    out: List[str] = []
    for kind in _TSV_KINDS:
        graph = subject.kernel_graph(kind)
        partition = partition_cliques(graph, subject.fresh_model())
        for violation in partition_violations(graph, partition,
                                              subject.config.max_group_size):
            out.append(f"clique[{kind.name}]: {violation}")
        exact = exact_min_clique_partition(graph)
        if exact is not None and len(partition.cliques) < exact:
            out.append(f"clique[{kind.name}]: heuristic produced "
                       f"{len(partition.cliques)} cliques, below the "
                       f"exact minimum {exact} — cover must be invalid")
    return out


def check_insertion(subject: Subject) -> List[str]:
    """Wrapper insertion is functionally invisible: with ``test_mode =
    0`` the bare die equals both the dedicated reference build and the
    wrapped die of one cold ``run_wcm_flow``, at every primary output,
    outbound TSV and flip-flop D input. The flow runs on a problem
    rebuilt from a netlist clone, so the subject stays untouched."""
    from repro.core.flow import run_wcm_flow
    from repro.core.problem import build_problem

    bare = subject.problem.netlist
    problem = build_problem(bare.clone(),
                            clock=subject.config.scenario.clock,
                            already_prepared=True)
    run = run_wcm_flow(problem, subject.config)
    out: List[str] = []
    for label, wrapped in (("dedicated", subject.problem.dedicated_netlist),
                           ("flow", run.wrapped_netlist)):
        result = check_functional_equivalence(bare, wrapped)
        if not result.equivalent:
            out.append(f"insertion[{label}]: {result.mismatch.observable} "
                       f"differs from the bare die within "
                       f"{result.patterns_checked} pattern(s)")
    return out


# ---------------------------------------------------------------------------
# Metamorphic checks
# ---------------------------------------------------------------------------
def _transformed_problem(subject: Subject, transform) -> WcmProblem:
    """The subject's problem with geometry transformed and every
    electrical quantity held fixed.

    Re-running the full pipeline on moved coordinates is NOT an
    isometry invariant — the fuzzer proved it: scan stitching orders
    the chain by position, and the chain's scan-out port is a real
    2 fF load on whichever FF comes last, so rotating the die moves
    that load and legitimately shifts the baseline STA. The honest
    invariant transforms only the geometry Algorithm 1 consumes
    (node locations, pair distances, ``d_th`` span) over the same
    timing database.
    """
    clone = subject.problem.netlist.clone()
    for inst in clone.instances.values():
        inst.x, inst.y = transform(inst.x, inst.y)
    for port in clone.ports.values():
        port.x, port.y = transform(port.x, port.y)
    base = subject.problem
    return WcmProblem(
        netlist=clone,
        timing=base.timing,
        test_timing=base.test_timing,
        reference=base.reference,
        dedicated_critical_path_ps=base.dedicated_critical_path_ps,
    )


def check_metamorphic_isometry(subject: Subject) -> List[str]:
    """Rotating or mirroring the die must leave the sharing graph
    identical: both maps preserve every Manhattan distance *exactly*
    in IEEE arithmetic (the coordinate differences are the same two
    floats, negated and/or added in swapped order), so every distance
    threshold and anchor-span term decides identically. (Translation
    is deliberately NOT used: ``(x+t)-(y+t)`` rounds.)
    """
    out: List[str] = []
    ffs = list(subject.problem.scan_ffs)
    for label, transform in (("rotate90", lambda x, y: (-y, x)),
                             ("mirror-x", lambda x, y: (-x, y))):
        problem = _transformed_problem(subject, transform)
        config = subject.spec.build_config(problem)
        for kind in _TSV_KINDS:
            base = subject.kernel_graph(kind)
            moved = build_wcm_graph(
                problem, kind, ffs, config,
                timing_model=ReuseTimingModel(problem, config),
                estimator=(OverlapTestabilityEstimator(problem)
                           if config.allow_overlap else None))
            out += _compare_graph(f"meta[{label}][{kind.name}]",
                                  base, moved)
    return out


def check_metamorphic_thresholds(subject: Subject) -> List[str]:
    """Loosening ``cov_th``/``p_th`` must never remove an edge: the
    estimates are threshold-independent, only the acceptance test
    moves."""
    out: List[str] = []
    config = subject.config
    loose = dataclasses.replace(config, cov_th=config.cov_th * 4.0,
                                p_th=config.p_th * 4)
    for kind in _TSV_KINDS:
        strict_graph = subject.kernel_graph(kind)
        loose_graph = build_wcm_graph(
            subject.problem, kind, list(subject.problem.scan_ffs), loose,
            timing_model=ReuseTimingModel(subject.problem, loose),
            estimator=subject.fresh_estimator(loose))
        for name, neighbours in strict_graph.adjacency.items():
            missing = neighbours - loose_graph.adjacency.get(name, set())
            if missing:
                out.append(f"meta[thresholds][{kind.name}]: loosening "
                           f"removed edges {name!r} -> {sorted(missing)}")
        if loose_graph.stats.rejected_testability \
                > strict_graph.stats.rejected_testability:
            out.append(f"meta[thresholds][{kind.name}]: looser thresholds "
                       f"rejected more pairs")
    return out


def check_metamorphic_isolated_ff(subject: Subject) -> List[str]:
    """Adding an isolated (edge-less) FF node must not change the TSV
    side of the partition: it can join nothing, so every merge decision
    is preserved and the partition gains exactly one FF-only clique."""
    ffs = list(subject.problem.scan_ffs)
    if len(ffs) < 2:
        return []
    held = ffs[-1]
    out: List[str] = []
    for kind in _TSV_KINDS:
        base = build_wcm_graph(subject.problem, kind, ffs[:-1],
                               subject.config,
                               timing_model=subject.fresh_model(),
                               estimator=subject.fresh_estimator())
        model = subject.fresh_model()
        # Append the held-out FF *after* the TSVs: every existing node
        # keeps its integer id inside Algorithm 2, so any behaviour
        # change is the isolated node's doing.
        augmented = WcmGraph(
            kind=base.kind,
            nodes=base.nodes + [held],
            is_ff={**base.is_ff, held: True},
            adjacency={**base.adjacency, held: set()},
            excluded_tsvs=base.excluded_tsvs,
            stats=base.stats,
        )
        before = partition_cliques(base, subject.fresh_model())
        after = partition_cliques(augmented, model)
        if after.additional_cells != before.additional_cells:
            out.append(f"meta[isolated-ff][{kind.name}]: additional cells "
                       f"{before.additional_cells} -> "
                       f"{after.additional_cells}")
        def tsv_groups(partition: CliquePartition):
            return sorted(tuple(sorted(c.tsvs))
                          for c in partition.cliques if c.tsvs)
        if tsv_groups(before) != tsv_groups(after):
            out.append(f"meta[isolated-ff][{kind.name}]: TSV grouping "
                       f"changed")
        lone = [c for c in after.cliques if c.ff == held]
        if len(lone) != 1 or lone[0].tsvs:
            out.append(f"meta[isolated-ff][{kind.name}]: held-out FF did "
                       f"not end as its own FF-only clique")
    return out


# ---------------------------------------------------------------------------
# ECO sessions: incremental vs cold, plus inverse-edit metamorphics
# ---------------------------------------------------------------------------
#: counter families that legitimately differ between a warm session
#: solve and a cold one (cache hit counts, delta-STA call counts);
#: everything else — clique merges, flow ECO rounds, graph edges and
#: rejections — must match exactly
_ECO_VOLATILE_COUNTERS = ("sta.", "session.", "atpg.",
                          "graph.cone_bitset_builds")


def _eco_solve(runner) -> tuple:
    """Run one solve under ``trace.collect()``; returns
    (result, stable-counter dict, manifest fingerprint)."""
    from repro.runtime import trace

    with trace.collect() as collected:
        result = runner()
    counters = {name: value for name, value in sorted(
                    collected.metrics.counters.items())
                if not name.startswith(_ECO_VOLATILE_COUNTERS)}
    manifest_fp = trace.manifest_fingerprint({
        "schema": "eco", "label": "eco", "config": None,
        "seed": None, "scale": None, "metrics": counters,
        "result_fingerprint": result_fingerprint(result),
    })
    return result, counters, manifest_fp


def check_eco(subject: Subject) -> List[str]:
    """Incremental :class:`~repro.core.session.WcmSession` solves vs a
    cold ``run_wcm_flow`` oracle over a deterministic edit stream —
    results, stable per-category counters and manifest fingerprints
    must be byte-identical — plus inverse-edit metamorphics: an edit
    followed by its exact inverse (FF move-back, ``d_th`` restore,
    ``AddTsv``/``RemoveTsv``) must reproduce the pre-edit solve."""
    from repro.core.flow import run_wcm_flow
    from repro.core.problem import build_problem
    from repro.core.session import (AddTsv, MoveFf, MoveTsv, RemoveTsv,
                                    SetThreshold, WcmSession)

    out: List[str] = []
    session = WcmSession(subject.problem.netlist.clone(), subject.config,
                         already_prepared=True)
    rng = DeterministicRng(subject.spec.seed).child("verify", "eco")

    def oracle() -> tuple:
        clone = session.netlist.clone()
        config = session.config
        problem = build_problem(clone, clock=config.scenario.clock,
                                already_prepared=True)
        return _eco_solve(lambda: run_wcm_flow(problem, config))

    def step(tag: str) -> tuple:
        got, got_counters, got_manifest = _eco_solve(session.solve)
        want, want_counters, want_manifest = oracle()
        got_fp = result_fingerprint(got)
        if got_fp != result_fingerprint(want):
            out.append(f"eco[{tag}]: session result differs from cold "
                       f"solve (fallback={session.last_fallback}, "
                       f"dirty_frac={session.last_dirty_frac:.3f})")
        if got_counters != want_counters:
            keys = [k for k in set(got_counters) | set(want_counters)
                    if got_counters.get(k) != want_counters.get(k)]
            out.append(f"eco[{tag}]: counters differ on {sorted(keys)}")
        if got_manifest != want_manifest:
            out.append(f"eco[{tag}]: manifest fingerprints differ")
        return got_fp, got_manifest

    netlist = session.netlist
    ffs = [inst.name for inst in netlist.scan_flip_flops()]
    tsvs = [p.name for p in netlist.ports.values() if p.is_tsv]
    span = max(max((p.x for p in netlist.ports.values()), default=100.0),
               100.0)

    base = step("base")
    if ffs:
        name = rng.choice(ffs)
        inst = netlist.instances[name]
        home = (inst.x, inst.y)
        session.apply(MoveFf(name, inst.x + span * 0.01 + 1.0,
                             inst.y + span * 0.005))
        step("move-ff")
        session.apply(MoveFf(name, *home))
        if step("move-ff-inverse") != base:
            out.append("eco[move-ff-inverse]: moving the FF back did "
                       "not reproduce the original solve")
    if tsvs:
        name = rng.choice(tsvs)
        port = netlist.ports[name]
        session.apply(MoveTsv(name, port.x + span * 0.3, port.y))
        step("move-tsv")
    checkpoint = step("checkpoint")  # settles any pending state
    old_d_th = session.config.d_th_um
    session.apply(SetThreshold(d_th_um=span * 0.4))
    step("set-d-th")
    session.apply(SetThreshold(d_th_um=old_d_th))
    if step("set-d-th-inverse") != checkpoint:
        out.append("eco[set-d-th-inverse]: restoring d_th did not "
                   "reproduce the pre-edit solve")
    session.apply(AddTsv("eco_check_tsv", PortKind.TSV_INBOUND,
                         rng.uniform(0.0, span), rng.uniform(0.0, span)))
    step("add-tsv")
    session.apply(RemoveTsv("eco_check_tsv"))
    if step("remove-tsv") != checkpoint:
        out.append("eco[remove-tsv]: removing the added TSV did not "
                   "reproduce the pre-edit solve")
    return out


# ---------------------------------------------------------------------------
# Wrapper/TAM scheduling: designer and packer vs exhaustive oracles
# ---------------------------------------------------------------------------
def check_schedule(subject: Subject) -> List[str]:
    """Wrapper-chain designer and session packer vs their exhaustive
    oracles, on test models derived from the subject's own flow run.

    Per width 1..3: the greedy designer's chains must partition every
    internal chain and wrapper cell exactly once, never beat the
    exhaustive optimum, and stay within Graham's LPT bound
    (``3*kernel <= 4*exact``); the staircase must be monotone
    non-increasing in width; and the reduced wrapper (<= the dedicated
    cell count) must never test slower than the dedicated one at equal
    width — the metamorphic heart of the paper's claim. The best-fit
    packer's schedule must validate, and the branch-and-bound
    ``exact_schedule`` must validate too while never losing to the
    heuristic."""
    from repro.core.flow import run_wcm_flow
    from repro.dft.wrapper import dedicated_plan
    from repro.schedule import (DieTestModel, balanced_chain_lengths,
                                best_fit_schedule, design_wrapper,
                                internal_chain_count, staircase)
    from repro.verify.oracles import (exact_schedule,
                                      exact_wrapper_max_length,
                                      schedule_violations)

    out: List[str] = []
    spec = subject.spec
    patterns = 8 + spec.gates % 24  # deterministic, small
    ffs = len(list(subject.problem.scan_ffs))
    internal = (balanced_chain_lengths(ffs, internal_chain_count(ffs))
                if ffs else (1,))
    run = run_wcm_flow(subject.problem, subject.config)
    reduced_cells = run.plan.additional_wrapper_cells
    dedicated_cells = dedicated_plan(subject.problem.netlist
                                     ).wrapped_tsv_count
    reduced = DieTestModel(f"{spec.slug()}_reduced", internal,
                           reduced_cells, patterns)
    dedicated = DieTestModel(f"{spec.slug()}_dedicated", internal,
                             dedicated_cells, patterns)

    previous = {reduced.name: None, dedicated.name: None}
    for width in (1, 2, 3):
        for model in (reduced, dedicated):
            plan = design_wrapper(model, width)
            placed = sorted(e for chain in plan.chains for e in chain)
            want = sorted([f"ic{i}" for i in
                           range(len(model.internal_chains))]
                          + [f"wc{i}" for i in
                             range(model.wrapper_cells)])
            if placed != want:
                out.append(f"schedule[design][{model.name}][w{width}]: "
                           f"chains do not partition the elements "
                           f"({len(placed)} placed vs {len(want)})")
            exact = exact_wrapper_max_length(model, width)
            if plan.max_length < exact:
                out.append(f"schedule[design][{model.name}][w{width}]: "
                           f"greedy max {plan.max_length} beats the "
                           f"exhaustive optimum {exact}")
            if 3 * plan.max_length > 4 * exact:
                out.append(f"schedule[design][{model.name}][w{width}]: "
                           f"greedy max {plan.max_length} outside the "
                           f"LPT bound of optimum {exact}")
            time = staircase(model, width)[-1].time
            if previous[model.name] is not None \
                    and time > previous[model.name]:
                out.append(f"schedule[staircase][{model.name}]: time "
                           f"rose {previous[model.name]} -> {time} at "
                           f"width {width}")
            previous[model.name] = time
        if staircase(reduced, width)[-1].time \
                > staircase(dedicated, width)[-1].time:
            out.append(f"schedule[meta][w{width}]: reduced wrapper "
                       f"({reduced.wrapper_cells} cells) tests slower "
                       f"than dedicated ({dedicated.wrapper_cells})")

    third = DieTestModel(f"{spec.slug()}_shifted", internal,
                         reduced_cells, patterns + 3)
    models = [reduced, dedicated, third]
    budget = 3
    heuristic = best_fit_schedule(models, budget)
    for problem in schedule_violations(heuristic, models, budget):
        out.append(f"schedule[pack]: {problem}")
    if heuristic.fingerprint() != best_fit_schedule(models,
                                                    budget).fingerprint():
        out.append("schedule[pack]: best-fit schedule is not "
                   "deterministic across two runs")
    exact = exact_schedule(models, budget)
    for problem in schedule_violations(exact, models, budget):
        out.append(f"schedule[oracle]: {problem}")
    if exact.makespan > heuristic.makespan:
        out.append(f"schedule[oracle]: exhaustive makespan "
                   f"{exact.makespan} worse than best-fit "
                   f"{heuristic.makespan}")
    if heuristic.makespan > 3 * exact.makespan:
        out.append(f"schedule[pack]: best-fit makespan "
                   f"{heuristic.makespan} more than 3x the optimum "
                   f"{exact.makespan}")
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
CHECKS: Dict[str, Callable[[Subject], List[str]]] = {
    "sim": check_simulation,
    "faults": check_fault_detection,
    "podem": check_podem,
    "sta": check_sta,
    "sta-reuse": check_sta_reuse,
    "graph": check_graph,
    "clique": check_clique,
    "insertion": check_insertion,
    "meta-isometry": check_metamorphic_isometry,
    "meta-thresholds": check_metamorphic_thresholds,
    "meta-isolated-ff": check_metamorphic_isolated_ff,
    "eco": check_eco,
    "schedule": check_schedule,
}


def run_checks(spec: InstanceSpec,
               names: Optional[List[str]] = None) -> List[str]:
    """Build *spec* and run the named checks (default: all). Exceptions
    are folded into divergence strings so the fuzzer can shrink crash
    inputs the same way as mismatch inputs."""
    selected = names or list(CHECKS)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown} "
                         f"(have {sorted(CHECKS)})")
    try:
        subject = Subject(spec)
    except Exception as error:  # noqa: BLE001 — any crash is a finding
        return [f"build: {type(error).__name__}: {error}"]
    out: List[str] = []
    for name in selected:
        try:
            out += CHECKS[name](subject)
        except Exception as error:  # noqa: BLE001
            out.append(f"{name}: {type(error).__name__}: {error}")
    return out
