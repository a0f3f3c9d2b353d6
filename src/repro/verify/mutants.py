"""Known-bad kernel mutants and the fuzzer's mutation-kill self-check.

A verification harness that never fails is indistinguishable from one
that checks nothing. Each mutant here monkeypatches one real kernel
into a subtly wrong variant — the kinds of defect the optimized code
paths could actually develop — and the self-check asserts the fuzzer
kills every one of them within a small budget.

The self-check runs **serially in-process**: monkeypatches live in
this interpreter only and would silently vanish inside ``--jobs``
worker processes, turning the check into a vacuous pass.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.runtime import trace
from repro.verify.checks import run_checks
from repro.verify.fuzz import spec_for_iteration


@contextlib.contextmanager
def _mutant_sim_opcode_swap() -> Iterator[None]:
    """AND2 compiles to the OR2 opcode: the op-tape disagrees with the
    truth-table oracle on any AND2 gate."""
    from repro.atpg import sim

    original = sim._OPCODES[("and", 2)]
    sim._OPCODES[("and", 2)] = sim._OP_OR2
    try:
        yield
    finally:
        sim._OPCODES[("and", 2)] = original


@contextlib.contextmanager
def _mutant_pair_log_ignores_dirty() -> Iterator[None]:
    """Session graph builds replay their pair logs with an empty dirty
    set: pairs touching a moved node keep their stale distance and
    outcome."""
    from repro.core import session

    original = session.build_wcm_graph

    def forgetful(*args, **kwargs):
        kwargs["dirty"] = frozenset()
        return original(*args, **kwargs)

    session.build_wcm_graph = forgetful
    try:
        yield
    finally:
        session.build_wcm_graph = original


@contextlib.contextmanager
def _mutant_sta_stale_cache() -> Iterator[None]:
    """``invalidate_nets`` forgets to refresh: the reusable context
    keeps serving pre-edit loads and wire delays."""
    from repro.sta import timer

    original = timer.TimingContext.invalidate_nets

    def stale(self, net_names) -> None:  # noqa: ARG001
        return None

    timer.TimingContext.invalidate_nets = stale
    try:
        yield
    finally:
        timer.TimingContext.invalidate_nets = original


@contextlib.contextmanager
def _mutant_sta_stale_arcs() -> Iterator[None]:
    """``invalidate_nets`` refreshes loads and gate delays but leaves
    the compiled arcs' wire delays stale: a moved gate's input and
    output wires keep their pre-move Elmore delays."""
    from repro.sta import timer

    original = timer.TimingContext._refresh_sink_delays

    def stale(self, net):  # noqa: ARG001
        return []

    timer.TimingContext._refresh_sink_delays = stale
    try:
        yield
    finally:
        timer.TimingContext._refresh_sink_delays = original


@contextlib.contextmanager
def _mutant_obs_branch_dead() -> Iterator[None]:
    """Faults on observation branches report undetected: a silently
    optimistic fault universe."""
    from repro.atpg import sim

    original = sim.CompiledCircuit.observation_diff

    def dead(self, good, net_id, value, mask) -> int:  # noqa: ARG001
        return 0

    sim.CompiledCircuit.observation_diff = dead
    try:
        yield
    finally:
        sim.CompiledCircuit.observation_diff = original


@contextlib.contextmanager
def _mutant_cone_bitset_alias() -> Iterator[None]:
    """Every cone bitset gains a shared phantom bit: all pairs look
    cone-overlapped, silently rerouting edges through the estimator."""
    from repro.core import graph

    original = graph._cone_bitsets

    def aliased(problem, names, kind):
        out = original(problem, names, kind)
        return {name: value | 1 for name, value in out.items()}

    graph._cone_bitsets = aliased
    try:
        yield
    finally:
        graph._cone_bitsets = original


@contextlib.contextmanager
def _mutant_universe_count_skips_obs_branches() -> Iterator[None]:
    """The estimator's universe count leaves out observation-branch
    faults: every coverage drop reads too large, silently rejecting
    overlapped pairs the listed universe would admit."""
    from repro.atpg import faults
    from repro.core import testability

    original = testability.count_faults

    def short(view) -> int:
        total = 0
        for _net, stems, branches in faults._fault_sites(
                view, True, True, faults.FaultList()):
            total += len(stems)
            for kind, _pin, polarities in branches:
                if kind is not faults.FaultKind.OBS_BRANCH:
                    total += len(polarities)
        return total

    testability.count_faults = short
    try:
        yield
    finally:
        testability.count_faults = original


@contextlib.contextmanager
def _mutant_podem_activation_is_detection() -> Iterator[None]:
    """PODEM stops as soon as the fault site is activated: cubes that
    never propagate the fault effect are reported as tests."""
    from repro.atpg import podem

    original = podem.PodemGenerator._check

    def eager(self, fs, site_net, stuck) -> str:
        if self._val[site_net] // 3 == 1 - stuck:  # good machine value
            return "detected"
        return original(self, fs, site_net, stuck)

    podem.PodemGenerator._check = eager
    try:
        yield
    finally:
        podem.PodemGenerator._check = original


@contextlib.contextmanager
def _mutant_podem_dirty_base() -> Iterator[None]:
    """A search leaves its fault's injection on the shared fault-free
    state: the next fault starts from the previous fault's machine."""
    from repro.atpg import podem

    original = podem.PodemGenerator._inject

    def sticky(self, fs, site_net) -> None:
        original(self, fs, site_net)
        del self._trail[:]  # the injection can no longer be undone

    podem.PodemGenerator._inject = sticky
    try:
        yield
    finally:
        podem.PodemGenerator._inject = original


@contextlib.contextmanager
def _mutant_ffr_unsensitized_path() -> Iterator[None]:
    """A fault inside a fanout-free region reads only its stem's
    observability: the side inputs along the path to the stem are
    never checked for sensitization."""
    from repro.atpg import sim

    original = sim.BlockDetector._observe

    def stem_only(self, net_id, word) -> int:
        links, gates = self.circuit.region_link, self.circuit.gates
        while links[net_id] is not None:
            net_id = gates[links[net_id][0]].out
        return original(self, net_id, word)

    sim.BlockDetector._observe = stem_only
    try:
        yield
    finally:
        sim.BlockDetector._observe = original


@contextlib.contextmanager
def _mutant_schedule_chain_drop() -> Iterator[None]:
    """The wrapper-chain designer loses the last wrapper cell: the
    chains no longer partition the cell set, so the die under-tests."""
    from repro.schedule import chains

    original = chains._unit_ids

    def dropped(model):
        return original(model)[:-1]

    chains._unit_ids = dropped
    try:
        yield
    finally:
        chains._unit_ids = original


@contextlib.contextmanager
def _mutant_schedule_pack_overlap() -> Iterator[None]:
    """The best-fit packer never claims its lanes: every die lands at
    cycle 0 and the session rectangles overlap."""
    from repro.schedule import pack

    original = pack._occupy

    def leaky(free, lane, width, finish) -> None:  # noqa: ARG001
        return None

    pack._occupy = leaky
    try:
        yield
    finally:
        pack._occupy = original


@contextlib.contextmanager
def _mutant_schedule_fill_longest() -> Iterator[None]:
    """The designer fills the *most* loaded chain instead of the
    least: every element stacks onto one chain, blowing the LPT bound
    against the exhaustive optimum."""
    from repro.schedule import chains

    original = chains._fill_target

    def longest(loads):
        return max(range(len(loads)), key=lambda i: (loads[i], -i))

    chains._fill_target = longest
    try:
        yield
    finally:
        chains._fill_target = original


@contextlib.contextmanager
def _mutant_share_first_arrival() -> Iterator[None]:
    """The sweep's outbound TSV–TSV row takes each pair's worst arrival
    from the row's own TSV only: a pair whose column TSV arrives late
    still shares a chain that misses the capture deadline."""
    from repro.core import timing_model

    model_cls = timing_model.ReuseTimingModel
    original = model_cls.outbound_share_row

    def first_only(self, arrival, distances, arrivals):
        if not self._timed:
            return [True] * len(distances)
        out = []
        for distance in distances:
            wire = self._wire_delay(distance, self._xor_b_cap)
            worst = max(0.0, arrival + wire + self._two_xor_delay_ps
                        + self._capture_mux_ps)
            out.append(self._ff_required - worst > self._s_th_margin)
        return out

    model_cls.outbound_share_row = first_only
    try:
        yield
    finally:
        model_cls.outbound_share_row = original


@contextlib.contextmanager
def _mutant_wrapper_reuse_mux_swapped() -> Iterator[None]:
    """The outbound reuse mux is built as ``new_mux(chain, d_net, ...)``:
    with ``test_mode = 0`` the reused FF captures the XOR chain instead
    of its own D logic. Timing, plans and counts are unchanged; only
    the function of the wrapped die is wrong."""
    from repro.core import problem
    from repro.dft import wrapper
    from repro.netlist.core import PortKind

    original = wrapper.insert_wrappers

    def swapped(netlist, plan):
        work, report = original(netlist, plan)
        for group, inserted in zip(plan.groups, report.group_instances):
            if group.kind is PortKind.TSV_OUTBOUND and group.reused_ff:
                mux = next(n for n in inserted if n.startswith("wrapmux_"))
                d_net = work.instances[mux].connections["A"]
                chain = work.instances[mux].connections["B"]
                for pin, net in (("A", chain), ("B", d_net)):
                    work.disconnect_pin(mux, pin)
                    work.connect(mux, pin, net)
        return work, report

    # the modules that call it by a name bound at import time
    holders = (wrapper, problem)
    for module in holders:
        module.insert_wrappers = swapped
    try:
        yield
    finally:
        for module in holders:
            module.insert_wrappers = original


#: name -> (description, contextmanager factory)
MUTANTS: Dict[str, tuple] = {
    "sim-opcode-swap": ("op-tape compiles AND2 as OR2",
                        _mutant_sim_opcode_swap),
    "pair-log-ignores-dirty": ("session graph builds replay with an "
                               "empty dirty set",
                               _mutant_pair_log_ignores_dirty),
    "sta-stale-cache": ("TimingContext.invalidate_nets is a no-op",
                        _mutant_sta_stale_cache),
    "sta-stale-arcs": ("invalidate_nets leaves the compiled arcs' wire "
                       "delays stale", _mutant_sta_stale_arcs),
    "obs-branch-dead": ("observation_diff always reports undetected",
                        _mutant_obs_branch_dead),
    "cone-bitset-alias": ("cone bitsets share a phantom overlap bit",
                          _mutant_cone_bitset_alias),
    "universe-count-skips-obs-branches": (
        "the estimator's universe count leaves out observation-branch "
        "faults", _mutant_universe_count_skips_obs_branches),
    "podem-activation-is-detection": (
        "PODEM reports detection on fault activation",
        _mutant_podem_activation_is_detection),
    "podem-dirty-base": ("PODEM never undoes a fault's injection",
                         _mutant_podem_dirty_base),
    "ffr-unsensitized-path": ("a region fault reads only its stem's "
                              "observability",
                              _mutant_ffr_unsensitized_path),
    "schedule-chain-drop": ("wrapper designer drops the last cell",
                            _mutant_schedule_chain_drop),
    "schedule-pack-overlap": ("packer never raises the skyline",
                              _mutant_schedule_pack_overlap),
    "schedule-fill-longest": ("designer fills the most loaded chain",
                              _mutant_schedule_fill_longest),
    "share-first-arrival": ("outbound TSV-TSV row reads the row TSV's "
                            "arrival only", _mutant_share_first_arrival),
    "wrapper-reuse-mux-swapped": ("outbound reuse mux selects the XOR "
                                  "chain in functional mode",
                                  _mutant_wrapper_reuse_mux_swapped),
}


@dataclass
class MutantResult:
    """Outcome of hunting one mutant."""

    name: str
    description: str
    killed: bool
    iterations: int
    #: first divergence message that killed it (diagnostics)
    evidence: Optional[str] = None


def self_check(root_seed: int = 0, budget: int = 150,
               checks: Optional[List[str]] = None,
               mutant_names: Optional[List[str]] = None
               ) -> List[MutantResult]:
    """Inject each mutant and fuzz (serially, in-process) until the
    checks object or the budget runs out. Every mutant must die."""
    selected = mutant_names or list(MUTANTS)
    unknown = [n for n in selected if n not in MUTANTS]
    if unknown:
        raise ValueError(f"unknown mutants: {unknown} "
                         f"(have {sorted(MUTANTS)})")
    results: List[MutantResult] = []
    for name in selected:
        description, factory = MUTANTS[name]
        killed = False
        evidence = None
        iterations = 0
        with factory():
            for index in range(budget):
                iterations += 1
                spec = spec_for_iteration(root_seed, index)
                divergences = run_checks(spec, checks)
                if divergences:
                    killed = True
                    evidence = divergences[0]
                    break
        trace.inc("verify.mutants_killed" if killed
                  else "verify.mutants_survived")
        results.append(MutantResult(name=name, description=description,
                                    killed=killed, iterations=iterations,
                                    evidence=evidence))
    return results


def render_results(results: List[MutantResult]) -> str:
    lines = []
    for result in results:
        verdict = (f"KILLED after {result.iterations} iteration(s)"
                   if result.killed
                   else f"SURVIVED {result.iterations} iteration(s)")
        lines.append(f"mutant {result.name} ({result.description}): "
                     f"{verdict}")
        if result.evidence:
            lines.append(f"  evidence: {result.evidence}")
    return "\n".join(lines)
