"""The sign-off build's derived and warm paths against cold builds.

A :class:`SignoffBuild` given the problem's reference build derives its
timing context from the reference's, recompiling only what the two
wrapper plans touched. :meth:`SignoffBuild.follow` carries a wrapped
die and its timing context through FF/TSV moves of the bare die.
Whatever either path copies or patches in place — the moved twins, the
wrapper gear anchored at them, a restitched chain, the invalidated
nets — must leave exactly what a cold :class:`SignoffBuild` of the same
bare die builds and times.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.families import FAMILIES, FamilySpec, generate_family_die
from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow
from repro.core.problem import SignoffBuild, build_problem, tight_clock_for
from repro.core.session import netlist_payload
from repro.dft.scan import stitch_scan_chains
from repro.dft.wrapper import WrapperGroup, WrapperPlan, dedicated_plan
from repro.experiments.common import SCALES
from repro.netlist.core import PortKind
from repro.place.placer import PlacementConfig, place_die
from repro.runtime import trace
from repro.verify.checks import pinned_case
from repro.verify.instances import InstanceSpec


def _sites(netlist):
    sites = {inst.name: (inst.x, inst.y)
             for inst in netlist.scan_flip_flops()}
    sites.update((port.name, (port.x, port.y))
                 for port in netlist.ports.values() if port.is_tsv)
    return sites


@pytest.fixture(scope="module")
def tight_plans(small_die):
    """(bare die clone, tight clock, plan label -> plan): the ours/tight
    reuse plan and the dedicated plan of b11 die0."""
    bare = small_die.clone()
    problem = build_problem(bare, already_prepared=True)
    clock = tight_clock_for(problem)
    config = WcmConfig.ours(Scenario.performance_optimized(clock.period_ps))
    reuse = run_wcm_flow(problem.retime(clock), config).plan
    assert reuse.reused_scan_ff_count > 0
    return bare, clock, {"reuse": reuse, "dedicated": dedicated_plan(bare)}


@pytest.mark.parametrize("label", ["reuse", "dedicated"])
def test_follow_matches_cold_build(tight_plans, label):
    """A nudge that keeps the serpentine order, then a move that
    reorders the chain: after each, the followed build's results and
    wrapped die equal a cold build's. The nudged FF anchors the reuse
    plan's gear, the nudged inbound TSV a test mux in both plans."""
    base, clock, plans = tight_plans
    bare = base.clone()
    plan = plans[label]
    ff = bare.instances[next(g.reused_ff for g in plans["reuse"].groups
                             if g.reused_ff is not None)]
    tsv = bare.inbound_tsvs()[0]
    build = SignoffBuild(bare, plan)
    anchors = set(build.report.placement_anchors.values())
    assert tsv.name in anchors
    assert (ff.name in anchors) is (label == "reuse")
    timing = build.analyze(clock)

    def nudge():
        ff.x, ff.y = ff.x + 0.3, ff.y + 0.3
        tsv.x, tsv.y = tsv.x + 0.3, tsv.y - 0.3

    def reorder():
        # past the chain's tail (the top row runs right to left): the
        # FF takes the scan-out port from a cell it is not wired to
        wrapped = build.wrapped
        tail = wrapped.net(wrapped.ports["scan_out0__port"].net).driver
        site = wrapped.instances[tail.owner_name]
        ff.x, ff.y = site.x - 1.0, site.y

    for move, reorders in ((nudge, False), (reorder, True)):
        move()
        followed, restitched = build.follow(_sites(bare), timing)
        assert restitched is reorders
        scan_out = build.wrapped.ports["scan_out0__port"].net
        assert (scan_out == build.wrapped.instances[ff.name].output_net()) \
            is reorders
        cold = SignoffBuild(bare, plan)
        assert followed == cold.analyze(clock)
        assert followed != timing
        assert netlist_payload(build.wrapped) == netlist_payload(cold.wrapped)
        timing = followed


def _assert_same_timing(derived, cold, clock, seed=0):
    """Both sign-off modes and a pinned case map agree, and the
    derived context's private order is topological while the wrapped
    die's own Kahn cache stays unwritten."""
    assert derived.analyze(clock) == cold.analyze(clock)
    case = pinned_case(derived.wrapped, seed)
    assert derived.context.analyze(clock, case=case) \
        == cold.context.analyze(clock, case=case)
    assert netlist_payload(derived.wrapped) == netlist_payload(cold.wrapped)
    wrapped = derived.wrapped
    assert wrapped._topo_cache is None
    position = {name: index
                for index, name in enumerate(derived.context._topo)}
    assert len(position) == sum(1 for inst in wrapped.instances.values()
                                if not inst.is_sequential)
    for name, index in position.items():
        for _pin, net in wrapped.instances[name].input_nets():
            driver = wrapped.nets[net].driver
            if driver is not None and driver.owner_name in position:
                assert position[driver.owner_name] < index


def _grid_die():
    """The e2e grid die: 4,000 gates at 40 TSVs per kgate."""
    netlist = generate_family_die(
        "grid", FamilySpec.from_density(4000, tsvs_per_kgate=40),
        seed=2019)
    place_die(netlist, PlacementConfig(seed=2019))
    stitch_scan_chains(netlist)
    return netlist


@pytest.fixture(scope="module")
def derived_cases(tight_plans):
    """label -> (bare die, its problem, clock, plan): b11 die0's reuse
    and dedicated plans, and the e2e grid die's ours/area and
    agrawal/tight flow plans."""
    base, clock, plans = tight_plans
    bare = base.clone()
    problem = build_problem(bare, already_prepared=True)
    cases = {f"b11_d0-{label}": (bare, problem, clock, plan)
             for label, plan in plans.items()}
    grid = _grid_die()
    area = build_problem(grid, already_prepared=True)
    tight = tight_clock_for(area)
    budget = SCALES["smoke"].estimator_budget
    for label, problem_, config in (
            ("ours-area", area,
             WcmConfig.ours(Scenario.area_optimized(),
                            estimator_budget=budget)),
            ("agrawal-tight", area.retime(tight),
             WcmConfig.agrawal(
                 Scenario.performance_optimized(tight.period_ps)))):
        plan = run_wcm_flow(problem_, config).plan
        cases[f"grid-{label}"] = (grid, area, config.scenario.clock, plan)
    return cases


@pytest.mark.parametrize("label", ["b11_d0-reuse", "b11_d0-dedicated",
                                   "grid-ours-area", "grid-agrawal-tight"])
def test_derived_build_matches_cold_build(derived_cases, label):
    """A build whose context is derived from the problem's reference
    times and wires exactly like a cold build of the same plan, and
    counts as one context build, as the cold one it replaces."""
    bare, problem, clock, plan = derived_cases[label]
    with trace.collect() as collected:
        derived = SignoffBuild(bare, plan, problem.reference)
    assert collected.metrics.counters["sta.context_builds"] == 1
    _assert_same_timing(derived, SignoffBuild(bare, plan), clock)


def _regrouped_plan(bare, rng):
    """A random valid plan: TSVs shuffled into groups of 1-3, some
    excluded, about half the groups reusing a scan FF (one outbound
    group per FF)."""
    plan = WrapperPlan(die_name=bare.name)
    ffs = [ff.name for ff in bare.scan_flip_flops()]
    observing = set()
    for kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND):
        names = [port.name for port in bare.ports_of_kind(kind)]
        rng.shuffle(names)
        while names:
            if rng.random() < 0.2:
                plan.excluded_tsvs.append(names.pop())
                continue
            size = rng.randint(1, min(3, len(names)))
            group, names = names[:size], names[size:]
            ff = rng.choice(ffs) if ffs and rng.random() < 0.5 else None
            if kind is PortKind.TSV_OUTBOUND and ff is not None:
                if ff in observing:
                    ff = None
                observing.add(ff)
            plan.groups.append(WrapperGroup(kind, group, ff))
    return plan


def _move(bare, rng, count):
    """Move *count* random scan FFs or TSVs of *bare*; return the
    FF/TSV sites."""
    movers = bare.scan_flip_flops() + [port for port in bare.ports.values()
                                       if port.is_tsv]
    for _ in range(count if movers else 0):
        mover = rng.choice(movers)
        mover.x += rng.uniform(-60.0, 60.0)
        mover.y += rng.uniform(-60.0, 60.0)
    return {obj.name: (obj.x, obj.y) for obj in movers}


@settings(max_examples=40, deadline=None)
@given(spec=st.builds(InstanceSpec,
                      seed=st.integers(min_value=0, max_value=10**6),
                      gates=st.integers(min_value=20, max_value=80),
                      ffs=st.integers(min_value=1, max_value=8),
                      tsv_in=st.integers(min_value=0, max_value=6),
                      tsv_out=st.integers(min_value=0, max_value=6),
                      family=st.sampled_from(("itc99",) + FAMILIES),
                      scenario=st.sampled_from(["tight", "area"]),
                      method=st.sampled_from(["ours", "agrawal"])),
       plan_kind=st.sampled_from(["dedicated", "flow", "regrouped"]),
       moves=st.integers(min_value=0, max_value=3),
       later=st.integers(min_value=1, max_value=3),
       draw=st.integers(min_value=0, max_value=10**6))
def test_derived_context_equals_cold_context(spec, plan_kind, moves, later,
                                             draw):
    """On generated stitched dies of every family: after random FF/TSV
    moves that the reference build follows, a build derived from it
    equals a cold build (both modes, a pinned case, the wrapped die),
    its order is topological and the Kahn cache stays unwritten; after
    further moves, following the derived build equals a cold build of
    the moved die and leaves the unfollowed reference's timing as it
    was."""
    rng = random.Random(draw)
    bare = spec.build_netlist()
    clock = spec.build_config(spec.build_problem()).scenario.clock
    problem = build_problem(bare, clock=clock, already_prepared=True)
    if plan_kind == "dedicated":
        plan = dedicated_plan(bare)
    elif plan_kind == "flow":
        plan = run_wcm_flow(problem, spec.build_config(problem)).plan
    else:
        plan = _regrouped_plan(bare, rng)
    problem.reference.follow(_move(bare, rng, moves),
                             (problem.timing, problem.test_timing))
    derived = SignoffBuild(bare, plan, problem.reference)
    _assert_same_timing(derived, SignoffBuild(bare, plan), clock, draw)

    reference = problem.reference.analyze(clock)
    timing = derived.analyze(clock)
    followed, _restitched = derived.follow(_move(bare, rng, later), timing)
    # the derived build's in-place patches never reach its base
    assert problem.reference.analyze(clock) == reference
    cold = SignoffBuild(bare, plan)
    assert followed == cold.analyze(clock)
    assert netlist_payload(derived.wrapped) == netlist_payload(cold.wrapped)
