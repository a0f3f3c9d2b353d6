"""The sign-off build's warm path against a cold build of the moved die.

:meth:`SignoffBuild.follow` carries a wrapped die and its timing
context through FF/TSV moves of the bare die. Whatever it patches in
place — the moved twins, the wrapper gear anchored at them, a
restitched chain, the invalidated nets — must leave exactly what a
cold :class:`SignoffBuild` of the moved bare die builds and times.
"""

import pytest

from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow
from repro.core.problem import SignoffBuild, build_problem, tight_clock_for
from repro.core.session import netlist_payload
from repro.dft.wrapper import dedicated_plan


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
