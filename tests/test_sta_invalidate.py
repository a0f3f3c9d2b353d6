"""Targeted ``TimingContext.invalidate_nets`` coverage.

The incremental session leans on subset invalidation: after a position
change, only the nets incident to the moved object are refreshed, and
the next ``analyze``/``analyze_delta`` must be byte-identical to a
fresh context built over the moved netlist.
"""

import pytest

from repro.sta.constraints import ClockConstraint, UNCONSTRAINED
from repro.sta.timer import TimingContext, default_case

pytestmark = pytest.mark.usefixtures("kernel")


def _incident_nets(inst):
    return sorted(set(inst.connections.values()))


def _movable_gate(netlist):
    """A placed combinational gate with at least two connections."""
    return next(inst for inst in netlist.instances.values()
                if not inst.is_scan and len(inst.connections) >= 2)


def assert_same_timing(got, want):
    assert got.arrival_ps == want.arrival_ps
    assert got.required_ps == want.required_ps
    assert got.net_load_ff == want.net_load_ff
    assert got.endpoints == want.endpoints
    assert got.critical_path_ps == want.critical_path_ps


class TestInvalidateNets:
    def test_subset_invalidation_matches_fresh(self, medium_die):
        netlist = medium_die.clone()
        context = TimingContext(netlist)
        base = context.analyze()

        gate = _movable_gate(netlist)
        gate.x += 180.0
        gate.y += 95.0
        context.invalidate_nets(_incident_nets(gate))

        fresh = TimingContext(netlist).analyze()
        assert_same_timing(context.analyze(), fresh)
        # the move must actually have changed something, or the test
        # proves nothing
        assert fresh.arrival_ps != base.arrival_ps

    def test_analyze_delta_after_invalidate(self, medium_die):
        netlist = medium_die.clone()
        context = TimingContext(netlist)
        constraint = ClockConstraint(
            period_ps=context.analyze().critical_path_ps * 0.9)
        previous = context.analyze(constraint)

        gate = _movable_gate(netlist)
        gate.x += 150.0
        gate.y -= 60.0
        dirty = _incident_nets(gate)
        context.invalidate_nets(dirty)
        delta = context.analyze_delta(constraint, previous=previous,
                                      dirty_nets=dirty)
        fresh = TimingContext(netlist).analyze(constraint)
        assert_same_timing(delta, fresh)

    def test_port_move_with_case_analysis(self, medium_die):
        netlist = medium_die.clone()
        context = TimingContext(netlist)
        case = default_case(netlist, test_mode=1)
        port = next(p for p in netlist.ports.values()
                    if p.is_tsv and p.net is not None)
        previous = context.analyze(UNCONSTRAINED, case=case)

        port.x += 220.0
        port.y += 40.0
        context.invalidate_nets([port.net])
        delta = context.analyze_delta(UNCONSTRAINED, case=case,
                                      previous=previous,
                                      dirty_nets=[port.net])
        fresh = TimingContext(netlist).analyze(UNCONSTRAINED, case=case)
        assert_same_timing(delta, fresh)

    def test_scan_out_port_rewired_in_place(self, medium_die):
        """A restitch in place moves the scan-out port onto the new
        chain tail's Q net: invalidating the scan-port nets re-indexes
        the port endpoints, and the delta equals a fresh context."""
        from repro.core.problem import _restitch_in_place

        netlist = medium_die.clone()
        context = TimingContext(netlist)
        constraint = ClockConstraint(
            period_ps=context.analyze().critical_path_ps * 0.9)
        case = default_case(netlist, test_mode=1)
        previous = context.analyze(constraint, case=case)

        scan_out = netlist.ports["scan_out0__port"]
        old_tail_net = scan_out.net
        tail = netlist.instances[netlist.net(old_tail_net).driver.owner_name]
        head = min(netlist.scan_flip_flops(), key=lambda ff: (ff.y, ff.x))
        tail.x, tail.y = head.x - 1.0, head.y
        dirty = set(tail.connections.values()) | _restitch_in_place(netlist)
        assert netlist.ports["scan_out0__port"].net != old_tail_net

        context.invalidate_nets(sorted(dirty))
        delta = context.analyze_delta(constraint, case=case,
                                      previous=previous, dirty_nets=dirty)
        fresh = TimingContext(netlist).analyze(constraint, case=case)
        assert_same_timing(delta, fresh)
        assert delta.port_slack_ps == fresh.port_slack_ps
