"""Tests for the STA engine: delays, slack, constraints, case analysis."""

import math

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import PortKind
from repro.sta.constraints import ClockConstraint, UNCONSTRAINED, tight_period_for
from repro.sta.delay import LOAD_ONLY_WIRE_MODEL, WireModel
from repro.sta.timer import TimingContext, default_case
from repro.util.errors import TimingError


class TestWireModel:
    def test_disabled_model_zeroes_everything(self):
        assert LOAD_ONLY_WIRE_MODEL.wire_delay_ps(500.0, 100.0) == 0.0
        assert LOAD_ONLY_WIRE_MODEL.wire_cap_ff(500.0) == 0.0

    def test_delay_superlinear_in_length(self):
        wire = WireModel()
        d1 = wire.wire_delay_ps(100, 10)
        d2 = wire.wire_delay_ps(200, 10)
        assert d2 > 2 * d1  # distributed RC term is quadratic

    def test_negative_length_clamped(self):
        wire = WireModel()
        assert wire.wire_delay_ps(-5, 10) == 0.0
        assert wire.wire_cap_ff(-5) == 0.0


class TestConstraints:
    def test_unconstrained_has_no_period(self):
        assert not UNCONSTRAINED.is_constrained

    def test_invalid_period_rejected(self):
        with pytest.raises(TimingError):
            ClockConstraint(period_ps=-1.0)
        with pytest.raises(TimingError):
            tight_period_for(0.0)

    def test_tight_period_margin(self):
        assert tight_period_for(1000.0, margin=0.05) == pytest.approx(1050.0)


class TestTimer:
    def test_unconstrained_slack_is_infinite(self, tiny_netlist):
        result = TimingContext(tiny_netlist).analyze()
        assert math.isinf(result.worst_slack_ps)
        assert not result.has_violation
        assert result.critical_path_ps > 0

    def test_arrival_monotone_along_path(self, tiny_netlist):
        result = TimingContext(tiny_netlist).analyze()
        n1 = tiny_netlist.instance("g_nand").output_net()
        n2 = tiny_netlist.instance("g_xor").output_net()
        assert result.arrival_ps[n2] > result.arrival_ps[n1]

    def test_violation_when_period_too_short(self, tiny_netlist):
        result = TimingContext(tiny_netlist).analyze(
            ClockConstraint(period_ps=30.0))
        assert result.has_violation
        assert result.worst_slack_ps < 0

    def test_no_violation_with_generous_period(self, tiny_netlist):
        base = TimingContext(tiny_netlist).analyze()
        result = TimingContext(tiny_netlist).analyze(
            ClockConstraint(period_ps=base.critical_path_ps * 2))
        assert not result.has_violation

    def test_wire_model_increases_critical_path(self, medium_die):
        with_wire = TimingContext(medium_die).analyze()
        without = TimingContext(medium_die,
                                 wire_model=LOAD_ONLY_WIRE_MODEL).analyze()
        assert with_wire.critical_path_ps > without.critical_path_ps

    def test_outbound_port_slack_query(self, tiny_netlist):
        result = TimingContext(tiny_netlist).analyze(
            ClockConstraint(period_ps=2000.0))
        slack = result.slack_of_port("tsv_out0__port")
        assert slack > 0
        with pytest.raises(TimingError):
            result.slack_of_port("nonexistent")

    def test_required_ge_arrival_when_met(self, small_die):
        timer = TimingContext(small_die)
        base = timer.analyze()
        result = timer.analyze(
            ClockConstraint(period_ps=base.critical_path_ps * 1.2))
        assert not result.has_violation
        for net, required in result.required_ps.items():
            arrival = result.arrival_ps.get(net, 0.0)
            assert required >= arrival - 1e-6

    def test_loads_include_wire_cap(self, medium_die):
        loads_wire = TimingContext(medium_die).loads()
        loads_pin = TimingContext(
            medium_die, wire_model=LOAD_ONLY_WIRE_MODEL).loads()
        some_net = medium_die.inbound_tsvs()[0].net
        assert loads_wire[some_net] >= loads_pin[some_net]

    def test_scan_si_pins_do_not_load_timing(self, small_die):
        """Chain order must not perturb sign-off timing (shift clock
        domain; dedicated routing)."""
        loads = TimingContext(small_die).loads()
        ffs = small_die.scan_flip_flops()
        # find a Q net that feeds another FF's SI
        for ff in ffs:
            q_net = ff.output_net()
            sinks = small_die.net(q_net).sinks
            si_sinks = [s for s in sinks
                        if not s.is_port and s.pin_name == "SI"]
            if si_sinks:
                pin_only = sum(
                    small_die.instance(s.owner_name).cell.input_cap(s.pin_name)
                    for s in sinks
                    if not s.is_port and s.pin_name not in ("SI",))
                assert loads[q_net] >= pin_only
                break


class TestCaseAnalysis:
    def _mux_netlist(self):
        builder = NetlistBuilder("cm")
        a = builder.add_input("a")
        b = builder.add_input("b")
        tm = builder.add_input("tm", kind=PortKind.TEST_MODE)
        slow = builder.add_gate("BUF_X1", [b])
        for _ in range(5):
            slow = builder.add_gate("BUF_X1", [slow])
        out = builder.add_gate("MUX2_X1", [a, slow, tm])
        builder.add_output("po", out)
        return builder.finish()

    def test_mux_select_excludes_deselected_arrival(self):
        netlist = self._mux_netlist()
        timer = TimingContext(netlist)
        functional = timer.analyze(case=default_case(netlist, test_mode=0))
        test = timer.analyze(case=default_case(netlist, test_mode=1))
        # B path is 6 buffers deep; excluded when test_mode=0
        assert test.critical_path_ps > functional.critical_path_ps

    def test_constant_propagation_blocks_downstream(self):
        builder = NetlistBuilder("cp")
        a = builder.add_input("a")
        tm = builder.add_input("tm", kind=PortKind.TEST_MODE)
        gated = builder.add_gate("AND2_X1", [a, tm])
        builder.add_output("po", gated)
        netlist = builder.finish()
        result = TimingContext(netlist).analyze(
            case=default_case(netlist, test_mode=0))
        # AND with constant-0 input: output constant, endpoint untimed
        assert result.endpoints == [] or all(
            e.name != "po__port" for e in result.endpoints)
