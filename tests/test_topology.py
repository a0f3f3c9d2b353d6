"""Tests for levelization and cone analysis."""

import pytest

from repro.netlist.builder import NetlistBuilder
from repro.netlist.topology import (
    combinational_levels,
    fanin_cone,
    fanout_cone,
    topological_instances,
)
from repro.util.errors import NetlistError


class TestTopologicalOrder:
    def test_order_respects_dependencies(self, tiny_netlist):
        order = topological_instances(tiny_netlist)
        assert order.index("g_nand") < order.index("g_xor")
        assert order.index("g_xor") < order.index("g_inv")

    def test_sequential_instances_not_ordered(self, tiny_netlist):
        assert "ff0" not in topological_instances(tiny_netlist)

    def test_cycle_detected(self):
        builder = NetlistBuilder("cyc")
        a = builder.add_input("a")
        netlist = builder.netlist
        netlist.add_instance("g0", "AND2_X1")
        netlist.add_instance("g1", "INV_X1")
        netlist.connect("g0", "A1", a)
        netlist.connect("g0", "A2", "loop")
        netlist.connect("g0", "Z", "mid")
        netlist.connect("g1", "A", "mid")
        netlist.connect("g1", "ZN", "loop")
        with pytest.raises(NetlistError, match="cycle"):
            topological_instances(netlist)

    def test_levels_increase_along_paths(self, small_die):
        levels = combinational_levels(small_die)
        for name in topological_instances(small_die):
            inst = small_die.instance(name)
            for _pin, net in inst.input_nets():
                drv = small_die.net(net).driver
                if drv is None or drv.is_port:
                    continue
                upstream = small_die.instance(drv.owner_name)
                if not upstream.is_sequential:
                    assert levels[drv.owner_name] < levels[name]

    def test_generated_depth_bounded(self, medium_die):
        levels = combinational_levels(medium_die)
        assert max(levels.values()) <= 12  # generator max_depth


class TestCones:
    def test_fanout_of_inbound_tsv(self, tiny_netlist):
        cone = fanout_cone(tiny_netlist, "tsv_in0__port")
        # reaches NAND, XOR, INV, the FF, both output ports
        assert "g_nand" in cone and "g_xor" in cone and "ff0" in cone
        assert "tsv_out0__port" in cone and "po0__port" in cone

    def test_fanout_stops_at_flip_flop(self, tiny_netlist):
        cone = fanout_cone(tiny_netlist, "ff0")
        # ff0.Q feeds only the XOR (and onward); must not loop through D
        assert "g_xor" in cone
        assert "g_nand" not in cone

    def test_fanin_of_outbound_tsv(self, tiny_netlist):
        cone = fanin_cone(tiny_netlist, "tsv_out0__port")
        assert cone == frozenset({"g_nand", "a__port", "tsv_in0__port"})

    def test_fanin_of_ff_stops_at_sources(self, tiny_netlist):
        cone = fanin_cone(tiny_netlist, "ff0")
        assert "g_xor" in cone and "g_nand" in cone
        assert "ff0" not in cone  # self excluded

    def test_direction_errors(self, tiny_netlist):
        with pytest.raises(NetlistError):
            fanout_cone(tiny_netlist, "po0__port")  # output port
        with pytest.raises(NetlistError):
            fanin_cone(tiny_netlist, "a__port")  # input port
        with pytest.raises(NetlistError):
            fanout_cone(tiny_netlist, "ghost")

    def test_cone_locality_in_clustered_die(self, medium_die):
        """Clustering keeps cones well below whole-die size."""
        gates = medium_die.gate_count
        for port in medium_die.inbound_tsvs()[:10]:
            cone = fanout_cone(medium_die, port.name)
            assert len(cone) < gates * 0.6
