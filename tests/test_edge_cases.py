"""Edge-case and failure-injection tests across subsystems."""

import pytest

from repro.bench.generator import DieGeneratorConfig, generate_die
from repro.bench.itc99 import DieProfile
from repro.core.clique import partition_cliques
from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow
from repro.core.graph import build_wcm_graph
from repro.core.problem import build_problem
from repro.core.timing_model import ReuseTimingModel
from repro.dft.wrapper import WrapperPlan, insert_wrappers
from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import PortKind
from repro.util.errors import NetlistError


def custom_profile(**overrides) -> DieProfile:
    values = dict(circuit="b11", die_index=0, scan_flip_flops=6,
                  gates=60, inbound_tsvs=5, outbound_tsvs=5)
    values.update(overrides)
    return DieProfile(**values)


class TestGeneratorEdgeCases:
    def test_minimal_die(self):
        profile = custom_profile(scan_flip_flops=1, gates=8,
                                 inbound_tsvs=1, outbound_tsvs=1)
        netlist = generate_die(profile, seed=1)
        assert netlist.gate_count == 8
        assert len(netlist.scan_flip_flops()) == 1

    def test_no_inbound_tsvs(self):
        profile = custom_profile(inbound_tsvs=0)
        netlist = generate_die(profile, seed=1)
        assert not netlist.inbound_tsvs()
        assert len(netlist.outbound_tsvs()) == 5

    def test_no_outbound_tsvs(self):
        profile = custom_profile(outbound_tsvs=0)
        netlist = generate_die(profile, seed=1)
        assert not netlist.outbound_tsvs()

    def test_single_cluster_config(self):
        config = DieGeneratorConfig(cluster_gates=10**6)
        netlist = generate_die(custom_profile(), seed=1, config=config)
        assert netlist.gate_count == 60

    def test_shallow_depth(self):
        config = DieGeneratorConfig(max_depth=3)
        netlist = generate_die(custom_profile(gates=40), seed=1,
                               config=config)
        from repro.netlist.topology import combinational_levels
        assert max(combinational_levels(netlist).values()) <= 3


class TestFlowEdgeCases:
    @pytest.fixture(scope="class")
    def tiny_problem(self):
        netlist = generate_die(custom_profile(), seed=5)
        return build_problem(netlist)

    def test_flow_on_tiny_die(self, tiny_problem):
        run = run_wcm_flow(tiny_problem,
                           WcmConfig.ours(Scenario.area_optimized()))
        run.plan.validate(tiny_problem.netlist)

    def test_flow_with_few_ffs(self):
        """b22_die3-style: far fewer FFs than TSV groups."""
        profile = custom_profile(scan_flip_flops=2, gates=80,
                                 inbound_tsvs=8, outbound_tsvs=8)
        problem = build_problem(generate_die(profile, seed=5))
        run = run_wcm_flow(problem,
                           WcmConfig.ours(Scenario.area_optimized()))
        run.plan.validate(problem.netlist)
        # at most 2 outbound groups can hold an FF (one chain per FF);
        # inbound groups may adopt FFs repeatedly
        outbound_ffs = [g.reused_ff for g in run.plan.groups
                        if g.kind is PortKind.TSV_OUTBOUND and g.reused_ff]
        assert len(outbound_ffs) <= 2

    def test_graph_with_no_available_ffs(self, tiny_problem):
        config = WcmConfig.agrawal(Scenario.area_optimized())
        model = ReuseTimingModel(tiny_problem, config)
        graph = build_wcm_graph(tiny_problem, PortKind.TSV_INBOUND,
                                [], config, model)
        assert graph.stats.ff_nodes == 0
        partition = partition_cliques(graph, model)
        # every group exists, none can have an FF
        assert all(c.ff is None for c in partition.cliques)

    def test_empty_graph_partitions(self, tiny_problem):
        """A die direction with zero TSVs yields zero groups."""
        profile = custom_profile(inbound_tsvs=0)
        problem = build_problem(generate_die(profile, seed=5))
        config = WcmConfig.agrawal(Scenario.area_optimized())
        model = ReuseTimingModel(problem, config)
        graph = build_wcm_graph(problem, PortKind.TSV_INBOUND,
                                problem.scan_ffs, config, model)
        partition = partition_cliques(graph, model)
        assert all(not c.tsvs for c in partition.cliques)


class TestInsertionEdgeCases:
    def test_insert_on_die_without_clock_fails(self):
        builder = NetlistBuilder("noclk")
        a = builder.add_input("a")
        tin = builder.add_input("tin", kind=PortKind.TSV_INBOUND)
        out = builder.add_gate("AND2_X1", [a, tin])
        builder.add_output("po", out)
        netlist = builder.finish()
        from repro.dft.wrapper import dedicated_plan
        with pytest.raises(NetlistError, match="clock"):
            insert_wrappers(netlist, dedicated_plan(netlist))

    def test_empty_plan_on_die_without_tsvs(self):
        builder = NetlistBuilder("no_tsv")
        clk = builder.add_clock()
        a = builder.add_input("a")
        out = builder.add_gate("INV_X1", [a])
        builder.add_flip_flop(out, clk)
        netlist = builder.finish()
        plan = WrapperPlan(die_name=netlist.name)
        plan.validate(netlist)
        wrapped, report = insert_wrappers(netlist, plan)
        assert report.wrapper_cells == 0
        assert wrapped.gate_count == netlist.gate_count
