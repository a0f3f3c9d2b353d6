"""Tests for DFT passes: scan stitching, wrapper plans/insertion, views."""

import pytest

from repro.dft.cones import ConeAnalysis
from repro.dft.scan import stitch_scan_chains, unstitch_scan_chains
from repro.dft.testview import build_prebond_test_view
from repro.dft.wrapper import (
    WrapperGroup,
    WrapperPlan,
    dedicated_plan,
    insert_wrappers,
)
from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.netlist.core import PortKind
from repro.netlist.validate import validate_netlist
from repro.place.placer import place_die
from repro.util.errors import NetlistError


@pytest.fixture()
def fresh_die():
    netlist = generate_die(die_profile("b11", 0), seed=21)
    place_die(netlist)
    return netlist


class TestScanStitching:
    def test_single_chain_covers_all_ffs(self, fresh_die):
        chains = stitch_scan_chains(fresh_die)
        assert len(chains) == 1
        assert chains[0].length == len(fresh_die.scan_flip_flops())
        for ff in fresh_die.scan_flip_flops():
            assert "SI" in ff.connections and "SE" in ff.connections

    def test_chain_order_is_connected(self, fresh_die):
        chains = stitch_scan_chains(fresh_die)
        chain = chains[0]
        previous = fresh_die.net(f"scan_in{chain.index}")
        for name in chain.flip_flops:
            ff = fresh_die.instance(name)
            assert ff.connections["SI"] == previous.name
            previous = fresh_die.net(ff.output_net())

    def test_multiple_chains_balanced(self, fresh_die):
        chains = stitch_scan_chains(fresh_die, chain_count=3)
        sizes = [c.length for c in chains]
        assert sum(sizes) == len(fresh_die.scan_flip_flops())
        assert max(sizes) - min(sizes) <= 2

    def test_double_stitch_rejected(self, fresh_die):
        stitch_scan_chains(fresh_die)
        with pytest.raises(NetlistError):
            stitch_scan_chains(fresh_die)

    def test_restitch_after_unstitch(self, fresh_die):
        stitch_scan_chains(fresh_die)
        unstitch_scan_chains(fresh_die)
        for ff in fresh_die.scan_flip_flops():
            assert "SI" not in ff.connections
        chains = stitch_scan_chains(fresh_die)
        assert chains[0].length == len(fresh_die.scan_flip_flops())

    @pytest.mark.parametrize("chain_count", [1, 3])
    def test_restitch_round_trip_matches_single_stitch(self, fresh_die,
                                                       chain_count):
        """stitch -> unstitch -> stitch leaves the netlist exactly as
        one stitch does: every net keeps its remaining sinks, and the
        nets and ports their order."""
        from repro.core.session import netlist_payload

        once = fresh_die.clone()
        stitch_scan_chains(once, chain_count=chain_count)
        twice = fresh_die.clone()
        stitch_scan_chains(twice, chain_count=chain_count)
        unstitch_scan_chains(twice)
        stitch_scan_chains(twice, chain_count=chain_count)
        assert netlist_payload(twice) == netlist_payload(once)


class TestWrapperPlan:
    def test_dedicated_plan_counts(self, fresh_die):
        plan = dedicated_plan(fresh_die)
        assert plan.reused_scan_ff_count == 0
        assert plan.additional_wrapper_cells == fresh_die.tsv_count
        assert plan.wrapped_tsv_count == fresh_die.tsv_count
        plan.validate(fresh_die)

    def test_missing_tsv_rejected(self, fresh_die):
        plan = dedicated_plan(fresh_die)
        plan.groups.pop()
        with pytest.raises(NetlistError, match="unwrapped"):
            plan.validate(fresh_die)

    def test_duplicate_tsv_rejected(self, fresh_die):
        plan = dedicated_plan(fresh_die)
        plan.groups.append(WrapperGroup(
            kind=plan.groups[0].kind, tsvs=list(plan.groups[0].tsvs)))
        with pytest.raises(NetlistError, match="two groups"):
            plan.validate(fresh_die)

    def test_kind_mismatch_rejected(self, fresh_die):
        inbound = fresh_die.inbound_tsvs()[0].name
        with pytest.raises(NetlistError):
            WrapperPlan(
                die_name=fresh_die.name,
                groups=[WrapperGroup(kind=PortKind.TSV_OUTBOUND,
                                     tsvs=[inbound])],
            ).validate(fresh_die)

    def test_ff_multi_reuse_allowed_inbound_only_once_outbound(self, fresh_die):
        ff = fresh_die.scan_flip_flops()[0].name
        ins = [p.name for p in fresh_die.inbound_tsvs()]
        outs = [p.name for p in fresh_die.outbound_tsvs()]
        groups = [
            WrapperGroup(PortKind.TSV_INBOUND, ins[:2], reused_ff=ff),
            WrapperGroup(PortKind.TSV_INBOUND, ins[2:], reused_ff=ff),
            WrapperGroup(PortKind.TSV_OUTBOUND, outs[:1], reused_ff=ff),
            WrapperGroup(PortKind.TSV_OUTBOUND, outs[1:]),
        ]
        plan = WrapperPlan(die_name=fresh_die.name, groups=groups)
        plan.validate(fresh_die)  # two inbound adoptions are fine
        plan.groups[3] = WrapperGroup(PortKind.TSV_OUTBOUND, outs[1:],
                                      reused_ff=ff)
        with pytest.raises(NetlistError, match="two outbound"):
            plan.validate(fresh_die)

    def test_empty_group_rejected(self):
        with pytest.raises(NetlistError):
            WrapperGroup(PortKind.TSV_INBOUND, [])


class TestInsertion:
    def test_dedicated_insertion_structure(self, fresh_die):
        stitch_scan_chains(fresh_die)
        wrapped, report = insert_wrappers(fresh_die, dedicated_plan(fresh_die))
        assert report.wrapper_cells == fresh_die.tsv_count
        assert report.muxes == len(fresh_die.inbound_tsvs())
        assert report.xors == 0  # singleton outbound groups chain nothing
        stitch_scan_chains(wrapped, restitch=True)
        validate_netlist(wrapped, allow_undriven_nets=True)

    def test_original_untouched(self, fresh_die):
        stitch_scan_chains(fresh_die)
        before = fresh_die.stats()
        insert_wrappers(fresh_die, dedicated_plan(fresh_die))
        assert fresh_die.stats() == before

    def test_reuse_insertion_wiring(self, fresh_die):
        stitch_scan_chains(fresh_die)
        ff = fresh_die.scan_flip_flops()[0].name
        inbound = fresh_die.inbound_tsvs()[0].name
        outs = [p.name for p in fresh_die.outbound_tsvs()]
        groups = [WrapperGroup(PortKind.TSV_INBOUND, [inbound],
                               reused_ff=ff),
                  WrapperGroup(PortKind.TSV_OUTBOUND, outs[:2],
                               reused_ff=ff)]
        for port in fresh_die.inbound_tsvs()[1:]:
            groups.append(WrapperGroup(PortKind.TSV_INBOUND, [port.name]))
        for name in outs[2:]:
            groups.append(WrapperGroup(PortKind.TSV_OUTBOUND, [name]))
        plan = WrapperPlan(die_name=fresh_die.name, groups=groups)
        wrapped, report = insert_wrappers(fresh_die, plan)
        assert report.reused_ffs == 2
        # the FF's D now comes through a mux, with a 2-deep XOR chain
        ff_inst = wrapped.instance(ff)
        d_driver = wrapped.net(ff_inst.connections["D"]).driver
        assert d_driver.owner_name.startswith("wrapmux")
        assert report.xors == 2
        # test-mode port added exactly once
        assert len(wrapped.ports_of_kind(PortKind.TEST_MODE)) == 1
        # mux_out mapping covers the reused inbound TSV
        assert inbound in report.mux_out_nets

    def test_group_instances_alignment(self, fresh_die):
        stitch_scan_chains(fresh_die)
        plan = dedicated_plan(fresh_die)
        _wrapped, report = insert_wrappers(fresh_die, plan)
        assert len(report.group_instances) == len(plan.groups)
        assert all(report.group_instances)


class TestTestView:
    def test_view_contents(self, fresh_die):
        stitch_scan_chains(fresh_die)
        wrapped, _ = insert_wrappers(fresh_die, dedicated_plan(fresh_die))
        stitch_scan_chains(wrapped, restitch=True)
        view = build_prebond_test_view(wrapped)
        # every FF (incl. wrapper cells) is controllable and observable
        ff_count = len(wrapped.flip_flops())
        assert sum(1 for _l, n in view.observe_nets) >= ff_count
        assert view.input_count >= ff_count
        # inbound TSVs float
        assert len(view.x_nets) == len(wrapped.inbound_tsvs())
        # test_mode pinned to 1, scan_enable to 0
        assert 1 in view.constant_nets.values()
        assert 0 in view.constant_nets.values()

    def test_outbound_ports_not_observed(self, fresh_die):
        view = build_prebond_test_view(fresh_die)
        outbound_nets = {p.net for p in fresh_die.outbound_tsvs()}
        observed = {net for _l, net in view.observe_nets}
        ff_d_nets = {ff.connections.get("D")
                     for ff in fresh_die.flip_flops()}
        # outbound nets observed only if they happen to feed an FF D
        assert not (outbound_nets & observed) - ff_d_nets


class TestConeAnalysis:
    def test_gate_cone_excludes_ports(self, fresh_die):
        cones = ConeAnalysis(fresh_die)
        tsv = fresh_die.outbound_tsvs()[0].name
        gate_cone = cones.gate_cone(tsv, PortKind.TSV_OUTBOUND)
        for item in gate_cone:
            assert item in fresh_die.instances
            assert not fresh_die.instances[item].is_sequential

    def test_overlap_symmetry(self, fresh_die):
        cones = ConeAnalysis(fresh_die)
        tsvs = [p.name for p in fresh_die.inbound_tsvs()][:6]
        for a in tsvs:
            for b in tsvs:
                if a == b:
                    continue
                assert cones.overlaps(a, b, PortKind.TSV_INBOUND) == \
                    cones.overlaps(b, a, PortKind.TSV_INBOUND)

    def test_overlap_matches_set_intersection(self, fresh_die):
        cones = ConeAnalysis(fresh_die)
        tsvs = [p.name for p in fresh_die.inbound_tsvs()][:6]
        for a in tsvs[:3]:
            for b in tsvs[3:]:
                region = cones.overlap(a, b, PortKind.TSV_INBOUND)
                assert bool(region) == cones.overlaps(a, b,
                                                      PortKind.TSV_INBOUND)
