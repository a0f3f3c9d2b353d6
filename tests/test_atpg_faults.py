"""Tests for fault-universe construction and collapsing."""

from repro.atpg.faults import (
    FaultKind,
    build_fault_list,
)
from repro.dft.testview import build_prebond_test_view
from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import PortKind


def single_gate_view(cell: str, n_inputs: int):
    builder = NetlistBuilder("fg")
    inputs = [builder.add_input(f"i{k}") for k in range(n_inputs)]
    out = builder.add_gate(cell, inputs, name="g")
    builder.add_output("po", out)
    return build_prebond_test_view(builder.finish())


class TestCollapsing:
    def test_nand_input_sa0_collapsed(self):
        view = single_gate_view("NAND2_X1", 2)
        faults = build_fault_list(view)
        described = {f.describe() for f in faults.faults}
        # single-sink stems collapse their SA0 into the output SA1
        assert "i0 s-a-0" not in described
        assert "i0 s-a-1" in described
        assert faults.collapsed_away > 0

    def test_or_input_sa1_collapsed(self):
        view = single_gate_view("OR2_X1", 2)
        described = {f.describe() for f in build_fault_list(view).faults}
        assert "i0 s-a-1" not in described
        assert "i0 s-a-0" in described

    def test_xor_inputs_not_collapsed(self):
        view = single_gate_view("XOR2_X1", 2)
        described = {f.describe() for f in build_fault_list(view).faults}
        assert "i0 s-a-0" in described and "i0 s-a-1" in described

    def test_collapse_disabled(self):
        view = single_gate_view("NAND2_X1", 2)
        collapsed = build_fault_list(view, collapse=True)
        full = build_fault_list(view, collapse=False)
        assert full.total > collapsed.total
        assert full.collapsed_away == 0


class TestBranchFaults:
    def test_multi_sink_nets_get_branches(self):
        builder = NetlistBuilder("mb")
        a = builder.add_input("a")
        b = builder.add_input("b")
        x = builder.add_gate("XOR2_X1", [a, b], name="g0")
        y = builder.add_gate("XOR2_X1", [a, x], name="g1")
        builder.add_output("po", y)
        view = build_prebond_test_view(builder.finish())
        faults = build_fault_list(view)
        branches = [f for f in faults.faults if f.kind is FaultKind.BRANCH]
        assert any(f.net == "a" and f.owner == "g0" for f in branches)
        assert any(f.net == "a" and f.owner == "g1" for f in branches)

    def test_single_sink_net_has_no_branch(self):
        view = single_gate_view("XOR2_X1", 2)
        faults = build_fault_list(view)
        assert not any(f.kind is FaultKind.BRANCH for f in faults.faults)

    def test_obs_branch_on_ff_d(self, small_test_view):
        faults = build_fault_list(small_test_view)
        assert any(f.kind is FaultKind.OBS_BRANCH for f in faults.faults)


class TestExclusions:
    def test_floating_tsv_faults_excluded(self):
        builder = NetlistBuilder("fx")
        a = builder.add_input("a")
        tin = builder.add_input("tin", kind=PortKind.TSV_INBOUND)
        out = builder.add_gate("AND2_X1", [a, tin])
        builder.add_output("po", out)
        view = build_prebond_test_view(builder.finish())
        faults = build_fault_list(view)
        assert not any(f.net == "tin" for f in faults.faults)
        assert faults.prebond_untestable >= 2

    def test_constant_net_faults_excluded(self, small_test_view):
        faults = build_fault_list(small_test_view)
        constant_nets = set(small_test_view.constant_nets)
        assert not any(f.net in constant_nets for f in faults.faults)
        assert faults.constrained_untestable >= 0

    def test_outbound_pad_branch_excluded_but_stem_kept(self):
        builder = NetlistBuilder("ob")
        a = builder.add_input("a")
        b = builder.add_input("b")
        out = builder.add_gate("AND2_X1", [a, b])
        builder.add_output("tsvout0", out, kind=PortKind.TSV_OUTBOUND)
        view = build_prebond_test_view(builder.finish())
        faults = build_fault_list(view)
        # the net's stem faults remain in the universe (they are the
        # coverage gap wrappers exist to close) ...
        assert any(f.net == out and f.kind is FaultKind.STEM
                   for f in faults.faults)
        # ... and the pad-side branch is uniformly dark
        assert faults.prebond_untestable >= 2


class TestSampling:
    def test_sample_is_deterministic_and_bounded(self, small_test_view):
        faults = build_fault_list(small_test_view)
        s1 = faults.sample(50, seed=9)
        s2 = faults.sample(50, seed=9)
        assert [f.describe() for f in s1.faults] == \
            [f.describe() for f in s2.faults]
        assert s1.total == 50

    def test_oversample_returns_self(self, small_test_view):
        faults = build_fault_list(small_test_view)
        assert faults.sample(10**9, seed=1) is faults
