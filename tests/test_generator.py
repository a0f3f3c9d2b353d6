"""Tests for the calibrated die generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.families import netlist_fingerprint
from repro.bench.generator import DieGeneratorConfig, generate_die
from repro.bench.itc99 import (
    CIRCUITS,
    all_die_profiles,
    average_stats,
    die_profile,
    profiles_for_circuit,
)
from repro.netlist.topology import combinational_levels, topological_instances
from repro.netlist.validate import validate_netlist
from repro.util.errors import ConfigError


class TestProfiles:
    def test_all_24_profiles(self):
        assert len(all_die_profiles()) == 24

    def test_unknown_circuit_raises(self):
        with pytest.raises(ConfigError):
            die_profile("b99", 0)
        with pytest.raises(ConfigError):
            profiles_for_circuit("b99")

    def test_profile_values_match_table(self):
        profile = die_profile("b18", 1)
        assert profile.scan_flip_flops == 1033
        assert profile.gates == 26698
        assert profile.inbound_tsvs == 1561
        assert profile.outbound_tsvs == 1875
        assert profile.tsvs == 3436

    def test_average_row_matches_paper(self):
        avg = average_stats()
        assert avg["scan_flip_flops"] == pytest.approx(194.04, abs=0.01)
        assert avg["gates"] == pytest.approx(8522.67, abs=0.01)
        assert avg["tsvs"] == pytest.approx(1064.54, abs=0.01)

    def test_circuit_list(self):
        assert CIRCUITS == ("b11", "b12", "b18", "b20", "b21", "b22")


class TestGeneratedStructure:
    @pytest.mark.parametrize("circuit,die", [
        ("b11", 0), ("b11", 2), ("b12", 1), ("b12", 3),
    ])
    def test_counts_match_profile_exactly(self, circuit, die):
        profile = die_profile(circuit, die)
        netlist = generate_die(profile, seed=7)
        stats = netlist.stats()
        assert stats["gates"] == profile.gates
        assert stats["scan_flip_flops"] == profile.scan_flip_flops
        assert stats["inbound_tsvs"] == profile.inbound_tsvs
        assert stats["outbound_tsvs"] == profile.outbound_tsvs

    def test_determinism(self):
        profile = die_profile("b12", 2)
        a = generate_die(profile, seed=11)
        b = generate_die(profile, seed=11)
        assert netlist_fingerprint(a) == netlist_fingerprint(b)

    def test_seed_changes_structure(self):
        profile = die_profile("b12", 2)
        a = generate_die(profile, seed=11)
        b = generate_die(profile, seed=12)
        assert netlist_fingerprint(a) != netlist_fingerprint(b)

    def test_validates_structurally(self):
        netlist = generate_die(die_profile("b12", 0), seed=5)
        validate_netlist(netlist)  # raises on structural errors

    def test_depth_hard_bounded(self):
        config = DieGeneratorConfig(max_depth=8)
        netlist = generate_die(die_profile("b12", 1), seed=5, config=config)
        levels = combinational_levels(netlist)
        assert max(levels.values()) <= 8

    def test_acyclic(self):
        netlist = generate_die(die_profile("b11", 3), seed=5)
        order = topological_instances(netlist)
        assert len(order) == netlist.gate_count

    def test_every_inbound_tsv_drives_logic(self):
        netlist = generate_die(die_profile("b12", 1), seed=5)
        for port in netlist.inbound_tsvs():
            assert netlist.net(port.net).sinks, f"{port.name} floats"

    def test_fanout_caps_respected_for_tsvs(self):
        config = DieGeneratorConfig()
        netlist = generate_die(die_profile("b12", 1), seed=5, config=config)
        for port in netlist.inbound_tsvs():
            fanout = len(netlist.net(port.net).sinks)
            assert fanout <= config.max_hub_fanout

    def test_dangling_nets_rare(self):
        netlist = generate_die(die_profile("b12", 1), seed=5)
        warnings = validate_netlist(netlist)
        dangling = [w for w in warnings if "no sinks" in w]
        assert len(dangling) <= netlist.gate_count * 0.02

    def test_scan_ffs_unstitched_initially(self):
        netlist = generate_die(die_profile("b11", 0), seed=5)
        for ff in netlist.scan_flip_flops():
            assert "SI" not in ff.connections

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_counts_hold_for_any_seed(self, seed):
        profile = die_profile("b11", 0)
        stats = generate_die(profile, seed=seed).stats()
        assert stats["gates"] == profile.gates
        assert stats["scan_flip_flops"] == profile.scan_flip_flops
