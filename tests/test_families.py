"""Property tests for the topology families (DESIGN.md §14).

Pins the structural contract of :mod:`repro.bench.families`: closed-form
cluster plans, exact element counts, topology-respecting cross-cluster
wiring, hard depth and TSV fan-out bounds, and byte-identical
determinism across seeds-of-chaos (``PYTHONHASHSEED``, worker-process
fan-out).
"""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.families import (
    CELL_MIXES,
    FAMILIES,
    FamilySpec,
    family_die_specs,
    generate_family,
    generate_family_die,
    netlist_fingerprint,
    plan_family,
)
from repro.bench.stack import generate_family_stack
from repro.netlist.topology import combinational_levels
from repro.netlist.validate import validate_netlist
from repro.runtime.supervisor import SupervisorPolicy, supervised_map
from repro.util.errors import ReproError
from repro.verify.instances import InstanceSpec


# ---------------------------------------------------------------------------
# Closed-form plans
# ---------------------------------------------------------------------------
class TestPlans:
    @given(st.integers(min_value=1, max_value=120))
    def test_grid_closed_form(self, clusters):
        plan = plan_family("grid", clusters)
        dims = dict(plan.shape)
        rows, cols = dims["rows"], dims["cols"]
        assert plan.clusters == rows * cols <= clusters
        assert len(plan.edges) == rows * (cols - 1) + cols * (rows - 1)

    @given(st.integers(min_value=1, max_value=120))
    def test_chain_closed_form(self, clusters):
        plan = plan_family("chain", clusters)
        assert plan.clusters == clusters
        assert plan.edges == tuple((i, i + 1)
                                   for i in range(clusters - 1))

    @given(st.integers(min_value=3, max_value=120))
    def test_ring_closed_form(self, clusters):
        plan = plan_family("ring", clusters)
        assert len(plan.edges) == clusters
        degree = [0] * clusters
        for a, b in plan.edges:
            degree[a] += 1
            degree[b] += 1
        assert all(d == 2 for d in degree)

    def test_ring_degenerates_to_chain(self):
        assert plan_family("ring", 2).edges == ((0, 1),)
        assert plan_family("ring", 1).edges == ()

    @given(st.integers(min_value=1, max_value=120))
    def test_star_closed_form(self, clusters):
        plan = plan_family("star", clusters)
        assert plan.edges == tuple((0, i) for i in range(1, clusters))
        assert all(a == 0 for a, _ in plan.edges)

    @given(st.integers(min_value=1, max_value=300))
    def test_htree_closed_form(self, clusters):
        plan = plan_family("htree", clusters)
        depth = dict(plan.shape)["depth"]
        assert plan.clusters == 2 ** (depth + 1) - 1 <= clusters
        # A deeper complete tree must not have fit the request.
        assert 2 ** (depth + 2) - 1 > clusters
        assert len(plan.edges) == plan.clusters - 1

    @given(st.integers(min_value=1, max_value=120))
    def test_soc_connected(self, clusters):
        plan = plan_family("soc", clusters)
        assert plan.clusters <= clusters
        neighbors = plan.neighbors()
        seen, frontier = {0}, [0]
        while frontier:
            for other in neighbors[frontier.pop()]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        assert seen == set(range(plan.clusters))

    @given(st.sampled_from(FAMILIES),
           st.integers(min_value=1, max_value=120))
    def test_edges_canonical(self, family, clusters):
        plan = plan_family(family, clusters)
        assert list(plan.edges) == sorted(plan.edges)
        assert all(a < b for a, b in plan.edges)
        assert all(0 <= a and b < plan.clusters for a, b in plan.edges)

    def test_unknown_family_raises(self):
        with pytest.raises(ReproError):
            plan_family("torus", 9)
        with pytest.raises(ReproError):
            generate_family("torus")


# ---------------------------------------------------------------------------
# Structural invariants of generated instances
# ---------------------------------------------------------------------------
def _specs():
    return st.builds(
        FamilySpec,
        gates=st.integers(min_value=20, max_value=160),
        ffs=st.integers(min_value=2, max_value=8),
        tsv_in=st.integers(min_value=0, max_value=6),
        tsv_out=st.integers(min_value=0, max_value=6),
        cell_mix=st.sampled_from(sorted(CELL_MIXES)),
    )


class TestStructure:
    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(FAMILIES), spec=_specs(),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_invariants(self, family, spec, seed):
        instance = generate_family(family, spec, seed=seed)
        netlist = instance.netlist

        # Exact counts.
        stats = netlist.stats()
        assert stats["gates"] == spec.gates
        assert stats["scan_flip_flops"] == spec.ffs
        assert stats["inbound_tsvs"] == spec.tsv_in
        assert stats["outbound_tsvs"] == spec.tsv_out

        # Well-formed and acyclic (combinational_levels raises on a
        # cycle); every net driven.
        validate_netlist(netlist)
        levels = combinational_levels(netlist)
        assert levels
        undriven = [n.name for n in netlist.nets.values()
                    if n.driver is None]
        assert undriven == []

        # Hard depth bound on the generator's own level map.
        assert max(instance.levels.values()) <= spec.max_depth

        # Cross-cluster wires only along topology edges, and every
        # planned edge carries at least one wire.
        assert instance.realized_edges() == set(instance.plan.edges)

        # Inbound-TSV fan-out never exceeds the hub cap (non-hub TSVs
        # have the tighter tsv_max_fanout, hubs hub_fanout).
        for port in netlist.inbound_tsvs():
            net = netlist.net(port.net)
            assert len(net.sinks) <= spec.hub_fanout

    @settings(max_examples=10, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_rent_style_cross_probability(self, family, seed):
        spec = FamilySpec(gates=80, ffs=4, rent_exponent=0.6)
        # Rent override is active and bounded.
        assert 0.0 < spec.cross_probability(24) <= 0.5
        instance = generate_family(family, spec, seed=seed)
        assert instance.realized_edges() == set(instance.plan.edges)

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            FamilySpec(gates=0)
        with pytest.raises(ReproError):
            FamilySpec(ffs=0)
        with pytest.raises(ReproError):
            FamilySpec(tsv_in=-1)
        with pytest.raises(ReproError):
            FamilySpec(cell_mix="exotic")
        with pytest.raises(ReproError):
            FamilySpec(max_fanout=8, hub_fanout=4)


class TestDensities:
    @settings(max_examples=20, deadline=None)
    @given(gates=st.integers(min_value=100, max_value=20000),
           ffs_per_kgate=st.floats(min_value=5.0, max_value=120.0),
           tsvs_per_kgate=st.floats(min_value=0.0, max_value=120.0))
    def test_from_density_within_one_count(self, gates, ffs_per_kgate,
                                           tsvs_per_kgate):
        spec = FamilySpec.from_density(gates,
                                       ffs_per_kgate=ffs_per_kgate,
                                       tsvs_per_kgate=tsvs_per_kgate)
        assert abs(spec.ffs - gates * ffs_per_kgate / 1000.0) <= 1.0
        tsvs = spec.tsv_in + spec.tsv_out
        assert abs(tsvs - gates * tsvs_per_kgate / 1000.0) <= 1.0
        assert abs(spec.tsv_in - spec.tsv_out) <= 1

    def test_cell_mix_skews_distribution(self):
        def mix_of(cell_mix):
            netlist = generate_family_die(
                "grid", FamilySpec(gates=400, ffs=8, cell_mix=cell_mix),
                seed=3)
            return [i.cell.name for i in netlist.instances.values()
                    if not i.is_sequential]

        nand_cells = set(mix_of("nand"))
        assert nand_cells <= {c for c, _, _ in CELL_MIXES["nand"]}
        xor_cells = mix_of("xor")
        xor_fraction = (sum(1 for c in xor_cells
                            if c in ("XOR2_X1", "XNOR2_X1"))
                        / len(xor_cells))
        assert 0.36 * 0.5 < xor_fraction < 0.36 * 1.5
        assert "XOR2_X1" not in nand_cells


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def _fingerprint_cell(cell):
    """Module-level so supervised_map worker processes can import it."""
    family, seed = cell
    return netlist_fingerprint(generate_family_die(
        family, FamilySpec(gates=60, ffs=4, tsv_in=2, tsv_out=2),
        seed=seed))


_HASHSEED_SCRIPT = """\
from repro.bench.families import (FAMILIES, FamilySpec,
                                  generate_family_die,
                                  netlist_fingerprint)
spec = FamilySpec(gates=48, ffs=3, tsv_in=2, tsv_out=2)
for family in FAMILIES:
    print(family,
          netlist_fingerprint(generate_family_die(family, spec, seed=11)))
"""


class TestDeterminism:
    @settings(max_examples=12, deadline=None)
    @given(family=st.sampled_from(FAMILIES), spec=_specs(),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_same_spec_same_bytes(self, family, spec, seed):
        first = netlist_fingerprint(
            generate_family_die(family, spec, seed=seed))
        second = netlist_fingerprint(
            generate_family_die(family, spec, seed=seed))
        assert first == second
        other = netlist_fingerprint(
            generate_family_die(family, spec, seed=seed + 1))
        assert other != first

    def test_jobs_do_not_change_bytes(self):
        cells = [(family, 5) for family in FAMILIES]
        policy = dataclasses.replace(SupervisorPolicy.from_config(),
                                     strict=True, checkpoint_dir=None)
        serial = supervised_map(_fingerprint_cell, cells, jobs=1,
                                policy=policy).results_or_raise()
        parallel = supervised_map(_fingerprint_cell, cells, jobs=2,
                                  policy=policy).results_or_raise()
        assert serial == parallel

    @pytest.mark.parametrize("hashseed", ["0", "424242"])
    def test_hashseed_does_not_change_bytes(self, hashseed, tmp_path):
        """Fingerprints are identical under arbitrary PYTHONHASHSEED.

        The reference run uses this process (whatever its hash seed
        is); the subprocess pins a different one.
        """
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run([sys.executable, "-c", _HASHSEED_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        spec = FamilySpec(gates=48, ffs=3, tsv_in=2, tsv_out=2)
        expected = {family: netlist_fingerprint(
            generate_family_die(family, spec, seed=11))
            for family in FAMILIES}
        got = dict(line.split() for line in out.splitlines())
        assert got == expected


# ---------------------------------------------------------------------------
# Stacks and verify-layer integration
# ---------------------------------------------------------------------------
class TestStacksAndSpecs:
    def test_family_stack_bonds_and_validates(self):
        spec = FamilySpec(gates=60, ffs=4, tsv_in=6, tsv_out=6)
        stack = generate_family_stack("ring", spec, seed=5, dies=3)
        assert len(stack.dies) == 3
        # validate_links already ran inside bond_stack; the bonding is
        # deterministic.
        again = generate_family_stack("ring", spec, seed=5, dies=3)
        assert ([netlist_fingerprint(d) for d in stack.dies]
                == [netlist_fingerprint(d) for d in again.dies])
        assert ([(l.source_die, l.source_port, l.target_die,
                  l.target_port) for l in stack.links]
                == [(l.source_die, l.source_port, l.target_die,
                     l.target_port) for l in again.links])

    def test_die_specs_preserve_totals(self):
        spec = FamilySpec(gates=60, ffs=4, tsv_in=8, tsv_out=8)
        for die_spec in family_die_specs(spec, dies=4):
            assert die_spec.tsv_in + die_spec.tsv_out == 16
            assert die_spec.gates == spec.gates

    def test_instance_spec_builds_families(self):
        spec = InstanceSpec(seed=13, gates=30, ffs=3, tsv_in=2,
                            tsv_out=2, family="star")
        netlist = spec.build_netlist()
        stats = netlist.stats()
        assert stats["gates"] == 30
        assert stats["scan_flip_flops"] == 3
        assert "star" in spec.slug()

    def test_instance_spec_fanout_cap(self):
        spec = InstanceSpec(seed=13, gates=40, ffs=3, tsv_in=2,
                            tsv_out=2, family="grid", fanout_cap=4)
        netlist = spec.build_netlist()
        assert netlist.stats()["gates"] == 40
        assert "fo4" in spec.slug()

    def test_instance_spec_rejects_unknown_family(self):
        with pytest.raises(ReproError):
            InstanceSpec(seed=1, family="torus").build_netlist()

    def test_old_repro_json_still_loads(self):
        spec = InstanceSpec(seed=7)
        payload = spec.to_json()
        # A pre-family repro has neither field; defaults must apply.
        import json

        data = json.loads(payload)
        del data["family"]
        del data["fanout_cap"]
        loaded = InstanceSpec.from_json(json.dumps(data))
        assert loaded.family == "itc99"
        assert loaded.fanout_cap is None
        assert loaded == spec
