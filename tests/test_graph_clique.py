"""Tests for Algorithm 1 (graph construction) and Algorithm 2 (cliques)."""

import math

import pytest

from repro.core.clique import partition_cliques
from repro.core.config import Scenario, WcmConfig
from repro.core.graph import build_wcm_graph, effective_d_th
from repro.core.testability import OverlapTestabilityEstimator
from repro.core.timing_model import ReuseTimingModel
from repro.dft.cones import ConeAnalysis
from repro.netlist.core import PortKind


@pytest.fixture(scope="module")
def area_graphs(medium_problem):
    config = WcmConfig.agrawal(Scenario.area_optimized())
    model = ReuseTimingModel(medium_problem, config)
    inbound = build_wcm_graph(medium_problem, PortKind.TSV_INBOUND,
                              medium_problem.scan_ffs, config, model)
    outbound = build_wcm_graph(medium_problem, PortKind.TSV_OUTBOUND,
                               medium_problem.scan_ffs, config, model)
    return config, model, inbound, outbound


class TestGraphConstruction:
    def test_nodes_partition_tsvs(self, area_graphs, medium_problem):
        _config, _model, inbound, _outbound = area_graphs
        tsv_nodes = [n for n in inbound.nodes if not inbound.is_ff[n]]
        assert (len(tsv_nodes) + len(inbound.excluded_tsvs)
                == len(medium_problem.inbound_tsvs))

    def test_no_ff_ff_edges(self, area_graphs):
        _config, _model, inbound, outbound = area_graphs
        for graph in (inbound, outbound):
            for node, neighbours in graph.adjacency.items():
                if graph.is_ff[node]:
                    assert not any(graph.is_ff[n] for n in neighbours)

    def test_adjacency_symmetric(self, area_graphs):
        _config, _model, inbound, _ = area_graphs
        for node, neighbours in inbound.adjacency.items():
            for other in neighbours:
                assert node in inbound.adjacency[other]

    def test_no_overlap_edges_for_baseline(self, area_graphs):
        _config, _model, inbound, outbound = area_graphs
        assert inbound.stats.overlap_edges == 0
        assert outbound.stats.overlap_edges == 0

    def test_edges_respect_cone_rule(self, area_graphs, medium_problem):
        """Every baseline edge joins non-overlapping (gate) cones."""
        _config, _model, inbound, _ = area_graphs
        cones = ConeAnalysis(medium_problem.netlist)
        checked = 0
        for node, neighbours in inbound.adjacency.items():
            for other in neighbours:
                assert not cones.overlaps(node, other, PortKind.TSV_INBOUND)
                checked += 1
                if checked > 300:
                    return

    def test_overlap_expansion_adds_edges(self, medium_problem):
        area = Scenario.area_optimized()
        ours = WcmConfig.ours(area)
        model = ReuseTimingModel(medium_problem, ours)
        estimator = OverlapTestabilityEstimator(medium_problem)
        expanded = build_wcm_graph(medium_problem, PortKind.TSV_INBOUND,
                                   medium_problem.scan_ffs, ours, model,
                                   estimator)
        baseline = build_wcm_graph(medium_problem, PortKind.TSV_INBOUND,
                                   medium_problem.scan_ffs,
                                   ours.without_overlap(), model)
        assert expanded.stats.edges >= baseline.stats.edges
        assert expanded.stats.overlap_edges \
            == expanded.stats.edges - baseline.stats.edges

    def test_d_th_reduces_edges(self, medium_scenarios):
        """d_th binds only under a timing constraint (area mode is
        unconstrained by definition)."""
        _area, tight, medium_problem = medium_scenarios
        area = tight
        wide = WcmConfig.ours(area, d_th_fraction=None).without_overlap()
        narrow = WcmConfig.ours(area, d_th_fraction=0.15).without_overlap()
        model_w = ReuseTimingModel(medium_problem, wide)
        model_n = ReuseTimingModel(medium_problem, narrow)
        g_wide = build_wcm_graph(medium_problem, PortKind.TSV_INBOUND,
                                 medium_problem.scan_ffs, wide, model_w)
        g_narrow = build_wcm_graph(medium_problem, PortKind.TSV_INBOUND,
                                   medium_problem.scan_ffs, narrow, model_n)
        assert g_narrow.stats.edges < g_wide.stats.edges
        assert g_narrow.stats.rejected_distance > 0

    def test_effective_d_th(self, medium_problem):
        explicit = WcmConfig.ours(Scenario.area_optimized(), d_th_um=42.0)
        assert effective_d_th(medium_problem, explicit) == 42.0
        fractional = WcmConfig.ours(Scenario.area_optimized(),
                                    d_th_fraction=0.5)
        value = effective_d_th(medium_problem, fractional)
        assert 0 < value < math.inf
        disabled = WcmConfig.agrawal(Scenario.area_optimized())
        assert math.isinf(effective_d_th(medium_problem, disabled))


class TestCliquePartitioning:
    def test_partition_covers_all_tsvs(self, area_graphs):
        _config, model, inbound, _ = area_graphs
        partition = partition_cliques(inbound, model)
        covered = [t for c in partition.cliques for t in c.tsvs]
        tsv_nodes = [n for n in inbound.nodes if not inbound.is_ff[n]]
        assert sorted(covered) == sorted(tsv_nodes)

    def test_no_clique_exceeds_group_size(self, area_graphs):
        config, model, inbound, _ = area_graphs
        partition = partition_cliques(inbound, model)
        assert all(len(c.tsvs) <= config.max_group_size
                   for c in partition.cliques)

    def test_cliques_are_cliques(self, area_graphs):
        """Every pair inside a clique must be an original edge."""
        _config, model, inbound, _ = area_graphs
        partition = partition_cliques(inbound, model)
        for clique in partition.cliques:
            nodes = list(clique.tsvs) + ([clique.ff] if clique.ff else [])
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    assert b in inbound.adjacency[a], \
                        f"{a}-{b} not an edge but share a clique"

    def test_each_ff_in_at_most_one_clique(self, area_graphs):
        _config, model, inbound, _ = area_graphs
        partition = partition_cliques(inbound, model)
        ffs = [c.ff for c in partition.cliques if c.ff]
        assert len(ffs) == len(set(ffs))

    def test_merging_reduces_clique_count(self, area_graphs):
        _config, model, inbound, _ = area_graphs
        partition = partition_cliques(inbound, model)
        tsv_nodes = sum(1 for n in inbound.nodes if not inbound.is_ff[n])
        groups = sum(1 for c in partition.cliques if c.tsvs)
        assert groups < tsv_nodes  # some sharing must happen
        assert partition.merges > 0
