"""Tests for the overlapped-cone testability estimator."""

import pytest

from repro.core import testability
from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow
from repro.core.testability import (
    OverlapEstimate,
    OverlapTestabilityEstimator,
    build_ideal_wrapped_view,
)
from repro.dft.cones import ConeAnalysis
from repro.netlist.core import PortKind
from repro.runtime import trace


@pytest.fixture(scope="module")
def estimator(medium_problem):
    return OverlapTestabilityEstimator(medium_problem), medium_problem


@pytest.fixture(scope="module")
def cones(medium_problem):
    return ConeAnalysis(medium_problem.netlist)


def overlapped_pairs(cones, problem, kind, limit=6):
    tsvs = problem.tsvs_of_kind(kind)
    pairs = []
    for i, a in enumerate(tsvs):
        for b in tsvs[i + 1:]:
            region = cones.overlap(a, b, kind)
            if region:
                pairs.append((a, b, region))
                if len(pairs) >= limit:
                    return pairs
    return pairs


class TestIdealView:
    def test_inbound_tsvs_controllable(self, medium_problem):
        view = build_ideal_wrapped_view(medium_problem.netlist)
        inbound_nets = {p.net for p in medium_problem.netlist.inbound_tsvs()}
        assert inbound_nets <= set(view.control_nets)

    def test_outbound_tsvs_observable(self, medium_problem):
        view = build_ideal_wrapped_view(medium_problem.netlist)
        observed = {net for _l, net in view.observe_nets}
        outbound_nets = {p.net
                         for p in medium_problem.netlist.outbound_tsvs()}
        assert outbound_nets <= observed


class TestEstimates:
    def test_estimates_are_bounded_and_cached(self, medium_problem, cones,
                                              monkeypatch):
        """Estimates stay in range, and the fault universe behind them
        is counted once per estimator, on first use."""
        counted = []
        real = testability.count_faults

        def counting_count_faults(*args, **kwargs):
            counted.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(testability, "count_faults",
                            counting_count_faults)
        est = OverlapTestabilityEstimator(medium_problem)
        assert not counted  # lazily: nothing counted before an estimate
        pairs = overlapped_pairs(cones, medium_problem, PortKind.TSV_INBOUND)
        assert pairs, "expected intra-cluster overlapped pairs"
        for _a, _b, region in pairs:
            result = est.estimate(len(region))
            assert 0.0 <= result.coverage_drop <= 1.0
            assert result.extra_patterns >= 0
        assert len(counted) == 1

    def test_cache_is_symmetric(self, estimator, cones):
        """A pair's estimate does not depend on which node comes first."""
        est, problem = estimator
        pairs = overlapped_pairs(cones, problem, PortKind.TSV_OUTBOUND,
                                 limit=2)
        assert pairs, "expected intra-cluster overlapped pairs"
        for a, b, region in pairs:
            swapped = cones.overlap(b, a, PortKind.TSV_OUTBOUND)
            assert swapped == region
            assert est.estimate(len(swapped)) == est.estimate(len(region))

    def test_estimate_is_a_pure_function_of_the_overlap(self, estimator,
                                                        cones):
        est, problem = estimator
        pairs = (overlapped_pairs(cones, problem, PortKind.TSV_INBOUND)
                 + overlapped_pairs(cones, problem, PortKind.TSV_OUTBOUND,
                                    limit=2))
        assert pairs, "expected intra-cluster overlapped pairs"
        fresh = OverlapTestabilityEstimator(problem)
        for _a, _b, region in pairs:
            result = est.estimate(len(region))
            # same overlap size, same estimate: again, and from an
            # estimator that counts its own universe
            assert est.estimate(len(region)) == result
            assert fresh.estimate(len(region)) == result

    def test_structural_mode_scales_with_overlap(self, medium_problem):
        est = OverlapTestabilityEstimator(medium_problem)
        small = est.estimate(1)
        big = est.estimate(40)
        assert big.coverage_drop > small.coverage_drop
        assert big.extra_patterns >= small.extra_patterns

    def test_within_threshold_logic(self):
        estimate = OverlapEstimate(coverage_drop=0.004, extra_patterns=9)
        assert estimate.within(0.005, 10)
        assert not estimate.within(0.003, 10)
        assert not estimate.within(0.005, 9)


class TestFlowCost:
    def test_ours_flow_runs_no_simulation(self, small_problem):
        """The overlap check is structural: an ours flow estimates its
        overlapped pairs without simulating a single pattern block."""
        with trace.collect() as collected:
            run_wcm_flow(small_problem,
                         WcmConfig.ours(Scenario.area_optimized()))
        metrics = collected.metrics
        assert metrics.histograms["graph.coverage_drop"].count > 0
        assert "sim.tape_blocks" not in metrics.counters
