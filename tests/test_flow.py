"""Tests for the end-to-end WCM flow, baselines and the repair loop."""

import pytest

from repro.core.config import Scenario, WcmConfig
from repro.core.flow import decide_order, measure_testability, run_wcm_flow
from repro.dft.wrapper import dedicated_plan
from repro.atpg.engine import AtpgConfig
from repro.netlist.core import PortKind


@pytest.fixture(scope="module")
def area_runs(medium_problem):
    area = Scenario.area_optimized()
    agrawal = run_wcm_flow(medium_problem, WcmConfig.agrawal(area))
    ours = run_wcm_flow(medium_problem, WcmConfig.ours(area))
    return agrawal, ours


@pytest.fixture(scope="module")
def tight_runs(medium_scenarios):
    _area, tight, problem = medium_scenarios
    agrawal = run_wcm_flow(problem, WcmConfig.agrawal(tight))
    ours = run_wcm_flow(problem, WcmConfig.ours(tight))
    return agrawal, ours


class TestOrdering:
    def test_ours_starts_from_larger_set(self, medium_problem):
        config = WcmConfig.ours(Scenario.area_optimized())
        order = decide_order(medium_problem, config)
        inbound = len(medium_problem.inbound_tsvs)
        outbound = len(medium_problem.outbound_tsvs)
        first = order[0]
        if outbound > inbound:
            assert first is PortKind.TSV_OUTBOUND
        else:
            assert first is PortKind.TSV_INBOUND

    def test_agrawal_always_inbound_first(self, medium_problem):
        config = WcmConfig.agrawal(Scenario.area_optimized())
        assert decide_order(medium_problem, config)[0] \
            is PortKind.TSV_INBOUND


class TestFlowResults:
    def test_plans_valid_and_complete(self, area_runs, medium_problem):
        for run in area_runs:
            run.plan.validate(medium_problem.netlist)
            assert run.plan.wrapped_tsv_count \
                == medium_problem.netlist.tsv_count

    def test_reuse_beats_dedicated_baseline(self, area_runs,
                                            medium_problem):
        """Both methods must beat wrapper-cells-everywhere [13]."""
        dedicated = dedicated_plan(medium_problem.netlist)
        for run in area_runs:
            assert run.additional_wrapper_cells \
                < dedicated.additional_wrapper_cells

    def test_ours_fewer_or_equal_additional_in_area(self, area_runs):
        agrawal, ours = area_runs
        assert ours.additional_wrapper_cells \
            <= agrawal.additional_wrapper_cells

    def test_area_runs_never_violate(self, area_runs):
        for run in area_runs:
            assert not run.timing_violation

    def test_ours_no_violation_under_tight_timing(self, tight_runs):
        _agrawal, ours = tight_runs
        assert not ours.timing_violation

    def test_agrawal_violates_under_tight_timing(self, tight_runs):
        """The headline Table III contrast on this die (b12_die1 is one
        of the paper's 20/24 violating dies)."""
        agrawal, _ours = tight_runs
        assert agrawal.timing_violation

    def test_wrapped_netlist_metrics_match_plan(self, area_runs):
        for run in area_runs:
            assert run.insertion.wrapper_cells \
                == run.additional_wrapper_cells
            assert run.insertion.reused_ffs == run.reused_scan_ffs

    def test_graph_stats_present_for_both_kinds(self, area_runs):
        for run in area_runs:
            assert set(run.graph_stats) \
                == {"tsv_inbound", "tsv_outbound"}


class TestRepair:
    def test_repair_only_for_ours(self, tight_runs):
        agrawal, ours = tight_runs
        # Agrawal ships its first answer: violations stay
        assert agrawal.timing_violation
        assert not ours.timing_violation

    def test_repair_disabled_keeps_plan(self, medium_scenarios):
        from dataclasses import replace
        _area, tight, problem = medium_scenarios
        config = replace(WcmConfig.ours(tight), signoff_repair=False)
        run = run_wcm_flow(problem, config)
        # without repair the raw plan may violate, but must be complete
        run.plan.validate(problem.netlist)

    def test_lazy_critical_walk_keeps_repair_decisions(self,
                                                       medium_scenarios,
                                                       monkeypatch):
        """Every violating round of the b12_d1 ours/tight repair loop
        evicts or splits the same groups whether the critical-path walk
        is read lazily or materialized first."""
        from repro.core import flow

        _area, tight, problem = medium_scenarios
        rounds = []

        class Recorder(flow.FlowHooks):
            def signoff(self, problem, plan, config):
                built = super().signoff(problem, plan, config)
                rounds.append((plan, built))
                return built

        run_wcm_flow(problem, WcmConfig.ours(tight), hooks=Recorder())
        violating = []
        for plan, (wrapped, report, functional, test) in rounds:
            violations = flow.signoff_violations(functional, test)
            if violations:
                violating.append((wrapped, report, plan, violations))
        assert len(violating) >= 5

        def decisions():
            return [flow._evict_violating_groups(*args, evict_budget=budget)
                    for args in violating for budget in (1, 4)]

        lazy = decisions()
        walk = flow._walk_critical_path
        monkeypatch.setattr(flow, "_walk_critical_path",
                            lambda *args, **kwargs: list(walk(*args,
                                                              **kwargs)))
        assert decisions() == lazy


class TestTestabilityMeasurement:
    def test_measure_testability_smoke(self, area_runs):
        agrawal, _ours = area_runs
        report = measure_testability(
            agrawal,
            AtpgConfig(seed=5, block_width=64, max_random_blocks=4,
                       podem_fault_limit=100, fault_sample=400),
            include_transition=True,
        )
        assert 0.5 < report.stuck_at.coverage <= 1.0
        assert report.stuck_at_pair[1] == report.stuck_at.pattern_count
        assert report.transition is not None
        assert 0.0 < report.transition.coverage <= 1.0
