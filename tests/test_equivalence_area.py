"""Tests for equivalence checking and area accounting."""

import pytest

from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.dft.area import area_of_insertion, compare_plans, plan_area_estimate
from repro.dft.scan import stitch_scan_chains
from repro.dft.wrapper import dedicated_plan, insert_wrappers
from repro.place.placer import place_die
from repro.verify.oracles import check_functional_equivalence


@pytest.fixture(scope="module")
def wrapped_pair():
    netlist = generate_die(die_profile("b11", 0), seed=31)
    place_die(netlist)
    stitch_scan_chains(netlist)
    wrapped, report = insert_wrappers(netlist, dedicated_plan(netlist))
    stitch_scan_chains(wrapped, restitch=True)
    return netlist, wrapped, report


class TestEquivalence:
    def test_insertion_is_functionally_invisible(self, wrapped_pair):
        bare, wrapped, _report = wrapped_pair
        result = check_functional_equivalence(bare, wrapped, patterns=1024)
        assert result.equivalent, result.mismatch
        assert result.compared_observables > 0

    def test_wcm_plans_are_functionally_invisible(self, medium_problem):
        from repro.core.config import Scenario, WcmConfig
        from repro.core.flow import run_wcm_flow

        run = run_wcm_flow(medium_problem,
                           WcmConfig.ours(Scenario.area_optimized()))
        result = check_functional_equivalence(
            medium_problem.netlist, run.wrapped_netlist, patterns=768)
        assert result.equivalent, result.mismatch

    def test_detects_injected_bug(self, wrapped_pair):
        bare, wrapped, _report = wrapped_pair
        broken = wrapped.clone("broken")
        # Swap one gate's function: NAND -> NOR somewhere.
        victim = next(i for i in broken.instances.values()
                      if i.cell.name == "NAND2_X1")
        victim.cell = broken.library.get("NOR2_X1")
        result = check_functional_equivalence(bare, broken, patterns=1024)
        assert not result.equivalent
        assert result.mismatch is not None
        assert result.mismatch.stimulus  # reproducible stimulus given

    def test_deterministic(self, wrapped_pair):
        bare, wrapped, _report = wrapped_pair
        a = check_functional_equivalence(bare, wrapped, patterns=256, seed=4)
        b = check_functional_equivalence(bare, wrapped, patterns=256, seed=4)
        assert a.equivalent == b.equivalent
        assert a.patterns_checked == b.patterns_checked


class TestAreaAccounting:
    def test_insertion_report_pricing(self, wrapped_pair):
        bare, _wrapped, report = wrapped_pair
        area = area_of_insertion(bare, report)
        assert area.logic_area_um2 > 0
        assert area.wrapper_cell_area_um2 > 0
        assert area.dft_area_um2 == pytest.approx(
            area.wrapper_cell_area_um2 + area.mux_area_um2
            + area.xor_area_um2 + area.buffer_area_um2)
        assert "overhead" in area.render()

    def test_plan_estimate_matches_insertion(self, wrapped_pair):
        bare, _wrapped, report = wrapped_pair
        estimate = plan_area_estimate(bare, dedicated_plan(bare))
        actual = area_of_insertion(bare, report)
        assert estimate.wrapper_cell_area_um2 \
            == actual.wrapper_cell_area_um2
        assert estimate.mux_area_um2 == actual.mux_area_um2

    def test_reuse_costs_less_than_dedicated(self, medium_problem):
        from repro.core.config import Scenario, WcmConfig
        from repro.core.flow import run_wcm_flow

        run = run_wcm_flow(medium_problem,
                           WcmConfig.ours(Scenario.area_optimized()))
        reuse = plan_area_estimate(medium_problem.netlist, run.plan)
        dedicated = plan_area_estimate(medium_problem.netlist,
                                       dedicated_plan(medium_problem.netlist))
        assert reuse.wrapper_cell_area_um2 \
            < dedicated.wrapper_cell_area_um2

    def test_compare_plans_renders(self, medium_problem):
        text = compare_plans(medium_problem.netlist, {
            "dedicated": dedicated_plan(medium_problem.netlist),
        })
        assert "dedicated" in text and "overhead" in text


class TestInsertionCheck:
    """The ``insertion`` fuzz check: bare die vs its wrapped builds."""

    @pytest.fixture(scope="class")
    def subject(self):
        from repro.verify.checks import Subject
        from repro.verify.fuzz import spec_for_iteration

        return Subject(spec_for_iteration(0, 0))

    def test_check_registered_and_clean(self, subject):
        from repro.core.flow import run_wcm_flow
        from repro.netlist.core import PortKind
        from repro.verify.checks import CHECKS
        from repro.verify.fuzz import _checks_of

        assert "insertion" in CHECKS
        # the spec exercises the outbound reuse mux the mutant breaks
        run = run_wcm_flow(subject.problem, subject.config)
        assert any(g.kind is PortKind.TSV_OUTBOUND and g.reused_ff
                   for g in run.plan.groups)
        assert CHECKS["insertion"](subject) == []
        assert _checks_of(["insertion[flow]: ff0.D differs"]) \
            == ["insertion"]

    def test_check_leaves_subject_untouched(self, subject):
        from repro.bench.families import netlist_fingerprint
        from repro.verify.checks import check_insertion

        before = [netlist_fingerprint(subject.problem.netlist),
                  netlist_fingerprint(subject.problem.dedicated_netlist)]
        check_insertion(subject)
        assert [netlist_fingerprint(subject.problem.netlist),
                netlist_fingerprint(subject.problem.dedicated_netlist)] \
            == before

    def test_reuse_mux_swap_mutant_killed(self):
        """An outbound reuse mux built with its inputs swapped captures
        the XOR chain in functional mode; only equivalence sees it."""
        from repro.verify.mutants import self_check

        results = self_check(root_seed=0, budget=10, checks=["insertion"],
                             mutant_names=["wrapper-reuse-mux-swapped"])
        assert all(r.killed for r in results), \
            [(r.name, r.killed) for r in results]
        assert results[0].evidence.startswith("insertion[flow]")
