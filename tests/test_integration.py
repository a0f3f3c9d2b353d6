"""End-to-end integration tests across all subsystems."""

import pytest

from repro.atpg.engine import AtpgConfig, run_stuck_at_atpg
from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.config import Scenario, WcmConfig
from repro.core.flow import run_wcm_flow
from repro.core.problem import build_problem, tight_clock_for
from repro.dft.testview import build_prebond_test_view
from repro.netlist.validate import validate_netlist
from repro.sta.timer import TimingContext, default_case


class TestFullFlowOnFreshDie:
    """The complete Fig.-6 pipeline on a die none of the fixtures use."""

    @pytest.fixture(scope="class")
    def flow(self):
        netlist = generate_die(die_profile("b11", 3), seed=77)
        problem = build_problem(netlist)
        clock = tight_clock_for(problem)
        tight = Scenario.performance_optimized(clock.period_ps)
        run = run_wcm_flow(problem.retime(clock), WcmConfig.ours(tight))
        return problem, run

    def test_wrapped_die_is_structurally_sound(self, flow):
        _problem, run = flow
        validate_netlist(run.wrapped_netlist, allow_undriven_nets=True)

    def test_all_tsvs_wrapped(self, flow):
        problem, run = flow
        run.plan.validate(problem.netlist)

    def test_no_timing_violation(self, flow):
        _problem, run = flow
        assert not run.timing_violation

    def test_scan_chain_covers_wrapper_cells(self, flow):
        _problem, run = flow
        wrapped = run.wrapped_netlist
        for ff in wrapped.scan_flip_flops():
            assert "SI" in ff.connections, f"{ff.name} not in a chain"

    def test_wrapping_raises_coverage(self, flow):
        """The whole point of wrapper cells: pre-bond coverage of the
        wrapped die beats the bare die."""
        problem, run = flow
        config = AtpgConfig(seed=5, block_width=128, max_random_blocks=6,
                            podem_fault_limit=300)
        bare = run_stuck_at_atpg(
            build_prebond_test_view(problem.netlist), config)
        wrapped = run_stuck_at_atpg(
            build_prebond_test_view(run.wrapped_netlist), config)
        assert wrapped.raw_coverage > bare.raw_coverage

    def test_test_mode_actually_decouples_tsvs(self, flow):
        """In test mode every inbound TSV's sinks see the wrapper value,
        not the floating TSV: flipping the TSV net must not change any
        observed value."""
        from repro.atpg.sim import CompiledCircuit
        from repro.util.rng import DeterministicRng

        _problem, run = flow
        view = build_prebond_test_view(run.wrapped_netlist)
        circuit = CompiledCircuit(view)
        rng = DeterministicRng(11)
        mask = (1 << 64) - 1
        words = [rng.getrandbits(64) for _ in range(circuit.input_count)]
        good = circuit.simulate(words, mask)
        for net in view.x_nets[:10]:
            nid = circuit.net_ids[net]
            changed = circuit.propagate_values(good, {nid: mask}, mask)
            assert not circuit.observation_diffs(good, changed), \
                f"floating TSV {net} leaks into an observation point"


class TestDualModeSignoff:
    def test_dedicated_reference_meets_its_own_tight_clock(self,
                                                           small_problem):
        clock = tight_clock_for(small_problem)
        wrapped = small_problem.dedicated_netlist
        context = TimingContext(wrapped)
        for mode in (0, 1):
            result = context.analyze(clock,
                                     case=default_case(wrapped, mode))
            assert not result.has_violation, f"mode {mode} violates"

    def test_functional_mode_excludes_test_paths(self, small_problem):
        clock = tight_clock_for(small_problem)
        wrapped = small_problem.dedicated_netlist
        context = TimingContext(wrapped)
        functional = context.analyze(clock,
                                     case=default_case(wrapped, 0))
        test = context.analyze(clock, case=default_case(wrapped, 1))
        assert test.critical_path_ps >= functional.critical_path_ps


class TestDeterminismEndToEnd:
    def test_same_seed_same_plan(self):
        def one_run():
            netlist = generate_die(die_profile("b11", 0), seed=99)
            problem = build_problem(netlist)
            run = run_wcm_flow(problem,
                               WcmConfig.ours(Scenario.area_optimized()))
            return (run.reused_scan_ffs, run.additional_wrapper_cells,
                    sorted((g.kind.value, tuple(g.tsvs), g.reused_ff)
                           for g in run.plan.groups))

        assert one_run() == one_run()
