"""Wrapper/TAM co-optimization: designer, packer, exact oracles,
experiment driver (DESIGN.md §15).

The load-bearing suite is differential: a brute-force wrapper-chain
designer and an exhaustive branch-and-bound packer check the greedy
production paths over a seeded corpus, with the heuristic's optimality
ratio pinned. Hypothesis sweeps pin the structural invariants (exact
cover, no lane/time overlap, monotone staircases), and the driver
tests pin byte-identical output across worker counts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import SCALES, result_fingerprint
from repro.schedule import (
    DieTestModel,
    balanced_chain_lengths,
    best_fit_schedule,
    candidate_points,
    chain_test_time,
    design_wrapper,
    exact_schedule,
    exact_wrapper_max_length,
    internal_chain_count,
    pareto_points,
    run_schedule,
    schedule_violations,
    staircase,
    staircase_fingerprint,
    waterfill_max,
)
from repro.schedule.oracle import MAX_ORACLE_DIES
from repro.util.errors import ConfigError, ReproError
from repro.util.rng import DeterministicRng

SMOKE = SCALES["smoke"]

#: worst best-fit/exact makespan ratio over the seeded corpus below —
#: measured 1.3351..; any regression past this is a packer change
PINNED_RATIO = 1.34
CORPUS_SEEDS = 40


def corpus_instance(seed: int):
    """One seeded small instance: <= 6 dies, TAM budget <= 4."""
    rng = DeterministicRng(seed).child("schedule", "corpus")
    dies = rng.randint(2, 6)
    budget = rng.randint(2, 4)
    models = [
        DieTestModel(
            f"d{i}",
            tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 3)))
            or (rng.randint(1, 9),),
            rng.randint(0, 12), rng.randint(1, 12))
        for i in range(dies)
    ]
    return models, budget


# ---------------------------------------------------------------------------
# Wrapper-chain design
# ---------------------------------------------------------------------------
class TestChains:
    def test_model_validation(self):
        with pytest.raises(ConfigError):
            DieTestModel("x", (0,), 1, 4)
        with pytest.raises(ConfigError):
            DieTestModel("x", (2,), -1, 4)
        with pytest.raises(ConfigError):
            DieTestModel("x", (2,), 1, 0)

    def test_balanced_chain_lengths(self):
        assert balanced_chain_lengths(0, 3) == ()
        assert balanced_chain_lengths(7, 1) == (7,)
        assert balanced_chain_lengths(7, 2) == (4, 3)
        assert balanced_chain_lengths(7, 4) == (2, 2, 2, 1)
        assert balanced_chain_lengths(2, 5) == (1, 1)  # capped at ffs

    def test_internal_chain_count_policy(self):
        assert internal_chain_count(1) == 1
        assert internal_chain_count(16) == 1
        assert internal_chain_count(17) == 2
        assert internal_chain_count(1000) == 4

    def test_design_is_lpt(self):
        model = DieTestModel("d", (8, 5, 3), 4, 10)
        plan = design_wrapper(model, 2)
        # 8 | 5+3, then 4 units water-fill the gap and the remainder
        assert plan.lengths == (10, 10)
        assert sorted(e for c in plan.chains for e in c) == sorted(
            ["ic0", "ic1", "ic2", "wc0", "wc1", "wc2", "wc3"])

    def test_chain_test_time_formula(self):
        assert chain_test_time(0, 5) == 5
        assert chain_test_time(7, 10) == 87

    def test_staircase_monotone_and_clamped(self):
        model = DieTestModel("d", (9,), 3, 4)
        points = staircase(model, 6)
        assert [p.width for p in points] == [1, 2, 3, 4, 5, 6]
        times = [p.time for p in points]
        assert times == sorted(times, reverse=True)
        # beyond the useful width the clamp keeps the best design
        assert points[-1].used_width <= points[-1].width

    def test_pareto_points_are_strict_corners(self):
        model = DieTestModel("d", (9,), 3, 4)
        corners = pareto_points(staircase(model, 6))
        times = [p.time for p in corners]
        assert times == sorted(set(times), reverse=True)
        assert all(p.used_width == p.width for p in corners)

    def test_staircase_fingerprint_stable(self):
        model = DieTestModel("d", (4, 2), 3, 6)
        assert staircase_fingerprint(model, 4) == \
            staircase_fingerprint(model, 4)


models_st = st.builds(
    DieTestModel,
    name=st.just("h"),
    internal_chains=st.lists(st.integers(1, 9), min_size=0,
                             max_size=4).map(tuple),
    wrapper_cells=st.integers(0, 12),
    patterns=st.integers(1, 20),
)


class TestChainProperties:
    @settings(max_examples=60, deadline=None)
    @given(model=models_st, width=st.integers(1, 5))
    def test_partition_covers_every_element_once(self, model, width):
        plan = design_wrapper(model, width)
        placed = sorted(e for chain in plan.chains for e in chain)
        want = sorted(
            [f"ic{i}" for i in range(len(model.internal_chains))]
            + [f"wc{i}" for i in range(model.wrapper_cells)])
        assert placed == want
        assert plan.lengths == tuple(
            sum(model.internal_chains[int(e[2:])] if e.startswith("ic")
                else 1 for e in chain)
            for chain in plan.chains)

    @settings(max_examples=60, deadline=None)
    @given(model=models_st)
    def test_time_monotone_in_width(self, model):
        times = [p.time for p in staircase(model, 6)]
        assert times == sorted(times, reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(model=models_st, width=st.integers(1, 5),
           extra=st.integers(1, 5))
    def test_fewer_cells_never_slower(self, model, width, extra):
        """The metamorphic heart: the WCM reduction (fewer wrapper
        cells) can never test slower at equal width and patterns."""
        fatter = DieTestModel(model.name, model.internal_chains,
                              model.wrapper_cells + extra, model.patterns)
        assert staircase(model, width)[-1].time <= \
            staircase(fatter, width)[-1].time

    @settings(max_examples=40, deadline=None)
    @given(model=models_st, width=st.integers(1, 4))
    def test_greedy_within_lpt_bound_of_exact(self, model, width):
        exact = exact_wrapper_max_length(model, width)
        greedy = design_wrapper(model, width).max_length
        assert exact <= greedy
        assert 3 * greedy <= 4 * exact


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------
class TestPack:
    def test_empty_schedule(self):
        schedule = best_fit_schedule([], 4)
        assert schedule.makespan == 0
        assert schedule.utilization == 0.0
        assert not schedule_violations(schedule, [], 4)

    def test_duplicate_names_rejected(self):
        model = DieTestModel("d", (2,), 0, 2)
        with pytest.raises(ConfigError):
            best_fit_schedule([model, model], 4)

    def test_budget_validated(self):
        with pytest.raises(ConfigError):
            best_fit_schedule([], 0)
        with pytest.raises(ConfigError):
            candidate_points(DieTestModel("d", (2,), 0, 2), 0)

    def test_single_die_uses_best_corner(self):
        model = DieTestModel("d", (9,), 3, 4)
        schedule = best_fit_schedule([model], 4)
        assert len(schedule.placements) == 1
        placement = schedule.placements[0]
        assert placement.start == 0
        assert placement.time == staircase(model, 4)[-1].time

    def test_violations_catch_overlap_and_bounds(self):
        model = DieTestModel("d", (3,), 0, 2)
        schedule = best_fit_schedule([model], 2)
        bad = schedule.placements[0]
        from repro.schedule import Placement, Schedule
        forged = Schedule(budget=2, placements=(
            bad, Placement(die="e", width=5, lane=0, start=0,
                           time=bad.time)))
        other = DieTestModel("e", (3,), 0, 2)
        problems = schedule_violations(forged, [model, other], 2)
        assert any("outside budget" in p for p in problems)
        assert any("overlap" in p for p in problems)

    def test_fingerprint_deterministic(self):
        models, budget = corpus_instance(3)
        assert best_fit_schedule(models, budget).fingerprint() == \
            best_fit_schedule(models, budget).fingerprint()


schedules_st = st.lists(
    st.tuples(st.lists(st.integers(1, 8), min_size=1,
                       max_size=3).map(tuple),
              st.integers(0, 10), st.integers(1, 10)),
    min_size=1, max_size=4)


class TestPackProperties:
    @settings(max_examples=60, deadline=None)
    @given(raw=schedules_st, budget=st.integers(1, 5))
    def test_schedule_always_valid(self, raw, budget):
        models = [DieTestModel(f"d{i}", chains, cells, patterns)
                  for i, (chains, cells, patterns) in enumerate(raw)]
        schedule = best_fit_schedule(models, budget)
        assert schedule_violations(schedule, models, budget) == []
        # makespan is the max rectangle end; every die fits the budget
        assert schedule.makespan == max(p.end for p in schedule.placements)
        for p in schedule.placements:
            assert 0 <= p.lane and p.lane + p.width <= budget
        # pairwise lane/time disjointness, independently recomputed
        for i, a in enumerate(schedule.placements):
            for b in schedule.placements[i + 1:]:
                lanes = a.lane < b.lane + b.width and \
                    b.lane < a.lane + a.width
                times = a.start < b.end and b.start < a.end
                assert not (lanes and times)


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------
class TestOracles:
    def test_waterfill_closed_form(self):
        assert waterfill_max([], 0, 3) == 0
        assert waterfill_max([5, 2], 0, 2) == 5
        assert waterfill_max([5, 2], 3, 2) == 5  # fits the gap exactly
        assert waterfill_max([5, 2], 4, 2) == 6
        assert waterfill_max([7], 21, 4) == 7   # capacity 21 at width 4
        with pytest.raises(ConfigError):
            waterfill_max([1], -1, 2)
        with pytest.raises(ConfigError):
            waterfill_max([1], 0, 0)

    def test_exact_designer_small_cases(self):
        assert exact_wrapper_max_length(
            DieTestModel("d", (8, 5, 3), 0, 2), 2) == 8
        assert exact_wrapper_max_length(
            DieTestModel("d", (3, 3, 2), 0, 2), 2) == 5
        assert exact_wrapper_max_length(
            DieTestModel("d", (), 7, 3), 3) == 3

    def test_exact_designer_node_guard(self):
        model = DieTestModel("d", tuple(range(1, 13)), 0, 2)
        with pytest.raises(ReproError):
            exact_wrapper_max_length(model, 4, max_nodes=50)

    def test_exact_schedule_die_cap_and_guard(self):
        models = [DieTestModel(f"d{i}", (2,), 0, 2)
                  for i in range(MAX_ORACLE_DIES + 1)]
        with pytest.raises(ReproError):
            exact_schedule(models, 4)
        big, budget = corpus_instance(0)
        with pytest.raises(ReproError):
            exact_schedule(big, budget, max_nodes=3)

    def test_exact_schedule_empty(self):
        assert exact_schedule([], 4).makespan == 0

    def test_corpus_heuristic_vs_exact(self):
        """Full seeded corpus: both schedules valid, the exact one
        never worse, and the heuristic within the pinned ratio."""
        worst = 1.0
        for seed in range(CORPUS_SEEDS):
            models, budget = corpus_instance(seed)
            heuristic = best_fit_schedule(models, budget)
            assert schedule_violations(heuristic, models, budget) == []
            exact = exact_schedule(models, budget)
            assert schedule_violations(exact, models, budget) == []
            assert exact.makespan <= heuristic.makespan
            worst = max(worst, heuristic.makespan / exact.makespan)
        assert worst <= PINNED_RATIO

    def test_exact_schedule_deterministic(self):
        models, budget = corpus_instance(7)
        assert exact_schedule(models, budget).fingerprint() == \
            exact_schedule(models, budget).fingerprint()

    def test_exact_returns_heuristic_placements_when_optimal(self):
        model = DieTestModel("solo", (5,), 2, 3)
        heuristic = best_fit_schedule([model], 3)
        exact = exact_schedule([model], 3)
        assert exact.fingerprint() == heuristic.fingerprint()


# ---------------------------------------------------------------------------
# Verification wiring (check registry + mutants)
# ---------------------------------------------------------------------------
class TestVerifyWiring:
    def test_check_registered_and_clean(self):
        from repro.verify.checks import CHECKS, run_checks
        from repro.verify.instances import InstanceSpec

        assert "schedule" in CHECKS
        assert run_checks(InstanceSpec(seed=11), ["schedule"]) == []

    def test_fuzz_prefix_maps_to_schedule(self):
        from repro.verify.fuzz import _checks_of

        assert _checks_of(["schedule[pack]: overlap: ..."]) == ["schedule"]

    def test_schedule_mutants_all_killed(self):
        from repro.verify.mutants import MUTANTS, self_check

        names = [n for n in MUTANTS if n.startswith("schedule-")]
        assert len(names) == 3
        results = self_check(root_seed=0, budget=25,
                             checks=["schedule"], mutant_names=names)
        assert all(r.killed for r in results), \
            [(r.name, r.killed) for r in results]


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------
class TestDriver:
    def test_smoke_table_and_acceptance(self):
        result = run_schedule(SMOKE, fixed_patterns=24,
                              circuits=("b11",), families=("grid",))
        assert not result.failures
        rendered = result.render()
        assert "ours <= Agrawal" in rendered
        from repro.experiments.common import dies_for_scale

        leq, _strict, total = result.die_wins()
        assert total == len(dies_for_scale(SMOKE, ("b11",)))
        assert leq == total  # ours never slower on any die
        # stack rows exist for both the benchmark and the family stack
        assert "b11" in rendered and "grid" in rendered

    def test_driver_deterministic_across_jobs(self):
        serial = run_schedule(SMOKE, fixed_patterns=24,
                              circuits=("b11",), families=())
        parallel = run_schedule(SMOKE, fixed_patterns=24,
                                circuits=("b11",), families=(), jobs=2)
        assert result_fingerprint(serial) == result_fingerprint(parallel)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_schedule(SMOKE, budget=0)
        with pytest.raises(ConfigError):
            run_schedule(SMOKE, budget=4, ref_width=8)
