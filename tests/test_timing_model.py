"""Tests for the reuse timing models (accurate vs load-only)."""

import dataclasses

import pytest

from repro.core.config import Scenario, WcmConfig
from repro.core.graph import build_wcm_graph
from repro.core.timing_model import FfReuseLedger, ReuseTimingModel
from repro.netlist.core import PortKind
from repro.netlist.library import CellType
from repro.verify.oracles import oracle_pair_feasible

_TSV_KINDS = (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND)


@pytest.fixture(scope="module")
def models(medium_scenarios, medium_problem):
    _area, tight, problem_tight = medium_scenarios
    ours = ReuseTimingModel(problem_tight, WcmConfig.ours(tight))
    agrawal = ReuseTimingModel(problem_tight, WcmConfig.agrawal(tight))
    return ours, agrawal, problem_tight


class TestLoads:
    def test_accurate_load_includes_wire(self, models):
        ours, agrawal, problem = models
        for tsv in problem.inbound_tsvs[:10]:
            assert ours.model_load_ff(tsv) >= agrawal.model_load_ff(tsv)

    def test_pin_load_matches_netlist(self, models):
        ours, _agrawal, problem = models
        tsv = problem.inbound_tsvs[0]
        net = problem.netlist.port(tsv).net
        assert ours.pin_load_ff(tsv) == pytest.approx(
            problem.netlist.sink_cap_ff(net))


class TestNodeFilters:
    def test_area_scenario_slack_filter_open(self, medium_problem):
        config = WcmConfig.ours(Scenario.area_optimized())
        model = ReuseTimingModel(medium_problem, config)
        for tsv in medium_problem.outbound_tsvs[:10]:
            assert model.outbound_node_eligible(tsv)

    def test_cap_filter_excludes_heavy_tsvs(self, models):
        ours, _agrawal, problem = models
        loads = {t: ours.model_load_ff(t) for t in problem.inbound_tsvs}
        threshold = ours.config.scenario.cap_th_ff
        for tsv, load in loads.items():
            assert ours.inbound_node_eligible(tsv) == (load < threshold)


def _reuse_row(model, ff, kind, tsvs):
    """The sweep's FF row: *ff* against every TSV of *tsvs*."""
    return model.reuse_row(
        ff, kind, [model.distance_um(ff, tsv) for tsv in tsvs],
        [model.initial_state(tsv, kind, False) for tsv in tsvs])


def _share_row(model, kind, tsvs, i):
    """The sweep's TSV row: ``tsvs[i]`` against the TSVs after it."""
    return model.share_row(
        kind, model.share_term(tsvs[i], kind),
        [model.distance_um(tsvs[i], other) for other in tsvs[i + 1:]],
        [model.share_term(other, kind) for other in tsvs[i + 1:]])


class TestPairFeasibility:
    def test_untimed_scenario_always_feasible(self, medium_problem):
        config = WcmConfig.ours(Scenario.area_optimized())
        model = ReuseTimingModel(medium_problem, config)
        ff = medium_problem.scan_ffs[0]
        for kind in _TSV_KINDS:
            assert all(_reuse_row(model, ff, kind,
                                  medium_problem.tsvs_of_kind(kind)))
        outbound = medium_problem.outbound_tsvs
        assert all(_share_row(model, PortKind.TSV_OUTBOUND, outbound, 0))

    def test_ff_ff_pairs_never_feasible(self, models):
        """The sweep has no FF-FF row: no FF ever neighbours an FF, and
        two FF states never merge."""
        ours, _agrawal, problem = models
        for kind in _TSV_KINDS:
            graph = build_wcm_graph(problem, kind, problem.scan_ffs,
                                    ours.config, ours)
            for name, neighbours in graph.adjacency.items():
                if graph.is_ff[name]:
                    assert not any(graph.is_ff[n] for n in neighbours)
        a, b = (ours.initial_state(ff, PortKind.TSV_INBOUND, is_ff=True)
                for ff in problem.scan_ffs[:2])
        assert ours.merged_state(a, b) is None

    def test_accurate_model_stricter_than_load_only(self, models):
        """Anything ours admits under tight timing, [4]'s wire-blind
        model admits too (it ignores a positive cost term)."""
        ours, agrawal, problem = models
        tsvs = problem.inbound_tsvs[:8]
        for ff in problem.scan_ffs[:8]:
            for fits_ours, fits_agrawal in zip(
                    _reuse_row(ours, ff, PortKind.TSV_INBOUND, tsvs),
                    _reuse_row(agrawal, ff, PortKind.TSV_INBOUND, tsvs)):
                assert fits_agrawal or not fits_ours

    @pytest.mark.parametrize("method", ["ours", "agrawal"])
    def test_hoisted_checks_match_per_pair_oracle(self, medium_scenarios,
                                                  method):
        """Every FF-TSV and TSV-TSV pair of both kinds decides in its
        row exactly as the per-pair formulation does, under thresholds
        tight enough that each of the four checks rejects some pairs
        and admits others."""
        _area, tight, problem = medium_scenarios
        scenario = Scenario.performance_optimized(
            tight.clock.period_ps, cap_th_ff=0.3 * tight.cap_th_ff,
            s_th_ps=0.3 * tight.clock.period_ps)
        config = getattr(WcmConfig, method)(scenario)
        model = ReuseTimingModel(problem, config)
        oracle_model = ReuseTimingModel(problem, config)
        outcomes = {}
        for kind in _TSV_KINDS:
            tsvs = problem.tsvs_of_kind(kind)
            rows = [(ff, tsvs, True, _reuse_row(model, ff, kind, tsvs))
                    for ff in problem.scan_ffs]
            rows += [(a, tsvs[i + 1:], False,
                      _share_row(model, kind, tsvs, i))
                     for i, a in enumerate(tsvs)]
            for name_a, columns, a_is_ff, fits in rows:
                assert len(fits) == len(columns)
                for name_b, got in zip(columns, fits):
                    assert got == oracle_pair_feasible(
                        oracle_model, name_a, name_b, kind, a_is_ff), \
                        (kind, name_a, name_b)
                    outcomes.setdefault((kind, a_is_ff), set()).add(got)
        assert len(outcomes) == 4
        for check, seen in outcomes.items():
            assert seen == {True, False}, check

    def test_distance_matters_only_with_wire(self, models):
        ours, agrawal, problem = models
        ff = problem.scan_ffs[0]
        near = min(problem.inbound_tsvs,
                   key=lambda t: ours.distance_um(ff, t))
        far = max(problem.inbound_tsvs,
                  key=lambda t: ours.distance_um(ff, t))
        assert ours.distance_um(ff, near) < ours.distance_um(ff, far)


class TestPerNodeCost:
    @pytest.mark.parametrize("kind", _TSV_KINDS, ids=lambda k: k.name)
    def test_graph_reads_per_node_terms_once(self, models, monkeypatch,
                                             kind):
        """A sharing graph reads library pin caps a bounded number of
        times per node, not per pair, and builds no reuse ledger."""
        _ours, agrawal, problem = models
        model = ReuseTimingModel(problem, agrawal.config)
        calls = {"input_cap": 0, "ledger": 0}
        input_cap = CellType.input_cap
        ledger_init = FfReuseLedger.__init__

        def counted_input_cap(self, pin_name):
            calls["input_cap"] += 1
            return input_cap(self, pin_name)

        def counted_ledger_init(self, timing_model):
            calls["ledger"] += 1
            ledger_init(self, timing_model)

        monkeypatch.setattr(CellType, "input_cap", counted_input_cap)
        monkeypatch.setattr(FfReuseLedger, "__init__", counted_ledger_init)
        graph = build_wcm_graph(problem, kind, problem.scan_ffs,
                                agrawal.config, model)
        monkeypatch.undo()
        pairs = (graph.stats.edges + graph.stats.rejected_timing
                 + graph.stats.rejected_overlap)
        assert pairs > 10 * len(graph.nodes)
        assert calls["ledger"] == 0
        assert calls["input_cap"] <= 3 * len(graph.nodes)


class TestCliqueStates:
    def test_initial_state_inbound(self, models):
        ours, _agrawal, problem = models
        tsv = problem.inbound_tsvs[0]
        state = ours.initial_state(tsv, PortKind.TSV_INBOUND, is_ff=False)
        assert state.members == (tsv,)
        assert state.cap_ff > 0
        assert not state.has_ff
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.cap_ff = 0.0  # shared between callers, so frozen

    def test_merge_rejects_two_ffs(self, models):
        ours, _agrawal, problem = models
        a = ours.initial_state(problem.scan_ffs[0], PortKind.TSV_INBOUND,
                               is_ff=True)
        b = ours.initial_state(problem.scan_ffs[1], PortKind.TSV_INBOUND,
                               is_ff=True)
        assert ours.merged_state(a, b) is None

    def test_merge_accumulates_cap(self, models):
        ours, _agrawal, problem = models
        t1, t2 = problem.inbound_tsvs[:2]
        a = ours.initial_state(t1, PortKind.TSV_INBOUND, is_ff=False)
        b = ours.initial_state(t2, PortKind.TSV_INBOUND, is_ff=False)
        merged = ours.merged_state(a, b)
        if merged is not None:
            assert merged.cap_ff >= a.cap_ff + b.cap_ff
            assert set(merged.members) == {t1, t2}

    def test_merge_respects_group_size_rule(self, models):
        ours, _agrawal, problem = models
        tsvs = problem.inbound_tsvs
        state = ours.initial_state(tsvs[0], PortKind.TSV_INBOUND, False)
        grown = [tsvs[0]]
        for tsv in tsvs[1:]:
            nxt = ours.merged_state(
                state, ours.initial_state(tsv, PortKind.TSV_INBOUND, False))
            if nxt is None:
                continue
            state = nxt
            grown.append(tsv)
        assert len(state.members) <= ours.config.max_group_size


class TestLedger:
    def test_outbound_single_use(self, medium_problem):
        config = WcmConfig.ours(Scenario.area_optimized())
        model = ReuseTimingModel(medium_problem, config)
        ledger = FfReuseLedger(model)
        ff = medium_problem.scan_ffs[0]
        tsv = medium_problem.outbound_tsvs[0]
        state = model.initial_state(tsv, PortKind.TSV_OUTBOUND, False)
        assert ledger.outbound_adoption_feasible(ff, state)
        ledger.commit(ff, state)
        assert not ledger.outbound_adoption_feasible(ff, state)

    def test_inbound_budget_accumulates(self, models):
        ours, _agrawal, problem = models
        ledger = FfReuseLedger(ours)
        ff = problem.scan_ffs[0]
        tsv = problem.inbound_tsvs[0]
        state = ours.initial_state(tsv, PortKind.TSV_INBOUND, False)
        adoptions = 0
        while ledger.inbound_adoption_feasible(ff, state) and adoptions < 100:
            ledger.commit(ff, state)
            adoptions += 1
        # the Q-slack budget must bound repeated adoptions eventually
        assert adoptions < 100
