"""Incremental :class:`WcmSession` vs cold ``run_wcm_flow``.

Every solve of a session must be byte-identical to a cold solve of the
same edited netlist — these tests pin that contract across the whole
edit vocabulary, plus the fallback triggers and reuse telemetry that
the incremental path promises.
"""

import pytest

from repro.core.flow import run_wcm_flow
from repro.core.graph import effective_d_th
from repro.core.problem import build_problem
from repro.core.session import (AddTsv, MoveFf, MoveTsv, RemoveTsv,
                                SetThreshold, WcmSession,
                                result_fingerprint)
from repro.netlist.core import PortKind
from repro.runtime import trace
from repro.util.errors import ConfigError
from repro.verify.instances import InstanceSpec


SPEC = InstanceSpec(seed=77, gates=36, ffs=5, tsv_in=4, tsv_out=3)

pytestmark = pytest.mark.usefixtures("kernel")


def fresh_session(**kwargs):
    problem = SPEC.build_problem()
    config = SPEC.build_config(problem)
    return WcmSession(problem.netlist.clone(), config,
                      already_prepared=True, **kwargs)


def cold_fp(session):
    """Fingerprint of a cold solve over the session's current die."""
    problem = build_problem(session.netlist.clone(),
                            clock=session.config.scenario.clock,
                            already_prepared=True)
    return result_fingerprint(run_wcm_flow(problem, session.config))


def die_span(session):
    xs = [inst.x for inst in session.netlist.instances.values()]
    return (max(xs) - min(xs)) or 100.0


class TestByteIdentity:
    def test_initial_solve_matches_cold(self):
        session = fresh_session()
        assert result_fingerprint(session.solve()) == cold_fp(session)

    def test_edit_stream_matches_cold(self):
        """Every edit kind, interleaved, solved after each step."""
        session = fresh_session()
        session.solve()
        span = die_span(session)
        ff = session.netlist.scan_flip_flops()[0]
        tsv = next(p for p in session.netlist.ports.values() if p.is_tsv)
        steps = [
            MoveFf(ff.name, ff.x + span * 0.01, ff.y + 1.0),
            MoveTsv(tsv.name, tsv.x + span * 0.3, tsv.y),
            SetThreshold(d_th_um=span * 0.4),
            AddTsv("session_test_tsv", PortKind.TSV_INBOUND,
                   x=span * 0.5, y=span * 0.5),
            RemoveTsv("session_test_tsv"),
            SetThreshold(cov_th=0.5),
        ]
        for edit in steps:
            session.apply(edit)
            got = result_fingerprint(session.solve())
            assert got == cold_fp(session), f"diverged after {edit!r}"

    def test_inverse_edit_restores_result(self):
        session = fresh_session()
        base = result_fingerprint(session.solve())
        ff = session.netlist.scan_flip_flops()[0]
        x0, y0 = ff.x, ff.y
        session.apply(MoveFf(ff.name, x0 + 12.0, y0 + 7.0))
        session.solve()
        session.apply(MoveFf(ff.name, x0, y0))
        assert result_fingerprint(session.solve()) == base

    def test_batched_edits_single_solve(self):
        """Several queued edits collapse into one consistent solve."""
        session = fresh_session()
        session.solve()
        span = die_span(session)
        for i, ff in enumerate(session.netlist.scan_flip_flops()[:2]):
            session.apply(MoveFf(ff.name, ff.x + 2.0 * (i + 1), ff.y))
        session.apply(SetThreshold(d_th_um=span * 0.6))
        assert result_fingerprint(session.solve()) == cold_fp(session)


class TestFallback:
    def test_structural_edit_falls_back(self):
        session = fresh_session()
        session.solve()
        span = die_span(session)
        session.apply(AddTsv("fb_tsv", PortKind.TSV_INBOUND,
                             x=span * 0.25, y=span * 0.25))
        session.solve()
        assert session.last_fallback == "structural"
        session.apply(RemoveTsv("fb_tsv"))
        session.solve()
        assert session.last_fallback == "structural"

    def test_dirty_frac_falls_back(self):
        session = fresh_session(fallback_ratio=0.0)
        session.solve()
        ff = session.netlist.scan_flip_flops()[0]
        session.apply(MoveFf(ff.name, ff.x + 1.0, ff.y))
        session.solve()
        assert session.last_fallback == "dirty_frac"

    def test_nudge_stays_incremental(self):
        session = fresh_session()
        session.solve()
        ff = session.netlist.scan_flip_flops()[0]
        session.apply(MoveFf(ff.name, ff.x + 0.5, ff.y + 0.5))
        with trace.collect() as collected:
            session.solve()
        # "restitch" is still the incremental path (chain order changed
        # in place); only structural/dirty_frac rebuild the problem.
        assert session.last_fallback in (None, "restitch")
        assert 0.0 < session.last_dirty_frac <= session.fallback_ratio
        assert collected.metrics.counters.get("session.fallback", 0) == 0

    def test_fallback_still_matches_cold(self):
        session = fresh_session(fallback_ratio=0.0)
        session.solve()
        ff = session.netlist.scan_flip_flops()[0]
        session.apply(MoveFf(ff.name, ff.x + 3.0, ff.y))
        assert result_fingerprint(session.solve()) == cold_fp(session)


class TestTelemetry:
    def test_edit_counter(self):
        session = fresh_session()
        ff = session.netlist.scan_flip_flops()[0]
        with trace.collect() as collected:
            session.apply(MoveFf(ff.name, ff.x + 1.0, ff.y))
            session.apply(SetThreshold(cov_th=0.6))
        assert collected.metrics.counters.get("session.edits") == 2
        assert session.edit_count == 2

    def test_graph_replay_counter(self):
        """A pure-move edit replays the sharing graphs' pair logs
        instead of sweeping every pair again."""
        session = fresh_session()
        session.solve()
        ff = session.netlist.scan_flip_flops()[0]
        session.apply(MoveFf(ff.name, ff.x + 0.5, ff.y))
        with trace.collect() as collected:
            session.solve()
        if session.last_fallback in (None, "restitch"):
            assert collected.metrics.counters.get(
                "session.graph_replays", 0) >= 1

    def test_d_th_retune_replays_pair_logs(self):
        """Logged pair outcomes do not depend on ``d_th``, so a re-tune
        replays both directions' logs and still equals a cold solve."""
        session = fresh_session()
        before = session.solve()
        d_th = effective_d_th(session.problem, session.config)
        session.apply(SetThreshold(d_th_um=0.5 * d_th))
        with trace.collect() as collected:
            after = session.solve()
        assert collected.metrics.counters.get("session.graph_replays") == 2
        assert result_fingerprint(after) == cold_fp(session)
        # the re-tune moved pairs across the distance limit
        rejected = [[stats.rejected_distance
                     for stats in result.graph_stats.values()]
                    for result in (before, after)]
        assert rejected == [[0, 0], [7, 9]]


class TestEcoCheck:
    def test_pair_log_mutant_killed(self):
        """Replaying the pair logs without the dirty set keeps a moved
        node's stale distances and outcomes; the cold oracle of the
        ``eco`` check sees it."""
        from repro.verify.mutants import self_check

        results = self_check(root_seed=0, budget=10, checks=["eco"],
                             mutant_names=["pair-log-ignores-dirty"])
        assert all(r.killed for r in results), \
            [(r.name, r.killed) for r in results]
        assert results[0].evidence.startswith("eco[")


class TestEditValidation:
    def test_move_ff_rejects_non_ff(self):
        session = fresh_session()
        gate = next(i for i in session.netlist.instances.values()
                    if not i.is_scan)
        with pytest.raises(ConfigError):
            session.apply(MoveFf(gate.name, 0.0, 0.0))

    def test_move_tsv_rejects_non_tsv(self):
        session = fresh_session()
        port = next(p for p in session.netlist.ports.values()
                    if not p.is_tsv)
        with pytest.raises(ConfigError):
            session.apply(MoveTsv(port.name, 0.0, 0.0))
