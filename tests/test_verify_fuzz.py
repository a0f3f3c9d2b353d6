"""The fuzz driver, shrinker, mutation-kill harness, and fuzz CLI."""

import importlib
import json

import pytest

from repro.cli import main
from repro.verify import (
    InstanceSpec,
    run_checks,
    run_fuzz,
    self_check,
    spec_for_iteration,
)
from repro.verify.fuzz import _checks_of


# ---------------------------------------------------------------------------
# Spec stream and serialization
# ---------------------------------------------------------------------------
def test_spec_stream_is_position_independent():
    """Iteration i depends only on (root seed, i): budgets and
    parallelism can never change which specs get visited."""
    first = [spec_for_iteration(5, i) for i in range(6)]
    again = [spec_for_iteration(5, i) for i in range(6)]
    assert first == again
    assert spec_for_iteration(5, 3) != spec_for_iteration(6, 3)


def test_spec_json_round_trip():
    spec = spec_for_iteration(0, 2)
    assert InstanceSpec.from_json(spec.to_json()) == spec


def test_spec_json_rejects_wrong_schema():
    from repro.util.errors import ReproError

    payload = json.loads(spec_for_iteration(0, 0).to_json())
    payload["schema"] = 999
    with pytest.raises(ReproError):
        InstanceSpec.from_json(json.dumps(payload))


def test_spec_json_rejects_unknown_field():
    from repro.util.errors import ReproError

    payload = json.loads(spec_for_iteration(0, 0).to_json())
    payload["frobnication"] = True
    with pytest.raises(ReproError):
        InstanceSpec.from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# Fuzz driver
# ---------------------------------------------------------------------------
def test_fuzz_small_budget_clean():
    report = run_fuzz(root_seed=0, budget=6)
    assert report.iterations == 6
    assert report.clean
    assert "0 failure(s)" in report.render()


def test_fuzz_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_fuzz(root_seed=0, budget=1, checks=["frobnicate"])


def test_fuzz_seconds_budget_terminates():
    report = run_fuzz(root_seed=0, seconds=0.0)
    assert report.iterations == 0
    assert report.clean


def test_checks_of_maps_divergence_prefixes():
    assert _checks_of(["sim: tape != reference"]) == ["sim"]
    assert _checks_of(["sta[reuse after moving x]: bad"]) == ["sta-reuse"]
    assert _checks_of(["sta[test]: bad"]) == ["sta"]
    assert _checks_of(["fault OBS_BRANCH sa0"]) == ["faults"]
    assert _checks_of(["meta[rotate90][TSV_INBOUND]: x"]) \
        == ["meta-isometry"]
    assert _checks_of(["build: TimingError: boom"]) == ["sim"]
    assert _checks_of(["???"]) == []  # unmatched -> full registry


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------
def test_shrink_converges_on_persistent_failure(monkeypatch):
    """Against a check that always fails, the greedy shrinker walks the
    spec down to the structural floor instead of looping forever."""
    shrink_module = importlib.import_module("repro.verify.shrink")

    monkeypatch.setattr(shrink_module, "run_checks",
                        lambda spec, names=None: ["always: fails"])
    big = InstanceSpec(seed=1, gates=40, ffs=6, tsv_in=6, tsv_out=6,
                       coincident=True, d_th_boundary=True,
                       d_th_fraction=0.8, method="agrawal")
    small = shrink_module.shrink(big, ["sim"])
    assert small.gates < big.gates
    assert small.tsv_in < big.tsv_in
    assert not small.coincident
    assert small.method == "ours"


def test_shrink_family_before_numeric_fields(monkeypatch):
    """The topology axis shrinks first: the very first candidate of a
    non-chain spec is the same spec on the chain family, and a
    persistent failure converges onto chain before the numeric knobs
    reach their floors."""
    shrink_module = importlib.import_module("repro.verify.shrink")
    from repro.verify.shrink import _candidates

    big = InstanceSpec(seed=1, family="htree", gates=40, ffs=6,
                       tsv_in=6, tsv_out=6, fanout_cap=4)
    first = _candidates(big)[0]
    assert first.family == "chain"
    assert (first.gates, first.ffs, first.tsv_in, first.tsv_out) \
        == (big.gates, big.ffs, big.tsv_in, big.tsv_out)

    calls = []

    def always_fails(spec, names=None):
        calls.append(spec)
        return ["always: fails"]

    monkeypatch.setattr(shrink_module, "run_checks", always_fails)
    small = shrink_module.shrink(big, ["sim"])
    assert small.family == "chain"
    assert small.fanout_cap is None
    assert small.gates < big.gates
    # The family cut happened on the first candidate build, not after
    # the numeric ladder.
    assert calls[0].family == "chain"


def test_shrink_keeps_chain_family_stable(monkeypatch):
    """A chain spec emits no family candidate (nothing to shrink to)."""
    from repro.verify.shrink import _candidates

    spec = InstanceSpec(seed=1, family="chain", gates=40)
    assert all(c.family == "chain" for c in _candidates(spec))


def test_shrink_returns_original_when_failure_vanishes(monkeypatch):
    shrink_module = importlib.import_module("repro.verify.shrink")

    monkeypatch.setattr(shrink_module, "run_checks",
                        lambda spec, names=None: [])
    spec = InstanceSpec(seed=1, gates=20, ffs=2)
    assert shrink_module.shrink(spec, ["sim"]) == spec


# ---------------------------------------------------------------------------
# Mutation kill
# ---------------------------------------------------------------------------
def test_self_check_kills_cheap_mutants():
    """The cheapest mutants die within a handful of iterations — the
    harness demonstrably can fail."""
    results = self_check(root_seed=0, budget=8,
                         checks=["sim", "sta-reuse", "faults"],
                         mutant_names=["sim-opcode-swap",
                                       "sta-stale-cache",
                                       "sta-stale-arcs",
                                       "ffr-unsensitized-path"])
    assert all(r.killed for r in results), results
    assert all(r.iterations <= 8 for r in results)
    assert all(r.evidence for r in results)


def test_self_check_kills_share_first_arrival():
    """An outbound TSV-TSV row that reads only its own TSV's arrival
    disagrees with the per-pair oracle: the ``graph`` check kills it."""
    results = self_check(root_seed=0, checks=["graph"],
                         mutant_names=["share-first-arrival"])
    assert [r.killed for r in results] == [True], results
    assert results[0].evidence.startswith("graph[TSV_OUTBOUND]")


def test_self_check_graph_alone_kills_cone_and_universe_mutants():
    """The ``graph`` check alone kills a phantom cone bit (bit ids
    follow instance order, so it is gate id 0) and a universe count
    that leaves out observation-branch faults. The kernel-vs-oracle
    comparison cannot see the count, since both sides read it; the
    check's universe comparison does."""
    results = self_check(root_seed=0, checks=["graph"],
                         mutant_names=["cone-bitset-alias",
                                       "universe-count-skips-obs-branches"])
    assert [r.killed for r in results] == [True, True], results
    assert results[0].evidence.startswith("graph[TSV_")
    assert results[1].evidence.startswith("graph[universe]")


def test_self_check_mutants_do_not_leak():
    """After a mutant's context exits, the baseline stream is clean
    again — the monkeypatches restore the real kernels."""
    self_check(root_seed=0, budget=2, checks=["sim"],
               mutant_names=["sim-opcode-swap"])
    assert run_checks(spec_for_iteration(0, 0), ["sim"]) == []


def test_self_check_unknown_mutant_rejected():
    with pytest.raises(ValueError):
        self_check(mutant_names=["frobnicate"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestFuzzCli:
    def test_fuzz_clean_exits_zero(self, capsys):
        assert main(["fuzz", "--budget", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "4 iterations" in out
        assert "0 failure(s)" in out

    def test_fuzz_divergence_exits_one(self, capsys, monkeypatch,
                                       tmp_path):
        """A mutant injected around the CLI call: exit 1, shrunk spec
        promoted to --repro-dir."""
        from repro.verify.mutants import MUTANTS

        _description, factory = MUTANTS["sim-opcode-swap"]
        with factory():
            code = main(["fuzz", "--budget", "2", "--seed", "0",
                         "--checks", "sim",
                         "--repro-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        repros = list(tmp_path.glob("*.json"))
        assert repros, "no repro promoted"
        assert "repro:" in out
        spec = InstanceSpec.load(repros[0])
        # the promoted spec still reproduces under the mutant
        with factory():
            assert run_checks(spec, ["sim"])

    def test_fuzz_self_check_subset(self, capsys):
        code = main(["fuzz", "--self-check", "--budget", "8",
                     "--seed", "0", "--checks", "sim,graph,sta-reuse",
                     "--mutants", "sim-opcode-swap,cone-bitset-alias,"
                                  "sta-stale-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "self-check passed: 3/3 mutants killed" in out

    def test_fuzz_unknown_check_name_exits_two(self, capsys):
        """Bad flag values follow the repo contract: exit 2 with a
        clean ``repro: error:`` line, never a traceback."""
        assert main(["fuzz", "--budget", "1",
                     "--checks", "frobnicate"]) == 2
        assert "repro: error: unknown checks" in capsys.readouterr().err

    def test_fuzz_unknown_mutant_name_exits_two(self, capsys):
        assert main(["fuzz", "--self-check", "--budget", "1",
                     "--mutants", "frobnicate"]) == 2
        assert "repro: error: unknown mutants" in capsys.readouterr().err

    def test_fuzz_self_check_needs_three_mutants(self, capsys):
        code = main(["fuzz", "--self-check", "--budget", "4",
                     "--seed", "0", "--checks", "sim",
                     "--mutants", "sim-opcode-swap"])
        assert code == 1
        err = capsys.readouterr().err
        assert "need >= 3" in err
