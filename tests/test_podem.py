"""Tests for the PODEM generator (two-machine tables, SCOAP, X-path)."""

import itertools
from pathlib import Path

import pytest

from repro.atpg import podem
from repro.atpg.engine import _FaultDispatcher, _patterns_to_words
from repro.atpg.faults import Fault, FaultKind, Polarity, build_fault_list
from repro.atpg.podem import PodemGenerator, X, _eval3
from repro.atpg.sim import CompiledCircuit
from repro.dft.testview import build_prebond_test_view
from repro.netlist.builder import NetlistBuilder
from repro.netlist.library import LOGIC_FUNCTIONS
from repro.util.errors import AtpgError


class TestEval3:
    def test_and_with_controlling_zero(self):
        assert _eval3("and", [0, X]) == 0
        assert _eval3("and", [1, X]) == X
        assert _eval3("and", [1, 1]) == 1

    def test_or_with_controlling_one(self):
        assert _eval3("or", [1, X]) == 1
        assert _eval3("or", [0, X]) == X

    def test_xor_unknown_dominates(self):
        assert _eval3("xor", [1, X]) == X
        assert _eval3("xor", [1, 0]) == 1

    def test_mux_select_known(self):
        assert _eval3("mux2", [1, X, 0]) == 1
        assert _eval3("mux2", [X, 0, 1]) == 0
        assert _eval3("mux2", [1, 1, X]) == 1  # both sides agree
        assert _eval3("mux2", [1, 0, X]) == X

    def test_aoi_oai(self):
        assert _eval3("aoi21", [1, 1, 0]) == 0
        assert _eval3("aoi21", [0, X, 0]) == 1
        assert _eval3("oai21", [0, 0, X]) == 1
        assert _eval3("oai21", [X, 0, 1]) == X

    @pytest.mark.parametrize("op", sorted(LOGIC_FUNCTIONS))
    def test_op_code_evaluators_match(self, op):
        """Every entry of the search's two-machine table equals `_eval3`
        on the good inputs (high trit) and on the faulty inputs (low
        trit), for every arity the library produces."""
        arities = {"buf": (1,), "inv": (1,), "mux2": (3,), "aoi21": (3,),
                   "oai21": (3,)}.get(op, (2, 3))
        for arity in arities:
            table = podem._table(op, arity)
            assert len(table) == 9 ** arity
            for index, codes in enumerate(
                    itertools.product(range(9), repeat=arity)):
                good = [c // 3 for c in codes]
                faulty = [c % 3 for c in codes]
                assert table[index] == 3 * _eval3(op, good) \
                    + _eval3(op, faulty), (op, codes)

    def test_op_codes_cover_the_library(self):
        assert set(podem._NONCONTROLLING) == set(LOGIC_FUNCTIONS)

    def test_tables_are_built_on_first_use(self):
        """No table exists until a generator needs one, and a second
        generator reuses the first one's tables."""
        import subprocess
        import sys

        probe = ("import repro.atpg.podem as p; "
                 "assert not p._TABLES, sorted(p._TABLES)")
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={"PYTHONPATH": str(Path(podem.__file__)
                                              .parents[2])})
        view, _netlist = redundant_view()
        PodemGenerator(CompiledCircuit(view))
        before = dict(podem._TABLES)
        PodemGenerator(CompiledCircuit(view))
        assert all(podem._TABLES[key] is table
                   for key, table in before.items())


def redundant_view():
    """out = OR(x, AND(x, y)) == x — the AND's faults are untestable."""
    builder = NetlistBuilder("red")
    x = builder.add_input("x")
    y = builder.add_input("y")
    inner = builder.add_gate("AND2_X1", [x, y], name="g_and")
    out = builder.add_gate("OR2_X1", [x, inner], name="g_or")
    builder.add_output("po", out)
    netlist = builder.finish()
    return build_prebond_test_view(netlist), netlist


class TestPodemVerdicts:
    def test_gate_without_3valued_model_fails_at_construction(
            self, monkeypatch):
        view, _netlist = redundant_view()
        circuit = CompiledCircuit(view)
        monkeypatch.delitem(podem._NONCONTROLLING, "and")
        with pytest.raises(AtpgError, match="no 3-valued model for and"):
            PodemGenerator(circuit)

    def test_detects_testable_fault(self):
        view, netlist = redundant_view()
        circuit = CompiledCircuit(view)
        generator = PodemGenerator(circuit)
        fault = Fault(kind=FaultKind.STEM, polarity=Polarity.SA0, net="x")
        outcome = generator.run(fault)
        assert outcome.status == "detected"
        # verify the cube with the real simulator
        dispatcher = _FaultDispatcher(circuit, [fault])
        pattern = 0
        for j, nid in enumerate(circuit.input_columns):
            if outcome.assignment.get(nid, 0):
                pattern |= 1 << j
        words = _patterns_to_words([pattern], circuit.input_count)
        good = circuit.simulate(words, 1)
        assert dispatcher.detect_word(circuit, good, 0, 1)

    def test_proves_redundant_fault_untestable(self):
        view, netlist = redundant_view()
        circuit = CompiledCircuit(view)
        generator = PodemGenerator(circuit)
        # AND output s-a-0 is masked: out = x | (x&y) = x regardless
        inner_net = netlist.instance("g_and").output_net()
        fault = Fault(kind=FaultKind.STEM, polarity=Polarity.SA0,
                      net=inner_net)
        assert generator.run(fault).status == "untestable"

    def test_unobservable_fault_untestable(self):
        builder = NetlistBuilder("dead")
        a = builder.add_input("a")
        builder.add_gate("INV_X1", [a], name="g_dead")  # drives nothing
        b = builder.add_input("b")
        out = builder.add_gate("BUF_X1", [b])
        builder.add_output("po", out)
        view = build_prebond_test_view(builder.finish())
        circuit = CompiledCircuit(view)
        generator = PodemGenerator(circuit)
        dead_net = builder.netlist.instance("g_dead").output_net()
        fault = Fault(kind=FaultKind.STEM, polarity=Polarity.SA0,
                      net=dead_net)
        assert generator.run(fault).status == "untestable"

    def test_justify_only(self):
        view, netlist = redundant_view()
        circuit = CompiledCircuit(view)
        generator = PodemGenerator(circuit)
        inner = circuit.net_ids[netlist.instance("g_and").output_net()]
        outcome = generator.justify(inner, 1)
        assert outcome.status == "detected"
        # x=1 and y=1 forced
        assigned = {circuit.net_names[n]: v
                    for n, v in outcome.assignment.items()}
        assert assigned.get("x") == 1 and assigned.get("y") == 1


class TestPodemAgainstSimulator:
    def test_cubes_verified_on_generated_die(self, small_test_view):
        """Every PODEM 'detected' verdict must replay in the packed
        simulator (cross-engine consistency)."""
        circuit = CompiledCircuit(small_test_view)
        faults = build_fault_list(small_test_view)
        dispatcher = _FaultDispatcher(circuit, faults.faults)
        generator = PodemGenerator(circuit, backtrack_limit=48)
        verified = 0
        for index, fault in enumerate(faults.faults):
            if verified >= 40:
                break
            outcome = generator.run(fault)
            if outcome.status != "detected":
                continue
            pattern = 0
            for j, nid in enumerate(circuit.input_columns):
                if outcome.assignment.get(nid, 0):
                    pattern |= 1 << j
            words = _patterns_to_words([pattern], circuit.input_count)
            good = circuit.simulate(words, 1)
            assert dispatcher.detect_word(circuit, good, index, 1), \
                f"PODEM cube for {fault.describe()} does not detect"
            verified += 1
        assert verified == 40

    def test_scoap_controllabilities_positive(self, small_test_view):
        circuit = CompiledCircuit(small_test_view)
        generator = PodemGenerator(circuit)
        for nid in circuit.input_columns[:10]:
            assert generator._cc0[nid] == 1
            assert generator._cc1[nid] == 1
        for gate in circuit.gates[:20]:
            assert generator._cc0[gate.out] > 0
            assert generator._cc1[gate.out] > 0


class TestPodemOracleCheck:
    def test_check_registered_and_clean(self):
        from repro.verify.checks import CHECKS, run_checks
        from repro.verify.fuzz import _checks_of, spec_for_iteration

        assert "podem" in CHECKS
        assert run_checks(spec_for_iteration(0, 0), ["podem"]) == []
        assert _checks_of(["podem[x s-a-0]: ..."]) == ["podem"]

    def test_activation_mutant_killed(self):
        """A PODEM that calls activation detection, and one that never
        undoes a fault's injection, are caught by the oracle replay of
        their cubes."""
        from repro.verify.mutants import self_check

        results = self_check(root_seed=0, budget=10, checks=["podem"],
                             mutant_names=["podem-activation-is-detection",
                                           "podem-dirty-base"])
        assert all(r.killed for r in results), \
            [(r.name, r.killed) for r in results]


class TestOutcomeDigest:
    """Every PODEM outcome on b11_d0's three stack views is pinned.

    ``tests/golden/podem_outcomes_b11_d0.json`` holds, per view
    (agrawal/area, ours/area, ours/tight), a SHA-256 over one line per
    outcome: ``run`` of every collapsed fault, then ``justify(net, 0)``
    and ``justify(net, 1)`` of every gate-driven net, each as status,
    sorted cube (by net name) and backtrack count. It was recorded with
    the two-array implication engine that preceded the table-driven
    one, so a change to any decision, implication or backtrack count
    shows up here even where the aggregate goldens would not move.
    """

    GOLDEN = Path(__file__).parent / "golden" / "podem_outcomes_b11_d0.json"

    @staticmethod
    def _line(circuit, label, outcome):
        cube = sorted((circuit.net_names[nid], value)
                      for nid, value in outcome.assignment.items())
        return f"{label} {outcome.status} {cube} {outcome.backtracks}"

    def test_outcomes_match_recorded_digest(self):
        import collections
        import hashlib
        import json

        from repro.experiments.common import (
            SCALES, method_config, prepare_die, run_method)

        prepared = prepare_die("b11", 0)
        area, tight = prepared.scenarios()
        got = {}
        for method, scenario in (("agrawal", area), ("ours", area),
                                 ("ours", tight)):
            flow = run_method(prepared, method_config(method, scenario,
                                                      SCALES["smoke"]))
            view = build_prebond_test_view(flow.wrapped_netlist)
            circuit = CompiledCircuit(view)
            generator = PodemGenerator(circuit)
            lines = []
            statuses = collections.Counter()
            for fault in build_fault_list(view).faults:
                outcome = generator.run(fault)
                statuses["run." + outcome.status] += 1
                lines.append(self._line(circuit, fault.describe(), outcome))
            for gate in circuit.gates:
                for value in (0, 1):
                    outcome = generator.justify(gate.out, value)
                    statuses["justify." + outcome.status] += 1
                    lines.append(self._line(
                        circuit, f"{circuit.net_names[gate.out]}={value}",
                        outcome))
            got[f"{method}/{scenario.name}"] = {
                "outcomes": len(lines),
                "statuses": dict(sorted(statuses.items())),
                "sha256": hashlib.sha256(
                    "\n".join(lines).encode()).hexdigest(),
            }
        assert got == json.loads(self.GOLDEN.read_text())
