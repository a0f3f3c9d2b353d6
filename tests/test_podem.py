"""Tests for the PODEM generator (5-valued search, SCOAP, X-path)."""

import itertools

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

    @pytest.mark.parametrize("op", sorted(podem._OP3_CODES))
    def test_op_code_evaluators_match(self, op):
        """The search's op-code evaluators agree with `_eval3` on every
        3-valued input, for every arity the library produces."""
        code = podem._OP3_CODES[op]
        arities = {"buf": (1,), "inv": (1,), "mux2": (3,), "aoi21": (3,),
                   "oai21": (3,)}.get(op, (2, 3))
        for arity in arities:
            for vals in itertools.product((0, 1, X), repeat=arity):
                want = _eval3(op, list(vals))
                assert podem._eval3_arr(code, range(arity),
                                        list(vals)) == want
                for pos, stuck in itertools.product(range(arity), (0, 1)):
                    pinned = list(vals)
                    pinned[pos] = stuck
                    assert podem._eval3_pinned(
                        code, range(arity), list(vals), pos,
                        stuck) == _eval3(op, pinned)

    def test_op_codes_cover_the_library(self):
        assert set(podem._OP3_CODES) == set(LOGIC_FUNCTIONS)


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
        monkeypatch.delitem(podem._OP3_CODES, "and")
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
        """A PODEM that calls activation detection is caught by the
        oracle replay of its cubes."""
        from repro.verify.mutants import self_check

        results = self_check(root_seed=0, budget=10, checks=["podem"],
                             mutant_names=["podem-activation-is-detection"])
        assert all(r.killed for r in results), \
            [(r.name, r.killed) for r in results]
