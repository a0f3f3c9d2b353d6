"""Tests for the compiled circuit and packed fault propagation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.sim import BlockDetector, CompiledCircuit
from repro.dft.testview import build_prebond_test_view
from repro.netlist.builder import NetlistBuilder
from repro.util.errors import AtpgError


def make_view():
    """c = AND(a, b); d = XOR(c, a); observed at po."""
    builder = NetlistBuilder("sim")
    a = builder.add_input("a")
    b = builder.add_input("b")
    c = builder.add_gate("AND2_X1", [a, b], name="g_and")
    d = builder.add_gate("XOR2_X1", [c, a], name="g_xor")
    builder.add_output("po", d)
    netlist = builder.finish()
    return build_prebond_test_view(netlist), netlist


class TestGoodSimulation:
    def test_truth_table(self):
        view, _ = make_view()
        circuit = CompiledCircuit(view)
        # columns [a, b]; bit k of a word = value in pattern k (LSB
        # first): a = 1,0,1,0 and b = 1,1,0,0 across patterns 0..3
        values = circuit.simulate([0b0101, 0b0011], 0b1111)
        d_id = circuit.net_ids[view.observe_nets[0][1]]
        # d = (a&b)^a per pattern: 0,0,1,0 -> word 0b0100
        assert values[d_id] == 0b0100

    def test_wrong_input_count_raises(self):
        view, _ = make_view()
        circuit = CompiledCircuit(view)
        with pytest.raises(AtpgError):
            circuit.simulate([1], 0b1)

    def test_constants_applied(self):
        view, _ = make_view()
        view.constant_nets[view.control_nets[0]] = 1  # tie a = 1
        view.control_nets = view.control_nets[1:]
        circuit = CompiledCircuit(view)
        values = circuit.simulate([0b01], 0b11)
        d_id = circuit.observe_ids[0]
        # a tied 1: d = b^1; b = 1,0 across patterns -> d = 0,1 -> 0b10
        assert values[d_id] == 0b10


class TestFaultPropagation:
    def test_stem_detection(self):
        view, netlist = make_view()
        circuit = CompiledCircuit(view)
        good = circuit.simulate([0b0101, 0b0011], 0b1111)
        c_id = circuit.net_ids[netlist.instance("g_and").output_net()]
        # c stuck-at-1: faulty d = 1^a; differs exactly where a&b == 0,
        # i.e. patterns 1,2,3 -> word 0b1110
        det = BlockDetector(circuit, good, 0b1111).stem(c_id, 1)
        assert det == 0b1110

    def test_unactivated_stem_not_detected(self):
        view, netlist = make_view()
        circuit = CompiledCircuit(view)
        # all-ones inputs: c = 1 everywhere, so c s-a-1 never activates
        good = circuit.simulate([0b1111, 0b1111], 0b1111)
        c_id = circuit.net_ids[netlist.instance("g_and").output_net()]
        assert BlockDetector(circuit, good, 0b1111).stem(c_id, 1) == 0

    def test_branch_fault_narrower_than_stem(self):
        view, netlist = make_view()
        circuit = CompiledCircuit(view)
        good = circuit.simulate([0b0101, 0b0011], 0b1111)
        a_id = circuit.net_ids["a"]
        detector = BlockDetector(circuit, good, 0b1111)
        stem = detector.stem(a_id, 0)
        gate_index = circuit.gate_index_by_name["g_xor"]
        position = list(circuit.gates[gate_index].ins).index(a_id)
        branch = detector.branch(gate_index, position, 0)
        # a s-a-0 stem: faulty d = 0, good d = 0b0100 -> det 0b0100;
        # the XOR-pin branch leaves the AND path intact: faulty d = a&b,
        # diff = a -> det 0b0101. Distinct effects, both nonzero.
        assert stem == 0b0100
        assert branch == 0b0101

    def test_observation_diff(self):
        view, _ = make_view()
        circuit = CompiledCircuit(view)
        good = circuit.simulate([0b0101, 0b0011], 0b1111)
        d_id = circuit.observe_ids[0]
        det = circuit.observation_diff(good, d_id, 1, 0b1111)
        assert det == (good[d_id] ^ 0b1111)

    def test_propagate_values_returns_changed_map(self):
        view, netlist = make_view()
        circuit = CompiledCircuit(view)
        good = circuit.simulate([0b0101, 0b0011], 0b1111)
        a_id = circuit.net_ids["a"]
        changed = circuit.propagate_values(good, {a_id: 0}, 0b1111)
        assert a_id in changed
        diffs = circuit.observation_diffs(good, changed)
        assert all(word for word in diffs.values())

    @settings(max_examples=20, deadline=None)
    @given(a=st.integers(min_value=0, max_value=255),
           b=st.integers(min_value=0, max_value=255))
    def test_fault_free_propagation_is_empty(self, a, b):
        view, netlist = make_view()
        circuit = CompiledCircuit(view)
        good = circuit.simulate([a, b], 0xFF)
        c_id = circuit.net_ids[netlist.instance("g_and").output_net()]
        # forcing the good value is a no-op
        changed = circuit.propagate_values(good, {c_id: good[c_id]}, 0xFF)
        observed_diffs = circuit.observation_diffs(good, changed)
        assert not observed_diffs


class TestOnGeneratedDie:
    def test_detection_consistency_with_single_pattern(self, small_test_view):
        """A fault detected in a packed block is detected by replaying
        the single detecting pattern."""
        from repro.atpg.engine import _FaultDispatcher, _patterns_to_words
        from repro.atpg.faults import build_fault_list
        from repro.util.rng import DeterministicRng

        circuit = CompiledCircuit(small_test_view)
        faults = build_fault_list(small_test_view)
        dispatcher = _FaultDispatcher(circuit, faults.faults)
        rng = DeterministicRng(5)
        width = 64
        mask = (1 << width) - 1
        words = [rng.getrandbits(width) for _ in range(circuit.input_count)]
        good = circuit.simulate(words, mask)
        checked = 0
        for index in range(len(faults.faults)):
            det = dispatcher.detect_word(circuit, good, index, mask)
            if not det:
                continue
            k = (det & -det).bit_length() - 1
            pattern = sum(((words[j] >> k) & 1) << j
                          for j in range(circuit.input_count))
            single = _patterns_to_words([pattern], circuit.input_count)
            good1 = circuit.simulate(single, 1)
            assert dispatcher.detect_word(circuit, good1, index, 1) == 1
            checked += 1
            if checked >= 25:
                break
        assert checked == 25
