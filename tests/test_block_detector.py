"""The block fault detector against full forced re-simulation.

`BlockDetector` scores a fault as activation AND the sensitization of
the path to its fanout-free-region stem AND the stem's flip
observability. These tests compare every fault's word with
`oracle_detect_word`, on random circuits and on the structures where
the region bookkeeping could go wrong: one net read on two pins of a
gate, an observed net read by a single gate, and gates reading X-tied
and constant nets.
"""

from hypothesis import given, settings, strategies as st

from repro.atpg.engine import _FaultDispatcher
from repro.atpg.faults import build_fault_list
from repro.atpg.sim import CompiledCircuit
from repro.dft.testview import build_prebond_test_view
from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import PortKind
from repro.util.rng import DeterministicRng
from repro.verify.oracles import (
    exhaustive_input_words,
    oracle_detect_word,
    oracle_simulate,
)

_CELLS = [("INV_X1", 1), ("BUF_X1", 1), ("NAND2_X1", 2), ("NOR2_X1", 2),
          ("AND2_X1", 2), ("OR2_X1", 2), ("XOR2_X1", 2), ("XNOR2_X1", 2),
          ("NAND3_X1", 3), ("NOR3_X1", 3), ("AOI21_X1", 3),
          ("OAI21_X1", 3), ("MUX2_X1", 3)]


def assert_detector_matches_oracle(netlist, width=None, seed=0):
    """Every collapsed fault's block word equals the oracle's, over
    every input pattern (or *width* random ones)."""
    view = build_prebond_test_view(netlist)
    circuit = CompiledCircuit(view)
    if width is None:
        words, mask = exhaustive_input_words(circuit.input_count)
    else:
        rng = DeterministicRng(seed)
        mask = (1 << width) - 1
        words = [rng.getrandbits(width) for _ in range(circuit.input_count)]
    faults = build_fault_list(view).faults
    assert faults
    good = circuit.simulate(words, mask)
    kernel = _FaultDispatcher(circuit, faults).detect_many(
        circuit, good, range(len(faults)), mask)
    oracle_good = oracle_simulate(view, words, mask)
    for fault, word in zip(faults, kernel):
        assert word == oracle_detect_word(view, fault, words, mask,
                                          good=oracle_good), \
            fault.describe()
    return circuit


def test_gate_reading_one_net_on_two_pins():
    """n1 feeds both pins of one AND: it is a stem, and its flip flips
    the AND (a region link through one pin would see AND(~n1, n1))."""
    builder = NetlistBuilder("twopin")
    a, b, c = (builder.add_input(name) for name in "abc")
    n1 = builder.add_gate("NAND2_X1", [a, b], name="g_nand")
    n2 = builder.add_gate("AND2_X1", [n1, n1], name="g_and")
    n3 = builder.add_gate("XOR2_X1", [n2, n2], name="g_xor")  # always 0
    n4 = builder.add_gate("OR2_X1", [n2, c], name="g_or")
    builder.add_output("po", n4)
    builder.add_output("pz", builder.add_gate("OR2_X1", [n3, c]))
    circuit = assert_detector_matches_oracle(builder.finish())
    assert circuit.region_link[circuit.net_ids[n1]] is None


def test_observed_net_with_single_gate_user():
    """n1 is observed and read by one gate: a stem whose flip is always
    observed, not a region net of the INV."""
    builder = NetlistBuilder("obs")
    a, b, c = (builder.add_input(name) for name in "abc")
    n1 = builder.add_gate("NAND2_X1", [a, b])
    builder.add_output("po1", n1)
    n2 = builder.add_gate("INV_X1", [n1])
    builder.add_output("po2", builder.add_gate("AND2_X1", [n2, c]))
    circuit = assert_detector_matches_oracle(builder.finish())
    assert circuit.region_link[circuit.net_ids[n1]] is None
    assert circuit.region_link[circuit.net_ids[n2]] is not None


def test_x_tied_and_constant_nets():
    """Region paths whose side inputs are an X-tied TSV (low), the
    test-mode tie (1) and the scan-enable tie (0)."""
    builder = NetlistBuilder("ties")
    a, b, c = (builder.add_input(name) for name in "abc")
    tsv = builder.add_input("tsv_in", kind=PortKind.TSV_INBOUND)
    test_mode = builder.add_input("tm", kind=PortKind.TEST_MODE)
    scan_enable = builder.add_input("se", kind=PortKind.SCAN_ENABLE)
    n1 = builder.add_gate("NAND2_X1", [a, b])
    n2 = builder.add_gate("OR2_X1", [n1, tsv])        # X-tie low: passes
    n3 = builder.add_gate("AND2_X1", [n2, test_mode])  # tie 1: passes
    n4 = builder.add_gate("NOR2_X1", [n3, scan_enable])
    n5 = builder.add_gate("AND2_X1", [c, tsv])        # X-tie low: blocks
    n6 = builder.add_gate("MUX2_X1", [n4, n5, test_mode])
    builder.add_output("po", builder.add_gate("XOR2_X1", [n6, n4]))
    builder.add_output("pq", builder.add_gate("OR2_X1", [n5, scan_enable]))
    assert_detector_matches_oracle(builder.finish())


def random_circuit(seed: int, n_gates: int, n_inputs: int):
    """A random acyclic circuit over the full cell set, with tied and
    X sources, repeated pins and observed single-reader nets."""
    rng = DeterministicRng(seed)
    builder = NetlistBuilder(f"blk{seed}")
    signals = [builder.add_input(f"i{k}") for k in range(n_inputs)]
    signals.append(builder.add_input("tsv_in", kind=PortKind.TSV_INBOUND))
    signals.append(builder.add_input("tm", kind=PortKind.TEST_MODE))
    signals.append(builder.add_input("se", kind=PortKind.SCAN_ENABLE))
    for _ in range(n_gates):
        cell, arity = rng.choice(_CELLS)
        # favour recent signals, so fanout-free chains form
        pool = signals[-6:] if rng.random() < 0.7 else signals
        ins = [rng.choice(pool) for _ in range(arity)]
        signals.append(builder.add_gate(cell, ins))
    builder.add_output("po", signals[-1])
    for j, net in enumerate(signals[n_inputs + 3::4]):
        builder.add_output(f"obs{j}", net)
    return builder.finish()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n_gates=st.integers(min_value=2, max_value=40),
       n_inputs=st.integers(min_value=1, max_value=5))
def test_block_detector_matches_oracle_on_random_circuits(seed, n_gates,
                                                          n_inputs):
    assert_detector_matches_oracle(random_circuit(seed, n_gates, n_inputs))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_block_detector_matches_oracle_on_wide_random_blocks(seed):
    """Larger circuits, 64 random patterns: words stay exact when the
    block is not exhaustive."""
    assert_detector_matches_oracle(random_circuit(seed, 80, 12), width=64,
                                   seed=seed)
