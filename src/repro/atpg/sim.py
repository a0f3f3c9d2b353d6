"""Compiled combinational circuit and packed-pattern simulation.

``CompiledCircuit`` lowers a :class:`~repro.dft.testview.TestView` to
flat arrays: net ids, a topologically ordered gate list, per-net fanout
(gate users), source bindings (input columns, constants, X-ties) and
observation nets. Simulation packs many patterns into one Python
big-int per net, so a single ``&``/``|``/``^`` evaluates the gate for
the whole block in C.

The gate list is additionally lowered to a flat **op-tape**: one tuple
``(opcode, out, in0[, in1[, in2]])`` per gate in post (topological)
order, with a dedicated opcode per (function, arity) pair for all
1/2/3-input cells of the library. The block simulator and the
event-driven propagator interpret the tape with inlined big-int
expressions — no per-gate ``op()`` callable, no per-gate input-list
allocation. Unusual arities fall back to the generic
:data:`~repro.netlist.library.LOGIC_FUNCTIONS` callable.

Fault simulation works per block, not per fault. A net read by exactly
one gate pin and by no observation point lies in the *fanout-free
region* (FFR) of the first net forward of it that does not: its
*stem*. Every path from such a net to an observation point runs
through its one reader and then through the stem, so a
:class:`BlockDetector` scores a fault as its activation word AND the
path sensitization to its stem (one gate evaluation per region net)
AND the stem's flip-observability word. That last word comes from one
event-driven, cone-limited propagation of the flipped stem against the
good-machine values, shared by every fault behind the stem. Pattern
bits are independent, so the product equals each fault's own
propagation bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dft.testview import TestView
from repro.netlist.library import LOGIC_FUNCTIONS
from repro.runtime import trace
from repro.util.errors import AtpgError


@dataclass
class _Gate:
    """One compiled gate."""

    index: int
    name: str
    op: Callable[[Sequence[int], int], int]
    op_name: str
    out: int  # net id
    ins: Tuple[int, ...]  # net ids in cell pin order


# Op-tape opcodes, one per (function, arity) the library can produce.
_OP_BUF = 0
_OP_INV = 1
_OP_AND2 = 2
_OP_OR2 = 3
_OP_XOR2 = 4
_OP_NAND2 = 5
_OP_NOR2 = 6
_OP_XNOR2 = 7
_OP_MUX2 = 8
_OP_AOI21 = 9
_OP_OAI21 = 10
_OP_AND3 = 11
_OP_OR3 = 12
_OP_NAND3 = 13
_OP_NOR3 = 14
_OP_XOR3 = 15
_OP_XNOR3 = 16
_OP_GENERIC = 17

#: (function name, arity) -> opcode. Anything absent goes generic.
_OPCODES: Dict[Tuple[str, int], int] = {
    ("buf", 1): _OP_BUF,
    ("inv", 1): _OP_INV,
    ("and", 2): _OP_AND2,
    ("or", 2): _OP_OR2,
    ("xor", 2): _OP_XOR2,
    ("nand", 2): _OP_NAND2,
    ("nor", 2): _OP_NOR2,
    ("xnor", 2): _OP_XNOR2,
    ("mux2", 3): _OP_MUX2,
    ("aoi21", 3): _OP_AOI21,
    ("oai21", 3): _OP_OAI21,
    ("and", 3): _OP_AND3,
    ("or", 3): _OP_OR3,
    ("nand", 3): _OP_NAND3,
    ("nor", 3): _OP_NOR3,
    ("xor", 3): _OP_XOR3,
    ("xnor", 3): _OP_XNOR3,
}


class CompiledCircuit:
    """A test view lowered to simulation arrays."""

    def __init__(self, view: TestView) -> None:
        self.view = view
        netlist = view.netlist

        self.net_ids: Dict[str, int] = {}
        self.net_names: List[str] = []
        for name in netlist.nets:
            self.net_ids[name] = len(self.net_names)
            self.net_names.append(name)
        n_nets = len(self.net_names)

        # Source bindings.
        self.input_columns: List[int] = []  # net ids, column order
        seen: Set[int] = set()
        for net in view.control_nets:
            nid = self.net_ids[net]
            if nid not in seen:
                seen.add(nid)
                self.input_columns.append(nid)
        self.constant_nets: Dict[int, int] = {
            self.net_ids[net]: value for net, value in view.constant_nets.items()
        }
        self.x_net_ids: Set[int] = {self.net_ids[n] for n in view.x_nets
                                    if n in self.net_ids}

        # Observations (dedup by net).
        self.observe_ids: List[int] = []
        obs_seen: Set[int] = set()
        for _label, net in view.observe_nets:
            nid = self.net_ids[net]
            if nid not in obs_seen:
                obs_seen.add(nid)
                self.observe_ids.append(nid)
        self.observed: Set[int] = obs_seen

        # Gates in topological order.
        from repro.netlist.topology import topological_instances

        self.gates: List[_Gate] = []
        self.gate_of_net: Dict[int, int] = {}  # out net id -> gate index
        for name in topological_instances(netlist):
            inst = netlist.instance(name)
            out_net = inst.output_net()
            if out_net is None:
                continue
            in_ids = tuple(
                self.net_ids[inst.connections[pin.name]]
                for pin in inst.cell.input_pins
                if pin.name not in ("CK", "SE", "SI")
                and pin.name in inst.connections
            )
            gate = _Gate(
                index=len(self.gates),
                name=name,
                op=LOGIC_FUNCTIONS[inst.cell.function],
                op_name=inst.cell.function,
                out=self.net_ids[out_net],
                ins=in_ids,
            )
            self.gates.append(gate)
            self.gate_of_net[gate.out] = gate.index
        self.gate_index_by_name: Dict[str, int] = {
            g.name: g.index for g in self.gates
        }

        # The op-tape: tape[i] evaluates gates[i]. Generic entries carry
        # the op callable so the interpreter never touches the dataclass.
        self.tape: List[Tuple] = []
        for gate in self.gates:
            code = _OPCODES.get((gate.op_name, len(gate.ins)), _OP_GENERIC)
            if code == _OP_GENERIC:
                self.tape.append((code, gate.out, gate.op, gate.ins))
            else:
                self.tape.append((code, gate.out) + gate.ins)

        # Per-net gate users (for event-driven propagation).
        self.gate_users: List[List[int]] = [[] for _ in range(n_nets)]
        for gate in self.gates:
            for nid in gate.ins:
                self.gate_users[nid].append(gate.index)

        # Fanout-free-region links: (reader gate, pin position) for a
        # net with exactly one gate-pin reader and no observation point,
        # None for a stem. A gate reading one net on two pins makes that
        # net a stem.
        self.region_link: List[Optional[Tuple[int, int]]] = [None] * n_nets
        for nid, users in enumerate(self.gate_users):
            if len(users) == 1 and nid not in obs_seen:
                self.region_link[nid] = (
                    users[0], self.gates[users[0]].ins.index(nid))

        self.n_nets = n_nets

    # ------------------------------------------------------------------
    @property
    def input_count(self) -> int:
        return len(self.input_columns)

    def make_buffer(self) -> List[int]:
        """A reusable value buffer for :meth:`simulate`'s ``out=``.

        Entries the simulator never writes (X-ties, floating nets) are
        zero and stay zero across reuses, so handing the same buffer to
        consecutive blocks is byte-identical to fresh allocation — as
        long as the caller has finished with the previous block.
        """
        return [0] * self.n_nets

    # ------------------------------------------------------------------
    def simulate(self, input_words: Sequence[int], mask: int,
                 out: Optional[List[int]] = None) -> List[int]:
        """Good-machine simulation of one pattern block.

        *input_words* has one packed word per input column; bit *k* of
        a word is the value of that input in pattern *k*. Passing a
        buffer from :meth:`make_buffer` as *out* reuses it instead of
        allocating a fresh values list (the previous block's contents
        are overwritten).
        """
        if len(input_words) != len(self.input_columns):
            raise AtpgError(
                f"expected {len(self.input_columns)} input words, "
                f"got {len(input_words)}"
            )
        if out is None:
            values = [0] * self.n_nets
        else:
            values = out
        for nid, word in zip(self.input_columns, input_words):
            values[nid] = word & mask
        for nid, constant in self.constant_nets.items():
            values[nid] = mask if constant else 0
        # X-source nets stay tied to 0.
        for entry in self.tape:
            code = entry[0]
            if code == _OP_AND2:
                values[entry[1]] = values[entry[2]] & values[entry[3]]
            elif code == _OP_NAND2:
                values[entry[1]] = \
                    ~(values[entry[2]] & values[entry[3]]) & mask
            elif code == _OP_OR2:
                values[entry[1]] = values[entry[2]] | values[entry[3]]
            elif code == _OP_NOR2:
                values[entry[1]] = \
                    ~(values[entry[2]] | values[entry[3]]) & mask
            elif code == _OP_XOR2:
                values[entry[1]] = values[entry[2]] ^ values[entry[3]]
            elif code == _OP_XNOR2:
                values[entry[1]] = \
                    ~(values[entry[2]] ^ values[entry[3]]) & mask
            elif code == _OP_INV:
                values[entry[1]] = ~values[entry[2]] & mask
            elif code == _OP_BUF:
                values[entry[1]] = values[entry[2]]
            elif code == _OP_MUX2:
                s = values[entry[4]]
                values[entry[1]] = \
                    (values[entry[2]] & ~s) | (values[entry[3]] & s)
            elif code == _OP_AOI21:
                values[entry[1]] = ~((values[entry[2]] & values[entry[3]])
                                     | values[entry[4]]) & mask
            elif code == _OP_OAI21:
                values[entry[1]] = ~((values[entry[2]] | values[entry[3]])
                                     & values[entry[4]]) & mask
            elif code == _OP_AND3:
                values[entry[1]] = (values[entry[2]] & values[entry[3]]
                                    & values[entry[4]])
            elif code == _OP_OR3:
                values[entry[1]] = (values[entry[2]] | values[entry[3]]
                                    | values[entry[4]])
            elif code == _OP_NAND3:
                values[entry[1]] = ~(values[entry[2]] & values[entry[3]]
                                     & values[entry[4]]) & mask
            elif code == _OP_NOR3:
                values[entry[1]] = ~(values[entry[2]] | values[entry[3]]
                                     | values[entry[4]]) & mask
            elif code == _OP_XOR3:
                values[entry[1]] = (values[entry[2]] ^ values[entry[3]]
                                    ^ values[entry[4]])
            elif code == _OP_XNOR3:
                values[entry[1]] = ~(values[entry[2]] ^ values[entry[3]]
                                     ^ values[entry[4]]) & mask
            else:
                values[entry[1]] = entry[2](
                    [values[i] for i in entry[3]], mask)
        trace.inc("sim.tape_blocks")
        return values

    # ------------------------------------------------------------------
    def observation_diff(self, good: List[int], net_id: int, value: int,
                         mask: int) -> int:
        """Detection word of a fault on a pin feeding an observation
        point directly (activation equals detection)."""
        forced = mask if value else 0
        return (good[net_id] ^ forced) & mask

    # ------------------------------------------------------------------
    def propagate_values(self, good: List[int], changed: Dict[int, int],
                         mask: int) -> Dict[int, int]:
        """Event-driven propagation of *changed* net values against the
        *good* baseline; returns the final changed-net map (mutates and
        returns the passed dict). Used for fault effects and for
        what-if analyses (tied inputs, aliased observations)."""
        self._propagate(good, changed, mask)
        return changed

    def observation_diffs(self, good: List[int], changed: Dict[int, int]
                          ) -> Dict[int, int]:
        """Per-observation-net difference words for a changed-map."""
        diffs: Dict[int, int] = {}
        for nid in self.observe_ids:
            if nid in changed:
                word = changed[nid] ^ good[nid]
                if word:
                    diffs[nid] = word
        return diffs

    def _propagate(self, good: List[int], changed: Dict[int, int],
                   mask: int) -> int:
        """Event-driven faulty propagation; returns the detection word."""
        heap: List[int] = []
        queued: Set[int] = set()
        for nid in changed:
            for gi in self.gate_users[nid]:
                if gi not in queued:
                    queued.add(gi)
                    heapq.heappush(heap, gi)

        tape = self.tape
        users = self.gate_users
        changed_get = changed.get
        events = 0
        while heap:
            gi = heapq.heappop(heap)
            entry = tape[gi]
            events += 1
            code = entry[0]
            out = entry[1]
            if code == _OP_AND2:
                a = entry[2]
                b = entry[3]
                out_word = (changed_get(a, good[a])
                            & changed_get(b, good[b]))
            elif code == _OP_NAND2:
                a = entry[2]
                b = entry[3]
                out_word = ~(changed_get(a, good[a])
                             & changed_get(b, good[b])) & mask
            elif code == _OP_OR2:
                a = entry[2]
                b = entry[3]
                out_word = (changed_get(a, good[a])
                            | changed_get(b, good[b]))
            elif code == _OP_NOR2:
                a = entry[2]
                b = entry[3]
                out_word = ~(changed_get(a, good[a])
                             | changed_get(b, good[b])) & mask
            elif code == _OP_XOR2:
                a = entry[2]
                b = entry[3]
                out_word = (changed_get(a, good[a])
                            ^ changed_get(b, good[b]))
            elif code == _OP_XNOR2:
                a = entry[2]
                b = entry[3]
                out_word = ~(changed_get(a, good[a])
                             ^ changed_get(b, good[b])) & mask
            elif code == _OP_INV:
                a = entry[2]
                out_word = ~changed_get(a, good[a]) & mask
            elif code == _OP_BUF:
                a = entry[2]
                out_word = changed_get(a, good[a])
            elif code == _OP_MUX2:
                a = entry[2]
                b = entry[3]
                s = changed_get(entry[4], good[entry[4]])
                out_word = ((changed_get(a, good[a]) & ~s)
                            | (changed_get(b, good[b]) & s))
            elif code == _OP_AOI21:
                out_word = ~((changed_get(entry[2], good[entry[2]])
                              & changed_get(entry[3], good[entry[3]]))
                             | changed_get(entry[4], good[entry[4]])) & mask
            elif code == _OP_OAI21:
                out_word = ~((changed_get(entry[2], good[entry[2]])
                              | changed_get(entry[3], good[entry[3]]))
                             & changed_get(entry[4], good[entry[4]])) & mask
            elif code == _OP_AND3:
                out_word = (changed_get(entry[2], good[entry[2]])
                            & changed_get(entry[3], good[entry[3]])
                            & changed_get(entry[4], good[entry[4]]))
            elif code == _OP_OR3:
                out_word = (changed_get(entry[2], good[entry[2]])
                            | changed_get(entry[3], good[entry[3]])
                            | changed_get(entry[4], good[entry[4]]))
            elif code == _OP_NAND3:
                out_word = ~(changed_get(entry[2], good[entry[2]])
                             & changed_get(entry[3], good[entry[3]])
                             & changed_get(entry[4], good[entry[4]])) & mask
            elif code == _OP_NOR3:
                out_word = ~(changed_get(entry[2], good[entry[2]])
                             | changed_get(entry[3], good[entry[3]])
                             | changed_get(entry[4], good[entry[4]])) & mask
            elif code == _OP_XOR3:
                out_word = (changed_get(entry[2], good[entry[2]])
                            ^ changed_get(entry[3], good[entry[3]])
                            ^ changed_get(entry[4], good[entry[4]]))
            elif code == _OP_XNOR3:
                out_word = ~(changed_get(entry[2], good[entry[2]])
                             ^ changed_get(entry[3], good[entry[3]])
                             ^ changed_get(entry[4], good[entry[4]])) & mask
            else:
                out_word = entry[2](
                    [changed_get(i, good[i]) for i in entry[3]], mask)
            current = changed_get(out, good[out])
            if out_word == current:
                # If it converged back to the good value, forget the entry.
                if out in changed and out_word == good[out]:
                    del changed[out]
                continue
            changed[out] = out_word
            for dependent in users[out]:
                if dependent not in queued:
                    queued.add(dependent)
                    heapq.heappush(heap, dependent)

        trace.inc("sim.propagate_events", events)
        detect = 0
        observed = self.observed
        for nid, word in changed.items():
            if nid in observed:
                detect |= (word ^ good[nid])
        return detect & mask


class BlockDetector:
    """Detection words of stuck-at faults over one simulated block.

    Built on the good-machine *values* of one block (``mask`` wide).
    Per net it memoizes the sensitization of its region link and, per
    stem, the word of patterns on which flipping the stem reaches an
    observation point, so a block's faults share both. Every fault
    simulation caller — the stuck-at random phase, PODEM batch flushes,
    compaction and the transition engine's random phase and pair
    dropping — scores its active faults through one detector per block.
    """

    __slots__ = ("circuit", "good", "mask", "_sens", "_stem_words")

    def __init__(self, circuit: CompiledCircuit, good: List[int],
                 mask: int) -> None:
        self.circuit = circuit
        self.good = good
        self.mask = mask
        #: region net -> patterns on which flipping it flips its reader
        self._sens: Dict[int, int] = {}
        #: stem net -> patterns on which flipping it is observed
        self._stem_words: Dict[int, int] = {}

    def stem(self, net_id: int, value: int, care: Optional[int] = None
             ) -> int:
        """Detection word of *net_id* stuck-at *value*, restricted to the
        *care* patterns (default: the whole block)."""
        mask = self.mask
        active = (self.good[net_id] ^ (mask if value else 0)) & (
            mask if care is None else care)
        if not active:
            return 0  # never activated
        return self._observe(net_id, active)

    def branch(self, gate_index: int, pin_position: int, value: int) -> int:
        """Detection word of the gate input pin *pin_position* of gate
        *gate_index* stuck-at *value*."""
        good, mask = self.good, self.mask
        gate = self.circuit.gates[gate_index]
        ins = [good[i] for i in gate.ins]
        ins[pin_position] = mask if value else 0
        diff = gate.op(ins, mask) ^ good[gate.out]
        if not diff:
            return 0
        return self._observe(gate.out, diff)

    def observation(self, net_id: int, value: int) -> int:
        """Detection word of a fault on a pin feeding an observation
        point directly."""
        return self.circuit.observation_diff(self.good, net_id, value,
                                             self.mask)

    def _observe(self, net_id: int, word: int) -> int:
        """The patterns of *word* on which a flip of *net_id* reaches an
        observation point: AND the sensitization of each region link up
        to the stem, then the stem's flip-observability word."""
        circuit, good, mask = self.circuit, self.good, self.mask
        links, gates = circuit.region_link, circuit.gates
        sens = self._sens
        link = links[net_id]
        while link is not None:
            flips = sens.get(net_id)
            if flips is None:
                gate = gates[link[0]]
                ins = [good[i] for i in gate.ins]
                ins[link[1]] ^= mask
                flips = gate.op(ins, mask) ^ good[gate.out]
                sens[net_id] = flips
            word &= flips
            if not word:
                return 0
            net_id = gates[link[0]].out
            link = links[net_id]
        observed = self._stem_words.get(net_id)
        if observed is None:
            if net_id in circuit.observed:
                observed = mask
            else:
                observed = circuit._propagate(
                    good, {net_id: good[net_id] ^ mask}, mask)
            self._stem_words[net_id] = observed
        return word & observed
