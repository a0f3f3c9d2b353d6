"""PODEM deterministic test generation over two-machine 3-valued codes.

Implements the classic PODEM search: objectives are activated/backtraced
to primary-input (scan-cell) assignments, implications run forward over
a per-fault *slice* of the circuit (the fan-in closure of the fault's
fan-out cone), and the search backtracks through the PI decision stack.
Good and faulty machines are simulated together: every net holds one
code ``3·good + faulty`` over the 3-valued logic {0, 1, X}, so the
nine codes carry the D-calculus values (D = 1/0 is code 3, D̄ = 0/1 is
code 1). A discrepancy reaching an observation net is success.

The slice restriction is what keeps PODEM usable from pure Python: a
bounded-depth die has slices of a few hundred gates regardless of die
size.

Implication is incremental: one persistent code array, an undo trail
per decision, and event-driven re-evaluation, in gate-index order, of
only the slice gates a change can reach. A gate costs one lookup into
the table of its (function, arity), which maps the input codes to the
output code and is generated from :func:`_eval3` on first use. The
decision-free, fault-free state of the whole circuit is computed once
per generator; each search injects its fault on top of it as undo-trail
entries and leaves by undoing them.

Every sub-result (implied values, D-frontier choice, SCOAP backtrace
step) is a pure function of the current assignment, so each
:class:`PodemOutcome`, backtrack count included, is deterministic. The
``podem`` check in :mod:`repro.verify.checks` is the engine's oracle:
every detected cube must detect under forced re-simulation, and every
untestable verdict on a small circuit must survive every input pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atpg.faults import Fault, FaultKind
from repro.atpg.sim import CompiledCircuit
from repro.util.errors import AtpgError

X = 2  # unknown in 3-valued logic


def _and3(vals: Sequence[int]) -> int:
    out = 1
    for v in vals:
        if v == 0:
            return 0
        if v == X:
            out = X
    return out


def _or3(vals: Sequence[int]) -> int:
    out = 0
    for v in vals:
        if v == 1:
            return 1
        if v == X:
            out = X
    return out


def _not3(v: int) -> int:
    return X if v == X else 1 - v


def _xor3(vals: Sequence[int]) -> int:
    out = 0
    for v in vals:
        if v == X:
            return X
        out ^= v
    return out


def _eval3(op_name: str, vals: Sequence[int]) -> int:
    if op_name == "and":
        return _and3(vals)
    if op_name == "nand":
        return _not3(_and3(vals))
    if op_name == "or":
        return _or3(vals)
    if op_name == "nor":
        return _not3(_or3(vals))
    if op_name == "inv":
        return _not3(vals[0])
    if op_name == "buf":
        return vals[0]
    if op_name == "xor":
        return _xor3(vals)
    if op_name == "xnor":
        return _not3(_xor3(vals))
    if op_name == "mux2":
        a, b, s = vals
        if s == 0:
            return a
        if s == 1:
            return b
        return a if (a == b and a != X) else X
    if op_name == "aoi21":
        a1, a2, b = vals
        return _not3(_or3([_and3([a1, a2]), b]))
    if op_name == "oai21":
        a1, a2, b = vals
        return _not3(_and3([_or3([a1, a2]), b]))
    raise AtpgError(f"no 3-valued model for {op_name}")


#: preferred side-input value that does NOT force the gate's output,
#: per function with a 3-valued model
_NONCONTROLLING = {
    "and": 1, "nand": 1, "or": 0, "nor": 0,
    "xor": 0, "xnor": 0, "buf": 1, "inv": 1,
    "mux2": 0, "aoi21": 0, "oai21": 1,
}

#: code of a net unknown in both machines
_XX = 3 * X + X
#: code -> 1 where both machines are known and differ (D or D̄)
_DIFF = bytes(int(c in (1, 3)) for c in range(9))
#: code -> 1 where both machines are known
_KNOWN = bytes(int(c in (0, 1, 3, 4)) for c in range(9))

_TABLES: Dict[Tuple[str, int], bytes] = {}


def _table(op_name: str, arity: int) -> bytes:
    """Two-machine truth table of *op_name* over *arity* inputs.

    Entry ``Σ code_k · 9^(arity-1-k)`` holds the output code for input
    codes ``code_0 … code_{arity-1}``: :func:`_eval3` on the good
    values times 3, plus :func:`_eval3` on the faulty values. Built on
    first use and kept for the process.
    """
    key = (op_name, arity)
    table = _TABLES.get(key)
    if table is None:
        table = bytes(
            3 * _eval3(op_name, [c // 3 for c in codes])
            + _eval3(op_name, [c % 3 for c in codes])
            for codes in itertools.product(range(9), repeat=arity))
        _TABLES[key] = table
    return table


class _Slice:
    """Search structures of one slice: a fault's, or the fan-in
    closure of a bare justification target."""

    __slots__ = ("observable", "slice_gates", "cone", "check_nets",
                 "branch_gate", "branch_pos", "site_is_source")

    def __init__(self, slice_gates: List[int]) -> None:
        self.observable = False
        #: slice gate indices in topological order
        self.slice_gates = slice_gates
        #: cone gates (gi, non-controlling value, out, ins) in slice
        #: order, for the D-frontier scan
        self.cone: List[Tuple[int, int, int, Tuple[int, ...]]] = []
        #: observed nets the faulty machine can actually differ on
        self.check_nets: Tuple[int, ...] = ()
        self.branch_gate: Optional[int] = None
        self.branch_pos: Optional[int] = None
        self.site_is_source = False


@dataclass
class PodemOutcome:
    """Result of one PODEM run."""

    status: str  # "detected" | "untestable" | "aborted"
    #: control-net assignments (net id -> 0/1), unassigned = don't-care
    assignment: Dict[int, int]
    backtracks: int


class PodemGenerator:
    """PODEM bound to one compiled circuit."""

    def __init__(self, circuit: CompiledCircuit,
                 backtrack_limit: int = 64) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self._control: Set[int] = set(circuit.input_columns)
        #: (arity, table, out, ins) per gate, one lookup in the loop
        self._spec: List[Tuple[int, bytes, int, Tuple[int, ...]]] = []
        for gate in circuit.gates:
            if gate.op_name not in _NONCONTROLLING:
                raise AtpgError(f"no 3-valued model for {gate.op_name}")
            arity = len(gate.ins)
            self._spec.append((arity, _table(gate.op_name, arity),
                               gate.out, gate.ins))
        #: per gate, the gates driving its inputs
        gate_of_net = circuit.gate_of_net
        self._drivers: List[Tuple[int, ...]] = [
            tuple(gate_of_net[nid] for nid in gate.ins
                  if nid in gate_of_net) for gate in circuit.gates]
        self._cc0, self._cc1 = self._scoap()
        self._orders = self._backtrace_orders()
        self._fault_slices: Dict[Tuple[str, str, str], _Slice] = {}
        self._justify_slices: Dict[int, _Slice] = {}
        # The decision-free, fault-free code of every net (restored
        # between searches), the undo trail of (net, old code), and
        # per-gate flags: 0 outside the active slice, 1 in it, 2 queued
        # by the running propagation.
        self._val: List[int] = self._fault_free_state()
        self._trail: List[Tuple[int, int]] = []
        self._inflag = bytearray(len(circuit.gates))
        # The active search's fault: the gate whose output is
        # re-derived (stem driver or branch gate, else -1), the faulted
        # pin of a branch gate (-1 for a stem driver), the stuck value,
        # and a faulted source net that stays pinned (else -1).
        self._special = -1
        self._pin = -1
        self._stuck = 0
        self._source = -1

    # ------------------------------------------------------------------
    def _scoap(self) -> Tuple[List[int], List[int]]:
        """SCOAP combinational 0/1-controllabilities per net."""
        circuit = self.circuit
        big = 10 ** 9
        cc0 = [big] * circuit.n_nets
        cc1 = [big] * circuit.n_nets
        for nid in circuit.input_columns:
            cc0[nid] = cc1[nid] = 1
        for nid, const in circuit.constant_nets.items():
            if const:
                cc1[nid], cc0[nid] = 0, big
            else:
                cc0[nid], cc1[nid] = 0, big
        for nid in circuit.x_net_ids:
            cc0[nid], cc1[nid] = 0, big  # tied low pre-bond

        def cap(value: int) -> int:
            return min(value, big)

        for gate in circuit.gates:
            ins = gate.ins
            op = gate.op_name
            z0 = [cc0[i] for i in ins]
            z1 = [cc1[i] for i in ins]
            if op in ("and", "nand"):
                all1 = cap(sum(z1) + 1)
                any0 = cap(min(z0) + 1)
                out1, out0 = (any0, all1) if op == "nand" else (all1, any0)
            elif op in ("or", "nor"):
                any1 = cap(min(z1) + 1)
                all0 = cap(sum(z0) + 1)
                out1, out0 = (all0, any1) if op == "nor" else (any1, all0)
            elif op == "inv":
                out1, out0 = cap(z0[0] + 1), cap(z1[0] + 1)
            elif op == "buf":
                out1, out0 = cap(z1[0] + 1), cap(z0[0] + 1)
            elif op in ("xor", "xnor"):
                a0, b0 = z0[0], z0[1]
                a1, b1 = z1[0], z1[1]
                odd = cap(min(a1 + b0, a0 + b1) + 1)
                even = cap(min(a0 + b0, a1 + b1) + 1)
                out1, out0 = (even, odd) if op == "xnor" else (odd, even)
            elif op == "mux2":
                a0, b0, s0 = z0
                a1, b1, s1 = z1
                out1 = cap(min(s0 + a1, s1 + b1) + 1)
                out0 = cap(min(s0 + a0, s1 + b0) + 1)
            elif op == "aoi21":
                a10, a20, b0 = z0
                a11, a21, b1 = z1
                out1 = cap(b0 + min(a10, a20) + 1)
                out0 = cap(min(b1, a11 + a21) + 1)
            elif op == "oai21":
                a10, a20, b0 = z0
                a11, a21, b1 = z1
                out1 = cap(min(b0, a10 + a20) + 1)
                out0 = cap(b1 + min(a11, a21) + 1)
            else:
                out1 = out0 = big
            cc0[gate.out] = out0
            cc1[gate.out] = out1
        return cc0, cc1

    def _backtrace_orders(self) -> List[Optional[Tuple[Tuple, Tuple]]]:
        """Per gate, the SCOAP backtrace step of an and/nand/or/nor/
        buf/inv gate for output target 0 and 1: (input order, value).
        The step takes the first input of the order that is X.

        "Any input suffices" steps order the inputs easiest first,
        "all inputs required" steps hardest first; ties keep pin order,
        as ``min``/``max`` over the X inputs would. Other gates: None.
        """
        cc0, cc1 = self._cc0, self._cc1

        def order(ins: Tuple[int, ...], table: List[int],
                  hardest: bool) -> Tuple[int, ...]:
            sign = -1 if hardest else 1
            return tuple(ins[k] for k in sorted(
                range(len(ins)), key=lambda k: (sign * table[ins[k]], k)))

        orders: List[Optional[Tuple[Tuple, Tuple]]] = []
        for gate in self.circuit.gates:
            op, ins = gate.op_name, gate.ins
            if op in ("buf", "inv"):
                steps = ((ins[:1], 0), (ins[:1], 1))
            elif op in ("and", "nand"):
                # AND output 0: any input 0; output 1: every input 1
                steps = ((order(ins, cc0, False), 0),
                         (order(ins, cc1, True), 1))
            elif op in ("or", "nor"):
                # OR output 0: every input 0; output 1: any input 1
                steps = ((order(ins, cc0, True), 0),
                         (order(ins, cc1, False), 1))
            else:
                orders.append(None)
                continue
            # an inverting gate swaps the steps of its two output values
            orders.append(steps[::-1] if op in ("inv", "nand", "nor")
                          else steps)
        return orders

    def _fault_free_state(self) -> List[int]:
        """Decision-free, fault-free code of every net: control and
        floating nets X, constants and X-ties (low) known, every gate
        evaluated in topological order."""
        circuit = self.circuit
        val = [_XX] * circuit.n_nets
        for nid in circuit.x_net_ids:
            val[nid] = 0  # tied, consistent with packed simulation
        for nid, const in circuit.constant_nets.items():
            val[nid] = 4 * const
        for _arity, table, out, ins in self._spec:
            index = 0
            for nid in ins:
                index = index * 9 + val[nid]
            val[out] = table[index]
        return val

    # ------------------------------------------------------------------
    # Incremental implication. Two facts keep the slice-restricted
    # search exact: event-driven propagation in gate-index (topological)
    # order reproduces a full slice evaluation, and the faulty machine
    # can differ from the good one only on the fault site and the
    # fan-out cone's outputs, so the detection scan (`check_nets`) and
    # the D-frontier scan (`cone`) are restricted to those. Nets outside
    # the slice keep their decision-free codes; no slice gate reads them.
    # ------------------------------------------------------------------
    def _undo_to(self, mark: int) -> None:
        trail = self._trail
        if len(trail) <= mark:
            return
        val = self._val
        for nid, old in reversed(trail[mark:]):
            val[nid] = old
        del trail[mark:]

    def _fanin_closure(self, seeds: List[int]) -> List[int]:
        """*seeds* plus every gate driving them, transitively, in
        topological (gate index) order."""
        drivers = self._drivers
        closure: Set[int] = set(seeds)
        work = list(closure)
        while work:
            for drv in drivers[work.pop()]:
                if drv not in closure:
                    closure.add(drv)
                    work.append(drv)
        return sorted(closure)

    def _fault_slice(self, fault: Fault) -> _Slice:
        """The fault's slice: the fan-in closure of its fan-out cone
        and its site (side inputs and the site must be justifiable)."""
        key = (fault.net, fault.owner, fault.pin)
        fs = self._fault_slices.get(key)
        if fs is not None:
            return fs
        circuit = self.circuit
        gates = circuit.gates
        site_net = circuit.net_ids[fault.net]

        # Forward cone.
        if fault.kind is FaultKind.BRANCH:
            # Only the one sink gate sees the fault initially.
            start_gates = [gi for gi in circuit.gate_users[site_net]
                           if gates[gi].name == fault.owner]
        else:
            start_gates = list(circuit.gate_users[site_net])
        cone_gates: Set[int] = set()
        seen_nets = {site_net}
        observable = site_net in circuit.observed
        work = list(start_gates)
        while work:
            gi = work.pop()
            if gi in cone_gates:
                continue
            cone_gates.add(gi)
            out = gates[gi].out
            if out in circuit.observed:
                observable = True
            if out not in seen_nets:
                seen_nets.add(out)
                work.extend(circuit.gate_users[out])

        seeds = list(cone_gates)
        driver = circuit.gate_of_net.get(site_net)
        if driver is not None:
            seeds.append(driver)
        fs = _Slice(self._fanin_closure(seeds))
        fs.observable = observable
        fs.cone = [(gi, _NONCONTROLLING[gates[gi].op_name], gates[gi].out,
                    gates[gi].ins) for gi in sorted(cone_gates)]
        diff_nets = {entry[2] for entry in fs.cone}
        diff_nets.add(site_net)
        fs.check_nets = tuple(sorted(diff_nets & circuit.observed))
        fs.site_is_source = driver is None
        if fault.kind is FaultKind.BRANCH and start_gates:
            fs.branch_gate = start_gates[0]
            fs.branch_pos = gates[start_gates[0]].ins.index(site_net)
        self._fault_slices[key] = fs
        return fs

    def _justify_structures(self, net_id: int) -> _Slice:
        """Fan-in-closure structures for a bare justification target."""
        fs = self._justify_slices.get(net_id)
        if fs is None:
            driver = self.circuit.gate_of_net.get(net_id)
            fs = _Slice(self._fanin_closure(
                [] if driver is None else [driver]))
            self._justify_slices[net_id] = fs
        return fs

    def _special_code(self, gi: int, code: int) -> int:
        """Output code of the fault's own gate, given its fault-free
        *code*: a stem driver's faulty output is stuck; a branch gate
        reads its faulted pin as stuck in the faulty machine."""
        stuck = self._stuck
        pin = self._pin
        if pin < 0:
            return code - code % 3 + stuck
        _arity, table, _out, ins = self._spec[gi]
        val = self._val
        index = 0
        for pos, nid in enumerate(ins):
            c = val[nid]
            if pos == pin:
                c = c - c % 3 + stuck
            index = index * 9 + c
        return table[index]

    def _set(self, net: int, code: int) -> None:
        """Overwrite one net's code (on the trail) and propagate."""
        val = self._val
        if val[net] != code:
            self._trail.append((net, val[net]))
            val[net] = code
            self._propagate(net)

    def _propagate(self, net: int) -> None:
        """Event-driven re-evaluation of both machines from one changed
        net, recording every overwrite on the undo trail.

        Gates pop in ascending index order and push only their readers,
        which come later, so a popped gate's inputs are final and it is
        never queued again: its flag returns from 2 (queued) to 1.
        """
        val, trail = self._val, self._trail
        spec = self._spec
        gate_users = self.circuit.gate_users
        flags = self._inflag
        heap = [gi for gi in gate_users[net] if flags[gi]]
        if not heap:
            return
        for gi in heap:  # ascending list == already a valid heap
            flags[gi] = 2
        special = self._special
        pop, push = heappop, heappush
        trail_append = trail.append
        while heap:
            gi = pop(heap)
            flags[gi] = 1
            arity, table, out, ins = spec[gi]
            if arity == 2:
                code = table[val[ins[0]] * 9 + val[ins[1]]]
            elif arity == 1:
                code = table[val[ins[0]]]
            elif arity == 3:
                code = table[(val[ins[0]] * 9 + val[ins[1]]) * 9
                             + val[ins[2]]]
            else:
                index = 0
                for nid in ins:
                    index = index * 9 + val[nid]
                code = table[index]
            if gi == special:
                code = self._special_code(gi, code)
            old = val[out]
            if code == old:
                continue
            trail_append((out, old))
            val[out] = code
            for dep in gate_users[out]:
                if flags[dep] == 1:
                    flags[dep] = 2
                    push(heap, dep)

    def _assign(self, net: int, value: int) -> None:
        """Apply one PI assignment and propagate its consequences."""
        val = self._val
        self._trail.append((net, val[net]))
        # a faulted source stays pinned in the faulty machine
        val[net] = 3 * value + (self._stuck if net == self._source
                                else value)
        self._propagate(net)

    def _inject(self, fs: _Slice, site_net: int) -> None:
        """Put the active fault on the fault-free state: trail entries
        and their consequences over the slice."""
        stuck = self._stuck
        if fs.branch_gate is not None:
            self._special, self._pin = fs.branch_gate, fs.branch_pos
            out = self.circuit.gates[fs.branch_gate].out
            self._set(out, self._special_code(fs.branch_gate,
                                              self._val[out]))
            return
        if fs.site_is_source:
            self._source = site_net
        else:
            self._special = self.circuit.gate_of_net[site_net]
        old = self._val[site_net]
        self._set(site_net, old - old % 3 + stuck)

    def _check(self, fs: _Slice, site_net: int, stuck: int) -> str:
        val = self._val
        if val[site_net] // 3 == stuck:
            return "conflict"  # can never be activated under assignment
        for nid in fs.check_nets:
            if _DIFF[val[nid]]:
                return "detected"
        return "open"

    def _objective(self, fs: _Slice, site_net: int, stuck: int
                   ) -> Optional[Tuple[int, int]]:
        val = self._val
        site_g = val[site_net] // 3
        if site_g == X:
            return (site_net, 1 - stuck)  # activate
        branch_gate, branch_pos = fs.branch_gate, fs.branch_pos
        for gi, noncontrolling, out, ins in fs.cone:
            if _KNOWN[val[out]]:
                continue
            if gi == branch_gate:
                has_d = site_g != stuck
            else:
                has_d = False
                for nid in ins:
                    if _DIFF[val[nid]]:
                        has_d = True
                        break
            if not has_d:
                continue
            for pos, nid in enumerate(ins):
                if gi == branch_gate and pos == branch_pos:
                    continue  # the faulted pin is not a side input
                if val[nid] >= 6:  # good machine X
                    return (nid, noncontrolling)
        return None

    # ------------------------------------------------------------------
    def run(self, fault: Fault) -> PodemOutcome:
        """Attempt to generate a test for *fault*."""
        fs = self._fault_slice(fault)
        if not fs.observable and fault.kind is not FaultKind.OBS_BRANCH:
            return PodemOutcome("untestable", {}, 0)
        site_net = self.circuit.net_ids[fault.net]
        stuck = int(fault.polarity)
        if fault.kind is FaultKind.OBS_BRANCH:
            # Activation is detection: justify site = ¬stuck.
            return self._justify_search(site_net, 1 - stuck, fs)
        if fault.kind is FaultKind.BRANCH and fs.branch_gate is None:
            return PodemOutcome("untestable", {}, 0)

        trail = self._trail
        flags = self._inflag
        for gi in fs.slice_gates:
            flags[gi] = 1
        assignment: Dict[int, int] = {}
        #: (net, value, flipped, trail mark before the push)
        decisions: List[Tuple[int, int, bool, int]] = []
        backtracks = 0
        self._stuck = stuck
        try:
            self._inject(fs, site_net)
            while True:
                status = self._check(fs, site_net, stuck)
                if status == "detected":
                    return PodemOutcome("detected", dict(assignment),
                                        backtracks)
                objective = None
                if status != "conflict":
                    objective = self._objective(fs, site_net, stuck)
                pi_net: Optional[int] = None
                pi_value = 0
                if objective is not None:
                    pi_net, pi_value = self._backtrace(*objective)
                if pi_net is None:
                    # Backtrack: no objective, or no X-path to a control
                    # input from it.
                    while decisions:
                        net, value, flipped, mark = decisions.pop()
                        del assignment[net]
                        self._undo_to(mark)
                        if not flipped:
                            backtracks += 1
                            if backtracks > self.backtrack_limit:
                                return PodemOutcome("aborted", {},
                                                    backtracks)
                            decisions.append((net, 1 - value, True,
                                              len(trail)))
                            assignment[net] = 1 - value
                            self._assign(net, 1 - value)
                            break
                    else:
                        return PodemOutcome("untestable", {}, backtracks)
                    continue

                decisions.append((pi_net, pi_value, False, len(trail)))
                assignment[pi_net] = pi_value
                self._assign(pi_net, pi_value)
        finally:
            self._undo_to(0)
            self._special = self._pin = self._source = -1
            for gi in fs.slice_gates:
                flags[gi] = 0

    def justify(self, net_id: int, value: int) -> PodemOutcome:
        """Justification-only search: make *net_id* take *value*.

        Used for transition-launch conditions; OBS_BRANCH faults run
        the same search over their fault slice.
        """
        return self._justify_search(net_id, value,
                                    self._justify_structures(net_id))

    def _justify_search(self, net_id: int, value: int,
                        fs: _Slice) -> PodemOutcome:
        """Justify *net_id* = *value* over slice *fs* (fault-free: the
        faulty machine simply mirrors the good one)."""
        val, trail = self._val, self._trail
        flags = self._inflag
        for gi in fs.slice_gates:
            flags[gi] = 1
        assignment: Dict[int, int] = {}
        decisions: List[Tuple[int, int, bool, int]] = []
        backtracks = 0
        try:
            while True:
                current = val[net_id] // 3
                if current == value:
                    return PodemOutcome("detected", dict(assignment),
                                        backtracks)
                pi_net: Optional[int] = None
                pi_value = 0
                if current != 1 - value:  # else conflict: backtrack
                    pi_net, pi_value = self._backtrace(net_id, value)
                if pi_net is not None:
                    decisions.append((pi_net, pi_value, False,
                                      len(trail)))
                    assignment[pi_net] = pi_value
                    self._assign(pi_net, pi_value)
                    continue

                while decisions:
                    net, bit, flipped, mark = decisions.pop()
                    del assignment[net]
                    self._undo_to(mark)
                    if not flipped:
                        backtracks += 1
                        if backtracks > self.backtrack_limit:
                            return PodemOutcome("aborted", {},
                                                backtracks)
                        decisions.append((net, 1 - bit, True,
                                          len(trail)))
                        assignment[net] = 1 - bit
                        self._assign(net, 1 - bit)
                        break
                else:
                    return PodemOutcome("untestable", {}, backtracks)
        finally:
            self._undo_to(0)
            for gi in fs.slice_gates:
                flags[gi] = 0

    # ------------------------------------------------------------------
    def _backtrace(self, net_id: int, value: int
                   ) -> Tuple[Optional[int], int]:
        """Walk an X-path from the objective back to a control net.

        Uses SCOAP guidance: "any input suffices" objectives descend
        into the cheapest X input, "all inputs required" objectives
        into the hardest one — the textbook backtrace policy.
        """
        circuit = self.circuit
        control = self._control
        gate_of_net = circuit.gate_of_net.get
        gates = circuit.gates
        orders = self._orders
        val = self._val
        current, target = net_id, value
        for _ in range(100000):  # cycle-free by construction
            if current in control:
                return current, target
            driver = gate_of_net(current)
            if driver is None:
                return None, 0  # constant / X-tie: cannot justify
            order = orders[driver]
            if order is not None:
                nets, want = order[target]
                for nid in nets:
                    if val[nid] >= 6:  # good machine X
                        current, target = nid, want
                        break
                else:
                    return None, 0
                continue
            gate = gates[driver]
            x_inputs = [nid for nid in gate.ins if val[nid] >= 6]
            if not x_inputs:
                return None, 0
            step = self._backtrace_step(gate, target, x_inputs)
            if step is None:
                return None, 0
            current, target = step
        return None, 0

    def _backtrace_step(self, gate, target: int, x_inputs: List[int]
                        ) -> Optional[Tuple[int, int]]:
        """One backtrace step through an xor/xnor/mux2/aoi21/oai21
        gate (the other functions use :meth:`_backtrace_orders`)."""
        cc0, cc1 = self._cc0, self._cc1
        val = self._val
        op = gate.op_name
        if op in ("xor", "xnor"):
            parity = 0
            for nid in gate.ins:
                v = val[nid] // 3
                if v != X and nid not in x_inputs:
                    parity ^= v
            want = target if op == "xor" else 1 - target
            chosen = x_inputs[0]
            # Assume the other X inputs resolve to 0.
            return (chosen, want ^ parity)
        if op == "mux2":
            a, b, s = gate.ins
            a_v, b_v, s_v = val[a] // 3, val[b] // 3, val[s] // 3
            if s_v == 0 and a in x_inputs:
                return (a, target)
            if s_v == 1 and b in x_inputs:
                return (b, target)
            if s_v == X:
                # Choose the side whose data already matches, else side A.
                if a_v == target or (a in x_inputs and b_v != target):
                    return (s, 0) if s in x_inputs else (a, target)
                return (s, 1) if s in x_inputs else ((b, target)
                                                     if b in x_inputs else None)
            return None
        a1, a2, b = gate.ins
        need = 1 - target  # value of the inner (pre-inversion) term
        # aoi: out = !((a1&a2)|b); oai: out = !((a1|a2)&b)
        if op == "aoi21":
            if need:  # (a1&a2)|b must be 1: easiest of b=1 / a1=a2=1
                if b in x_inputs and (cc1[b] <= cc1[a1] + cc1[a2]
                                      or a1 not in x_inputs
                                      and a2 not in x_inputs):
                    return (b, 1)
                for nid in (a1, a2):
                    if nid in x_inputs:
                        return (nid, 1)
                return (b, 1) if b in x_inputs else None
            # (a1&a2)|b must be 0: b=0 and one of a1/a2 = 0
            if b in x_inputs:
                return (b, 0)
            for nid in sorted((a1, a2), key=lambda n: cc0[n]):
                if nid in x_inputs:
                    return (nid, 0)
            return None
        # oai21: inner = (a1|a2)&b
        if need:  # inner 1: b=1 and one of a1/a2 = 1
            if b in x_inputs:
                return (b, 1)
            for nid in sorted((a1, a2), key=lambda n: cc1[n]):
                if nid in x_inputs:
                    return (nid, 1)
            return None
        # inner 0: b=0 or both a1,a2 = 0
        if b in x_inputs and (cc0[b] <= cc0[a1] + cc0[a2]
                              or (a1 not in x_inputs
                                  and a2 not in x_inputs)):
            return (b, 0)
        for nid in (a1, a2):
            if nid in x_inputs:
                return (nid, 0)
        return (b, 0) if b in x_inputs else None
