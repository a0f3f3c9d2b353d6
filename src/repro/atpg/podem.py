"""PODEM deterministic test generation (5-valued D-calculus).

Implements the classic PODEM search: objectives are activated/backtraced
to primary-input (scan-cell) assignments, implications run forward over
a per-fault *slice* of the circuit (the fan-in closure of the fault's
fan-out cone), and the search backtracks through the PI decision stack.
Good and faulty machines are simulated together in 3-valued logic; a
discrepancy (D/D̄) reaching an observation net is success.

The slice restriction is what keeps PODEM usable from pure Python: a
bounded-depth die has slices of a few hundred gates regardless of die
size.

Implication is incremental: persistent per-net value arrays for both
machines, an undo trail per decision, event-driven re-evaluation of
only the gates a primary-input change can reach, and a cached
decision-free snapshot per slice.

Every sub-result (implied values, D-frontier choice, SCOAP backtrace
step) is a pure function of the current assignment, so each
:class:`PodemOutcome`, backtrack count included, is deterministic. The
``podem`` check in :mod:`repro.verify.checks` is the engine's oracle:
every detected cube must detect under forced re-simulation, and every
untestable verdict on a small circuit must survive every input pattern.
"""

from __future__ import annotations

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


# Small-int op codes for the implication loop: string dispatch is the
# single biggest cost of `_eval3` there.
_C_BUF, _C_INV, _C_AND, _C_NAND, _C_OR, _C_NOR = 0, 1, 2, 3, 4, 5
_C_XOR, _C_XNOR, _C_MUX2, _C_AOI21, _C_OAI21 = 6, 7, 8, 9, 10

_OP3_CODES = {
    "buf": _C_BUF, "inv": _C_INV, "and": _C_AND, "nand": _C_NAND,
    "or": _C_OR, "nor": _C_NOR, "xor": _C_XOR, "xnor": _C_XNOR,
    "mux2": _C_MUX2, "aoi21": _C_AOI21, "oai21": _C_OAI21,
}


def _eval3_arr(code: int, ins: Sequence[int], values: List[int]) -> int:
    """:func:`_eval3` over a small-int op code, reading operands
    straight from a per-net value array — the hot path allocates no
    intermediate operand list."""
    if code == _C_AND or code == _C_NAND:
        out = 1
        for n in ins:
            v = values[n]
            if v == 0:
                out = 0
                break
            if v == 2:
                out = 2
        if code == _C_NAND and out != 2:
            out = 1 - out
        return out
    if code == _C_OR or code == _C_NOR:
        out = 0
        for n in ins:
            v = values[n]
            if v == 1:
                out = 1
                break
            if v == 2:
                out = 2
        if code == _C_NOR and out != 2:
            out = 1 - out
        return out
    if code == _C_INV:
        v = values[ins[0]]
        return 2 if v == 2 else 1 - v
    if code == _C_BUF:
        return values[ins[0]]
    if code == _C_XOR or code == _C_XNOR:
        out = 0
        for n in ins:
            v = values[n]
            if v == 2:
                return 2
            out ^= v
        if code == _C_XNOR:
            out = 1 - out
        return out
    if code == _C_MUX2:
        s = values[ins[2]]
        if s == 0:
            return values[ins[0]]
        if s == 1:
            return values[ins[1]]
        a, b = values[ins[0]], values[ins[1]]
        return a if (a == b and a != 2) else 2
    if code == _C_AOI21:
        a1, a2, b = values[ins[0]], values[ins[1]], values[ins[2]]
        if a1 == 0 or a2 == 0:
            inner = 0
        elif a1 == 2 or a2 == 2:
            inner = 2
        else:
            inner = 1
        if inner == 1 or b == 1:
            return 0
        if inner == 2 or b == 2:
            return 2
        return 1
    # _C_OAI21
    a1, a2, b = values[ins[0]], values[ins[1]], values[ins[2]]
    if a1 == 1 or a2 == 1:
        inner = 1
    elif a1 == 2 or a2 == 2:
        inner = 2
    else:
        inner = 0
    if inner == 0 or b == 0:
        return 1
    if inner == 2 or b == 2:
        return 2
    return 0


def _eval3_pinned(code: int, ins: Sequence[int], values: List[int],
                  pos: int, stuck: int) -> int:
    """:func:`_eval3_arr` with input *pos* forced to *stuck* — the
    faulty machine's view of a branch-fault gate."""
    vals = [values[n] for n in ins]
    vals[pos] = stuck
    return _eval3_arr(code, range(len(vals)), vals)


class _Slice:
    """Search structures of one slice: a fault's, or the fan-in
    closure of a bare justification target."""

    __slots__ = ("observable", "slice_gates", "gates", "sources", "cone",
                 "check_nets", "branch_gate", "branch_pos",
                 "site_is_source", "base", "base_nids")

    def __init__(self) -> None:
        self.observable = False
        self.slice_gates: List[int] = []
        #: (gi, code, out, ins) in slice (topological) order
        self.gates: List[Tuple[int, int, int, Tuple[int, ...]]] = []
        #: (net id, base value) for every slice source net
        self.sources: List[Tuple[int, int]] = []
        #: cone gates (gi, op_name, out, ins) in slice order, for the
        #: D-frontier scan
        self.cone: List[Tuple[int, str, int, Tuple[int, ...]]] = []
        #: observed nets the faulty machine can actually differ on
        self.check_nets: Tuple[int, ...] = ()
        self.branch_gate: Optional[int] = None
        self.branch_pos: Optional[int] = None
        self.site_is_source = False
        #: decision-free machine state, keyed by injected polarity
        #: (``None`` for the justification-only, fault-free machine):
        #: (net, good, faulty) snapshots replayed instead of a full
        #: slice re-evaluation on every search
        self.base: Dict[Optional[int], List[Tuple[int, int, int]]] = {}
        #: every net the base state writes (sources + gate outputs)
        self.base_nids: List[int] = []


#: preferred side-input value that does NOT force the gate's output
_NONCONTROLLING = {
    "and": 1, "nand": 1, "or": 0, "nor": 0,
    "xor": 0, "xnor": 0, "buf": 1, "inv": 1,
    "mux2": 0, "aoi21": 0, "oai21": 1,
}


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
        #: (code, out, ins) per gate, one lookup in the propagation loop
        self._gspec: List[Tuple[int, int, Tuple[int, ...]]] = []
        for gate in circuit.gates:
            code = _OP3_CODES.get(gate.op_name)
            if code is None:
                raise AtpgError(f"no 3-valued model for {gate.op_name}")
            self._gspec.append((code, gate.out, gate.ins))
        self._cc0, self._cc1 = self._scoap()
        self._fault_slices: Dict[Tuple[str, str, str], _Slice] = {}
        self._justify_slices: Dict[int, _Slice] = {}
        # Persistent value arrays (X between searches), the undo trail of
        # (net, old good, old faulty), and per-gate membership flags for
        # the active slice / fault cone.
        self._gv_arr: List[int] = [X] * circuit.n_nets
        self._fv_arr: List[int] = [X] * circuit.n_nets
        self._trail: List[Tuple[int, int, int]] = []
        self._inflag = bytearray(len(circuit.gates))
        self._conefl = bytearray(len(circuit.gates))

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

    # ------------------------------------------------------------------
    # Incremental implication. Two facts keep the slice-restricted
    # search exact: event-driven propagation in gate-index (topological)
    # order reproduces a full slice evaluation, and the faulty machine
    # can differ from the good one only on the fault site and the
    # fan-out cone's outputs, so the detection scan (`check_nets`) and
    # the D-frontier scan (`cone`) are restricted to those.
    # ------------------------------------------------------------------
    def _undo_to(self, mark: int) -> None:
        trail = self._trail
        if len(trail) <= mark:
            return
        gv, fv = self._gv_arr, self._fv_arr
        for nid, old_g, old_f in reversed(trail[mark:]):
            gv[nid] = old_g
            fv[nid] = old_f
        del trail[mark:]

    def _fanin_closure(self, seeds: List[int]) -> List[int]:
        """*seeds* plus every gate driving them, transitively, in
        topological (gate index) order."""
        circuit = self.circuit
        closure: Set[int] = set(seeds)
        work = list(closure)
        while work:
            for nid in circuit.gates[work.pop()].ins:
                drv = circuit.gate_of_net.get(nid)
                if drv is not None and drv not in closure:
                    closure.add(drv)
                    work.append(drv)
        return sorted(closure)

    def _build_structures(self, slice_gates: List[int],
                          extra_source: int) -> _Slice:
        """Flat gate specs of *slice_gates* and the base value of every
        net the slice reads but does not drive."""
        circuit = self.circuit
        fs = _Slice()
        fs.slice_gates = slice_gates
        fs.gates = [(gi, *self._gspec[gi]) for gi in slice_gates]
        outs = {entry[2] for entry in fs.gates}
        source_nets = {nid for entry in fs.gates for nid in entry[3]
                       if nid not in outs}
        if extra_source not in outs:
            source_nets.add(extra_source)
        constants = circuit.constant_nets
        x_nets = circuit.x_net_ids
        for nid in sorted(source_nets):
            const = constants.get(nid)
            if const is not None:
                value = const
            elif nid in x_nets:
                value = 0  # tied, consistent with packed simulation
            else:
                value = X
            fs.sources.append((nid, value))
        fs.base_nids = [nid for nid, _v in fs.sources]
        fs.base_nids.extend(entry[2] for entry in fs.gates)
        return fs

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
        fs = self._build_structures(self._fanin_closure(seeds), site_net)
        fs.observable = observable
        fs.cone = [(gi, gates[gi].op_name, gates[gi].out, gates[gi].ins)
                   for gi in sorted(cone_gates)]
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
            fs = self._build_structures(
                self._fanin_closure([] if driver is None else [driver]),
                net_id)
            self._justify_slices[net_id] = fs
        return fs

    def _propagate_arr(self, net: int, branch_gate: Optional[int],
                       branch_pos: Optional[int], stuck: int,
                       stem_out: Optional[int]) -> None:
        """Event-driven re-evaluation of both machines from one changed
        source net, recording every overwrite on the undo trail.

        Gates outside the fault cone read identical values in both
        machines, so the faulty machine is re-evaluated only for
        cone-flagged gates (and the stem driver's output is forced).
        """
        gv, fv, trail = self._gv_arr, self._fv_arr, self._trail
        gspec = self._gspec
        gate_users = self.circuit.gate_users
        flags, conefl = self._inflag, self._conefl
        heap = [gi for gi in gate_users[net] if flags[gi]]
        if not heap:
            return
        queued = set(heap)  # ascending list == already a valid heap
        pop, push, ev = heappop, heappush, _eval3_arr
        queued_add, trail_append = queued.add, trail.append
        while heap:
            gi = pop(heap)
            code, out, ins = gspec[gi]
            # The four dominant op codes are evaluated inline; the rest
            # fall through to `_eval3_arr` (identical logic either way).
            if code == _C_AND or code == _C_NAND:
                g_out = 1
                for n in ins:
                    v = gv[n]
                    if v == 0:
                        g_out = 0
                        break
                    if v == 2:
                        g_out = 2
                if code == _C_NAND and g_out != 2:
                    g_out = 1 - g_out
            elif code == _C_OR or code == _C_NOR:
                g_out = 0
                for n in ins:
                    v = gv[n]
                    if v == 1:
                        g_out = 1
                        break
                    if v == 2:
                        g_out = 2
                if code == _C_NOR and g_out != 2:
                    g_out = 1 - g_out
            elif code == _C_INV:
                v = gv[ins[0]]
                g_out = 2 if v == 2 else 1 - v
            elif code == _C_MUX2:
                v = gv[ins[2]]
                if v == 0:
                    g_out = gv[ins[0]]
                elif v == 1:
                    g_out = gv[ins[1]]
                else:
                    a = gv[ins[0]]
                    b = gv[ins[1]]
                    g_out = a if (a == b and a != 2) else 2
            else:
                g_out = ev(code, ins, gv)
            if conefl[gi]:
                if gi == branch_gate:
                    f_out = _eval3_pinned(code, ins, fv, branch_pos, stuck)
                else:
                    f_out = ev(code, ins, fv)
            elif out == stem_out:
                f_out = stuck
            else:
                f_out = g_out
            old_g, old_f = gv[out], fv[out]
            if g_out == old_g and f_out == old_f:
                continue
            trail_append((out, old_g, old_f))
            gv[out] = g_out
            fv[out] = f_out
            for dep in gate_users[out]:
                if flags[dep] and dep not in queued:
                    queued_add(dep)
                    push(heap, dep)

    def _push_arr(self, net: int, value: int,
                  source_site: Optional[int], stuck: int,
                  branch_gate: Optional[int], branch_pos: Optional[int],
                  stem_out: Optional[int]) -> None:
        """Apply one PI assignment and propagate its consequences."""
        gv, fv = self._gv_arr, self._fv_arr
        self._trail.append((net, gv[net], fv[net]))
        gv[net] = value
        if net != source_site:  # a faulted source stays pinned in fv
            fv[net] = value
        self._propagate_arr(net, branch_gate, branch_pos, stuck,
                            stem_out)

    def _check_arr(self, fs: _Slice, site_net: int,
                   stuck: int) -> str:
        gv, fv = self._gv_arr, self._fv_arr
        site_g = gv[site_net]
        if site_g == stuck:
            return "conflict"  # can never be activated under assignment
        for nid in fs.check_nets:
            a, b = gv[nid], fv[nid]
            if a != 2 and b != 2 and a != b:
                return "detected"
        return "open"

    def _objective_arr(self, fs: _Slice, site_net: int, stuck: int,
                       branch_gate: Optional[int],
                       branch_pos: Optional[int]
                       ) -> Optional[Tuple[int, int]]:
        gv, fv = self._gv_arr, self._fv_arr
        site_g = gv[site_net]
        if site_g == 2:
            return (site_net, 1 - stuck)  # activate
        for gi, op_name, out, ins in fs.cone:
            if gv[out] != 2 and fv[out] != 2:
                continue
            if gi == branch_gate:
                has_d = site_g != 2 and site_g != stuck
            else:
                has_d = False
                for nid in ins:
                    a = gv[nid]
                    if a != 2:
                        b = fv[nid]
                        if b != 2 and a != b:
                            has_d = True
                            break
            if not has_d:
                continue
            for pos, nid in enumerate(ins):
                if gi == branch_gate and pos == branch_pos:
                    continue  # the faulted pin is not a side input
                if gv[nid] == 2:
                    return (nid, _NONCONTROLLING[op_name])
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
        branch_gate = branch_pos = None
        if fault.kind is FaultKind.BRANCH:
            if fs.branch_gate is None:
                return PodemOutcome("untestable", {}, 0)
            branch_gate, branch_pos = fs.branch_gate, fs.branch_pos
        source_site = stem_out = None
        if branch_gate is None:
            if fs.site_is_source:
                source_site = site_net
            else:
                stem_out = site_net

        gv, fv, trail = self._gv_arr, self._fv_arr, self._trail
        flags, conefl = self._inflag, self._conefl
        for gi in fs.slice_gates:
            flags[gi] = 1
        for entry in fs.cone:
            conefl[entry[0]] = 1
        assignment: Dict[int, int] = {}
        #: (net, value, flipped, trail mark before the push)
        decisions: List[Tuple[int, int, bool, int]] = []
        backtracks = 0
        try:
            # Decision-free base state: replayed from the per-polarity
            # snapshot, computed by full slice evaluation on first use.
            # Base writes stay off the undo trail (reset in `finally`),
            # so decision trail marks are relative to an empty trail.
            snapshot = fs.base.get(stuck)
            if snapshot is not None:
                for nid, g, f in snapshot:
                    gv[nid] = g
                    fv[nid] = f
            else:
                for nid, value in fs.sources:
                    gv[nid] = value
                    fv[nid] = value
                if source_site is not None:
                    fv[site_net] = stuck
                for gi, code, out, ins in fs.gates:
                    g_out = _eval3_arr(code, ins, gv)
                    if conefl[gi]:
                        if gi == branch_gate:
                            f_out = _eval3_pinned(code, ins, fv,
                                                  branch_pos, stuck)
                        else:
                            f_out = _eval3_arr(code, ins, fv)
                    elif out == stem_out:
                        f_out = stuck
                    else:
                        f_out = g_out
                    gv[out] = g_out
                    fv[out] = f_out
                fs.base[stuck] = [(nid, gv[nid], fv[nid])
                                  for nid in fs.base_nids]

            while True:
                status = self._check_arr(fs, site_net, stuck)
                if status == "detected":
                    return PodemOutcome("detected", dict(assignment),
                                        backtracks)
                objective = None
                if status != "conflict":
                    objective = self._objective_arr(fs, site_net, stuck,
                                                    branch_gate,
                                                    branch_pos)
                pi_net: Optional[int] = None
                pi_value = 0
                if objective is not None:
                    pi_net, pi_value = self._backtrace(
                        objective[0], objective[1], gv)
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
                            self._push_arr(net, 1 - value,
                                           source_site, stuck,
                                           branch_gate, branch_pos,
                                           stem_out)
                            break
                    else:
                        return PodemOutcome("untestable", {}, backtracks)
                    continue

                decisions.append((pi_net, pi_value, False, len(trail)))
                assignment[pi_net] = pi_value
                self._push_arr(pi_net, pi_value, source_site, stuck,
                               branch_gate, branch_pos, stem_out)
        finally:
            self._undo_to(0)
            for nid in fs.base_nids:
                gv[nid] = X
                fv[nid] = X
            for gi in fs.slice_gates:
                flags[gi] = 0
            for entry in fs.cone:
                conefl[entry[0]] = 0

    def justify(self, net_id: int, value: int) -> PodemOutcome:
        """Justification-only search: make *net_id* take *value*.

        Used for transition-launch conditions; OBS_BRANCH faults run
        the same search over their fault slice.
        """
        return self._justify_search(net_id, value,
                                    self._justify_structures(net_id))

    def _justify_search(self, net_id: int, value: int,
                        fs: _Slice) -> PodemOutcome:
        """Justify *net_id* = *value* over slice *fs* (good machine
        only; the faulty array simply mirrors it)."""
        gv, fv, trail = self._gv_arr, self._fv_arr, self._trail
        flags = self._inflag
        for gi in fs.slice_gates:
            flags[gi] = 1
        assignment: Dict[int, int] = {}
        decisions: List[Tuple[int, int, bool, int]] = []
        backtracks = 0
        try:
            snapshot = fs.base.get(None)
            if snapshot is not None:
                for nid, g, f in snapshot:
                    gv[nid] = g
                    fv[nid] = f
            else:
                for nid, source_value in fs.sources:
                    gv[nid] = source_value
                    fv[nid] = source_value
                for _gi, code, out, ins in fs.gates:
                    g_out = _eval3_arr(code, ins, gv)
                    gv[out] = g_out
                    fv[out] = g_out
                fs.base[None] = [(nid, gv[nid], fv[nid])
                                 for nid in fs.base_nids]

            while True:
                current = gv[net_id]
                if current == value:
                    return PodemOutcome("detected", dict(assignment),
                                        backtracks)
                pi_net: Optional[int] = None
                pi_value = 0
                if current != 1 - value:  # else conflict: backtrack
                    pi_net, pi_value = self._backtrace(net_id, value, gv)
                if pi_net is not None:
                    decisions.append((pi_net, pi_value, False,
                                      len(trail)))
                    assignment[pi_net] = pi_value
                    self._push_arr(pi_net, pi_value, None, 0, None,
                                   None, None)
                    continue

                while decisions:
                    net, val, flipped, mark = decisions.pop()
                    del assignment[net]
                    self._undo_to(mark)
                    if not flipped:
                        backtracks += 1
                        if backtracks > self.backtrack_limit:
                            return PodemOutcome("aborted", {},
                                                backtracks)
                        decisions.append((net, 1 - val, True,
                                          len(trail)))
                        assignment[net] = 1 - val
                        self._push_arr(net, 1 - val, None, 0, None,
                                       None, None)
                        break
                else:
                    return PodemOutcome("untestable", {}, backtracks)
        finally:
            self._undo_to(0)
            for nid in fs.base_nids:
                gv[nid] = X
                fv[nid] = X
            for gi in fs.slice_gates:
                flags[gi] = 0

    # ------------------------------------------------------------------
    def _backtrace(self, net_id: int, value: int,
                   gv: List[int]) -> Tuple[Optional[int], int]:
        """Walk an X-path from the objective back to a control net.

        Uses SCOAP guidance: "any input suffices" objectives descend
        into the cheapest X input, "all inputs required" objectives
        into the hardest one — the textbook backtrace policy.
        """
        circuit = self.circuit
        control = self._control
        gate_of_net = circuit.gate_of_net.get
        gates = circuit.gates
        current, target = net_id, value
        for _ in range(100000):  # cycle-free by construction
            if current in control:
                return current, target
            driver = gate_of_net(current)
            if driver is None:
                return None, 0  # constant / X-tie: cannot justify
            gate = gates[driver]
            x_inputs = [nid for nid in gate.ins if gv[nid] == X]
            if not x_inputs:
                return None, 0
            step = self._backtrace_step(gate, target, x_inputs, gv)
            if step is None:
                return None, 0
            current, target = step
        return None, 0

    def _backtrace_step(self, gate, target: int, x_inputs: List[int],
                        gv: List[int]) -> Optional[Tuple[int, int]]:
        cc0, cc1 = self._cc0, self._cc1
        op = gate.op_name

        def easiest(value: int) -> int:
            table = cc1 if value else cc0
            return min(x_inputs, key=lambda n: table[n])

        def hardest(value: int) -> int:
            table = cc1 if value else cc0
            return max(x_inputs, key=lambda n: table[n])

        if op in ("buf", "inv"):
            flip = op == "inv"
            return (x_inputs[0], 1 - target if flip else target)
        if op in ("and", "nand"):
            out_all1 = target if op == "and" else 1 - target
            if out_all1:  # need every input 1
                return (hardest(1), 1)
            return (easiest(0), 0)  # any input 0 suffices
        if op in ("or", "nor"):
            out_any1 = target if op == "or" else 1 - target
            if out_any1:
                return (easiest(1), 1)
            return (hardest(0), 0)
        if op in ("xor", "xnor"):
            parity = 0
            for nid in gate.ins:
                v = gv[nid]
                if v != X and nid not in x_inputs:
                    parity ^= v
            want = target if op == "xor" else 1 - target
            chosen = x_inputs[0]
            # Assume the other X inputs resolve to 0.
            return (chosen, want ^ parity)
        if op == "mux2":
            a, b, s = gate.ins
            a_v, b_v, s_v = gv[a], gv[b], gv[s]
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
        if op in ("aoi21", "oai21"):
            a1, a2, b = gate.ins
            inner_and = op == "aoi21"
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
        return (x_inputs[0], target)
