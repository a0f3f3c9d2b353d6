"""Reuse timing models: accurate (ours) vs load-only (Agrawal [4]).

Electrical story (matches :mod:`repro.dft.wrapper` insertion):

* an **inbound** wrapper group is driven by its wrapper source (a
  reused scan FF's Q, or a dedicated cell's Q) through one ``BUF_X2``
  placed at the source; the buffer fans out to one test mux per member
  TSV, each placed at its TSV site. The buffer's load is the members'
  mux pins and sink loads *plus the route capacitance* — ``cap_th`` is
  the buffer's max load. The FF itself only gains one buffer input pin
  per adopted group;
* an **outbound** wrapper group folds its members into one XOR chain
  behind a test-mode mux in front of the capturing FF's D pin. The
  capture path ``TSV → (wire) → XOR chain → mux → D`` must fit the
  period; the functional D path gains one mux stage.

The accurate model (``use_wire_delay=True``) includes the wire terms;
the Agrawal model [4] zeroes them — under tight timing it overcommits
and its solutions fail sign-off STA (Table III's 20/24 violations).

A scan FF may serve several groups ("reused multiple times"); the
:class:`FfReuseLedger` accumulates each FF's extra Q load and enforces
at most one outbound chain per FF. See DESIGN.md §4.

Algorithm 1 asks the model about every candidate pair, one row at a
time (:func:`repro.core.graph.build_wcm_graph`): a TSV against the TSVs
after it (:meth:`ReuseTimingModel.share_row`), or an FF against every
TSV (:meth:`ReuseTimingModel.reuse_row`). What a check reads of one
node is read once per row, not once per pair: the FF's inbound launch
term (Q arrival plus the slowdown of one more buffer pin) or outbound
D-source term, each TSV's share term (model load or functional
arrival) and each TSV's initial :class:`CliqueTimingState`. The
states are built once per model, keyed by ``(name, kind)``, and shared
(frozen) with :func:`~repro.core.clique.partition_cliques` and FF
adoption.

Each reuse formula is written once, in row form: the graph calls it
with a row of TSV singletons, :class:`FfReuseLedger` with the one
clique an FF would adopt, and :meth:`ReuseTimingModel.merged_state`
the capture check with the one merged chain. Library constants are
read once, in ``__init__``, so a pair costs its hop distance and a few
float operations. Every float sum keeps the evaluation order of the
per-pair formula (:func:`repro.verify.oracles.oracle_pair_feasible`),
so every decision is bit-identical to it. A model's caches are never
invalidated: a cold flow builds one model per flow and an ECO session
one per solve, after the solve's baseline refresh, and the problem's
positions and timing do not change while a model lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import WcmConfig
from repro.core.problem import WcmProblem
from repro.netlist.core import PortKind
from repro.sta.delay import WireModel
from repro.util.errors import ConfigError

INF = math.inf

#: safety margin (ps) kept between a predicted path and its requirement
PREDICTION_MARGIN_PS = 4.0

#: the inbound TSV kind, bound once
_INBOUND = PortKind.TSV_INBOUND


def _no_wire(length_um: float, load_ff: float = 0.0) -> float:
    """The wire terms of a model without wires."""
    return 0.0


@dataclass(frozen=True)
class CliqueTimingState:
    """Timing/load state of one clique. Frozen: initial TSV states are
    shared between the pair checks, the clique cover and adoption, and
    a merge builds a new state."""

    kind: PortKind
    members: Tuple[str, ...]
    anchor: Tuple[float, float]
    has_ff: bool
    #: buffer load the wrapper driver must carry (inbound groups)
    cap_ff: float = 0.0
    #: worst member-side arrival at the anchor (outbound groups)
    worst_arrival_ps: float = 0.0
    #: tightest required time among member TSV nets (inbound groups)
    min_required_ps: float = INF
    #: largest single member sink load (sets the slowest member mux)
    max_member_load_ff: float = 0.0
    #: farthest member from the anchor (um)
    max_span_um: float = 0.0
    # -- reused-FF data (when has_ff) ----------------------------------
    ff_name: Optional[str] = None
    ff_arrival_ps: float = 0.0
    ff_q_slack_ps: float = INF
    ff_resistance: float = 0.0
    #: arrival of the FF's functional D net (joins the XOR chain)
    ff_d_arrival_ps: float = 0.0
    #: worst member-net driver resistance (ps/fF) — the new XOR tap's
    #: wire load slows that driver down
    worst_member_resistance: float = 0.0
    #: tightest slack among member nets (both modes) — the tap slowdown
    #: must fit inside it, or the member's OTHER fanout paths violate
    min_member_slack_ps: float = INF
    #: slowdown of the functional D net from re-pinning (xor+mux pins)
    ff_d_slowdown_ps: float = 0.0


class ReuseTimingModel:
    """Feasibility oracle for reuse/sharing decisions."""

    def __init__(self, problem: WcmProblem, config: WcmConfig) -> None:
        self.problem = problem
        self.config = config
        self.timing = problem.timing
        self.test_timing = problem.test_timing
        library = problem.netlist.library
        self._mux = library.get("MUX2_X1")
        self._xor = library.get("XOR2_X1")
        self._buf = library.get("BUF_X2")
        self._sdff = library.get("SDFF_X1")
        #: physical wire model (matches the STA's defaults)
        self._wire = WireModel()
        # The "no timing constraint at all" scenario disables the whole
        # timing model (wire terms included): Table III's area columns
        # show both methods nearly identical, which only holds when the
        # area run is genuinely unconstrained.
        self._use_wire = config.use_wire_delay and config.scenario.is_timed
        #: the wire terms, ``_wire_cap(length)`` and
        #: ``_wire_delay(length, load)``: the wire model's, or zero
        self._wire_cap = (self._wire.wire_cap_ff if self._use_wire
                          else _no_wire)
        self._wire_delay = (self._wire.wire_delay_ps if self._use_wire
                            else _no_wire)
        period = config.scenario.clock.period_ps
        self._ff_required = (period - config.scenario.clock.setup_ps
                             if period is not None else INF)
        self._timed = config.scenario.is_timed
        self._s_th_margin = config.scenario.s_th_ps + PREDICTION_MARGIN_PS
        # Library constants of the wrapper cells, read once.
        self._mux_b_cap = self._mux.input_cap("B")
        self._two_mux_b_cap = 2 * self._mux_b_cap
        self._buf_pin_cap = self._buf.input_cap("A")
        self._xor_b_cap = self._xor.input_cap("B")
        xor_a_cap = self._xor.input_cap("A")
        sdff_d_cap = self._sdff.input_cap("D")
        self._xor_delay_ps = self._xor.delay_ps(xor_a_cap)
        self._two_xor_delay_ps = 2 * self._xor_delay_ps
        #: the test mux in front of a capturing FF's D pin
        self._capture_mux_ps = self._mux.delay_ps(sdff_d_cap)
        #: a dedicated cell's clock-to-Q into its group buffer
        self._dedicated_launch_ps = self._sdff.delay_ps(self._buf_pin_cap)
        #: re-pinning D onto the XOR/mux pair changes its net's load by
        #: (xor.A + mux.A - ff.D) and slows its driver
        self._d_repin_cap = max(xor_a_cap + self._mux.input_cap("A")
                                - sdff_d_cap, 0.0)
        # Memoized lookups over immutable problem state; each cache
        # returns exactly the value the uncached code would recompute.
        self._location_cache: Dict[str, Tuple[float, float]] = {}
        self._tsv_net_cache: Dict[str, str] = {}
        self._resistance_cache: Dict[str, float] = {}
        self._mux_b_required_cache: Dict[str, float] = {}
        self._load_cache: Dict[str, float] = {}
        #: every TSV's initial state (see the module docstring)
        self._tsv_states: Dict[Tuple[str, PortKind], CliqueTimingState] = {}

    # ------------------------------------------------------------------
    # Geometry / electrical primitives
    # ------------------------------------------------------------------
    def _location(self, name: str) -> Tuple[float, float]:
        loc = self._location_cache.get(name)
        if loc is None:
            loc = self._location_cache[name] = self.problem.location_of(name)
        return loc

    def distance_um(self, name_a: str, name_b: str) -> float:
        ax, ay = self._location(name_a)
        bx, by = self._location(name_b)
        return abs(ax - bx) + abs(ay - by)

    def _hop(self, ff_name: str, anchor: Tuple[float, float]) -> float:
        """Distance from an adopting FF to a clique's anchor (um)."""
        fx, fy = self._location(ff_name)
        return abs(fx - anchor[0]) + abs(fy - anchor[1])

    def _tsv_net(self, tsv_name: str) -> str:
        net = self._tsv_net_cache.get(tsv_name)
        if net is None:
            net = self.problem.netlist.port(tsv_name).net
            if net is None:
                raise ConfigError(f"TSV {tsv_name} unconnected")
            self._tsv_net_cache[tsv_name] = net
        return net

    # ------------------------------------------------------------------
    # Loads (the quantity compared against cap_th)
    # ------------------------------------------------------------------
    def pin_load_ff(self, tsv_name: str) -> float:
        """Sink pin capacitance of the TSV's net (no wire)."""
        return self.problem.netlist.sink_cap_ff(self._tsv_net(tsv_name))

    def model_load_ff(self, tsv_name: str) -> float:
        """The load this method's model attributes to an inbound TSV.

        Computed on the *bare* die (the functional sinks the test mux
        must re-drive): pin caps plus, for the accurate model, the
        star-route wire capacitance from the TSV to each sink.
        """
        cached = self._load_cache
        load = cached.get(tsv_name)
        if load is not None:
            return load
        netlist = self.problem.netlist
        net = netlist.net(self._tsv_net(tsv_name))
        port = netlist.port(tsv_name)
        total = 0.0
        for sink in net.sinks:
            if sink.is_port:
                continue
            inst = netlist.instance(sink.owner_name)
            if sink.pin_name in ("SI", "SE", "CK"):
                continue
            total += inst.cell.input_cap(sink.pin_name)
            if self._use_wire:
                length = (abs(port.x - inst.x) + abs(port.y - inst.y))
                total += self._wire.wire_cap_ff(length)
        cached[tsv_name] = total
        return total

    def _driver_resistance(self, net_name: str) -> float:
        resistance = self._resistance_cache.get(net_name)
        if resistance is None:
            net = self.problem.netlist.net(net_name)
            if net.driver is None or net.driver.is_port:
                resistance = 0.0
            else:
                inst = self.problem.netlist.instance(net.driver.owner_name)
                resistance = inst.cell.drive_resistance
            self._resistance_cache[net_name] = resistance
        return resistance

    def member_buffer_load(self, tsv_name: str) -> float:
        """What one member adds to the group buffer: its test mux pin
        (the mux re-drives the sink load itself)."""
        return self._mux_b_cap

    def required_at_mux_b(self, tsv_name: str) -> float:
        """Required time at the inbound test mux's B pin, from the
        test-mode STA of the reference build."""
        required = self._mux_b_required_cache.get(tsv_name)
        if required is None:
            required = self._required_at_mux_b(tsv_name)
            self._mux_b_required_cache[tsv_name] = required
        return required

    def _required_at_mux_b(self, tsv_name: str) -> float:
        mux_out = self.problem.tsv_mux_out.get(tsv_name)
        if mux_out is None:
            return INF
        required = self.test_timing.required_ps.get(mux_out, INF)
        if required is INF:
            return INF
        return required - self._mux.delay_ps(
            self.test_timing.load_of_net(mux_out))

    # ------------------------------------------------------------------
    # Node filters (Algorithm 1, node construction)
    # ------------------------------------------------------------------
    def inbound_node_eligible(self, tsv_name: str) -> bool:
        return self.model_load_ff(tsv_name) < self.config.scenario.cap_th_ff

    def outbound_node_eligible(self, tsv_name: str) -> bool:
        # The capture happens in test mode; use the test-mode slack.
        slack = self.test_timing.slack_of_port(tsv_name)
        return slack > self.config.scenario.s_th_ps

    # ------------------------------------------------------------------
    # Pair checks in row form (Algorithm 1, edge construction)
    # ------------------------------------------------------------------
    def share_term(self, tsv_name: str, kind: PortKind) -> float:
        """What the TSV–TSV share check reads of one TSV: its model load
        (inbound) or its functional arrival (outbound)."""
        if kind is _INBOUND:
            return self.model_load_ff(tsv_name)
        return self.timing.arrival_ps.get(self._tsv_net(tsv_name), 0.0)

    def share_row(self, kind: PortKind, term: float,
                  distances: Sequence[float], terms: Sequence[float]
                  ) -> List[bool]:
        """Can the TSV with share *term* share one wrapper group with
        each TSV of *terms*, *distances* um away?"""
        if kind is _INBOUND:
            return self.inbound_share_row(term, distances, terms)
        return self.outbound_share_row(term, distances, terms)

    def inbound_share_row(self, load: float, distances: Sequence[float],
                          loads: Sequence[float]) -> List[bool]:
        """Two inbound TSVs hang off one group buffer: both model loads,
        two mux pins and the coupling wire must stay under ``cap_th``."""
        cap_th = self.config.scenario.cap_th_ff
        if cap_th is INF:
            return [True] * len(distances)
        wire_cap, two_mux = self._wire_cap, self._two_mux_b_cap
        return [load + other + two_mux + wire_cap(distance) < cap_th
                for distance, other in zip(distances, loads)]

    def outbound_share_row(self, arrival: float, distances: Sequence[float],
                           arrivals: Sequence[float]) -> List[bool]:
        """Two outbound TSVs share one observation chain: the later of
        the two arrivals, through the wire, two XOR stages and the
        capture mux, must leave more than ``s_th`` of the period."""
        if not self._timed:
            return [True] * len(distances)
        wire_delay, xor_b = self._wire_delay, self._xor_b_cap
        two_xor, mux = self._two_xor_delay_ps, self._capture_mux_ps
        required, margin = self._ff_required, self._s_th_margin
        out = []
        for distance, other in zip(distances, arrivals):
            wire = wire_delay(distance, xor_b)
            worst = max(0.0, arrival + wire + two_xor + mux,
                        other + wire + two_xor + mux)
            out.append(required - worst > margin)
        return out

    def reuse_row(self, ff_name: str, kind: PortKind,
                  hops: Sequence[float],
                  states: Sequence[CliqueTimingState]) -> List[bool]:
        """Can *ff_name*, with an empty reuse budget, serve each TSV
        singleton of *states*, *hops* um away? The FF's launch or
        D-source term is computed once for the whole row."""
        if not self._timed:
            return [True] * len(states)
        if kind is _INBOUND:
            return self.inbound_reuse_row(
                self._inbound_launch(ff_name, 0.0), hops, states)
        return self.outbound_reuse_row(
            self._outbound_d_source(ff_name), hops, states)

    # ------------------------------------------------------------------
    # FF reuse terms and checks, shared by the graph's rows (empty
    # budget) and FfReuseLedger (one column, terms under its budget)
    # ------------------------------------------------------------------
    def _inbound_launch(self, ff_name: str, extra_q_cap: float
                        ) -> Optional[float]:
        """The FF side of an inbound reuse path: Q arrival plus the Q
        slowdown once the FF drives *extra_q_cap* and one more group
        buffer pin; None when that slowdown does not fit the Q slack."""
        ff = self.problem.netlist.instance(ff_name)
        q_net = ff.output_net()
        delta_delay = ff.cell.drive_resistance * (extra_q_cap
                                                  + self._buf_pin_cap)
        if self.timing.slack_of_net(q_net) \
                < delta_delay + PREDICTION_MARGIN_PS:
            return None
        return self.timing.arrival_ps.get(q_net, 0.0) + delta_delay

    def inbound_reuse_row(self, launch: Optional[float],
                          hops: Sequence[float],
                          states: Sequence[CliqueTimingState]
                          ) -> List[bool]:
        """Can an FF with inbound *launch* term drive each state's group
        buffer from its own site, *hops* um from the state's anchor?"""
        if launch is None:
            return [False] * len(states)
        wire_cap, wire_delay = self._wire_cap, self._wire_delay
        buf_delay, mux_b = self._buf.delay_ps, self._mux_b_cap
        cap_th = self.config.scenario.cap_th_ff
        out = []
        for hop, state in zip(hops, states):
            required = state.min_required_ps
            if required is INF:
                out.append(True)
                continue
            cap = state.cap_ff + wire_cap(hop)
            if cap >= cap_th:
                out.append(False)
                continue
            path = (launch + buf_delay(cap)
                    + wire_delay(state.max_span_um + hop, mux_b))
            out.append(path + PREDICTION_MARGIN_PS <= required)
        return out

    def _outbound_d_source(self, ff_name: str) -> Optional[float]:
        """The FF's D side of its XOR chain: the D net's test-mode
        arrival plus its re-pinning slowdown; None when the FF has no D
        net or the extra mux stage and slowdown do not fit D's slack."""
        d_net = self.problem.netlist.instance(ff_name).connections.get("D")
        if d_net is None:
            return None
        d_slow = self._driver_resistance(d_net) * self._d_repin_cap
        d_slack = min(self.timing.slack_of_net(d_net),
                      self.test_timing.slack_of_net(d_net))
        if d_slack < self._capture_mux_ps + d_slow + PREDICTION_MARGIN_PS:
            return None
        return self.test_timing.arrival_ps.get(d_net, 0.0) + d_slow

    def outbound_reuse_row(self, d_source: Optional[float],
                           hops: Sequence[float],
                           states: Sequence[CliqueTimingState]
                           ) -> List[bool]:
        """Can an FF with outbound *d_source* term capture each state's
        chain from its own site, *hops* um from the state's anchor?
        (The adopting FF's probe carries no member-slack bound.)"""
        spans = [state.max_span_um + hop for hop, state in zip(hops, states)]
        return self._capture_row(d_source, spans, states, INF)

    def _capture_row(self, d_source: Optional[float], spans: Sequence[float],
                     states: Sequence[CliqueTimingState],
                     member_slack: float) -> List[bool]:
        """Test-capture feasibility of each outbound chain of *states*
        whose farthest member sits *span* um from the chain, the
        capturing FF's D side arriving at *d_source* (None: the FF
        cannot capture at all)."""
        if d_source is None:
            return [False] * len(states)
        wire_cap, wire_delay = self._wire_cap, self._wire_delay
        xor_b, xor_delay = self._xor_b_cap, self._xor_delay_ps
        mux = self._capture_mux_ps
        required, margin = self._ff_required, self._s_th_margin
        out = []
        for span, state in zip(spans, states):
            tap_cap = xor_b + wire_cap(span)
            slowdown = state.worst_member_resistance * tap_cap
            # The tap slowdown also delays the member's other fanout;
            # it must fit inside the member's own slack.
            if slowdown + PREDICTION_MARGIN_PS > member_slack:
                out.append(False)
                continue
            member_source = (state.worst_arrival_ps + slowdown
                             + wire_delay(span, xor_b))
            capture = (max(member_source, d_source)
                       + max(1, len(state.members)) * xor_delay + mux)
            out.append(required - capture > margin)
        return out

    # ------------------------------------------------------------------
    # Clique state (Algorithm 2's `cap` bookkeeping)
    # ------------------------------------------------------------------
    def initial_state(self, name: str, kind: PortKind, is_ff: bool
                      ) -> CliqueTimingState:
        """A node's singleton clique state. A TSV's is built once per
        model and shared by every caller; an FF's is built per call."""
        if not is_ff:
            key = (name, kind)
            state = self._tsv_states.get(key)
            if state is None:
                state = self._tsv_states[key] = self._tsv_state(name, kind)
            return state
        location = self.problem.location_of(name)
        ff = self.problem.netlist.instance(name)
        q_net = ff.output_net()
        d_net = ff.connections.get("D")
        d_slow = 0.0
        if d_net is not None:
            d_slow = self._driver_resistance(d_net) * self._d_repin_cap
        return CliqueTimingState(
            kind=kind, members=(), anchor=location, has_ff=True,
            ff_name=name,
            ff_arrival_ps=self.timing.arrival_ps.get(q_net, 0.0),
            ff_q_slack_ps=self.timing.slack_of_net(q_net),
            ff_resistance=ff.cell.drive_resistance,
            ff_d_arrival_ps=(self.test_timing.arrival_ps.get(d_net, 0.0)
                             if d_net else 0.0),
            ff_d_slowdown_ps=d_slow,
        )

    def _tsv_state(self, name: str, kind: PortKind) -> CliqueTimingState:
        location = self.problem.location_of(name)
        if kind is _INBOUND:
            return CliqueTimingState(
                kind=kind, members=(name,), anchor=location, has_ff=False,
                cap_ff=self.member_buffer_load(name),
                min_required_ps=self.required_at_mux_b(name),
                max_member_load_ff=self.model_load_ff(name),
            )
        net = self._tsv_net(name)
        return CliqueTimingState(
            kind=kind, members=(name,), anchor=location, has_ff=False,
            worst_arrival_ps=self.test_timing.arrival_ps.get(net, 0.0),
            worst_member_resistance=self._driver_resistance(net),
            min_member_slack_ps=min(self.timing.slack_of_net(net),
                                    self.test_timing.slack_of_net(net)),
        )

    def _inbound_capture_ok(self, state: CliqueTimingState) -> bool:
        """Worst member path through buffer+mux vs. tightest required."""
        if not self._timed or state.min_required_ps is INF:
            return True
        if not state.has_ff:
            # Dedicated cell at the anchor: its launch is the SDFF's
            # clock-to-Q; members still pay buffer + route.
            path = (self._dedicated_launch_ps
                    + self._buf.delay_ps(state.cap_ff)
                    + self._wire_delay(state.max_span_um, self._mux_b_cap))
            return path + PREDICTION_MARGIN_PS <= state.min_required_ps
        # The baseline STA already includes each member's test mux (the
        # dedicated-wrapper reference build), so the prediction adds
        # only what reuse changes: FF loading, buffer, route.
        path = (state.ff_arrival_ps
                + state.ff_resistance * self._buf_pin_cap
                + self._buf.delay_ps(state.cap_ff)
                + self._wire_delay(state.max_span_um, self._mux_b_cap))
        return path + PREDICTION_MARGIN_PS <= state.min_required_ps

    def merged_state(self, a: CliqueTimingState, b: CliqueTimingState
                     ) -> Optional[CliqueTimingState]:
        """State after merging two cliques, or None if infeasible.

        This is the paper's ``cap + 1 < cap_th`` merge test, with the
        accurate model adding anchor-distance wire terms.
        """
        if a.has_ff and b.has_ff:
            return None
        if (len(a.members) + len(b.members)
                > self.config.max_group_size):
            return None
        primary, other = (a, b) if (a.has_ff or not b.has_ff) else (b, a)
        anchor = primary.anchor
        span = (abs(a.anchor[0] - b.anchor[0])
                + abs(a.anchor[1] - b.anchor[1]))
        members = a.members + b.members
        max_span = max(primary.max_span_um, other.max_span_um + span)

        common = dict(
            kind=a.kind, members=members, anchor=anchor,
            has_ff=a.has_ff or b.has_ff,
            ff_name=a.ff_name or b.ff_name,
            ff_arrival_ps=max(a.ff_arrival_ps, b.ff_arrival_ps),
            ff_q_slack_ps=min(a.ff_q_slack_ps, b.ff_q_slack_ps),
            ff_resistance=max(a.ff_resistance, b.ff_resistance),
            ff_d_arrival_ps=max(a.ff_d_arrival_ps, b.ff_d_arrival_ps),
            ff_d_slowdown_ps=max(a.ff_d_slowdown_ps, b.ff_d_slowdown_ps),
            worst_member_resistance=max(a.worst_member_resistance,
                                        b.worst_member_resistance),
            min_member_slack_ps=min(a.min_member_slack_ps,
                                    b.min_member_slack_ps),
            max_span_um=max_span,
        )

        if a.kind is _INBOUND:
            cap = a.cap_ff + b.cap_ff + self._wire_cap(span)
            if cap >= self.config.scenario.cap_th_ff:
                return None
            state = CliqueTimingState(
                cap_ff=cap,
                min_required_ps=min(a.min_required_ps, b.min_required_ps),
                max_member_load_ff=max(a.max_member_load_ff,
                                       b.max_member_load_ff),
                **common,
            )
            if not self._inbound_capture_ok(state):
                return None
            return state

        # Outbound: the XOR chain deepens with the member count.
        # worst_arrival_ps stays *raw* (at the member net); wire and
        # driver-slowdown terms are computed from the span when checked.
        worst_raw = max(a.worst_arrival_ps, b.worst_arrival_ps)
        state = CliqueTimingState(worst_arrival_ps=worst_raw, **common)
        if self._timed:
            d_source = ((state.ff_d_arrival_ps + state.ff_d_slowdown_ps)
                        if state.has_ff else 0.0)
            if not self._capture_row(d_source, [state.max_span_um], [state],
                                     state.min_member_slack_ps)[0]:
                return None
        return state


class FfReuseLedger:
    """Per-FF budget accounting for multi-group reuse (DESIGN.md §4).

    Runs the model's reuse checks under each FF's accumulated Q load,
    and allows each FF one outbound chain."""

    def __init__(self, model: ReuseTimingModel) -> None:
        self.model = model
        self._extra_q_cap: Dict[str, float] = {}
        self._outbound_used: Set[str] = set()

    # ------------------------------------------------------------------
    def inbound_adoption_feasible(self, ff_name: str,
                                  state: CliqueTimingState) -> bool:
        model = self.model
        if not model._timed:
            return True
        launch = model._inbound_launch(
            ff_name, self._extra_q_cap.get(ff_name, 0.0))
        return model.inbound_reuse_row(
            launch, [model._hop(ff_name, state.anchor)], [state])[0]

    def outbound_adoption_feasible(self, ff_name: str,
                                   state: CliqueTimingState) -> bool:
        model = self.model
        if ff_name in self._outbound_used:
            return False
        if not model._timed:
            return True
        return model.outbound_reuse_row(
            model._outbound_d_source(ff_name),
            [model._hop(ff_name, state.anchor)], [state])[0]

    # ------------------------------------------------------------------
    def adoption_feasible(self, ff_name: str, state: CliqueTimingState
                          ) -> bool:
        if state.kind is _INBOUND:
            return self.inbound_adoption_feasible(ff_name, state)
        return self.outbound_adoption_feasible(ff_name, state)

    def commit(self, ff_name: str, state: CliqueTimingState) -> None:
        if state.kind is _INBOUND:
            self._extra_q_cap[ff_name] = (self._extra_q_cap.get(ff_name, 0.0)
                                          + self.model._buf_pin_cap)
        else:
            self._outbound_used.add(ff_name)
