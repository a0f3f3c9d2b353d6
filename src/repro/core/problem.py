"""The WCM problem instance and the sign-off build it is timed on.

``build_problem`` performs the pre-algorithm steps of the paper's flow
(Fig. 6): scan stitching, placement, baseline STA, TSV analysis. The
tight-timing clock period is derived from the die *with mandatory
dedicated wrappers inserted* — every inbound TSV receives a test mux in
every method, so the period must budget for that structural overhead;
what differs between methods is only the reuse wiring.

:class:`SignoffBuild` is the one place a wrapper plan becomes a timed
die: insert, restitch, one :class:`~repro.sta.timer.TimingContext`,
both sign-off modes. The problem's dedicated reference build, every
sign-off round of the flow and every entry of an ECO session's plan
cache is one; its :meth:`~SignoffBuild.follow` is the warm path that
re-times a build after FF/TSV moves instead of building it again.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.dft.scan import _serpentine_order, stitch_scan_chains
from repro.dft.wrapper import WrapperPlan, dedicated_plan, insert_wrappers
from repro.netlist.core import Netlist, PortKind
from repro.place.placer import PlacementConfig, place_die
from repro.runtime import trace
from repro.sta.constraints import ClockConstraint, UNCONSTRAINED, tight_period_for
from repro.sta.timer import TimingContext, TimingResult, default_case
from repro.util.errors import ConfigError

#: both sign-off results of one build: functional (``test_mode`` 0)
#: and at-speed test capture (``test_mode`` 1)
SignoffTiming = Tuple[TimingResult, TimingResult]

_SCAN_PORT_KINDS = (PortKind.SCAN_IN, PortKind.SCAN_OUT,
                    PortKind.SCAN_ENABLE)


def _scan_port_nets(netlist: Netlist) -> Set[str]:
    return {port.net for port in netlist.ports.values()
            if port.kind in _SCAN_PORT_KINDS and port.net is not None}


def _restitch_in_place(netlist: Netlist) -> Set[str]:
    """Rewire the scan chains of an already-stitched netlist and return
    the nets whose timing quantities can change. A chain-order change
    only re-routes SI wiring — untimed and excluded from every load —
    except at the scan ports: the shared scan-enable net (its SE sink
    order feeds the load sum), the scan-in nets, and the old and new
    chain-tail Q nets that carry the scan-out ports (an output-port
    sink adds load and an endpoint)."""
    affected = _scan_port_nets(netlist)
    stitch_scan_chains(netlist, restitch=True)
    return affected | _scan_port_nets(netlist)


def _phase(name: Optional[str]):
    """The phase span *name*, or no span for ``None``."""
    return (trace.span(name, kind="phase") if name
            else contextlib.nullcontext())


class SignoffBuild:
    """A wrapper plan inserted into a bare die, restitched, and bound to
    one timing context.

    Cold, the build is :meth:`analyze`-d under a clock. Warm,
    :meth:`follow` carries it through FF/TSV moves of the bare die,
    patching the wrapped die and the context in place; the results are
    byte-identical to a cold build of the moved die. The chain order
    and the sites-to-gear map that :meth:`follow` needs are derived on
    its first call, so a build that is never followed pays for neither.
    """

    def __init__(self, bare: Netlist, plan: WrapperPlan) -> None:
        self.wrapped, self.report = insert_wrappers(bare, plan)
        stitch_scan_chains(self.wrapped, restitch=True)
        self.context = TimingContext(self.wrapped)
        #: serpentine order of the wrapped die's scan FFs as stitched
        self._order: Optional[List[str]] = None
        #: bare FF/TSV name -> wrapper instances placed at its site
        self._anchored: Optional[Dict[str, List[str]]] = None

    @classmethod
    def signoff(cls, bare: Netlist, plan: WrapperPlan,
                clock: ClockConstraint
                ) -> Tuple["SignoffBuild", SignoffTiming]:
        """One sign-off round built cold: insertion and restitch in the
        ``flow.insertion`` phase, both analyses in ``flow.sta``."""
        with trace.span("flow.insertion", kind="phase"):
            build = cls(bare, plan)
        with trace.span("flow.sta", kind="phase"):
            return build, build.analyze(clock)

    def _cases(self) -> List[Dict[str, int]]:
        return [default_case(self.wrapped, test_mode=mode) for mode in (0, 1)]

    def analyze(self, clock: ClockConstraint) -> SignoffTiming:
        """Both sign-off analyses under *clock*. The modes share the
        context's compiled graph; only their sweeps differ."""
        functional, test = (self.context.analyze(clock, case=case)
                            for case in self._cases())
        return functional, test

    def _chain_order(self) -> List[str]:
        return [ff.name for ff in
                _serpentine_order(self.wrapped.scan_flip_flops())]

    def follow(self, sites: Mapping[str, Tuple[float, float]],
               previous: SignoffTiming, *,
               edit_phase: Optional[str] = "flow.insertion",
               restitch_phase: Optional[str] = None,
               sta_phase: Optional[str] = "flow.sta"
               ) -> Tuple[SignoffTiming, bool]:
        """Re-time the build after FF/TSV moves of its bare die.

        *sites* maps bare FF and TSV names to their sites now. Each one
        whose twin in the wrapped die stands elsewhere is copied onto the
        twin and onto the wrapper gear anchored at it. When that changes
        the serpentine chain order, the chains are restitched in place
        and the scan-port nets join the dirty set
        (:func:`_restitch_in_place`). The dirty nets are invalidated and
        both modes delta-timed from *previous*, under its clock.

        Returns the new results and whether the chains were restitched
        (*previous* and ``False`` when no site moved). The site edit,
        the restitch and the re-time run in the phase spans named for
        them; ``None`` opens no span of its own."""
        wrapped = self.wrapped
        instances, ports = wrapped.instances, wrapped.ports
        moved = []
        for name, (x, y) in sites.items():
            twin = instances.get(name) or ports.get(name)
            if twin is not None and (twin.x != x or twin.y != y):
                moved.append(name)
        if not moved:
            return previous, False
        with _phase(edit_phase):
            if self._anchored is None:
                self._order = self._chain_order()
                self._anchored = {}
                for inst, anchor in self.report.placement_anchors.items():
                    self._anchored.setdefault(anchor, []).append(inst)
            dirty: Set[str] = set()
            for name in moved:
                x, y = sites[name]
                for target in (name, *self._anchored.get(name, ())):
                    inst = instances.get(target)
                    if inst is not None:
                        inst.x, inst.y = x, y
                        dirty.update(inst.connections.values())
                        continue
                    port = ports[target]
                    port.x, port.y = x, y
                    if port.net is not None:
                        dirty.add(port.net)
            order = self._chain_order()
            restitched = order != self._order
            if restitched:
                with _phase(restitch_phase):
                    dirty |= _restitch_in_place(wrapped)
                self._order = order
        with _phase(sta_phase):
            self.context.invalidate_nets(sorted(dirty))
            functional, test = (
                self.context.analyze_delta(before.constraint, case=case,
                                           previous=before,
                                           dirty_nets=dirty)
                for case, before in zip(self._cases(), previous))
        return (functional, test), restitched


@dataclass
class WcmProblem:
    """Everything the WCM algorithms consume for one die."""

    netlist: Netlist  # scan-stitched and placed (the bare die)
    #: STA of the *dedicated-wrapper reference build* under the scenario
    #: clock with the full wire model. Net names survive insertion, so
    #: every query the algorithms make (TSV-net arrival/required, FF
    #: Q/D slack, port slack) already includes the mandatory test muxes
    #: each method must insert anyway; predictions then add only what
    #: reuse changes.
    timing: TimingResult
    #: STA of the reference build in at-speed test mode (test_mode=1);
    #: capture-path predictions read arrivals/requireds from here.
    test_timing: TimingResult
    #: the dedicated-wrapper reference build; ``retime`` re-analyzes its
    #: context under another clock, an ECO session follows it to moves
    reference: SignoffBuild
    #: critical path of the reference build (ps); basis of the tight
    #: clock period.
    dedicated_critical_path_ps: float
    #: the compiled gate graph and the cone bitsets keyed by TSV kind,
    #: shared by repeated graph builds over this problem and its
    #: retimes (see ``core.graph._cone_bitsets``).
    cone_bitset_cache: Dict = field(default_factory=dict)

    # -- convenience views ------------------------------------------------
    @property
    def dedicated_netlist(self) -> Netlist:
        return self.reference.wrapped

    @property
    def tsv_mux_out(self) -> Dict[str, str]:
        """Inbound TSV port -> its test mux's output net in the
        reference build (stable downstream topology for required-time
        queries)."""
        return self.reference.report.mux_out_nets

    @property
    def scan_ffs(self) -> List[str]:
        return [inst.name for inst in self.netlist.scan_flip_flops()]

    @property
    def inbound_tsvs(self) -> List[str]:
        return [p.name for p in self.netlist.inbound_tsvs()]

    @property
    def outbound_tsvs(self) -> List[str]:
        return [p.name for p in self.netlist.outbound_tsvs()]

    def tsvs_of_kind(self, kind: PortKind) -> List[str]:
        if kind is PortKind.TSV_INBOUND:
            return self.inbound_tsvs
        if kind is PortKind.TSV_OUTBOUND:
            return self.outbound_tsvs
        raise ConfigError(f"not a TSV kind: {kind}")

    def location_of(self, name: str):
        return self.netlist.location_of(name)

    def retime(self, clock: ClockConstraint) -> "WcmProblem":
        """Re-run the baseline STAs under a different clock constraint."""
        timing, test_timing = self.reference.analyze(clock)
        return dataclasses.replace(self, timing=timing,
                                   test_timing=test_timing)


def build_problem(netlist: Netlist, clock: ClockConstraint = UNCONSTRAINED,
                  placement: Optional[PlacementConfig] = None,
                  already_prepared: bool = False) -> WcmProblem:
    """Prepare a die netlist for WCM (stitch, place, analyze).

    With ``already_prepared=True`` the netlist is assumed stitched and
    placed (used when a caller shares one prepared die across several
    method/scenario runs).
    """
    if not already_prepared:
        stitch_scan_chains(netlist)
        place_die(netlist, placement)

    # Dedicated-wrapper reference build: the tight-period basis AND the
    # baseline STA every feasibility prediction is made against.
    reference = SignoffBuild(netlist, dedicated_plan(netlist))
    timing, test_timing = reference.analyze(clock)
    return WcmProblem(
        netlist=netlist,
        timing=timing,
        test_timing=test_timing,
        reference=reference,
        # The tight period must be feasible for the dedicated reference
        # build in BOTH sign-off modes (functional and at-speed test).
        dedicated_critical_path_ps=max(timing.critical_path_ps,
                                       test_timing.critical_path_ps),
    )


def tight_clock_for(problem: WcmProblem, margin: float = 0.08
                    ) -> ClockConstraint:
    """The performance-optimized clock for this die."""
    period = tight_period_for(problem.dedicated_critical_path_ps, margin)
    return ClockConstraint(period_ps=period)
