"""The WCM problem instance: die + placement + baseline timing.

``build_problem`` performs the pre-algorithm steps of the paper's flow
(Fig. 6): scan stitching, placement, baseline STA, TSV analysis. The
tight-timing clock period is derived from the die *with mandatory
dedicated wrappers inserted* — every inbound TSV receives a test mux in
every method, so the period must budget for that structural overhead;
what differs between methods is only the reuse wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dft.scan import stitch_scan_chains
from repro.dft.wrapper import dedicated_plan, insert_wrappers
from repro.netlist.core import Netlist, PortKind
from repro.place.placer import PlacementConfig, place_die
from repro.sta.constraints import ClockConstraint, UNCONSTRAINED, tight_period_for
from repro.sta.timer import TimingContext, TimingResult, default_case
from repro.util.errors import ConfigError


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
    #: inbound TSV port -> its test mux's output net in the reference
    #: build (stable downstream topology for required-time queries)
    tsv_mux_out: Dict[str, str]
    #: the reference build itself (for re-timing under another clock)
    dedicated_netlist: Netlist
    #: critical path of the reference build (ps); basis of the tight
    #: clock period.
    dedicated_critical_path_ps: float
    #: reusable STA context for the reference build; ``retime`` reuses
    #: it so constraint sweeps skip the graph preparation.
    timing_context: Optional[TimingContext] = None
    #: the compiled gate graph and the cone bitsets keyed by TSV kind,
    #: shared by repeated graph builds over this problem and its
    #: retimes (see ``core.graph._cone_bitsets``).
    cone_bitset_cache: Dict = field(default_factory=dict)
    #: reference-build wrapper instance -> the bare-netlist object (TSV
    #: port or FF) it was placed at; lets an ECO session mirror a
    #: position edit into ``dedicated_netlist`` without re-inserting.
    dedicated_anchors: Dict[str, str] = field(default_factory=dict)

    # -- convenience views ------------------------------------------------
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
        context = self.timing_context or TimingContext(self.dedicated_netlist)
        timing = context.analyze(
            clock, case=default_case(self.dedicated_netlist, test_mode=0))
        test_timing = context.analyze(
            clock, case=default_case(self.dedicated_netlist, test_mode=1))
        return WcmProblem(
            netlist=self.netlist,
            timing=timing,
            test_timing=test_timing,
            tsv_mux_out=self.tsv_mux_out,
            dedicated_netlist=self.dedicated_netlist,
            dedicated_critical_path_ps=self.dedicated_critical_path_ps,
            timing_context=context,
            cone_bitset_cache=self.cone_bitset_cache,
            dedicated_anchors=self.dedicated_anchors,
        )


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
    wrapped, report = insert_wrappers(netlist, dedicated_plan(netlist))
    stitch_scan_chains(wrapped, restitch=True)
    context = TimingContext(wrapped)
    timing = context.analyze(clock, case=default_case(wrapped, test_mode=0))
    test_timing = context.analyze(clock,
                                  case=default_case(wrapped, test_mode=1))

    return WcmProblem(
        netlist=netlist,
        timing=timing,
        test_timing=test_timing,
        tsv_mux_out=dict(report.mux_out_nets),
        dedicated_netlist=wrapped,
        # The tight period must be feasible for the dedicated reference
        # build in BOTH sign-off modes (functional and at-speed test).
        dedicated_critical_path_ps=max(timing.critical_path_ps,
                                       test_timing.critical_path_ps),
        timing_context=context,
        dedicated_anchors=dict(report.placement_anchors),
    )


def tight_clock_for(problem: WcmProblem, margin: float = 0.08
                    ) -> ClockConstraint:
    """The performance-optimized clock for this die."""
    period = tight_period_for(problem.dedicated_critical_path_ps, margin)
    return ClockConstraint(period_ps=period)
