"""Testability estimates for overlapped-cone sharing.

Algorithm 1 admits an edge despite overlapping cones when the estimated
coverage drop stays below ``cov_th`` and the pattern increase below
``p_th``. The paper delegates this to a commercial ATPG; here the
estimate is structural and calibrated on the die itself:

* the fault universe is that of an *ideal wrapped view* of the bare
  die (every inbound TSV an independent control column, every outbound
  TSV observed) — the best any wrapper plan could do;
* both stem polarities of every object inside the cone overlap are at
  risk of correlation masking (a tied control column or an XOR-merged
  observation); half of them are counted as lost, so the coverage
  drop is the overlap size scaled against the universe;
* the pattern increase is one deterministic pattern per ten overlap
  objects.

The universe is counted once per estimator, on first use, in one pass
over the nets (:func:`repro.atpg.faults.count_faults`; no fault object
is built, and ``build_fault_list(...).total`` is its oracle). After
that an estimate is a pure function of the overlap's size, which the
sharing graph reads as the popcount of two cone bitsets' AND, so
nothing is cached per pair and no cone is intersected as a set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.atpg.faults import count_faults
from repro.core.problem import WcmProblem
from repro.dft.testview import TestView
from repro.netlist.core import Netlist, PortKind


@dataclass(frozen=True)
class OverlapEstimate:
    """Estimated testability impact of one sharing decision."""

    coverage_drop: float  # fraction of the fault universe
    extra_patterns: int

    def within(self, cov_th: float, p_th: int) -> bool:
        return self.coverage_drop < cov_th and self.extra_patterns < p_th


def build_ideal_wrapped_view(netlist: Netlist) -> TestView:
    """Test view of the die as if every TSV had its own wrapper cell:
    inbound TSVs controllable, outbound TSVs observable."""
    view = TestView(netlist=netlist)
    for port in netlist.ports.values():
        if port.net is None:
            continue
        if port.kind in (PortKind.PRIMARY_INPUT, PortKind.TSV_INBOUND):
            view.control_nets.append(port.net)
        elif port.kind in (PortKind.PRIMARY_OUTPUT, PortKind.TSV_OUTBOUND):
            view.observe_nets.append((port.name, port.net))
        elif port.kind is PortKind.TEST_MODE:
            view.constant_nets[port.net] = 1
        elif port.kind is PortKind.SCAN_ENABLE:
            view.constant_nets[port.net] = 0
    for ff in netlist.flip_flops():
        q_net = ff.output_net()
        if q_net is not None:
            view.control_nets.append(q_net)
        d_net = ff.connections.get("D")
        if d_net is not None:
            view.observe_nets.append((ff.name, d_net))
    return view


class OverlapTestabilityEstimator:
    """Sharing-impact estimates for one die."""

    def __init__(self, problem: WcmProblem) -> None:
        self.problem = problem
        self._universe: Optional[int] = None

    def universe_size(self) -> int:
        """Collapsed fault count of the ideal wrapped view (counted on
        first use; never below 1)."""
        if self._universe is None:
            view = build_ideal_wrapped_view(self.problem.netlist)
            self._universe = max(1, count_faults(view))
        return self._universe

    def estimate(self, overlap_size: int) -> OverlapEstimate:
        """Impact of letting two nodes share, given the size of their
        non-empty cone overlap (in gates): half of the overlap's stem
        faults (both polarities) are counted as lost and one overlap
        object in ten needs a deterministic pattern."""
        drop = 0.5 * (2.0 * overlap_size) / self.universe_size()
        extra = math.ceil(0.1 * overlap_size)
        return OverlapEstimate(coverage_drop=drop, extra_patterns=extra)
