"""Stuck-at fault universe with structural equivalence collapsing.

Fault sites follow the classic stem/branch model:

* **stem** faults live on a net (at its driver's output),
* **branch** faults live on an individual sink pin of a multi-sink net,
* branches feeding an observation point directly (FF ``D`` pins,
  observed ports) are **obs-branch** faults: activation is detection.

Collapsing applies the textbook equivalences into the driving gate's
output faults (NAND input s-a-0 ≡ output s-a-1, and so on), which
roughly halves the universe without changing coverage semantics.

Exclusions:

* nets tied constant in test mode (``test_mode``, ``scan_enable``)
  cannot be toggled — their faults are constrained-untestable;
* inbound-TSV X-source nets are **pre-bond untestable**: the TSV
  floats, so no value on it can be controlled or observed; commercial
  flows report coverage with these excluded (test-coverage convention),
  and so do we. Both counts are recorded on the resulting
  :class:`FaultList` for transparency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dft.testview import TestView
from repro.netlist.core import Netlist, Pin, PortKind
from repro.util.rng import DeterministicRng


class Polarity(enum.IntEnum):
    SA0 = 0
    SA1 = 1


class FaultKind(enum.Enum):
    STEM = "stem"
    BRANCH = "branch"
    OBS_BRANCH = "obs_branch"


@dataclass(frozen=True)
class Fault:
    """One collapsed stuck-at fault."""

    kind: FaultKind
    polarity: Polarity
    net: str
    #: owning gate instance (BRANCH) or observer label (OBS_BRANCH)
    owner: str = ""
    pin: str = ""

    def describe(self) -> str:
        target = self.net if self.kind is FaultKind.STEM \
            else f"{self.owner}.{self.pin}"
        return f"{target} s-a-{int(self.polarity)}"


#: input-fault collapses per cell function:
#: function -> (input polarity collapsed away, or None)
_COLLAPSE_INPUT_POLARITY: Dict[str, Optional[Polarity]] = {
    "and": Polarity.SA0,
    "nand": Polarity.SA0,
    "or": Polarity.SA1,
    "nor": Polarity.SA1,
    # buf/inv collapse BOTH input polarities (handled specially)
}


@dataclass
class FaultList:
    """The measurement universe for one test view."""

    faults: List[Fault] = field(default_factory=list)
    #: faults dropped by equivalence collapsing (for reporting)
    collapsed_away: int = 0
    #: faults excluded because their site floats pre-bond (TSV X nets)
    prebond_untestable: int = 0
    #: faults excluded because their site is tied constant in test mode
    constrained_untestable: int = 0

    @property
    def total(self) -> int:
        return len(self.faults)

    def sample(self, count: int, seed: int) -> "FaultList":
        """Deterministic subsample used on the largest dies.

        The same (count, seed) yields the same universe for every
        method under comparison, so deltas remain meaningful.
        """
        if count >= len(self.faults):
            return self
        rng = DeterministicRng(seed).child("fault_sample", count)
        sampled = rng.sample(self.faults, count)
        return FaultList(
            faults=sampled,
            collapsed_away=self.collapsed_away,
            prebond_untestable=self.prebond_untestable,
            constrained_untestable=self.constrained_untestable,
        )


def _data_sinks(netlist: Netlist, net_name: str
                ) -> Tuple[List[Tuple[str, Pin]], int]:
    """Sinks of a net that matter for test.

    Returns ``(sinks, dark_sinks)`` where each sink is ``(kind, pin)``
    with kind 'gate' or 'obs' (FF D pin / observed port), and
    *dark_sinks* counts pins that are unobservable pre-bond (outbound
    TSV pads) whose branch faults are pre-bond untestable.
    """
    result: List[Tuple[str, Pin]] = []
    dark = 0
    net = netlist.net(net_name)
    for sink in net.sinks:
        if sink.is_port:
            port = netlist.port(sink.owner_name)
            if port.kind in (PortKind.PRIMARY_OUTPUT, PortKind.PSEUDO_OUTPUT):
                result.append(("obs", sink))
            elif port.kind is PortKind.TSV_OUTBOUND:
                dark += 1
            # scan-out sinks are shift-path only
            continue
        inst = netlist.instance(sink.owner_name)
        if inst.is_sequential:
            if sink.pin_name == "D":
                result.append(("obs", sink))
            continue  # SI/SE/CK do not exist in the combinational view
        result.append(("gate", sink))
    return result, dark


def build_fault_list(view: TestView, include_branches: bool = True,
                     collapse: bool = True) -> FaultList:
    """Build the collapsed stuck-at fault universe for *view*."""
    netlist = view.netlist
    x_nets = set(view.x_nets)
    constant_nets = set(view.constant_nets)
    observed_net_labels = {net: label for label, net in view.observe_nets}

    result = FaultList()

    for net_name, net in netlist.nets.items():
        sinks, dark_sinks = _data_sinks(netlist, net_name)
        is_observed_net = net_name in observed_net_labels
        if net_name not in x_nets and net_name not in constant_nets:
            # The pad-side wire of an unbonded outbound TSV is dark in
            # every method; the *net* itself stays in the universe (its
            # undetectability without a wrapper is the coverage gap
            # wrapper cells exist to close).
            result.prebond_untestable += 2 * dark_sinks
        if not sinks and not is_observed_net and not dark_sinks:
            continue  # clock/scan-enable distribution, dangling, etc.

        if net_name in x_nets:
            # Floating TSV: stem + its branches are pre-bond untestable.
            result.prebond_untestable += 2 * (1 + max(0, len(sinks) - 1))
            continue
        if net_name in constant_nets:
            result.constrained_untestable += 2 * (1 + max(0, len(sinks) - 1))
            continue

        driver_inst = None
        if net.driver is not None and not net.driver.is_port:
            driver_inst = netlist.instance(net.driver.owner_name)

        # ---- stem faults (with single-sink collapse into the sink gate)
        for polarity in (Polarity.SA0, Polarity.SA1):
            if collapse and len(sinks) == 1 and sinks[0][0] == "gate":
                sink_inst = netlist.instance(sinks[0][1].owner_name)
                fn = sink_inst.cell.function
                if fn in ("buf", "inv"):
                    result.collapsed_away += 1
                    continue
                if _COLLAPSE_INPUT_POLARITY.get(fn) is polarity:
                    result.collapsed_away += 1
                    continue
            result.faults.append(Fault(
                kind=FaultKind.STEM, polarity=polarity, net=net_name,
            ))

        # ---- branch faults on multi-sink nets ------------------------
        if not include_branches or len(sinks) < 2:
            continue
        for sink_kind, sink in sinks:
            for polarity in (Polarity.SA0, Polarity.SA1):
                if sink_kind == "gate":
                    sink_inst = netlist.instance(sink.owner_name)
                    fn = sink_inst.cell.function
                    if collapse and fn in ("buf", "inv"):
                        result.collapsed_away += 1
                        continue
                    if collapse and _COLLAPSE_INPUT_POLARITY.get(fn) is polarity:
                        result.collapsed_away += 1
                        continue
                    result.faults.append(Fault(
                        kind=FaultKind.BRANCH, polarity=polarity,
                        net=net_name, owner=sink.owner_name,
                        pin=sink.pin_name,
                    ))
                else:  # observation branch
                    result.faults.append(Fault(
                        kind=FaultKind.OBS_BRANCH, polarity=polarity,
                        net=net_name,
                        owner=sink.owner_name, pin=sink.pin_name,
                    ))
    return result
