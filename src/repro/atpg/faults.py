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

The rules are stated once, net by net, in :func:`_fault_sites`:
:func:`build_fault_list` turns its sites into :class:`Fault` objects and
:func:`count_faults` only counts them (the testability estimator needs
the universe's size, not its members).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.dft.testview import TestView
from repro.netlist.core import Net, Netlist, Pin, PortKind
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


#: both polarities: what an uncollapsed site keeps
_BOTH: Tuple[Polarity, ...] = (Polarity.SA0, Polarity.SA1)

#: the input-pin polarities that survive equivalence collapsing, per cell
#: function (any other function keeps both): an AND/NAND input s-a-0 is
#: the output's s-a-0/s-a-1, OR/NOR fold s-a-1 the same way, and both
#: faults on a buffer's or inverter's input are its output's
_KEPT_INPUT_POLARITIES: Dict[str, Tuple[Polarity, ...]] = {
    "and": (Polarity.SA1,),
    "nand": (Polarity.SA1,),
    "or": (Polarity.SA0,),
    "nor": (Polarity.SA0,),
    "buf": (),
    "inv": (),
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


#: one fault site on a net's sink: (kind, sink pin, kept polarities)
_Site = Tuple[FaultKind, Pin, Tuple[Polarity, ...]]


def _data_sinks(netlist: Netlist, net: Net, collapse: bool
                ) -> Tuple[List[_Site], int]:
    """Sinks of a net that matter for test.

    Returns ``(sinks, dark_sinks)``. Each sink is a :data:`_Site`: a gate
    input (``BRANCH``, keeping the polarities its cell function leaves
    after collapsing) or an observation point (``OBS_BRANCH``: an FF
    ``D`` pin or an observed port, both polarities). *dark_sinks*
    counts pins that are unobservable pre-bond (outbound TSV pads),
    whose branch faults are pre-bond untestable.
    """
    result: List[_Site] = []
    dark = 0
    for sink in net.sinks:
        if sink.is_port:
            kind = netlist.ports[sink.owner_name].kind
            if kind in (PortKind.PRIMARY_OUTPUT, PortKind.PSEUDO_OUTPUT):
                result.append((FaultKind.OBS_BRANCH, sink, _BOTH))
            elif kind is PortKind.TSV_OUTBOUND:
                dark += 1
            # scan-out sinks are shift-path only
            continue
        cell = netlist.instances[sink.owner_name].cell
        if cell.is_sequential:
            if sink.pin_name == "D":
                result.append((FaultKind.OBS_BRANCH, sink, _BOTH))
            continue  # SI/SE/CK do not exist in the combinational view
        result.append((FaultKind.BRANCH, sink,
                       _KEPT_INPUT_POLARITIES.get(cell.function, _BOTH)
                       if collapse else _BOTH))
    return result, dark


def _fault_sites(view: TestView, include_branches: bool, collapse: bool,
                 tally: FaultList
                 ) -> Iterator[Tuple[str, Tuple[Polarity, ...], List[_Site]]]:
    """The universe's rules, net by net.

    Yields ``(net, stem polarities, branch sites)`` for every net that
    carries faults, in net order; a net's branch sites are listed only
    when it has two or more data sinks. A single-sink stem collapses
    into its gate sink the way that sink's input does. Nets with no
    data sink, no observation and no dark sink carry nothing; X nets
    and constant nets carry only untestable faults, counted into
    *tally*.
    """
    netlist = view.netlist
    x_nets = set(view.x_nets)
    constant_nets = set(view.constant_nets)
    observed_nets = {net for _label, net in view.observe_nets}

    for net_name, net in netlist.nets.items():
        sinks, dark_sinks = _data_sinks(netlist, net, collapse)
        if not sinks and not dark_sinks and net_name not in observed_nets:
            continue  # clock/scan-enable distribution, dangling, etc.
        untestable = 2 * max(1, len(sinks))  # the stem + its branches
        if net_name in x_nets:
            # Floating TSV: stem + its branches are pre-bond untestable.
            tally.prebond_untestable += untestable
            continue
        if net_name in constant_nets:
            tally.constrained_untestable += untestable
            continue
        # The pad-side wire of an unbonded outbound TSV is dark in every
        # method; the *net* itself stays in the universe (its
        # undetectability without a wrapper is the coverage gap wrapper
        # cells exist to close).
        tally.prebond_untestable += 2 * dark_sinks

        if len(sinks) == 1 and sinks[0][0] is FaultKind.BRANCH:
            yield net_name, sinks[0][2], []
        elif include_branches and len(sinks) >= 2:
            yield net_name, _BOTH, sinks
        else:
            yield net_name, _BOTH, []


def build_fault_list(view: TestView, include_branches: bool = True,
                     collapse: bool = True) -> FaultList:
    """Build the collapsed stuck-at fault universe for *view*."""
    result = FaultList()
    faults = result.faults
    for net_name, stems, branches in _fault_sites(
            view, include_branches, collapse, result):
        result.collapsed_away += 2 - len(stems)
        for polarity in stems:
            faults.append(Fault(kind=FaultKind.STEM, polarity=polarity,
                                net=net_name))
        for kind, sink, polarities in branches:
            result.collapsed_away += 2 - len(polarities)
            for polarity in polarities:
                faults.append(Fault(kind=kind, polarity=polarity,
                                    net=net_name, owner=sink.owner_name,
                                    pin=sink.pin_name))
    return result


def count_faults(view: TestView) -> int:
    """Size of the collapsed universe with branches,
    ``build_fault_list(view).total``, without building a fault."""
    total = 0
    for _net, stems, branches in _fault_sites(view, True, True,
                                              FaultList()):
        total += len(stems)
        for _kind, _pin, polarities in branches:
            total += len(polarities)
    return total
