"""Wrapper plan model and physical wrapper insertion (paper Fig. 3).

A :class:`WrapperPlan` is the outcome of any WCM algorithm: a set of
:class:`WrapperGroup` cliques — TSVs that share one wrapper cell, which
is either a reused scan flip-flop or a newly inserted dedicated cell —
plus the TSVs excluded from sharing by Algorithm 1's node filter (each
gets its own dedicated cell).

``insert_wrappers`` materializes a plan on a cloned netlist:

* inbound TSV served by cell/FF ``w``: every sink of the TSV net is
  re-driven through a ``MUX2`` (A = TSV, B = w.Q, S = test_mode)
  placed at the TSV site — Fig. 3(a);
* outbound TSV observed by scan FF ``f``: an XOR folds the TSV value
  into ``f``'s D path behind a test-mode mux — Fig. 3(b); groups with
  several TSVs chain XORs (which is where observation aliasing, and
  hence the testability constraint, comes from);
* dedicated wrapper cells are scan FFs (plus the same mux/XOR gear)
  placed at the TSV site.

After insertion the scan chains must be restitched so new cells are
load/unload-able; ``repro.core.problem.SignoffBuild`` does this for
every build the flow times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netlist.core import Instance, Netlist, PortKind
from repro.util.errors import NetlistError


@dataclass
class WrapperGroup:
    """One clique of the WCM solution."""

    kind: PortKind  # TSV_INBOUND or TSV_OUTBOUND
    tsvs: List[str]  # TSV port names sharing one wrapper cell
    reused_ff: Optional[str] = None  # scan FF instance name, or None

    def __post_init__(self) -> None:
        if self.kind not in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND):
            raise NetlistError(f"wrapper group kind must be a TSV kind, "
                               f"got {self.kind}")
        if not self.tsvs:
            raise NetlistError("wrapper group with no TSVs")

    @property
    def needs_additional_cell(self) -> bool:
        return self.reused_ff is None


@dataclass
class WrapperPlan:
    """A complete wrapper-cell assignment for one die."""

    die_name: str
    groups: List[WrapperGroup] = field(default_factory=list)
    #: TSVs excluded by the node filter (load/slack); dedicated cells.
    excluded_tsvs: List[str] = field(default_factory=list)

    # ---- the paper's reported quantities -----------------------------
    @property
    def reused_scan_ff_count(self) -> int:
        return sum(1 for g in self.groups if g.reused_ff is not None)

    @property
    def additional_wrapper_cells(self) -> int:
        return (sum(1 for g in self.groups if g.needs_additional_cell)
                + len(self.excluded_tsvs))

    @property
    def wrapped_tsv_count(self) -> int:
        return (sum(len(g.tsvs) for g in self.groups)
                + len(self.excluded_tsvs))

    def validate(self, netlist: Netlist) -> None:
        """Check the plan is a partition of the die's TSVs.

        A scan FF may be reused by several groups (see DESIGN.md §4)
        but can anchor at most ONE outbound group — only one XOR/mux
        chain fits in front of its D pin.
        """
        seen_tsvs: Dict[str, str] = {}
        outbound_ffs: Dict[str, int] = {}
        for index, group in enumerate(self.groups):
            for tsv in group.tsvs:
                port = netlist.port(tsv)
                if port.kind is not group.kind:
                    raise NetlistError(
                        f"plan {self.die_name}: TSV {tsv} is "
                        f"{port.kind.value} but group {index} is "
                        f"{group.kind.value}"
                    )
                if tsv in seen_tsvs:
                    raise NetlistError(
                        f"plan {self.die_name}: TSV {tsv} in two groups"
                    )
                seen_tsvs[tsv] = f"group{index}"
            if group.reused_ff is not None:
                inst = netlist.instance(group.reused_ff)
                if not inst.is_scan:
                    raise NetlistError(
                        f"plan {self.die_name}: {group.reused_ff} is not "
                        f"a scan flip-flop"
                    )
                if group.kind is PortKind.TSV_OUTBOUND:
                    if group.reused_ff in outbound_ffs:
                        raise NetlistError(
                            f"plan {self.die_name}: scan FF "
                            f"{group.reused_ff} anchors two outbound groups"
                        )
                    outbound_ffs[group.reused_ff] = index
        for tsv in self.excluded_tsvs:
            netlist.port(tsv)  # must exist
            if tsv in seen_tsvs:
                raise NetlistError(
                    f"plan {self.die_name}: excluded TSV {tsv} also in a group"
                )
            seen_tsvs[tsv] = "excluded"
        all_tsvs = {p.name for p in netlist.inbound_tsvs()}
        all_tsvs |= {p.name for p in netlist.outbound_tsvs()}
        missing = all_tsvs - set(seen_tsvs)
        if missing:
            raise NetlistError(
                f"plan {self.die_name}: {len(missing)} TSVs unwrapped, "
                f"e.g. {sorted(missing)[:3]}"
            )


def dedicated_plan(netlist: Netlist) -> WrapperPlan:
    """The pre-reuse baseline [1], [2], [13]: one dedicated wrapper cell
    at every TSV endpoint, no sharing, no reuse."""
    plan = WrapperPlan(die_name=netlist.name)
    for port in netlist.inbound_tsvs():
        plan.groups.append(WrapperGroup(PortKind.TSV_INBOUND, [port.name]))
    for port in netlist.outbound_tsvs():
        plan.groups.append(WrapperGroup(PortKind.TSV_OUTBOUND, [port.name]))
    return plan


@dataclass
class InsertionReport:
    """What insertion physically added."""

    reused_ffs: int = 0
    wrapper_cells: int = 0
    muxes: int = 0
    xors: int = 0
    #: wrapper cell / reused FF name per group index
    group_cells: List[str] = field(default_factory=list)
    #: inbound TSV port name -> its test mux's output net
    mux_out_nets: Dict[str, str] = field(default_factory=dict)
    #: inserted instance names per group (plan.groups order, then one
    #: entry per excluded TSV) — lets sign-off repair attribute a
    #: violating path to the group that created it
    group_instances: List[List[str]] = field(default_factory=list)
    #: inserted instance name -> name of the pre-existing object (TSV
    #: port or reused FF) whose site it was placed at; lets a sign-off
    #: build follow a moved site with its gear instead of re-running
    #: insertion
    placement_anchors: Dict[str, str] = field(default_factory=dict)


def insert_wrappers(netlist: Netlist, plan: WrapperPlan
                    ) -> Tuple[Netlist, InsertionReport]:
    """Materialize *plan* on a clone of *netlist*; returns the wrapped
    netlist and an :class:`InsertionReport`.

    New cells are placed at the TSV site (inbound muxes, dedicated
    cells) or at the reused FF site (outbound XOR/mux), so post-
    insertion STA sees the true FF<->TSV wire lengths.
    """
    plan.validate(netlist)
    work = netlist.clone(f"{netlist.name}_wrapped")
    report = InsertionReport()

    clock_nets = [p.net for p in work.ports.values()
                  if p.kind is PortKind.CLOCK and p.net]
    if not clock_nets:
        raise NetlistError(f"{work.name}: no clock port; cannot add "
                           f"wrapper cells")
    clock_net = clock_nets[0]

    if not any(p.kind is PortKind.TEST_MODE for p in work.ports.values()):
        tm_net = work.add_net("test_mode")
        work.add_port("test_mode__port", PortKind.TEST_MODE, net=tm_net.name)
    test_mode_net = next(p.net for p in work.ports.values()
                         if p.kind is PortKind.TEST_MODE)

    counters = {"mux": 0, "xor": 0, "cell": 0, "net": 0, "buf": 0}

    def new_net(prefix: str) -> str:
        counters["net"] += 1
        return work.add_net(f"wrap_{prefix}_{counters['net']}").name

    def new_mux(a: str, b: str, out: str, x: float, y: float,
                anchor: str) -> Instance:
        counters["mux"] += 1
        report.muxes += 1
        inst = work.add_instance(f"wrapmux_{counters['mux']}", "MUX2_X1")
        work.connect(inst.name, "A", a)
        work.connect(inst.name, "B", b)
        work.connect(inst.name, "S", test_mode_net)
        work.connect(inst.name, "Z", out)
        inst.x, inst.y = x, y
        report.placement_anchors[inst.name] = anchor
        return inst

    def new_xor(a: str, b: str, out: str, x: float, y: float,
                anchor: str) -> Instance:
        counters["xor"] += 1
        report.xors += 1
        inst = work.add_instance(f"wrapxor_{counters['xor']}", "XOR2_X1")
        work.connect(inst.name, "A", a)
        work.connect(inst.name, "B", b)
        work.connect(inst.name, "Z", out)
        inst.x, inst.y = x, y
        report.placement_anchors[inst.name] = anchor
        return inst

    def new_buffer(source_net: str, x: float, y: float,
                   anchor: str) -> str:
        """Per-group X2 driver buffer; returns its output net."""
        counters["buf"] += 1
        inst = work.add_instance(f"wrapbuf_{counters['buf']}", "BUF_X2")
        work.connect(inst.name, "A", source_net)
        out = new_net("bufz")
        work.connect(inst.name, "Z", out)
        inst.x, inst.y = x, y
        report.placement_anchors[inst.name] = anchor
        return out

    def new_wrapper_cell(d_net: str, x: float, y: float,
                         anchor: str) -> Instance:
        counters["cell"] += 1
        report.wrapper_cells += 1
        inst = work.add_instance(f"wrapcell_{counters['cell']}", "SDFF_X1")
        work.connect(inst.name, "D", d_net)
        work.connect(inst.name, "CK", clock_net)
        work.connect(inst.name, "Q", new_net("q"))
        inst.x, inst.y = x, y
        report.placement_anchors[inst.name] = anchor
        return inst

    _prefixes = {"mux": "wrapmux", "xor": "wrapxor", "cell": "wrapcell",
                 "buf": "wrapbuf"}

    def insert_group(group: WrapperGroup) -> None:
        before = {key: counters[key] for key in _prefixes}
        _do_insert_group(group)
        inserted = [
            f"{prefix}_{i}"
            for key, prefix in _prefixes.items()
            for i in range(before[key] + 1, counters[key] + 1)
        ]
        report.group_instances.append(inserted)

    def _do_insert_group(group: WrapperGroup) -> None:
        first_port = work.port(group.tsvs[0])
        if group.kind is PortKind.TSV_INBOUND:
            # Driving value: reused FF's Q, or a new dedicated cell's Q,
            # fanned out to the member muxes through one X2 buffer.
            if group.reused_ff is not None:
                report.reused_ffs += 1
                ff = work.instance(group.reused_ff)
                source_net = ff.output_net()
                source_pos = (ff.x, ff.y)
                cell_name = group.reused_ff
                source_anchor = group.reused_ff
                if source_net is None:
                    raise NetlistError(f"{group.reused_ff} has no Q net")
            else:
                cell = new_wrapper_cell(first_port.net, first_port.x,
                                        first_port.y, group.tsvs[0])
                source_net = cell.output_net()
                source_pos = (first_port.x, first_port.y)
                cell_name = cell.name
                source_anchor = group.tsvs[0]
            report.group_cells.append(cell_name)
            drive_net = new_buffer(source_net, *source_pos, source_anchor)
            for tsv in group.tsvs:
                port = work.port(tsv)
                tsv_net = work.net(port.net)
                sinks = [s for s in tsv_net.sinks
                         if not (s.is_port and s.owner_name == port.name)]
                mux_out = new_net("in")
                new_mux(tsv_net.name, drive_net, mux_out, port.x, port.y,
                        tsv)
                report.mux_out_nets[tsv] = mux_out
                for sink in sinks:
                    work.retarget_sink(sink, mux_out)
        else:
            if group.reused_ff is not None:
                report.reused_ffs += 1
                ff = work.instance(group.reused_ff)
                report.group_cells.append(ff.name)
                d_net = ff.connections.get("D")
                if d_net is None:
                    raise NetlistError(f"{ff.name} has no D net")
                work.disconnect_pin(ff.name, "D")
                chain = d_net
                for tsv in group.tsvs:
                    port = work.port(tsv)
                    out = new_net("ob")
                    new_xor(chain, port.net, out, ff.x, ff.y, ff.name)
                    chain = out
                mux_out = new_net("obm")
                new_mux(d_net, chain, mux_out, ff.x, ff.y, ff.name)
                work.connect(ff.name, "D", mux_out)
            else:
                # Dedicated capture cell: XOR-merge the group, then latch.
                chain = work.port(group.tsvs[0]).net
                for tsv in group.tsvs[1:]:
                    port = work.port(tsv)
                    out = new_net("ob")
                    new_xor(chain, port.net, out, first_port.x, first_port.y,
                            group.tsvs[0])
                    chain = out
                cell = new_wrapper_cell(chain, first_port.x, first_port.y,
                                        group.tsvs[0])
                report.group_cells.append(cell.name)

    for group in plan.groups:
        insert_group(group)
    for tsv in plan.excluded_tsvs:
        kind = netlist.port(tsv).kind
        insert_group(WrapperGroup(kind, [tsv]))

    return work, report
