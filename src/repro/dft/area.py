"""Area accounting for wrapper plans.

The paper's whole motivation is *area overhead*: dedicated wrapper
cells at every TSV cost die area, and reuse removes it. This module
prices a wrapper plan in um² using the cell library's areas — the
wrapper cells themselves plus all the glue insertion adds (test muxes,
XOR taps, group buffers) — and expresses it against the die's logic
area, so "0.92%–6.01% fewer wrapper cells" can be read in um² too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.dft.wrapper import InsertionReport, WrapperPlan
from repro.netlist.core import Netlist, PortKind
from repro.util.tables import AsciiTable, format_percent


@dataclass
class AreaReport:
    """Area price of one wrapper plan on one die."""

    die_name: str
    logic_area_um2: float
    wrapper_cell_area_um2: float
    mux_area_um2: float
    xor_area_um2: float
    buffer_area_um2: float

    @property
    def dft_area_um2(self) -> float:
        return (self.wrapper_cell_area_um2 + self.mux_area_um2
                + self.xor_area_um2 + self.buffer_area_um2)

    @property
    def overhead_fraction(self) -> float:
        if self.logic_area_um2 <= 0:
            return 0.0
        return self.dft_area_um2 / self.logic_area_um2

    def render(self) -> str:
        table = AsciiTable(["component", "area (um^2)"],
                           title=f"DFT area report — {self.die_name}")
        table.add_row(["functional logic", f"{self.logic_area_um2:.1f}"])
        table.add_row(["wrapper cells", f"{self.wrapper_cell_area_um2:.1f}"])
        table.add_row(["test muxes", f"{self.mux_area_um2:.1f}"])
        table.add_row(["XOR taps", f"{self.xor_area_um2:.1f}"])
        table.add_row(["group buffers", f"{self.buffer_area_um2:.1f}"])
        table.add_separator()
        table.add_row(["DFT total", f"{self.dft_area_um2:.1f}"])
        table.add_row(["overhead", format_percent(self.overhead_fraction)])
        return table.render()


def area_of_insertion(netlist: Netlist, report: InsertionReport
                      ) -> AreaReport:
    """Price an insertion report against *netlist* (the bare die)."""
    library = netlist.library
    logic = sum(inst.cell.area_um2 for inst in netlist.instances.values())
    return AreaReport(
        die_name=netlist.name,
        logic_area_um2=logic,
        wrapper_cell_area_um2=report.wrapper_cells
        * library.get("SDFF_X1").area_um2,
        mux_area_um2=report.muxes * library.get("MUX2_X1").area_um2,
        xor_area_um2=report.xors * library.get("XOR2_X1").area_um2,
        buffer_area_um2=(report.wrapper_cells + report.reused_ffs)
        * library.get("BUF_X2").area_um2
        if _plan_has_inbound(report) else 0.0,
    )


def _plan_has_inbound(report: InsertionReport) -> bool:
    # Buffers are only inserted for inbound groups; muxes betray them.
    return report.muxes > 0


def plan_area_estimate(netlist: Netlist, plan: WrapperPlan) -> AreaReport:
    """Price a plan without inserting it (estimation for planning)."""
    library = netlist.library
    logic = sum(inst.cell.area_um2 for inst in netlist.instances.values())
    muxes = xors = buffers = cells = 0
    for group in list(plan.groups):
        if group.kind is PortKind.TSV_INBOUND:
            muxes += len(group.tsvs)
            buffers += 1
            if group.reused_ff is None:
                cells += 1
        else:
            if group.reused_ff is not None:
                xors += len(group.tsvs)
                muxes += 1
            else:
                xors += max(0, len(group.tsvs) - 1)
                cells += 1
    for tsv in plan.excluded_tsvs:
        kind = netlist.port(tsv).kind
        cells += 1
        if kind is PortKind.TSV_INBOUND:
            muxes += 1
            buffers += 1
    return AreaReport(
        die_name=netlist.name,
        logic_area_um2=logic,
        wrapper_cell_area_um2=cells * library.get("SDFF_X1").area_um2,
        mux_area_um2=muxes * library.get("MUX2_X1").area_um2,
        xor_area_um2=xors * library.get("XOR2_X1").area_um2,
        buffer_area_um2=buffers * library.get("BUF_X2").area_um2,
    )


def compare_plans(netlist: Netlist, plans: Dict[str, WrapperPlan]) -> str:
    """Side-by-side um² comparison of several plans on one die."""
    table = AsciiTable(
        ["plan", "#reused", "#additional", "DFT area (um^2)", "overhead"],
        title=f"Wrapper-plan area comparison — {netlist.name}",
    )
    for label, plan in plans.items():
        report = plan_area_estimate(netlist, plan)
        table.add_row([
            label, plan.reused_scan_ff_count, plan.additional_wrapper_cells,
            f"{report.dft_area_um2:.1f}",
            format_percent(report.overhead_fraction),
        ])
    return table.render()
