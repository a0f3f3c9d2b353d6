"""Table III — reused scan FFs / additional wrapper cells, both methods
under both scenarios, with the timing-violation verdicts.

The headline reproduction targets (paper values in
:data:`repro.experiments.paper_data.TABLE3_PAPER_SUMMARY`):

* ours inserts fewer additional wrapper cells than [4] in the area
  scenario,
* under tight timing [4] violates on most dies while ours violates on
  none, at a modest extra-cell cost relative to its own area run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.experiments.common import (
    DEFAULT_SEED,
    ExperimentScale,
    MethodSpec,
    dies_for_scale,
    render_failures,
    resolve_scale,
    run_cell,
    scale_banner,
    sweep_cells,
    traced_experiment,
)
from repro.experiments.paper_data import TABLE3_PAPER_SUMMARY
from repro.util.tables import AsciiTable

_CONFIG_KEYS = ("agrawal_area", "ours_area", "agrawal_tight", "ours_tight")


@dataclass
class Table3Cell:
    reused: int
    additional: int
    violation: bool


@dataclass
class Table3Result:
    scale_name: str
    #: (circuit, die) -> config key -> cell
    cells: Dict[Tuple[str, int], Dict[str, Table3Cell]] = field(
        default_factory=dict)
    #: (circuit, die) -> failure description, for cells that didn't survive
    failures: Dict[Tuple[str, int], str] = field(default_factory=dict)

    # -- aggregates ------------------------------------------------------
    def average(self, key: str, attr: str) -> float:
        values = [getattr(c[key], attr) for c in self.cells.values()]
        return sum(values) / max(1, len(values))

    def violation_tally(self, key: str) -> Tuple[int, int]:
        flags = [c[key].violation for c in self.cells.values()]
        return sum(flags), len(flags)

    def relative_to_baseline(self, key: str, attr: str) -> float:
        """Percentage vs. the Agrawal area baseline (the paper's 100%)."""
        base = self.average("agrawal_area", attr)
        return 100.0 * self.average(key, attr) / base if base else 0.0

    def render(self) -> str:
        table = AsciiTable(
            ["die",
             "A/area r", "A/area a",
             "O/area r", "O/area a",
             "A/tight r", "A/tight a", "A viol",
             "O/tight r", "O/tight a", "O viol"],
            title=("Table III — #reused scan FFs (r) / #additional "
                   "wrapper cells (a)"),
        )
        for (circuit, die), row in sorted(self.cells.items()):
            table.add_row([
                f"{circuit}_d{die}",
                row["agrawal_area"].reused, row["agrawal_area"].additional,
                row["ours_area"].reused, row["ours_area"].additional,
                row["agrawal_tight"].reused, row["agrawal_tight"].additional,
                "X" if row["agrawal_tight"].violation else "",
                row["ours_tight"].reused, row["ours_tight"].additional,
                "X" if row["ours_tight"].violation else "",
            ])
        table.add_separator()
        a_viol = self.violation_tally("agrawal_tight")
        o_viol = self.violation_tally("ours_tight")
        table.add_row([
            "Average",
            f"{self.average('agrawal_area', 'reused'):.2f}",
            f"{self.average('agrawal_area', 'additional'):.2f}",
            f"{self.average('ours_area', 'reused'):.2f}",
            f"{self.average('ours_area', 'additional'):.2f}",
            f"{self.average('agrawal_tight', 'reused'):.2f}",
            f"{self.average('agrawal_tight', 'additional'):.2f}",
            f"{a_viol[0]}/{a_viol[1]}",
            f"{self.average('ours_tight', 'reused'):.2f}",
            f"{self.average('ours_tight', 'additional'):.2f}",
            f"{o_viol[0]}/{o_viol[1]}",
        ])
        lines = [table.render(), ""]
        lines.append("Relative to Agrawal/area = 100%:")
        for key in _CONFIG_KEYS:
            lines.append(
                f"  {key:14s} reused {self.relative_to_baseline(key, 'reused'):6.2f}%"
                f"  additional {self.relative_to_baseline(key, 'additional'):6.2f}%"
            )
        lines.append("")
        lines.append("Paper averages (all 24 dies): "
                     + "; ".join(
                         f"{k}: reused {v['reused']}, additional "
                         f"{v['additional']}"
                         + (f", violations {v['violations']}"
                            if v["violations"] else "")
                         for k, v in TABLE3_PAPER_SUMMARY.items()))
        if self.failures:
            lines += ["", render_failures(self.failures)]
        return "\n".join(lines)


#: the four configurations of one Table III row
_SPECS: Tuple[Tuple[str, MethodSpec], ...] = (
    ("agrawal_area", MethodSpec("agrawal", "area")),
    ("ours_area", MethodSpec("ours", "area")),
    ("agrawal_tight", MethodSpec("agrawal", "tight")),
    ("ours_tight", MethodSpec("ours", "tight")),
)


def _die_cell(args: Tuple[str, int, int, ExperimentScale]
              ) -> Dict[str, Table3Cell]:
    """One die's four-configuration row (runs in a worker process)."""
    circuit, die_index, seed, scale = args
    row: Dict[str, Table3Cell] = {}
    for key, spec in _SPECS:
        summary, _report = run_cell(circuit, die_index, seed, scale, spec)
        row[key] = Table3Cell(
            reused=summary.reused,
            additional=summary.additional,
            violation=summary.violation and spec.scenario == "tight",
        )
    return row


@traced_experiment("table3")
def run_table3(scale: Optional[ExperimentScale] = None,
               seed: int = DEFAULT_SEED, verbose: bool = False,
               jobs: Optional[int] = None) -> Table3Result:
    """Run both methods under both scenarios on every in-scale die."""
    scale = scale or resolve_scale()
    result = Table3Result(scale_name=scale.name)
    dies = dies_for_scale(scale)
    rows, result.failures = sweep_cells(
        _die_cell, dies,
        [(circuit, die, seed, scale) for circuit, die in dies],
        jobs=jobs, seed=seed, label="table3")
    for (circuit, die_index), row in rows.items():
        result.cells[(circuit, die_index)] = row
        if verbose:
            cell = row["ours_tight"]
            print(f"  {circuit}_die{die_index}: ours/tight "
                  f"{cell.reused}/{cell.additional}"
                  f"{' VIOLATION' if cell.violation else ''}")
    if verbose:
        print(scale_banner(scale))
        print(result.render())
    return result
