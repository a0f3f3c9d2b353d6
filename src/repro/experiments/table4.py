"""Table IV — fault coverage and pattern counts (tight timing).

Runs stuck-at and transition ATPG on the wrapped die produced by each
method under the performance-optimized scenario. The paper's takeaway
to preserve: the proposed method's testability is *competitive* —
essentially equal coverage, no systematic pattern inflation — despite
reusing FFs with overlapped cones.
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
from repro.experiments.paper_data import TABLE4_PAPER_AVERAGE
from repro.util.tables import AsciiTable, format_pair


@dataclass
class Table4Cell:
    stuck_at: Tuple[float, int]  # (coverage, #patterns)
    transition: Tuple[float, int]


@dataclass
class Table4Result:
    scale_name: str
    #: (circuit, die) -> method -> cell
    cells: Dict[Tuple[str, int], Dict[str, Table4Cell]] = field(
        default_factory=dict)
    #: (circuit, die) -> failure description, for cells that didn't survive
    failures: Dict[Tuple[str, int], str] = field(default_factory=dict)

    def average(self, method: str, model: str) -> Tuple[float, float]:
        pairs = [getattr(row[method], model) for row in self.cells.values()]
        count = max(1, len(pairs))
        return (sum(p[0] for p in pairs) / count,
                sum(p[1] for p in pairs) / count)

    def render(self) -> str:
        table = AsciiTable(
            ["die", "Agrawal stuck-at", "Agrawal transition",
             "Ours stuck-at", "Ours transition"],
            title=("Table IV — (fault coverage, #patterns), "
                   "tight timing"),
        )
        for (circuit, die), row in sorted(self.cells.items()):
            table.add_row([
                f"{circuit}_d{die}",
                format_pair(*row["agrawal"].stuck_at),
                format_pair(*row["agrawal"].transition),
                format_pair(*row["ours"].stuck_at),
                format_pair(*row["ours"].transition),
            ])
        table.add_separator()
        cells = []
        for method in ("agrawal", "ours"):
            for model in ("stuck_at", "transition"):
                cov, pat = self.average(method, model)
                cells.append(format_pair(cov, round(pat, 1)))
        table.add_row(["Average"] + cells)
        lines = [table.render(), ""]
        paper = TABLE4_PAPER_AVERAGE
        lines.append(
            "Paper averages: Agrawal SA "
            f"({paper['agrawal']['stuck_at'][0]}%, "
            f"{paper['agrawal']['stuck_at'][1]}), TF "
            f"({paper['agrawal']['transition'][0]}%, "
            f"{paper['agrawal']['transition'][1]}); Ours SA "
            f"({paper['ours']['stuck_at'][0]}%, "
            f"{paper['ours']['stuck_at'][1]}), TF "
            f"({paper['ours']['transition'][0]}%, "
            f"{paper['ours']['transition'][1]})"
        )
        if self.failures:
            lines += ["", render_failures(self.failures)]
        return "\n".join(lines)


def _die_cell(args: Tuple[str, int, int, ExperimentScale]
              ) -> Dict[str, Table4Cell]:
    """Both methods' ATPG measurements for one die (worker process)."""
    circuit, die_index, seed, scale = args
    row: Dict[str, Table4Cell] = {}
    for method in ("agrawal", "ours"):
        _summary, report = run_cell(circuit, die_index, seed, scale,
                                    MethodSpec(method, "tight"),
                                    with_atpg=True)
        row[method] = Table4Cell(
            stuck_at=(report.stuck_at.coverage,
                      report.stuck_at.pattern_count),
            transition=(report.transition.coverage,
                        report.transition.pattern_count),
        )
    return row


@traced_experiment("table4")
def run_table4(scale: Optional[ExperimentScale] = None,
               seed: int = DEFAULT_SEED, verbose: bool = False,
               jobs: Optional[int] = None) -> Table4Result:
    scale = scale or resolve_scale()
    result = Table4Result(scale_name=scale.name)
    dies = dies_for_scale(scale)
    rows, result.failures = sweep_cells(
        _die_cell, dies,
        [(circuit, die, seed, scale) for circuit, die in dies],
        jobs=jobs, seed=seed, label="table4")
    for (circuit, die_index), row in rows.items():
        result.cells[(circuit, die_index)] = row
        if verbose:
            print(f"  {circuit}_die{die_index}: "
                  f"agrawal SA {row['agrawal'].stuck_at[0]:.3f}, "
                  f"ours SA {row['ours'].stuck_at[0]:.3f}")
    if verbose:
        print(scale_banner(scale))
        print(result.render())
    return result
