"""Table I — does the TSV-set processing order matter?

Runs Agrawal's method on the four b12 dies twice: starting from the
inbound set and from the outbound set. Reports the stuck-at fault
coverage of the wrapped die and the number of additional wrapper
cells, as the paper does. The claim to preserve: starting from the
*larger* set is no worse (it motivated Section IV-A).

The study runs under the tight-timing scenario: ordering matters only
when the per-FF reuse budgets bind (in the unconstrained area scenario
both orders produce identical plans by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.experiments.common import (
    DEFAULT_SEED,
    ExperimentScale,
    MethodSpec,
    ORDER_INBOUND_FIRST,
    ORDER_OUTBOUND_FIRST,
    render_failures,
    resolve_scale,
    run_cell,
    scale_banner,
    sweep_cells,
    traced_experiment,
)
from repro.experiments.paper_data import TABLE1_PAPER
from repro.util.tables import AsciiTable, format_percent


@dataclass
class Table1Cell:
    coverage: float
    wrapper_cells: int


@dataclass
class Table1Result:
    scale_name: str
    #: die index -> {"inbound"/"outbound": cell}
    rows: Dict[int, Dict[str, Table1Cell]] = field(default_factory=dict)
    #: die index -> failure description, for cells that didn't survive
    failures: Dict[int, str] = field(default_factory=dict)

    def render(self) -> str:
        table = AsciiTable(
            ["die", "#inbound", "#outbound",
             "start inbound: coverage", "#cells",
             "start outbound: coverage", "#cells",
             "paper (in)", "paper (out)"],
            title="Table I — starting TSV set, Agrawal's method on b12",
        )
        from repro.bench.itc99 import die_profile
        for die_index, row in sorted(self.rows.items()):
            profile = die_profile("b12", die_index)
            paper = TABLE1_PAPER[die_index]
            table.add_row([
                f"Die{die_index}", profile.inbound_tsvs,
                profile.outbound_tsvs,
                format_percent(row["inbound"].coverage),
                row["inbound"].wrapper_cells,
                format_percent(row["outbound"].coverage),
                row["outbound"].wrapper_cells,
                f"{paper['inbound'][0]}%/{paper['inbound'][1]}",
                f"{paper['outbound'][0]}%/{paper['outbound'][1]}",
            ])
        rendered = table.render()
        if self.failures:
            rendered += "\n\n" + render_failures(
                self.failures, label=lambda die: f"b12_d{die}")
        return rendered

    def larger_set_no_worse(self) -> bool:
        """The paper's takeaway: start from the larger set."""
        from repro.bench.itc99 import die_profile
        verdicts = []
        for die_index, row in self.rows.items():
            profile = die_profile("b12", die_index)
            larger = ("outbound" if profile.outbound_tsvs
                      >= profile.inbound_tsvs else "inbound")
            smaller = "inbound" if larger == "outbound" else "outbound"
            verdicts.append(
                row[larger].wrapper_cells <= row[smaller].wrapper_cells
                or row[larger].coverage >= row[smaller].coverage
            )
        return sum(verdicts) >= (len(verdicts) + 1) // 2


def _die_cell(args: Tuple[int, int, ExperimentScale]
              ) -> Dict[str, Table1Cell]:
    """Both processing orders on one b12 die (worker process)."""
    die_index, seed, scale = args
    row: Dict[str, Table1Cell] = {}
    for label, order in (("inbound", ORDER_INBOUND_FIRST),
                         ("outbound", ORDER_OUTBOUND_FIRST)):
        spec = MethodSpec("agrawal", "tight",
                          order=tuple(kind.value for kind in order))
        summary, report = run_cell("b12", die_index, seed, scale, spec,
                                   with_atpg=True,
                                   include_transition=False)
        row[label] = Table1Cell(
            coverage=report.stuck_at.coverage,
            wrapper_cells=summary.additional,
        )
    return row


@traced_experiment("table1")
def run_table1(scale: Optional[ExperimentScale] = None,
               seed: int = DEFAULT_SEED, verbose: bool = False,
               jobs: Optional[int] = None) -> Table1Result:
    scale = scale or resolve_scale()
    result = Table1Result(scale_name=scale.name)
    rows, result.failures = sweep_cells(
        _die_cell, range(4),
        [(die_index, seed, scale) for die_index in range(4)],
        jobs=jobs, seed=seed, label="table1")
    for die_index, row in rows.items():
        result.rows[die_index] = row
        if verbose:
            print(f"  b12_die{die_index}: inbound-first "
                  f"{row['inbound'].wrapper_cells} cells, outbound-first "
                  f"{row['outbound'].wrapper_cells} cells")
    if verbose:
        print(scale_banner(scale))
        print(result.render())
    return result
