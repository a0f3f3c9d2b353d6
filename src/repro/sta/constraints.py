"""Clock and I/O timing constraints for STA."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.errors import TimingError


@dataclass(frozen=True)
class ClockConstraint:
    """A single-clock constraint set.

    ``period_ps=None`` means unconstrained (the paper's "no timing"
    area-optimized scenario): slacks are reported against an infinite
    period and nothing can violate.
    """

    period_ps: Optional[float] = None
    setup_ps: float = 20.0
    #: launch latency of a flip-flop (clock-to-Q), added at path start
    clk_to_q_ps: float = 60.0
    #: external arrival margin for primary/TSV inputs
    input_delay_ps: float = 0.0
    #: external setup margin demanded at primary/TSV outputs
    output_margin_ps: float = 0.0

    def __post_init__(self) -> None:
        if self.period_ps is not None and self.period_ps <= 0:
            raise TimingError(f"clock period must be positive, got {self.period_ps}")

    @property
    def is_constrained(self) -> bool:
        return self.period_ps is not None


#: The paper's area-optimized scenario: no timing constraint at all.
UNCONSTRAINED = ClockConstraint(period_ps=None)


def tight_period_for(critical_path_ps: float, margin: float = 0.03) -> float:
    """Pick a performance-optimized clock period.

    The paper tunes the tight scenario "to a very tight value": just a
    small margin above the pre-insertion critical path, so any wrapper
    cell inserted on a near-critical path without accounting for wire
    delay produces a violation.
    """
    if critical_path_ps <= 0:
        raise TimingError(
            f"critical path must be positive, got {critical_path_ps}"
        )
    return critical_path_ps * (1.0 + margin)
