"""WCM configuration: thresholds, scenarios and method presets.

The paper's two experimental scenarios:

* **area-optimized** ("no timing"): no timing constraint at all —
  ``cap_th`` = ∞, ``s_th`` = −∞, no distance limit;
* **performance-optimized** ("tight timing"): the clock period is tuned
  just above the critical path of the die *with mandatory dedicated
  wrappers inserted* (muxes at every inbound TSV are structural
  necessities shared by every method), ``cap_th`` from the cell
  library, and a positive slack margin ``s_th``.

Method presets:

* ``ours(...)`` — accurate timing model (cap + wire delay), distance
  threshold ``d_th``, larger-TSV-set-first ordering, overlapped-cone
  sharing under testability constraints (``cov_th = 0.5 %``,
  ``p_th = 10``, the values of Section V-B);
* ``agrawal(...)`` — the reuse-based baseline [4]: capacity load only
  (no wire terms), no distance limit, inbound-set-first, overlap
  forbidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.netlist.library import DEFAULT_CAP_TH_FF
from repro.sta.constraints import ClockConstraint, UNCONSTRAINED
from repro.util.errors import ConfigError

INF = math.inf


@dataclass(frozen=True)
class Scenario:
    """One timing scenario (clock + thresholds)."""

    name: str
    clock: ClockConstraint
    cap_th_ff: float
    s_th_ps: float

    @classmethod
    def area_optimized(cls, cap_th_ff: float = DEFAULT_CAP_TH_FF
                       ) -> "Scenario":
        """The paper's "no timing" scenario.

        Only *timing* constraints are dropped; ``cap_th`` comes from the
        cell library (a drive-strength limit, not a timing budget) and
        still bounds how many TSVs one wrapper driver can serve —
        Table III's area-scenario group counts imply exactly that.
        """
        return cls(name="area", clock=UNCONSTRAINED, cap_th_ff=cap_th_ff,
                   s_th_ps=-INF)

    @classmethod
    def performance_optimized(cls, period_ps: float,
                              cap_th_ff: float = DEFAULT_CAP_TH_FF,
                              s_th_ps: float = 0.0) -> "Scenario":
        """The paper's "tight timing" scenario for a given period."""
        if period_ps <= 0:
            raise ConfigError(f"period must be positive, got {period_ps}")
        return cls(name="tight", clock=ClockConstraint(period_ps=period_ps),
                   cap_th_ff=cap_th_ff, s_th_ps=s_th_ps)

    @property
    def is_timed(self) -> bool:
        return self.clock.is_constrained


@dataclass(frozen=True)
class WcmConfig:
    """Full configuration of one WCM method run."""

    scenario: Scenario
    #: method label for reports
    method: str = "ours"
    #: distance threshold d_th (um); inf disables (Agrawal has none)
    d_th_um: float = INF
    #: when d_th_um is inf, derive it as this fraction of the die's
    #: half-perimeter (None keeps it disabled) — the paper leaves the
    #: value of d_th unstated, so ours defaults to a placement-relative
    #: rule of thumb
    d_th_fraction: Optional[float] = None
    #: include wire delay / wire cap in feasibility (the accurate model)
    use_wire_delay: bool = True
    #: process the larger TSV set first (ours) vs inbound first ([4])
    order_by_set_size: bool = True
    #: allow overlapped fan-in/fan-out cones under testability bounds
    allow_overlap: bool = True
    #: max tolerated fault-coverage drop per sharing decision (fraction)
    cov_th: float = 0.005
    #: max tolerated test-pattern increase per sharing decision
    p_th: int = 10
    #: ignored: the testability estimate is structural and needs no
    #: per-die budget; kept for callers that still pass
    #: ``ours(..., estimator_budget=...)``
    estimator_budget: int = 4000
    #: design-rule bound on TSVs per wrapper group (XOR-chain aliasing
    #: and routing); binds mainly where cap_th does not (outbound /
    #: area scenario)
    max_group_size: int = 6
    #: iterate sign-off STA and evict reuse groups on violating paths
    #: (the ECO loop behind "no timing violation"); [4] has no such step
    signoff_repair: bool = True
    #: max repair iterations before giving up
    repair_iterations: int = 20

    def __post_init__(self) -> None:
        if self.cov_th < 0:
            raise ConfigError(f"cov_th must be >= 0, got {self.cov_th}")
        if self.p_th < 0:
            raise ConfigError(f"p_th must be >= 0, got {self.p_th}")

    # ------------------------------------------------------------------
    @classmethod
    def ours(cls, scenario: Scenario, d_th_um: float = INF,
             d_th_fraction: Optional[float] = 0.8,
             **overrides) -> "WcmConfig":
        """The proposed method under *scenario*."""
        return cls(scenario=scenario, method="ours", d_th_um=d_th_um,
                   d_th_fraction=d_th_fraction,
                   use_wire_delay=True, order_by_set_size=True,
                   allow_overlap=True, **overrides)

    @classmethod
    def agrawal(cls, scenario: Scenario, **overrides) -> "WcmConfig":
        """The baseline of Agrawal et al. [4] under *scenario*."""
        return cls(scenario=scenario, method="agrawal", d_th_um=INF,
                   use_wire_delay=False, order_by_set_size=False,
                   allow_overlap=False, signoff_repair=False, **overrides)

    def without_overlap(self) -> "WcmConfig":
        """Ours with overlapped-cone sharing disabled (Table V / Fig 7)."""
        return replace(self, allow_overlap=False)
