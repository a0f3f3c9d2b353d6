"""Static timing analysis substrate (PrimeTime stand-in).

A levelized timer over the die netlist with a linear cell-delay model
(``intrinsic + R * C_load``) and an Elmore wire-delay model driven by
placement distance. The wire model can be disabled, which reproduces
the capacity-load-only timing model of Agrawal et al. [4]; enabling it
gives this paper's "accurate timing model". The timer provides exactly
what the WCM flow consumes: per-outbound-TSV slack for Algorithm 1's
``s_th`` node filter, per-net capacitive load for ``cap_th``, and the
post-insertion violation check behind Table III.
"""

from repro.sta.delay import WireModel
from repro.sta.constraints import ClockConstraint, tight_period_for
from repro.sta.timer import TimingContext, TimingResult

__all__ = [
    "WireModel",
    "ClockConstraint",
    "tight_period_for",
    "TimingContext",
    "TimingResult",
]
