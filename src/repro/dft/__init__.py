"""Design-for-testability transformations.

* :mod:`repro.dft.scan` — scan-chain stitching (placement-aware order).
* :mod:`repro.dft.cones` — fan-in/fan-out cone queries for scan FFs and
  TSVs, with caching: the reference for Algorithm 1's overlap tests.
* :mod:`repro.dft.wrapper` — the wrapper plan model (which TSVs share
  which wrapper cell / reused scan FF) and its physical insertion:
  muxes for inbound reuse, XOR+mux for outbound reuse (paper Fig. 3),
  dedicated wrapper cells for unshared/excluded TSVs.
* :mod:`repro.dft.testview` — the pre-bond test view of a wrapped die:
  which nets are controllable, constant, X-source, or observed. This is
  what the ATPG engine measures coverage against.
* :mod:`repro.dft.area` — area accounting of an insertion or a plan.

It imports only :mod:`repro.netlist` and :mod:`repro.util`; that
insertion is functionally invisible is checked by the ``insertion``
check of :mod:`repro.verify`.
"""

from repro.dft.scan import ScanChain, stitch_scan_chains, unstitch_scan_chains
from repro.dft.cones import ConeAnalysis
from repro.dft.wrapper import (
    WrapperGroup,
    WrapperPlan,
    dedicated_plan,
    insert_wrappers,
)
from repro.dft.testview import TestView, build_prebond_test_view
from repro.dft.area import AreaReport, area_of_insertion, compare_plans, plan_area_estimate

__all__ = [
    "ScanChain",
    "stitch_scan_chains",
    "unstitch_scan_chains",
    "ConeAnalysis",
    "WrapperGroup",
    "WrapperPlan",
    "dedicated_plan",
    "insert_wrappers",
    "TestView",
    "build_prebond_test_view",
    "AreaReport",
    "area_of_insertion",
    "compare_plans",
    "plan_area_estimate",
]
