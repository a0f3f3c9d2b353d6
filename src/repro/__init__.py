"""repro — timing-aware wrapper-cell reduction for pre-bond 3D-IC test.

A from-scratch reproduction of Ho et al., "Timing Aware Wrapper Cells
Reduction for Pre-bond Testing in 3D-ICs" (SOCC 2019), including every
substrate the paper's flow depends on. See README.md for a tour and
DESIGN.md for the system inventory.

Public API by subsystem:

* :mod:`repro.netlist` — cell library, netlist model, cones,
  validation
* :mod:`repro.bench` — ITC'99-calibrated die/stack generation
* :mod:`repro.threed` — the die-stack model (dies and TSV links)
* :mod:`repro.place` — placement and wirelength
* :mod:`repro.sta` — static timing analysis with case analysis
* :mod:`repro.dft` — scan stitching, wrapper insertion, test views,
  area accounting
* :mod:`repro.atpg` — fault models, packed simulation, PODEM, the
  stuck-at and transition ATPG flows
* :mod:`repro.core` — the paper's contribution: scenarios, the
  accurate reuse timing model, Algorithm 1/2, the end-to-end flow and
  the Agrawal baseline
* :mod:`repro.experiments` — regenerate every table and figure
* :mod:`repro.verify` — brute-force oracles and the ``repro fuzz``
  differential checks, including DFT insertion's functional
  equivalence

Quick start::

    from repro.bench import die_profile, generate_die
    from repro.core import Scenario, WcmConfig, build_problem, run_wcm_flow

    netlist = generate_die(die_profile("b12", 1))
    problem = build_problem(netlist)
    run = run_wcm_flow(problem, WcmConfig.ours(Scenario.area_optimized()))
    print(run.reused_scan_ffs, run.additional_wrapper_cells)
"""

__version__ = "1.0.0"

__all__ = [
    "netlist",
    "bench",
    "threed",
    "place",
    "sta",
    "dft",
    "atpg",
    "core",
    "experiments",
    "util",
]
