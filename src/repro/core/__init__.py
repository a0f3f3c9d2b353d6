"""The paper's contribution: timing-aware wrapper cell minimization.

Pipeline (Fig. 6 of the paper):

1. :mod:`repro.core.problem` — bundle a scan-stitched, placed die with
   its baseline STA into a :class:`WcmProblem`; its
   ``SignoffBuild`` inserts, restitches and times a wrapper plan, cold
   or warm, for the baseline and every sign-off round.
2. :mod:`repro.core.timing_model` — the *accurate* timing model
   (capacity load + wire delay from FF/TSV coordinates) and the
   load-only model of Agrawal et al. [4].
3. :mod:`repro.core.graph` — graph construction (Algorithm 1), with
   node filters (``cap_th``, ``s_th``), distance filter (``d_th``),
   cone-overlap tests, and the testability-constrained overlap
   expansion (``cov_th``, ``p_th``).
4. :mod:`repro.core.clique` — the heuristic clique-partitioning
   algorithm (Algorithm 2).
5. :mod:`repro.core.flow` — the end-to-end flow: TSV-set ordering, two
   partitioning passes, wrapper insertion, restitching, and the final
   STA violation check.

Baseline: :func:`repro.core.config.WcmConfig.agrawal` (load-only
timing, inbound-first, no overlap), the method of Agrawal et al. [4].
"""

from repro.core.config import Scenario, WcmConfig
from repro.core.problem import WcmProblem, build_problem
from repro.core.timing_model import ReuseTimingModel
from repro.core.graph import GraphStats, WcmGraph, build_wcm_graph
from repro.core.clique import CliquePartition, partition_cliques
from repro.core.testability import OverlapEstimate, OverlapTestabilityEstimator
from repro.core.flow import WcmRunResult, run_wcm_flow

__all__ = [
    "Scenario",
    "WcmConfig",
    "WcmProblem",
    "build_problem",
    "ReuseTimingModel",
    "GraphStats",
    "WcmGraph",
    "build_wcm_graph",
    "CliquePartition",
    "partition_cliques",
    "OverlapEstimate",
    "OverlapTestabilityEstimator",
    "WcmRunResult",
    "run_wcm_flow",
]
