"""Seeded random verification instances and their JSON repro format.

An :class:`InstanceSpec` is a tiny, fully deterministic recipe for one
cross-check subject: a synthetic die (netlist + placement + scan
stitching via the benchmark generator), a timing scenario, and a WCM
method configuration. Everything downstream — test view, STA cases,
sharing graph, clique partition — derives from the spec, so a failing
spec *is* the repro: it serializes to a dozen-line JSON file that
``tests/test_verify_repros.py`` replays forever.

Shape knobs deliberately cover the degenerate corners the kernels
special-case: zero TSVs in either direction (empty sharing graphs),
coincident FF/TSV coordinates (zero distances, zero wire delay),
``d_th`` pinned exactly onto a realized pair distance (the ``>=``
boundary), and the untimed area scenario (distance check disabled).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.bench.generator import DieGeneratorConfig, generate_die
from repro.bench.itc99 import DieProfile
from repro.core.config import Scenario, WcmConfig
from repro.core.problem import WcmProblem, build_problem, tight_clock_for
from repro.dft.scan import stitch_scan_chains
from repro.netlist.core import Netlist, PortKind
from repro.place.placer import place_die
from repro.util.errors import ReproError

#: bump when the JSON layout changes incompatibly
SCHEMA_VERSION = 1

#: floors below which the generator cannot produce a closed netlist
MIN_GATES = 12
MIN_FFS = 1


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one verification instance."""

    seed: int
    gates: int = 24
    ffs: int = 4
    tsv_in: int = 3
    tsv_out: int = 3
    #: "itc99" (Table-II-calibrated generator) or a topology family
    #: from :data:`repro.bench.families.FAMILIES`
    family: str = "itc99"
    #: override the generator's ordinary-net fan-out cap (hubs get 2x);
    #: None keeps the generator defaults
    fanout_cap: Optional[int] = None
    #: "tight" (performance-optimized, timed) or "area" (untimed)
    scenario: str = "tight"
    #: "ours" or "agrawal"
    method: str = "ours"
    #: d_th as a fraction of die span (None → generator default 0.8)
    d_th_fraction: Optional[float] = None
    #: snap d_th exactly onto a realized node-pair distance
    d_th_boundary: bool = False
    #: snap FF coordinates onto TSV port coordinates
    coincident: bool = False
    schema: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    def profile(self) -> DieProfile:
        return DieProfile(
            circuit=f"fz{self.seed}",
            die_index=0,
            scan_flip_flops=self.ffs,
            gates=self.gates,
            inbound_tsvs=self.tsv_in,
            outbound_tsvs=self.tsv_out,
        )

    def build_netlist(self) -> Netlist:
        """Generated, placed, scan-stitched die netlist."""
        overrides = {}
        if self.fanout_cap is not None:
            overrides = {"max_fanout": self.fanout_cap,
                         "hub_fanout": 2 * self.fanout_cap,
                         "tsv_max_fanout": min(4, self.fanout_cap)}
        if self.family == "itc99":
            netlist = generate_die(self.profile(), seed=self.seed,
                                   config=DieGeneratorConfig(**overrides))
        else:
            from repro.bench.families import (FAMILIES, FamilySpec,
                                              generate_family_die)
            if self.family not in FAMILIES:
                raise ReproError(f"unknown family {self.family!r} "
                                 f"(have ('itc99',) + {FAMILIES})")
            fspec = FamilySpec(gates=self.gates, ffs=self.ffs,
                               tsv_in=self.tsv_in, tsv_out=self.tsv_out,
                               **overrides)
            netlist = generate_family_die(self.family, fspec,
                                          seed=self.seed,
                                          name=self.profile().name)
        place_die(netlist)
        if self.coincident:
            tsv_ports = [p for p in netlist.ports.values() if p.is_tsv]
            for ff, port in zip(netlist.scan_flip_flops(), tsv_ports):
                ff.x, ff.y = port.x, port.y
        stitch_scan_chains(netlist)
        return netlist

    def build_problem(self) -> WcmProblem:
        problem = build_problem(self.build_netlist(), already_prepared=True)
        if self.scenario == "tight":
            problem = problem.retime(tight_clock_for(problem))
        return problem

    def build_scenario(self, problem: WcmProblem) -> Scenario:
        if self.scenario == "tight":
            return Scenario.performance_optimized(
                problem.timing.constraint.period_ps)
        if self.scenario == "area":
            return Scenario.area_optimized()
        raise ReproError(f"unknown scenario {self.scenario!r}")

    def build_config(self, problem: WcmProblem) -> WcmConfig:
        scenario = self.build_scenario(problem)
        if self.method == "ours":
            config = WcmConfig.ours(scenario)
        elif self.method == "agrawal":
            config = WcmConfig.agrawal(scenario)
        else:
            raise ReproError(f"unknown method {self.method!r}")
        if self.d_th_fraction is not None:
            config = dataclasses.replace(config,
                                         d_th_fraction=self.d_th_fraction)
        if self.d_th_boundary:
            distance = _median_pair_distance(problem)
            if distance is not None and distance > 0.0:
                config = dataclasses.replace(config, d_th_um=distance)
        return config

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "InstanceSpec":
        payload = json.loads(text)
        schema = payload.get("schema", 0)
        if schema != SCHEMA_VERSION:
            raise ReproError(f"repro schema {schema} != {SCHEMA_VERSION}")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ReproError(f"unknown repro fields: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def load(cls, path: Path) -> "InstanceSpec":
        return cls.from_json(Path(path).read_text())

    def save(self, path: Path) -> None:
        Path(path).write_text(self.to_json())

    def slug(self) -> str:
        """Stable file-name stem for a repro of this spec."""
        parts = [f"s{self.seed}"]
        if self.family != "itc99":
            parts.append(self.family)
        parts += [f"g{self.gates}", f"f{self.ffs}",
                  f"ti{self.tsv_in}", f"to{self.tsv_out}",
                  self.scenario, self.method]
        if self.fanout_cap is not None:
            parts.append(f"fo{self.fanout_cap}")
        if self.d_th_fraction is not None:
            parts.append(f"d{self.d_th_fraction}".replace(".", "p"))
        if self.d_th_boundary:
            parts.append("dboundary")
        if self.coincident:
            parts.append("coincident")
        return "-".join(parts)


def _median_pair_distance(problem: WcmProblem) -> Optional[float]:
    """An exactly realized Manhattan distance between two graph nodes —
    pinning ``d_th`` to it exercises the ``distance >= d_th`` boundary
    with equality actually occurring."""
    names = list(problem.scan_ffs)
    for kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND):
        names.extend(problem.tsvs_of_kind(kind))
    locations = [problem.location_of(name) for name in names]
    distances = sorted(
        abs(ax - bx) + abs(ay - by)
        for i, (ax, ay) in enumerate(locations)
        for (bx, by) in locations[i + 1:]
    )
    positive = [d for d in distances if d > 0.0]
    if not positive:
        return None
    return positive[len(positive) // 2]
