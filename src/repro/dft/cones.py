"""Cached fan-in/fan-out cone analysis: the reference for WCM graph cones.

Algorithm 1 tests, for every candidate (scan FF, TSV) or (TSV, TSV)
pair, whether the relevant cones overlap:

* sharing a wrapper for an **inbound** TSV correlates the *driving*
  value, so the relevant cones are **fan-out** cones (of the FF's Q and
  of each inbound TSV);
* sharing an observation point for an **outbound** TSV XOR-merges the
  *observed* values, so the relevant cones are **fan-in** cones (of the
  FF's D and of each outbound TSV).

Cones are frozensets of object names, computed once per object and
cached; pair overlap tests are then set intersections. The sharing
graph itself does not use this class: it compiles the die's gate graph
once and keeps each cone as a bitset (``repro.core.graph``).
:class:`ConeAnalysis` is the reference those bitsets are checked
against, by ``repro.verify.oracles.oracle_build_graph`` and the tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.netlist.core import Netlist, PortKind
from repro.netlist.topology import fanin_cone, fanout_cone
from repro.util.errors import NetlistError


class ConeAnalysis:
    """Lazy cone cache over one die netlist.

    Overlap tests compare *gate* memberships only: a shared level-0
    source (a primary input or the Q of some third flip-flop) is weak
    common-mode correlation, not the shared-logic case of the paper's
    Fig. 4, and counting it would mark nearly every pair of a richly
    mixed design as overlapping. Raw cones (including ports/FFs) stay
    available through :meth:`fanout_of` and :meth:`fanin_of`.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._fanin: Dict[str, FrozenSet[str]] = {}
        self._fanout: Dict[str, FrozenSet[str]] = {}
        self._gate_only: Dict[Tuple[str, PortKind], FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    def fanout_of(self, name: str) -> FrozenSet[str]:
        """Fan-out cone of a scan FF (from Q) or inbound TSV (from net)."""
        cone = self._fanout.get(name)
        if cone is None:
            cone = fanout_cone(self.netlist, name)
            self._fanout[name] = cone
        return cone

    def fanin_of(self, name: str) -> FrozenSet[str]:
        """Fan-in cone of a scan FF (into D) or outbound TSV (into net)."""
        cone = self._fanin.get(name)
        if cone is None:
            cone = fanin_cone(self.netlist, name)
            self._fanin[name] = cone
        return cone

    # ------------------------------------------------------------------
    def relevant_cone(self, name: str, tsv_kind: PortKind) -> FrozenSet[str]:
        """The cone that matters when *name* serves a TSV set of
        *tsv_kind* (see module docstring)."""
        if tsv_kind is PortKind.TSV_INBOUND:
            return self.fanout_of(name)
        if tsv_kind is PortKind.TSV_OUTBOUND:
            return self.fanin_of(name)
        raise NetlistError(f"not a TSV kind: {tsv_kind}")

    def gate_cone(self, name: str, tsv_kind: PortKind) -> FrozenSet[str]:
        """The relevant cone restricted to combinational gates (the
        membership the overlap tests compare)."""
        key = (name, tsv_kind)
        cached = self._gate_only.get(key)
        if cached is not None:
            return cached
        instances = self.netlist.instances
        cone = frozenset(
            item for item in self.relevant_cone(name, tsv_kind)
            if item in instances and not instances[item].is_sequential
        )
        self._gate_only[key] = cone
        return cone

    def overlap(self, name_a: str, name_b: str, tsv_kind: PortKind
                ) -> FrozenSet[str]:
        """The shared gate region of two candidates (may be empty)."""
        cone_a = self.gate_cone(name_a, tsv_kind)
        cone_b = self.gate_cone(name_b, tsv_kind)
        if len(cone_a) > len(cone_b):
            cone_a, cone_b = cone_b, cone_a
        return frozenset(item for item in cone_a if item in cone_b)

    def overlaps(self, name_a: str, name_b: str, tsv_kind: PortKind) -> bool:
        cone_a = self.gate_cone(name_a, tsv_kind)
        cone_b = self.gate_cone(name_b, tsv_kind)
        if len(cone_a) > len(cone_b):
            cone_a, cone_b = cone_b, cone_a
        return any(item in cone_b for item in cone_a)
