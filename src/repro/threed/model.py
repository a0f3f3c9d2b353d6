"""Stack-of-dies model.

A :class:`Stack3D` owns one netlist per die plus the :class:`TsvLink`
records that describe which outbound TSV of which die bonds to which
inbound TSV of another die. Pre-bond analysis (the entire WCM problem)
is per-die; the links record how the generated stack is bonded, and
:meth:`Stack3D.validate_links` checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netlist.core import Netlist, PortKind
from repro.util.errors import PartitionError


@dataclass(frozen=True)
class TsvLink:
    """One bonded TSV: an outbound port on one die feeding an inbound
    port on another (or an external bump when ``target_die`` is None)."""

    name: str
    source_die: int
    source_port: str
    target_die: Optional[int]
    target_port: Optional[str]

    @property
    def is_external(self) -> bool:
        return self.target_die is None


@dataclass
class Stack3D:
    """An ordered stack of dies (index 0 at the bottom)."""

    name: str
    dies: List[Netlist]
    links: List[TsvLink] = field(default_factory=list)

    def die(self, index: int) -> Netlist:
        if not 0 <= index < len(self.dies):
            raise PartitionError(
                f"stack {self.name}: die index {index} out of range "
                f"0..{len(self.dies) - 1}"
            )
        return self.dies[index]

    @property
    def die_count(self) -> int:
        return len(self.dies)

    def tsv_count(self) -> int:
        return sum(die.tsv_count for die in self.dies)

    def validate_links(self) -> None:
        """Check every link references real ports of the right kinds."""
        for link in self.links:
            src_die = self.die(link.source_die)
            src = src_die.port(link.source_port)
            if src.kind is not PortKind.TSV_OUTBOUND:
                raise PartitionError(
                    f"link {link.name}: source {link.source_port} on die "
                    f"{link.source_die} is {src.kind.value}, not tsv_outbound"
                )
            if link.is_external:
                continue
            dst_die = self.die(link.target_die)
            dst = dst_die.port(link.target_port)
            if dst.kind is not PortKind.TSV_INBOUND:
                raise PartitionError(
                    f"link {link.name}: target {link.target_port} on die "
                    f"{link.target_die} is {dst.kind.value}, not tsv_inbound"
                )

    def summary(self) -> List[Dict[str, int]]:
        return [die.stats() for die in self.dies]
