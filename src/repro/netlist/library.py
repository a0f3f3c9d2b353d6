"""Standard-cell library model with a 45 nm-flavoured default library.

The library provides, for every cell type:

* pin names, directions and input capacitances (fF),
* a logic function evaluated over *packed* integer words, so a single
  Python big-int bitwise operation simulates the cell for hundreds of
  patterns at once,
* a linear delay model ``delay = intrinsic + drive_resistance * load``
  (ps, with load in fF), the same first-order model the paper's capacity
  threshold ``cap_th`` is defined against,
* a maximum load capacitance (``max_load_ff``) from which the wrapper
  cell capacity threshold is derived.

Numbers are modelled on open 45 nm data (NanGate-class): input caps of a
unit-drive gate near 1.6-2.6 fF, FO4-ish delays in tens of picoseconds.
The algorithms depend only on the *relative* structure of these numbers.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.util.errors import LibraryError


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class CellPin:
    """A pin on a cell *type* (not on an instance)."""

    name: str
    direction: PinDirection
    cap_ff: float = 0.0  # input capacitance; 0 for outputs


# A logic function maps (input words in pin order, width mask) -> output word.
LogicFn = Callable[[Sequence[int], int], int]


def _fn_buf(ins: Sequence[int], mask: int) -> int:
    return ins[0] & mask


def _fn_inv(ins: Sequence[int], mask: int) -> int:
    return ~ins[0] & mask


def _fn_and(ins: Sequence[int], mask: int) -> int:
    out = mask
    for word in ins:
        out &= word
    return out


def _fn_or(ins: Sequence[int], mask: int) -> int:
    out = 0
    for word in ins:
        out |= word
    return out & mask


def _fn_nand(ins: Sequence[int], mask: int) -> int:
    return ~_fn_and(ins, mask) & mask


def _fn_nor(ins: Sequence[int], mask: int) -> int:
    return ~_fn_or(ins, mask) & mask


def _fn_xor(ins: Sequence[int], mask: int) -> int:
    out = 0
    for word in ins:
        out ^= word
    return out & mask


def _fn_xnor(ins: Sequence[int], mask: int) -> int:
    return ~_fn_xor(ins, mask) & mask


def _fn_mux2(ins: Sequence[int], mask: int) -> int:
    # Pin order: A (select=0), B (select=1), S.
    a, b, s = ins
    return ((a & ~s) | (b & s)) & mask


def _fn_aoi21(ins: Sequence[int], mask: int) -> int:
    # ZN = !((A1 & A2) | B)
    a1, a2, b = ins
    return ~((a1 & a2) | b) & mask


def _fn_oai21(ins: Sequence[int], mask: int) -> int:
    # ZN = !((A1 | A2) & B)
    a1, a2, b = ins
    return ~((a1 | a2) & b) & mask


LOGIC_FUNCTIONS: Dict[str, LogicFn] = {
    "buf": _fn_buf,
    "inv": _fn_inv,
    "and": _fn_and,
    "or": _fn_or,
    "nand": _fn_nand,
    "nor": _fn_nor,
    "xor": _fn_xor,
    "xnor": _fn_xnor,
    "mux2": _fn_mux2,
    "aoi21": _fn_aoi21,
    "oai21": _fn_oai21,
}


@dataclass(frozen=True)
class CellType:
    """An immutable standard-cell definition.

    ``function`` names an entry of :data:`LOGIC_FUNCTIONS` for
    combinational cells and is ``"dff"`` for sequential cells (whose
    next-state logic the simulator handles at the scan boundary, not as
    a gate).
    """

    name: str
    pins: Tuple[CellPin, ...]
    function: str
    intrinsic_delay_ps: float
    drive_resistance: float  # ps per fF of load
    max_load_ff: float
    area_um2: float
    is_sequential: bool = False
    is_scan: bool = False

    def __post_init__(self) -> None:
        names = [p.name for p in self.pins]
        if len(set(names)) != len(names):
            raise LibraryError(f"cell {self.name}: duplicate pin names {names}")
        if not self.is_sequential and self.function not in LOGIC_FUNCTIONS:
            raise LibraryError(
                f"cell {self.name}: unknown logic function {self.function!r}"
            )

    # cached: cells are immutable and these sit on per-gate hot paths
    # (cached_property stores via __dict__, which frozen= permits)
    @functools.cached_property
    def input_pins(self) -> List[CellPin]:
        return [p for p in self.pins if p.direction is PinDirection.INPUT]

    @functools.cached_property
    def output_pin(self) -> CellPin:
        outs = [p for p in self.pins if p.direction is PinDirection.OUTPUT]
        if len(outs) != 1:
            raise LibraryError(f"cell {self.name}: expected 1 output, got {len(outs)}")
        return outs[0]

    @functools.cached_property
    def input_caps(self) -> Dict[str, float]:
        """Input pin name -> pin capacitance (fF)."""
        return {p.name: p.cap_ff for p in self.input_pins}

    def pin(self, name: str) -> CellPin:
        for p in self.pins:
            if p.name == name:
                return p
        raise LibraryError(f"cell {self.name}: no pin named {name!r}")

    def input_cap(self, pin_name: str) -> float:
        pin = self.pin(pin_name)
        if pin.direction is not PinDirection.INPUT:
            raise LibraryError(f"cell {self.name}: pin {pin_name} is not an input")
        return pin.cap_ff

    def delay_ps(self, load_ff: float) -> float:
        """First-order cell delay under *load_ff* femtofarads of load."""
        return self.intrinsic_delay_ps + self.drive_resistance * max(load_ff, 0.0)

    @property
    def data_input_pins(self) -> List[CellPin]:
        """Input pins that carry logic data (excludes clock / scan-enable)."""
        skip = {"CK", "SE"}
        return [p for p in self.input_pins if p.name not in skip]


def evaluate_cell(cell: CellType, inputs: Sequence[int], mask: int) -> int:
    """Evaluate a combinational cell over packed pattern words."""
    if cell.is_sequential:
        raise LibraryError(f"cell {cell.name} is sequential; cannot evaluate as logic")
    return LOGIC_FUNCTIONS[cell.function](inputs, mask)


@dataclass
class Library:
    """A named collection of :class:`CellType` definitions."""

    name: str
    cells: Dict[str, CellType] = field(default_factory=dict)

    def add(self, cell: CellType) -> None:
        if cell.name in self.cells:
            raise LibraryError(f"duplicate cell type {cell.name}")
        self.cells[cell.name] = cell

    def get(self, name: str) -> CellType:
        try:
            return self.cells[name]
        except KeyError:
            raise LibraryError(f"library {self.name}: unknown cell type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells


def _inputs(caps: Dict[str, float]) -> Tuple[CellPin, ...]:
    return tuple(
        CellPin(name, PinDirection.INPUT, cap) for name, cap in caps.items()
    )


def _combo(
    name: str,
    function: str,
    input_caps: Dict[str, float],
    out: str,
    intrinsic: float,
    resistance: float,
    max_load: float,
    area: float,
) -> CellType:
    pins = _inputs(input_caps) + (CellPin(out, PinDirection.OUTPUT),)
    return CellType(
        name=name,
        pins=pins,
        function=function,
        intrinsic_delay_ps=intrinsic,
        drive_resistance=resistance,
        max_load_ff=max_load,
        area_um2=area,
    )


def default_library() -> Library:
    """Build the default 45 nm-flavoured library used by all experiments.

    Caps in fF, delays in ps, resistances in ps/fF, area in um^2.
    """
    lib = Library(name="repro45")
    lib.add(_combo("INV_X1", "inv", {"A": 1.6}, "ZN", 8.0, 3.2, 60.0, 0.53))
    lib.add(_combo("INV_X2", "inv", {"A": 3.2}, "ZN", 8.0, 1.6, 120.0, 0.80))
    lib.add(_combo("BUF_X1", "buf", {"A": 1.7}, "Z", 16.0, 3.0, 60.0, 0.80))
    lib.add(_combo("BUF_X2", "buf", {"A": 3.3}, "Z", 16.0, 1.5, 120.0, 1.06))
    lib.add(_combo("NAND2_X1", "nand", {"A1": 1.8, "A2": 1.8}, "ZN", 10.0, 3.6, 55.0, 0.80))
    lib.add(_combo("NAND3_X1", "nand", {"A1": 2.0, "A2": 2.0, "A3": 2.0}, "ZN", 14.0, 4.2, 50.0, 1.06))
    lib.add(_combo("NOR2_X1", "nor", {"A1": 2.0, "A2": 2.0}, "ZN", 12.0, 4.4, 50.0, 0.80))
    lib.add(_combo("NOR3_X1", "nor", {"A1": 2.2, "A2": 2.2, "A3": 2.2}, "ZN", 18.0, 5.2, 45.0, 1.06))
    lib.add(_combo("AND2_X1", "and", {"A1": 1.7, "A2": 1.7}, "Z", 18.0, 3.4, 55.0, 1.06))
    lib.add(_combo("AND3_X1", "and", {"A1": 1.9, "A2": 1.9, "A3": 1.9}, "Z", 22.0, 3.8, 50.0, 1.33))
    lib.add(_combo("OR2_X1", "or", {"A1": 1.8, "A2": 1.8}, "Z", 20.0, 3.6, 55.0, 1.06))
    lib.add(_combo("OR3_X1", "or", {"A1": 2.0, "A2": 2.0, "A3": 2.0}, "Z", 24.0, 4.0, 50.0, 1.33))
    lib.add(_combo("XOR2_X1", "xor", {"A": 2.8, "B": 2.8}, "Z", 26.0, 4.6, 45.0, 1.60))
    lib.add(_combo("XNOR2_X1", "xnor", {"A": 2.8, "B": 2.8}, "ZN", 26.0, 4.6, 45.0, 1.60))
    lib.add(_combo("MUX2_X1", "mux2", {"A": 2.1, "B": 2.1, "S": 2.6}, "Z", 30.0, 4.2, 50.0, 1.86))
    lib.add(_combo("AOI21_X1", "aoi21", {"A1": 1.9, "A2": 1.9, "B": 2.1}, "ZN", 14.0, 4.4, 48.0, 1.06))
    lib.add(_combo("OAI21_X1", "oai21", {"A1": 1.9, "A2": 1.9, "B": 2.1}, "ZN", 14.0, 4.4, 48.0, 1.06))

    dff_pins = (
        CellPin("D", PinDirection.INPUT, 2.0),
        CellPin("CK", PinDirection.INPUT, 1.4),
        CellPin("Q", PinDirection.OUTPUT),
    )
    lib.add(
        CellType(
            name="DFF_X1",
            pins=dff_pins,
            function="dff",
            intrinsic_delay_ps=60.0,
            drive_resistance=3.0,
            max_load_ff=60.0,
            area_um2=4.52,
            is_sequential=True,
        )
    )
    sdff_pins = (
        CellPin("D", PinDirection.INPUT, 2.0),
        CellPin("SI", PinDirection.INPUT, 2.0),
        CellPin("SE", PinDirection.INPUT, 1.8),
        CellPin("CK", PinDirection.INPUT, 1.4),
        CellPin("Q", PinDirection.OUTPUT),
    )
    lib.add(
        CellType(
            name="SDFF_X1",
            pins=sdff_pins,
            function="dff",
            intrinsic_delay_ps=64.0,
            drive_resistance=3.0,
            max_load_ff=60.0,
            area_um2=6.38,
            is_sequential=True,
            is_scan=True,
        )
    )
    return lib


#: Default capacity threshold (fF) a single wrapper-cell driver can carry.
#: The paper's ``cap_th`` comes "from cell library": a reused scan FF (or
#: dedicated wrapper cell) drives the TSV's test-mode load through an X2
#: buffer, so the limit is the BUF_X2 max load.
DEFAULT_CAP_TH_FF = default_library().get("BUF_X2").max_load_ff
