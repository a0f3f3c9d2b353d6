"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch domain failures without swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class NetlistError(ReproError):
    """Structural problem in a netlist: dangling net, duplicate name,
    multiple drivers, unknown pin, combinational cycle."""


class LibraryError(ReproError):
    """Unknown cell type, pin, or malformed library data."""


class TimingError(ReproError):
    """Static-timing analysis failure (e.g. no clock defined, or timing
    queried for a node outside the analyzed netlist)."""


class AtpgError(ReproError):
    """Fault-model or test-generation failure."""


class PartitionError(ReproError):
    """Malformed die stack (bad TSV link, die index out of range)."""


class ConfigError(ReproError):
    """Invalid WCM configuration (e.g. negative thresholds)."""


class RuntimeExecutionError(ReproError):
    """A supervised experiment sweep could not complete a cell (worker
    crash, repeated failure, broken worker pool) under a strict policy,
    or the pool itself became unusable."""


class CellTimeoutError(RuntimeExecutionError):
    """One experiment cell exceeded its wall-clock budget and its
    worker was killed."""
