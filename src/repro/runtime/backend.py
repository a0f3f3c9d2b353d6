"""Kernel backend selection: pure-Python vs NumPy bit-plane kernels.

Two hot kernels have two interchangeable implementations (DESIGN.md
§11): packed-pattern fault simulation (:mod:`repro.atpg`) and the STA
arrival/required sweeps (:mod:`repro.sta.timer`). The *backend* names
which implementation the process uses:

* ``python`` — the original big-int / dict kernels; no third-party
  dependencies. The default.
* ``numpy`` — uint64 bit-plane arrays and vectorized sweeps. Requires
  :mod:`numpy`.

Everything else, PODEM and the sharing-graph sweep included, has one
implementation that runs the same on either backend.

Both backends are **byte-identical**: results, per-category statistics
and manifest fingerprints must not depend on the choice (enforced by
``tests/test_kernel_equivalence.py`` and the fuzz oracles, which run
over both). Selection precedence is ``--backend`` flag > explicit
:func:`repro.runtime.configure` argument > ``$REPRO_BACKEND`` > the
``python`` default; worker processes inherit the parent's choice via
:func:`repro.runtime.config.apply_config`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.util.errors import ConfigError

#: recognized backend names, in documentation order
BACKENDS: Tuple[str, ...] = ("python", "numpy")

_NUMPY_OK: Optional[bool] = None


def numpy_available() -> bool:
    """Whether :mod:`numpy` is importable (cached per process)."""
    global _NUMPY_OK
    if _NUMPY_OK is None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            _NUMPY_OK = False
        else:
            _NUMPY_OK = True
    return _NUMPY_OK


def validate_backend(name: str) -> str:
    """Check *name* is a usable backend; returns it normalized.

    Raises :class:`~repro.util.errors.ConfigError` for unknown names
    and for ``numpy`` when the interpreter has no numpy installed —
    callers surface that as a clean CLI error, not a traceback.
    """
    normalized = str(name).strip().lower()
    if normalized not in BACKENDS:
        raise ConfigError(
            f"unknown backend {name!r} (choose from "
            f"{', '.join(BACKENDS)})")
    if normalized == "numpy" and not numpy_available():
        raise ConfigError(
            "backend 'numpy' requires the numpy package, which is not "
            "installed; install numpy or use --backend python")
    return normalized


def active_backend() -> str:
    """The backend currently configured for this process."""
    from repro.runtime.config import current_config

    return current_config().backend


def use_numpy() -> bool:
    """True when the numpy kernels should be used."""
    return active_backend() == "numpy"
