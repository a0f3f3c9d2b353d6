"""3D-IC modelling: die stacks and TSV links.

The paper partitions each ITC'99 circuit into four dies with 3D-Craft.
This reproduction instead builds dies calibrated to the paper's
Table II directly (:func:`repro.bench.generate_die`) and bonds them
into a :class:`Stack3D` with :func:`repro.bench.generate_stack`; every
experiment takes its stacks from there.
"""

from repro.threed.model import Stack3D, TsvLink

__all__ = [
    "Stack3D",
    "TsvLink",
]
