"""Deterministic random-number helpers.

All stochastic steps in the package (circuit generation, placement
jitter, random-pattern ATPG) draw from a :class:`DeterministicRng` seeded
from an explicit root seed so that every experiment is reproducible
bit-for-bit across runs and machines.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, TypeVar

T = TypeVar("T")


def derive_seed(root: int, *labels: object) -> int:
    """Derive a child seed from *root* and a label path.

    Uses SHA-256 so unrelated labels produce statistically independent
    streams, and a change in one subsystem's draws never perturbs
    another's.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


class DeterministicRng(random.Random):
    """A :class:`random.Random` with seed derivation.

    Call sites never touch the global ``random`` module, and child
    generators can be split off by label::

        rng = DeterministicRng(1234)
        placement_rng = rng.child("placement", die_index)

    Every draw method is :class:`random.Random`'s own (``random()`` and
    ``getrandbits()`` must stay un-overridden, or
    ``Random.__init_subclass__`` would switch ``_randbelow`` and move
    every draw).
    """

    def __init__(self, seed: int) -> None:
        #: the root seed (``Random.seed`` is the re-seeding method)
        self.root_seed = int(seed)
        super().__init__(self.root_seed)

    def __reduce__(self):
        # Random's own reduce would re-create the object without a seed
        return DeterministicRng, (self.root_seed,), self.getstate()

    def child(self, *labels: object) -> "DeterministicRng":
        """Return an independent generator derived from this one."""
        return DeterministicRng(derive_seed(self.root_seed, *labels))

    def shuffled(self, items: Iterable[T]) -> List[T]:
        """Return a shuffled copy, leaving the input untouched."""
        copy = list(items)
        self.shuffle(copy)
        return copy
