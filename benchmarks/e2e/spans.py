"""In-memory spans for the end-to-end benchmark's traced pass.

The benchmark wraps every public call it makes into a layer of the
program in a span (name, start, end, parent). Spans stay in memory and
are written out once, when the workload ends. A layer's self time is
its span's duration minus the time its child spans cover; spans are
opened from one thread only, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List, Optional

#: root spans that are not layers: one per timed pass, one for set-up
PASS = "pass"
SETUP = "setup"


class Tracer:
    """Records nested spans opened with :meth:`span`."""

    enabled = True

    def __init__(self) -> None:
        #: [id, parent id or None, name, start, end]
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._open[-1] if self._open else None,
                  name, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def self_times(self, root: str) -> Dict[str, float]:
        """Self time per span name, summed over every span below a root
        span named *root* (the roots themselves included)."""
        children: Dict[int, float] = {}
        for _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + end - start
        root_of: Dict[int, Optional[str]] = {}
        totals: Dict[str, float] = {}
        for sid, parent, name, start, end in self.spans:
            top = name if parent is None else root_of[parent]
            root_of[sid] = top
            if top == root:
                totals[name] = (totals.get(name, 0.0)
                                + (end - start) - children.get(sid, 0.0))
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([{"id": sid, "parent": parent, "name": name,
                        "start": start, "end": end}
                       for sid, parent, name, start, end in self.spans],
                      handle)
