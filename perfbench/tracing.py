"""In-memory spans recorded by the benchmark around calls into each layer.

Only traced runs (``--trace 1``) create a :class:`Tracer`; untraced runs
never touch this module, so their end-to-end numbers carry no tracing
cost.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects ``(name, request, parent, start, end)`` spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        """Time the body as span ``name``; nested spans record their parent."""
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "request": request,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
