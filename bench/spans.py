"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own files around calls into the
program's public functions (spans inside the program are a later
change).  A span carries name, start, end, the span that caused it,
the op it belongs to and the cell; everything stays in memory until
:meth:`Tracer.dump` writes ``trace.json`` at exit.

Span times are wall-clock nanoseconds.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        # one column per field: appending to lists is the cheapest
        # record there is, and sub-100 µs ops are traced with this
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.op_ids: List[int] = []
        self.cells: List[str] = []
        self._stack: List[int] = []
        #: the cell that spans recorded from now on belong to
        self.cell = ""
        self.ops = 0
        self.failed_ops = 0

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(0)
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.ops - 1)
        self.cells.append(self.cell)
        return index

    def call(self, name: str, fn: Callable[..., Any], /, *args, **kwargs) -> Any:
        """Run ``fn`` inside a span called ``name``; returns its result."""
        index = self._open(name)
        self._stack.append(index)
        self.starts[index] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._stack.pop()

    def op(self, cell: str, fn: Callable[..., Any], /, *args, **kwargs) -> Any:
        """One traced op of ``cell``: a root span named ``op`` around
        ``fn``.  An exception counts the op as failed and returns None."""
        self.cell = cell
        self.ops += 1
        try:
            return self.call("op", fn, *args, **kwargs)
        except Exception as exc:
            self.failed_ops += 1
            print(f"[bench] traced {cell}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add an already-measured span (client timestamps, a duration
        the program reported) under the current parent."""
        index = self._open(name)
        self.starts[index] = int(start_ns)
        self.ends[index] = int(end_ns)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[Tuple[str, str], List[float]]:
        """Self time (span minus the part its children cover) of every
        span, in ns, grouped by ``(cell, span name)``."""
        child_ns = [0] * len(self.names)
        for k, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[k] - self.starts[k]
        out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        for k, name in enumerate(self.names):
            own = self.ends[k] - self.starts[k] - child_ns[k]
            out[(self.cells[k], name)].append(max(0, own))
        return out

    def op_times(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per cell, ``(duration, summed duration of direct children)``
        in ns of every ``op`` span — numerator and denominator of the
        tracing overhead, and the numerator of ``trace.coverage``."""
        cover: Dict[int, int] = {
            k: 0 for k, name in enumerate(self.names) if name == "op"}
        for k, parent in enumerate(self.parents):
            if parent in cover:
                cover[parent] += self.ends[k] - self.starts[k]
        out: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for k, covered in cover.items():
            out[self.cells[k]].append((self.ends[k] - self.starts[k], covered))
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent", "op", "cell"],
                "spans": list(zip(self.names, self.starts, self.ends,
                                  self.parents, self.op_ids, self.cells)),
            }, fh)
