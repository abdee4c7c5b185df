"""Per-request deadline budgets.

A request enters the server with one wall-clock budget; every stage —
queueing, coalescing, compiling, each retry attempt, the supervised
run on a pool worker itself — spends from the *same* clock.  The
budget's remaining time is what gets handed to
``Kernel.run(deadline=...)``, so a request that spent half its budget
waiting on a coalesced leader or a retry backoff gives the kernel only
the other half, and a request whose budget is gone is failed without
dispatching at all.
"""

from __future__ import annotations

import time
from typing import Optional


class Budget:
    """A monotonic countdown started at construction."""

    __slots__ = ("total", "_t0")

    def __init__(self, total: float) -> None:
        self.total = float(total)
        self._t0 = time.monotonic()

    def remaining(self) -> float:
        """Seconds left, clamped at zero."""
        return max(0.0, self.total - (time.monotonic() - self._t0))

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


def request_budget(
    deadline_ms: Optional[float], default: float
) -> Budget:
    """The budget for one request: the client's ``deadline_ms`` when
    given (clamped to the server default — a client cannot buy more
    time than the operator configured), else the default."""
    if deadline_ms is None:
        return Budget(default)
    seconds = max(0.0, float(deadline_ms) / 1000.0)
    return Budget(min(seconds, default))


__all__ = ["Budget", "request_budget"]
