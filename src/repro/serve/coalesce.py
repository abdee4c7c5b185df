"""Single-flight coalescing of identical queries.

:class:`SingleFlight` sits between admission and execution: *identical*
queries (same kernel **and** same operand content, per
``PreparedQuery.coalesce_key``) share one execution — the first arrival
computes, everyone else awaits its future.  A thundering herd of the
same contraction costs one compile and one run.  Queries that differ
only in their operands each take the one route every served query
takes: a supervised run on a pool worker, behind the breaker.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Tuple


class SingleFlight:
    """Coalesce concurrent identical calls onto one in-flight future."""

    def __init__(self) -> None:
        self._inflight: Dict[str, asyncio.Future] = {}
        self.coalesced = 0

    async def run(
        self, key: str, thunk: Callable[[], Awaitable[Any]]
    ) -> Tuple[Any, bool]:
        """Returns ``(result, led)``; ``led`` is False for followers
        that rode an already-in-flight execution."""
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            return await asyncio.shield(existing), False
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = fut
        try:
            result = await thunk()
        except BaseException as exc:
            if not fut.done():
                fut.set_exception(exc)
                fut.exception()  # mark retrieved; followers re-raise it
            raise
        else:
            if not fut.done():
                fut.set_result(result)
            return result, True
        finally:
            self._inflight.pop(key, None)


__all__ = ["SingleFlight"]
