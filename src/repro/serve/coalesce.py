"""Single-flight coalescing and micro-batching of compatible queries.

Two collapsing layers between admission and execution:

* :class:`SingleFlight` — *identical* queries (same kernel **and** same
  operand content, per ``PreparedQuery.coalesce_key``) share one
  execution: the first arrival computes, everyone else awaits its
  future.  A thundering herd of the same contraction costs one compile
  and one run.
* :class:`Batcher` — *compatible* queries (same kernel, same capacity,
  different operands, per ``batch_key``) arriving within the batch
  window fold into a single ``Kernel.run_batch`` call: one build-cache
  hit and one executor round for N requests.  Batched items rely on
  ``run_batch``'s own per-item failover rather than the server retry
  loop — a deliberate trade: the batch shares one dispatch, so one
  item's deterministic failure must not replay its neighbors.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.compiler.resilience import logger
from repro.serve.deadline import Budget
from repro.serve.query import PreparedQuery, _encode_result


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


class _Group:
    """One forming batch: items joined before the window closed."""

    __slots__ = ("items", "timer", "flushed")

    def __init__(self) -> None:
        self.items: List[Tuple[PreparedQuery, Budget, asyncio.Future]] = []
        self.timer: Optional[asyncio.TimerHandle] = None
        self.flushed = False


class Batcher:
    """Fold compatible queries into ``Kernel.run_batch`` dispatches."""

    def __init__(
        self,
        window: float,
        max_items: int,
        run_in_executor: Callable[..., Awaitable[Any]],
    ) -> None:
        self.window = window
        self.max_items = max(1, max_items)
        self._run_in_executor = run_in_executor
        self._groups: Dict[str, _Group] = {}
        self.batches = 0
        self.batched_items = 0

    async def submit(self, prepared: PreparedQuery, budget: Budget) -> Any:
        """Join (or open) the batch for this query's key; resolves to
        this item's encoded result."""
        key = prepared.batch_key
        assert key is not None
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        group = self._groups.get(key)
        if group is None or group.flushed:
            group = _Group()
            self._groups[key] = group
            group.timer = loop.call_later(
                self.window, self._flush_soon, key, group
            )
        group.items.append((prepared, budget, fut))
        if len(group.items) >= self.max_items:
            self._flush_soon(key, group)
        return await fut

    def _flush_soon(self, key: str, group: _Group) -> None:
        if group.flushed:
            return
        group.flushed = True
        if group.timer is not None:
            group.timer.cancel()
        if self._groups.get(key) is group:
            del self._groups[key]
        asyncio.get_running_loop().create_task(self._flush(group))

    async def _flush(self, group: _Group) -> None:
        items = group.items
        self.batches += 1
        self.batched_items += len(items)
        try:
            results = await self._run_in_executor(self._execute, items)
        except BaseException as exc:
            for _, _, fut in items:
                if not fut.done():
                    fut.set_exception(exc)
                    fut.exception()
            return
        for (_, _, fut), result in zip(items, results):
            if not fut.done():
                fut.set_result(result)

    def _execute(self, items) -> List[Any]:
        """Blocking batch dispatch (executor thread)."""
        leader, _, _ = items[0]
        kernel = leader.build()
        # the batch can only run as long as its most impatient member
        deadline = min(b.remaining() for _, b, _ in items)
        runs = [p.plan.inputs for p, _, _ in items]
        if len(items) > 1:
            logger.info(
                "serve: batched %d compatible queries for kernel %r",
                len(items), kernel.name,
            )
        outs = kernel.run_batch(
            runs, capacity=leader.capacity, deadline=max(0.001, deadline),
        )
        return [_encode_result(out) for out in outs]


__all__ = ["SingleFlight", "Batcher"]
