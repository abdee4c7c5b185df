"""Memory governor: budgeted accumulation and streaming ⊕-merge.

``run_sharded`` historically held every shard partial resident until
the final ``merge_partials`` call — fine when partials are small,
fatal when a contracted split produces ``shards`` full-shape partials
of a large output.  The governor bounds that residency:
:class:`PartialAccumulator` collects partials as they complete, and
whenever the resident set would exceed ``REPRO_MEM_BUDGET_MB`` it
spills the excess to the job journal (each spill is the same atomic,
checksummed shard file a durable run writes anyway) and later merges
with a *streaming* incremental ⊕-fold that loads one spilled partial
at a time.

Correctness rests on Theorem 6.1 exactly as the eager merge does: a
contracted split's merge is a left ⊕-fold in shard-index order that
reads each partial once, so the streaming merge *is* the eager one
(:func:`repro.runtime.merge.merge_partials`) fed by a generator that
interleaves loads with combines — a sparse-output fold included: each
partial's coordinate columns are folded into the running result before
the next is loaded, so its floor is the output plus one partial.  The
result is therefore bit-identical to the in-RAM path, floating point
included.  Free splits concatenate rather than combine; the
concatenation output must exist in full, so a free merge's floor is
the output size — the governor still bounds the *partial* overhead by
loading spilled windows only at merge time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.compiler.resilience import logger
from repro.data.tensor import Tensor
from repro.errors import CacheCorruptionError
from repro.runtime.jobs import JobJournal
from repro.runtime.merge import merge_partials

#: accounting size of a scalar partial (a Python number)
_SCALAR_BYTES = 32


def partial_nbytes(result: Any) -> int:
    """Resident footprint of one shard partial, in bytes."""
    if not isinstance(result, Tensor):
        return _SCALAR_BYTES
    total = int(result.vals.nbytes)
    total += sum(int(a.nbytes) for a in result.pos.values())
    total += sum(int(a.nbytes) for a in result.crd.values())
    return total


class PartialAccumulator:
    """Collects shard partials under a resident-memory budget.

    ``budget_bytes=None`` keeps everything resident.  With a budget,
    partials past the limit are spilled to ``journal`` (lowest shard
    index first) and :meth:`merge` streams them back one at a time —
    through the same :func:`merge_partials`, in the same shard-index
    order, so governed and ungoverned runs are bit-for-bit equal.
    """

    def __init__(
        self,
        kernel,
        plan,
        journal: Optional[JobJournal],
        budget_bytes: Optional[float] = None,
    ) -> None:
        self.kernel = kernel
        self.plan = plan
        self.journal = journal
        self.budget_bytes = budget_bytes
        self._resident: Dict[int, Any] = {}
        self._sizes: Dict[int, int] = {}
        self._journaled: set = set()   # indices with a valid shard file
        self._disk_only: set = set()   # journaled and evicted from RAM
        self._pinned: set = set()      # spill failed; keep resident
        #: spill events (evictions), for stats and tests
        self.spills = 0
        #: high-water mark of resident partial bytes
        self.peak_resident = 0

    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return sum(self._sizes.values())

    def add(self, index: int, result: Any, journaled: bool = False) -> None:
        """Accept one completed shard partial (``journaled=True`` when a
        valid shard file for it already exists on disk)."""
        self._resident[index] = result
        self._sizes[index] = partial_nbytes(result)
        if journaled:
            self._journaled.add(index)
        self.peak_resident = max(self.peak_resident, self.resident_bytes)
        self._enforce()

    def spilled_indices(self) -> set:
        return set(self._disk_only)

    # ------------------------------------------------------------------
    def _enforce(self) -> None:
        """Evict resident partials (lowest index first) while over budget.

        A partial not yet journaled is written to the journal first; a
        failed write pins it resident (durability degraded, never a
        lost result).  At least one partial always stays evictable —
        the last resident one is kept so the merge has a starting
        accumulator without an immediate re-load.
        """
        if self.budget_bytes is None or self.journal is None:
            return
        while self.resident_bytes > self.budget_bytes:
            victims = [i for i in sorted(self._resident)
                       if i not in self._pinned]
            if len(victims) <= 1:
                return
            victim = victims[0]
            if victim not in self._journaled:
                if self.journal.write_shard(victim, self._resident[victim]):
                    self._journaled.add(victim)
                else:
                    self._pinned.add(victim)
                    continue
            del self._resident[victim]
            del self._sizes[victim]
            self._disk_only.add(victim)
            self.spills += 1
            logger.debug(
                "memory governor: spilled shard %d partial of kernel %r "
                "(%d resident bytes left)",
                victim, self.kernel.name, self.resident_bytes,
            )

    # ------------------------------------------------------------------
    def _take(self, index: int):
        """Shard ``index``'s partial, from RAM or the journal, consumed."""
        if index in self._resident:
            result = self._resident.pop(index)
            self._sizes.pop(index, None)
            return result
        result = self.journal.load_shard(
            index, self.kernel.ops.semiring
        ) if self.journal is not None else None
        if result is None:
            raise CacheCorruptionError(
                f"spilled shard {index} partial of kernel "
                f"{self.kernel.name!r} is missing or corrupt; re-run to "
                "recompute it",
                path=str(self.journal._shard_path(index))
                if self.journal is not None else None,
            )
        return result

    def merge(self) -> Any:
        """Combine all accumulated partials, streaming spilled ones:
        one :func:`merge_partials` call, fed in shard-index order.  A
        contracted merge reads each partial once, so a disk-only one is
        loaded just in time and a resident one released as consumed."""
        indices = sorted(set(self._resident) | self._disk_only)
        partials = (self._take(i) for i in indices)
        if self.plan.kind == "free":
            # concatenation needs every window at once; the output-sized
            # allocation is the floor for any free merge
            partials = list(partials)
        return merge_partials(self.kernel, self.plan, partials)


__all__ = ["PartialAccumulator", "partial_nbytes"]
