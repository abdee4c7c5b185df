"""Two-tier kernel build cache.

Tier 1 is an in-memory memo from a canonical build key to the finished
:class:`~repro.compiler.kernel.Kernel`, so loops that rebuild an
identical kernel (benchmark harnesses, repeated ``compile_kernel``
calls) get the compiled artifact back without re-running
lower → compile → optimize → codegen.  It is a least-recently-used
table of :data:`MEMO_ENTRIES` kernels: a process keeps the kernels it
uses, not every kernel it ever built.  A miss past the bound costs a
tier-2 restore, not a compile (DESIGN.md "Optimizer & kernel cache").

Tier 2 generalizes the shared-object cache in ``codegen_c._Artifact`` to
every source-emitting backend: the emitted source plus the metadata
needed to reconstruct a kernel object (params, declarations, workspace
dim) is written to a JSON file keyed by the same canonical key.  A
fresh process can then skip lowering and optimization entirely and go
straight to backend construction — which for the C backend also hits
the existing source-hash ``.so`` cache, so no compiler is invoked.

The canonical key hashes: a cache format version, the contraction
expression (structural repr), the signature of every input spec, the
output spec signature, the semiring and value type, backend, search
strategy, locate flag, opt level, and vectorize flag.  User-defined
``Op``s are identified *by name* in the key; two different ops sharing
a name and type signature would collide, so kernels whose IR contains
``ECall``s are never written to the disk tier (their Python callables
cannot be serialized anyway) and are memoized in memory only.

The disk tier is crash-safe and self-verifying: payloads are published
with write-to-temp + ``os.replace`` under a per-key file lock, carry a
sha256 checksum over the canonical JSON body, and a corrupt or
truncated entry is *quarantined* (renamed to ``<name>.corrupt``) and
rebuilt — logged via the ``repro`` logger, never a crash and never a
silent wrong answer.

Environment variables:

* ``REPRO_KERNEL_CACHE_DIR`` — directory for the disk tier (default
  ``$TMPDIR/repro_kernels``, shared with the ``.so`` cache);
* ``REPRO_KERNEL_CACHE=0`` (or ``off``/``no``/``false``) — disable the
  disk tier (the in-memory memo is controlled per-builder with
  ``KernelBuilder(cache=False)``).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro import config
from repro.compiler import resilience
from repro.compiler.resilience import logger

CACHE_VERSION = 11  # v11: the payload carries no capacity-lint verdict

#: tier 1's bound: about twice the largest working set a benchmark
#: workload has (30 keys: ``lib_dispatch`` / ``lib_kernel``'s three
#: set-up repetitions of ten kernels)
MEMO_ENTRIES = 64


def remember(table: "OrderedDict[str, Any]", key: str, value: Any = None) -> None:
    """Put ``key`` last in the least-recently-used ``table``; the oldest
    entries beyond :data:`MEMO_ENTRIES` go.  Tier 1, a pool worker's
    kernel table and the parent's mirror of it all evict by this rule."""
    table[key] = value
    table.move_to_end(key)
    while len(table) > MEMO_ENTRIES:
        table.popitem(last=False)


def default_cache_dir() -> Path:
    """The disk-tier directory (also used for cached ``.so`` files)."""
    env = config.get("REPRO_KERNEL_CACHE_DIR")
    return Path(env) if env else Path(tempfile.gettempdir()) / "repro_kernels"


@dataclass
class CacheStats:
    """Hit/miss counters, exposed for tests and benchmark harnesses."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def reset(self) -> None:
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0


class KernelCache:
    """The process-wide kernel cache (both tiers). Thread-safe."""

    def __init__(self, cache_dir: Optional[Path] = None) -> None:
        self._lock = threading.Lock()
        self._memo: "OrderedDict[str, Any]" = OrderedDict()
        self._cache_dir = cache_dir
        self.stats = CacheStats()

    # -- tier 1: in-memory, the least recently used entry goes first -------
    def lookup(self, key: str) -> Any:
        with self._lock:
            kernel = self._memo.get(key)
            if kernel is not None:
                self._memo.move_to_end(key)
                self.stats.memory_hits += 1
            return kernel

    def store(self, key: str, kernel: Any) -> None:
        with self._lock:
            remember(self._memo, key, kernel)

    def record_miss(self) -> None:
        with self._lock:
            self.stats.misses += 1

    # -- tier 2: on-disk source/metadata ----------------------------------
    def cache_dir(self) -> Path:
        return self._cache_dir if self._cache_dir is not None else default_cache_dir()

    def _payload_path(self, key: str) -> Path:
        return self.cache_dir() / f"kmeta_{key[:24]}.json"

    def load_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored build payload for ``key``, or None.

        A missing entry and a stale version are silent misses; a
        corrupt entry (unparseable JSON, checksum mismatch, missing
        envelope fields) is quarantined and logged, then treated as a
        miss so the caller rebuilds.
        """
        if not config.get("REPRO_KERNEL_CACHE"):
            return None
        path = self._payload_path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("kernel cache entry %s unreadable (%s)", path, exc)
            return None
        try:
            record = json.loads(text)
            if isinstance(record, dict) and "payload" not in record and "version" in record:
                return None  # pre-checksum (v1) entry: stale, plain miss
            payload = record["payload"]
            digest = record["sha256"]
        except (ValueError, TypeError, KeyError) as exc:
            logger.warning(
                "corrupt kernel cache entry %s (%s: %s); quarantining",
                path, type(exc).__name__, exc,
            )
            resilience.quarantine(path)
            return None
        if digest != _payload_digest(payload):
            logger.warning(
                "kernel cache entry %s failed its checksum; quarantining", path
            )
            resilience.quarantine(path)
            return None
        if payload.get("version") != CACHE_VERSION or payload.get("key") != key:
            return None  # stale format or hash-prefix collision: plain miss
        with self._lock:
            self.stats.disk_hits += 1
        return payload

    def store_payload(self, key: str, payload: Dict[str, Any]) -> None:
        if not config.get("REPRO_KERNEL_CACHE"):
            return
        payload = dict(payload, version=CACHE_VERSION, key=key)
        record = {"sha256": _payload_digest(payload), "payload": payload}
        path = self._payload_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with resilience.file_lock(path):
                resilience.atomic_write_text(path, json.dumps(record))
        except OSError as exc:
            # the disk tier is best-effort, but skipping it is not silent
            logger.warning("could not store kernel cache entry %s (%s)", path, exc)

    def invalidate_payload(self, key: str) -> None:
        """Drop ``key``'s disk entry (quarantine it for post-mortem)."""
        path = self._payload_path(key)
        if path.exists():
            resilience.quarantine(path)

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._memo.clear()
            self.stats.reset()
        if disk:
            try:
                for f in self.cache_dir().glob("kmeta_*.json"):
                    f.unlink()
            except OSError:
                pass


def _payload_digest(payload: Any) -> str:
    """sha256 over the canonical JSON body (key-sorted, so the digest
    is independent of dict insertion order)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


#: the default process-wide cache used by :class:`KernelBuilder`
kernel_cache = KernelCache()


# ----------------------------------------------------------------------
# canonical build key
# ----------------------------------------------------------------------
def _spec_signature(spec: Any) -> tuple:
    """A canonical, hashable signature of an input spec."""
    # FunctionInput (check first: it has no `formats`)
    if hasattr(spec, "op"):
        return (
            "function",
            spec.name,
            tuple(spec.attrs),
            spec.op.name,
            tuple(spec.op.arg_types),
            spec.op.ret_type,
            tuple(spec.dims),
        )
    # TensorInput
    if hasattr(spec, "ops"):
        return (
            "tensor",
            spec.name,
            tuple(spec.attrs),
            tuple(spec.formats),
            spec.ops.semiring.name,
            spec.ops.type,
            spec.crd_types,
        )
    return ("opaque", repr(spec))


def kernel_cache_key(
    expr: Any,
    specs: Dict[str, Any],
    output: Any,
    *,
    semiring: Any,
    backend: str,
    search: str,
    locate: bool,
    opt_level: int,
    vectorize: bool,
    name: str,
    attr_dims: Optional[Dict[str, int]] = None,
    sanitize: Tuple[str, ...] = (),
) -> str:
    """sha256 of the canonical description of one kernel build.

    ``sanitize`` participates because the requested sanitizers change
    the generated artifact (ASan/UBSan build flags for C, the checked
    bounds-verifying emitter for Python) — a sanitized and an
    unsanitized build of the same kernel must never share a cache slot.
    """
    parts = (
        CACHE_VERSION,
        repr(expr),
        tuple(_spec_signature(specs[k]) for k in sorted(specs)),
        repr(output),  # OutputSpec is a frozen dataclass (or None): repr is canonical
        semiring.name,
        backend,
        search,
        bool(locate),
        int(opt_level),
        bool(vectorize),
        name,
        tuple(sorted((attr_dims or {}).items())),
        tuple(sanitize),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()
