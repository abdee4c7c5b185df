"""Persistent decision cache + outcome feedback loop.

A *decision* is everything the tuner chose for one workload signature:
contraction ordering, output format stack, search strategy, executor
and shard count, plus the cost prediction it was based on.
Decisions are keyed by a bucketed workload signature — operand
shapes/formats and per-level density buckets plus the expression — so
a warm server never re-searches for traffic it has seen before, across
restarts.

Records live next to the kernel cache (one ``atun_<sig>.json`` per
signature) and use the same crash-safety machinery: per-key flock,
write-temp-and-rename publication, a sha256 checksum over the
canonical body, and quarantine-and-rebuild on any corruption.

Feedback: the serving layer reports each query's observed runtime via
:meth:`DecisionCache.record_outcome`.  An EWMA of observations is kept
with the record; when it drifts outside a 3× band around the
prediction the record is marked *stale* and carries a correction
factor, and the next lookup re-searches instead of trusting it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.compiler import resilience
from repro.compiler.cache import _payload_digest
from repro.compiler.resilience import logger

from repro.autotune.calibrate import tune_cache_dir

#: 2: a decision no longer names an opt level, and ``executor`` is one
#: of thread/pool — records written under 1 are plain misses
DECISION_VERSION = 2
#: EWMA weight of the newest observation
EWMA_ALPHA = 0.4
#: prediction is "wrong" when the observed EWMA leaves this band
STALE_RATIO = 3.0
#: observations before staleness can trigger at all
STALE_MIN_COUNT = 3


@dataclass(frozen=True)
class Decision:
    """One tuned plan, as stored and as applied."""

    #: global attribute ordering (None = caller/appearance order)
    order: Optional[Tuple[str, ...]] = None
    #: output format stack (None = caller default)
    output_formats: Optional[Tuple[str, ...]] = None
    search: str = "linear"
    #: shard executor ("thread" | "pool"); None = serial
    executor: Optional[str] = None
    shards: Optional[int] = None
    #: sparse-output capacity to pre-allocate (skips auto-grow retries)
    capacity_hint: Optional[int] = None
    predicted_s: float = 0.0
    predicted_units: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["order"] = list(self.order) if self.order else None
        d["output_formats"] = (
            list(self.output_formats) if self.output_formats else None
        )
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Decision":
        return cls(
            order=tuple(d["order"]) if d.get("order") else None,
            output_formats=(
                tuple(d["output_formats"]) if d.get("output_formats") else None
            ),
            search=d.get("search", "linear"),
            executor=d.get("executor"),
            shards=d.get("shards"),
            capacity_hint=d.get("capacity_hint"),
            predicted_s=float(d.get("predicted_s", 0.0)),
            predicted_units=float(d.get("predicted_units", 0.0)),
        )


@dataclass
class DecisionRecord:
    """A cached decision plus its observed-outcome statistics."""

    signature: str
    decision: Decision
    explain: Dict[str, Any] = field(default_factory=dict)
    count: int = 0
    ewma_s: float = 0.0
    stale: bool = False
    correction: float = 1.0


class DecisionCache:
    """Two-tier (memo + disk) decision store, thread-safe."""

    def __init__(self, cache_dir: Optional[Path] = None) -> None:
        self._lock = threading.Lock()
        self._memo: Dict[str, DecisionRecord] = {}
        self._cache_dir = cache_dir
        self.hits = 0
        self.misses = 0

    def cache_dir(self) -> Path:
        return self._cache_dir if self._cache_dir is not None else tune_cache_dir()

    def _path(self, signature: str) -> Path:
        return self.cache_dir() / f"atun_{signature[:24]}.json"

    # ------------------------------------------------------------------
    def lookup(self, signature: str) -> Optional[DecisionRecord]:
        """The cached record for ``signature``, or None.  Stale records
        (observed runtime drifted out of the prediction band) are
        returned too — callers check ``record.stale`` and re-search,
        reusing ``record.correction`` to debias the next prediction."""
        with self._lock:
            rec = self._memo.get(signature)
        if rec is None:
            rec = self._load(signature)
            if rec is not None:
                with self._lock:
                    self._memo[signature] = rec
        with self._lock:
            if rec is None:
                self.misses += 1
            else:
                self.hits += 1
        return rec

    def store(
        self,
        signature: str,
        decision: Decision,
        explain: Optional[Dict[str, Any]] = None,
        correction: float = 1.0,
    ) -> DecisionRecord:
        rec = DecisionRecord(signature, decision, explain or {},
                             correction=correction)
        with self._lock:
            self._memo[signature] = rec
        self._persist(rec)
        return rec

    def record_outcome(self, signature: str, observed_s: float) -> None:
        """Fold one observed runtime into the record's EWMA; mark the
        record stale when the EWMA leaves the prediction band.  Disk
        writes are throttled (first few observations, then every 16th)
        so a hot query does not rewrite its record per request."""
        with self._lock:
            rec = self._memo.get(signature)
        if rec is None:
            rec = self._load(signature)
            if rec is None:
                return
            with self._lock:
                self._memo[signature] = rec
        with self._lock:
            rec.count += 1
            rec.ewma_s = (
                observed_s if rec.count == 1
                else (1 - EWMA_ALPHA) * rec.ewma_s + EWMA_ALPHA * observed_s
            )
            predicted = rec.decision.predicted_s
            if (
                rec.count >= STALE_MIN_COUNT
                and predicted > 0
                and not (
                    predicted / STALE_RATIO
                    <= rec.ewma_s
                    <= predicted * STALE_RATIO
                )
            ):
                rec.stale = True
                rec.correction = rec.ewma_s / predicted
            persist = rec.count <= STALE_MIN_COUNT or rec.count % 16 == 0
        if persist or rec.stale:
            self._persist(rec)

    def invalidate(self, signature: str) -> None:
        with self._lock:
            self._memo.pop(signature, None)
        path = self._path(signature)
        if path.exists():
            resilience.quarantine(path)

    def clear_memo(self) -> None:
        with self._lock:
            self._memo.clear()
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _persist(self, rec: DecisionRecord) -> None:
        payload = {
            "version": DECISION_VERSION,
            "signature": rec.signature,
            "decision": rec.decision.as_dict(),
            "explain": rec.explain,
            "count": rec.count,
            "ewma_s": rec.ewma_s,
            "stale": rec.stale,
            "correction": rec.correction,
        }
        record = {"sha256": _payload_digest(payload), "payload": payload}
        path = self._path(rec.signature)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with resilience.file_lock(path):
                resilience.atomic_write_text(path, json.dumps(record))
        except OSError as exc:
            logger.warning("could not store decision record %s (%s)",
                           path, exc)

    def _load(self, signature: str) -> Optional[DecisionRecord]:
        path = self._path(signature)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("decision record %s unreadable (%s)", path, exc)
            return None
        try:
            record = json.loads(text)
            payload = record["payload"]
            digest = record["sha256"]
        except (ValueError, TypeError, KeyError) as exc:
            logger.warning("corrupt decision record %s (%s: %s); quarantining",
                           path, type(exc).__name__, exc)
            resilience.quarantine(path)
            return None
        if digest != _payload_digest(payload):
            logger.warning("decision record %s failed its checksum; "
                           "quarantining", path)
            resilience.quarantine(path)
            return None
        if (
            payload.get("version") != DECISION_VERSION
            or payload.get("signature") != signature
        ):
            return None  # stale format or prefix collision: plain miss
        try:
            return DecisionRecord(
                signature=signature,
                decision=Decision.from_dict(payload["decision"]),
                explain=dict(payload.get("explain", {})),
                count=int(payload.get("count", 0)),
                ewma_s=float(payload.get("ewma_s", 0.0)),
                stale=bool(payload.get("stale", False)),
                correction=float(payload.get("correction", 1.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            logger.warning("decision record %s malformed (%s); quarantining",
                           path, exc)
            resilience.quarantine(path)
            return None


#: the process-wide decision cache the tuner and the server share
decision_cache = DecisionCache()


__all__ = [
    "Decision",
    "DecisionRecord",
    "DecisionCache",
    "decision_cache",
    "EWMA_ALPHA",
    "STALE_RATIO",
    "STALE_MIN_COUNT",
]
