"""Persistent decision cache.

A *decision* is everything the tuner chose for one workload signature:
contraction ordering, output format stack and search strategy, plus
the cost-model forecast it was ranked by.
Decisions are keyed by a bucketed workload signature — operand
shapes/formats and per-level density buckets plus the expression — so
a warm server never re-searches for traffic it has seen before, across
restarts.

Records live next to the kernel cache (one ``atun_<sig>.json`` per
signature) and use the same crash-safety machinery: per-key flock,
write-temp-and-rename publication, a sha256 checksum over the
canonical body, and quarantine-and-rebuild on any corruption.

A decision is a pure function of its signature: nothing observed at
run time feeds back into it, so a record is written once, when the
signature is first searched, and only read after that.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro import config
from repro.compiler import resilience
from repro.compiler.cache import _payload_digest, default_cache_dir
from repro.compiler.resilience import logger

#: 3: a decision names no executor or shard count and a record carries
#: no outcome statistics — records written under 1 or 2 are plain misses
DECISION_VERSION = 3


def tune_cache_dir() -> Path:
    """Where decision records live (``REPRO_TUNE_CACHE_DIR``, default:
    the kernel cache dir)."""
    env = config.get("REPRO_TUNE_CACHE_DIR")
    return Path(env) if env else default_cache_dir()


@dataclass(frozen=True)
class Decision:
    """One tuned plan, as stored and as applied."""

    #: global attribute ordering (None = caller/appearance order)
    order: Optional[Tuple[str, ...]] = None
    #: output format stack (None = caller default)
    output_formats: Optional[Tuple[str, ...]] = None
    search: str = "linear"
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
            predicted_s=float(d.get("predicted_s", 0.0)),
            predicted_units=float(d.get("predicted_units", 0.0)),
        )


@dataclass
class DecisionRecord:
    """A cached decision plus the search summary ``explain`` shows."""

    signature: str
    decision: Decision
    explain: Dict[str, Any] = field(default_factory=dict)


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
        """The cached record for ``signature``, or None."""
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
    ) -> DecisionRecord:
        rec = DecisionRecord(signature, decision, explain or {})
        with self._lock:
            self._memo[signature] = rec
        self._persist(rec)
        return rec

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
    "tune_cache_dir",
]
