"""Durable job journal: crash-safe checkpoints for sharded execution.

A *job* is one ``run_sharded`` invocation, identified by a
deterministic signature over everything that decides its result: the
kernel's content-addressed cache key, the shard plan (split attribute,
kind, ranges), and a fingerprint of every operand tensor's raw storage
arrays (hashed in place; once for an operand that lives read-only in
shared memory).  Re-running the same contraction on the same inputs
therefore computes the same ``job_id`` — which is the whole resume
story: a process killed mid-job leaves its journal behind, and the next
run with the same signature loads the journaled shard partials instead
of re-executing them.

Each completed shard partial is published with the PR 2 crash-safe
primitives: a pickle stream that only *refers* to the arrays, the
arrays' own buffers and a closing SHA-256, each byte hashed and written
from where it lies, via
:func:`~repro.compiler.resilience.atomic_write_bytes` under a
:func:`~repro.compiler.resilience.file_lock` — so a SIGKILL at any
instant leaves either a fully verifiable shard file or nothing, never a
torn write.  A shard file whose checksum fails on load is quarantined
(kept as ``.corrupt`` for post-mortem) and its shard simply re-executes.

Journal writes are *best effort*: a full disk or read-only journal
directory degrades durability (the run completes from RAM exactly as a
non-durable run would), it never fails the computation.

Values round-trip bit-identically: a :class:`~repro.data.tensor.Tensor`
is journaled as its raw ``pos``/``crd``/``vals`` numpy arrays, byte
for byte — so a resumed merge sees the *same bytes* an uninterrupted
run would have merged.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Mapping, Optional, Set

import numpy as np

from repro import config
from repro.compiler.cache import default_cache_dir
from repro.compiler.resilience import (
    atomic_write_bytes,
    atomic_write_text,
    file_lock,
    logger,
    quarantine,
    usable_cache_dir,
)
from repro.data.tensor import Tensor
from repro.runtime import shm

#: shard files use a fixed-width index so directory listings sort
_SHARD_FMT = "shard_{:05d}.bin"
_DIGEST = 32  #: bytes of SHA-256 closing a shard file
#: journal directories untouched past this many seconds are GC'd
DEFAULT_JOB_TTL = 7 * 24 * 3600.0


def job_root() -> Path:
    """The directory job journals live under (``REPRO_JOB_DIR``,
    default ``<kernel cache dir>/jobs``), created on demand with the
    same unusable-directory fallback as the kernel cache."""
    env = config.get("REPRO_JOB_DIR")
    preferred = Path(env) if env else default_cache_dir() / "jobs"
    return Path(usable_cache_dir(preferred))


def fingerprint_tensor(t: Tensor) -> str:
    """Content digest of one operand: structure plus raw array bytes
    (taken once for an exported tensor: its arrays are read-only)."""
    def digest() -> str:
        h = hashlib.sha256()
        h.update(repr((t.attrs, t.formats, t.dims)).encode())
        h.update(np.ascontiguousarray(t.vals))
        for tag, arrays in ((b"pos%d", t.pos), (b"crd%d", t.crd)):
            for k in sorted(arrays):
                h.update(tag % k)
                h.update(np.ascontiguousarray(arrays[k]))
        return h.hexdigest()
    return shm.memoized(t, "fingerprint", digest)


def job_signature(kernel, plan, tensors: Mapping[str, Tensor]) -> str:
    """Deterministic identity of one sharded run.

    Everything that decides the result participates: the kernel's
    content-addressed cache key (its recipe digest; ``uncached:<name>``
    when caching is off — resume across processes then relies on the
    name being stable), the shard plan geometry, and each operand's
    content fingerprint.  Two processes computing the same contraction
    over the same inputs with the same plan agree on the signature —
    which is what lets a restarted server adopt a dead worker's journal.
    """
    payload = {
        "kernel": getattr(kernel, "cache_key", None) or f"uncached:{kernel.name}",
        "split_attr": plan.split_attr,
        "kind": plan.kind,
        "dim": plan.dim,
        "ranges": [[int(lo), int(hi)] for lo, hi in plan.ranges],
        "operands": sorted(
            (name, fingerprint_tensor(t)) for name, t in tensors.items()
        ),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _encode_partial(result: Any) -> List[memoryview]:
    """One shard partial (Tensor or semiring scalar) as frames: the
    pickle stream, then each array's own buffer, uncopied."""
    if isinstance(result, Tensor):
        payload = {
            "kind": "tensor",
            "attrs": result.attrs,
            "formats": result.formats,
            "dims": result.dims,
            "pos": dict(result.pos),
            "crd": dict(result.crd),
            "vals": result.vals,
        }
    else:
        payload = {"kind": "scalar", "value": result}
    arrays: List[pickle.PickleBuffer] = []
    stream = pickle.dumps(payload, protocol=5, buffer_callback=arrays.append)
    return [memoryview(stream), *(a.raw() for a in arrays)]


def _checksummed(frames: List[memoryview]) -> Iterator[bytes]:
    """A shard file's pieces in writing order — frame lengths, frames,
    the SHA-256 of both, fed as each piece is handed on to be written."""
    h = hashlib.sha256()
    header = json.dumps({"frames": [f.nbytes for f in frames]}).encode() + b"\n"
    for piece in (header, *frames):
        h.update(piece)
        yield piece
    yield h.digest()


def _decode_partial(raw: bytearray, semiring) -> Any:
    """Inverse of the two above; raises unless the checksum holds.
    Arrays come back as writable views of ``raw``."""
    body, digest = memoryview(raw)[:-_DIGEST], raw[-_DIGEST:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("checksum mismatch")
    at = raw.index(b"\n") + 1
    frames = []
    for n in json.loads(raw[:at])["frames"]:
        frames.append(body[at:at + n])
        at += n
    payload = pickle.loads(frames[0], buffers=frames[1:])
    if payload["kind"] == "scalar":
        return payload["value"]
    return Tensor(
        payload["attrs"], payload["formats"], payload["dims"],
        payload["pos"], payload["crd"], payload["vals"], semiring, check=False,
    )


class JobJournal:
    """The on-disk checkpoint directory of one sharded run.

    Layout::

        <job root>/job_<sig[:24]>/
            manifest.json        # signature, plan geometry, timestamps
            shard_00007.bin      # frame lengths, frames, checksum

    A shard file is one JSON line (``{"frames": [n0, n1, ...]}``), the
    frames — a protocol-5 pickle stream, then the raw bytes of each
    array it refers to — and the SHA-256 of everything before it, so a
    reader verifies integrity before unpickling anything; a file in the
    older ``{"sha256", "len"}`` framing fails that check and re-executes.
    """

    def __init__(self, signature: str, root: Optional[Path] = None) -> None:
        self.signature = signature
        self.job_id = f"job_{signature[:24]}"
        self.dir = (root if root is not None else job_root()) / self.job_id
        self.writable = True

    # ------------------------------------------------------------------
    def _shard_path(self, index: int) -> Path:
        return self.dir / _SHARD_FMT.format(index)

    def ensure(self, plan=None) -> None:
        """Create the journal directory and publish its manifest."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            manifest = self.dir / "manifest.json"
            if not manifest.exists():
                body = {
                    "signature": self.signature,
                    "created": time.time(),
                    "shards": plan.shards if plan is not None else None,
                    "split_attr": plan.split_attr if plan is not None else None,
                    "kind": plan.kind if plan is not None else None,
                }
                atomic_write_text(manifest, json.dumps(body, indent=2) + "\n")
        except OSError as exc:
            logger.warning(
                "job journal %s unusable (%s); running without durability",
                self.dir, exc,
            )
            self.writable = False

    def touch(self) -> None:
        """Refresh the journal's mtime so the TTL GC sees it as live."""
        try:
            os.utime(self.dir)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def completed(self) -> Set[int]:
        """Indices of shards with a journaled partial on disk."""
        done: Set[int] = set()
        try:
            names = os.listdir(self.dir)
        except OSError:
            return done
        for name in names:
            if name.startswith("shard_") and name.endswith(".bin"):
                try:
                    done.add(int(name[len("shard_"):-len(".bin")]))
                except ValueError:
                    continue
        return done

    def write_shard(self, index: int, result: Any) -> bool:
        """Atomically publish one completed shard partial.

        Best effort: an OSError (disk full, directory vanished) logs
        and returns False — the run keeps its in-RAM partial and loses
        only durability for this shard.
        """
        if not self.writable:
            return False
        path = self._shard_path(index)
        try:
            frames = _encode_partial(result)
            with file_lock(path, timeout=10.0):
                atomic_write_bytes(path, _checksummed(frames))
            return True
        except OSError as exc:
            logger.warning(
                "could not journal shard %d of %s (%s); continuing in RAM",
                index, self.job_id, exc,
            )
            return False

    def load_shard(self, index: int, semiring) -> Any:
        """Load and verify one journaled partial, or None.

        A missing file returns None (the shard just executes); a file
        that fails its checksum or does not unpickle is quarantined to
        ``.corrupt`` and also returns None — corruption costs a
        re-execution, never a wrong answer.
        """
        path = self._shard_path(index)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            return _decode_partial(bytearray(raw), semiring)
        except Exception as exc:
            logger.warning(
                "journaled shard %d of %s is corrupt (%s); quarantining "
                "and re-executing", index, self.job_id, exc,
            )
            quarantine(path)
            return None

    # ------------------------------------------------------------------
    def discard(self) -> None:
        """Remove the journal after a successful merge."""
        shutil.rmtree(self.dir, ignore_errors=True)


def gc_jobs(ttl: float = DEFAULT_JOB_TTL, root: Optional[Path] = None) -> List[str]:
    """Sweep journal directories untouched for more than ``ttl`` seconds.

    Returns the swept job ids.  Called from the serve lifecycle on boot;
    safe to call any time — a live job refreshes its directory mtime on
    every shard write.
    """
    base = root if root is not None else job_root()
    swept: List[str] = []
    try:
        entries: Iterable[os.DirEntry] = os.scandir(base)
    except OSError:
        return swept
    cutoff = time.time() - ttl
    for entry in entries:
        if not entry.name.startswith("job_"):
            continue
        try:
            if not entry.is_dir() or entry.stat().st_mtime >= cutoff:
                continue
        except OSError:
            continue
        shutil.rmtree(entry.path, ignore_errors=True)
        swept.append(entry.name)
    if swept:
        logger.info("job GC swept %d stale journal(s): %s",
                    len(swept), ", ".join(sorted(swept)))
    return swept


__all__ = [
    "DEFAULT_JOB_TTL",
    "JobJournal",
    "fingerprint_tensor",
    "gc_jobs",
    "job_root",
    "job_signature",
]
