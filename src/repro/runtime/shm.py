"""Zero-copy operand/result transport over POSIX shared memory.

The sharded runtime's process boundary used to be pickle: every shard
call serialized its operand arrays into the pipe and the worker
deserialized fresh copies.  This module replaces that with
:class:`multiprocessing.shared_memory.SharedMemory` segments plus small
picklable *descriptors*:

* the parent *moves* a tensor's backing arrays into one segment
  (:func:`export_tensor`, cached on the tensor object), array by array,
  dropping each heap copy — from ``_TRIM_BYTES``, its pages too (glibc
  keeps freed heap resident: :func:`_give_back`) — so an operand is
  resident once: in-process runs, shards, the journal's fingerprint and
  pooled workers read the same pages.  Export, then fork: a forked
  worker maps the parent's heap for life, so operands move before the
  pool opens and every ``os.fork`` starts from a trimmed heap;
* per-shard operand views are described, not copied —
  :func:`describe_tensor` maps each numpy view that lies inside the
  segment onto a byte window of it (``slice_outer`` returns views of
  the tensor's arrays, so slice *after* exporting); only the rebased
  outer ``pos``/``crd`` arrays travel inline;
* the worker reconstructs the tensor as ``np.frombuffer`` views over
  the attached segment (:func:`open_ref`) — no copy on that side
  either;
* large results come back the same way: the worker packs them into a
  segment whose name the *parent* chose up front
  (:func:`export_result`), so the parent can clean up deterministically
  even when the worker is killed mid-call.

Ownership rules (the reason no segment ever leaks):

* every segment has exactly one *unlink owner* — the parent process.
  Operand segments are unlinked when their tensor is garbage collected
  (a ``weakref.finalize`` on the tensor) and swept again at interpreter
  exit; result segments are unlinked by the parent immediately after
  attaching (POSIX keeps the mapping valid until the last ``close``),
  or on the error path by name;
* unlinking removes the name, not the memory: a tensor that outlives
  its export's release keeps reading its (anonymous) mapping;
* workers only ever ``close`` their attachments, never unlink; a fork
  child inherits operand mappings ``MAP_SHARED`` — the parent's pages,
  not a copy-on-write heap — and leaves by ``os._exit``, so the
  parent's exit sweep never runs in it, and an export it inherited is
  not its to release (:meth:`TensorExport.release` does nothing outside
  the exporting process);
* every child shares the parent's ``resource_tracker`` (multiprocessing
  passes the tracker fd to a spawned child; a forked one inherits it,
  which is why :class:`~repro.runtime.pool.WorkerPool` starts the
  tracker *before* its first worker), so the create-side registration
  is balanced by the single parent-side unlink — a dying worker cannot
  trigger a tracker sweep of live segments.

``close()`` raises :class:`BufferError` while numpy views still export
the mapped buffer; every close in this module tolerates that — the
mapping then lives exactly as long as the views, which is the point.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import threading
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import config
from repro.compiler.resilience import logger
from repro.data.tensor import Tensor

#: alignment of each packed array inside a segment (cache-line)
_ALIGN = 64

#: dropped bytes from which a trim pays: below, the freed chunks are reused
#: by the next allocation (a served operand, 80–270 KB, is never trimmed)
_TRIM_BYTES = 1 << 20

#: attribute under which a tensor memoizes its export
_EXPORT_ATTR = "_repro_shm_export"

#: worker-side attachment cache bound — oldest attachments are closed
#: (tolerantly) once more names than this have been seen
_ATTACH_BOUND = 128

_seq_lock = threading.Lock()
_seq = 0
#: one export per tensor, also when two threads ask at once
_export_lock = threading.Lock()
_warned_full = False  # a full /dev/shm is logged once per process


def _fresh_name(tag: str = "") -> str:
    """A segment name unique within this process's lifetime."""
    global _seq
    with _seq_lock:
        _seq += 1
        n = _seq
    return f"repro_{os.getpid()}_{tag}{n}"


def _close_quiet(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except BufferError:
        # numpy views still export the buffer: the mapping must outlive
        # them.  Disarm the segment object so its __del__ cannot re-raise
        # at GC time — the views hold their own reference to the
        # memoryview/mmap chain, which releases the mapping when the
        # last view dies; only the fd is closed here.
        seg._buf = None
        seg._mmap = None
        fd = getattr(seg, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
            seg._fd = -1
    except OSError:
        pass


def _unlink_quiet(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.unlink()
    except OSError:  # already gone (FileNotFoundError) or not ours to remove
        pass


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc: musl, macOS
    _malloc_trim = None


def _give_back(freed: int = _TRIM_BYTES) -> None:
    """Give the heap's free pages (never live data) back to the OS."""
    if freed >= _TRIM_BYTES and _malloc_trim is not None:
        _malloc_trim(0)


# ----------------------------------------------------------------------
# descriptors: what actually crosses the pipe
# ----------------------------------------------------------------------
@dataclass
class ArrayRef:
    """One array of a tensor: either a byte window into a segment
    (``offset >= 0``) or an inline numpy payload."""

    dtype: str
    length: int
    offset: int = -1
    data: Optional[np.ndarray] = None


@dataclass
class TensorRef:
    """A picklable description of a tensor whose big arrays live in a
    shared-memory segment."""

    attrs: Tuple[str, ...]
    formats: Tuple[str, ...]
    dims: Tuple[int, ...]
    semiring: object
    segment: Optional[str]
    vals: ArrayRef = None  # type: ignore[assignment]
    pos: Dict[int, ArrayRef] = field(default_factory=dict)
    crd: Dict[int, ArrayRef] = field(default_factory=dict)

    def refs(self) -> List[ArrayRef]:
        return [self.vals, *self.pos.values(), *self.crd.values()]

    def nbytes_window(self) -> int:
        """Bytes referenced through the segment (0 when fully inline)."""
        return sum(np.dtype(ref.dtype).itemsize * ref.length
                   for ref in self.refs() if ref.offset >= 0)


# ----------------------------------------------------------------------
# parent side: export base tensors, describe shard views
# ----------------------------------------------------------------------
class TensorExport:
    """One tensor's arrays, moved into one shared-memory segment.

    Created by :func:`export_tensor` and memoized on the tensor, whose
    ``vals``/``pos``/``crd`` are rebound to read-only views over the
    segment (``memo``: what :func:`memoized` derived from them); the
    parent is the unlink owner (tensor finalizer + atexit sweep).
    """

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self.name, self.segment = segment.name, segment
        self._base = _addr(np.frombuffer(self.segment.buf, dtype=np.uint8))
        self.memo: Dict[str, object] = {}
        self._released = False
        self._owner = os.getpid()

    def locate(self, arr: np.ndarray) -> Optional[int]:
        """Segment offset of a view into the exported arrays, or None
        when ``arr`` does not lie inside the segment."""
        if arr.size and not arr.flags["C_CONTIGUOUS"]:
            return None
        off = _addr(arr) - self._base
        if 0 <= off and off + arr.nbytes <= self.segment.size:
            return off
        return None

    def release(self) -> None:
        """Unlink and close; idempotent.  The tensor's views keep the
        unlinked mapping alive for as long as they are.  A fork child
        that inherited the export leaves the parent's segment alone."""
        if self._released or self._owner != os.getpid():
            return
        self._released = True
        _EXPORTS.pop(self.name, None)
        _unlink_quiet(self.segment)
        _close_quiet(self.segment)


def _tensor_arrays(t: Tensor) -> List[np.ndarray]:
    return [t.vals, *t.pos.values(), *t.crd.values()]


def _pack(tensor: Tensor, name: str, move: bool = False,
          ) -> Optional[Tuple[shared_memory.SharedMemory, "TensorRef"]]:
    """Create segment ``name`` holding a copy of ``tensor``'s arrays
    back to back (cache-line aligned), each described as a window —
    the one place a segment is created.  ``move`` rebinds each array to
    its read-only window once copied, into new ``pos``/``crd`` dicts (a
    slice or copy may share the old ones), and gives the free heap back
    before the first copy and after the last drop.  None, the segment
    removed and the tensor untouched, when ``/dev/shm`` cannot back it."""
    global _warned_full
    total = 0

    def place(arr: np.ndarray) -> ArrayRef:
        nonlocal total
        off = _aligned(total)
        total = off + arr.nbytes
        return ArrayRef(np.dtype(arr.dtype).str, int(arr.size), off)
    ref = _ref_each(tensor, name, place)
    seg = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(1, total))

    def copy(aref: ArrayRef, arr: np.ndarray) -> np.ndarray:
        view = _window(seg, aref)
        view[:] = arr
        view.flags.writeable = not move
        return view
    try:
        # tmpfs backs a page at its first write (SIGBUS when full): reserve
        if hasattr(os, "posix_fallocate"):  # not on macOS
            os.posix_fallocate(seg._fd, 0, seg.size)
        if not move:
            for aref, arr in zip(ref.refs(), _tensor_arrays(tensor)):
                copy(aref, arr)
            return seg, ref
        _give_back(total)
        tensor.vals = copy(ref.vals, tensor.vals)
        for k, aref in ref.pos.items():
            tensor.pos = {**tensor.pos, k: copy(aref, tensor.pos[k])}
        for k, aref in ref.crd.items():
            tensor.crd = {**tensor.crd, k: copy(aref, tensor.crd[k])}
        _give_back(total)
        return seg, ref
    except BaseException as exc:
        _unlink_quiet(seg)
        _close_quiet(seg)
        if not isinstance(exc, OSError):  # ENOSPC, EFBIG
            raise
        if not _warned_full:
            _warned_full = True
            logger.warning("shared memory is full (%s): operands and "
                           "results that do not fit travel inline", exc)
        return None


def _ref_each(tensor: Tensor, segment: Optional[str], each) -> "TensorRef":
    """``tensor``'s ref, with ``each(array)`` describing every array."""
    return TensorRef(
        attrs=tensor.attrs, formats=tensor.formats, dims=tensor.dims,
        semiring=tensor.semiring, segment=segment, vals=each(tensor.vals),
        pos={k: each(a) for k, a in tensor.pos.items()},
        crd={k: each(a) for k, a in tensor.crd.items()},
    )


def _window(seg: shared_memory.SharedMemory, aref: ArrayRef) -> np.ndarray:
    return np.frombuffer(seg.buf, dtype=np.dtype(aref.dtype),
                         count=aref.length, offset=aref.offset)


def _aligned(off: int) -> int:
    return (off + _ALIGN - 1) & ~(_ALIGN - 1)


def _addr(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def tensor_bytes(t: Tensor) -> int:
    """Total backing-array bytes of a tensor (the shm-threshold gauge)."""
    return sum(int(a.nbytes) for a in _tensor_arrays(t))


#: live exports by segment name, for the atexit sweep
_EXPORTS: Dict[str, TensorExport] = {}


def threshold_or_default(threshold: Optional[int]) -> int:
    """``threshold``, else ``REPRO_SHM_THRESHOLD`` — for the entry
    points a caller may reach without a resolved execution policy."""
    if threshold is None:
        return config.get("REPRO_SHM_THRESHOLD")
    return threshold


def export_tensor(tensor: Tensor, threshold: Optional[int] = None,
                  ) -> Optional[TensorExport]:
    """Move a tensor's arrays into one segment, memoized on the tensor.

    Returns None when the tensor is smaller than the shm threshold
    (``REPRO_SHM_THRESHOLD``) — small operands pickle faster than they
    map — or when ``/dev/shm`` is full.  Afterwards the tensor reads the
    segment through read-only views and its old arrays are dropped
    (from ``_TRIM_BYTES``, their pages too), so slice a tensor or fork
    a pool *after* exporting it: an earlier slice or worker keeps them.
    """
    with _export_lock:
        cached = getattr(tensor, _EXPORT_ATTR, None)
        if cached is not None and not cached._released:
            return cached
        if tensor_bytes(tensor) < threshold_or_default(threshold):
            return None
        packed = _pack(tensor, _fresh_name(), move=True)
        if packed is None:
            return None
        export = TensorExport(packed[0])
        _EXPORTS[export.name] = export
        setattr(tensor, _EXPORT_ATTR, export)
        weakref.finalize(tensor, TensorExport.release, export)
        return export


def memoized(tensor: Tensor, key: str, compute):
    """``compute()`` — a function of ``tensor``'s arrays alone — cached
    on its export; an unexported tensor is writable, so recomputed."""
    export = getattr(tensor, _EXPORT_ATTR, None)
    if export is None:
        return compute()
    if key not in export.memo:
        export.memo[key] = compute()
    return export.memo[key]


def describe_tensor(tensor: Tensor,
                    export: Optional[TensorExport]) -> TensorRef:
    """A picklable ref for a tensor (typically a ``slice_outer`` shard
    view of an exported base tensor).

    Arrays that lie inside the export's segment become byte windows;
    everything else (the small rebased outer ``pos``/``crd``, or all
    arrays when ``export`` is None) travels inline.
    """
    def ref(arr: np.ndarray) -> ArrayRef:
        off = export.locate(arr) if export is not None else None
        dt, n = np.dtype(arr.dtype).str, int(arr.size)
        return ArrayRef(dt, n, data=arr) if off is None else ArrayRef(dt, n, off)
    out = _ref_each(tensor, None, ref)
    if any(r.offset >= 0 for r in out.refs()):
        out.segment = export.name
    return out


# ----------------------------------------------------------------------
# worker side: reconstruct tensors as views, export results
# ----------------------------------------------------------------------
_attached: Dict[str, shared_memory.SharedMemory] = {}
_attach_lock = threading.Lock()


def _attach(name: str) -> shared_memory.SharedMemory:
    with _attach_lock:
        seg = _attached.get(name)
        if seg is None:
            seg = shared_memory.SharedMemory(name=name)
            _attached[name] = seg
            while len(_attached) > _ATTACH_BOUND:
                old_name, old = next(iter(_attached.items()))
                del _attached[old_name]
                _close_quiet(old)
        return seg


def _views(ref: TensorRef,
           seg: Optional[shared_memory.SharedMemory]) -> Tensor:
    """The tensor ``ref`` describes: windows become views over ``seg``,
    inline arrays are taken as they came — nothing is copied."""
    def arr(aref: ArrayRef) -> np.ndarray:
        return aref.data if aref.offset < 0 else _window(seg, aref)
    return Tensor(
        ref.attrs, ref.formats, ref.dims,
        {k: arr(a) for k, a in ref.pos.items()},
        {k: arr(a) for k, a in ref.crd.items()},
        arr(ref.vals), ref.semiring, check=False,
    )


def open_ref(ref: TensorRef) -> Tensor:
    """Worker side: reconstruct a tensor from its ref over the attached
    (and cached) segment."""
    return _views(
        ref, _attach(ref.segment) if ref.segment is not None else None)


def close_attachments() -> None:
    """Drop the attachment cache (worker exit path)."""
    with _attach_lock:
        for seg in _attached.values():
            _close_quiet(seg)
        _attached.clear()


ResultPayload = Tuple[str, object]  # ("val", obj) | ("ref", TensorRef)


def export_result(result: object, name: str,
                  threshold: int) -> ResultPayload:
    """Worker side: pack a large tensor result into the parent-named
    segment ``name``; small results and scalars return inline."""
    if not isinstance(result, Tensor) or tensor_bytes(result) < threshold:
        return ("val", result)
    packed = _pack(result, name)
    if packed is None:
        return ("val", result)
    _close_quiet(packed[0])  # the parent unlinks; our mapping is done
    return ("ref", packed[1])


def adopt_result(payload: ResultPayload) -> object:
    """Parent side: materialize a worker's result payload.

    Inline values pass through.  Segment-backed results are attached,
    wrapped as numpy views, and the segment is unlinked *immediately* —
    the POSIX mapping stays valid until the last close, and a finalizer
    on the tensor closes our mapping when the result dies.
    """
    kind, value = payload
    if kind == "val":
        return value
    ref: TensorRef = value
    seg = shared_memory.SharedMemory(name=ref.segment)
    _unlink_quiet(seg)
    tensor = _views(ref, seg)
    weakref.finalize(tensor, _close_quiet, seg)
    return tensor


def unlink_by_name(name: str) -> bool:
    """Best-effort unlink of a segment by name (crash/timeout cleanup
    of a result the worker may or may not have created).  Returns
    whether a segment existed."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except OSError:  # FileNotFoundError: the worker never created it
        return False
    _unlink_quiet(seg)
    _close_quiet(seg)
    return True


def result_name() -> str:
    """A parent-chosen name for one call's result segment."""
    return _fresh_name("r")


def live_export_count() -> int:
    """Number of operand exports this process still owns (tests)."""
    return len(_EXPORTS)


def release_all_exports() -> None:
    """Unlink every live operand export (interpreter-exit sweep; also
    the big hammer for tests that assert ``/dev/shm`` cleanliness)."""
    for export in list(_EXPORTS.values()):
        export.release()


atexit.register(release_all_exports)

__all__ = [
    "ArrayRef",
    "TensorRef",
    "TensorExport",
    "adopt_result",
    "close_attachments",
    "describe_tensor",
    "export_result",
    "export_tensor",
    "live_export_count",
    "memoized",
    "open_ref",
    "release_all_exports",
    "result_name",
    "tensor_bytes",
    "unlink_by_name",
]
