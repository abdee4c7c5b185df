"""The zero-copy data plane: export/describe/open round trips and the
segment-ownership discipline.

The invariants under test mirror the ownership rules documented in
:mod:`repro.runtime.shm`: every segment has exactly one unlink owner
(the parent), windows are views — bit-identical and copy-free — and no
``/dev/shm`` entry survives the lifecycle it belongs to.
"""

from __future__ import annotations

import copy
import errno
import gc
import os
import weakref

import numpy as np
import pytest

from repro.data.tensor import Tensor
from repro.runtime import shm
from repro.workloads import dense_vector, sparse_matrix


def shm_entries():
    """Current repro_-prefixed names in /dev/shm (POSIX)."""
    try:
        return sorted(f for f in os.listdir("/dev/shm")
                      if f.startswith("repro_"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(autouse=True)
def no_orphans():
    """Every test in this file must leave /dev/shm as it found it."""
    before = shm_entries()
    yield
    shm.release_all_exports()
    gc.collect()
    assert shm_entries() == before


def big_matrix(n=64, m=64, seed=3):
    return sparse_matrix(n, m, 0.4, attrs=("i", "j"), seed=seed)


# ----------------------------------------------------------------------
# export + describe + open_ref
# ----------------------------------------------------------------------
def test_roundtrip_is_bit_identical():
    A = big_matrix()
    export = shm.export_tensor(A, threshold=0)
    assert export is not None
    ref = shm.describe_tensor(A, export)
    assert ref.segment == export.name
    B = shm.open_ref(ref)
    assert B.attrs == A.attrs and B.formats == A.formats
    assert B.dims == A.dims
    np.testing.assert_array_equal(np.asarray(B.vals), np.asarray(A.vals))
    for k in A.pos:
        np.testing.assert_array_equal(np.asarray(B.pos[k]),
                                      np.asarray(A.pos[k]))
    for k in A.crd:
        np.testing.assert_array_equal(np.asarray(B.crd[k]),
                                      np.asarray(A.crd[k]))
        # a 32-bit crd is imported at its width as a window of the one
        # attachment: a second import reads the same bytes, uncopied
        assert B.crd[k].dtype == A.crd[k].dtype == np.int32
        assert np.shares_memory(B.crd[k], shm.open_ref(ref).crd[k])
    shm.close_attachments()
    export.release()


def test_windows_are_views_not_copies():
    """Window refs carry only (dtype, length, offset) — no array data
    crosses the pipe for segment-backed arrays."""
    A = big_matrix()
    export = shm.export_tensor(A, threshold=0)
    ref = shm.describe_tensor(A, export)
    windows = [r for r in [ref.vals, *ref.pos.values(), *ref.crd.values()]
               if r.offset >= 0]
    assert windows, "nothing was windowed for a fully exported tensor"
    assert all(r.data is None for r in windows)
    assert ref.nbytes_window() > 0
    export.release()


def test_shard_views_map_to_base_segment():
    """``slice_outer`` shard views must resolve to byte windows of the
    base tensor's one segment — the zero-copy property the pool's whole
    dispatch path rests on."""
    A = big_matrix()
    export = shm.export_tensor(A, threshold=0)
    n = A.dims[0]
    for lo, hi in [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)]:
        sA = A.slice_outer(lo, hi)
        ref = shm.describe_tensor(sA, export)
        # the big arrays (vals + inner crd) window into the base segment
        assert ref.segment == export.name
        assert ref.vals.offset >= 0 or ref.vals.length == 0
        back = shm.open_ref(ref)
        np.testing.assert_array_equal(np.asarray(back.vals),
                                      np.asarray(sA.vals))
        for k in sA.pos:
            np.testing.assert_array_equal(np.asarray(back.pos[k]),
                                          np.asarray(sA.pos[k]))
        for k in sA.crd:
            np.testing.assert_array_equal(np.asarray(back.crd[k]),
                                          np.asarray(sA.crd[k]))
    shm.close_attachments()
    export.release()


def test_below_threshold_stays_inline():
    A = big_matrix(8, 8)
    assert shm.export_tensor(A, threshold=1 << 30) is None
    ref = shm.describe_tensor(A, None)
    assert ref.segment is None
    assert all(r.offset < 0 for r in
               [ref.vals, *ref.pos.values(), *ref.crd.values()])
    B = shm.open_ref(ref)
    np.testing.assert_array_equal(np.asarray(B.vals), np.asarray(A.vals))


def test_export_is_memoized_on_the_tensor():
    A = big_matrix()
    e1 = shm.export_tensor(A, threshold=0)
    e2 = shm.export_tensor(A, threshold=0)
    assert e1 is e2
    e1.release()
    # a released export is not served stale
    e3 = shm.export_tensor(A, threshold=0)
    assert e3 is not e1
    e3.release()


def test_export_moves_the_arrays_into_the_segment():
    """Export is a move: the tensor reads the segment through read-only
    views and nothing keeps the arrays it held before."""
    A = big_matrix()
    want = [a.copy() for a in shm._tensor_arrays(A)]
    originals = [weakref.ref(a) for a in shm._tensor_arrays(A)]
    export = shm.export_tensor(A, threshold=0)
    assert all(ref() is None for ref in originals)
    for arr, expected in zip(shm._tensor_arrays(A), want):
        assert export.locate(arr) is not None
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, expected)
    with pytest.raises(ValueError):
        A.vals[0] = 1.0
    # a shard cut from the moved tensor is a window, not a payload
    shard = shm.describe_tensor(A.slice_outer(1, A.dims[0] - 1), export)
    assert shard.vals.offset > 0 and shard.crd[1].offset > 0


def test_export_leaves_an_earlier_slice_and_shared_dicts_alone():
    """The move rebinds the tensor to new ``pos``/``crd`` dicts, array by
    array: a slice cut before the export keeps viewing its heap arrays,
    and a copy that shares the old dicts still finds them unchanged."""
    A = big_matrix()
    shard = A.slice_outer(1, A.dims[0] - 1)
    alias = copy.copy(A)
    pos, crd = A.pos, A.crd
    held = [*pos.values(), *crd.values()]
    want = [a.copy() for a in shm._tensor_arrays(shard)]
    export = shm.export_tensor(A, threshold=0)
    assert A.pos is not pos and A.crd is not crd
    assert alias.pos is pos and alias.crd is crd
    assert all(a is b for a, b in zip([*pos.values(), *crd.values()], held))
    assert all(export.locate(a) is None for a in held)
    for arr, expected in zip(shm._tensor_arrays(shard), want):
        assert export.locate(arr) is None and arr.flags.writeable
        np.testing.assert_array_equal(arr, expected)


def rss_anon_bytes():
    with open("/proc/self/status") as f:
        rows = dict(line.split(":", 1) for line in f)
    return int(rows["RssAnon"].split()[0]) * 1024


@pytest.mark.skipif(shm._malloc_trim is None,
                    reason="needs glibc's malloc_trim")
def test_export_gives_the_heap_copy_back():
    """An operand built the way ``bench/datagen`` builds one — after a
    larger temporary was freed, which raises glibc's mmap threshold —
    lives in heap chunks, and glibc keeps freed chunks resident.  The
    export gives them back, so the operand is resident once."""
    rows, per_row = 1000, 2000
    temporary = np.ones(3 * rows * per_row // 2)   # 24 MB, mmapped
    del temporary
    A = Tensor(("i", "j"), ("dense", "sparse"), (rows, 2 * per_row),
               {1: np.arange(0, rows * per_row + 1, per_row)},
               {1: np.tile(np.arange(0, 2 * per_row, 2), rows)},
               np.full(rows * per_row, 1.5))          # 2 × 16 MB on the heap
    shm._give_back()   # what earlier tests freed is not this export's
    before = rss_anon_bytes()
    assert shm.export_tensor(A, threshold=0) is not None
    assert before - rss_anon_bytes() >= 0.9 * shm.tensor_bytes(A)


def test_full_dev_shm_sends_operands_inline(monkeypatch, caplog):
    """tmpfs backs a segment's pages only when they are written, so a
    full ``/dev/shm`` used to be a SIGBUS at the first copy.  The pages
    are reserved first; when that fails the segment is removed again,
    the operand stays on the heap untouched, and a pooled run still
    equals the serial one."""
    from repro.compiler.build import compile_kernel
    from repro.compiler.kernel import OutputSpec
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var

    def full(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    A = big_matrix()
    x = dense_vector(A.dims[1], attr="j", seed=4)
    tensors = {"A": A, "x": x}
    ctx = TypeContext(Schema.of(i=None, j=None),
                      {"A": {"i", "j"}, "x": {"j"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("x")), ctx, tensors,
        OutputSpec(("i",), ("dense",), (A.dims[0],)),
        backend="python", name="shm_full_spmv")
    want = kernel.run_sharded(tensors, executor="serial", shards=3)
    originals = [*shm._tensor_arrays(A), *shm._tensor_arrays(x)]
    before, exports = shm_entries(), shm.live_export_count()
    monkeypatch.setattr(os, "posix_fallocate", full)
    monkeypatch.setattr(shm, "_warned_full", False)
    monkeypatch.setenv("REPRO_SHM_THRESHOLD", "0")
    with caplog.at_level("WARNING", logger="repro"):
        got = kernel.run_sharded(tensors, executor="pool", shards=3,
                                 workers=2)
        assert shm.export_result(want, shm.result_name(), 0) == ("val", want)
    assert np.array_equal(got.vals, want.vals)
    assert shm_entries() == before and shm.live_export_count() == exports
    now = [*shm._tensor_arrays(A), *shm._tensor_arrays(x)]
    assert all(a is b for a, b in zip(now, originals)) and A.vals.flags.writeable
    assert sum("shared memory is full" in r.getMessage()
               for r in caplog.records) == 1


def test_released_export_leaves_the_tensor_readable():
    """``release_all_exports`` unlinks names, not memory: a tensor that
    is still alive keeps its (now anonymous) mapping, and exporting it
    again moves it into a fresh segment."""
    A = big_matrix()
    want = A.vals.copy()
    first = shm.export_tensor(A, threshold=0)
    shm.release_all_exports()
    assert first.name not in shm_entries()
    np.testing.assert_array_equal(A.vals, want)
    second = shm.export_tensor(A, threshold=0)
    assert second is not first and second.name in shm_entries()
    assert second.locate(A.vals) == 0 and first.locate(A.vals) is None
    np.testing.assert_array_equal(A.vals, want)


def test_release_is_idempotent_and_unlinks():
    A = big_matrix()
    export = shm.export_tensor(A, threshold=0)
    name = export.name
    assert name in [f for f in shm_entries()]
    export.release()
    export.release()
    assert name not in shm_entries()
    assert not shm.unlink_by_name(name)


def test_tensor_gc_releases_the_export():
    A = big_matrix()
    export = shm.export_tensor(A, threshold=0)
    name = export.name
    before = shm.live_export_count()
    del A
    gc.collect()
    assert shm.live_export_count() == before - 1
    assert name not in shm_entries()


# ----------------------------------------------------------------------
# result transport
# ----------------------------------------------------------------------
def test_result_roundtrip_and_immediate_unlink():
    A = big_matrix()
    rname = shm.result_name()
    payload = shm.export_result(A, rname, threshold=0)
    assert payload[0] == "ref"
    # parent adopts → segment is unlinked at once, views stay valid
    B = shm.adopt_result(payload)
    assert rname not in shm_entries()
    np.testing.assert_array_equal(np.asarray(B.vals), np.asarray(A.vals))
    for k in A.crd:
        np.testing.assert_array_equal(np.asarray(B.crd[k]),
                                      np.asarray(A.crd[k]))


def test_small_results_and_scalars_inline():
    assert shm.export_result(3.5, "unused", threshold=0) == ("val", 3.5)
    A = big_matrix(6, 6)
    kind, value = shm.export_result(A, "unused2", threshold=1 << 30)
    assert kind == "val" and value is A
    assert "unused2" not in shm_entries()


def test_unlink_by_name_cleans_an_orphan():
    """The crash path: a worker wrote the result segment but died before
    replying — the parent reaps it by its pre-chosen name."""
    A = big_matrix()
    rname = shm.result_name()
    shm.export_result(A, rname, threshold=0)
    assert rname in shm_entries()
    assert shm.unlink_by_name(rname)
    assert rname not in shm_entries()
    assert not shm.unlink_by_name(rname)
