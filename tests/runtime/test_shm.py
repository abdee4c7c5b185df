"""The zero-copy data plane: export/describe/open round trips and the
segment-ownership discipline.

The invariants under test mirror the ownership rules documented in
:mod:`repro.runtime.shm`: every segment has exactly one unlink owner
(the parent), windows are views — bit-identical and copy-free — and no
``/dev/shm`` entry survives the lifecycle it belongs to.
"""

from __future__ import annotations

import gc
import os
import weakref

import numpy as np
import pytest

from repro.runtime import shm
from repro.workloads import sparse_matrix


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
