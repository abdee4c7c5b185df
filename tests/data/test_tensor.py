"""Level-format tensor storage (Section 7.3)."""

import numpy as np
import pytest

from repro.data import Tensor
from repro.semirings import BOOL, FLOAT, INT, MIN_PLUS


ENTRIES = {(0, 1): 2.0, (0, 3): 3.0, (2, 0): 4.0}


def test_csr_layout():
    t = Tensor.from_entries(("i", "j"), ("dense", "sparse"), (4, 4), ENTRIES)
    assert list(t.pos[1]) == [0, 2, 2, 3, 3]
    assert list(t.crd[1]) == [1, 3, 0]
    assert list(t.vals) == [2.0, 3.0, 4.0]
    assert t.nnz == 3


def test_dcsr_layout():
    t = Tensor.from_entries(("i", "j"), ("sparse", "sparse"), (4, 4), ENTRIES)
    assert list(t.pos[0]) == [0, 2]
    assert list(t.crd[0]) == [0, 2]
    assert list(t.pos[1]) == [0, 2, 3]
    assert list(t.crd[1]) == [1, 3, 0]


def test_dense_dense_layout():
    t = Tensor.from_entries(("i", "j"), ("dense", "dense"), (2, 3), {(1, 2): 5.0})
    assert t.vals.shape == (6,)
    assert t.vals[1 * 3 + 2] == 5.0


def test_csc_via_attr_order():
    # column-major: store (j, i)
    flipped = {(j, i): v for (i, j), v in ENTRIES.items()}
    t = Tensor.from_entries(("j", "i"), ("dense", "sparse"), (4, 4), flipped)
    assert t.to_dict() == flipped


def test_csf_three_level():
    entries = {(0, 1, 2): 1.0, (0, 1, 3): 2.0, (2, 0, 0): 3.0}
    t = Tensor.from_entries(("i", "j", "k"), ("sparse",) * 3, (3, 3, 4), entries)
    assert t.to_dict() == entries
    assert list(t.crd[0]) == [0, 2]
    assert list(t.crd[1]) == [1, 0]
    assert list(t.crd[2]) == [2, 3, 0]


def test_roundtrip_all_formats():
    for formats in (("dense", "dense"), ("dense", "sparse"),
                    ("sparse", "dense"), ("sparse", "sparse")):
        t = Tensor.from_entries(("i", "j"), formats, (4, 4), ENTRIES)
        assert t.to_dict() == ENTRIES, formats


def test_duplicate_coordinates_sum():
    t = Tensor.from_entries(
        ("i",), ("sparse",), (4,), [((1,), 2.0), ((1,), 3.0)], FLOAT
    )
    assert t.to_dict() == {(1,): 5.0}


def test_duplicate_coordinates_min_plus():
    t = Tensor.from_entries(
        ("i",), ("sparse",), (4,), [((1,), 2.0), ((1,), 3.0)], MIN_PLUS
    )
    assert t.to_dict() == {(1,): 2.0}


def test_empty_tensor():
    t = Tensor.from_entries(("i", "j"), ("sparse", "sparse"), (4, 4), {})
    assert t.to_dict() == {}
    assert t.nnz == 0
    td = Tensor.from_entries(("i",), ("dense",), (3,), {})
    assert td.vals.shape == (3,)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Tensor.from_entries(("i",), ("sparse",), (4,), {(4,): 1.0})
    with pytest.raises(ValueError):
        Tensor.from_entries(("i",), ("sparse",), (4,), {(-1,): 1.0})
    # level arrays are checked where they enter, before they are
    # narrowed (2**32 would wrap to 0): a CSR row's 7 in a 4-wide matrix
    # once made Σj A·x read past x in C
    for bad in ([0, 7], [-1, 2], [0, 2**32]):
        with pytest.raises(ValueError, match="at level 1"):
            Tensor(("i", "j"), ("dense", "sparse"), (4, 4),
                   {1: [0, 2, 2, 2, 2]}, {1: bad}, [1.0, 0.5])


def test_crd_width_follows_the_dimension():
    """A crd is int32 below 2**31 coordinates and int64 from there; an
    array already at its width is taken as it is, another is narrowed."""
    for dim, width in ((4, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)):
        t = Tensor.from_entries(("i",), ("sparse",), (dim,), {(dim - 1,): 1.0})
        assert t.crd[0].dtype == width and t.to_dict() == {(dim - 1,): 1.0}
    crd = np.array([1, 3], dtype=np.int32)
    t = Tensor(("i",), ("sparse",), (4,), {0: [0, 2]}, {0: crd}, [1.0, 2.0])
    assert t.crd[0] is crd
    t = Tensor(("i",), ("sparse",), (4,), {0: [0, 2]}, {0: crd.astype(np.int64)},
               [1.0, 2.0])
    assert t.crd[0].dtype == np.int32


def test_validation():
    with pytest.raises(ValueError):
        Tensor(("i",), ("weird",), (3,), {}, {}, np.zeros(0))
    with pytest.raises(ValueError):
        Tensor(("i", "j"), ("dense",), (3,), {}, {}, np.zeros(0))


def test_bool_tensor_dtype():
    t = Tensor.from_entries(("i",), ("sparse",), (4,), {(1,): True}, BOOL)
    assert t.vals.dtype == np.bool_
    assert t.to_dict() == {(1,): True}


def test_int_tensor_dtype():
    t = Tensor.from_entries(("i",), ("sparse",), (4,), {(1,): 7}, INT)
    assert t.vals.dtype == np.int64


def test_repr():
    t = Tensor.from_entries(("i",), ("sparse",), (4,), {(1,): 7}, INT)
    assert "i:sparse" in repr(t)
