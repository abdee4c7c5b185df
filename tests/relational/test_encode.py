"""Dictionary encoding and relation → tensor packing."""

import numpy as np
import pytest

from repro.data.tensor import Tensor
from repro.relational import ColumnEncoder, Relation, relation_to_tensor
from repro.semirings import BOOL, FLOAT, NAT


def test_column_encoder_shares_codes_across_relations():
    enc = ColumnEncoder()
    enc.register("city", ["paris", "oslo"])
    enc.register("city", ["lima"])
    d = enc.dictionary("city")
    assert len(d) == 3
    assert enc.encode("city", "lima") == 0  # sorted order
    assert enc.decode("city", 2) == "paris"
    assert enc.dim("city") == 3


def test_register_after_freeze_rejected():
    enc = ColumnEncoder()
    enc.register("c", ["x"])
    enc.dictionary("c")
    with pytest.raises(RuntimeError):
        enc.register("c", ["y"])


def test_unknown_attribute():
    enc = ColumnEncoder()
    with pytest.raises(KeyError):
        enc.dictionary("nope")


def test_relation_to_tensor_presence():
    rel = Relation(("x", "y"), [(0, 1), (2, 3), (0, 1)])
    t = relation_to_tensor(rel, ("x", "y"), semiring=BOOL)
    assert t.to_dict() == {(0, 1): True, (2, 3): True}
    assert t.attrs == ("x", "y")


def test_relation_to_tensor_bag_counts():
    rel = Relation(("x",), [(0,), (0,), (1,)])
    t = relation_to_tensor(rel, ("x",), semiring=NAT,
                           measure=lambda row: 1)
    # duplicate keys sum their measures
    assert t.to_dict() == {(0,): 2.0, (1,): 1.0} or t.to_dict() == {(0,): 2, (1,): 1}


def test_relation_to_tensor_measure_aggregates():
    rel = Relation(("k", "v"), [(0, 2.0), (0, 3.0), (1, 10.0)])
    t = relation_to_tensor(rel, ("k",), measure=lambda row: row["v"])
    assert t.to_dict() == {(0,): 5.0, (1,): 10.0}


def test_string_columns_need_encoder():
    rel = Relation(("name",), [("bob",)])
    with pytest.raises(TypeError):
        relation_to_tensor(rel, ("name",))
    enc = ColumnEncoder()
    enc.register("name", ["bob", "eve"])
    t = relation_to_tensor(rel, ("name",), encoder=enc, semiring=BOOL)
    assert t.to_dict() == {(enc.encode("name", "bob"),): True}
    assert t.dims == (2,)


def test_attr_rename_and_dims():
    rel = Relation(("r_key",), [(1,), (3,)])
    t = relation_to_tensor(rel, ("r_key",), attr_names={"r_key": "r"},
                           dims={"r": 10}, semiring=BOOL)
    assert t.attrs == ("r",)
    assert t.dims == (10,)


def test_default_dims_from_max_code():
    rel = Relation(("k",), [(7,)])
    t = relation_to_tensor(rel, ("k",), semiring=BOOL)
    assert t.dims == (8,)


def test_formats_selectable():
    rel = Relation(("a", "b"), [(0, 0), (1, 1)])
    t = relation_to_tensor(rel, ("a", "b"), formats=("dense", "sparse"),
                           dims={"a": 2, "b": 2}, semiring=BOOL)
    assert t.formats == ("dense", "sparse")


def test_numpy_integer_keys_are_integers():
    rel = Relation(("k",), [(np.int64(3),), (np.int32(1),), (2,)])
    t = relation_to_tensor(rel, ("k",), semiring=BOOL)
    assert t.to_dict() == {(1,): True, (2,): True, (3,): True}
    assert t.dims == (4,)
    for flag in (True, np.bool_(True)):
        with pytest.raises(TypeError, match="needs a dictionary encoding"):
            relation_to_tensor(Relation(("k",), [(1,), (flag,)]), ("k",),
                               semiring=BOOL)


def _per_row(rel, keys, measure, semiring, dims):
    """The per-row dictionary fold ``relation_to_tensor`` used before it
    went through columns (integer keys only): the reference a
    one-measure call must match byte for byte."""
    entries = {}
    for row in rel.rows:
        rowd = dict(zip(rel.columns, row))
        key = tuple(rowd[c] for c in keys)
        val = measure(rowd)
        entries[key] = semiring.add(entries[key], val) if key in entries else val
    return Tensor.from_entries(keys, ["sparse"] * len(keys),
                               [dims[c] for c in keys], entries, semiring)


def _same_bytes(a, b):
    assert (a.attrs, a.formats, a.dims) == (b.attrs, b.formats, b.dims)
    for mine, theirs in ((a.pos, b.pos), (a.crd, b.crd)):
        assert mine.keys() == theirs.keys()
        for k in mine:
            assert mine[k].dtype == theirs[k].dtype
            assert mine[k].tobytes() == theirs[k].tobytes()
    assert a.vals.dtype == b.vals.dtype
    assert a.vals.tobytes() == b.vals.tobytes()


_ROWS = Relation(
    ("a", "b", "city", "v", "w"),
    [(0, 2, "oslo", 0.1, 3.0), (1, 0, "lima", 2.5, -1.0),
     (0, 2, "oslo", 0.2, 4.0), (3, 1, "paris", 1e16, 7.0),
     (0, 2, "oslo", 0.3, 5.0), (3, 1, "lima", 1.0, 0.5)],
)
_DIMS = {"a": 5, "b": 3}


def test_one_measure_is_the_per_row_fold_byte_for_byte():
    # duplicate keys (0, 2) fold in row order: 0.1 + 0.2 + 0.3 is not
    # 0.1 + (0.2 + 0.3) in floats, and 1e16 + 1.0 absorbs the 1.0
    measure = lambda row: row["v"]
    got = relation_to_tensor(_ROWS, ("a", "b"), measure=measure, dims=_DIMS)
    _same_bytes(got, _per_row(_ROWS, ("a", "b"), measure, FLOAT, _DIMS))


@pytest.mark.parametrize("keys", [("a", "b"), ("a", "city")],
                         ids=["integer-keys", "encoded-key"])
def test_slice_k_of_stacked_measures_is_measure_k(keys):
    enc = ColumnEncoder()
    enc.register("city", ["lima", "oslo", "paris", "rome"])
    fns = (lambda row: row["v"], lambda row: row["w"], lambda row: 1.0)
    stacked = relation_to_tensor(_ROWS, keys, encoder=enc, dims=_DIMS,
                                 measures=("m", fns))
    assert stacked.attrs == keys + ("m",)
    assert stacked.formats == ("sparse", "sparse", "dense")
    for k, f in enumerate(fns):
        one = relation_to_tensor(_ROWS, keys, encoder=enc, dims=_DIMS,
                                 measure=f)
        assert one.dims == stacked.dims[:-1]
        for level in one.crd:
            assert np.array_equal(one.pos[level], stacked.pos[level])
            assert np.array_equal(one.crd[level], stacked.crd[level])
        assert stacked.vals.reshape(-1, 3)[:, k].tobytes() == one.vals.tobytes()


def test_measures_need_a_function_and_exclude_measure():
    rel = Relation(("k",), [(0,)])
    with pytest.raises(ValueError):
        relation_to_tensor(rel, ("k",), measures=("m", ()))
    with pytest.raises(ValueError):
        relation_to_tensor(rel, ("k",), measure=lambda r: 1.0,
                           measures=("m", (lambda r: 1.0,)))
