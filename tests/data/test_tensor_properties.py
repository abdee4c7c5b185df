"""Property tests for level-format storage: round trips, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Tensor
from repro.semirings import BOOL, FLOAT, INT, MIN_PLUS, NAT
from tests.strategies import sparse_data

N = 8
FORMAT_PAIRS = [
    ("dense", "dense"), ("dense", "sparse"),
    ("sparse", "dense"), ("sparse", "sparse"),
]


@pytest.mark.parametrize("formats", FORMAT_PAIRS)
@given(data=sparse_data(("i", "j"), max_index=N))
@settings(max_examples=20, deadline=None)
def test_roundtrip_every_format(formats, data):
    t = Tensor.from_entries(("i", "j"), formats, (N, N), data, INT)
    assert t.to_dict() == data


@given(data=sparse_data(("i", "j"), max_index=N))
@settings(max_examples=20, deadline=None)
def test_pos_arrays_are_monotone(data):
    t = Tensor.from_entries(("i", "j"), ("sparse", "sparse"), (N, N), data, INT)
    for k, pos in t.pos.items():
        assert all(pos[a] <= pos[a + 1] for a in range(len(pos) - 1)), k


@given(data=sparse_data(("i", "j"), max_index=N))
@settings(max_examples=20, deadline=None)
def test_crd_strictly_increasing_within_slices(data):
    t = Tensor.from_entries(("i", "j"), ("sparse", "sparse"), (N, N), data, INT)
    pos1, crd1 = t.pos[1], t.crd[1]
    for s in range(len(pos1) - 1):
        row = crd1[pos1[s]:pos1[s + 1]]
        assert all(row[a] < row[a + 1] for a in range(len(row) - 1))
    crd0 = t.crd[0]
    assert all(crd0[a] < crd0[a + 1] for a in range(len(crd0) - 1))


@given(data=sparse_data(("i", "j", "k"), max_index=4, max_entries=12))
@settings(max_examples=15, deadline=None)
def test_three_level_roundtrip(data):
    t = Tensor.from_entries(("i", "j", "k"), ("sparse",) * 3, (4, 4, 4), data, INT)
    assert t.to_dict() == data


@given(data=sparse_data(("i",), max_index=N))
@settings(max_examples=20, deadline=None)
def test_nnz_counts_dense_slots(data):
    sparse = Tensor.from_entries(("i",), ("sparse",), (N,), data, INT)
    dense = Tensor.from_entries(("i",), ("dense",), (N,), data, INT)
    assert sparse.nnz == len(data)
    assert dense.nnz == N


# ----------------------------------------------------------------------
# the columnar constructor / reader against the per-entry originals
# ----------------------------------------------------------------------
def reference_from_entries(attrs, formats, dims, entries, semiring=FLOAT, dtype=None):
    """``Tensor.from_entries`` as it stood before ``from_coo`` (PR 18),
    kept verbatim as the specification of the level arrays."""
    from repro.data.tensor import _dtype_for

    items = list(entries.items() if isinstance(entries, dict) else entries)
    rank = len(attrs)
    if dtype is None:
        dtype = _dtype_for(semiring)
    if not items:
        return _reference_empty(attrs, formats, dims, semiring, dtype)
    coords = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), rank)
    values = np.array([v for _, v in items], dtype=dtype)
    for k in range(rank):
        if coords[:, k].min() < 0 or coords[:, k].max() >= dims[k]:
            raise ValueError(f"coordinate out of range at level {k}")
    # sort lexicographically in level order (outermost = primary key)
    order = np.lexsort(tuple(coords[:, k] for k in reversed(range(rank))))
    coords = coords[order]
    values = values[order]

    pos = {}
    crd = {}
    slots = np.zeros(len(items), dtype=np.int64)
    parent_count = 1
    for k in range(rank):
        ck = coords[:, k]
        if formats[k] == "dense":
            slots = slots * dims[k] + ck
            parent_count *= dims[k]
        else:
            new_run = np.ones(len(items), dtype=bool)
            new_run[1:] = (slots[1:] != slots[:-1]) | (ck[1:] != ck[:-1])
            crd[k] = ck[new_run]
            counts = np.bincount(slots[new_run], minlength=parent_count)
            pos[k] = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            slots = np.cumsum(new_run) - 1
            parent_count = len(crd[k])
    from repro.semirings.instances import FloatSemiring, IntSemiring, NatSemiring

    plain_add = isinstance(semiring, (FloatSemiring, IntSemiring, NatSemiring))
    if plain_add:
        vals = np.zeros(parent_count, dtype=dtype)
        np.add.at(vals, slots, values)
    else:
        vals = np.full(parent_count, semiring.zero, dtype=dtype)
        for slot, v in zip(slots.tolist(), values.tolist()):
            vals[slot] = semiring.add(vals[slot], v)
    return Tensor(attrs, formats, dims, pos, crd, vals, semiring)


def _reference_empty(attrs, formats, dims, semiring, dtype):
    pos = {}
    crd = {}
    parent_count = 1
    for k, fmt in enumerate(formats):
        if fmt == "dense":
            parent_count *= dims[k]
        else:
            crd[k] = np.zeros(0, dtype=np.int64)
            pos[k] = np.zeros(parent_count + 1, dtype=np.int64)
            parent_count = 0
    fill = semiring.zero if semiring.zero != 0 else 0
    vals = np.full(parent_count, fill, dtype=dtype)
    return Tensor(attrs, formats, dims, pos, crd, vals, semiring)


def reference_to_dict(self):
    """``Tensor.to_dict`` as it stood before ``to_coo`` (PR 18): the
    recursive walk over every stored slot."""
    out = {}

    def walk(level, slot, prefix):
        if level == self.order:
            v = self.vals[slot]
            if not self.semiring.is_zero(v.item() if hasattr(v, "item") else v):
                out[prefix] = v.item() if hasattr(v, "item") else v
            return
        if self.formats[level] == "dense":
            for i in range(self.dims[level]):
                walk(level + 1, slot * self.dims[level] + i, prefix + (i,))
        else:
            p = self.pos[level]
            c = self.crd[level]
            for q in range(p[slot], p[slot + 1]):
                walk(level + 1, int(q), prefix + (int(c[q]),))

    walk(0, 0, ())
    return out


_reals = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
#: values include the semiring's zero, and for floats the ±1e-13 that
#: FLOAT.is_zero's tolerance also counts as zero
COO_VALUES = {
    "float": (FLOAT, st.one_of(_reals, st.sampled_from([0.0, 1e-13, -1e-13]))),
    "int": (INT, st.integers(min_value=-9, max_value=9)),
    "nat": (NAT, st.integers(min_value=0, max_value=9)),
    "bool": (BOOL, st.booleans()),
    "min_plus": (MIN_PLUS, st.one_of(_reals, st.just(float("inf")))),
}


@st.composite
def coo_cases(draw):
    """``(attrs, formats, dims, entries, semiring)``: rank 1–3, every
    format stack, entries in any order with repeats, possibly none."""
    rank = draw(st.integers(min_value=1, max_value=3))
    formats = tuple(draw(st.sampled_from(("dense", "sparse"))) for _ in range(rank))
    dims = tuple(draw(st.integers(min_value=1, max_value=4)) for _ in range(rank))
    semiring, values = COO_VALUES[draw(st.sampled_from(sorted(COO_VALUES)))]
    coords = st.tuples(*(st.integers(min_value=0, max_value=d - 1) for d in dims))
    entries = draw(st.lists(st.tuples(coords, values), max_size=12))
    return "ijk"[:rank], formats, dims, entries, semiring


def coo_tensor(case):
    attrs, formats, dims, entries, semiring = case
    return Tensor.from_coo(
        attrs, formats, dims,
        np.array([c for c, _ in entries], dtype=np.int64).reshape(-1, len(attrs)),
        [v for _, v in entries], semiring,
    )


def assert_same_storage(got, want):
    assert got.pos.keys() == want.pos.keys() and got.crd.keys() == want.crd.keys()
    for k in want.pos:
        assert np.array_equal(got.pos[k], want.pos[k]), k
        assert np.array_equal(got.crd[k], want.crd[k]), k
    assert got.vals.dtype == want.vals.dtype
    assert np.array_equal(got.vals, want.vals)


@given(case=coo_cases())
@settings(max_examples=150, deadline=None)
def test_from_coo_builds_the_reference_level_arrays(case):
    want = reference_from_entries(*case)
    assert_same_storage(coo_tensor(case), want)
    # the dictionary view is the same constructor
    assert_same_storage(Tensor.from_entries(*case), want)


@given(case=coo_cases())
@settings(max_examples=150, deadline=None)
def test_to_coo_is_the_sorted_reference_walk(case):
    t = coo_tensor(case)
    coords, vals = t.to_coo()
    assert coords.dtype == np.int64 and vals.dtype == t.vals.dtype
    want = sorted(reference_to_dict(t).items())
    assert list(zip(map(tuple, coords.tolist()), vals.tolist())) == want
    assert list(t.to_dict().items()) == want


def test_from_coo_rejects_what_from_entries_rejected():
    with pytest.raises(ValueError, match="out of range at level 1"):
        Tensor.from_coo("ij", ("sparse", "sparse"), (4, 4), [[0, 4]], [1.0])
    with pytest.raises(ValueError, match="out of range at level 0"):
        Tensor.from_coo("ij", ("dense", "sparse"), (4, 4), [[-1, 0]], [1.0])
    with pytest.raises(ValueError):       # a value without a coordinate
        Tensor.from_coo("i", ("sparse",), (4,), [[0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="equal length"):
        Tensor.from_coo("ij", ("sparse",), (4, 4), [[0, 0]], [1.0])


def _dict_sparse(n, density, attrs, formats, dims, seed, semiring):
    """The generators' construction before they went columnar: one
    ``{coordinate: value}`` entry per draw, through ``from_entries``."""
    from repro.workloads.generators import _unique_coords

    rng = np.random.default_rng(seed)
    coords = _unique_coords(rng, dims, max(1, int(density * n)))
    entries = {tuple(int(x) for x in c): float(rng.random()) + 0.5
               for c in coords}
    return Tensor.from_entries(attrs, formats, dims, entries, semiring)


def _dict_nested_sum(depth, n_operands, n=5, nnz=12):
    rng = np.random.default_rng(10 * depth + n_operands)
    tensors, total = {}, 0.0
    for v in "ABCD"[:n_operands]:
        entries = {tuple(int(x) for x in rng.integers(0, n, depth)):
                   float(rng.integers(1, 9)) for _ in range(nnz)}
        total += sum(entries.values())
        tensors[v] = Tensor.from_entries(
            "ijkl"[:depth], ("sparse",) * depth, (n,) * depth, entries, FLOAT)
    return tensors, total


def _dict_dense(dims, attrs, seed):
    rng = np.random.default_rng(seed)
    entries = {c: float(rng.random()) + 0.5 for c in np.ndindex(*dims)}
    return Tensor.from_entries(attrs, ("dense",) * len(dims), dims, entries,
                               FLOAT)


def _dict_triangle(n):
    edges = {(0, b) for b in range(n)} | {(a, 0) for a in range(1, n)}
    entries = {e: 1 for e in edges}
    return [Tensor.from_entries(attrs, ("sparse", "sparse"), (n, n), entries,
                                INT) for attrs in ("ab", "bc", "ac")]


def _same_arrays(a: Tensor, b: Tensor) -> bool:
    return (a.dims == b.dims and a.vals.dtype == b.vals.dtype
            and np.array_equal(a.vals, b.vals)
            and sorted(a.pos) == sorted(b.pos)
            and all(np.array_equal(a.pos[k], b.pos[k]) for k in a.pos)
            and sorted(a.crd) == sorted(b.crd)
            and all(np.array_equal(a.crd[k], b.crd[k])
                    and a.crd[k].dtype == b.crd[k].dtype for k in a.crd))


@pytest.mark.parametrize("seed", [0, 7])
def test_generators_build_the_arrays_their_dictionaries_built(seed):
    """The columnar generators give, array for array, the tensors their
    ``{coordinate: value}`` construction gave at the same seed — a
    repeated coordinate in ``nested_sum`` keeps its last value."""
    from repro.workloads import generators as g

    pairs = [
        (g.sparse_vector(40, 0.3, seed=seed),
         _dict_sparse(40, 0.3, "i", ("sparse",), (40,), seed, FLOAT)),
        (g.sparse_matrix(9, 11, 0.3, seed=seed),
         _dict_sparse(99, 0.3, ("i", "j"), ("dense", "sparse"), (9, 11), seed,
                      FLOAT)),
        (g.sparse_tensor3((4, 5, 6), 0.2, seed=seed),
         _dict_sparse(120, 0.2, ("i", "k", "l"), ("sparse",) * 3, (4, 5, 6),
                      seed, FLOAT)),
        (g.dense_vector(13, seed=seed), _dict_dense((13,), ("i",), seed)),
        (g.dense_matrix(5, 7, seed=seed),
         _dict_dense((5, 7), ("i", "j"), seed)),
        *zip(g.triangle_tensors(6 + seed), _dict_triangle(6 + seed)),
    ]
    for depth, n_operands in [(2, 2), (3, 4)]:
        _expr, _ctx, tensors, total = g.nested_sum(depth, n_operands)
        want, want_total = _dict_nested_sum(depth, n_operands)
        assert total == want_total
        pairs += [(tensors[v], want[v]) for v in want]
    for got, want in pairs:
        assert _same_arrays(got, want), (got, want)
