"""Seeds: the same one reproduces every input byte for byte, another
one changes the inputs but never the list of cells."""

import numpy as np
import pytest

from bench import datagen
from bench.workloads import NAMES, load


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    # oracle computation compiles the TACO baseline kernels
    monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "kernels"))


def generated(name, seed):
    workload = load(name)
    workload.generate(seed, True)
    return workload


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_bytes_other_seed_other_bytes(name, monkeypatch):
    if name == "serve_query":
        monkeypatch.setattr("bench.workloads.serve_query.VARIANTS", 2)
    a, b, c = generated(name, 7), generated(name, 7), generated(name, 8)
    assert a.input_bytes() == b.input_bytes()
    assert a.input_bytes() != c.input_bytes()
    if name == "serve_query":
        cells = lambda w: sorted(w.bodies)
    else:
        a.kernels = c.kernels = a.bound = c.bound = {}
        cells = lambda w: sorted(w.programs) + sorted(getattr(w, "einsums", {}))
    assert cells(a) == cells(c)


def test_tensor_from_coo_agrees_with_from_entries():
    from repro.data.tensor import Tensor

    rng = np.random.default_rng(3)
    dims = (7, 9, 5)
    coords = datagen.random_coords(rng, dims, 60)
    vals = rng.random(len(coords)) + 0.5
    entries = {tuple(int(x) for x in c): float(v) for c, v in zip(coords, vals)}
    for formats in (("dense", "sparse", "sparse"), ("sparse",) * 3,
                    ("dense", "dense", "sparse"), ("sparse", "dense", "sparse")):
        fast = datagen.tensor_from_coo("ikl", formats, dims, coords, vals)
        slow = Tensor.from_entries("ikl", formats, dims, entries)
        assert datagen.tensor_bytes(fast) == datagen.tensor_bytes(slow)
        back_coords, back_vals = datagen.to_coo(fast)
        keep = back_vals != 0
        assert np.array_equal(back_coords[keep], coords)
        assert np.array_equal(back_vals[keep], vals)


def test_random_coords_are_distinct_sorted_and_exact():
    rng = np.random.default_rng(5)
    for dims, nnz in (((50, 40), 1999), ((1000, 1000), 5000), ((8,), 8)):
        coords = datagen.random_coords(rng, dims, nnz)
        assert len(coords) == nnz
        flat = np.ravel_multi_index(tuple(coords.T), dims)
        assert np.all(np.diff(flat) > 0)


def test_triangle_count_is_closed_form():
    from bench import programs

    p = programs.triangle(None, 50)
    R, S, T = (datagen.to_coo(p.tensors[v])[0] for v in "RST")
    edges = {tuple(e) for e in R.tolist()}
    count = sum(1 for a, b in edges for b2, c in edges
                if b2 == b and (a, c) in edges)
    p.compute_expected()
    assert count == p.expected == 3 * 50 - 2
