"""Seeded input generation, vectorised.

Every tensor is built with NumPy straight into ``Tensor(...)`` level
arrays — no ``Tensor.from_entries`` dicts — so the harness's own
generation cost stays small and is reported apart from the program's
set-up (``harness.datagen_s``).  Sizes are fixed per workload; the seed
changes coordinates and values only, so the amount of work a cell does
is the same for every seed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.data.tensor import Tensor
from repro.semirings.instances import FLOAT, INT


def rng_for(seed: int, *labels: str) -> np.random.Generator:
    """An independent generator per (seed, label path): adding a cell
    never shifts the random stream of another."""
    digest = hashlib.sha256("/".join(labels).encode()).digest()
    return np.random.default_rng([int(seed), int.from_bytes(digest[:8], "little")])


def tensor_from_coo(
    attrs: Sequence[str],
    formats: Sequence[str],
    dims: Sequence[int],
    coords: np.ndarray,
    vals: np.ndarray,
    semiring=FLOAT,
) -> Tensor:
    """Level arrays from lexicographically sorted, distinct coordinates
    (``coords`` is ``(n, rank)`` int64) — the run-detection construction
    of ``Tensor.from_entries`` without the Python-level entry list."""
    n, rank = coords.shape
    pos: Dict[int, np.ndarray] = {}
    crd: Dict[int, np.ndarray] = {}
    slots = np.zeros(n, dtype=np.int64)
    parents = 1
    for k in range(rank):
        ck = coords[:, k]
        if formats[k] == "dense":
            slots = slots * int(dims[k]) + ck
            parents *= int(dims[k])
        else:
            new_run = np.ones(n, dtype=bool)
            new_run[1:] = (slots[1:] != slots[:-1]) | (ck[1:] != ck[:-1])
            crd[k] = np.ascontiguousarray(ck[new_run])
            counts = np.bincount(slots[new_run], minlength=parents)
            pos[k] = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            slots = np.cumsum(new_run) - 1
            parents = len(crd[k])
    leaves = np.full(parents, semiring.zero, dtype=vals.dtype)
    leaves[slots] = vals
    return Tensor(attrs, formats, dims, pos, crd, leaves, semiring)


def _sorted_distinct(flat: np.ndarray) -> np.ndarray:
    # np.unique takes a hash path that is several times slower than
    # sort + neighbour compare on int64 keys of this size
    flat.sort()
    keep = np.ones(len(flat), dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    return flat[keep]


def random_coords(rng: np.random.Generator, dims: Sequence[int], nnz: int) -> np.ndarray:
    """Exactly ``nnz`` distinct coordinates, uniform over the box, sorted."""
    total = int(np.prod([int(d) for d in dims]))
    nnz = min(int(nnz), total)
    if nnz * 50 < total:
        # sparse box: oversample, dedupe by sorting, thin back to nnz
        # (much cheaper than choice() without replacement at this size)
        flat = _sorted_distinct(rng.integers(0, total, size=nnz + nnz // 32 + 64))
        while len(flat) < nnz:
            flat = _sorted_distinct(np.concatenate(
                [flat, rng.integers(0, total, size=nnz - len(flat) + 64)]))
        if len(flat) > nnz:
            drop = rng.choice(len(flat), size=len(flat) - nnz, replace=False)
            flat = np.delete(flat, drop)
    else:
        flat = np.sort(rng.choice(total, size=nnz, replace=False))
    coords = np.empty((len(flat), len(dims)), dtype=np.int64)
    for k in range(len(dims) - 1, -1, -1):
        coords[:, k] = flat % dims[k]
        flat = flat // dims[k]
    return coords


def sparse(rng, attrs, formats, dims, nnz) -> Tensor:
    """A random tensor with exactly ``nnz`` stored values in [0.5, 1.5)."""
    coords = random_coords(rng, dims, nnz)
    return tensor_from_coo(attrs, formats, dims, coords, rng.random(len(coords)) + 0.5)


def dense(rng, attrs, dims) -> Tensor:
    size = int(np.prod([int(d) for d in dims]))
    return Tensor(attrs, ("dense",) * len(attrs), dims, {}, {},
                  rng.random(size) + 0.5, FLOAT)


def mask_vector(rng, attr: str, n: int, keep: int) -> Tensor:
    """A sparse 0/1 selection vector with exactly ``keep`` ones."""
    idx = np.sort(rng.choice(n, size=keep, replace=False)).astype(np.int64)
    return tensor_from_coo((attr,), ("sparse",), (n,), idx.reshape(-1, 1),
                           np.ones(keep, dtype=np.float64))


def triangle_tensors(n: int) -> Tuple[Tensor, Tensor, Tensor]:
    """The paper's worst-case triangle instance ``{0}×[n] ∪ [n]×{0}``
    (footnote 2) as INT-weighted DCSR tensors.  It has no random part:
    moving the hub off 0 turns the linear-search intersections
    quadratic, which is a different experiment from Fig. 20."""
    rows = np.concatenate([np.zeros(n, dtype=np.int64), np.arange(1, n, dtype=np.int64)])
    cols = np.concatenate([np.arange(n, dtype=np.int64), np.zeros(n - 1, dtype=np.int64)])
    coords = np.stack([rows, cols], axis=1)
    ones = np.ones(len(coords), dtype=np.int64)

    def pack(attrs):
        return tensor_from_coo(attrs, ("sparse", "sparse"), (n, n), coords, ones, INT)

    return pack(("a", "b")), pack(("b", "c")), pack(("a", "c"))


def to_coo(t: Tensor) -> Tuple[np.ndarray, np.ndarray]:
    """``(coords, vals)`` of every stored leaf, vectorised (the inverse
    of :func:`tensor_from_coo`)."""
    n_parent = 1
    columns = []          # one coordinate column per level, per parent slot
    for k, fmt in enumerate(t.formats):
        if fmt == "dense":
            d = t.dims[k]
            columns = [np.repeat(c, d) for c in columns]
            columns.append(np.tile(np.arange(d, dtype=np.int64), n_parent))
            n_parent *= d
        else:
            counts = np.diff(t.pos[k][: n_parent + 1])
            columns = [np.repeat(c, counts) for c in columns]
            columns.append(np.asarray(t.crd[k][: int(counts.sum())], dtype=np.int64))
            n_parent = int(counts.sum())
    coords = np.stack(columns, axis=1) if columns else np.zeros((1, 0), np.int64)
    return coords, np.asarray(t.vals[:n_parent])


def tensor_bytes(t: Tensor) -> bytes:
    """Every array of a tensor, concatenated — for the byte-identity
    self-test of the generators."""
    parts = [np.ascontiguousarray(t.vals).tobytes()]
    for k in sorted(t.pos):
        parts.append(np.ascontiguousarray(t.pos[k]).tobytes())
    for k in sorted(t.crd):
        parts.append(np.ascontiguousarray(t.crd[k]).tobytes())
    return b"".join(parts)
