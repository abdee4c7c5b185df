"""Random tensors, matrices, and the worst-case triangle instances."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.tensor import Tensor
from repro.relational.relation import Relation
from repro.semirings.base import Semiring
from repro.semirings.instances import FLOAT, INT


def _unique_coords(rng: np.random.Generator, dims: Sequence[int], nnz: int) -> np.ndarray:
    """``nnz`` distinct coordinate tuples, uniform over the box."""
    total = int(np.prod(dims))
    nnz = min(nnz, total)
    flat = rng.choice(total, size=nnz, replace=False)
    coords = np.empty((nnz, len(dims)), dtype=np.int64)
    for k in range(len(dims) - 1, -1, -1):
        coords[:, k] = flat % dims[k]
        flat //= dims[k]
    return coords


def sparse_vector(
    n: int,
    density: float,
    attr: str = "i",
    fmt: str = "sparse",
    seed: int = 0,
    semiring: Semiring = FLOAT,
) -> Tensor:
    """A random vector with ~``density * n`` nonzeros in [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    coords = _unique_coords(rng, (n,), max(1, int(density * n)))
    return Tensor.from_coo((attr,), (fmt,), (n,), coords,
                           rng.random(len(coords)) + 0.5, semiring)


def sparse_matrix(
    n: int,
    m: int,
    density: float,
    attrs: Tuple[str, str] = ("i", "j"),
    formats: Tuple[str, str] = ("dense", "sparse"),
    seed: int = 0,
    semiring: Semiring = FLOAT,
) -> Tensor:
    """A random n×m matrix with ~``density * n * m`` nonzeros."""
    rng = np.random.default_rng(seed)
    coords = _unique_coords(rng, (n, m), max(1, int(density * n * m)))
    return Tensor.from_coo(attrs, formats, (n, m), coords,
                           rng.random(len(coords)) + 0.5, semiring)


def sparse_tensor3(
    dims: Tuple[int, int, int],
    density: float,
    attrs: Tuple[str, str, str] = ("i", "k", "l"),
    formats: Tuple[str, str, str] = ("sparse", "sparse", "sparse"),
    seed: int = 0,
    semiring: Semiring = FLOAT,
) -> Tensor:
    """A random third-order tensor (CSF by default)."""
    rng = np.random.default_rng(seed)
    nnz = max(1, int(density * int(np.prod(dims))))
    coords = _unique_coords(rng, dims, nnz)
    return Tensor.from_coo(attrs, formats, dims, coords,
                           rng.random(len(coords)) + 0.5, semiring)


def nested_sum(depth: int, n_operands: int, n: int = 5, nnz: int = 12):
    """``Σ (A + B + …)`` of ``n_operands`` random tensors over ``depth``
    compressed levels, contracted to a scalar: the program family whose
    generated code used to grow geometrically in both parameters.
    Returns ``(expr, ctx, tensors, total)`` — ``total`` is the exact
    expected result (small integer values)."""
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var

    attrs = tuple("ijkl"[:depth])
    names = "ABCD"[:n_operands]
    ctx = TypeContext(Schema.of(**{a: range(n) for a in attrs}),
                      {v: set(attrs) for v in names})
    rng = np.random.default_rng(10 * depth + n_operands)
    tensors, total = {}, 0.0
    for v in names:
        # a repeated coordinate keeps its last value (no ⊕-fold)
        entries = {tuple(int(x) for x in rng.integers(0, n, depth)):
                   float(rng.integers(1, 9)) for _ in range(nnz)}
        total += sum(entries.values())
        tensors[v] = Tensor.from_coo(attrs, ("sparse",) * depth, (n,) * depth,
                                     list(entries), list(entries.values()), FLOAT)
    expr = Var(names[0])
    for v in names[1:]:
        expr = expr + Var(v)
    for a in reversed(attrs):
        expr = Sum(a, expr)
    return expr, ctx, tensors, total


def dense_vector(n: int, attr: str = "i", seed: int = 0) -> Tensor:
    rng = np.random.default_rng(seed)
    return Tensor.from_coo((attr,), ("dense",), (n,), np.arange(n),
                           rng.random(n) + 0.5, FLOAT)


def dense_matrix(n: int, m: int, attrs: Tuple[str, str] = ("i", "j"), seed: int = 0) -> Tensor:
    rng = np.random.default_rng(seed)
    coords = np.indices((n, m)).reshape(2, -1).T      # row-major
    return Tensor.from_coo(attrs, ("dense", "dense"), (n, m), coords,
                           rng.random(n * m) + 0.5, FLOAT)


def triangle_relations(n: int) -> Tuple[Relation, Relation, Relation]:
    """Three copies of ``{0}×[n] ∪ [n]×{0}`` (the paper's footnote 2).

    The triangle query over these has Θ(n) output, a fused multiway
    join runs in Θ(n), and any pairwise plan materializes a Θ(n²)
    intermediate."""
    edges = [(0, b) for b in range(n)] + [(a, 0) for a in range(1, n)]
    R = Relation(("a", "b"), edges)
    S = Relation(("b", "c"), edges)
    T = Relation(("a", "c"), edges)
    return R, S, T


def triangle_tensors(n: int) -> Tuple[Tensor, Tensor, Tensor]:
    """The same instances as boolean-weighted DCSR tensors, with level
    orders matching the attribute order a < b < c (T is stored (a, c))."""
    edges = np.array([(0, b) for b in range(n)] + [(a, 0) for a in range(1, n)],
                     dtype=np.int64)

    def pack(attrs):
        return Tensor.from_coo(attrs, ("sparse", "sparse"), (n, n), edges,
                               np.ones(len(edges)), INT)

    return pack(("a", "b")), pack(("b", "c")), pack(("a", "c"))
