#!/usr/bin/env python3
"""Swapping the semiring: single-source shortest paths over (min, +).

Contraction expressions are parameterized by the scalar semiring
(Section 7.3: "our evaluation makes use of boolean, floating point,
and (min, +) scalars").  Over the tropical semiring, the matrix-vector
product d' = Σ_j A(i,j)·d(j) is one round of Bellman–Ford relaxation;
iterating to a fixed point yields shortest path distances.  The same
compiled kernel is reused every round — only the data changes.
"""

import math

import numpy as np

from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.semirings import MIN_PLUS
from repro.data import Tensor


def main() -> None:
    # a small weighted digraph: edge (u, v) with weight w
    edges = {
        (0, 1): 7.0, (0, 2): 9.0, (0, 5): 14.0,
        (1, 2): 10.0, (1, 3): 15.0,
        (2, 3): 11.0, (2, 5): 2.0,
        (3, 4): 6.0,
        (5, 4): 9.0,
    }
    n = 6
    # transpose: to relax d(i) = min_j (w(j→i) + d(j)) we need the
    # in-edges of i, i.e. the matrix indexed (dst, src); the diagonal
    # keeps already-settled distances (min-plus 'one' = 0 on i=j)
    entries = {(v, u): w for (u, v), w in edges.items()}
    for v in range(n):
        entries[(v, v)] = 0.0
    A = Tensor.from_entries(("i", "j"), ("dense", "sparse"), (n, n),
                            entries, MIN_PLUS)

    schema = Schema.of(i=None, j=None)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "d": {"j"}})
    expr = Sum("j", Var("A") * Var("d"))
    out = OutputSpec(("i",), ("dense",), (n,))

    # distances start at 0 for the source, +inf elsewhere
    dist = np.full(n, math.inf)
    dist[0] = 0.0

    def pack(d: np.ndarray) -> Tensor:
        entries = {(j,): float(d[j]) for j in range(n) if math.isfinite(d[j])}
        return Tensor.from_entries(("j",), ("sparse",), (n,), entries, MIN_PLUS)

    kernel = compile_kernel(
        expr, ctx, {"A": A, "d": pack(dist)}, out,
        semiring=MIN_PLUS, name="sssp_relax",
    )

    for round_no in range(n):
        result = kernel.run({"A": A, "d": pack(dist)})
        new = result.vals.copy()
        new = np.minimum(new, dist)
        if np.array_equal(new, dist):
            print(f"converged after {round_no} rounds")
            break
        dist = new

    expected = [0.0, 7.0, 9.0, 20.0, 20.0, 11.0]
    print("node  distance")
    for v in range(n):
        print(f"{v:>4}  {dist[v]:>8.1f}")
    assert np.allclose(dist, expected), (dist, expected)
    print("matches Dijkstra on the textbook graph ✓")


if __name__ == "__main__":
    main()
