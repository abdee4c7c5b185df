#!/usr/bin/env python3
"""Fused tensor and relational algebra: filtered SpMV (Section 8.3, Figure 21).

Computes y(i) = Σ_j A(i,j) · x(j) · p(j), where p is a relational
selection on the vector entries (the paper motivates this with a
PageRank that drops low-score pages).  Because everything fuses, rows
whose entries are entirely filtered out are skipped in the outer loop
and the runtime goes to zero as the filter selectivity approaches 100%.
"""

import argparse
import time

from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.semirings import FLOAT
from repro.data import Tensor
from repro.workloads import dense_vector, sparse_matrix

import numpy as np


def predicate_tensor(n: int, selectivity: float, seed: int = 7) -> Tensor:
    """A boolean-valued stream keeping a (1 - selectivity) fraction of
    the coordinates — the relational filter, encoded as data."""
    rng = np.random.default_rng(seed)
    keep = rng.random(n) >= selectivity
    entries = {(int(j),): 1.0 for j in np.nonzero(keep)[0]}
    return Tensor.from_entries(("j",), ("sparse",), (n,), entries, FLOAT)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--density", type=float, default=0.01)
    args = parser.parse_args()
    n = args.n

    A = sparse_matrix(n, n, args.density, attrs=("i", "j"),
                      formats=("dense", "sparse"), seed=1)
    x = dense_vector(n, attr="j", seed=2)

    schema = Schema.of(i=None, j=None)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "x": {"j"}, "p": {"j"}})
    expr = Sum("j", Var("A") * Var("x") * Var("p"))
    out = OutputSpec(("i",), ("dense",), (n,))

    kernel = None
    print(f"{'selectivity':>12} {'time (ms)':>10} {'kept entries':>13}")
    for selectivity in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
        p = predicate_tensor(n, selectivity)
        tensors = {"A": A, "x": x, "p": p}
        if kernel is None:
            kernel = compile_kernel(expr, ctx, tensors, out, search="binary",
                                    name="filtered_spmv").join()
            kernel.run(tensors)  # a process's first call imports the runtime layer
        t0 = time.perf_counter()
        for _ in range(5):
            kernel.run(tensors)
        elapsed = (time.perf_counter() - t0) / 5
        print(f"{selectivity:>12.2f} {elapsed*1e3:>10.3f} {p.nnz:>13}")
    print("\nruntime decreases toward zero as selectivity -> 100% (Fig. 21)")


if __name__ == "__main__":
    main()
