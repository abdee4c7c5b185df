#!/usr/bin/env python3
"""PageRank with a relational filter — the paper's §8.3 motivation.

Section 8.3 motivates fused tensor/relational algebra with "a PageRank
computation where we want to leave out pages with a low score".  This
example runs power iteration where each round's SpMV is fused with a
selection dropping pages below a score threshold:

    r'(i) = (1-d)/n + d · Σ_j M(i,j) · r(j) · keep(j)

The kernel is compiled once; only the rank vector and the filter data
change between rounds.
"""

import argparse

import numpy as np

from repro.compiler.build import compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.data import Tensor
from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var
from repro.semirings import FLOAT
from repro.workloads import sparse_matrix


def build_link_matrix(n: int, density: float, seed: int) -> Tensor:
    """A column-stochastic link matrix M(i,j) = 1/outdeg(j) for j→i."""
    raw = sparse_matrix(n, n, density, attrs=("i", "j"),
                        formats=("dense", "sparse"), seed=seed)
    outdeg = {}
    for (_i, j), _v in raw.to_dict().items():
        outdeg[j] = outdeg.get(j, 0) + 1
    entries = {
        (i, j): 1.0 / outdeg[j] for (i, j), _v in raw.to_dict().items()
    }
    return Tensor.from_entries(("i", "j"), ("dense", "sparse"), (n, n),
                               entries, FLOAT)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--density", type=float, default=0.002)
    parser.add_argument("--damping", type=float, default=0.85)
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="drop pages whose rank falls below this")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    n, d = args.n, args.damping

    M = build_link_matrix(n, args.density, seed=1)

    schema = Schema.of(i=None, j=None)
    ctx = TypeContext(schema, {"M": {"i", "j"}, "r": {"j"}, "keep": {"j"}})
    expr = Sum("j", Var("M") * Var("r") * Var("keep"))
    out = OutputSpec(("i",), ("dense",), (n,))
    kernel = compile_kernel(expr, ctx, {
        "M": M,
        "r": Tensor.from_entries(("j",), ("dense",), (n,), {}, FLOAT),
        "keep": Tensor.from_entries(("j",), ("sparse",), (n,), {(0,): 1.0}, FLOAT),
    }, out, search="binary", name="pagerank_step")

    rank = np.full(n, 1.0 / n)
    for round_no in range(args.rounds):
        keep_idx = np.nonzero(rank >= args.threshold)[0]
        keep = Tensor.from_entries(
            ("j",), ("sparse",), (n,), {(int(j),): 1.0 for j in keep_idx}, FLOAT
        )
        r_t = Tensor.from_entries(
            ("j",), ("dense",), (n,),
            {(j,): float(rank[j]) for j in range(n)}, FLOAT,
        )
        contrib = kernel.run({"M": M, "r": r_t, "keep": keep})
        new = (1.0 - d) / n + d * contrib.vals
        delta = float(np.abs(new - rank).sum())
        rank = new
        if delta < 1e-10:
            print(f"converged after {round_no + 1} rounds (L1 delta {delta:.2e})")
            break

    top = np.argsort(rank)[::-1][:5]
    print(f"kept {len(keep_idx)}/{n} pages in the last round")
    print("top pages:", [(int(p), round(float(rank[p]), 6)) for p in top])
    assert np.isfinite(rank).all() and rank.sum() <= 1.0 + 1e-6


if __name__ == "__main__":
    main()
