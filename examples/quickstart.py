#!/usr/bin/env python3
"""Quickstart: the paper's running example (Figure 2).

Computes the fused three-way sparse dot product Σ_i x_i·y_i·z_i three
ways — the denotational semantics (ground truth), the runtime indexed
stream model, and the compiled C kernel — and prints the generated C
code, which has the same shape as the paper's Figure 2 output: one
while loop co-iterating all three vectors with max-index skips.
"""

from repro.krelation import Schema
from repro.lang import Sum, TypeContext, Var, denote
from repro.lang.stream_semantics import interpret
from repro.streams import evaluate, from_krelation
from repro.compiler.build import compile_kernel
from repro.data import tensor_to_krelation
from repro.workloads import sparse_vector


def main() -> None:
    n = 10_000
    x = sparse_vector(n, 0.1, seed=1)
    y = sparse_vector(n, 0.1, seed=2)
    z = sparse_vector(n, 0.1, seed=3)

    # Σ_i x*y*z in the contraction language ℒ
    schema = Schema.of(i=None)
    ctx = TypeContext(schema, {"x": {"i"}, "y": {"i"}, "z": {"i"}})
    expr = Sum("i", Var("x") * Var("y") * Var("z"))

    # 1. denotational semantics 𝒯 (Figure 4c) — the ground truth
    bindings = {
        name: tensor_to_krelation(t, schema)
        for name, t in (("x", x), ("y", y), ("z", z))
    }
    truth = denote(expr, ctx, bindings).total()

    # 2. the runtime indexed-stream model 𝒮 (Section 5)
    streams = {
        name: from_krelation(tensor_to_krelation(t, schema))
        for name, t in (("x", x), ("y", y), ("z", z))
    }
    via_streams = evaluate(interpret(expr, ctx, streams))

    # 3. the Etch compiler (Section 7): ℒ → stream IR → C → gcc -O3
    kernel = compile_kernel(expr, ctx, {"x": x, "y": y, "z": z}, name="dot3")
    via_compiler = kernel.run({"x": x, "y": y, "z": z})

    print(f"denotational semantics : {truth:.6f}")
    print(f"indexed streams        : {via_streams:.6f}")
    print(f"compiled C kernel      : {via_compiler:.6f}")
    assert abs(truth - via_streams) < 1e-9 * max(1.0, abs(truth))
    assert abs(truth - via_compiler) < 1e-9 * max(1.0, abs(truth))
    print("\nall three semantics agree (Theorem 6.1 in action)\n")

    print("generated C (compare with the paper's Figure 2):")
    print("-" * 60)
    print(kernel.source)


if __name__ == "__main__":
    main()
