"""lib_dispatch — the same expressions at inputs so small that the
generated kernel is a minor part of the call, through the two call
paths users write: ``Kernel.run(tensors)`` and the README's
``repro.tensor.einsum(spec, *operands)``.

Why: per-call overhead (validate, marshal, allocate, assemble; parse,
plan, cache key, memo hit) shows here and kernel-quality work does
not; it is also the read side of the kernel cache.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from bench import datagen, layers, programs
from bench.harness import Cell
from bench.workloads import Workload

#: ``Kernel.run`` cells: kernels of a few microseconds
RUN_CELLS = {
    "spmv.run": (programs.spmv, dict(n=64, nnz=512)),
    "add.run": (programs.add, dict(n=64, nnz=256)),
    "inner.run": (programs.inner, dict(n=64, nnz=512)),
    "mmul.run": (programs.mmul, dict(n=32, nnz=96)),
    "smul.run": (programs.smul, dict(n=64, nnz=128)),
    "triangle.run": (programs.triangle, dict(n=256)),
}
#: ``einsum`` cells: spec, then (formats, dims, nnz) per operand
EINSUM_CELLS = {
    "dot3.einsum": ("i,i,i->", [(("sparse",), (256,), 64)] * 3),
    "spmv.einsum": ("ij,j->i", [(("dense", "sparse"), (64, 64), 512),
                                (("dense",), (64,), 64)]),
    "mmul.einsum": ("ij,jk->ik", [(("dense", "sparse"), (32, 32), 96),
                                  (("dense", "sparse"), (32, 32), 96)]),
    "inner.einsum": ("ij,ij->", [(("dense", "sparse"), (64, 64), 512)] * 2),
}
#: calls per sample: every call here is far below a millisecond, and a
#: sample is at least 2 ms (``.run`` calls take 22–60 µs, ``einsum`` 80–110)
RUN_BATCH = 128
EINSUM_BATCH = 32


def _operand(rng, letters, formats, dims, nnz):
    if all(f == "dense" for f in formats):
        return datagen.dense(rng, tuple(letters), dims)
    return datagen.sparse(rng, tuple(letters), formats, dims, nnz)


def denote_einsum(spec: str, operands) -> np.ndarray:
    """The denotational semantics 𝒯 of an einsum, as a dense array —
    the oracle that shares nothing with the compiler."""
    from repro.krelation.relation import KRelation
    from repro.krelation.schema import Attribute, Schema
    from repro.lang import TypeContext, denote
    from repro.tensor.einsum import einsum_expr

    expr, letters, output = einsum_expr(spec)
    dims: Dict[str, int] = {}
    order: List[str] = []
    for ls, t in zip(letters, operands):
        for a, d in zip(ls, t.dims):
            dims[a] = d
            if a not in order:
                order.append(a)
    schema = Schema(Attribute(a, list(range(dims[a]))) for a in order)
    ctx = TypeContext(schema, {f"t{k}": frozenset(ls) for k, ls in enumerate(letters)})
    bindings = {}
    for k, (ls, t) in enumerate(zip(letters, operands)):
        coords, vals = datagen.to_coo(t)
        support = {tuple(int(c) for c in row): float(v)
                   for row, v in zip(coords, vals)}
        bindings[f"t{k}"] = KRelation(schema, t.semiring, ls, support)
    rel = denote(expr, ctx, bindings)
    out = np.zeros(tuple(dims[a] for a in rel.shape))
    for key, v in rel.items():
        out[key] = v
    return out


class LibDispatch(Workload):
    name = "lib_dispatch"
    rounds = 20
    samples = 10

    def generate(self, seed: int, smoke: bool) -> None:
        self.run_batch, self.einsum_batch = (4, 4) if smoke else (RUN_BATCH, EINSUM_BATCH)
        self.programs = {
            cell: build(datagen.rng_for(seed, self.name, cell), **size)
            for cell, (build, size) in RUN_CELLS.items()
        }
        for p in self.programs.values():
            p.compute_expected()
        self.einsums = {}
        for cell, (spec, shapes) in EINSUM_CELLS.items():
            letters = spec.split("->")[0].split(",")
            rng = datagen.rng_for(seed, self.name, cell)
            operands = [_operand(rng, ls, *shape) for ls, shape in zip(letters, shapes)]
            self.einsums[cell] = (spec, operands, denote_einsum(spec, operands))

    def input_bytes(self) -> bytes:
        return super().input_bytes() + b"".join(
            datagen.tensor_bytes(t)
            for _cell, (_spec, operands, _want) in sorted(self.einsums.items())
            for t in operands
        )

    def setup(self, tag: str, final: bool) -> None:
        from repro.tensor import einsum

        self.kernels = {
            cell: p.compile(f"ld_{cell.split('.')[0]}_{tag}")
            for cell, p in self.programs.items()
        }
        for cell, k in self.kernels.items():
            p = self.programs[cell]
            k.run(p.tensors, p.capacity)
        # the last repetition makes the README call, which the timed ops
        # repeat; a kernel name per repetition keeps the earlier ones —
        # and their warm-up rounds — out of its caches
        self.einsum_names = {
            cell: None if final else f"einsum_{cell.split('.')[0]}_{tag}"
            for cell in self.einsums
        }
        for cell, (spec, operands, _want) in self.einsums.items():
            einsum(spec, *operands, kernel_name=self.einsum_names[cell])

    def cells(self) -> List[Cell]:
        from repro.tensor import einsum

        out = []
        for cell, p in self.programs.items():
            out.append(Cell(
                cell,
                lambda k=self.kernels[cell], p=p: k.run(p.tensors, p.capacity),
                lambda r, want=p.expected: programs.matches(r, want),
                batch=self.run_batch, samples=self.samples,
            ))
        for cell, (spec, operands, want) in self.einsums.items():
            out.append(Cell(
                cell,
                lambda spec=spec, operands=operands, name=self.einsum_names[cell]:
                    einsum(spec, *operands, kernel_name=name),
                lambda r, want=want: programs.matches(r, want),
                batch=self.einsum_batch, samples=self.samples,
            ))
        return out

    def trace(self, tracer, rounds, untraced):
        from repro.compiler.cache import kernel_cache
        from repro.tensor.einsum import plan_einsum

        # a traced op is recorded one by one, so fewer of them than the
        # batched untraced calls still give thousands of spans per cell
        ops = rounds * self.samples * self.einsum_batch // 4
        for cell, p in self.programs.items():
            for _ in range(ops):
                tracer.op(cell, layers.traced_run, tracer, self.kernels[cell],
                          p.tensors, p.capacity)
        for cell, (spec, operands, _want) in self.einsums.items():
            for _ in range(ops):
                plan = tracer.op(cell, _traced_einsum, tracer, spec, operands)
                tracer.call("cache.key", plan.cache_key)
        # a memory-tier miss served from the disk tier: drop the memo,
        # build again (done last: it evicts every resident kernel)
        for cell, (spec, operands, _want) in self.einsums.items():
            tracer.cell = cell
            for _ in range(5):
                kernel_cache.clear()
                plan = plan_einsum(spec, *operands)
                tracer.call("cache.disk_restore", plan.build)
        return {}


def _traced_einsum(tracer, spec, operands):
    """``einsum`` as it runs on a warm cache: plan, build (a memory-tier
    hit), then ``Kernel.run``."""
    from repro.tensor.einsum import plan_einsum

    plan = tracer.call("tensor.plan", plan_einsum, spec, *operands)
    kernel = tracer.call("cache.mem_hit", plan.build)
    layers.traced_run(tracer, kernel, plan.inputs)
    return plan


WORKLOAD = LibDispatch
