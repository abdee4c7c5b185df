"""build_cold — ``compile_kernel`` with both cache tiers missing.

Every op compiles under a kernel name the run's private cache dir has
never seen, so neither the in-memory memo nor the on-disk payload (nor
the ``.so`` cache) can answer.  The C cells are dominated by gcc; the
Python-backend cells are the compiler's own passes alone (lower →
compile_stream → optimize → lint_bounds → codegen_py).

Why: compile time is a first-class metric for a compiler and is what
the first ``/query`` of a new shape pays; it is also the write side of
the cache, so a change that speeds cache hits by doing more at store
time shows as a loss here.
"""

from __future__ import annotations

from typing import List

from bench import datagen, layers, programs
from bench.harness import Cell
from bench.workloads import Workload

#: cell → (program, backend); inputs are small — compile time does not
#: depend on them, and the oracle check runs the Python kernels
CELLS = {
    "spmv.c": ("spmv", "c"),
    "smul.c": ("smul", "c"),
    "mmul.python": ("mmul", "python"),
    "smul.python": ("smul", "python"),
    "q5.python": ("tpch_q5", "python"),
}
SIZES = {
    "spmv": (programs.spmv, dict(n=200, nnz=2_000)),
    "smul": (programs.smul, dict(n=200, nnz=1_000)),
    "mmul": (programs.mmul, dict(n=200, nnz=1_000)),
}
TPCH_SF = 0.002


class BuildCold(Workload):
    name = "build_cold"
    rounds = 10
    samples = 10

    def generate(self, seed: int, smoke: bool) -> None:
        from repro.tpch import generate as tpch_generate

        self.programs = {
            name: build(datagen.rng_for(seed, self.name, name), **size)
            for name, (build, size) in SIZES.items()
        }
        self.programs["tpch_q5"] = programs.tpch(tpch_generate(TPCH_SF, seed=seed), "q5")
        for p in self.programs.values():
            p.compute_expected()

    def setup(self, tag: str, final: bool) -> None:
        # nothing is compiled ahead of time: being cold is the workload.
        # A first compile per cell still happens here, because the first
        # gcc run and the lazily imported passes are one-time costs
        self.tag = tag
        self.counter = 0
        for cell in CELLS:
            self._compile(cell)

    def _fresh_name(self, cell: str) -> str:
        """A kernel name no cache tier has seen; fixed width, so that
        the generated sources — and ``code_bytes`` — repeat exactly."""
        self.counter += 1
        return f"bc_{cell.replace('.', '_')}_{self.tag}_{self.counter:06d}"

    def _compile(self, cell: str):
        program, backend = CELLS[cell]
        return self.programs[program].compile(self._fresh_name(cell), backend)

    def _check(self, cell: str, kernel) -> bool:
        p = self.programs[CELLS[cell][0]]
        return programs.matches(kernel.run(p.tensors, p.capacity), p.expected)

    def cells(self) -> List[Cell]:
        return [
            Cell(cell,
                 lambda cell=cell: self._compile(cell),
                 lambda kernel, cell=cell: self._check(cell, kernel),
                 samples=self.samples)
            for cell in CELLS
        ]

    def trace(self, tracer, rounds, untraced):
        nodes_in = nodes_out = 0
        for _ in range(rounds):
            for cell, (program, backend) in CELLS.items():
                for _s in range(self.samples):
                    name = self._fresh_name(cell)
                    counts = tracer.op(cell, layers.traced_build, tracer,
                                       self.programs[program], name, backend)
                    if counts is not None:
                        nodes_in, nodes_out = nodes_in + counts[0], nodes_out + counts[1]
                    layers.standalone_build_layers(
                        tracer, self.programs[program], name + "x", backend)
        per_op = max(1, rounds * self.samples)
        # statement counts are per set of cells (every op of a cell
        # compiles the same program, so the sum repeats exactly)
        return {"opt.ir_nodes_in": nodes_in / per_op,
                "opt.ir_nodes_out": nodes_out / per_op}


WORKLOAD = BuildCold
