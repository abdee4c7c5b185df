"""lib_kernel — warm in-process ``BoundKernel.__call__`` on the paper's
programs, at sizes where the generated loop nest is the op.

Why: the only workload where generated-code quality (merge loops,
binary-search skip, the IR passes, the gcc flags) moves the result;
per-call Python overhead is invisible here.
"""

from __future__ import annotations

from typing import Dict, List

from bench import datagen, layers, programs
from bench.harness import Cell
from bench.workloads import Workload

#: cell → (builder, size arguments); full sizes put most cell medians
#: in the 3–30 ms range, smoke sizes only have to run
FULL = {
    "spmv": (programs.spmv, dict(n=40_000, nnz=2_400_000)),
    "add": (programs.add, dict(n=20_000, nnz=400_000)),
    "inner": (programs.inner, dict(n=20_000, nnz=600_000)),
    "mmul": (programs.mmul, dict(n=3_000, nnz=30_000)),
    "smul": (programs.smul, dict(n=20_000, nnz=60_000)),
    "mttkrp": (programs.mttkrp, dict(n=300, nnz=400_000, r=32)),
    "filtered_spmv": (programs.filtered_spmv,
                      dict(n=20_000, nnz=400_000, keep=2_000)),
    "triangle": (programs.triangle, dict(n=400_000)),
}
SMOKE = {
    "spmv": (programs.spmv, dict(n=500, nnz=5_000)),
    "add": (programs.add, dict(n=300, nnz=2_000)),
    "inner": (programs.inner, dict(n=300, nnz=2_000)),
    "mmul": (programs.mmul, dict(n=200, nnz=1_000)),
    "smul": (programs.smul, dict(n=300, nnz=1_000)),
    "mttkrp": (programs.mttkrp, dict(n=40, nnz=500, r=8)),
    "filtered_spmv": (programs.filtered_spmv, dict(n=500, nnz=5_000, keep=50)),
    "triangle": (programs.triangle, dict(n=2_000)),
}
TPCH_SF = {"full": 0.01, "smoke": 0.002}
#: calls per sample for the cells whose call is below a millisecond
BATCH = {"tpch_q5": 16}


class LibKernel(Workload):
    name = "lib_kernel"
    rounds = 15
    samples = 10

    def generate(self, seed: int, smoke: bool) -> None:
        from repro.tpch import generate as tpch_generate

        self.smoke = smoke
        self.programs: Dict[str, programs.Program] = {}
        for cell, (build, size) in (SMOKE if smoke else FULL).items():
            self.programs[cell] = build(datagen.rng_for(seed, self.name, cell), **size)
        data = tpch_generate(TPCH_SF["smoke" if smoke else "full"], seed=seed)
        for q in ("q5", "q9"):
            self.programs[f"tpch_{q}"] = programs.tpch(data, q)
        for p in self.programs.values():
            p.compute_expected()

    def setup(self, tag: str, final: bool) -> None:
        self.kernels = {
            cell: p.compile(f"lk_{cell}_{tag}")
            for cell, p in self.programs.items()
        }
        self.bound = {
            cell: k.bind(self.programs[cell].tensors, self.programs[cell].capacity)
            for cell, k in self.kernels.items()
        }
        for b in self.bound.values():
            b()

    def cells(self) -> List[Cell]:
        out = []
        for cell, p in self.programs.items():
            out.append(Cell(
                cell, self.bound[cell],
                lambda r, want=p.expected: programs.matches(r, want),
                batch=1 if self.smoke else BATCH.get(cell, 1),
                samples=self.samples,
            ))
        return out

    def trace(self, tracer, rounds, untraced):
        for _ in range(rounds):
            for cell, p in self.programs.items():
                kernel = self.kernels[cell]
                bound = self.bound[cell]
                for _s in range(self.samples):
                    tracer.op(cell, _traced_call, tracer, bound)
                    # Kernel.run's other third, which a bound kernel
                    # paid once: recorded beside the op, not inside it
                    tracer.call("kernel.bind", kernel.bind, p.tensors, p.capacity)
        return {"opt.ir_nodes_out": float(sum(
            layers.count_statements(k.loop_ir) for k in self.kernels.values()))}


def _traced_call(tracer, bound):
    tracer.call("kernel.exec", bound.run_only)
    return tracer.call("kernel.assemble", bound.result)


WORKLOAD = LibKernel
