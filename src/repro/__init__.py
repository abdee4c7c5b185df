"""Indexed Streams — a Python reproduction of the PLDI 2023 paper
"Indexed Streams: A Formal Intermediate Representation for Fused
Contraction Programs" (Kovach, Kolichala, Gu, Kjolstad).

The package is organized along the paper's own structure:

====================  ====================================================
module                paper section
====================  ====================================================
``repro.semirings``   §4.3   semirings K
``repro.krelation``   §4.2–4.4  schemas, tuples, K-relations (semantics 𝒯)
``repro.lang``        §4     the contraction language ℒ
``repro.streams``     §5     indexed streams (semantics 𝒮)
``repro.verification`` §6    executable lawfulness/monotonicity/Thm 6.1
``repro.compiler``    §7     the Etch compiler (ℒ → streams → P → C)
``repro.data``        §7.3   level-format tensors, dictionary encoding
``repro.tensor``      §8.1   einsum frontend
``repro.relational``  §8.2   relational algebra frontend
``repro.baselines``   §8     TACO-style kernels, pairwise joins, SQLite
``repro.tpch``        §8.2   TPC-H data generator, Q5, Q9
``repro.workloads``   §8     synthetic workload generators
====================  ====================================================

Quickstart::

    from repro.workloads import sparse_vector
    from repro.tensor import einsum

    x = sparse_vector(1000, 0.01, seed=1)
    y = sparse_vector(1000, 0.01, seed=2)
    z = sparse_vector(1000, 0.01, seed=3)
    dot = einsum("i,i,i->", x, y, z)   # fused three-way product (Fig. 2)
"""

__version__ = "1.0.0"

import importlib

from repro.errors import (
    BackendUnavailableError,
    CacheCorruptionError,
    CapacityError,
    CompileError,
    ReproError,
    ShapeError,
)
from repro.semirings import BOOL, FLOAT, INT, MAX_PLUS, MIN_PLUS, NAT
from repro.krelation import Attribute, KRelation, Schema
from repro.lang import Expr, Lit, Sum, TypeContext, Var, denote, sum_over
from repro.data import Tensor
from repro.compiler import build as _build, kernel as _kernel
from repro.compiler.build import KernelBuilder, compile_kernel
from repro.compiler.kernel import OutputSpec
from repro.tensor import einsum


# The compiler imports neither the runtime above it nor the tuner beside
# its builder (DESIGN.md §4).  This module, which every ``import repro``
# runs first, is the one that knows both sides: it binds the compiler's
# two late-bound names to stand-ins that import their layer at the first
# call, so importing ``repro`` and building a kernel load neither.
class _Runtime:
    def __getattr__(self, name: str):  # the first call puts the real one
        _kernel.runtime = importlib.import_module("repro.runtime")
        return getattr(_kernel.runtime, name)


_kernel.runtime = _Runtime()
# looked up per call: tuning is the slow path, and a test may replace it
_build.tune_build = lambda *args, **kwargs: importlib.import_module(
    "repro.autotune").tune_build(*args, **kwargs)

__all__ = [
    "__version__",
    "BOOL", "FLOAT", "INT", "NAT", "MIN_PLUS", "MAX_PLUS",
    "Attribute", "Schema", "KRelation",
    "Expr", "Var", "Lit", "Sum", "sum_over", "TypeContext", "denote",
    "Tensor",
    "KernelBuilder", "OutputSpec", "compile_kernel",
    "einsum",
    "ReproError", "CompileError", "BackendUnavailableError",
    "CacheCorruptionError", "CapacityError", "ShapeError",
]
