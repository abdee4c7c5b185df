"""The Etch compiler (Section 7), reimplemented in Python.

The pipeline mirrors Figure 1 of the paper:

1. a contraction expression over ℒ, with each variable bound to a
   concrete tensor format (:mod:`repro.compiler.lower`),
2. is translated to *syntactic indexed streams* — indexed streams whose
   components are program fragments (:mod:`repro.compiler.sstream`,
   Figure 13/14),
3. which the destination-passing ``compile`` function (Figure 15/16)
   lowers to a loop nest in the small imperative language **P**
   (:mod:`repro.compiler.ir`, Figure 11),
4. which is emitted as C (compiled with gcc, like the paper's Clang
   -O3 pipeline) or as Python, or executed directly by the reference
   interpreter (:mod:`repro.compiler.interp`).
"""

from repro.compiler.ir import (
    E,
    EAccess,
    EBinop,
    ECall,
    ECond,
    ELit,
    EUnop,
    EVar,
    NameGen,
    Op,
    P,
    PAssign,
    PComment,
    PIf,
    PSeq,
    PSkip,
    PStore,
    PWhile,
    TBOOL,
    TFLOAT,
    TINT,
)
from repro.compiler.cache import (
    CacheStats,
    KernelCache,
    kernel_cache,
    kernel_cache_key,
)
from repro.compiler.build import KernelBuilder, compile_kernel
from repro.compiler.resilience import logger, toolchain_available
from repro.errors import (
    BackendUnavailableError,
    CacheCorruptionError,
    CapacityError,
    CompileError,
    ReproError,
    ShapeError,
)
from repro.compiler.opt import (
    DEFAULT_OPT_LEVEL,
    eliminate_common_subexprs,
    eliminate_dead_stores,
    hoist_loop_invariants,
    optimize,
    propagate_copies,
    simplify,
)
from repro.compiler.scalars import ScalarOps, scalar_ops_for

__all__ = [
    "E",
    "EVar",
    "ELit",
    "EAccess",
    "EBinop",
    "EUnop",
    "ECond",
    "ECall",
    "Op",
    "P",
    "PSeq",
    "PWhile",
    "PIf",
    "PSkip",
    "PAssign",
    "PStore",
    "PComment",
    "NameGen",
    "TINT",
    "TFLOAT",
    "TBOOL",
    "ScalarOps",
    "scalar_ops_for",
    "KernelBuilder",
    "compile_kernel",
    "optimize",
    "simplify",
    "propagate_copies",
    "eliminate_dead_stores",
    "eliminate_common_subexprs",
    "hoist_loop_invariants",
    "DEFAULT_OPT_LEVEL",
    "kernel_cache",
    "kernel_cache_key",
    "KernelCache",
    "CacheStats",
    "ReproError",
    "CompileError",
    "BackendUnavailableError",
    "CacheCorruptionError",
    "CapacityError",
    "ShapeError",
    "logger",
    "toolchain_available",
]
