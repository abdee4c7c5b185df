"""Static analysis over the imperative IR **P** / **E**.

The paper's central result (Theorem 6.1) is that fused compilation is
*correct*; the executable stand-ins in :mod:`repro.verification` check
stream semantics dynamically, test case by test case.  This package
adds the static half of that story:

* :mod:`~repro.compiler.analysis.dataflow` — a small dataflow
  framework over the structured IR: forward/backward fixpoint engines,
  reaching definitions, live variables, and def-use chains.  The
  structural helpers (``free_vars``/``stmt_effects``/``stmt_reads``)
  that the :mod:`repro.compiler.opt` passes previously each re-derived
  live here and are shared.
* :mod:`~repro.compiler.analysis.verifier` — a typed IR verifier:
  operator and ``Op`` arity/type checking, array element-type
  consistency, undefined-variable detection, and use-before-def via
  reaching definitions.  ``optimize(..., verify=True)`` (or
  ``REPRO_IR_VERIFY=1``) runs it after every optimization pass and
  raises :class:`~repro.errors.IRVerifyError` naming the offending
  pass — every existing test becomes a miscompilation detector.
* :mod:`~repro.compiler.analysis.intervals` — interval analysis for
  array subscripts and the bounds/capacity lint that checks stores
  against the destination capacity contracts declared in
  :mod:`repro.compiler.dest`: the static proof that an overflowing
  run — :meth:`Kernel.execute`'s count pass — clamps every store.
* :mod:`~repro.compiler.analysis.streamprops` — the *stream*-level
  analysis, one abstraction level above the IR: the paper's §6
  preservation lemmas as transfer rules assigning every ℒ node and
  stream combinator a property signature {lawful, monotone,
  strictly-monotone, bounded, ⊕-law obligations}, with blame naming
  the node that breaks a property.  Consumed by
  :meth:`KernelBuilder.prepare` (``REPRO_STREAM_VERIFY``, default on),
  the shard planner's split certificates, and the serving layer's
  admission lint (``python -m repro.lint``).

``python -m repro.compiler.analysis <kernel>`` prints the full
verification + lint report for a named example kernel.
"""

from repro.compiler.analysis.dataflow import (
    BackwardAnalysis,
    DefUse,
    ENTRY_PARAM,
    ENTRY_ZERO,
    ForwardAnalysis,
    LiveVariables,
    ReachingDefinitions,
    arrays_read,
    def_use_chains,
    expr_key,
    expr_uses,
    free_vars,
    live_transfer,
    run_backward,
    run_forward,
    stmt_effects,
    stmt_reads,
)
from repro.compiler.analysis.intervals import (
    ArrayContract,
    BoundsFinding,
    Interval,
    IntervalAnalysis,
    eval_interval,
    lint_bounds,
)
from repro.compiler.analysis.streamprops import (
    Blame,
    Obligation,
    PropertySignature,
    SplitCertificate,
    analyze_expr,
    analyze_stream,
    certify_split,
    infer_expr,
    infer_stream,
    refusal_reason,
    verify_expr,
    verify_stream,
)
from repro.compiler.analysis.verifier import (
    Issue,
    VerifyContext,
    check_program,
    verify_kernel,
    verify_program,
)
from repro.errors import IRVerifyError, StreamPropertyError

__all__ = [
    "ForwardAnalysis",
    "BackwardAnalysis",
    "ReachingDefinitions",
    "LiveVariables",
    "DefUse",
    "ENTRY_PARAM",
    "ENTRY_ZERO",
    "run_forward",
    "run_backward",
    "def_use_chains",
    "expr_uses",
    "expr_key",
    "free_vars",
    "arrays_read",
    "stmt_effects",
    "stmt_reads",
    "live_transfer",
    "Interval",
    "IntervalAnalysis",
    "eval_interval",
    "ArrayContract",
    "BoundsFinding",
    "lint_bounds",
    "Issue",
    "VerifyContext",
    "verify_program",
    "verify_kernel",
    "check_program",
    "IRVerifyError",
    "Blame",
    "Obligation",
    "PropertySignature",
    "SplitCertificate",
    "StreamPropertyError",
    "analyze_expr",
    "analyze_stream",
    "certify_split",
    "infer_expr",
    "infer_stream",
    "refusal_reason",
    "verify_expr",
    "verify_stream",
]
