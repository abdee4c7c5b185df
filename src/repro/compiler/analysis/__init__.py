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
  admission lint.

Importers name a submodule; the package itself exports nothing.
``python -m repro.lint`` is the command-line report: the stream
properties of every example and TPC-H pipeline, and the full
verification + lint report for each example kernel.
"""
