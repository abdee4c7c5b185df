"""Static analysis over the imperative IR **P** / **E**.

The paper's central result (Theorem 6.1) is that fused compilation is
*correct*; the executable stand-ins in :mod:`repro.verification` check
stream semantics dynamically, test case by test case.  This package
adds the static half of that story:

* :mod:`~repro.compiler.analysis.dataflow` — a small dataflow
  framework over the structured IR: a forward fixpoint engine and
  reaching definitions.  The structural helpers
  (``free_vars``/``stmt_effects``/``stmt_reads``) that the
  :mod:`repro.compiler.opt` passes previously each re-derived live
  here and are shared.
* :mod:`~repro.compiler.analysis.verifier` — a typed IR verifier:
  operator and ``Op`` arity/type checking, array element-type
  consistency, undefined-variable detection, and use-before-def via
  reaching definitions.  ``optimize(..., verify=True)`` (or
  ``REPRO_IR_VERIFY=1``) runs it after every optimization pass and
  raises :class:`~repro.errors.IRVerifyError` naming the offending
  pass — every existing test becomes a miscompilation detector.
* :mod:`~repro.compiler.analysis.streamprops` — the *stream*-level
  analysis, one abstraction level above the IR: the paper's §6
  preservation lemmas as transfer rules assigning every ℒ node and
  stream combinator a property signature {lawful, monotone,
  strictly-monotone, bounded, ⊕-law obligations}, with blame naming
  the node that breaks a property.  Consumed by
  :meth:`KernelBuilder.prepare` (``REPRO_STREAM_VERIFY``, default on),
  the shard planner's split certificates, and the serving layer's
  admission lint.

That a compressed output's stores stay inside its reservation is not
proved here: every append is guarded by its capacity, and the parity
suites run generated programs at a one-entry reservation, where each
overflowing run is the count pass (DESIGN.md "Capacity bounds are
checked by running").

Importers name a submodule; the package itself exports nothing.
``python -m repro.lint`` is the command-line report: the stream
properties of every example and TPC-H pipeline, and the verification
report for each example kernel.
"""
