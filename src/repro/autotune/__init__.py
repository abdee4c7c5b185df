"""Adaptive query planning: cost model, decision cache, tuner.

``repro.autotune`` turns the library's caller-chosen plan knobs —
contraction ordering, per-level output formats and search strategy —
into planner decisions:

* :mod:`~repro.autotune.costmodel` predicts abstract work units per
  candidate plan from per-level tensor statistics;
* :mod:`~repro.autotune.decisions` caches decisions by workload
  signature with the kernel cache's crash-safety machinery;
* :mod:`~repro.autotune.tuner` enumerates the legal candidates and
  picks the one with the fewest units.

A decision is a pure function of its workload signature: nothing is
measured, and how a call runs (serial, threads, the pool) stays the
caller's choice.

Routing: ``compile_kernel(..., tune="auto")`` /
``KernelBuilder(tune=...)`` / the ``REPRO_TUNE`` environment knob for
the library, ``ServeConfig.tune`` (default on) for the server.  With
tuning off, none of this package's code runs.
"""

from repro.autotune.costmodel import CostEstimate, OperandStats, estimate
from repro.autotune.decisions import (
    Decision,
    DecisionCache,
    DecisionRecord,
    decision_cache,
    tune_cache_dir,
)
from repro.autotune.tuner import TuneResult, tune_build, tune_einsum

__all__ = [
    "CostEstimate",
    "Decision",
    "DecisionCache",
    "DecisionRecord",
    "OperandStats",
    "TuneResult",
    "decision_cache",
    "estimate",
    "tune_build",
    "tune_einsum",
    "tune_cache_dir",
]
