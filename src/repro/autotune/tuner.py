"""The plan enumerator and search — ``repro.autotune``'s front door.

:func:`tune_einsum` takes the *workload* (an einsum spec plus concrete
operand tensors) and searches the space the caller left open:
contraction ordering (every permutation that keeps the requested
output order, when the attribute count is small), output format stack,
search strategy (linear vs galloping), and — priced by the measured
calibration profile — shard executor and shard count.  The
candidate set is bounded by the same static legality rules the
compiler enforces: only orderings whose output stack the destination
builder accepts (:func:`~repro.autotune.costmodel.output_order_ok`)
and only shard splits carrying a stream-property certificate
(:func:`~repro.runtime.planner.probe_splits`).

:func:`tune_build` is the narrower builder-path variant for general ℒ
expressions: the attribute ordering is fixed by the caller's
:class:`~repro.lang.TypeContext`, so only search / executor / shards
are searched.

Both return a :class:`TuneResult` whose :meth:`~TuneResult.explain`
reports the chosen plan, the rejected candidates with their cost
estimates, and the decision-cache disposition — the data the serving
layer surfaces under ``explain=true``.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.autotune import costmodel
from repro.autotune.calibrate import CalibrationProfile, get_profile
from repro.autotune.costmodel import OperandStats
from repro.autotune.decisions import (
    Decision,
    DecisionCache,
    decision_cache,
)
from repro.compiler.resilience import logger
from repro.data.tensor import Tensor

#: orderings are enumerated exhaustively up to this many attributes
#: (5! = 120 candidate orders; beyond that only the caller's order)
MAX_ENUM_ATTRS = 5
#: shard counts the executor search prices
SHARD_CANDIDATES = (2, 4)
#: sharding must be predicted to save at least this fraction
SHARD_MIN_GAIN = 0.05
#: and the serial work must be at least this long to bother
SHARD_MIN_WORK_S = 5e-3


@dataclass
class TuneResult:
    """One tuning verdict: the decision plus everything behind it."""

    decision: Decision
    signature: str
    cache: str                      # "hit" | "miss" | "stale"
    predicted_s: float
    considered: int = 0
    candidates: List[Dict[str, Any]] = field(default_factory=list)
    profile_measured: bool = False
    # einsum-path payload for .plan()
    spec: Optional[str] = None
    tensors: Tuple[Tensor, ...] = ()
    semiring: Any = None
    backend: str = "c"
    kernel_name: Optional[str] = None

    def plan(self):
        """Materialize the decision as an :class:`EinsumPlan`
        (repacking any operand the chosen ordering transposes)."""
        if self.spec is None:
            raise ValueError("plan() is only available for einsum tuning")
        from repro.tensor.einsum import parse_spec, plan_einsum, repack

        operands, output = parse_spec(self.spec)
        order = self.decision.order
        tensors = list(self.tensors)
        spec = self.spec
        if order is not None:
            # an ordering that transposes an operand changes both the
            # tensor layout AND its subscripts in the spec — rewrite
            # the spec so plan_einsum sees a conformant request
            new_ops = []
            for k, (letters, t) in enumerate(zip(operands, tensors)):
                want = tuple(a for a in order if a in letters)
                new_ops.append(want)
                if tuple(t.attrs) != want:
                    fmts = tuple(
                        t.formats[t.attrs.index(a)] for a in want
                    )
                    tensors[k] = repack(t, want, fmts)
            spec = (",".join("".join(o) for o in new_ops)
                    + "->" + "".join(output))
        return plan_einsum(
            spec,
            *tensors,
            output_formats=self.decision.output_formats,
            order=order,
            semiring=self.semiring,
            backend=self.backend,
            search=self.decision.search,
            kernel_name=self.kernel_name,
        )

    def explain(self) -> Dict[str, Any]:
        return {
            "signature": self.signature,
            "cache": self.cache,
            "decision": self.decision.as_dict(),
            "predicted_s": self.predicted_s,
            "considered": self.considered,
            "candidates": self.candidates[:6],
            "profile_measured": self.profile_measured,
        }


# ----------------------------------------------------------------------
# workload signatures
# ----------------------------------------------------------------------
def _digest(parts: Tuple) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def einsum_signature(
    spec: str, stats: Sequence[OperandStats], semiring, backend: str
) -> str:
    return _digest((
        "einsum", spec.replace(" ", ""), semiring.name, backend,
        tuple(s.signature() for s in stats),
    ))


def build_signature(
    expr, order: Sequence[str], stats: Sequence[OperandStats],
    output, semiring, backend: str,
) -> str:
    return _digest((
        "build", repr(expr), tuple(order), semiring.name, backend,
        repr(output), tuple(s.signature() for s in stats),
    ))


# ----------------------------------------------------------------------
# candidate enumeration (einsum path)
# ----------------------------------------------------------------------
def _candidate_orders(
    operands: Sequence[Tuple[str, ...]], output: Tuple[str, ...]
) -> List[Tuple[str, ...]]:
    from repro.tensor.einsum import _appearance_order

    appearance = _appearance_order(operands)
    if len(appearance) > MAX_ENUM_ATTRS:
        return [appearance]
    orders = []
    for perm in itertools.permutations(appearance):
        pos = [perm.index(a) for a in output]
        if pos == sorted(pos):       # requested output order preserved
            orders.append(perm)
    return orders


def _executor_choice(
    work_s: float,
    specs: Dict[str, Any],
    out_spec,
    ops,
    profile: CalibrationProfile,
    name: str,
) -> Tuple[Optional[str], Optional[int], float]:
    """Pick (executor, shards) for ``work_s`` of serial work, or keep
    serial.  Only certificate-legal splits are candidates, and only
    executors whose *measured* 2-shard speedup beats 1 — the unmeasured
    default profile therefore never shards."""
    best = (None, None, work_s)
    if work_s < SHARD_MIN_WORK_S or not profile.speedup2:
        return best
    try:
        from repro.runtime.planner import probe_splits

        if not probe_splits(specs, out_spec, ops, name=name):
            return best
    except Exception as exc:
        logger.warning("autotune: split probe failed (%s); staying serial",
                       exc)
        return best
    for executor, gain in profile.speedup2.items():
        if gain <= 1.02:
            continue
        for shards in SHARD_CANDIDATES:
            t = profile.executor_time(work_s, executor, shards)
            if t < best[2] * (1.0 - SHARD_MIN_GAIN):
                best = (executor, shards, t)
    return best


def tune_einsum(
    spec: str,
    *tensors: Tensor,
    semiring=None,
    backend: str = "c",
    cache: Optional[DecisionCache] = None,
    profile: Optional[CalibrationProfile] = None,
    kernel_name: Optional[str] = None,
) -> TuneResult:
    """Search the open plan space of one einsum workload.

    Returns the cached decision when the workload signature is warm
    and not stale; otherwise enumerates, scores, stores, and returns
    the winner.
    """
    from repro.compiler.kernel import OutputSpec
    from repro.compiler.scalars import scalar_ops_for
    from repro.tensor.einsum import parse_spec

    operands, output = parse_spec(spec)
    if len(operands) != len(tensors):
        raise ValueError(
            f"spec has {len(operands)} operands, got {len(tensors)} tensors"
        )
    if semiring is None:
        semiring = tensors[0].semiring
    cache = cache if cache is not None else decision_cache
    profile = profile if profile is not None else get_profile()
    ops = scalar_ops_for(semiring)

    stats = [
        OperandStats.from_tensor(f"t{k}", t) for k, t in enumerate(tensors)
    ]
    dims: Dict[str, int] = {}
    for letters, t in zip(operands, tensors):
        for a, d in zip(letters, t.dims):
            dims.setdefault(a, int(d))

    signature = einsum_signature(spec, stats, semiring, backend)
    record = cache.lookup(signature)
    if record is not None and not record.stale:
        return TuneResult(
            decision=record.decision, signature=signature, cache="hit",
            predicted_s=record.decision.predicted_s,
            considered=int(record.explain.get("considered", 0)),
            candidates=list(record.explain.get("candidates", [])),
            profile_measured=profile.measured,
            spec=spec, tensors=tensors, semiring=semiring,
            backend=backend, kernel_name=kernel_name,
        )
    correction = record.correction if record is not None else 1.0

    per_unit = profile.per_unit(backend)
    scored: List[Dict[str, Any]] = []
    for order in _candidate_orders(operands, output):
        est = costmodel.estimate(order, stats, output, dims, search="linear")
        est_bin = costmodel.estimate(order, stats, output, dims,
                                     search="binary")
        for stack in costmodel.supported_output_stacks(len(output)):
            if not costmodel.output_order_ok(order, output, stack):
                continue
            for search, e in (("linear", est), ("binary", est_bin)):
                units = e.units + costmodel.output_units(
                    stack, output, dims, e.out_nnz
                )
                scored.append({
                    "order": order,
                    "output_formats": stack,
                    "search": search,
                    "units": units,
                    "out_nnz": e.out_nnz,
                    "serial_s": units * per_unit * correction,
                })
    scored.sort(key=lambda c: c["units"])
    best = scored[0]

    # price the shard options for the winning serial plan
    from repro.compiler.formats import TensorInput

    order = best["order"]
    specs = {}
    for k, (letters, t) in enumerate(zip(operands, tensors)):
        want = tuple(a for a in order if a in letters)
        fmts = tuple(t.formats[t.attrs.index(a)] for a in want)
        specs[f"t{k}"] = TensorInput(f"t{k}", want, fmts, ops)
    out_spec = None
    if output:
        out_spec = OutputSpec(
            output, best["output_formats"],
            tuple(dims[a] for a in output),
        )
    executor, shards, predicted_s = _executor_choice(
        best["serial_s"], specs, out_spec, ops, profile,
        kernel_name or "einsum",
    )

    capacity_hint = None
    if best["output_formats"] and any(
        f == "sparse" for f in best["output_formats"]
    ):
        dense_size = 1
        for a in output:
            dense_size *= dims[a]
        capacity_hint = min(int(best["out_nnz"] * 1.3) + 16, dense_size)

    decision = Decision(
        order=order,
        output_formats=best["output_formats"] or None,
        search=best["search"],
        executor=executor,
        shards=shards,
        capacity_hint=capacity_hint,
        predicted_s=predicted_s,
        predicted_units=best["units"],
    )
    explain = {
        "considered": len(scored),
        "candidates": [
            {
                "order": list(c["order"]),
                "output_formats": list(c["output_formats"]),
                "search": c["search"],
                "units": round(c["units"], 1),
            }
            for c in scored[:6]
        ],
    }
    cache.store(signature, decision, explain, correction=correction)
    return TuneResult(
        decision=decision, signature=signature,
        cache="stale" if record is not None else "miss",
        predicted_s=predicted_s, considered=len(scored),
        candidates=explain["candidates"],
        profile_measured=profile.measured,
        spec=spec, tensors=tensors, semiring=semiring,
        backend=backend, kernel_name=kernel_name,
    )


# ----------------------------------------------------------------------
# builder path: order fixed by the caller's TypeContext
# ----------------------------------------------------------------------
def tune_build(
    expr,
    ctx,
    inputs: Dict[str, Any],
    output,
    *,
    semiring,
    backend: str = "c",
    name: str = "kernel",
    cache: Optional[DecisionCache] = None,
    profile: Optional[CalibrationProfile] = None,
) -> TuneResult:
    """Tune the knobs a :class:`KernelBuilder` build leaves open.

    The attribute ordering is the context's schema order (general ℒ
    expressions are not reorderable without retyping), so the search
    covers: linear vs binary search, executor and shard count.  All
    inputs must be concrete tensors — the caller gates on that.
    """
    from repro.compiler.formats import TensorInput
    from repro.compiler.scalars import scalar_ops_for

    cache = cache if cache is not None else decision_cache
    profile = profile if profile is not None else get_profile()
    ops = scalar_ops_for(semiring)

    stats = [
        OperandStats.from_tensor(var, t) for var, t in sorted(inputs.items())
    ]
    mentioned = {a for s in stats for a in s.attrs}
    order = tuple(a for a in ctx.schema.order if a in mentioned)
    dims: Dict[str, int] = {}
    for s in stats:
        for a, d in zip(s.attrs, s.dims):
            dims.setdefault(a, int(d))

    signature = build_signature(expr, order, stats, output, semiring, backend)
    record = cache.lookup(signature)
    if record is not None and not record.stale:
        return TuneResult(
            decision=record.decision, signature=signature, cache="hit",
            predicted_s=record.decision.predicted_s,
            considered=int(record.explain.get("considered", 0)),
            candidates=list(record.explain.get("candidates", [])),
            profile_measured=profile.measured,
        )
    correction = record.correction if record is not None else 1.0

    out_attrs = tuple(output.attrs) if output is not None else ()
    out_fmts = tuple(output.formats) if output is not None else ()
    per_unit = profile.per_unit(backend)
    scored = []
    for search in ("linear", "binary"):
        e = costmodel.estimate(order, stats, out_attrs, dims, search=search)
        units = e.units + costmodel.output_units(out_fmts, out_attrs, dims,
                                                 e.out_nnz)
        scored.append({
            "search": search, "units": units, "out_nnz": e.out_nnz,
            "serial_s": units * per_unit * correction,
        })
    scored.sort(key=lambda c: c["units"])
    best = scored[0]

    specs = {
        var: TensorInput(var, t.attrs, t.formats, ops)
        for var, t in inputs.items()
    }
    executor, shards, predicted_s = _executor_choice(
        best["serial_s"], specs, output, ops, profile, name,
    )

    decision = Decision(
        order=None, output_formats=None, search=best["search"],
        executor=executor, shards=shards,
        predicted_s=predicted_s, predicted_units=best["units"],
    )
    explain = {
        "considered": len(scored),
        "candidates": [
            {"search": c["search"], "units": round(c["units"], 1)}
            for c in scored[:6]
        ],
    }
    cache.store(signature, decision, explain, correction=correction)
    return TuneResult(
        decision=decision, signature=signature,
        cache="stale" if record is not None else "miss",
        predicted_s=predicted_s, considered=len(scored),
        candidates=explain["candidates"],
        profile_measured=profile.measured,
    )


__all__ = [
    "TuneResult",
    "tune_einsum",
    "tune_build",
    "einsum_signature",
    "build_signature",
    "MAX_ENUM_ATTRS",
]
