"""Query canonicalization: JSON request → prepared, keyed execution.

The crucial property: a prepared einsum query knows its **kernel cache
key before anything is compiled** (via
:meth:`~repro.tensor.einsum.EinsumPlan.cache_key`, which runs the full
front-end validation but stops short of lowering).  Admission control
can therefore reject a query whose kernel the circuit breaker has
quarantined — or coalesce it with an identical in-flight one — at the
price of a hash, not a compile.

Two query kinds:

``einsum``
    ``{"kind": "einsum", "spec": "ij,jk->ik", "operands": [TENSOR,
    ...]}`` with optional ``semiring`` (by name), ``output_formats``,
    ``order``, ``capacity``, and ``deadline_ms``.  A ``TENSOR`` is
    ``{"entries": [[[i, j], v], ...]}`` with optional ``"dims"``
    (defaults to 1 + the max coordinate per level) and ``"formats"``
    (defaults to all-sparse).  Executed on the supervised kernel
    runtime — deadline-killed, crash-isolated, breaker-guarded.

``sql``
    ``{"kind": "sql", "query": "SELECT ...", "tables": {name:
    {"columns": [...], "rows": [[...], ...]}}}``.  Executed by the
    relational reference engine in an executor thread; no kernel is
    built, so no breaker state applies.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.data.tensor import Tensor
from repro.errors import KernelTimeoutError, ReproError
from repro.runtime.jobs import fingerprint_tensor
from repro.semirings.instances import (
    BOOL, FLOAT, INT, MAX_PLUS, MAX_TIMES, MIN_PLUS, NAT,
)
from repro.serve.deadline import Budget
from repro.tensor.einsum import EinsumPlan, parse_spec, plan_einsum

SEMIRINGS = {
    s.name: s
    for s in (BOOL, NAT, INT, FLOAT, MIN_PLUS, MAX_PLUS, MAX_TIMES)
}


class QueryError(ReproError, ValueError):
    """A malformed query document — the client's fault (HTTP 400)."""


def _require(body: Mapping[str, Any], key: str, kind: type) -> Any:
    try:
        value = body[key]
    except (KeyError, TypeError):
        raise QueryError(f"missing required field {key!r}") from None
    if not isinstance(value, kind):
        raise QueryError(
            f"field {key!r} must be {kind.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


def _integers(cells: List[Any], what: str) -> np.ndarray:
    """``cells`` as an int64 array, or ``ValueError`` (``OverflowError``
    past int64): ``2.0`` is the integer 2; ``1.7``, ``true``, ``"3"``
    and NaN are not integers."""
    kinds = set(map(type, cells))
    if kinds - {int, float}:
        names = ", ".join(sorted(t.__name__ for t in kinds - {int, float}))
        raise ValueError(f"{what} must be integers, got {names}")
    column = np.array(cells, dtype=np.int64 if kinds <= {int} else np.float64)
    if column.dtype != np.int64:
        # below 2**53 a float64 holds every integer exactly, so there a
        # column is integral iff it survives the round trip; NaN, ±inf
        # and an int its float neighbours would round fail the bound
        if not (np.abs(column) < 2.0**53).all():
            raise ValueError(f"{what} must be integers below 2**53 beside a float")
        ints = column.astype(np.int64)
        if not np.array_equal(ints, column):
            raise ValueError(f"{what} must be integers")
        column = ints
    return column


def _decode_entries(raw: List[Any], rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """One operand's ``entries`` as an ``(n, rank)`` int64 coordinate
    array and ``n`` float values.  ``ValueError`` (the caller names the
    operand) unless every entry is a ``[coords, value]`` pair of
    ``rank`` integers and a number."""
    try:
        keys, values = zip(*raw, strict=True) if raw else ((), ())
        ranks = set(map(len, keys))
    except (TypeError, ValueError):
        raise ValueError("every entry must be a [coords, value] pair") from None
    if ranks - {rank}:
        raise ValueError(f"entry rank {min(ranks - {rank})} != spec rank {rank}")
    coords = _integers(list(chain.from_iterable(keys)), "coordinates")
    odd = set(map(type, values)) - {int, float, bool}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise ValueError(f"values must be numbers, got {names}")
    return coords.reshape(len(values), rank), np.array(values, dtype=np.float64)


def _decode_operands(
    operands_json: List[Any], operand_letters: Tuple[Tuple[str, ...], ...]
) -> List[Tensor]:
    """Decode every operand; missing ``dims`` are inferred *jointly* —
    an index letter shared across operands gets one dimension, the hull
    of every coordinate that uses it."""
    decoded = []
    hull: Dict[str, int] = {}
    for pos, (obj, letters) in enumerate(zip(operands_json, operand_letters)):
        try:
            if not isinstance(obj, Mapping):
                raise ValueError("must be an object")
            coords, vals = _decode_entries(_require(obj, "entries", list), len(letters))
            dims = obj.get("dims")
            if dims is not None:
                if not isinstance(dims, list):
                    raise ValueError("dims must be a list of integers")
                dims = _integers(dims, "dims").tolist()
                if len(dims) != len(letters):
                    raise ValueError(f"{len(dims)} dims for rank {len(letters)}")
        except (ValueError, OverflowError) as exc:
            raise QueryError(f"operand {pos}: {exc}") from None
        # stated dims bound their coordinates (from_coo checks those)
        seen = dims if dims is not None else (
            coords.max(axis=0, initial=0) + 1).tolist()
        for a, d in zip(letters, seen):
            hull[a] = max(hull.get(a, 1), d)
        decoded.append((pos, obj, letters, coords, vals, dims))

    tensors = []
    for pos, obj, letters, coords, vals, dims in decoded:
        if dims is None:
            dims = [hull[a] for a in letters]
        formats = tuple(obj.get("formats") or ("sparse",) * len(letters))
        try:
            tensors.append(Tensor.from_coo(letters, formats, dims, coords, vals))
        except ValueError as exc:
            raise QueryError(f"operand {pos}: {exc}") from None
    return tensors


def _encode_result(result: Any) -> Dict[str, Any]:
    if isinstance(result, Tensor):
        coords, vals = result.to_coo()      # already in sorted order
        entries = [c + [v] for c, v in zip(coords.tolist(), vals.tolist())]
        return {
            "kind": "tensor",
            "attrs": list(result.attrs),
            "dims": list(result.dims),
            "nnz": len(entries),
            "entries": entries,
        }
    return {"kind": "scalar", "value": _json_value(result)}


def _json_value(v: Any) -> Any:
    """numpy scalars → native JSON types."""
    if hasattr(v, "item"):
        return v.item()
    return v


@dataclass
class PreparedQuery:
    """One canonicalized query, ready for admission and execution."""

    kind: str
    #: the kernel build-cache key (None for kernel-less queries) — the
    #: breaker's identity for this query
    kernel_key: Optional[str]
    #: identity for single-flight coalescing: kernel key + operand
    #: content (two requests with this key are the *same computation*)
    coalesce_key: str
    #: per-request deadline override, milliseconds (client-supplied)
    deadline_ms: Optional[float] = None
    plan: Optional[EinsumPlan] = None
    capacity: Optional[int] = None
    sql_text: Optional[str] = None
    sql_tables: Dict[str, Any] = field(default_factory=dict)
    #: small per-response summary (decision-cache hit/miss, predicted
    #: cost) — surfaced in the response ``meta``
    tune_meta: Optional[Dict[str, Any]] = None
    #: the full explain() payload, included only for ``explain=true``
    explanation: Optional[Dict[str, Any]] = None
    #: client/admission request for durable (journaled, resumable)
    #: execution; None defers to ``REPRO_DURABLE``.  Memory-aware
    #: admission under ``REPRO_SERVE_DEGRADE=spill`` forces this True
    #: for footprint-over-budget queries instead of rejecting them.
    durable: Optional[bool] = None
    #: cost-model estimate of the materialized result's resident bytes
    #: (None when the model could not size the query)
    footprint_bytes: Optional[float] = None
    #: filled by a durable execution: job_id, resumed_shards, spills —
    #: surfaced in the response ``meta`` and in drain-cancel markers
    job_meta: Dict[str, Any] = field(default_factory=dict)

    # -- execution (blocking; runs in the server's executor) -----------
    def execute(self, budget: Budget) -> Dict[str, Any]:
        """Build (or cache-hit) and run, spending ``budget``."""
        if self.kind == "sql":
            return self._execute_sql()
        kernel = self.build()
        remaining = budget.remaining()
        if remaining <= 0:
            raise KernelTimeoutError(
                "request budget exhausted before dispatch",
                deadline=budget.total,
            )
        from repro.runtime.policy import is_durable

        if is_durable(self.durable):
            # durable execution goes through the sharded runtime
            # directly: the journal is keyed by the run's deterministic
            # signature, so a client re-POSTing the identical query
            # after a crash resumes the dead worker's job.  Each shard
            # runs supervised behind the breaker, as every served query
            # does, and all of them reach the pool together.
            result = kernel.run_sharded(
                self.plan.inputs, self.capacity, executor="pool",
                supervised=True, deadline=remaining, durable=True,
                job_out=self.job_meta,
            )
        else:
            result = kernel.run(
                self.plan.inputs, capacity=self.capacity, parallel=False,
                supervised=True, deadline=remaining,
            )
        return _encode_result(result)

    def build(self):
        """Compile (or restore) the kernel."""
        return self.plan.build()

    def _execute_sql(self) -> Dict[str, Any]:
        from repro.relational.sql import run

        rows = run(self.sql_text, self.sql_tables)
        return {
            "kind": "rows",
            "rows": [[_json_value(v) for v in r] for r in rows],
            "count": len(rows),
        }


def _estimate_footprint(plan: EinsumPlan) -> Optional[float]:
    """Cost-model estimate of the result's resident bytes.

    Advisory only — the memory-aware admission gate treats None as
    "cannot size, admit normally"; a failing estimator must never 500
    a query."""
    try:
        from repro.autotune.costmodel import (
            OperandStats, footprint_bytes,
        )

        stats = [
            OperandStats.from_tensor(name, t)
            for name, t in plan.inputs.items()
        ]
        out = plan.output
        if out is None:
            return 8.0
        return footprint_bytes(
            plan.attr_order, stats, out.attrs, out.formats, plan.attr_dims,
            search=plan.search,
        )
    except Exception:
        return None


def _tune_plan(spec, tensors, semiring):
    """Consult the autotuner for an open-knob einsum query.

    Returns ``(plan, meta, explanation)`` or None — tuning is
    advisory, any failure falls back to the untuned plan (and is
    logged, never raised)."""
    try:
        from repro.autotune import tune_einsum

        result = tune_einsum(spec, *tensors, semiring=semiring)
        plan = result.plan()
        meta = {
            "cache": result.cache,
            "order": list(result.decision.order or ()),
            "search": result.decision.search,
            # significant digits, not decimals: a forecast under 0.5 µs
            # is small, not zero
            "predicted_ms": float(f"{result.predicted_s * 1e3:.4g}"),
        }
        return plan, meta, result.explain()
    except Exception as exc:
        from repro.compiler.resilience import logger

        logger.warning(
            "autotune failed for query spec %r (%s: %s); serving untuned",
            spec, type(exc).__name__, exc,
        )
        return None


def prepare_request(body: Any, tune: Optional[str] = None) -> PreparedQuery:
    """Parse and canonicalize one ``POST /query`` document.

    ``tune`` is the server's configured autotune mode: under
    ``"auto"``, einsum queries that leave the performance knobs open
    (no explicit ``order`` / ``output_formats``) are planned by
    :mod:`repro.autotune` — the decision cache is consulted here, at
    admission time, so a warm signature costs one lookup.  Explicit
    client knobs always win (the tuner is never consulted for them),
    and any tuner failure falls back to the untuned plan.

    Each operand's ``entries`` become two arrays, checked as arrays,
    for :meth:`~repro.data.tensor.Tensor.from_coo`; ``2.0`` is read as
    the integer 2 and nothing else is coerced (a coordinate or dimension
    ``1.7``, ``true`` or ``"1"`` is an error, not 1).

    Raises :class:`QueryError` (→ 400) for anything malformed; shape
    and dimension mismatches surface as the front-end's own
    :class:`~repro.krelation.schema.ShapeError` (also → 400).  Because
    canonicalization computes the kernel cache key here, the static
    stream-property lint runs too (``REPRO_STREAM_VERIFY``): an
    unlawful pipeline raises
    :class:`~repro.errors.StreamPropertyError`, which the server maps
    to 400 with the blame diagnostic — a proven-ill-formed query never
    reaches a compiler or a worker.
    """
    if not isinstance(body, Mapping):
        raise QueryError("request body must be a JSON object")
    kind = _require(body, "kind", str)
    deadline_ms = body.get("deadline_ms")
    # ``type(...)``: a JSON ``true`` reads as a Python int; NaN fails
    # both bounds
    if deadline_ms is not None and not (
        type(deadline_ms) in (int, float) and 0 < deadline_ms < math.inf
    ):
        raise QueryError("deadline_ms must be a finite number > 0")

    if kind == "sql":
        return _prepare_sql(body, deadline_ms)
    if kind != "einsum":
        raise QueryError(f"unknown query kind {kind!r}")

    spec = _require(body, "spec", str)
    operands_json = _require(body, "operands", list)
    try:
        operand_letters, _ = parse_spec(spec)
    except ValueError as exc:
        raise QueryError(str(exc)) from None
    if len(operands_json) != len(operand_letters):
        raise QueryError(
            f"spec has {len(operand_letters)} operands, got "
            f"{len(operands_json)}"
        )
    tensors = _decode_operands(operands_json, operand_letters)

    semiring_name = body.get("semiring", "float")
    semiring = SEMIRINGS.get(semiring_name)
    if semiring is None:
        raise QueryError(
            f"unknown semiring {semiring_name!r}; expected one of "
            f"{sorted(SEMIRINGS)}"
        )
    capacity = body.get("capacity")
    # ``type(...) is int``: a JSON ``true`` reads as a Python int
    if capacity is not None and (type(capacity) is not int or capacity < 1):
        raise QueryError("capacity must be a positive integer")
    durable = body.get("durable")
    if durable is not None and not isinstance(durable, bool):
        raise QueryError("durable must be a boolean")

    tuned = None
    knobs_open = (
        body.get("order") is None and body.get("output_formats") is None
    )
    if tune == "auto" and knobs_open:
        tuned = _tune_plan(spec, tensors, semiring)

    if tuned is not None:
        plan, tune_meta, explanation = tuned
    else:
        tune_meta = explanation = None
        try:
            plan = plan_einsum(
                spec, *tensors,
                output_formats=body.get("output_formats"),
                order=body.get("order"),
                semiring=semiring,
            )
        except ValueError as exc:
            raise QueryError(str(exc)) from None
    kernel_key = plan.cache_key()
    # the built operands stand in for their JSON: the key names the
    # tensors, not their spelling (nor their entry order)
    identity = {**body, "operands": [fingerprint_tensor(t) for t in tensors]}
    return PreparedQuery(
        kind="einsum",
        kernel_key=kernel_key,
        coalesce_key=f"{kernel_key}:{_body_digest(identity)}",
        deadline_ms=deadline_ms,
        plan=plan,
        capacity=capacity,
        tune_meta=tune_meta,
        explanation=explanation,
        durable=durable,
        footprint_bytes=_estimate_footprint(plan),
    )


def _prepare_sql(body: Mapping[str, Any], deadline_ms) -> PreparedQuery:
    from repro.relational.relation import Relation
    from repro.relational.sql import SqlError, parse

    text = _require(body, "query", str)
    tables_json = _require(body, "tables", Mapping)
    try:
        parse(text)  # syntax errors surface at admission, not dispatch
    except SqlError as exc:
        raise QueryError(str(exc)) from None
    tables: Dict[str, Relation] = {}
    for name, t in tables_json.items():
        if not isinstance(t, Mapping):
            raise QueryError(f"table {name!r} must be an object")
        try:
            tables[name] = Relation(
                _require(t, "columns", list),
                [tuple(r) for r in _require(t, "rows", list)],
            )
        except ValueError as exc:
            raise QueryError(f"table {name!r}: {exc}") from None
    return PreparedQuery(
        kind="sql",
        kernel_key=None,
        coalesce_key=f"sql:{_body_digest(body)}",
        deadline_ms=deadline_ms,
        sql_text=text,
        sql_tables=tables,
    )


def _body_digest(body: Mapping[str, Any]) -> str:
    """Content identity of a request: the canonical JSON of everything
    except the deadline and the ``explain`` flag (two clients asking
    the same question with different patience — or different curiosity
    about the plan — are still asking the same question; each coalesced
    caller gets the explain data of its *own* prepared query)."""
    stripped = {
        k: v for k, v in body.items() if k not in ("deadline_ms", "explain")
    }
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


__all__ = [
    "PreparedQuery",
    "QueryError",
    "prepare_request",
    "SEMIRINGS",
]
