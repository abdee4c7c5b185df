"""Executable checkers for the formal stream properties of Section 6."""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.semirings.base import Semiring
from repro.streams.base import STAR, Stream, is_stream
from repro.streams.combinators import add as stream_add
from repro.streams.combinators import contract as stream_contract
from repro.streams.combinators import mul as stream_mul
from repro.streams.evaluate import evaluate, merge_values


class _FromState(Stream):
    """The same stream automaton started at a different state."""

    __slots__ = ("inner", "_q",)

    def __init__(self, inner: Stream, q: Any) -> None:
        super().__init__(inner.attr, inner.shape, inner.semiring)
        self.inner = inner
        self._q = q

    @property
    def q0(self) -> Any:
        return self._q

    def valid(self, q):
        return self.inner.valid(q)

    def ready(self, q):
        return self.inner.ready(q)

    def index(self, q):
        return self.inner.index(q)

    def value(self, q):
        return self.inner.value(q)

    def skip(self, q, i, r):
        return self.inner.skip(q, i, r)


def probe_indices(stream: Stream, max_steps: int = 10_000) -> List[Any]:
    """Index values worth probing skip with: every emitted index plus
    integer neighbours when indices are integers."""
    seen: List[Any] = []
    for q in stream.states(max_steps=max_steps):
        if stream.valid(q):
            seen.append(stream.index(q))
    out = []
    for i in sorted(set(seen)):
        out.append(i)
        if isinstance(i, int):
            out.extend((i - 1, i + 1))
    return sorted(set(out)) if out else [0]


def check_monotone(stream: Stream, max_steps: int = 10_000) -> bool:
    """index(q) <= index(skip(q, (i, r))) for all reachable q and probes."""
    if not is_stream(stream):
        return True
    if stream.attr is STAR:
        # dummy levels have the trivial order; check their values
        for q in stream.states(max_steps=max_steps):
            if stream.ready(q) and is_stream(stream.value(q)):
                if not check_monotone(stream.value(q), max_steps):
                    return False
        return True
    probes = probe_indices(stream, max_steps)
    for q in stream.states(max_steps=max_steps):
        here = stream.index(q)
        for i in probes:
            for r in (False, True):
                q2 = stream.skip(q, i, r)
                if stream.valid(q2) and stream.index(q2) < here:
                    return False
        if stream.ready(q) and is_stream(stream.value(q)):
            if not check_monotone(stream.value(q), max_steps):
                return False
    return True


def check_strictly_monotone(stream: Stream, max_steps: int = 10_000) -> bool:
    """Monotone, and δ from a ready state strictly increases the index
    (Section 6.2 — required for multiplication to be sound)."""
    if not is_stream(stream):
        return True
    if not check_monotone(stream, max_steps):
        return False
    if stream.attr is STAR:
        return True  # dummy levels are exempt (and indeed not strict)
    for q in stream.states(max_steps=max_steps):
        if stream.ready(q):
            q2 = stream.next(q)
            if stream.valid(q2) and not (stream.index(q2) > stream.index(q)):
                return False
            if is_stream(stream.value(q)) and not check_strictly_monotone(
                stream.value(q), max_steps
            ):
                return False
    return True


def _eval_at(stream: Stream, q: Any, j: Any) -> Any:
    """⟦stream from state q⟧(j): the evaluation restricted to index j."""
    value = evaluate(_FromState(stream, q))
    if isinstance(value, dict):
        return value.get(j, None)
    return value


def check_lawful(stream: Stream, max_steps: int = 10_000) -> bool:
    """Skipping to (i, r) must not change evaluation at any j ≥ (i, r)
    — i.e. at j > i, or at j = i when r = 0 (Section 6.1)."""
    if not is_stream(stream) or stream.attr is STAR:
        return True
    probes = probe_indices(stream, max_steps)
    states = list(stream.states(max_steps=max_steps))
    for q in states:
        for i in probes:
            for r in (False, True):
                q2 = stream.skip(q, i, r)
                for j in probes:
                    if j < i or (j == i and r):
                        continue  # (i, r) > (j, 0): may be affected
                    before = _eval_at(stream, q, j)
                    after = _eval_at(stream, q2, j)
                    if not _values_eq(before, after, stream.semiring):
                        return False
    return True


def _values_eq(a: Any, b: Any, semiring: Semiring) -> bool:
    if a is None and b is None:
        return True
    if isinstance(a, dict) or isinstance(b, dict):
        a = a or {}
        b = b or {}
        keys = set(a) | set(b)
        return all(_values_eq(a.get(k), b.get(k), semiring) for k in keys)
    if a is None:
        return semiring.is_zero(b)
    if b is None:
        return semiring.is_zero(a)
    return semiring.eq(a, b)


# ----------------------------------------------------------------------
# Theorem 6.1: ⟦-⟧ is a homomorphism
# ----------------------------------------------------------------------
def _dict_mul(a: Any, b: Any, semiring: Semiring) -> Any:
    if not isinstance(a, dict):
        return semiring.mul(a, b)
    out = {}
    for k in a.keys() & b.keys():
        out[k] = _dict_mul(a[k], b[k], semiring)
    return out


def check_homomorphism_mul(x: Stream, y: Stream) -> bool:
    """⟦x · y⟧ = ⟦x⟧ · ⟦y⟧ for same-shape streams."""
    semiring = x.semiring
    lhs = evaluate(stream_mul(x, y, semiring))
    rhs = _dict_mul(evaluate(x), evaluate(y), semiring)
    return _values_eq(_prune(lhs, semiring), _prune(rhs, semiring), semiring)


def check_homomorphism_add(x: Stream, y: Stream) -> bool:
    """⟦x + y⟧ = ⟦x⟧ + ⟦y⟧ for same-shape streams."""
    semiring = x.semiring
    lhs = evaluate(stream_add(x, y, semiring))
    rhs = merge_values(semiring, evaluate(x), evaluate(y))
    return _values_eq(_prune(lhs, semiring), _prune(rhs, semiring), semiring)


def check_homomorphism_contract(x: Stream) -> bool:
    """⟦Σ x⟧ = Σ_i ⟦x⟧(i) for a stream with a real outer attribute."""
    semiring = x.semiring
    lhs = evaluate(stream_contract(x))
    evaluated = evaluate(x)
    if evaluated:
        rhs: Any = None
        for v in evaluated.values():
            rhs = v if rhs is None else merge_values(semiring, rhs, v)
    else:
        rhs = {} if x.shape[1:] else semiring.zero
    return _values_eq(_prune(lhs, semiring), _prune(rhs, semiring), semiring)


def check_shard_parity(
    kernel,
    tensors: Any,
    shards: int = 4,
    executor: str = "serial",
    split_attr: Optional[str] = None,
) -> bool:
    """Sharded execution equals the unsharded oracle, value for value.

    The runtime counterpart of Theorem 6.1: partitioning a split index
    and merging with ⊕/concatenation must be *exactly* the program's
    one-shot denotation (the semiring's own ``eq`` decides value
    equality, so float tolerance applies where the paper applies it).
    Returns True vacuously when the kernel admits no multi-shard plan —
    the runtime's quiet degradation to a single run is itself the
    contract being checked.
    """
    expected = kernel._run_single(tensors)
    actual = kernel.run_sharded(
        tensors, executor=executor, shards=shards, split_attr=split_attr
    )
    semiring = kernel.ops.semiring
    if not hasattr(expected, "to_dict"):
        return semiring.eq(expected, actual)
    if expected.dims != actual.dims or expected.attrs != actual.attrs:
        return False
    lhs, rhs = expected.to_dict(), actual.to_dict()
    if lhs.keys() != rhs.keys():
        return False
    return all(semiring.eq(lhs[c], rhs[c]) for c in lhs)


def check_supervised_parity(kernel, tensors: Any) -> bool:
    """A supervised run equals the in-process oracle, value for value.

    Supervision only relocates execution — same compiled artifact, same
    inputs, a child process instead of the host — so the result must be
    *identical*, not merely tolerance-close: the output crosses the
    pipe as the very arrays the child assembled.  The same holds for
    the circuit breaker's pure-Python fallback by PR 1's cross-backend
    parity, so this checker is the supervised leg of that argument.
    """
    expected = kernel._run_single(tensors)
    actual = kernel.run(tensors, parallel=False, supervised=True)
    semiring = kernel.ops.semiring
    if not hasattr(expected, "to_dict"):
        return semiring.eq(expected, actual)
    if expected.dims != actual.dims or expected.attrs != actual.attrs:
        return False
    lhs, rhs = expected.to_dict(), actual.to_dict()
    if lhs.keys() != rhs.keys():
        return False
    return all(semiring.eq(lhs[c], rhs[c]) for c in lhs)


def _prune(value: Any, semiring: Semiring) -> Any:
    """Drop zero leaves and empty sub-dicts for structural comparison."""
    if not isinstance(value, dict):
        return value
    out = {}
    for k, v in value.items():
        pv = _prune(v, semiring)
        if isinstance(pv, dict):
            if pv:
                out[k] = pv
        elif not semiring.is_zero(pv):
            out[k] = pv
    return out
