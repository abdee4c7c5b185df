"""Every ``REPRO_*`` environment variable, as one table.

:data:`KNOBS` has one :class:`Knob` row per variable; :func:`get` is
the only reader.  It reads ``os.environ`` at call time — tests, CI jobs
and pool workers change the environment under a running process, so a
value is never cached — parses by the row's ``kind`` and applies one
invalid-value policy: log a warning naming the variable and use the
default (a typo must not take down a library call), or raise
:class:`~repro.errors.ConfigError` when the row is ``strict`` (the
``REPRO_SERVE_*`` family: a server that boots read its configuration
the way the operator wrote it) or ``REPRO_STRICT_ENV`` is set.

``python -m repro.config`` prints the table as README's "Environment
variables" section has it; a tier-1 test holds the two equal.
DESIGN.md ("Configuration") has the schema and the reasons.
"""

from __future__ import annotations

import logging
import os
from typing import Mapping, NamedTuple, Optional, Tuple

from repro.errors import ConfigError

#: the spellings of "off" every flag (and ``zero`` row) accepts
FALSEY = ("0", "off", "no", "false")
#: shard executors of :mod:`repro.runtime` (``REPRO_PARALLEL``)
EXECUTORS = ("serial", "thread", "pool")


class Knob(NamedTuple):
    """One environment variable.

    Unset or blank always reads as ``default``; values are stripped
    (and, except ``str``, lower-cased) before parsing.
    """

    name: str
    #: ``flag`` (a :data:`FALSEY` word → False, anything else → True;
    #: never invalid) | ``int`` | ``float`` | ``str`` | ``choice`` (one
    #: of ``choices``, or a key of ``aliases``) | ``list``
    #: (comma-separated subset of ``choices`` as a sorted tuple; a
    #: FALSEY word → ``()``; lenient reads drop the unknown entries)
    kind: str
    default: object
    #: README's "effect" cell
    doc: str
    #: README's "default" cell when ``default`` does not say it
    shown: Optional[str] = None
    #: smallest valid number
    minimum: Optional[float] = None
    choices: Tuple[str, ...] = ()
    #: further accepted spellings of a choice → the value they mean
    aliases: Mapping[str, object] = {}
    #: numbers only: what ``0`` (or a FALSEY word) means when it is not
    #: a quantity — ``"default"`` or ``"none"`` (the feature is off)
    zero: str = ""
    #: invalid values always raise, whatever ``REPRO_STRICT_ENV`` says
    strict: bool = False


_ROWS = (
    Knob("REPRO_KERNEL_CACHE_DIR", "str", None,
         "directory for the disk cache tiers (`.c`/`.so` artifacts + JSON "
         "build payloads); unusable values fall back to the temp dir with a "
         "warning", shown="`$TMPDIR/repro_kernels`"),
    Knob("REPRO_KERNEL_CACHE", "flag", True,
         "`0`/`off`/`no`/`false` disables the on-disk cache tier (the "
         "in-memory memo is per-builder: `KernelBuilder(cache=False)`)"),
    Knob("REPRO_BACKEND_FALLBACK", "flag", True,
         "`0` makes a failed C build raise (`BackendUnavailableError`/"
         "`CompileError`) instead of downgrading to the Python backend"),
    Knob("REPRO_GCC", "str", "gcc",
         "C compiler binary to invoke (also the fault-injection hook)"),
    Knob("REPRO_GCC_TIMEOUT", "float", 120.0,
         "wall-clock seconds allowed per compiler invocation before "
         "`CompileError(timeout=True)`", minimum=0.0, zero="default"),
    Knob("REPRO_MAX_CAPACITY", "int", None,
         "global ceiling for `run(auto_grow=True)` capacity doubling",
         shown="output's dense size", minimum=1),
    Knob("REPRO_IR_VERIFY", "flag", False,
         "re-run the typed IR verifier after every optimizer pass on every "
         "kernel build; violations raise `IRVerifyError` naming the "
         "offending pass, statement, and invariant"),
    Knob("REPRO_STREAM_VERIFY", "flag", True,
         "`0` disables the static stream-property verifier that "
         "`KernelBuilder.prepare` runs before lowering (monotonicity, "
         "termination, ⊕-law obligations — violations raise "
         "`StreamPropertyError` with blame records; `python -m repro.lint` "
         "runs the same pass over the examples/ and TPC-H pipelines)"),
    Knob("REPRO_SANITIZE", "list", (),
         "comma-separated subset of `address,undefined`: adds the matching "
         "`-fsanitize=` flags to C builds and switches the Python backend to "
         "the checked emitter that bounds-verifies every array subscript "
         "(`python -m repro.compiler.analysis <kernel>` prints the static "
         "verification/lint report)", choices=("address", "undefined")),
    Knob("REPRO_PARALLEL", "choice", None,
         "default executor for every `Kernel.run`: `serial` (the oracle: "
         "shards inline) \\| `thread` (fastest for C kernels) \\| `pool` "
         "(resident workers; the one for Python-backend kernels) — runs "
         "route through the sharded runtime (`Kernel.run_sharded`); "
         "`run(parallel=False)` opts a single call out",
         shown="off", choices=EXECUTORS, aliases=dict.fromkeys(FALSEY)),
    Knob("REPRO_WORKERS", "int", None,
         "worker count and default shard count for the parallel runtime; an "
         "operator's cap — it outranks a `workers=` argument",
         shown="CPU count", minimum=1),
    Knob("REPRO_MP_START", "choice", "fork",
         "multiprocessing start method for pool workers "
         "(`fork`/`spawn`/`forkserver`): a forked worker is born with the "
         "parent's imports, in-memory kernels and loaded `.so`s; a platform "
         "without `fork` spawns",
         choices=("spawn", "fork", "forkserver")),
    Knob("REPRO_SUPERVISE", "flag", None,
         "`1` runs every kernel invocation in a resource-capped child "
         "(crashes become typed `KernelCrashError`/`KernelTimeoutError`); "
         "`0` disables even the auto policy (C kernels flagged `needs_guard` "
         "supervise themselves by default)", shown="auto"),
    Knob("REPRO_KERNEL_DEADLINE", "float", 60.0,
         "wall-clock seconds a supervised kernel may run before the parent "
         "kills it (`KernelTimeoutError`); also derives the child's "
         "`RLIMIT_CPU` backstop", minimum=0.0, zero="default"),
    Knob("REPRO_KERNEL_MEM_MB", "int", None,
         "address-space cap (`RLIMIT_AS`, MiB) for supervised children — an "
         "allocation blow-up dies in the child, not the host",
         shown="unlimited", minimum=1),
    Knob("REPRO_POOL", "flag", None,
         "`1` routes supervised runs through the persistent worker pool: "
         "kernels stay resident in pre-warmed workers, operands/results "
         "travel over shared memory, and the sandbox cost (process start, "
         "rlimits, kernel load) is paid once per worker instead of per call; "
         "`0` forks a fresh child per call; unset, a process that already "
         "owns an open pool (the server, a `pool`-executor job) uses it and "
         "any other forks", shown="auto"),
    Knob("REPRO_POOL_WORKERS", "int", None,
         "size of the persistent worker pool (the `pool` executor, the "
         "server's workers, pooled supervised runs)",
         shown="`REPRO_WORKERS`", minimum=1),
    Knob("REPRO_POOL_IDLE_TTL", "float", 300.0,
         "seconds a pool worker may sit idle before eviction (one worker "
         "always stays warm); `0`/`off` disables eviction",
         minimum=0.0, zero="none"),
    Knob("REPRO_SHM_THRESHOLD", "int", 16384,
         "minimum tensor size (bytes) for shared-memory transport — smaller "
         "operands/results pickle faster than they map. An operand at or "
         "above it is *moved* on its first pooled call: its `vals`/`pos`/"
         "`crd` become read-only views of the segment, the heap copies are "
         "dropped, and it stays resident once (`0` moves everything)",
         minimum=0),
    Knob("REPRO_BREAKER_THRESHOLD", "int", 3,
         "consecutive supervised crashes/timeouts before the circuit breaker "
         "opens and `run` serves the pure-Python fallback", minimum=1),
    Knob("REPRO_BREAKER_BACKOFF", "float", 30.0,
         "base seconds before an open breaker re-probes the native kernel "
         "(doubles per failed probe, jittered, capped at 10 min)",
         minimum=0.0),
    Knob("REPRO_DURABLE", "flag", False,
         "`1` makes every `run_sharded` call durable by default: each "
         "completed shard partial is journaled (checksummed, atomic, "
         "flocked), and a relaunch of the same job adopts journaled shards "
         "instead of re-executing them"),
    Knob("REPRO_JOB_DIR", "str", None,
         "directory job journals live under; shared across processes/"
         "restarts — same operands + plan + kernel ⇒ same job id ⇒ resumable",
         shown="`<kernel cache dir>/jobs`"),
    Knob("REPRO_MEM_BUDGET_MB", "float", None,
         "memory governor budget for sharded partials: residents past the "
         "budget spill to the journal and the merge becomes a streaming "
         "⊕-fold (bit-identical to the eager merge)",
         shown="unlimited", minimum=0.0, zero="none"),
    Knob("REPRO_FAULT", "str", None,
         "consolidated fault-injection hook: `<site>[:raise\\|sigkill[:n]]` "
         "fires a typed `InjectedFault` or a real SIGKILL at a named site "
         "(`shard`, `merge`, `supervised_child`) on the n-th hit — the chaos "
         "suite's crash lever", shown="off"),
    Knob("REPRO_STRICT_LOCKS", "flag", False,
         "`1` turns a build-lock timeout into a typed `LockTimeoutError` "
         "instead of the default warn-and-continue"),
    Knob("REPRO_STRICT_ENV", "flag", False,
         "`1` makes a malformed `REPRO_*` value raise a typed `ConfigError` "
         "naming the variable instead of the default warn-and-use-default"),
    Knob("REPRO_SERVE_HOST", "str", "127.0.0.1",
         "bind address of the query server", strict=True),
    Knob("REPRO_SERVE_PORT", "int", 8774,
         "bind port (`0` picks a free port, announced via the "
         "`REPRO_SERVE_READY` line)", minimum=0, strict=True),
    Knob("REPRO_SERVE_DEADLINE", "float", 30.0,
         "server-side ceiling (seconds) on every request budget; a client "
         "`deadline_ms` can only shrink it — exhaustion is `504` + "
         "`Retry-After`", minimum=0.001, strict=True),
    Knob("REPRO_SERVE_MAX_INFLIGHT", "int", 32,
         "concurrent admitted requests before new ones are shed with `429`",
         minimum=1, strict=True),
    Knob("REPRO_SERVE_QPS", "float", 0.0,
         "token-bucket admission rate; excess load is shed with `429` + "
         "`Retry-After` (the bucket's own refill time)",
         shown="off", minimum=0.0, strict=True),
    Knob("REPRO_SERVE_BURST", "int", 0,
         "token-bucket burst size", shown="`2·qps`", minimum=0, strict=True),
    Knob("REPRO_SERVE_RETRIES", "int", 2,
         "replay budget for *transient* failures (`Retryable` taxonomy; "
         "crashes replay at most once, deterministic errors never)",
         minimum=0, strict=True),
    Knob("REPRO_SERVE_RETRY_BASE", "float", 0.05,
         "base seconds for full-jitter exponential retry backoff",
         minimum=0.0, strict=True),
    Knob("REPRO_SERVE_BATCH_WINDOW", "float", 0.0,
         "micro-batching: compatible queries (same kernel + capacity) "
         "arriving within the window (seconds) fold into one "
         "`Kernel.run_batch` call", shown="off", minimum=0.0, strict=True),
    Knob("REPRO_SERVE_BATCH_MAX", "int", 16,
         "most queries folded into one micro-batch", minimum=1, strict=True),
    Knob("REPRO_SERVE_DEGRADE", "choice", "reject",
         "what admission does with an open-breaker kernel or an over-budget "
         "footprint: `reject` → `503` + `Retry-After` (the breaker's "
         "re-probe ETA / the governor's hint); `fallback` → admit onto the "
         "pure-Python twin; `spill` → admit over-budget queries with "
         "durability forced on, so the memory governor spills partials "
         "instead of shedding",
         choices=("reject", "fallback", "spill"), strict=True),
    Knob("REPRO_SERVE_DRAIN", "float", 10.0,
         "seconds SIGTERM waits for in-flight requests before cancelling "
         "them with partial-result markers", minimum=0.0, strict=True),
    Knob("REPRO_SERVE_WRITE_TIMEOUT", "float", 5.0,
         "per-chunk client write budget; a stalled reader is disconnected "
         "instead of parking a worker", minimum=0.1, strict=True),
    Knob("REPRO_SERVE_WORKERS", "int", 8,
         "executor threads running (blocking) kernel dispatch",
         minimum=1, strict=True),
    Knob("REPRO_SERVE_MAX_BODY", "int", 8 * 1024 * 1024,
         "request-body ceiling in bytes (8 MiB; `413` past it)",
         minimum=1024, strict=True),
    Knob("REPRO_SERVE_STREAM_THRESHOLD", "int", 4096,
         "result entries above which the response switches to chunked "
         "NDJSON streaming", minimum=1, strict=True),
    Knob("REPRO_TUNE", "choice", None,
         "`auto` routes open-knob builds through the `repro.autotune` "
         "planner (cost-model-chosen ordering, output formats, search, "
         "executor); `off` is bit-for-bit the untuned serial semantics — the "
         "server consults the tuner at admission and surfaces the verdict in "
         "`meta.tune` (full payload under `\"explain\": true`)",
         shown="off (library) / `auto` (server)", choices=("off", "auto"),
         aliases={"0": "off", "no": "off", "false": "off",
                  "1": "auto", "on": "auto", "true": "auto", "yes": "auto"}),
    Knob("REPRO_TUNE_CACHE_DIR", "str", None,
         "directory for persisted tuning state: the calibration profile "
         "(written by an explicit `calibrate()`) and per-signature decision "
         "records (checksummed, flocked, quarantined on corruption)",
         shown="kernel cache dir"),
    Knob("REPRO_BENCH_RECORD", "flag", False,
         "`1` lets `benchmarks/` and the serve load test write their "
         "`BENCH_*.json` reports at the repo root; otherwise reports land in "
         "a temp directory (CI artifacts stay out of the working tree)"),
)

#: variable name → its row, in README order
KNOBS = {row.name: row for row in _ROWS}


def _invalid(row: Knob, raw: str, reason: str, fallback):
    """The one invalid-value policy: raise when strict, else warn and
    use ``fallback`` (``REPRO_STRICT_ENV`` is read only here)."""
    if row.strict or get("REPRO_STRICT_ENV"):
        raise ConfigError(row.name, raw, reason)
    logging.getLogger("repro").warning(
        "ignoring invalid %s=%r (%s); using %r", row.name, raw, reason,
        fallback)
    return fallback


def _number(row: Knob, raw: str, text: str):
    if row.zero and text in FALSEY:
        value = 0
    else:
        try:
            value = int(text) if row.kind == "int" else float(text)
        except ValueError:
            reason = "not an integer" if row.kind == "int" else "non-numeric"
            return _invalid(row, raw, reason, row.default)
    if row.zero and value == 0:
        return row.default if row.zero == "default" else None
    if row.minimum is not None and value < row.minimum:
        return _invalid(row, raw, f"must be >= {row.minimum}", row.default)
    return value


def get(name: str):
    """The current value of ``name`` (KeyError for a variable the table
    does not have: a misspelt name must not read as "unset")."""
    row = KNOBS[name]
    raw = os.environ.get(name)
    if raw is None:
        return row.default
    text = raw.strip()
    if not text:
        return row.default
    kind = row.kind
    if kind == "str":
        return text
    text = text.lower()
    if kind == "flag":
        return text not in FALSEY
    if kind == "choice":
        if text in row.choices:
            return text
        if text in row.aliases:
            return row.aliases[text]
        return _invalid(
            row, raw, f"expected one of {', '.join(row.choices)}", row.default)
    if kind == "list":
        if text in FALSEY:
            return ()
        parts = {p.strip() for p in text.split(",")} - {""}
        # canonical (sorted) so equivalent spellings share cache keys
        known = tuple(sorted(parts.intersection(row.choices)))
        if len(known) < len(parts):
            return _invalid(
                row, raw, f"known entries: {', '.join(row.choices)}", known)
        return known
    return _number(row, raw, text)


def readme_table() -> str:
    """The table as README's markdown, one row per variable."""
    lines = ["| variable | default | effect |",
             "|----------|---------|--------|"]
    for row in _ROWS:
        shown = row.shown
        if shown is None:
            d = row.default
            if row.kind == "flag":
                shown = "`1`" if d else "off"
            elif row.kind == "list":
                shown = "off"
            else:
                shown = f"`{d:g}`" if isinstance(d, float) else f"`{d}`"
        lines.append(f"| `{row.name}` | {shown} | {row.doc} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(readme_table())
