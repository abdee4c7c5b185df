"""C code generation for the imperative IR **P** (Figure 2's output).

Emits a single self-contained kernel function; arrays become typed
pointers and scalar parameters ``int64_t`` values.  Compiled with
``gcc -O3`` into a shared object and invoked through ctypes — the same
pipeline shape as the paper's Lean → C → Clang -O3 evaluation.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from ctypes import CDLL, POINTER, c_bool, c_double, c_int64
from typing import Dict, List, Sequence, Set

import numpy as np

from repro import config
from repro.compiler import resilience
from repro.compiler.analysis.dataflow import stmt_exprs, subexprs, substatements
from repro.compiler.cache import default_cache_dir
from repro.compiler.formats import Param
from repro.compiler.resilience import logger
from repro.errors import BackendUnavailableError, CacheCorruptionError, CompileError
from repro.compiler.ir import (
    E,
    fold,
    EAccess,
    EBinop,
    ECall,
    ECond,
    ELit,
    EUnop,
    EVar,
    P,
    PAssign,
    PComment,
    PIf,
    PSearch,
    PSeq,
    PSkip,
    PSort,
    PStore,
    PWhile,
    TBOOL,
    TFLOAT,
    TINT,
    c_type,
    eand,
)

_CTYPES = {TINT: c_int64, TFLOAT: c_double, TBOOL: c_bool}
_NP_DTYPES = {TINT: np.int64, TFLOAT: np.float64, TBOOL: np.bool_}


def np_dtype(t: str):
    return _NP_DTYPES[t]


def emit_expr(e: E) -> str:
    return _emit_expr(fold(e))


def _emit_expr(e: E) -> str:
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, ELit):
        if e.type == TBOOL:
            return "true" if e.value else "false"
        if e.type == TFLOAT:
            if math.isinf(e.value):
                return "INFINITY" if e.value > 0 else "-INFINITY"
            return repr(float(e.value))
        return str(int(e.value))
    if isinstance(e, EAccess):
        return f"{e.array}[{_emit_expr(e.index)}]"
    if isinstance(e, EBinop):
        a, b = _emit_expr(e.left), _emit_expr(e.right)
        if e.op == "min":
            return f"(({a}) < ({b}) ? ({a}) : ({b}))"
        if e.op == "max":
            return f"(({a}) > ({b}) ? ({a}) : ({b}))"
        return f"({a} {e.op} {b})"
    if isinstance(e, EUnop):
        return f"({e.op}{_emit_expr(e.operand)})"
    if isinstance(e, ECond):
        return f"({_emit_expr(e.cond)} ? {_emit_expr(e.then)} : {_emit_expr(e.els)})"
    if isinstance(e, ECall):
        return e.op.c_expr(*[_emit_expr(a) for a in e.args])
    raise TypeError(f"cannot emit expression {e!r}")


def emit_stmt(p: P, indent: int = 1) -> str:
    pad = "  " * indent
    if isinstance(p, PSkip):
        return ""
    if isinstance(p, PSeq):
        return "\n".join(s for s in (emit_stmt(x, indent) for x in p.items) if s)
    if isinstance(p, PAssign):
        return f"{pad}{p.var.name} = {emit_expr(p.expr)};"
    if isinstance(p, PStore):
        return f"{pad}{p.array}[{emit_expr(p.index)}] = {emit_expr(p.expr)};"
    if isinstance(p, PWhile):
        body = emit_stmt(p.body, indent + 1)
        return f"{pad}while ({emit_expr(p.cond)}) {{\n{body}\n{pad}}}"
    if isinstance(p, PIf):
        out = f"{pad}if ({emit_expr(p.cond)}) {{\n{emit_stmt(p.then, indent + 1)}\n{pad}}}"
        if p.els is not None and not isinstance(p.els, PSkip):
            out += f" else {{\n{emit_stmt(p.els, indent + 1)}\n{pad}}}"
        return out
    if isinstance(p, PComment):
        return f"{pad}/* {p.text} */"
    if isinstance(p, PSearch):
        if p.strategy == "linear":
            # the specification read as a scan: Figure 2's merge loops
            return emit_stmt(PWhile(
                eand(EBinop("<", p.var, p.hi, TBOOL),
                     EBinop("<", EAccess(p.array, p.var, TINT), p.target, TBOOL)),
                PAssign(p.var, EBinop("+", p.var, ELit(1, TINT), TINT)),
            ), indent)
        q = p.var.name
        return (f"{pad}{q} = _skip_gal({p.array}, {q}, {emit_expr(p.hi)}, "
                f"{emit_expr(p.target)});")
    if isinstance(p, PSort):
        n = emit_expr(p.count)
        return f"{pad}_sort_i64({p.array}, {n}, {p.array} + {n});"
    raise TypeError(f"cannot emit statement {p!r}")


# The two hand-written helpers, emitted — like an ``Op``'s ``c_header``
# — once per file and only into kernels that use them.

#: a binary ``PSearch``: gallop from ``q`` in doubling steps while the
#: probe is below ``t``, then bisect the last step; always inlined, so a
#: call costs what the pasted loops did
_SKIP_GAL = """static inline __attribute__((always_inline)) int64_t _skip_gal(const int64_t* crd, int64_t q, int64_t hi, int64_t t) {
  if (q < hi && crd[q] < t) {
    int64_t step = 1;
    while (q + step < hi && crd[q + step] < t) {
      q += step;
      step *= 2;
    }
    if (q + step < hi) hi = q + step;
    q++;
    while (q < hi) {
      int64_t mid = (q + hi) / 2;
      if (crd[mid] < t) q = mid + 1; else hi = mid;
    }
  }
  return q;
}"""

#: ``PSort``: insertion sort for short lists, else LSD radix sort, 8
#: bits per pass through ``tmp`` (the array's upper half) and back.
#: The keys are non-negative
#: (the precondition), so the passes stop at the highest set byte of
#: their OR: coordinates below 65,536 take two.  Built at -O2: nothing
#: here vectorises, and -O3's attempt is half of what the helper costs gcc
_SORT_I64 = """static __attribute__((optimize("O2"))) void _sort_i64(int64_t* a, int64_t n, int64_t* tmp) {
  int64_t i, j, x, all = 0;
  if (n <= 24) {
    for (i = 1; i < n; a[j] = x, i++)
      for (x = a[i], j = i; j > 0 && a[j - 1] > x; j--) a[j] = a[j - 1];
    return;
  }
  for (i = 0; i < n; i++) all |= a[i];
  for (int s = 0; s < 64 && all >> s; s += 8) {
    int64_t at[257] = {0};
    for (i = 0; i < n; i++) at[(a[i] >> s & 255) + 1]++;
    for (i = 1; i < 256; i++) at[i] += at[i - 1];
    for (i = 0; i < n; i++) tmp[at[a[i] >> s & 255]++] = a[i];
    for (i = 0; i < n; i++) a[i] = tmp[i];
  }
}"""


#: an ``Op``'s ``c_expr``/``c_header`` is C text from outside the
#: compiler: a kernel that calls one includes what every kernel used to
_OP_INCLUDES = ("math.h", "stdlib.h", "string.h")


def _collect_prelude(p: P, includes: Set[str], helpers: Dict[str, str]) -> None:
    """What ``p`` needs ahead of the kernel function: ``<math.h>`` for
    an infinite literal (``INFINITY``), the helper a ``PSort`` or a
    galloping ``PSearch`` calls, and for a user ``Op`` its ``c_header``
    and :data:`_OP_INCLUDES`."""

    def walk_e(e: E) -> None:
        if isinstance(e, ELit):
            if e.type == TFLOAT and math.isinf(e.value):
                includes.add("math.h")
        elif isinstance(e, ECall):
            includes.update(_OP_INCLUDES)
            if e.op.c_header:
                helpers[e.op.name] = e.op.c_header
        for x in subexprs(e):
            walk_e(x)

    for e in stmt_exprs(p):
        walk_e(e)
    for sub in substatements(p):
        _collect_prelude(sub, includes, helpers)
    if isinstance(p, PSort):
        helpers["_sort_i64"] = _SORT_I64
    elif isinstance(p, PSearch) and p.strategy == "binary":
        helpers["_skip_gal"] = _SKIP_GAL


def emit_kernel_source(
    name: str,
    params: Sequence[Param],
    decls: Sequence[EVar],
    body: P,
) -> str:
    """The full C translation unit for one kernel; a header or helper
    is included only if a statement of ``body`` needs it."""
    includes: Set[str] = set()
    helpers: Dict[str, str] = {}
    _collect_prelude(body, includes, helpers)
    sig_parts = []
    for param in params:
        if param.kind == "array":
            sig_parts.append(f"{c_type(param.ctype)}* {param.name}")
        else:
            sig_parts.append(f"{c_type(param.ctype)} {param.name}")
    function = "\n".join(
        [f"void {name}({', '.join(sig_parts)}) {{"]
        + [f"  {c_type(v.type)} {v.name} = 0;" for v in decls]
        + [emit_stmt(body), "}"]
    )
    include_lines = "\n".join(
        f"#include <{h}>" for h in ["stdint.h", "stdbool.h", *sorted(includes)]
    )
    return "\n\n".join([include_lines, *helpers.values(), function]) + "\n"


class CKernel:
    """A compiled C kernel, callable with numpy arrays."""

    def __init__(self, source: str, name: str, params: Sequence[Param], cache_dir: str | None = None) -> None:
        self.source = source
        self.name = name
        self.params = list(params)
        self._lib = _build(source, name, cache_dir)
        self._fn = getattr(self._lib, name)
        # precomputed marshal plan: (name, is_array, value ctor, pointer type)
        self._plan = [
            (
                p.name,
                p.kind == "array",
                _CTYPES[p.ctype],
                POINTER(_CTYPES[p.ctype]) if p.kind == "array" else None,
            )
            for p in self.params
        ]
        self._fn.argtypes = [
            ptr if is_arr else ctor for _, is_arr, ctor, ptr in self._plan
        ]
        self._fn.restype = None

    def __call__(self, env: Dict[str, object]) -> None:
        """Invoke with ``env`` mapping parameter names to numpy arrays /
        Python scalars.  Arrays are used in place (must be contiguous
        and correctly typed; the kernel builder guarantees this)."""
        self._fn(
            *(
                env[name].ctypes.data_as(ptr) if is_arr else ctor(env[name])
                for name, is_arr, ctor, ptr in self._plan
            )
        )


_CACHE: Dict[str, CDLL] = {}


def _sanitizer_flags() -> List[str]:
    """Compiler flags for the requested ``REPRO_SANITIZE`` modes.

    ``address`` instruments heap/stack accesses (loading the resulting
    shared object into an uninstrumented Python needs
    ``LD_PRELOAD=libasan.so`` — see the CI sanitize job); ``undefined``
    aborts on signed overflow, bad shifts, and friends instead of
    recovering silently."""
    flags: List[str] = []
    for mode in config.get("REPRO_SANITIZE"):
        if mode == "address":
            flags += ["-fsanitize=address", "-fno-omit-frame-pointer"]
        elif mode == "undefined":
            flags += ["-fsanitize=undefined", "-fno-sanitize-recover=undefined"]
    return flags


def _compile(source: str, c_path: str, so_path: str) -> None:
    """Run the C toolchain: atomic source/artifact publication, probe
    for a missing compiler, configurable timeout, one retry on
    transient failures, stderr attached to the raised error."""
    cc = config.get("REPRO_GCC")
    if shutil.which(cc) is None:
        raise BackendUnavailableError("c", f"compiler {cc!r} not found on PATH")
    resilience.atomic_write_text(c_path, source)
    # compile into a temp name and publish with os.replace so a
    # concurrent (or crashed) builder never exposes a truncated .so
    tmp_so = f"{so_path}.build{os.getpid()}"
    cmd = [cc, "-O3", "-march=native", "-shared", "-fPIC", *_sanitizer_flags(),
           c_path, "-o", tmp_so, "-lm"]
    timeout = config.get("REPRO_GCC_TIMEOUT")
    last_error: CompileError | None = None
    seen_signals: set[int] = set()
    repeated_kill = False
    try:
        for attempt in (1, 2):
            try:
                proc = subprocess.run(cmd, capture_output=True, timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                stderr = exc.stderr.decode(errors="replace") if exc.stderr else None
                raise CompileError(
                    f"{cc} timed out after {timeout:.1f}s compiling {c_path}",
                    command=cmd, stderr=stderr, timeout=True,
                ) from exc
            except OSError as exc:  # vanished mid-run, exec failure, ...
                last_error = CompileError(f"could not invoke {cc}: {exc}", command=cmd)
                logger.warning("compiler invocation failed (%s); attempt %d", exc, attempt)
                continue
            if proc.returncode == 0:
                os.replace(tmp_so, so_path)
                return
            stderr = proc.stderr.decode(errors="replace")
            if proc.returncode < 0:
                signame = resilience.signal_name(-proc.returncode)
                last_error = CompileError(
                    f"{cc} was killed by {signame}",
                    command=cmd, returncode=proc.returncode, stderr=stderr,
                )
            else:
                last_error = CompileError(
                    f"{cc} exited with status {proc.returncode}",
                    command=cmd, returncode=proc.returncode, stderr=stderr,
                )
            if not resilience.is_transient(proc.returncode, seen_signals):
                repeated_kill = (
                    proc.returncode < 0 and -proc.returncode in seen_signals
                )
                break
            seen_signals.add(-proc.returncode)
            logger.warning(
                "transient compiler failure (killed by %s) on attempt %d; "
                "retrying once",
                resilience.signal_name(-proc.returncode), attempt,
            )
        assert last_error is not None
        if repeated_kill and last_error.signal is not None:
            # the retry died by the same signal: deterministic, not
            # transient — tell the operator what to do about it
            hint = (
                "likely the OOM killer — reduce concurrent builds, raise the "
                "memory limit, or set REPRO_BACKEND_FALLBACK=1 to use the "
                "Python backend"
                if last_error.signal_name == "SIGKILL"
                else "an external supervisor is killing the toolchain; check "
                "resource limits and container policies"
            )
            raise CompileError(
                f"{cc} was killed by {last_error.signal_name} twice in a row; "
                f"not retrying further ({hint})",
                command=cmd,
                returncode=last_error.returncode,
                stderr=last_error.stderr,
            )
        raise last_error
    finally:
        if os.path.exists(tmp_so):
            try:
                os.unlink(tmp_so)
            except OSError:
                pass


def _build(source: str, name: str, cache_dir: str | None = None) -> CDLL:
    # the sanitizer flags are part of the artifact identity: a build
    # with REPRO_SANITIZE set must never reuse an uninstrumented .so
    # (or vice versa).  Unsanitized builds keep the plain source hash
    # so existing cached artifacts stay valid.
    tag = ",".join(config.get("REPRO_SANITIZE"))
    keyed = f"sanitize={tag}\x00{source}" if tag else source
    key = hashlib.sha256(keyed.encode()).hexdigest()[:16]
    if key in _CACHE:
        return _CACHE[key]
    cache_dir = resilience.usable_cache_dir(cache_dir or str(default_cache_dir()))
    c_path = os.path.join(cache_dir, f"{name}_{key}.c")
    so_path = os.path.join(cache_dir, f"{name}_{key}.so")
    if not os.path.exists(so_path):
        # per-key lock: two processes building the same kernel compile
        # once (or harmlessly twice on lock failure — publication is
        # atomic either way)
        with resilience.file_lock(so_path):
            if not os.path.exists(so_path):
                _compile(source, c_path, so_path)
    try:
        lib = CDLL(so_path)
    except OSError as exc:
        # truncated or clobbered .so from a crashed writer: quarantine
        # the bad artifact and rebuild (in a scratch dir if the cache
        # dir is not writable)
        logger.warning(
            "cached shared object %s failed to load (%s); rebuilding", so_path, exc
        )
        if resilience.quarantine(so_path) is None:
            scratch = tempfile.mkdtemp(prefix="repro_so_")
            c_path = os.path.join(scratch, f"{name}_{key}.c")
            so_path = os.path.join(scratch, f"{name}_{key}.so")
        with resilience.file_lock(so_path):
            if not os.path.exists(so_path):
                _compile(source, c_path, so_path)
        try:
            lib = CDLL(so_path)
        except OSError as exc2:
            raise CacheCorruptionError(
                f"shared object {so_path} unloadable even after rebuild: {exc2}",
                path=so_path,
            ) from exc2
    _CACHE[key] = lib
    return lib
