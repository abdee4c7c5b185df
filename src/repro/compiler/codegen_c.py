"""C code generation for the imperative IR **P** (Figure 2's output).

Emits one kernel function per translation unit; arrays become typed
pointers (a ``crd`` at the width its tensor stores) and scalar
parameters ``int64_t`` values.  Compiled with
``gcc -O3`` into a shared object and invoked through ctypes — the same
pipeline shape as the paper's Lean → C → Clang -O3 evaluation.  A
kernel that sorts calls ``_sort_i64`` from the runtime, a second shared
object built once per cache directory beside it (:func:`_start`).

:func:`start` launches gcc and returns at once; its join waits for the
run.  At most :data:`IN_FLIGHT` gccs run at a time, and the toolchain
is started in one place, :class:`_Gcc` (DESIGN.md "Builds in flight").
"""

from __future__ import annotations

import _ctypes
import atexit
import contextlib
import functools
import hashlib
import math
import os
import re
import select
import shutil
import subprocess
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from ctypes import CDLL, c_bool, c_double, c_int32, c_int64, c_void_p
from typing import Callable, Dict, List, Mapping, Sequence, Set, Tuple

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
    TI32,
    TINT,
    c_type,
    eand,
)

# a Param's element type: an IR type, or a 32-bit crd (TI32)
_CTYPES = {TINT: c_int64, TI32: c_int32, TFLOAT: c_double, TBOOL: c_bool}
_NP_DTYPES = {TINT: np.int64, TI32: np.int32, TFLOAT: np.float64, TBOOL: np.bool_}
_C_NAMES = {TI32: "int32_t"}


def np_dtype(t: str):
    return _NP_DTYPES[t]


def c_name(t: str) -> str:
    """The C spelling of a ``Param``'s element type."""
    return _C_NAMES.get(t) or c_type(t)


def _gallop(t: str) -> str:
    """The skip helper for a ``crd`` of element type ``t``."""
    return f"_gallop{8 * np.dtype(_NP_DTYPES[t]).itemsize}"


def emit_expr(e: E, widths: Mapping[str, str] = {}) -> str:
    """``e`` as C; ``widths`` maps an array parameter to its element
    type, for the loads that are narrower than the ``TINT`` they are."""
    return _emit_expr(fold(e), widths)


def _emit_expr(e: E, widths: Mapping[str, str]) -> str:
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
        return f"{e.array}[{_emit_expr(e.index, widths)}]"
    if isinstance(e, EBinop):
        a, b = _emit_expr(e.left, widths), _emit_expr(e.right, widths)
        if e.op == "min":
            return f"(({a}) < ({b}) ? ({a}) : ({b}))"
        if e.op == "max":
            return f"(({a}) > ({b}) ? ({a}) : ({b}))"
        return f"({a} {e.op} {b})"
    if isinstance(e, EUnop):
        return f"({e.op}{_emit_expr(e.operand, widths)})"
    if isinstance(e, ECond):
        c, a, b = (_emit_expr(x, widths) for x in (e.cond, e.then, e.els))
        return f"({c} ? {a} : {b})"
    if isinstance(e, ECall):
        # an Op takes the type it declares: a 32-bit crd load widens
        return e.op.c_expr(*[
            f"({c_type(t)}){_emit_expr(a, widths)}"
            if isinstance(a, EAccess) and widths.get(a.array) == TI32
            else _emit_expr(a, widths)
            for a, t in zip(e.args, e.op.arg_types)
        ])
    raise TypeError(f"cannot emit expression {e!r}")


def emit_stmt(p: P, indent: int = 1, widths: Mapping[str, str] = {}) -> str:
    """``p`` as C; ``widths`` as for :func:`emit_expr` (a binary
    ``PSearch`` skips through its ``crd`` at that width)."""
    pad = "  " * indent
    if isinstance(p, PSkip):
        return ""
    if isinstance(p, PSeq):
        return "\n".join(s for s in (emit_stmt(x, indent, widths) for x in p.items) if s)
    if isinstance(p, PAssign):
        return f"{pad}{p.var.name} = {emit_expr(p.expr, widths)};"
    if isinstance(p, PStore):
        return f"{pad}{p.array}[{emit_expr(p.index, widths)}] = {emit_expr(p.expr, widths)};"
    if isinstance(p, PWhile):
        body = emit_stmt(p.body, indent + 1, widths)
        return f"{pad}while ({emit_expr(p.cond, widths)}) {{\n{body}\n{pad}}}"
    if isinstance(p, PIf):
        then = emit_stmt(p.then, indent + 1, widths)
        out = f"{pad}if ({emit_expr(p.cond, widths)}) {{\n{then}\n{pad}}}"
        if p.els is not None and not isinstance(p.els, PSkip):
            out += f" else {{\n{emit_stmt(p.els, indent + 1, widths)}\n{pad}}}"
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
            ), indent, widths)
        q = p.var.name
        return (f"{pad}{q} = {_gallop(widths.get(p.array, TINT))}({p.array}, {q}, "
                f"{emit_expr(p.hi, widths)}, {emit_expr(p.target, widths)});")
    if isinstance(p, PSort):
        n = emit_expr(p.count, widths)
        return f"{pad}_sort_i64({p.array}, {n}, {p.array} + {n});"
    raise TypeError(f"cannot emit statement {p!r}")


# The two hand-written helpers: the skip is emitted — like an ``Op``'s
# ``c_header`` — once per file and only into kernels that use it; a
# kernel that sorts gets the sort's prototype, and links the runtime.

#: a binary ``PSearch``: gallop from ``q`` in doubling steps while the
#: probe is below ``t``, then bisect the last step; always inlined, so a
#: call costs what the pasted loops did.  One per ``crd`` width a kernel
#: skips through, named by :func:`_gallop`
_SKIP_GAL = """static inline __attribute__((always_inline)) int64_t {name}(const {crd}* crd, int64_t q, int64_t hi, int64_t t) {{
  if (q < hi && crd[q] < t) {{
    int64_t step = 1;
    while (q + step < hi && crd[q + step] < t) {{
      q += step;
      step *= 2;
    }}
    if (q + step < hi) hi = q + step;
    q++;
    while (q < hi) {{
      int64_t mid = (q + hi) / 2;
      if (crd[mid] < t) q = mid + 1; else hi = mid;
    }}
  }}
  return q;
}}"""

#: ``PSort``, the runtime's one function: insertion sort for short
#: lists, else LSD radix sort, 8 bits per pass through ``tmp`` (the
#: array's upper half) and back.  The keys are non-negative (the
#: precondition), so the passes stop at the highest set byte of their
#: OR: coordinates below 65,536 take two.  Built at -O2, which
#: vectorises only a loop without a remainder: -O3's attempts on the
#: others are half of what the sort costs gcc.  ``at`` is zeroed by such
#: a loop and one store — ``= {0}`` is a ``memset`` call, and the
#: runtime links no libc; a scalar loop of 257 made sorts up to 1.9×
#: slower
_SORT_I64 = """#include <stdint.h>

void _sort_i64(int64_t* a, int64_t n, int64_t* tmp) {
  int64_t i, j, x, all = 0;
  if (n <= 24) {
    for (i = 1; i < n; a[j] = x, i++)
      for (x = a[i], j = i; j > 0 && a[j - 1] > x; j--) a[j] = a[j - 1];
    return;
  }
  for (i = 0; i < n; i++) all |= a[i];
  for (int s = 0; s < 64 && all >> s; s += 8) {
    int64_t at[257];
    for (i = 0; i < 256; i++) at[i] = 0;
    at[256] = 0;
    for (i = 0; i < n; i++) at[(a[i] >> s & 255) + 1]++;
    for (i = 1; i < 256; i++) at[i] += at[i - 1];
    for (i = 0; i < n; i++) tmp[at[a[i] >> s & 255]++] = a[i];
    for (i = 0; i < n; i++) a[i] = tmp[i];
  }
}
"""

#: what a kernel that sorts holds in place of the sort
_SORT_PROTO = "void _sort_i64(int64_t*, int64_t, int64_t*);"


#: an ``Op``'s ``c_expr``/``c_header`` is C text from outside the
#: compiler: a kernel that calls one includes what every kernel used to
_OP_INCLUDES = ("math.h", "stdlib.h", "string.h")


def _collect_prelude(p: P, includes: Set[str], helpers: Dict[str, str],
                     widths: Mapping[str, str]) -> None:
    """What ``p`` needs ahead of the kernel function: ``<math.h>`` for
    an infinite literal (``INFINITY``), the sort's prototype for a
    ``PSort``, the skip at its ``crd``'s width for a galloping
    ``PSearch``, and for a user ``Op`` its ``c_header`` and
    :data:`_OP_INCLUDES`."""

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
        _collect_prelude(sub, includes, helpers, widths)
    if isinstance(p, PSort):
        helpers["_sort_i64"] = _SORT_PROTO
    elif isinstance(p, PSearch) and p.strategy == "binary":
        t = widths.get(p.array, TINT)
        helpers[_gallop(t)] = _SKIP_GAL.format(name=_gallop(t), crd=c_name(t))


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
    widths = {p.name: p.ctype for p in params if p.kind == "array"}
    _collect_prelude(body, includes, helpers, widths)
    sig_parts = []
    for param in params:
        if param.kind == "array":
            sig_parts.append(f"{c_name(param.ctype)}* {param.name}")
        else:
            sig_parts.append(f"{c_name(param.ctype)} {param.name}")
    function = "\n".join(
        [f"void {name}({', '.join(sig_parts)}) {{"]
        + [f"  {c_type(v.type)} {v.name} = 0;" for v in decls]
        + [emit_stmt(body, 1, widths), "}"]
    )
    include_lines = "\n".join(
        f"#include <{h}>" for h in ["stdint.h", "stdbool.h", *sorted(includes)]
    )
    return "\n\n".join([include_lines, *helpers.values(), function]) + "\n"


class CKernel:
    """A compiled C kernel, callable with numpy arrays.  Constructing
    one builds it: gcc runs and is waited for here, unless ``artifact``
    is the build :func:`start` already began for this ``source``."""

    def __init__(self, source: str, name: str, params: Sequence[Param],
                 cache_dir: str | None = None,
                 artifact: "_Artifact | None" = None) -> None:
        self.source = source
        self.name = name
        self.params = list(params)
        self._lib = (artifact or _Artifact(source, name, cache_dir)).load()
        self._fn = getattr(self._lib, name)
        # an array is passed as its address, a scalar as it is
        self._plan = [(p.name, p.kind == "array") for p in self.params]
        self._fn.argtypes = [
            c_void_p if p.kind == "array" else _CTYPES[p.ctype] for p in self.params
        ]
        self._fn.restype = None

    def args(self, env: Mapping[str, object]) -> tuple:
        """The call's arguments for ``env``, which maps parameter names
        to numpy arrays / Python scalars.  Arrays are used in place
        (contiguous and correctly typed; the kernel builder guarantees
        this): the tuple holds their addresses, valid while ``env``
        keeps them alive."""
        return tuple(_address(env[name]) if is_arr else env[name]
                     for name, is_arr in self._plan)

    def __call__(self, env: Mapping[str, object]) -> None:
        self._fn(*self.args(env))

    def bound(self, env: Mapping[str, object]) -> Callable[[], None]:
        """The call on ``env`` with its arguments converted once, now:
        the caller keeps ``env``'s arrays alive while it may run."""
        return functools.partial(self._fn, *self.args(env))


def start(source: str, name: str, params: Sequence[Param],
          cache_dir: str | None = None) -> Callable[[], CKernel]:
    """Start building ``source`` and return the build's join: the call
    that waits for gcc and returns the :class:`CKernel` (DESIGN.md
    "Builds in flight").  A missing compiler raises here, as does a
    failed build of the sort runtime, which is built before the kernel
    starts; a failed kernel build raises from the join."""
    return functools.partial(CKernel, source, name, params,
                             artifact=_Artifact(source, name, cache_dir))


def _address(array: np.ndarray) -> int:
    """Where ``array``'s data starts: what a kernel's array parameter
    takes (``c_void_p``: a ``.ctypes.data_as(POINTER)`` object per
    array made ``lib_dispatch``'s ``.run`` calls ≈ 40 % slower, E33)."""
    return array.ctypes.data


#: the loaded shared object of each source hash, while a kernel can
#: call it.  A ``CDLL`` and the function pointer it caches refer to each
#: other, so a handle is closed at the collection that frees its last
#: ``CKernel`` — never while anything that can call into it is alive,
#: and never at exit, where a daemon thread may still be inside a kernel
_CACHE: "weakref.WeakValueDictionary[str, CDLL]" = weakref.WeakValueDictionary()


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


def _command(source: str, c_path: str, tmp_so: str, opt: str,
             link: Sequence[str]) -> List[str]:
    """The toolchain's command line for one shared object."""
    # a source that includes only the two type headers calls no libc,
    # so it links none, and gcc may not turn its loops into memset
    # calls; an Op's C text, <math.h> and a sanitized build link it all
    includes = set(re.findall(r"^#include <(.+)>$", source, re.M))
    lean = includes <= {"stdint.h", "stdbool.h"} and not config.get("REPRO_SANITIZE")
    libs = ["-nostdlib", "-fno-tree-loop-distribute-patterns"] if lean else ["-lm"]
    return [config.get("REPRO_GCC"), opt, "-march=native", "-shared", "-fPIC",
            *_sanitizer_flags(), c_path, "-o", tmp_so, *link, *libs]


def _failure(cc: str, cmd: List[str], returncode: int, stderr: str) -> CompileError:
    if returncode < 0:
        return CompileError(f"{cc} was killed by {resilience.signal_name(-returncode)}",
                            command=cmd, returncode=returncode, stderr=stderr)
    return CompileError(f"{cc} exited with status {returncode}",
                        command=cmd, returncode=returncode, stderr=stderr)


def _killed_twice(cc: str, cmd: List[str], last: CompileError) -> CompileError:
    """The retry died by the same signal: deterministic, not transient —
    tell the operator what to do about it."""
    hint = (
        "likely the OOM killer — reduce concurrent builds, raise the "
        "memory limit, or set REPRO_BACKEND_FALLBACK=1 to use the "
        "Python backend"
        if last.signal_name == "SIGKILL"
        else "an external supervisor is killing the toolchain; check "
        "resource limits and container policies"
    )
    return CompileError(
        f"{cc} was killed by {last.signal_name} twice in a row; "
        f"not retrying further ({hint})",
        command=cmd, returncode=last.returncode, stderr=last.stderr,
    )


class _Gcc:
    """One toolchain run: ``source`` compiled into ``so_path`` on a
    thread of its own, started on construction.  The thread takes the
    artifact's per-key lock, writes the source, runs gcc (:meth:`start`,
    :meth:`reap`), publishes the .so by ``os.replace`` and releases the
    lock — at gcc's exit, not at a caller's join.  So a concurrent (or
    crashed) builder never exposes a truncated .so, and a second process
    building the same key — a pool worker rebuilding it, say — waits for
    this gcc, not for this process, and then loads the one it built."""

    def __init__(self, source: str, so_path: str, opt: str, link: Sequence[str]) -> None:
        cc = config.get("REPRO_GCC")
        if shutil.which(cc) is None:
            raise BackendUnavailableError("c", f"compiler {cc!r} not found on PATH")
        self.so_path = so_path
        self.c_path = so_path[:-3] + ".c"
        self.tmp_so = f"{so_path}.build{os.getpid()}"
        self.cmd = _command(source, self.c_path, self.tmp_so, opt, link)
        self.timeout = config.get("REPRO_GCC_TIMEOUT")
        #: the build's error once it is done: a :class:`CompileError`,
        #: or what writing the source raised; None on success
        self.error: Exception | None = None
        self._thread = threading.Thread(target=self._build, args=(source,),
                                        name=f"gcc {os.path.basename(so_path)}", daemon=True)
        self._thread.start()

    @property
    def done(self) -> bool:
        return not self._thread.is_alive()

    def join(self) -> Exception | None:
        """Wait for the build and return its error, or None: every
        caller, and every later call, gets the one outcome."""
        self._thread.join()
        return self.error

    def _build(self, source: str) -> None:
        try:
            with resilience.file_lock(self.so_path):
                if os.path.exists(self.so_path):
                    return  # published by another process while we waited for its lock
                resilience.atomic_write_text(self.c_path, source)
                try:
                    self.error = self.reap()
                finally:
                    with contextlib.suppress(OSError):
                        os.unlink(self.tmp_so)
        except Exception as exc:  # raised by the join, in the caller's thread
            self.error = exc

    def start(self, stderr) -> subprocess.Popen:
        """Launch gcc, its stderr into ``stderr``, an unnamed file, so a
        chatty compile never blocks on a pipe."""
        return subprocess.Popen(self.cmd, stdout=subprocess.DEVNULL, stderr=stderr)

    def reap(self) -> CompileError | None:
        """Run gcc and wait for it — until ``REPRO_GCC_TIMEOUT`` —,
        retry once on a transient failure and publish the .so: the
        build's error, or None."""
        cc = self.cmd[0]
        seen_signals: set[int] = set()
        repeated_kill = False
        error: CompileError | None = None
        for attempt in (1, 2):
            with tempfile.TemporaryFile() as stderr:
                try:
                    proc = self.start(stderr)
                except OSError as exc:  # vanished mid-run, exec failure, ...
                    error = CompileError(f"could not invoke {cc}: {exc}", command=self.cmd)
                    logger.warning("compiler invocation failed (%s); attempt %d", exc, attempt)
                    continue
                try:
                    code = proc.wait(0.0 if _await_exit(proc.pid, self.timeout) else self.timeout)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    return CompileError(
                        f"{cc} timed out after {self.timeout:.1f}s compiling {self.c_path}",
                        command=self.cmd, stderr=_text(stderr) or None, timeout=True,
                    )
                if code == 0:
                    try:
                        os.replace(self.tmp_so, self.so_path)
                    except OSError as exc:  # the cache dir went away meanwhile
                        return CompileError(f"could not publish {self.so_path}: {exc}",
                                            command=self.cmd)
                    return None
                error = _failure(cc, self.cmd, code, _text(stderr))
            if not resilience.is_transient(code, seen_signals):
                repeated_kill = code < 0 and -code in seen_signals
                break
            seen_signals.add(-code)
            logger.warning(
                "transient compiler failure (killed by %s) on attempt %d; "
                "retrying once", resilience.signal_name(-code), attempt,
            )
        if repeated_kill and error.signal is not None:
            return _killed_twice(cc, self.cmd, error)
        return error


def _text(file) -> str:
    file.seek(0)
    return file.read().decode(errors="replace")


def _await_exit(pid: int, timeout: float) -> bool:
    """Sleep until process ``pid`` exits or ``timeout`` seconds pass,
    woken by a pidfd.  ``Popen.wait(timeout)`` polls instead, waking up
    to 50 ms after the exit.  False where no pidfd can be had; the
    caller's wait then polls."""
    try:
        fd = os.pidfd_open(pid)
    except (AttributeError, OSError):
        return False
    try:
        select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    return True


#: gccs that may run at once: one per CPU this process may run on
IN_FLIGHT = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1)

#: the .so path of each gcc run started and not yet joined, oldest
#: first.  Changed under ``_lock``; read without it by :func:`join_all`,
#: which runs at fork time, when another thread may hold the lock
_in_flight: "OrderedDict[str, _Gcc]" = OrderedDict()
_lock = threading.Lock()


def _launch(source: str, so_path: str, opt: str, link: Sequence[str]) -> _Gcc:
    """gcc started on ``source`` into ``so_path`` — or the run of it this
    process already has in flight.  A start past :data:`IN_FLIGHT`
    first joins the oldest run."""
    while True:
        with _lock:
            for path in [p for p, gcc in _in_flight.items() if gcc.done]:
                del _in_flight[path]
            gcc = _in_flight.get(so_path)
            if gcc is None and len(_in_flight) < IN_FLIGHT:
                gcc = _in_flight[so_path] = _Gcc(source, so_path, opt, link)
            if gcc is not None:
                return gcc
            oldest = next(iter(_in_flight.values()))
        oldest.join()


def join_all() -> None:
    """Join every gcc run in flight: before a fork, so no child inherits
    one or the lock it holds, and at exit, so none outlives the process
    unpublished."""
    for gcc in tuple(_in_flight.values()):
        gcc.join()


def _forget_in_flight() -> None:
    """A forked child starts with no runs and a fresh lock: the runs it
    inherits belong to threads it does not have."""
    global _in_flight, _lock
    _in_flight, _lock = OrderedDict(), threading.Lock()


atexit.register(join_all)
os.register_at_fork(before=join_all, after_in_child=_forget_in_flight)


def _key(source: str) -> str:
    """The artifact hash of ``source``.  The sanitizer flags are part of
    the identity: a build with REPRO_SANITIZE set must never reuse an
    uninstrumented .so (or vice versa).  Unsanitized builds keep the
    plain source hash so existing cached artifacts stay valid."""
    tag = ",".join(config.get("REPRO_SANITIZE"))
    keyed = f"sanitize={tag}\x00{source}" if tag else source
    return hashlib.sha256(keyed.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _scratch_dir() -> str:
    """The process's one directory for artifacts the cache dir cannot
    take: a corrupt .so in a read-only cache is rebuilt here once and
    found here by every later load."""
    return tempfile.mkdtemp(prefix="repro_so_")


def _start(source: str, directory: str, stem: str, runtime: str | None,
           opt: str = "-O3") -> "Tuple[str, _Gcc | None]":
    """``<directory>/<stem>.so`` and the gcc run that publishes it (None
    when it is there).  A kernel that sorts links ``runtime`` — built
    into the same directory first if missing, and waited for — and
    finds it at load time through ``$ORIGIN``."""
    link: List[str] = []
    if runtime is not None:
        _publish(_SORT_I64, directory, runtime, None, "-O2")
        link = [f"-L{directory}", f"-l:{runtime}.so", "-Wl,-rpath,$ORIGIN"]
    so_path = os.path.join(directory, f"{stem}.so")
    if os.path.exists(so_path):
        return so_path, None
    return so_path, _launch(source, so_path, opt, link)


def _publish(source: str, directory: str, stem: str, runtime: str | None,
             opt: str = "-O3") -> str:
    """:func:`_start`, joined: the .so's path once it is there."""
    so_path, gcc = _start(source, directory, stem, runtime, opt)
    error = gcc and gcc.join()
    if error is not None:
        raise error
    return so_path


class _Artifact:
    """The shared object of one source, its gcc started on construction
    (unless it is loaded or published already); :meth:`load` joins the
    run and loads the library."""

    def __init__(self, source: str, name: str, cache_dir: str | None) -> None:
        # the runtime's hash is part of a sorting kernel's identity, so
        # a changed sort relinks every kernel that calls it
        self.source = source
        self.runtime = f"repro_rt_{_key(_SORT_I64)}" if _SORT_PROTO in source else None
        self.key = _key(f"runtime={self.runtime}\x00{source}" if self.runtime else source)
        self.stem = f"{name}_{self.key}"
        self.lib, self.gcc = _CACHE.get(self.key), None
        if self.lib is None:
            self.directory = resilience.usable_cache_dir(
                cache_dir or str(default_cache_dir()))
            self.so_path, self.gcc = _start(source, self.directory, self.stem, self.runtime)

    def load(self) -> CDLL:
        lib, self.lib = self.lib or _CACHE.get(self.key), None
        if lib is not None:
            return lib
        error = self.gcc and self.gcc.join()
        if error is not None:
            raise error
        so_path, runtime = self.so_path, self.runtime
        try:
            lib = CDLL(so_path)
        except OSError as exc:
            # truncated, clobbered or vanished .so — the runtime's when
            # the loader names it: quarantine the bad artifact and
            # rebuild (in the scratch dir if the cache dir is not
            # writable).  Logged as text: a kept record must not pin
            # this frame and the library
            logger.warning(
                "cached shared object %s failed to load (%s); rebuilding", so_path, str(exc)
            )
            bad, directory = so_path, self.directory
            if runtime is not None and runtime in str(exc):
                bad = os.path.join(directory, f"{runtime}.so")
            if os.path.exists(bad) and resilience.quarantine(bad) is None:
                directory = _scratch_dir()
            so_path = _publish(self.source, directory, self.stem, runtime)
            try:
                lib = CDLL(so_path)
            except OSError as exc2:
                raise CacheCorruptionError(
                    f"shared object {so_path} unloadable even after rebuild: {exc2}",
                    path=so_path,
                ) from exc2
        weakref.finalize(lib, _ctypes.dlclose, lib._handle).atexit = False
        _CACHE[self.key] = lib
        return lib
