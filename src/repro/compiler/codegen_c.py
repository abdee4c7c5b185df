"""C code generation for the imperative IR **P** (Figure 2's output).

Emits one kernel function per translation unit; arrays become typed
pointers (a ``crd`` at the width its tensor stores) and scalar
parameters ``int64_t`` values.  Compiled with
``gcc -O3`` into a shared object and invoked through ctypes — the same
pipeline shape as the paper's Lean → C → Clang -O3 evaluation.  A
kernel that sorts calls ``_sort_i64`` from the runtime, a second shared
object built once per cache directory beside it (:func:`_build`).
"""

from __future__ import annotations

import _ctypes
import functools
import hashlib
import math
import os
import re
import shutil
import subprocess
import tempfile
import weakref
from ctypes import CDLL, c_bool, c_double, c_int32, c_int64, c_void_p
from typing import Callable, Dict, List, Mapping, Sequence, Set

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
    """A compiled C kernel, callable with numpy arrays."""

    def __init__(self, source: str, name: str, params: Sequence[Param], cache_dir: str | None = None) -> None:
        self.source = source
        self.name = name
        self.params = list(params)
        self._lib = _build(source, name, cache_dir)
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


def _compile(source: str, c_path: str, so_path: str, opt: str = "-O3",
             link: Sequence[str] = ()) -> None:
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
    # a source that includes only the two type headers calls no libc,
    # so it links none, and gcc may not turn its loops into memset
    # calls; an Op's C text, <math.h> and a sanitized build link it all
    includes = set(re.findall(r"^#include <(.+)>$", source, re.M))
    lean = includes <= {"stdint.h", "stdbool.h"} and not config.get("REPRO_SANITIZE")
    libs = ["-nostdlib", "-fno-tree-loop-distribute-patterns"] if lean else ["-lm"]
    cmd = [cc, opt, "-march=native", "-shared", "-fPIC", *_sanitizer_flags(),
           c_path, "-o", tmp_so, *link, *libs]
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


def _publish(source: str, directory: str, stem: str, runtime: str | None,
             opt: str = "-O3") -> str:
    """``<directory>/<stem>.so``, compiled unless it is there.  A kernel
    that sorts links ``runtime`` — built into the same directory first
    if missing — and finds it at load time through ``$ORIGIN``."""
    link: List[str] = []
    if runtime is not None:
        _publish(_SORT_I64, directory, runtime, None, "-O2")
        link = [f"-L{directory}", f"-l:{runtime}.so", "-Wl,-rpath,$ORIGIN"]
    so_path = os.path.join(directory, f"{stem}.so")
    if not os.path.exists(so_path):
        # per-key lock: two processes building the same kernel compile
        # once (or harmlessly twice on lock failure — publication is
        # atomic either way)
        with resilience.file_lock(so_path):
            if not os.path.exists(so_path):
                _compile(source, so_path[:-3] + ".c", so_path, opt, link)
    return so_path


def _build(source: str, name: str, cache_dir: str | None = None) -> CDLL:
    # the runtime's hash is part of a sorting kernel's identity, so a
    # changed sort relinks every kernel that calls it
    runtime = f"repro_rt_{_key(_SORT_I64)}" if _SORT_PROTO in source else None
    key = _key(f"runtime={runtime}\x00{source}" if runtime else source)
    lib = _CACHE.get(key)
    if lib is not None:
        return lib
    directory = resilience.usable_cache_dir(cache_dir or str(default_cache_dir()))
    stem = f"{name}_{key}"
    so_path = _publish(source, directory, stem, runtime)
    try:
        lib = CDLL(so_path)
    except OSError as exc:
        # truncated, clobbered or vanished .so — the runtime's when the
        # loader names it: quarantine the bad artifact and rebuild (in
        # the scratch dir if the cache dir is not writable).  Logged as
        # text: a kept record must not pin this frame and the library
        logger.warning(
            "cached shared object %s failed to load (%s); rebuilding", so_path, str(exc)
        )
        bad = so_path
        if runtime is not None and runtime in str(exc):
            bad = os.path.join(directory, f"{runtime}.so")
        if os.path.exists(bad) and resilience.quarantine(bad) is None:
            directory = _scratch_dir()
        so_path = _publish(source, directory, stem, runtime)
        try:
            lib = CDLL(so_path)
        except OSError as exc2:
            raise CacheCorruptionError(
                f"shared object {so_path} unloadable even after rebuild: {exc2}",
                path=so_path,
            ) from exc2
    weakref.finalize(lib, _ctypes.dlclose, lib._handle).atexit = False
    _CACHE[key] = lib
    return lib
