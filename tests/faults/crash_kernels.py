"""Injected-crash backend kernels for the supervision tests.

Each class below is a drop-in stand-in for a compiled backend kernel
(the ``kernel._kernel`` callable): a kernel whose backend is swapped
for one of these dies (or, :class:`OverrunKernel`, fails typed) in a
specific, reproducible way on its next run.
Supervised runs execute on pool workers, which rebuild each kernel from
its recipe, so :func:`sabotage_in_workers` does the swap *inside* the
workers: the worker dies exactly as a genuinely faulty compiled kernel
would, while the host interpreter (and the test suite) survives to
decode the exit status, and the parent's own handle — the breaker's
pure-Python twin included — stays healthy.

``c_segfault_kernel`` goes one step further and compiles a real C
kernel — same signature as the sabotaged kernel, body replaced with an
out-of-contract store through the NULL page — for toolchain-marked
tests that want the crash to originate in actual generated-style code.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time

import pytest

from repro.compiler import codegen_c
from repro.compiler.build import KernelRecipe
from repro.runtime import pool as pool_mod


class SegfaultKernel:
    """An out-of-bounds store through the NULL page: dies by SIGSEGV."""

    source = "/* injected fault: out-of-bounds store */"

    def __call__(self, env) -> None:
        ctypes.memset(8, 0, 1)


class OomKernel:
    """Allocates until the ``RLIMIT_AS`` cap, then dies by SIGKILL.

    Inside the rlimit-capped worker the allocation loop hits
    ``MemoryError`` quickly; a real OOM-killer victim never gets to see
    that exception — it is killed outright — so this kernel finishes
    the simulation honestly by SIGKILLing itself, leaving the parent a
    signal-shaped exit status to decode.
    """

    source = "/* injected fault: unbounded allocation */"

    def __call__(self, env) -> None:
        hoard = []
        try:
            while True:
                hoard.append(bytearray(16 << 20))
        except MemoryError:
            os.kill(os.getpid(), signal.SIGKILL)


class SpinKernel:
    """An infinite skip loop that never converges: trips the deadline."""

    source = "/* injected fault: non-converging skip loop */"

    def __call__(self, env) -> None:
        while True:
            time.sleep(0.005)


class OverrunKernel:
    """Counts one output entry past any reservation, so even the rerun
    at the counted size overflows: raises ``CapacityError``."""

    source = "/* injected fault: an output size past every reservation */"

    def __call__(self, env) -> None:
        env["out_size"][-1] = env["out_cap"] + 1


def c_segfault_kernel(kernel) -> codegen_c.CKernel:
    """A real compiled C kernel with ``kernel``'s exact signature whose
    body performs an out-of-contract store (requires a toolchain)."""
    sig_parts = []
    for param in kernel.params:
        ctype = codegen_c.c_name(param.ctype)
        if param.kind == "array":
            sig_parts.append(f"{ctype}* {param.name}")
        else:
            sig_parts.append(f"{ctype} {param.name}")
    name = f"{kernel.name}_oob"
    source = f"""#include <stdint.h>

void {name}({', '.join(sig_parts)}) {{
  volatile int64_t* p = (int64_t*)8;  /* the null page */
  p[0] = 42;
}}
"""
    return codegen_c.CKernel(source, name, kernel.params)


def sabotage_in_workers(monkeypatch, name: str, fake):
    """Make every pool worker started from now on build the kernels
    whose name starts with ``name`` with ``fake`` as their backend.

    ``KernelRecipe.build`` is patched in this process and the shared
    pool shut down, so the next supervised call forks workers that
    carry the patch (the start method is pinned to ``fork``; a spawned
    worker would import the genuine one).  The swap happens only in a
    worker — ``multiprocessing.parent_process()`` is None here — so the
    parent's kernels, and the Python twin the breaker builds from the
    same recipe, stay healthy.  Returns a function that heals: it
    restores the genuine build and shuts the sabotaged workers down.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("in-worker sabotage needs the fork start method")
    build = KernelRecipe.build

    def sabotaged(recipe, *args, **kw):
        kernel = build(recipe, *args, **kw)
        if (multiprocessing.parent_process() is not None
                and kernel.name.startswith(name)):
            kernel._kernel = fake
        return kernel

    def heal():
        monkeypatch.setattr(KernelRecipe, "build", build)
        pool_mod.shutdown_shared_pool()

    monkeypatch.setenv("REPRO_MP_START", "fork")
    pool_mod.shutdown_shared_pool()
    monkeypatch.setattr(KernelRecipe, "build", sabotaged)
    return heal
