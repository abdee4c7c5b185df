"""The measurement loop shared by every workload.

A workload is a fixed list of *cells* (one program × one input × one
call path).  A run executes a fixed number of rounds; each round visits
the cells in fixed order and takes a fixed number of consecutive
samples per cell (a sample is one call, or for sub-millisecond calls a
batch of ``k`` consecutive calls recorded as time ÷ k).  Op counts are
fixed, never duration-based, so the number of ops repeats exactly from
run to run.  Every time is wall-clock time; statistics are computed per
cell and combined by geometric mean.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: the only ``REPRO_*`` variables the benchmark sets; any other one in
#: the environment means a non-default configuration and is refused
PRIVATE_DIR_VARS = (
    "REPRO_KERNEL_CACHE_DIR", "REPRO_TUNE_CACHE_DIR", "REPRO_JOB_DIR",
)
#: an op slower than this counts as failed (it cannot be interrupted
#: in-process; the HTTP client enforces the same limit on its socket)
OP_TIMEOUT_S = 30.0
#: how many times set-up is repeated in a run (its median is reported)
SETUP_REPS = 3
#: samples per cell of the warm-up round that ends every set-up
WARMUP_SAMPLES = 3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class WatchdogExpired(BaseException):
    """The run outlived its watchdog.  Not an ``Exception``: the
    handlers that turn a failed op into a count must not swallow it."""


def arm_watchdog(seconds: int) -> None:
    """Abort the run from wherever it hangs (a pool future, a socket
    read) after ``seconds``; 0 disarms."""
    def expired(_sig, _frame):
        # fire again soon: the program forwards some BaseExceptions
        # through futures, where one can get lost
        signal.alarm(5)
        raise WatchdogExpired(f"benchmark run exceeded its {seconds} s watchdog")

    signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)


def kill_descendants() -> int:
    """SIGKILL every process below this one (server, pool workers,
    supervised forks) — the last resort of an aborted run.  Returns how
    many were still alive."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue                # the process ended while we looked
        children.setdefault(ppid, []).append(int(entry))
    todo = list(children.get(os.getpid(), ()))
    alive = 0
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/stat") as fh:
                zombie = fh.read().rsplit(")", 1)[1].split()[0] == "Z"
            os.kill(pid, signal.SIGKILL)
            alive += not zombie
        except (OSError, IndexError):
            pass                    # already gone
    return alive


def adopt_orphans() -> None:
    """PR_SET_CHILD_SUBREAPER: a process whose parent ends before it (a
    helper of the server, of a pool worker) becomes a child of this
    process instead of init's, so the run can wait for it."""
    ctypes.CDLL(None).prctl(36, 1)


def end_processes(grace_s: float = 20.0) -> int:
    """Stop what is still running below this process and wait until
    each has ended: no run may leave a process behind.  Returns how
    many had to be killed (0 after a clean tear-down)."""
    from multiprocessing import resource_tracker

    # multiprocessing's tracker of shared-memory segments exits once
    # its pipe closes, which otherwise happens after this process ends
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    killed = 0
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed           # no child left, adopted ones included
        if pid == 0:
            if deadline is not None and time.monotonic() > deadline:
                killed = kill_descendants()
                deadline = None
            time.sleep(0.01)


class HygieneError(RuntimeError):
    """The environment would make the run measure something else."""


def check_environment(environ=os.environ) -> None:
    stray = sorted(
        k for k in environ
        if k.startswith("REPRO_") and k not in PRIVATE_DIR_VARS
    )
    if stray:
        raise HygieneError(
            f"refusing to run with {', '.join(stray)} set: the benchmark "
            "measures the default configuration"
        )


@dataclass
class Cell:
    """One program × one input × one call path."""

    name: str
    #: one call; its return value is what ``check`` judges
    op: Callable[[], Any]
    #: oracle verdict on a result of ``op``
    check: Callable[[Any], bool]
    #: consecutive calls per sample (sub-millisecond ops are batched)
    batch: int = 1
    #: consecutive samples taken per round
    samples: int = 10
    #: wall-clock ms per call: one list per round, one entry per sample
    rounds_ms: List[List[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    oracle_ok: bool = True

    def reset(self) -> None:
        self.rounds_ms = []
        self.attempted = 0
        self.failed = 0
        self.oracle_ok = True

    @property
    def times_ms(self) -> List[float]:
        """Every sample of the run."""
        return [t for block in self.rounds_ms for t in block]


def run_rounds(cells: List[Cell], rounds: int, verify: bool = True,
               samples: Optional[int] = None) -> float:
    """Execute ``rounds`` rounds of ``samples`` samples per cell (default:
    the cell's own count); returns the timed seconds (the sum of the
    samples — the loop is closed, one caller).

    The result of the first and of the last sample of every cell is
    kept and judged by the cell's oracle after the clock has stopped.
    """
    total = 0.0
    perf = time.perf_counter
    for r in range(rounds):
        gc.collect()
        keep: List[tuple] = []
        for cell in cells:
            batch = cell.batch
            op = cell.op
            n = samples or cell.samples
            last = n - 1
            block: List[float] = []
            for s in range(n):
                result = None
                cell.attempted += batch
                t0 = perf()
                try:
                    for _ in range(batch):
                        result = op()
                    dt = perf() - t0
                except Exception as exc:          # a failed op, not a crash
                    cell.failed += batch
                    print(f"[bench] {cell.name}: op failed: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                if dt / batch > OP_TIMEOUT_S:
                    cell.failed += batch
                    continue
                total += dt
                block.append(dt * 1e3 / batch)
                if verify and ((r == 0 and s == 0)
                               or (r == rounds - 1 and s == last)):
                    keep.append((cell, result))
            if block:
                cell.rounds_ms.append(block)
        for cell, result in keep:
            if not cell.check(result):
                cell.oracle_ok = False
                cell.failed += 1
                print(f"[bench] {cell.name}: oracle mismatch", file=sys.stderr)
    return total


def print_rows(cells: List[Cell]) -> None:
    """One row per cell: the statistics of all its samples."""
    print(f"{'cell':<24}{'samples':>8}{'batch':>7}{'min ms':>12}{'p50 ms':>12}"
          f"{'p90 ms':>12}  oracle")
    for c in cells:
        t = c.times_ms
        lo, p50, p90 = (min(t), *np.percentile(t, (50, 90))) if t else (float("nan"),) * 3
        verdict = "ok" if c.oracle_ok and not c.failed else "FAIL"
        print(f"{c.name:<24}{len(t):>8}{c.batch:>7}{lo:>12.4f}{p50:>12.4f}"
              f"{p90:>12.4f}  {verdict}")


# ----------------------------------------------------------------------
# process-level measurements
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Largest resident set of this process and of any reaped child
    (server, pool workers, supervised forks, gcc), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def code_bytes(cache_dir: str) -> int:
    """Total size of the generated C sources in a kernel-cache dir."""
    return sum(
        os.path.getsize(p)
        for p in glob.glob(os.path.join(cache_dir, "**", "*.c"), recursive=True)
    )


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(base, f))
            except OSError:
                pass        # the journal removes files while we walk
    return total


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/repro_*"))


_IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import repro, repro.tensor, repro.runtime, repro.autotune
import repro.serve.query, repro.tpch, repro.baselines.taco
print(time.perf_counter() - t0)
"""


def import_seconds(reps: int = SETUP_REPS) -> float:
    """Median time of importing the program in a fresh interpreter (what
    every user process pays before its first call)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env,
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# private directories
# ----------------------------------------------------------------------
class RunDirs:
    """The run's private scratch tree, inside the checkout and removed
    at exit.  Each set-up repetition gets fresh kernel/tune/job dirs so
    it starts from empty caches."""

    def __init__(self, workload: str) -> None:
        self.base = os.path.join(ROOT, ".bench_run", f"{workload}-{os.getpid()}")
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        # gcc and tempfile put their intermediates here, not in /tmp
        os.environ["TMPDIR"] = self.sub("tmp")
        tempfile.tempdir = None

    def sub(self, name: str) -> str:
        path = os.path.join(self.base, name)
        os.makedirs(path, exist_ok=True)
        return path

    def point_caches(self, tag: str) -> str:
        """Aim the three private-dir variables at fresh dirs; returns
        the kernel-cache dir."""
        kernel_dir = self.sub(f"{tag}/kernels")
        os.environ["REPRO_KERNEL_CACHE_DIR"] = kernel_dir
        os.environ["REPRO_TUNE_CACHE_DIR"] = self.sub(f"{tag}/tune")
        os.environ["REPRO_JOB_DIR"] = self.sub(f"{tag}/jobs")
        return kernel_dir

    def remove(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        parent = os.path.dirname(self.base)
        try:
            os.rmdir(parent)          # only when no other run is using it
        except OSError:
            pass
