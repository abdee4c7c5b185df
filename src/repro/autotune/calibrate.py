"""Machine calibration: convert cost-model units into seconds.

The cost model ranks plans in abstract units; deciding whether a shard
split *pays* needs real numbers — per-unit throughput of each backend
and the per-shard dispatch overhead of each executor.  BENCH_PR4/PR6
showed why these cannot be assumed: on the single-core bench container
``os.cpu_count()``-based heuristics predict speedups that do not
exist.  So the profile is *measured* (a few micro-benchmarks, once per
machine), persisted next to the kernel cache with the same
checksummed-envelope + quarantine machinery, and loaded thereafter.

Measurement is never implicit: :func:`get_profile` loads a persisted
profile or falls back to conservative defaults (``measured=False``,
shard speedup 1.0 — the tuner will then never choose to shard, which
is the safe default).  :func:`calibrate` is the one way to measure.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Dict, Optional

from repro import config
from repro.compiler import resilience
from repro.compiler.cache import _payload_digest, default_cache_dir
from repro.compiler.resilience import logger

PROFILE_VERSION = 1
PROFILE_NAME = "atun_cal.json"

#: conservative per-unit seconds when nothing was measured (rough
#: orders of magnitude for a scalar C loop step vs interpreted Python)
DEFAULT_PER_OP_S = {"c": 4e-9, "python": 4e-7, "interp": 2e-6}
#: per-shard dispatch overhead guesses (thread hand-off, pool rpc)
DEFAULT_DISPATCH_S = {"serial": 0.0, "thread": 3e-4, "pool": 2e-3}


def tune_cache_dir() -> Path:
    """Where calibration + decision records live
    (``REPRO_TUNE_CACHE_DIR``, default: the kernel cache dir)."""
    env = config.get("REPRO_TUNE_CACHE_DIR")
    return Path(env) if env else default_cache_dir()


@dataclass
class CalibrationProfile:
    """Measured machine constants the tuner prices plans with."""

    #: seconds per cost-model unit, per backend
    per_op_s: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PER_OP_S))
    #: fixed per-shard dispatch cost, per executor
    dispatch_s: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DISPATCH_S))
    #: measured speedup of a 2-shard run over serial, per executor
    #: (1.0 = sharding does not help on this machine)
    speedup2: Dict[str, float] = field(default_factory=dict)
    cpus: int = 1
    measured: bool = False
    machine: str = ""
    generated: str = ""

    def per_unit(self, backend: str) -> float:
        return self.per_op_s.get(backend, DEFAULT_PER_OP_S.get(backend, 4e-9))

    def shard_speedup(self, executor: str, shards: int) -> float:
        """Expected speedup at ``shards`` shards, extrapolated from the
        measured 2-shard point with diminishing returns and capped by
        the CPU count (Amdahl-ish, deliberately pessimistic)."""
        base = self.speedup2.get(executor, 1.0)
        if shards <= 1 or base <= 1.0:
            return 1.0
        import math

        gain = base ** math.log2(max(shards, 2))
        return min(gain, float(max(self.cpus, 1)), float(shards))

    def executor_time(self, work_s: float, executor: str, shards: int) -> float:
        """Predicted wall time of ``work_s`` of serial work under an
        executor with ``shards`` shards."""
        if executor in (None, "serial") or shards <= 1:
            return work_s
        disp = self.dispatch_s.get(executor, 1e-3)
        return work_s / self.shard_speedup(executor, shards) + disp * shards


def default_profile() -> CalibrationProfile:
    return CalibrationProfile(cpus=os.cpu_count() or 1,
                              machine=platform.machine())


# ----------------------------------------------------------------------
# persistence (checksummed envelope + quarantine, as the kernel cache)
# ----------------------------------------------------------------------
def _profile_path() -> Path:
    return tune_cache_dir() / PROFILE_NAME


def store_profile(profile: CalibrationProfile) -> None:
    payload = dict(asdict(profile), version=PROFILE_VERSION)
    record = {"sha256": _payload_digest(payload), "payload": payload}
    path = _profile_path()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with resilience.file_lock(path):
            resilience.atomic_write_text(path, json.dumps(record))
    except OSError as exc:
        logger.warning("could not store calibration profile %s (%s)", path, exc)


def load_profile() -> Optional[CalibrationProfile]:
    """The persisted profile, or None.  Corruption (bad JSON, failed
    checksum, missing fields) quarantines the file and returns None."""
    path = _profile_path()
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as exc:
        logger.warning("calibration profile %s unreadable (%s)", path, exc)
        return None
    try:
        record = json.loads(text)
        payload = record["payload"]
        digest = record["sha256"]
    except (ValueError, TypeError, KeyError) as exc:
        logger.warning("corrupt calibration profile %s (%s: %s); quarantining",
                       path, type(exc).__name__, exc)
        resilience.quarantine(path)
        return None
    if digest != _payload_digest(payload):
        logger.warning("calibration profile %s failed its checksum; "
                       "quarantining", path)
        resilience.quarantine(path)
        return None
    if payload.get("version") != PROFILE_VERSION:
        return None
    try:
        return CalibrationProfile(
            per_op_s=dict(payload["per_op_s"]),
            dispatch_s=dict(payload["dispatch_s"]),
            speedup2=dict(payload.get("speedup2", {})),
            cpus=int(payload.get("cpus", 1)),
            measured=bool(payload.get("measured", False)),
            machine=str(payload.get("machine", "")),
            generated=str(payload.get("generated", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        logger.warning("calibration profile %s malformed (%s); quarantining",
                       path, exc)
        resilience.quarantine(path)
        return None


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _best(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_profile(executors=("thread", "pool")) -> CalibrationProfile:
    """Micro-benchmark this machine: per-unit throughput per backend,
    dispatch overhead and 2-shard speedup per executor.

    A seeded SpMV reference workload keeps the measurement deterministic
    in shape; every executor probe is individually fault-tolerant (a
    broken executor simply keeps its conservative default).
    """
    from repro.autotune.costmodel import OperandStats, estimate
    from repro.compiler.build import compile_kernel
    from repro.compiler.kernel import OutputSpec
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var
    from repro.semirings import FLOAT
    from repro.workloads import dense_vector, sparse_matrix

    profile = default_profile()
    profile.measured = True
    profile.generated = time.strftime("%Y-%m-%dT%H:%M:%S")

    n = 2000
    A = sparse_matrix(n, n, 0.01, attrs=("i", "j"), seed=11)
    x = dense_vector(n, attr="j", seed=12)
    ctx = TypeContext(Schema.of(i=None, j=None),
                      {"A": {"i", "j"}, "x": {"j"}})
    expr = Sum("j", Var("A") * Var("x"))
    out = OutputSpec(("i",), ("dense",), (n,))
    tensors = {"A": A, "x": x}
    stats = [OperandStats.from_tensor("A", A),
             OperandStats.from_tensor("x", x)]
    units = estimate(("i", "j"), stats, ("i",), {"i": n, "j": n}).units

    backends = ["python"]
    if resilience.toolchain_available():
        backends.insert(0, "c")
    kernels = {}
    for backend in backends:
        try:
            k = compile_kernel(expr, ctx, tensors, out, semiring=FLOAT,
                               backend=backend, cache=False,
                               name="atun_cal")
            t = _best(lambda: k.run(tensors, parallel=False), reps=3)
            profile.per_op_s[backend] = max(t / max(units, 1.0), 1e-12)
            kernels[backend] = (k, t)
        except Exception as exc:  # a broken backend keeps its default
            logger.warning("calibration: backend %r probe failed (%s)",
                           backend, exc)

    ref_backend = backends[0]
    if ref_backend in kernels:
        kernel, t_serial = kernels[ref_backend]
        for executor in executors:
            try:
                t_two = _best(
                    lambda: kernel.run(tensors, parallel=executor,
                                       workers=2, shards=2),
                    reps=3,
                )
                profile.speedup2[executor] = max(t_serial / max(t_two, 1e-9),
                                                 0.1)
                # dispatch cost: single-shard run through the executor
                # vs the in-process run — pure machinery, no extra work
                t_one = _best(
                    lambda: kernel.run(tensors, parallel=executor,
                                       workers=1, shards=1),
                    reps=3,
                )
                profile.dispatch_s[executor] = max(t_one - t_serial, 1e-6)
            except Exception as exc:
                logger.warning("calibration: executor %r probe failed (%s)",
                               executor, exc)
        if "pool" in profile.speedup2:
            # the pool accounts its own per-call machinery overhead;
            # prefer that direct measurement when calls have happened
            try:
                from repro.runtime.pool import get_shared_pool

                measured = get_shared_pool().stats.avg_overhead_s
                if measured > 0:
                    profile.dispatch_s["pool"] = measured
            except Exception:
                pass
    return profile


# ----------------------------------------------------------------------
# the profile the tuner actually uses
# ----------------------------------------------------------------------
_active: Optional[CalibrationProfile] = None


def get_profile() -> CalibrationProfile:
    """The process-wide calibration profile: the memo, else a persisted
    profile, else conservative defaults — it never measures."""
    global _active
    if _active is None:
        _active = load_profile() or default_profile()
    return _active


def calibrate(force: bool = False) -> CalibrationProfile:
    """Measure (or load) the machine profile explicitly and persist it."""
    global _active
    if not force:
        loaded = load_profile()
        if loaded is not None and loaded.measured:
            _active = loaded
            return loaded
    profile = measure_profile()
    store_profile(profile)
    _active = profile
    return profile


def reset_profile_cache() -> None:
    """Drop the in-process profile memo (tests switch cache dirs)."""
    global _active
    _active = None


__all__ = [
    "CalibrationProfile",
    "calibrate",
    "default_profile",
    "get_profile",
    "load_profile",
    "measure_profile",
    "reset_profile_cache",
    "store_profile",
    "tune_cache_dir",
    "PROFILE_NAME",
]
