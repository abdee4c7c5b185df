"""Concurrent kernel builds: two processes racing on one cache key must
both succeed and agree — whichever wins the per-key lock compiles, the
other either waits for the lock or rebuilds harmlessly (publication via
``os.replace`` is atomic, so a reader never sees a half-written
artifact).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import codegen_c
from repro.compiler.build import compile_kernel
from tests.faults.conftest import expected_spmv, requires_gcc, spmv_problem

WORKER = Path(__file__).with_name("_concurrent_worker.py")
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _launch(backend: str, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(WORKER), backend],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _run_pair(backend: str, tmp_path, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path / "shared_cache")
    env.update(extra_env or {})
    procs = [_launch(backend, env), _launch(backend, env)]
    outs = []
    for p in procs:
        out, err = p.communicate(timeout=180)
        assert p.returncode == 0, f"worker failed:\nstdout:\n{out}\nstderr:\n{err}"
        outs.append(out)
    checks = [ln for out in outs for ln in out.splitlines() if ln.startswith("CHECK")]
    assert len(checks) == 2 and checks[0] == checks[1], checks
    return env, checks[0]


def test_concurrent_python_builds_agree(tmp_path):
    _run_pair("python", tmp_path)
    # both workers leave a single intact payload behind
    entries = list((tmp_path / "shared_cache").glob("kmeta_*.json"))
    assert len(entries) == 1


@requires_gcc
def test_concurrent_c_builds_agree(tmp_path):
    """Stretch the compile window with a slowed gcc wrapper so the two
    builders genuinely overlap inside ``_build``."""
    real_gcc = shutil.which("gcc")
    wrapper = tmp_path / "slow_gcc.sh"
    wrapper.write_text(f'#!/bin/sh\nsleep 1\nexec "{real_gcc}" "$@"\n')
    wrapper.chmod(0o755)
    env, _ = _run_pair("c", tmp_path, {"REPRO_GCC": str(wrapper)})
    so_files = list((tmp_path / "shared_cache").glob("concurrent_k_*.so"))
    assert len(so_files) == 1  # one key, one artifact, no torn files


def test_warm_process_served_from_disk(tmp_path):
    """After the race, a third process must be served by the disk tier
    with zero misses (cache_smoke's warm stage, as a real test)."""
    env, check = _run_pair("python", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(WORKER), "python"],
        capture_output=True, text=True, env=env, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"{check}" in proc.stdout
    stats = [ln for ln in proc.stdout.splitlines() if ln.startswith("STATS")][0]
    assert "disk_hits=1" in stats and "misses=0" in stats


def _slow_gcc(tmp_path) -> tuple:
    """A gcc that sleeps a second first, logging when each run starts
    and which source it compiles."""
    log = tmp_path / "gcc_starts.log"
    wrapper = tmp_path / "slow_gcc.sh"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'for a; do case "$a" in *.c) echo "$(date +%s.%N) $(basename "$a")" >> "{log}";; esac; done\n'
        f'sleep 1\nexec "{shutil.which("gcc")}" "$@"\n'
    )
    wrapper.chmod(0o755)
    return str(wrapper), log


def _starts(log) -> list:
    return [(float(t), name) for t, name in (ln.split() for ln in log.read_text().splitlines())]


@requires_gcc
def test_builds_overlap_up_to_the_cap(tmp_path, monkeypatch):
    """Two builds return with their gccs running side by side, so the
    two builds and two runs take one slow gcc, not two.  A third build
    past the cap of 2 waits for the oldest run before it starts its
    own (the wrapper sleeps, so this holds on one CPU too)."""
    wrapper, log = _slow_gcc(tmp_path)
    monkeypatch.setenv("REPRO_GCC", wrapper)
    monkeypatch.setattr(codegen_c, "IN_FLIGHT", 2)
    codegen_c.join_all()
    ctx, expr, out, tensors = spmv_problem()

    def build(name):
        return compile_kernel(expr, ctx, tensors, out, backend="c", name=name)

    t0 = time.monotonic()
    kernels = [build("overlap_a"), build("overlap_b")]
    results = [k.run(tensors) for k in kernels]
    assert time.monotonic() - t0 < 1.8
    for result in results:
        np.testing.assert_allclose(np.asarray(result.vals), expected_spmv(tensors))

    log.write_text("")
    kernels = [build("cap_a"), build("cap_b"), build("cap_c")]
    assert all(k.c_backed for k in kernels)
    # cap_a's and cap_b's threads race to start their gccs, so only the
    # third start's place is fixed
    starts = _starts(log)
    assert sorted(name[:5] for _, name in starts[:2]) == ["cap_a", "cap_b"]
    assert starts[2][1][:5] == "cap_c"
    t = {name[:5]: when for when, name in starts}
    assert abs(t["cap_b"] - t["cap_a"]) < 0.5 and t["cap_c"] - t["cap_a"] >= 1.0


_BUILD_AND_EXIT = textwrap.dedent("""
    from repro.compiler import codegen_c
    from repro.compiler.build import compile_kernel
    from tests.faults.conftest import spmv_problem

    ctx, expr, out, tensors = spmv_problem()
    compile_kernel(expr, ctx, tensors, out, backend="c", name="exit_in_flight")
    assert [not gcc.done for gcc in codegen_c._in_flight.values()] == [True]
""")


@requires_gcc
def test_exit_reaps_a_build_in_flight(tmp_path):
    """A process that exits with its gcc running and its kernel never
    called leaves no gcc behind, no temporary ``*.build<pid>`` file,
    and the published .so."""
    wrapper, log = _slow_gcc(tmp_path)
    pids = tmp_path / "gcc.pid"
    text = Path(wrapper).read_text().replace("sleep 1", f'echo $$ > "{pids}"; sleep 1')
    Path(wrapper).write_text(text)
    cache = tmp_path / "cache"
    env = dict(os.environ, REPRO_GCC=wrapper, REPRO_KERNEL_CACHE_DIR=str(cache),
               PYTHONPATH=os.pathsep.join([REPO_SRC, str(Path(REPO_SRC).parent)]))
    proc = subprocess.run([sys.executable, "-c", _BUILD_AND_EXIT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with pytest.raises(ProcessLookupError):
        os.kill(int(pids.read_text()), 0)
    assert len(list(cache.glob("exit_in_flight_*.so"))) == 1
    assert not list(cache.glob("*.build*"))


_BUILD_AND_FORK = textwrap.dedent("""
    import os, sys
    from repro.compiler import codegen_c
    from repro.compiler.build import compile_kernel
    from tests.faults.conftest import spmv_problem

    ctx, expr, out, tensors = spmv_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="c", name="fork_bare")
    assert "repro.runtime.executor" not in sys.modules
    assert any(not gcc.done for gcc in codegen_c._in_flight.values())
    pid = os.fork()
    if pid == 0:
        os._exit(0 if not codegen_c._in_flight else 3)
    assert all(gcc.done for gcc in codegen_c._in_flight.values())
    assert os.waitpid(pid, 0)[1] == 0
    assert kernel.c_backed
""")


@requires_gcc
def test_a_fork_without_the_runtime_joins_first(tmp_path):
    """The compiler owns its builds in flight: a program that compiles
    and forks without importing the runtime still joins every run
    before the fork, and its child starts with none."""
    wrapper, log = _slow_gcc(tmp_path)
    env = dict(os.environ, REPRO_GCC=wrapper,
               PYTHONPATH=os.pathsep.join([REPO_SRC, str(Path(REPO_SRC).parent)]))
    proc = subprocess.run([sys.executable, "-c", _BUILD_AND_FORK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


_BUILD_AND_RUN = textwrap.dedent("""
    import numpy as np
    from repro.compiler.build import compile_kernel
    from tests.faults.conftest import expected_spmv, spmv_problem

    ctx, expr, out, tensors = spmv_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="c", name="shared_key")
    np.testing.assert_allclose(np.asarray(kernel.run(tensors).vals), expected_spmv(tensors))
    assert kernel.c_backed
""")


@requires_gcc
def test_a_build_in_flight_is_published_when_gcc_exits(tmp_path, monkeypatch):
    """The per-key lock goes with gcc's exit, not with this process's
    join: a second process building the same key while this one never
    calls its kernel loads the .so this gcc published, without a gcc of
    its own and without waiting out the lock."""
    wrapper, log = _slow_gcc(tmp_path)
    monkeypatch.setenv("REPRO_GCC", wrapper)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([REPO_SRC, str(Path(REPO_SRC).parent)]))
    ctx, expr, out, tensors = spmv_problem()
    kernel = compile_kernel(expr, ctx, tensors, out, backend="c", name="shared_key")
    proc = subprocess.run([sys.executable, "-c", _BUILD_AND_RUN], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert [name[:10] for _, name in _starts(log)] == ["shared_key"]
    assert kernel.c_backed


@requires_gcc
def test_threads_building_and_joining_keep_the_cap(tmp_path, monkeypatch):
    """Six threads, more than the cap of 2 and than the cores, build
    three kernels twice each and run them under a short switch
    interval: every result is right, a source shared by two threads is
    compiled once, and no more than two gccs ever run at once."""
    log = tmp_path / "gcc.log"
    wrapper = tmp_path / "logged_gcc.sh"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'echo "$(date +%s.%N) 1" >> "{log}"\nsleep 0.2\n'
        f'"{shutil.which("gcc")}" "$@"; rc=$?\n'
        f'echo "$(date +%s.%N) -1" >> "{log}"\nexit $rc\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("REPRO_GCC", str(wrapper))
    monkeypatch.setattr(codegen_c, "IN_FLIGHT", 2)
    codegen_c.join_all()
    ctx, expr, out, tensors = spmv_problem()
    want = expected_spmv(tensors)
    failures = []

    def build_and_run(i):
        try:
            kernel = compile_kernel(expr, ctx, tensors, out, backend="c", name=f"stress_{i % 3}")
            np.testing.assert_allclose(np.asarray(kernel.run(tensors).vals), want)
        except BaseException as exc:  # reported below, in the test's thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build_and_run, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not failures, failures
    events = sorted((float(t), int(d)) for t, d in (ln.split() for ln in log.read_text().splitlines()))
    assert len(events) == 2 * 3
    running = [sum(d for _, d in events[:k + 1]) for k in range(len(events))]
    assert max(running) <= 2
