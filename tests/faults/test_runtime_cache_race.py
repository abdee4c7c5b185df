"""Pool workers racing on the kernel cache.

Two parent processes each run a sharded SpMV on the pool executor
(two spawn-started workers apiece) against one shared
``REPRO_KERNEL_CACHE_DIR``.  Every pool worker rebuilds the kernel
from its recipe, so up to four processes hit the same cache key at
once; the per-key file locks must serialize the rebuilds and all
parties must agree on the result, with no shard falling back to the
in-parent retry path.  The start method is pinned: forked workers (the
default) inherit the parent's memo and only the two parents would
race — cold workers on the disk tier are the point here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).with_name("_shard_race_worker.py")
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env(tmp_path) -> dict:
    env = dict(os.environ, REPRO_MP_START="spawn")
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path / "shared_cache")
    return env


def _launch(env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def test_process_workers_race_on_shared_cache(tmp_path):
    env = _env(tmp_path)
    procs = [_launch(env), _launch(env)]
    outs = []
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, f"worker failed:\nstdout:\n{out}\nstderr:\n{err}"
        outs.append(out)

    checks = [ln for out in outs for ln in out.splitlines()
              if ln.startswith("CHECK")]
    assert len(checks) == 2 and checks[0] == checks[1], checks
    retried = [ln for out in outs for ln in out.splitlines()
               if ln.startswith("RETRIED")]
    assert retried == ["RETRIED 0", "RETRIED 0"], retried

    # one key, one intact payload — no torn or duplicated artifacts
    entries = list((tmp_path / "shared_cache").glob("kmeta_*.json"))
    assert len(entries) == 1


def test_spawn_worker_rebuild_hits_disk_tier(tmp_path):
    """A second run against the now-warm cache must still agree (its
    spawn workers are served entirely by the disk tier)."""
    env = _env(tmp_path)
    first = subprocess.run(
        [sys.executable, str(WORKER)], capture_output=True, text=True,
        env=env, timeout=300,
    )
    assert first.returncode == 0, first.stderr
    second = subprocess.run(
        [sys.executable, str(WORKER)], capture_output=True, text=True,
        env=env, timeout=300,
    )
    assert second.returncode == 0, second.stderr
    check1 = [ln for ln in first.stdout.splitlines() if ln.startswith("CHECK")]
    check2 = [ln for ln in second.stdout.splitlines() if ln.startswith("CHECK")]
    assert check1 == check2
    # the warm parent builds from the disk payload without a miss
    stats = [ln for ln in second.stdout.splitlines() if ln.startswith("STATS")][0]
    assert "misses=0" in stats, stats
