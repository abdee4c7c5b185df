"""Where benchmark reports land: tmp scratch vs committed record.

The ``benchmarks/`` suite (and the serve load test) write
``BENCH_*.json`` result files.  Historically they wrote straight to
the repo root, so every local or CI run dirtied the working tree with
machine-specific numbers.  Writers now route through
:func:`report_path`: by default reports go to a per-user scratch
directory; set ``REPRO_BENCH_RECORD=1`` to write to the repo root
when you *intend* to commit fresh numbers.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import config

#: the repository root (this file lives at src/repro/benchrecord.py)
REPO_ROOT = Path(__file__).resolve().parents[2]


def report_path(filename: str) -> Path:
    """Destination for a ``BENCH_*.json`` report.

    Repo root under ``REPRO_BENCH_RECORD=1`` (committing a fresh
    record); otherwise a scratch directory under the system tmpdir so
    routine runs never dirty the working tree."""
    if config.get("REPRO_BENCH_RECORD"):
        return REPO_ROOT / filename
    scratch = Path(tempfile.gettempdir()) / "repro_bench"
    scratch.mkdir(parents=True, exist_ok=True)
    return scratch / filename


__all__ = ["report_path"]
