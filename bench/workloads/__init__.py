"""The five workloads.  Each one is a :class:`Workload` subclass in its
own module; :func:`load` maps a workload name to an instance."""

from __future__ import annotations

import importlib
from typing import Dict, List

from bench.harness import Cell
from bench.spans import Tracer

NAMES = ("lib_kernel", "lib_dispatch", "build_cold", "job_sharded", "serve_query")

#: ``--seconds`` value the per-workload round counts are written for
DEFAULT_SECONDS = 12


class Workload:
    """What the driver in ``run.py`` needs from a workload.

    ``generate`` is the harness's own work (inputs and oracle values);
    ``setup`` is the program's work before the first timed op and is
    what ``setup_s`` times.  ``setup`` runs several times per run, each
    time against empty private cache dirs; ``tag`` keeps kernel names —
    and therefore every cache key — distinct between repetitions,
    ``final`` marks the repetition whose state the timed ops use, and
    ``teardown`` undoes one ``setup``.
    """

    name = ""
    #: timed rounds at ``DEFAULT_SECONDS`` (× samples per round ≥ 100)
    rounds = 10

    def generate(self, seed: int, smoke: bool) -> None:
        raise NotImplementedError

    def input_bytes(self) -> bytes:
        """Everything ``generate`` drew from the seed, as bytes (the
        self-tests compare runs of the generators with this)."""
        from bench.datagen import tensor_bytes

        return b"".join(
            tensor_bytes(p.tensors[var])
            for _name, p in sorted(self.programs.items())
            for var in sorted(p.tensors)
        )

    def setup(self, tag: str, final: bool) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def cells(self) -> List[Cell]:
        raise NotImplementedError

    def trace(self, tracer: Tracer, rounds: int, untraced: Dict[str, float]) -> Dict[str, float]:
        """Re-execute every cell's op as the sequence of public calls
        the library makes, each inside a span; returns the per-layer
        metrics that are counts or come from outside the spans.
        ``untraced`` maps cell name to its untraced median in ms."""
        raise NotImplementedError


def load(name: str) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    module = importlib.import_module(f"bench.workloads.{name}")
    return module.WORKLOAD()
