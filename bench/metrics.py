"""Metric names, units and how each is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the single list of names; the
self-tests check ``BENCHMARK.json`` against them.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import numpy as np

from bench.harness import Cell
from bench.spans import Tracer

#: name → unit of the gated metrics; every workload reports all three
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "code_bytes": "bytes",
}

#: the timings of the ops.  Wall time on the sandbox this was defined on
#: differs by 8–34 % between runs of identical code (see README), so by
#: the issue's rule they are per-layer metrics, reported but not gated
TIMINGS = {
    "p50_geomean_ms": "ms",
    "p90_geomean_ms": "ms",
    "throughput_ops_s": "ops/s",
}

#: span name → (metric, unit, ns per unit): the metric is the geometric
#: mean over the cells where the span occurs of its per-cell median
#: self time
SPAN_METRICS = {
    "tensor.plan": ("tensor.plan_us", "us", 1e3),
    "autotune.lookup": ("autotune.lookup_us", "us", 1e3),
    "streamprops.verify": ("streamprops.verify_us", "us", 1e3),
    "cache.key": ("cache.key_us", "us", 1e3),
    "cache.mem_hit": ("cache.mem_hit_us", "us", 1e3),
    "cache.disk_restore": ("cache.disk_restore_ms", "ms", 1e6),
    "lower": ("lower.ms", "ms", 1e6),
    "dest.compile_stream": ("dest.compile_stream_ms", "ms", 1e6),
    "opt": ("opt.ms", "ms", 1e6),
    "intervals.lint": ("intervals.lint_ms", "ms", 1e6),
    "codegen_c.emit": ("codegen_c.emit_ms", "ms", 1e6),
    "codegen_c.gcc": ("codegen_c.gcc_ms", "ms", 1e6),
    "codegen_py.emit": ("codegen_py.emit_ms", "ms", 1e6),
    "kernel.bind": ("kernel.bind_us", "us", 1e3),
    "kernel.exec": ("kernel.exec_us", "us", 1e3),
    "kernel.assemble": ("kernel.assemble_us", "us", 1e3),
    "planner.plan": ("planner.plan_us", "us", 1e3),
    "merge": ("merge.ms", "ms", 1e6),
    "shm.export": ("shm.export_us", "us", 1e3),
    "serve.http": ("serve.http_ms", "ms", 1e6),
    "serve.prepare": ("serve.prepare_ms", "ms", 1e6),
    "serve.build": ("serve.build_ms", "ms", 1e6),
    "serve.execute": ("serve.execute_ms", "ms", 1e6),
    "serve.encode": ("serve.encode_ms", "ms", 1e6),
}

#: metrics a workload's ``trace`` returns, or the driver fills in: counts,
#: ratios and differences that are not the self time of one span
OTHER_LAYER = {
    "autotune.hit_ratio": "ratio",
    "autotune.pred_over_meas": "ratio",
    "cache.hit_ratio": "ratio",
    "opt.ir_nodes_in": "count",
    "opt.ir_nodes_out": "count",
    "kernel.overhead_share": "ratio",
    "pool.dispatch_ms": "ms",
    "pool.boot_s": "s",
    "supervisor.overhead_ms": "ms",
    "jobs.journal_overhead_ms": "ms",
    "jobs.journal_bytes": "bytes",
    "serve.bytes_in": "bytes",
    "serve.bytes_out": "bytes",
    "serve.boot_s": "s",
    "setup.import_s": "s",
    "setup.compile_s": "s",
    "setup.warmup_s": "s",
    "harness.datagen_s": "s",
    "harness.ops": "count",
    "harness.leaked_segments": "count",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

PER_LAYER = dict(TIMINGS)
PER_LAYER.update((m, unit) for m, unit, _ in SPAN_METRICS.values())
PER_LAYER.update(OTHER_LAYER)


def untraced_medians(cells: List[Cell]) -> Dict[str, float]:
    """Cell name → median of its untraced samples, in ms."""
    return {c.name: statistics.median(c.times_ms) for c in cells if c.times_ms}


def timings(cells: List[Cell]) -> Dict[str, dict]:
    """Per-cell statistics first, combined by geometric mean — never
    pooled across cells of different cost.  Throughput is total calls ÷
    timed wall time: closed loop, one caller."""
    timed = [c for c in cells if c.times_ms]
    calls = sum(c.batch * len(c.times_ms) for c in timed)
    busy_s = sum(c.batch * sum(c.times_ms) for c in timed) / 1e3
    values = {
        "p50_geomean_ms": statistics.geometric_mean(
            statistics.median(c.times_ms) for c in timed),
        "p90_geomean_ms": statistics.geometric_mean(
            np.percentile(c.times_ms, 90) for c in timed),
        "throughput_ops_s": calls / busy_s,
    }
    return {k: {"value": v, "unit": TIMINGS[k]} for k, v in values.items()}


def end_to_end(*, setup_s: float, peak_rss_mb: float, code_bytes: int) -> Dict[str, dict]:
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "code_bytes": code_bytes}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _geomean_or_zero(values) -> float:
    positive = [v for v in values if v > 0]
    return statistics.geometric_mean(positive) if positive else 0.0


def per_layer(tracer: Tracer, cells: List[Cell], extra: Dict[str, float],
              setup: Dict[str, float], *, attempted: int, leaked: int) -> Dict[str, dict]:
    """Every per-layer metric; a layer the workload does not exercise
    reports 0."""
    values = {name: 0.0 for name in PER_LAYER}
    per_cell = {key: statistics.median(self_ns)
                for key, self_ns in tracer.self_times().items()}
    by_span: Dict[str, List[float]] = {}
    for (_cell, span), median_ns in per_cell.items():
        by_span.setdefault(span, []).append(median_ns)
    for span, (metric, _unit, ns_per) in SPAN_METRICS.items():
        values[metric] = _geomean_or_zero(by_span.get(span, ())) / ns_per

    # the discriminator between the two library workloads: the share of
    # Kernel.run that is not the generated loop nest
    shares = []
    for cell in {c for c, _ in per_cell}:
        parts = [per_cell.get((cell, s)) for s in
                 ("kernel.bind", "kernel.exec", "kernel.assemble")]
        if all(parts):
            bind, run, assemble = parts
            shares.append(1.0 - run / (bind + run + assemble))
    if shares:
        values["kernel.overhead_share"] = sum(shares) / len(shares)

    untraced = untraced_medians(cells)
    coverage, slowdown = [], []
    for cell, pairs in tracer.op_times().items():
        if cell not in untraced:
            continue
        base_ns = untraced[cell] * 1e6
        coverage.append(statistics.median([c for _d, c in pairs]) / base_ns)
        slowdown.append(statistics.median([d for d, _c in pairs]) / base_ns)
    values["trace.coverage"] = _geomean_or_zero(coverage)
    values["trace.overhead_ratio"] = _geomean_or_zero(slowdown)
    values.update((k, m["value"]) for k, m in timings(cells).items())
    values["harness.ops"] = float(attempted)
    values["harness.leaked_segments"] = float(leaked)
    values.update(setup)
    unknown = set(extra) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"workload reported unknown layer metrics {sorted(unknown)}")
    values.update(extra)
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def print_metrics(metrics: Dict[str, dict]) -> None:
    for name, m in metrics.items():
        print(f"{name:<28}{m['value']:>18.6f} {m['unit']}")


def print_breakdown(tracer: Tracer) -> None:
    """Per cell, the median self time of every span and how often it
    was recorded — the table a layer-by-layer account is read from."""
    print(f"{'cell':<24}{'span':<24}{'count':>8}{'median self ms':>16}")
    for (cell, span), self_ns in tracer.self_times().items():
        print(f"{cell:<24}{span:<24}{len(self_ns):>8}"
              f"{statistics.median(self_ns) / 1e6:>16.4f}")


def print_coverage(tracer: Tracer, cells: List[Cell]) -> None:
    """Per-cell view of the decomposition check."""
    untraced = untraced_medians(cells)
    print(f"{'cell':<24}{'untraced ms':>14}{'traced ms':>12}{'children ms':>14}{'coverage':>10}")
    for cell, pairs in tracer.op_times().items():
        if cell not in untraced:
            continue
        dur = statistics.median([d for d, _c in pairs]) / 1e6
        cov = statistics.median([c for _d, c in pairs]) / 1e6
        print(f"{cell:<24}{untraced[cell]:>14.4f}{dur:>12.4f}{cov:>14.4f}"
              f"{cov / untraced[cell]:>10.3f}")
