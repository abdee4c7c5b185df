#!/usr/bin/env python3
"""Regenerate the paper's evaluation tables (Section 8) in one run.

Prints, for every figure, the same series the paper reports —
normalized runtimes, speedups, and scaling slopes — using the library's
compiled kernels against the baselines.  The output of this script is
recorded in EXPERIMENTS.md.

Usage: python benchmarks/report.py [--quick]
"""

from __future__ import annotations

import argparse
import time

import numpy as np


def timeit(fn, min_time=0.2, max_reps=1000):
    fn()  # warm-up
    reps = 0
    t0 = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time or reps >= max_reps:
            return elapsed / reps


def header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


# ----------------------------------------------------------------------
def fig17(quick: bool) -> None:
    from repro.baselines import taco
    from repro.compiler.kernel import OutputSpec, compile_kernel
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var
    from repro.workloads import dense_matrix, dense_vector, sparse_matrix, sparse_tensor3

    header("Figure 17: sparse tensor algebra, Etch runtime relative to TACO "
           "(lower is better; paper band 0.75-1.2x, add 2-3x, smul <1x)")
    n = 1000 if quick else 2000
    schema = Schema.of(i=None, j=None, k=None)
    densities = [0.001, 0.01, 0.05]
    print(f"{'expr':<8}" + "".join(f"{d:>12}" for d in densities))

    rows = {}

    def mat(d, attrs=("i", "j"), formats=("dense", "sparse"), seed=0):
        return sparse_matrix(n, n, d, attrs=attrs, formats=formats, seed=seed)

    # spmv
    xt = dense_vector(n, attr="j", seed=2)
    x = np.ascontiguousarray(xt.vals, dtype=np.float64)
    ratios = []
    for d in densities:
        A = mat(d, seed=1)
        ctx = TypeContext(schema, {"A": {"i", "j"}, "x": {"j"}})
        k = compile_kernel(Sum("j", Var("A") * Var("x")), ctx,
                           {"A": A, "x": xt},
                           OutputSpec(("i",), ("dense",), (n,)), name="r17_spmv")
        t_etch = timeit(k.bind({"A": A, "x": xt}).run_only)
        t_taco = timeit(lambda: taco.spmv(A, x))
        ratios.append(t_etch / t_taco)
    rows["spmv"] = ratios

    # add
    ratios = []
    for d in densities:
        A, B = mat(d, seed=3), mat(d, seed=4)
        ctx = TypeContext(schema, {"A": {"i", "j"}, "B": {"i", "j"}})
        k = compile_kernel(Var("A") + Var("B"), ctx, {"A": A, "B": B},
                           OutputSpec(("i", "j"), ("dense", "sparse"), (n, n)),
                           name="r17_add")
        bound = k.bind({"A": A, "B": B}, capacity=A.nnz + B.nnz + 16)
        ratios.append(timeit(bound.run_only) / timeit(lambda: taco.add(A, B)))
    rows["add"] = ratios

    # inner
    ratios = []
    for d in densities:
        A, B = mat(d, seed=5), mat(d, seed=6)
        ctx = TypeContext(schema, {"A": {"i", "j"}, "B": {"i", "j"}})
        k = compile_kernel(Sum("i", Sum("j", Var("A") * Var("B"))), ctx,
                           {"A": A, "B": B}, name="r17_inner")
        ratios.append(timeit(k.bind({"A": A, "B": B}).run_only)
                      / timeit(lambda: taco.inner(A, B)))
    rows["inner"] = ratios

    # mmul
    ratios = []
    for d in densities:
        A, B = mat(d, seed=7), mat(d, attrs=("j", "k"), seed=8)
        ctx = TypeContext(schema, {"A": {"i", "j"}, "B": {"j", "k"}})
        k = compile_kernel(Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
                           OutputSpec(("i", "k"), ("dense", "sparse"), (n, n)),
                           name="r17_mmul")
        cap = min(n * n, max(1024, 40 * A.nnz))
        bound = k.bind({"A": A, "B": B}, capacity=cap)
        ratios.append(timeit(bound.run_only) / timeit(lambda: taco.mmul(A, B)))
    rows["mmul"] = ratios

    # smul (binary skip)
    ratios = []
    for d in densities:
        A = mat(d, formats=("sparse", "sparse"), seed=9)
        B = mat(d, attrs=("j", "k"), formats=("sparse", "sparse"), seed=10)
        ctx = TypeContext(schema, {"A": {"i", "j"}, "B": {"j", "k"}})
        k = compile_kernel(Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
                           OutputSpec(("i", "k"), ("sparse", "sparse"), (n, n)),
                           search="binary", name="r17_smul")
        cap = min(n * n, max(1024, 40 * A.nnz))
        bound = k.bind({"A": A, "B": B}, capacity=cap)
        ratios.append(timeit(bound.run_only) / timeit(lambda: taco.smul(A, B)))
    rows["smul"] = ratios

    # mttkrp
    nt, r = (100, 32)
    schema4 = Schema.of(i=None, k=None, l=None, j=None)
    ratios = []
    for d in [0.0005, 0.005]:
        B = sparse_tensor3((nt, nt, nt), d, attrs=("i", "k", "l"), seed=11)
        Cd = dense_matrix(nt, r, attrs=("k", "j"), seed=12)
        Dd = dense_matrix(nt, r, attrs=("l", "j"), seed=13)
        C = np.ascontiguousarray(Cd.vals.reshape(nt, r))
        D = np.ascontiguousarray(Dd.vals.reshape(nt, r))
        ctx = TypeContext(schema4, {"B": {"i", "k", "l"}, "C": {"k", "j"},
                                    "D": {"l", "j"}})
        k = compile_kernel(Sum("k", Sum("l", Var("B") * Var("C") * Var("D"))),
                           ctx, {"B": B, "C": Cd, "D": Dd},
                           OutputSpec(("i", "j"), ("dense", "dense"), (nt, r)),
                           name="r17_mttkrp")
        bound = k.bind({"B": B, "C": Cd, "D": Dd})
        ratios.append(timeit(bound.run_only) / timeit(lambda: taco.mttkrp(B, C, D)))
    rows["mttkrp"] = ratios + [float("nan")]

    for name, ratios in rows.items():
        print(f"{name:<8}" + "".join(f"{v:>11.2f}x" for v in ratios))


# ----------------------------------------------------------------------
def sec81(quick: bool) -> None:
    from repro.compiler.kernel import OutputSpec, compile_kernel
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var
    from repro.tensor import repack
    from repro.workloads import sparse_matrix

    header("Section 8.1: matmul attribute ordering "
           "(paper: inner product 40x slower at n=10000, k=20)")
    n = 1500 if quick else 4000
    kk = 15 if quick else 20
    X = sparse_matrix(n, n, kk / n, attrs=("i", "k"),
                      formats=("sparse", "sparse"), seed=1)
    Y = sparse_matrix(n, n, kk / n, attrs=("k", "j"),
                      formats=("sparse", "sparse"), seed=2)
    Yt = repack(Y, ("j", "k"), ("sparse", "sparse"))

    schema = Schema.of(i=None, k=None, j=None)
    ctx = TypeContext(schema, {"X": {"i", "k"}, "Y": {"k", "j"}})
    rows_k = compile_kernel(Sum("k", Var("X") * Var("Y")), ctx,
                            {"X": X, "Y": Y},
                            OutputSpec(("i", "j"), ("sparse", "sparse"), (n, n)),
                            name="r81_rows")
    schema2 = Schema.of(i=None, j=None, k=None)
    ctx2 = TypeContext(schema2, {"X": {"i", "k"}, "Yt": {"j", "k"}})
    inner_k = compile_kernel(Sum("k", Var("X") * Var("Yt")), ctx2,
                             {"X": X, "Yt": Yt},
                             OutputSpec(("i", "j"), ("sparse", "sparse"), (n, n)),
                             name="r81_inner")
    t_rows = timeit(rows_k.bind({"X": X, "Y": Y}, capacity=32 * X.nnz * kk).run_only,
                    min_time=0.5, max_reps=5)
    t_inner = timeit(inner_k.bind({"X": X, "Yt": Yt}, capacity=n * n + 16).run_only,
                     min_time=0.5, max_reps=3)
    print(f"n={n}, nnz={X.nnz}")
    print(f"linear combination of rows: {t_rows:.3f} s")
    print(f"inner product             : {t_inner:.3f} s")
    print(f"ordering speedup          : {t_inner / t_rows:.1f}x")


# ----------------------------------------------------------------------
def fig19(quick: bool) -> None:
    from repro.tpch import generate, q5, q9

    header("Figure 19: TPC-H Q5/Q9 speedup of Etch over SQLite and the "
           "pairwise engine (paper: >=24x over SQLite, 1.6x over DuckDB)")
    sfs = [0.002, 0.01] if quick else [0.002, 0.01, 0.02, 0.05]
    print(f"{'SF':>6} {'query':>6} {'etch (ms)':>10} {'sqlite (ms)':>12} "
          f"{'pairwise (ms)':>14} {'vs sqlite':>10} {'vs pairwise':>12}")
    for sf in sfs:
        data = generate(sf, seed=42)
        for label, module in (("Q5", q5), ("Q9", q9)):
            kernel, tensors = module.prepare_etch(data)
            bound = kernel.bind(tensors)
            db = module.load_sqlite(data)
            t_etch = timeit(bound.run_only)
            t_sql = timeit(lambda: module.run_sqlite(db))
            t_pw = timeit(lambda: module.run_pairwise(data), min_time=0.0,
                          max_reps=1)
            db.close()
            print(f"{sf:>6} {label:>6} {t_etch * 1e3:>10.2f} {t_sql * 1e3:>12.2f} "
                  f"{t_pw * 1e3:>14.2f} {t_sql / t_etch:>9.1f}x "
                  f"{t_pw / t_etch:>11.1f}x")


# ----------------------------------------------------------------------
def fig20(quick: bool) -> None:
    from repro.baselines.pairwise import triangle_count_pairwise
    from repro.baselines.sqlite_bridge import SqliteDB
    from repro.compiler.kernel import compile_kernel
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var
    from repro.semirings import INT
    from repro.workloads import triangle_relations, triangle_tensors

    header("Figure 20: triangle query scaling "
           "(paper: fused Θ(n), pairwise/SQLite Θ(n²))")
    sizes = [250, 500, 1000, 2000] if quick else [250, 500, 1000, 2000, 4000]
    sql = ("SELECT COUNT(*) FROM R, S, T "
           "WHERE R.b = S.b AND S.c = T.c AND T.a = R.a")
    print(f"{'n':>7} {'fused (ms)':>11} {'sqlite (ms)':>12} {'pairwise (ms)':>14}")
    times = {"fused": [], "sqlite": [], "pairwise": []}
    for n in sizes:
        Rt, St, Tt = triangle_tensors(n)
        schema = Schema.of(a=None, b=None, c=None)
        ctx = TypeContext(schema, {"R": {"a", "b"}, "S": {"b", "c"},
                                   "T": {"a", "c"}})
        expr = Sum("a", Sum("b", Sum("c", Var("R") * Var("S") * Var("T"))))
        kernel = compile_kernel(expr, ctx, {"R": Rt, "S": St, "T": Tt},
                                semiring=INT, name="r20_triangle")
        t_fused = timeit(kernel.bind({"R": Rt, "S": St, "T": Tt}).run_only)

        R, S, T = triangle_relations(n)
        db = SqliteDB()
        for name, rel in (("R", R), ("S", S), ("T", T)):
            db.load(name, rel)
        db.index("R", ("a", "b"))
        db.index("S", ("b", "c"))
        db.index("T", ("a", "c"))
        t_sql = timeit(lambda: db.query(sql), min_time=0.0, max_reps=1)
        db.close()
        t_pw = timeit(lambda: triangle_count_pairwise(R, S, T), min_time=0.0,
                      max_reps=1)
        times["fused"].append(t_fused)
        times["sqlite"].append(t_sql)
        times["pairwise"].append(t_pw)
        print(f"{n:>7} {t_fused*1e3:>11.3f} {t_sql*1e3:>12.1f} {t_pw*1e3:>14.1f}")

    def slope(series):
        xs = np.log(sizes)
        ys = np.log(series)
        return np.polyfit(xs, ys, 1)[0]

    print("\nlog-log slopes (paper: ~1 fused, ~2 baselines):")
    for name, series in times.items():
        print(f"  {name:<9} {slope(series):5.2f}")


# ----------------------------------------------------------------------
def fig21(quick: bool) -> None:
    from repro.compiler.kernel import OutputSpec, compile_kernel
    from repro.data import Tensor
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var
    from repro.semirings import FLOAT
    from repro.workloads import dense_vector, sparse_matrix

    header("Figure 21: filtered SpMV — runtime goes to zero as the filter "
           "selectivity approaches 100%")
    n = 20_000 if quick else 40_000
    A = sparse_matrix(n, n, 0.005, attrs=("i", "j"),
                      formats=("dense", "sparse"), seed=1)
    x = dense_vector(n, attr="j", seed=2)
    schema = Schema.of(i=None, j=None)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "x": {"j"}, "p": {"j"}})
    expr = Sum("j", Var("A") * Var("x") * Var("p"))
    out = OutputSpec(("i",), ("dense",), (n,))
    kernel = compile_kernel(expr, ctx, {"A": A, "x": x,
                                        "p": _pred(n, 0.0)}, out,
                            search="binary", name="r21_fspmv")
    print(f"{'selectivity':>12} {'time (ms)':>10}")
    base = None
    for sel in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
        p = _pred(n, sel)
        t = timeit(kernel.bind({"A": A, "x": x, "p": p}).run_only)
        base = base or t
        print(f"{sel:>12.2f} {t * 1e3:>10.3f}")
    print("(monotone decrease toward ~0, matching the paper's curve)")


def _pred(n, selectivity, seed=7):
    from repro.data import Tensor
    from repro.semirings import FLOAT

    rng = np.random.default_rng(seed)
    keep = rng.random(n) >= selectivity
    entries = {(int(j),): 1.0 for j in np.nonzero(keep)[0]}
    return Tensor.from_entries(("j",), ("sparse",), (n,), entries, FLOAT)


# ----------------------------------------------------------------------
def ablations(quick: bool) -> None:
    from repro.compiler.kernel import OutputSpec, compile_kernel
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var
    from repro.workloads import sparse_matrix, sparse_vector

    header("Ablations: skip strategy and fusion")
    n = 4000
    A = sparse_matrix(n, n, 0.0005, attrs=("i", "j"),
                      formats=("sparse", "sparse"), seed=1)
    B = sparse_matrix(n, n, 0.02, attrs=("j", "k"),
                      formats=("sparse", "sparse"), seed=2)
    schema = Schema.of(i=None, j=None, k=None)
    ctx = TypeContext(schema, {"A": {"i", "j"}, "B": {"j", "k"}})
    times = {}
    for search in ("linear", "binary"):
        k = compile_kernel(Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
                           OutputSpec(("i", "k"), ("sparse", "sparse"), (n, n)),
                           search=search, name=f"rabl_{search}")
        times[search] = timeit(
            k.bind({"A": A, "B": B}, capacity=min(n * n, 400 * A.nnz)).run_only
        )
    print(f"smul skip (asymmetric sparsity): linear {times['linear']*1e3:.2f} ms, "
          f"binary {times['binary']*1e3:.2f} ms "
          f"-> binary {times['linear']/times['binary']:.1f}x faster")

    m = 200_000
    sch = Schema.of(i=None)
    x = sparse_vector(m, 0.05, seed=1)
    y = sparse_vector(m, 0.05, seed=2)
    z = sparse_vector(m, 0.0005, seed=3)
    ctx3 = TypeContext(sch, {"x": {"i"}, "y": {"i"}, "z": {"i"}})
    fused = compile_kernel(Sum("i", Var("x") * Var("y") * Var("z")), ctx3,
                           {"x": x, "y": y, "z": z}, name="rabl_fused")
    ctx2 = TypeContext(sch, {"x": {"i"}, "y": {"i"}})
    pmul = compile_kernel(Var("x") * Var("y"), ctx2, {"x": x, "y": y},
                          OutputSpec(("i",), ("sparse",), (m,)), name="rabl_pmul")
    pdot = compile_kernel(Sum("i", Var("x") * Var("y")), ctx2, {"x": x, "y": y},
                          name="rabl_pdot")
    t_fused = timeit(fused.bind({"x": x, "y": y, "z": z}).run_only)
    cap = min(x.nnz, y.nnz) + 16

    def unfused():
        t = pmul.run({"x": x, "y": y}, capacity=cap)
        return pdot.run({"x": t, "y": z})

    t_unfused = timeit(unfused)
    print(f"x*y*z (z 100x sparser): fused {t_fused*1e3:.3f} ms, "
          f"unfused {t_unfused*1e3:.3f} ms "
          f"-> fusion {t_unfused/t_fused:.1f}x faster")


def parallel(quick: bool) -> None:
    import os

    from repro.compiler.kernel import OutputSpec, compile_kernel
    from repro.krelation import Schema
    from repro.lang import Sum, TypeContext, Var
    from repro.runtime import pool as pool_mod
    from repro.workloads import dense_matrix, sparse_matrix

    cpus = os.cpu_count() or 1
    header(f"Parallel runtime: sharded matmul scaling "
           f"({cpus} CPU(s); REPRO_PARALLEL/REPRO_WORKERS)")
    if cpus < 2:
        print("WARNING: single-CPU machine — the speedup column below "
              "measures dispatch\noverhead, NOT parallel scaling; do not "
              "quote it as a scaling result.")
    n = 2000 if quick else 4000
    k = 256 if quick else 512
    A = sparse_matrix(n, n, 0.02, attrs=("i", "j"), seed=3)
    B = dense_matrix(n, k, attrs=("j", "k"), seed=4)
    ctx = TypeContext(Schema.of(i=None, j=None, k=None),
                      {"A": {"i", "j"}, "B": {"j", "k"}})
    kernel = compile_kernel(
        Sum("j", Var("A") * Var("B")), ctx, {"A": A, "B": B},
        OutputSpec(("i", "k"), ("dense", "dense"), (n, k)),
        name="report_par_matmul",
    )
    tensors = {"A": A, "B": B}
    base = timeit(lambda: kernel._run_single(tensors))
    print(f"{'configuration':<28}{'ms':>10}{'speedup':>10}")
    print(f"{'unsharded':<28}{base*1e3:>10.2f}{1.0:>10.2f}")
    for executor in ("serial", "thread", "pool"):
        for w in (2, 4):
            t = timeit(lambda: kernel.run_sharded(
                tensors, executor=executor, workers=w, shards=w))
            print(f"{executor + ' x' + str(w):<28}{t*1e3:>10.2f}"
                  f"{base/t:>10.2f}")
    t_warm = timeit(lambda: pool_mod.run_pooled(kernel, tensors))
    print(f"{'pooled supervised (warm)':<28}{t_warm*1e3:>10.2f}"
          f"{base/t_warm:>10.2f}")
    pool_mod.shutdown_shared_pool()


# ----------------------------------------------------------------------
def deltas(quick: bool = False) -> None:
    """Cross-PR benchmark comparison: BENCH_PR6 vs the PR 4/PR 5
    baselines, with non-representative (single-CPU) reports flagged.

    Tolerant of missing or partially-written reports: a benchmark run
    interrupted mid-suite leaves a valid-JSON file with some workloads
    or metrics absent, and a half-written file may not parse at all —
    every lookup below degrades to "skip that row", never a crash."""
    import json
    import os
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    reports = {}
    for tag in ("PR4", "PR5", "PR6", "serve", "PR8", "PR9", "PR10"):
        path = root / f"BENCH_{tag}.json"
        if not path.exists():
            continue
        try:
            loaded = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"[skipping unreadable {path.name}: {exc}]")
            continue
        if isinstance(loaded, dict):
            reports[tag] = loaded

    header("Benchmark deltas across PRs (BENCH_PR4/PR5/PR6.json)")
    if not reports:
        print("no BENCH_*.json reports found; run the benchmarks/ suite "
              "first")
        return
    for tag, rep in reports.items():
        if tag in ("serve", "PR8", "PR9", "PR10"):
            continue      # rendered by their own sections below
        cpus = rep.get("cpus", "?")
        flag = ("" if isinstance(cpus, int) and cpus >= 2 else
                "  [NON-REPRESENTATIVE: single CPU — speedups are "
                "dispatch overhead, not scaling]")
        print(f"{tag}: backend={rep.get('backend', '?')}, cpus={cpus}, "
              f"generated={rep.get('generated', '?')}{flag}")

    pr5 = reports.get("PR5", {}).get("results", {})
    pr6 = reports.get("PR6", {}).get("results", {})

    if pr6:
        print(f"\n{'workload':<10}{'metric':<34}{'PR5':>12}"
              f"{'PR6':>12}{'change':>10}")
        for wl, r6 in pr6.items():
            if not isinstance(r6, dict):
                continue
            r5 = pr5.get(wl, {})
            new = r6.get("supervised_slowdown", {}).get("pool_warm")
            if "slowdown" in r5 and new is not None:
                old = r5["slowdown"]
                change = (f"{old / new:>9.2f}x" if new else "      n/a")
                print(f"{wl:<10}{'supervised slowdown fork -> pool':<34}"
                      f"{old:>12.4f}{new:>12.4f}{change}")
        print("\n(PR5's supervised run forks per call; PR6 amortizes the "
              "sandbox into resident\npooled workers with shared-memory "
              "operands.)")

    _serve_section(reports.get("serve"))
    _pr8_section(reports.get("PR8"))
    _pr9_section(reports.get("PR9"))
    _pr10_section(reports.get("PR10"))


def _pr10_section(rep) -> None:
    """Render BENCH_PR10.json (benchmarks/test_resume_overhead.py): the
    durable-job layer's costs — journaling overhead of durable=True,
    how much of a killed job resume saves, and the governed spill +
    streaming merge penalty."""
    if not rep:
        return
    results = rep.get("results")
    if not isinstance(results, dict) or not results:
        return
    header("Durable jobs & memory governor (BENCH_PR10.json)")
    print(f"shards={rep.get('shards', '?')}, cpus={rep.get('cpus', '?')}, "
          f"generated={rep.get('generated', '?')}")
    def _ratio(value):
        return f"{value:.2f}" if isinstance(value, (int, float)) else "?"

    jo = results.get("journal_overhead")
    if isinstance(jo, dict) and isinstance(jo.get("seconds"), dict):
        s = jo["seconds"]
        print(f"journal:  plain {s.get('plain', float('nan')):.6f}s -> "
              f"durable {s.get('durable', float('nan')):.6f}s  "
              f"({_ratio(jo.get('slowdown'))}x; checksummed atomic shard "
              "writes)")
    res = results.get("resume")
    if isinstance(res, dict) and isinstance(res.get("seconds"), dict):
        s = res["seconds"]
        print(f"resume:   skipped {res.get('skipped_on_resume', '?')}/"
              f"{res.get('shards', '?')} shards; "
              f"uninterrupted {s.get('uninterrupted', float('nan')):.6f}s "
              f"-> resume {s.get('resume', float('nan')):.6f}s  "
              f"(ratio {_ratio(res.get('resume_ratio'))})")
    sp = results.get("spill_merge")
    if isinstance(sp, dict) and isinstance(sp.get("seconds"), dict):
        s = sp["seconds"]
        print(f"spill:    eager {s.get('eager', float('nan')):.6f}s -> "
              f"spilling {s.get('spilling', float('nan')):.6f}s  "
              f"({_ratio(sp.get('slowdown'))}x with {sp.get('spills', '?')} "
              "spilled partial(s), streaming ⊕-merge)")


def _pr9_section(rep) -> None:
    """Render BENCH_PR9.json (benchmarks/test_autotune_ablation.py):
    the autotuner ablation — every workload under each fixed global
    policy vs the adaptive tuner, plus the geometric-mean summary.
    The acceptance bar: adaptive within 10% of the best fixed policy
    per workload, and beating every fixed policy overall."""
    if not rep:
        return
    results = rep.get("results")
    if not isinstance(results, dict) or not results:
        return
    header("Autotuner ablation: adaptive vs fixed policies "
           "(BENCH_PR9.json)")
    flag = " [SMOKE — sizes shrunk, not representative]" \
        if rep.get("smoke") else ""
    print(f"backend={rep.get('backend', '?')}, "
          f"cpus={rep.get('cpus', '?')}, "
          f"generated={rep.get('generated', '?')}{flag}")
    workloads = results.get("workloads")
    if isinstance(workloads, dict) and workloads:
        policies = []
        for row in workloads.values():
            if isinstance(row, dict) and isinstance(row.get("fixed_s"), dict):
                policies = list(row["fixed_s"])
                break
        head = f"\n{'workload':<16}" + "".join(
            f"{p:>10}" for p in policies) + f"{'adaptive':>10}{'vs best':>9}"
        print(head)
        for wl, row in workloads.items():
            if not isinstance(row, dict):
                continue
            fixed = row.get("fixed_s", {})
            cells = "".join(
                f"{fixed.get(p, float('nan')) * 1e3:>9.2f}m"
                for p in policies)
            ad = row.get("adaptive_s")
            ratio = row.get("adaptive_vs_best_fixed", "?")
            print(f"{wl:<16}{cells}"
                  f"{(ad or float('nan')) * 1e3:>9.2f}m{ratio:>8}x")
    geo = results.get("geomean_s")
    if isinstance(geo, dict) and geo:
        ranked = sorted(
            (v, k) for k, v in geo.items() if isinstance(v, (int, float)))
        print("\ngeomean across the mix:")
        for v, k in ranked:
            marker = "  <- adaptive" if k == "adaptive" else ""
            print(f"  {k:<10}{v * 1e3:>9.3f} ms{marker}")
    decisions = results.get("decisions")
    if isinstance(decisions, dict):
        print("\ntuned decisions (spot checks):")
        for wl, d in decisions.items():
            if isinstance(d, dict):
                print(f"  {wl}: order={d.get('order')}, "
                      f"out={d.get('output_formats')}, "
                      f"search={d.get('search')}")


def _pr8_section(rep) -> None:
    """Render BENCH_PR8.json (benchmarks/test_verify_overhead.py): the
    static stream-property verifier's cost on cold compiles, warm
    (memoized) prepares, and in isolation.  The acceptance bar is ≤5%
    cold-compile overhead."""
    if not rep:
        return
    results = rep.get("results")
    if not isinstance(results, dict) or not results:
        return
    header("Stream-property verifier overhead (BENCH_PR8.json)")
    print(f"backend={rep.get('backend', '?')}, "
          f"cpus={rep.get('cpus', '?')}, "
          f"generated={rep.get('generated', '?')}")
    cold = results.get("cold_build")
    if isinstance(cold, dict):
        print(f"cold compile:  off {cold.get('off_s', float('nan')):.6f}s"
              f" -> on {cold.get('on_s', float('nan')):.6f}s  "
              f"({cold.get('overhead_pct', '?')}% overhead; bar is 5%)")
    warm = results.get("warm_prepare")
    if isinstance(warm, dict):
        print(f"warm prepare:  {warm.get('ratio', '?')}x with the pass on "
              "(memoized by cache key)")
    ve = results.get("verify_expr")
    if isinstance(ve, dict) and "best_s" in ve:
        print(f"analysis alone: {ve['best_s'] * 1e6:.1f} µs per "
              "3-node expression")


def _serve_section(rep) -> None:
    """Render BENCH_serve.json (tests/serve/test_load.py): latency
    percentiles unloaded vs under 2x-QPS overload, shed behavior, and
    the SIGTERM drain timing.  Partial reports print what they have."""
    if not rep:
        return
    results = rep.get("results")
    if not isinstance(results, dict) or not results:
        return
    header("Serving layer (BENCH_serve.json)")
    print(f"admission: qps={rep.get('qps', '?')}, "
          f"burst={rep.get('burst', '?')}, cpus={rep.get('cpus', '?')}, "
          f"generated={rep.get('generated', '?')}")

    lat_rows = []
    unloaded = results.get("unloaded")
    if isinstance(unloaded, dict):
        lat_rows.append(("unloaded", unloaded))
    overload = results.get("overload", {})
    if isinstance(overload, dict):
        admitted = overload.get("admitted_latency")
        if isinstance(admitted, dict):
            lat_rows.append(("admitted @ 2x QPS", admitted))
        shed = overload.get("shed_latency")
        if isinstance(shed, dict):
            lat_rows.append(("shed (429/503)", shed))
    if lat_rows:
        print(f"\n{'phase':<20}{'n':>6}{'p50 ms':>10}{'p90 ms':>10}"
              f"{'p99 ms':>10}")
        for label, row in lat_rows:
            print(f"{label:<20}{row.get('count', 0):>6}"
                  f"{row.get('p50_ms', float('nan')):>10.2f}"
                  f"{row.get('p90_ms', float('nan')):>10.2f}"
                  f"{row.get('p99_ms', float('nan')):>10.2f}")
    if isinstance(overload, dict) and "offered" in overload:
        print(f"\noverload: offered {overload['offered']} "
              f"({overload.get('offered_qps', '?')} qps) -> "
              f"{overload.get('admitted', '?')} admitted, "
              f"{overload.get('shed', '?')} shed "
              f"(statuses {overload.get('shed_statuses', [])})")
    drain = results.get("drain")
    if isinstance(drain, dict):
        print(f"drain: SIGTERM -> exit {drain.get('exit_code', '?')} in "
              f"{drain.get('elapsed_s', '?')}s "
              f"(budget {drain.get('budget_s', '?')}s, in-flight "
              f"completed: {drain.get('in_flight_completed', '?')})")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes (~1 minute total)")
    parser.add_argument("--deltas", action="store_true",
                        help="only print the cross-PR benchmark deltas")
    args = parser.parse_args()
    if args.deltas:
        deltas(args.quick)
        return
    fig17(args.quick)
    sec81(args.quick)
    fig19(args.quick)
    fig20(args.quick)
    fig21(args.quick)
    ablations(args.quick)
    parallel(args.quick)
    deltas(args.quick)


if __name__ == "__main__":
    main()
