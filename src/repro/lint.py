"""``python -m repro.lint`` — the repo's one static-analysis report.

One registry holds two kinds of named target:

* **pipelines** — the contraction pipelines of ``examples/`` and the
  TPC-H queries, analysed purely statically by
  :mod:`repro.compiler.analysis.streamprops` (the paper's §6
  preservation lemmas as transfer rules): one property signature each,
  plus any findings with blame naming the offending node.  Nothing is
  materialized or compiled; a target is the expression, type context
  and semiring :meth:`KernelBuilder.prepare` verifies at admission, so
  a clean lint means the server admits the same pipelines.
* **kernels** — seven example kernels, each compiled with the
  interpreter backend (no toolchain needed) and reported: the size of
  the program a C build emits (bytes of C, **P** statements and how
  many are ``PSearch``/``PSort``, **E** nodes), the typed-IR verifier's
  issues and the stream-property signature.

A third list, :data:`RULES`, holds the architecture rules: the layering
DESIGN.md argues for, checked on the source tree of the checkout this
module sits in, one row per rule.

``python -m repro.lint [<target> ...] [--list] [--selftest]``: no
names means every target, pipelines first, then kernels by name, then
every rule.  ``--selftest`` also demonstrates the rejection paths: a
non-monotone source and a contraction over a non-idempotent ⊕, both
refused with blame naming the node.  Exit status 1 when any target has
a finding (a kernel's verifier errors and stream findings count) or a
rule is broken, else 0.

No report here proves a compressed output's stores inside their
reservation: the emitted code guards every append, and the parity
suites run generated programs at a one-entry reservation, where each
overflowing run is the count pass (DESIGN.md "Capacity bounds are
checked by running").
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.analysis.dataflow import program_size
from repro.compiler.analysis.streamprops import analyze_expr, analyze_stream
from repro.compiler.analysis.verifier import verify_kernel
from repro.compiler.build import c_program, compile_kernel
from repro.compiler.formats import TensorInput
from repro.compiler.kernel import Kernel, OutputSpec
from repro.compiler.scalars import scalar_ops_for
from repro.data.tensor import Tensor
from repro.krelation.schema import Schema
from repro.lang.ast import Expr, Sum, Var
from repro.lang.typing import TypeContext
from repro.semirings import FLOAT, INT, MIN_PLUS
from repro.semirings.base import Semiring


@dataclass(frozen=True)
class LintTarget:
    """One pipeline: where it comes from, and what to analyze."""

    name: str
    origin: str                 # the script/module that builds it
    semiring: Semiring
    make: Callable[[], Tuple[Expr, TypeContext, Mapping[str, Sequence[str]]]]

    def label(self) -> str:
        return f"{self.origin}  [{self.semiring.name}]"

    def report(self) -> int:
        """Print the property signature and findings; return their count."""
        expr, ctx, operand_attrs = self.make()
        ops = scalar_ops_for(self.semiring)
        specs = {
            name: TensorInput(name, tuple(attrs), ("sparse",) * len(attrs), ops)
            for name, attrs in operand_attrs.items()
        }
        sig, findings = analyze_expr(expr, ctx, specs, self.semiring)
        status = "ok" if not findings else f"{len(findings)} finding(s)"
        print(f"{self.name:<18} [{self.origin}]  {status}")
        print(f"    {sig.describe()}")
        for b in findings:
            print(f"    FINDING {b}")
        return len(findings)


def _simple(
    attrs: Sequence[str],
    shapes: Mapping[str, Sequence[str]],
    expr: Expr,
) -> Tuple[Expr, TypeContext, Mapping[str, Sequence[str]]]:
    schema = Schema.of(**{a: None for a in attrs})
    ctx = TypeContext(schema, {n: set(a) for n, a in shapes.items()})
    return expr, ctx, shapes


def _tpch_q5() -> Tuple[Expr, TypeContext, Mapping[str, Sequence[str]]]:
    from repro.tpch import q5

    return _simple(q5.ATTR_ORDER, q5.SHAPES, q5.expression())


def _tpch_q9() -> Tuple[Expr, TypeContext, Mapping[str, Sequence[str]]]:
    from repro.tpch import q9

    return _simple(q9.ATTR_ORDER, q9.SHAPES, q9.expression())


N = 8


def _vec(attr: str) -> Tensor:
    i = np.arange(N)
    return Tensor.from_coo((attr,), ("dense",), (N,), i[:, None], i + 1.0, FLOAT)


def _mat(attrs: Tuple[str, str],
         formats: Tuple[str, str] = ("dense", "sparse")) -> Tensor:
    r, c = np.nonzero((np.arange(N)[:, None] * 31 + np.arange(N) * 17) % 3 == 0)
    return Tensor.from_coo(attrs, formats, (N, N), np.column_stack((r, c)),
                           1.0 + (r + c) % 5, FLOAT)


def _svec(start: int, step: int) -> Tensor:
    i = np.arange(start, N, step)
    return Tensor.from_coo(("i",), ("sparse",), (N,), i[:, None], i * 1.0, FLOAT)


def _kernel(name: str, attrs: str, shapes: Mapping[str, str], expr: Expr,
            tensors: Mapping[str, Tensor], output: Optional[OutputSpec],
            search: str = "linear") -> Kernel:
    """Compile one example kernel over ``attrs`` in loop order (each of
    extent ``N``) with the interpreter backend."""
    ctx = TypeContext(Schema.of(**{a: range(N) for a in attrs}),
                      {var: set(s) for var, s in shapes.items()})
    return compile_kernel(expr, ctx, tensors, output, backend="interp",
                          search=search, cache=False, name=f"cli_{name}")


def _matmul(name: str, formats: Tuple[str, str], search: str) -> Kernel:
    return _kernel(
        name, "ikj", {"A": "ik", "B": "kj"}, Sum("k", Var("A") * Var("B")),
        {"A": _mat(("i", "k"), formats), "B": _mat(("k", "j"), formats)},
        OutputSpec(("i", "j"), formats, (N, N)), search,
    )


@dataclass(frozen=True)
class KernelTarget:
    """One example kernel: built, then verified."""

    name: str
    build: Callable[[], Kernel]

    def label(self) -> str:
        return "example kernel, interp backend  [float]"

    def report(self) -> int:
        """Print the verification report; return how many checks fail."""
        name, kernel = self.name, self.build()
        print(f"== kernel {name!r} ({kernel.name}) " + "=" * max(0, 40 - len(name)))
        print(f"   params: {', '.join(f'{p.name}:{p.ctype}' for p in kernel.params)}")
        print(f"   locals: {len(kernel.decls)} compiler temporaries")
        c_body, c_source = c_program(kernel)
        size = program_size(c_body)
        print(f"   size: {len(c_source)} bytes of C, {size['statements']} P statements "
              f"({size['search.linear']} linear + {size['search.binary']} binary "
              f"PSearch, {size['sort']} PSort), {size['nodes']} E nodes")

        issues = verify_kernel(kernel)
        errors = [i for i in issues if i.severity == "error"]
        warnings = [i for i in issues if i.severity != "error"]
        if not issues:
            print("   verifier: clean (no issues)")
        for issue in issues:
            print(f"   verifier: {issue.severity}[{issue.invariant}] {issue.message}")

        # every example kernel has a recipe: its inputs are all tensors
        recipe = kernel.recipe
        specs = {
            var: TensorInput(var, attrs, formats, kernel.ops, crd_types)
            for var, attrs, formats, crd_types in recipe.input_structure
        }
        sig, stream_findings = analyze_expr(
            recipe.expr, recipe.ctx, specs, recipe.semiring,
            dims=dict(recipe.attr_dims),
        )
        print(f"   stream properties: {sig.describe()}")
        for b in stream_findings:
            print(f"   stream properties: FINDING {b}")

        failed = len(errors) + len(stream_findings)
        print(
            f"   summary: {len(errors)} error(s), {len(warnings)} warning(s), "
            f"{len(stream_findings)} stream finding(s) -> {'FAIL' if failed else 'ok'}"
        )
        return failed


Target = Union[LintTarget, KernelTarget]

TARGETS: Tuple[Target, ...] = (
    LintTarget(
        "quickstart_dot3", "examples/quickstart.py", FLOAT,
        lambda: _simple(
            ("i",), {"x": ("i",), "y": ("i",), "z": ("i",)},
            Sum("i", Var("x") * Var("y") * Var("z")),
        ),
    ),
    LintTarget(
        "filtered_spmv", "examples/filtered_spmv.py", FLOAT,
        lambda: _simple(
            ("i", "j"), {"A": ("i", "j"), "x": ("j",), "p": ("j",)},
            Sum("j", Var("A") * Var("x") * Var("p")),
        ),
    ),
    LintTarget(
        "mm_rows", "examples/matmul_orderings.py", FLOAT,
        lambda: _simple(
            ("i", "k", "j"), {"X": ("i", "k"), "Y": ("k", "j")},
            Sum("k", Var("X") * Var("Y")),
        ),
    ),
    LintTarget(
        "mm_inner", "examples/matmul_orderings.py", FLOAT,
        lambda: _simple(
            ("i", "j", "k"), {"X": ("i", "k"), "Yt": ("j", "k")},
            Sum("k", Var("X") * Var("Yt")),
        ),
    ),
    LintTarget(
        "pagerank_step", "examples/pagerank.py", FLOAT,
        lambda: _simple(
            ("i", "j"), {"M": ("i", "j"), "r": ("j",), "keep": ("j",)},
            Sum("j", Var("M") * Var("r") * Var("keep")),
        ),
    ),
    LintTarget(
        "sssp_relax", "examples/semiring_shortest_path.py", MIN_PLUS,
        lambda: _simple(
            ("i", "j"), {"A": ("i", "j"), "d": ("j",)},
            Sum("j", Var("A") * Var("d")),
        ),
    ),
    LintTarget(
        "triangle_count", "examples/triangle_join.py", INT,
        lambda: _simple(
            ("a", "b", "c"),
            {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "c")},
            Sum("a", Sum("b", Sum("c", Var("R") * Var("S") * Var("T")))),
        ),
    ),
    LintTarget("tpch_q5", "repro.tpch.q5", FLOAT, _tpch_q5),
    LintTarget("tpch_q9", "repro.tpch.q9", FLOAT, _tpch_q9),
    # Figure 2's shape: a co-iteration of compressed vectors, whose
    # off-diagonal arm is two scanning skips
    KernelTarget("dot", lambda: _kernel(
        "dot", "i", {"x": "i", "y": "i"}, Sum("i", Var("x") * Var("y")),
        {"x": _svec(0, 2), "y": _svec(1, 3)}, None,
    )),
    KernelTarget("madd3", lambda: _kernel(
        "madd3", "ij", {v: "ij" for v in "ABC"}, Var("A") + Var("B") + Var("C"),
        {v: _mat(("i", "j"), ("sparse", "sparse")) for v in "ABC"},
        OutputSpec(("i", "j"), ("sparse", "sparse"), (N, N)),
    )),
    KernelTarget("matmul", lambda: _matmul("matmul", ("dense", "sparse"), "linear")),
    KernelTarget("sddmm", lambda: _kernel(
        "sddmm", "ijk", {"S": "ij", "A": "ik", "B": "jk"},
        Sum("k", Var("S") * Var("A") * Var("B")),
        {"S": _mat(("i", "j")), "A": _mat(("i", "k"), ("dense", "dense")),
         "B": _mat(("j", "k"), ("dense", "dense"))},
        OutputSpec(("i", "j"), ("dense", "sparse"), (N, N)),
    )),
    # doubly compressed operands co-iterate: both primitives in one kernel
    KernelTarget("smul", lambda: _matmul("smul", ("sparse", "sparse"), "binary")),
    KernelTarget("spmv", lambda: _kernel(
        "spmv", "ij", {"A": "ij", "v": "j"}, Sum("j", Var("A") * Var("v")),
        {"A": _mat(("i", "j")), "v": _vec("j")},
        OutputSpec(("i",), ("dense",), (N,)),
    )),
    KernelTarget("vadd", lambda: _kernel(
        "vadd", "i", {"x": "i", "y": "i"}, Var("x") + Var("y"),
        {"x": _svec(0, 2), "y": _svec(1, 3)},
        OutputSpec(("i",), ("sparse",), (N,)),
    )),
)


def selftest() -> int:
    """Prove the rejection paths work: each case *must* produce a
    finding with blame naming the offending node.  Returns the number
    of cases that failed to be rejected."""
    from repro.streams.combinators import ContractStream
    from repro.streams.sources import SparseStream

    class NonMonotoneSource(SparseStream):
        """Models a source whose index sequence regresses (e.g. an
        unsorted coordinate feed): declared, so the analysis refuses
        it without running the automaton."""

        static_properties = {"lawful": False, "monotone": False, "strict": False}

    class DuplicateIndexSource(SparseStream):
        """Models a monotone source that may emit an index twice (a
        non-deduplicated feed): contraction over it double-counts
        unless ⊕ is idempotent."""

        static_properties = {"lawful": True, "monotone": True, "strict": False}

    failures = 0

    bad = NonMonotoneSource("i", [0, 2, 5], [1.0, 2.0, 3.0], FLOAT)
    _, findings = analyze_stream(bad, FLOAT)
    ok = any(b.node == "NonMonotoneSource" and b.prop == "monotone"
             for b in findings)
    failures += 0 if ok else 1
    print("selftest: non-monotone source rejected:", "yes" if ok else "NO")
    for b in findings:
        print(f"    FINDING {b}")

    dup = ContractStream(
        DuplicateIndexSource("i", [0, 2, 5], [1.0, 2.0, 3.0], FLOAT)
    )
    _, fl = analyze_stream(dup, FLOAT)
    ok_float = any(b.rule == "semiring-law:idempotent-add" for b in fl)
    _, mp = analyze_stream(
        ContractStream(
            DuplicateIndexSource("i", [0, 2, 5], [1.0, 2.0, 3.0], MIN_PLUS)
        ),
        MIN_PLUS,
    )
    ok_minplus = not mp
    failures += 0 if (ok_float and ok_minplus) else 1
    print(
        "selftest: Σ over non-idempotent ⊕ rejected:",
        "yes" if ok_float else "NO",
        "| same Σ over min-plus certified:",
        "yes" if ok_minplus else "NO",
    )
    for b in fl:
        print(f"    FINDING {b}")
    return failures


@dataclass(frozen=True)
class Ban:
    """Lines under ``roots`` that match ``pattern`` (searched line by
    line) are violations outside every ``allow``ed site.  A site, and so
    a root, is a file or directory, or ``path::name``: the lines of that
    dotted ``def``/``class``, or of the module-level assignment to
    ``name``.  With ``count``, exactly that many allowed lines match."""

    pattern: str
    roots: Tuple[str, ...] = ("src/repro",)
    allow: Tuple[str, ...] = ()
    count: Optional[int] = None


@dataclass(frozen=True)
class Rule:
    """One architecture rule: the DESIGN.md text it enforces, what it
    bans (its :data:`GONE` row too), and an optional ``check`` of the
    sources that says what is wrong, if anything."""

    name: str
    anchor: str
    bans: Tuple[Ban, ...] = ()
    check: Optional[Callable[[Mapping[str, str]], Optional[str]]] = None


def _at_most_29_knobs(sources: Mapping[str, str]) -> Optional[str]:
    namespace: Dict[str, Any] = {}  # the table's module, run from the sources
    exec(compile(sources["src/repro/config.py"], "src/repro/config.py", "exec"), namespace)
    n = len(namespace["KNOBS"])
    return f"repro.config.KNOBS has {n} rows, at most 29: retire one" if n > 29 else None


#: names that must not come back, each under the rule that retired it
#: (a character class in a name keeps its row out of a plain grep for it)
GONE: Dict[str, Ban] = {
    "The capacity check is a run": Ban(
        r"analysis\.interval[s]|lint_bound[s]|capacity_finding[s]|ArrayContrac[t]"
        r"|BoundsFindin[g]", roots=("src/repro", "tests", "benchmarks", "examples")),
    "Only the pool starts a process": Ban(r"REPRO_POOL\b|pool_route|mem_mb="),
    "An output sizes itself": Ban(
        r"\b(auto_grow|max_capacity|REPRO_MAX_CAPACITY|capacity_hint|needs_guard)\b"),
    "A served query has one route": Ban(
        r"run_batch|Batcher|REPRO_SERVE_BATCH|batch_key|batch_window"),
    "No private kernel call across layers": Ban(
        r"\._run_(single|guarded|supervised|fallback)\b|\._fallback_kernel\b",
        roots=("src/repro", "benchmarks", "tests")),
    "Every knob earns its row": Ban(
        r"REPRO_STRICT_(ENV|LOCKS)|LockTimeoutError|REPRO_SERVE_(DEADLINE|MAX_INFLIGHT"
        r"|QPS|BURST|RETRIES|RETRY_BASE|WRITE_TIMEOUT|WORKERS|MAX_BODY|STREAM_THRESHOLD)\b"),
    "Measurements are written in one place": Ban(
        r"bench[r]ecord|report_path|REPRO_BENCH_[R]ECORD|BENCH_(PR\d+|serve)\.json",
        roots=("src/repro", "benchmarks", "tests")),
}

RULES: Tuple[Rule, ...] = (
    Rule("The capacity check is a run", "Capacity bounds are checked by running"),
    Rule("No execution policy is assigned onto a kernel", "Execution policy", (
        Ban(r"\.(parallel|workers|supervised|tune_decision)(: [^=]+)? = ", allow=(
            "src/repro/compiler/kernel.py::Kernel.__init__",
            "src/repro/compiler/build.py::KernelBuilder.__init__",
            "src/repro/runtime/executor.py::Executor.__init__")),)),
    Rule("Only the pool starts a process", "Execution policy", (
        Ban(r"\.Process\(", allow=("src/repro/runtime/pool.py::WorkerPool._spawn",)),)),
    Rule("Output capacity is reserved, not initialised", "Output storage", (
        Ban(r"np\.(full|zeros)\((cap|rows|row_cap|capacity)\b",
            roots=("src/repro/compiler/kernel.py::Kernel._allocate_output",)),)),
    Rule("An output sizes itself", "Output storage"),
    Rule("A served query has one route", "What each route isolates"),
    Rule("The breaker is changed from one module", "Supervised execution & circuit breaker", (
        Ban(r"\.(decide|try_probe|record_failure|record_success|release_probe)\(",
            allow=("src/repro/runtime/route.py", "src/repro/runtime/breaker.py")),)),
    Rule("The compiler does not import the runtime", "4. Architecture", (
        Ban(r"^\s*(from|import) repro\.(runtime|autotune)\b"
            r"|import_module\(.repro\.(runtime|autotune)", roots=("src/repro/compiler",)),)),
    Rule("The tuner does not import the runtime", "Adaptive planning & autotuning", (
        Ban(r"^\s*(from|import) repro\.runtime\b|import_module\(.repro\.runtime",
            roots=("src/repro/autotune",)),)),
    Rule("No private kernel call across layers", "4. Architecture"),
    Rule("Shared-memory segments are created in one place", "Zero-copy data plane & worker pool", (
        Ban(r"^(?!.*SharedMemory\(.*create=True).*create="),
        Ban(r"SharedMemory\(.*create=True", allow=("src/repro/runtime/shm.py::_pack",), count=1))),
    Rule("The environment is read in one place", "Configuration", (
        Ban(r"os\.environ|getenv", allow=(
            "src/repro/config.py", "src/repro/runtime/pool.py::WorkerPool.__init__",
            "src/repro/runtime/worker.py::pool_worker_main")),
        Ban(r'ENV_[A-Z_]+ = "REPRO_', roots=("src",)))),
    Rule("Every knob earns its row", "Configuration", check=_at_most_29_knobs),
    Rule("The sort is emitted in one place", "search and sort are P primitives", (
        Ban(re.escape("tmp[at[a[i] >> s & 255]++] = a[i];"), allow=("src/repro",), count=1),
        Ban(r"_SORT_I64", allow=tuple(f"src/repro/compiler/codegen_c.py::{name}"
                                      for name in ("_SORT_I64", "_start", "_Artifact"))))),
    Rule("A coordinate's width is chosen in one place", "Data plane: columnar in, columnar out", (
        Ban(r"np\.int32|int32_t", allow=(
            "src/repro/data/tensor.py", "src/repro/baselines/taco.py",
            *(f"src/repro/compiler/codegen_c.py::{name}"
              for name in ("_CTYPES", "_NP_DTYPES", "_C_NAMES")))),)),
    Rule("A relation becomes a tensor through columns", "Relational frontend: stacked measures", (
        Ban(r"from_entries\(|\.to_dict\(\)", roots=("src/repro/data/convert.py", *(
            f"src/repro/{package}" for package in ("serve", "runtime", "tensor", "relational",
                                                   "tpch", "workloads", "verification")))),)),
    Rule("The toolchain is started in one place", "Builds in flight", (
        Ban(r"subprocess\.", allow=tuple(f"src/repro/compiler/codegen_c.py::_Gcc.{name}"
                                         for name in ("start", "reap"))),)),
    Rule("Measurements are written in one place", "`bench/` is the one writer of measurements"),
)

#: the lines no rule reads: the two literals above, whose patterns
#: would otherwise match themselves
_TABLE = ("src/repro/lint.py::GONE", "src/repro/lint.py::RULES")


def load_sources(checkout: Path = Path(__file__).resolve().parents[2]) -> Dict[str, str]:
    """Every text file under the roots the rules scan, by path relative
    to ``checkout`` (the checkout this module sits in)."""
    sources: Dict[str, str] = {}
    for path in sorted(p for top in ("src", "benchmarks", "tests", "examples")
                       for p in (checkout / top).rglob("*") if p.is_file()):
        if "__pycache__" not in path.parts:
            try:
                sources[path.relative_to(checkout).as_posix()] = path.read_text("utf-8")
            except UnicodeDecodeError:
                pass  # binary
    return sources


@lru_cache(maxsize=256)
def _scopes(text: str) -> Tuple[str, ...]:
    """The scope of each line of a Python module (index = line number):
    the dotted name of its innermost ``def``/``class``, the target of
    its module-level assignment, or ``""``."""
    scopes = [""] * (text.count("\n") + 2)

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = ""
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
            elif not prefix and isinstance(child, (ast.Assign, ast.AnnAssign)):
                target = child.targets[0] if isinstance(child, ast.Assign) else child.target
                name = target.id if isinstance(target, ast.Name) else ""
            if name:
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                scopes[first:child.end_lineno + 1] = [name] * (child.end_lineno + 1 - first)
            visit(child, name + "." if name else prefix)

    visit(ast.parse(text), "")
    return tuple(scopes)


def _under(path: str, where: str) -> bool:
    return path == where or path.startswith(where + "/")


def _in_site(sources: Mapping[str, str], path: str, line: int, site: str) -> bool:
    where, _, name = site.partition("::")
    if not _under(path, where):
        return False
    scope = _scopes(sources[path])[line] if name and path.endswith(".py") else ""
    return not name or scope == name or scope.startswith(name + ".")


# one entry per (pattern, file): the tree's whole scan, and a few copies
@lru_cache(maxsize=8192)
def _matching_lines(pattern: str, text: str) -> Tuple[Tuple[int, str], ...]:
    if not re.search(pattern, text, re.MULTILINE):  # a line's match is the text's
        return ()
    rx = re.compile(pattern)
    return tuple((n, line) for n, line in enumerate(text.split("\n"), 1) if rx.search(line))


def rule_violations(rule: Rule, sources: Mapping[str, str]) -> List[str]:
    """One line per site that breaks ``rule`` in ``sources`` (path →
    text, as :func:`load_sources` reads them)."""
    out: List[str] = []
    for ban in rule.bans + ((GONE[rule.name],) if rule.name in GONE else ()):
        for root in ban.roots:
            where, _, name = root.partition("::")
            if not any(_under(p, where) for p in sources) or (
                    name and name not in _scopes(sources[where])):
                out.append(f"{root} not found")
        allowed = 0
        for path, text in sources.items():
            for n, line in _matching_lines(ban.pattern, text):
                if (not any(_in_site(sources, path, n, r) for r in ban.roots)
                        or any(_in_site(sources, path, n, t) for t in _TABLE)):
                    continue
                if any(_in_site(sources, path, n, a) for a in ban.allow):
                    allowed += 1
                else:
                    out.append(f"{path}:{n}: {line.strip()}")
        if ban.count is not None and allowed != ban.count:
            out.append(f"{allowed} allowed line(s) match {ban.pattern!r}, expected {ban.count}")
    problem = rule.check(sources) if rule.check else None
    return [f"rule {rule.name!r} (DESIGN.md \"{rule.anchor}\"): {v}"
            for v in out + ([problem] if problem else [])]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="statically certify the repo's pipelines, kernels and architecture rules",
    )
    parser.add_argument("targets", nargs="*",
                        help="target names (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list known targets and exit")
    parser.add_argument("--selftest", action="store_true",
                        help="also demonstrate the rejection paths")
    args = parser.parse_args(argv)

    by_name: Dict[str, Target] = {t.name: t for t in TARGETS}
    if args.list:
        for t in TARGETS:
            print(f"{t.name:<18} {t.label()}")
        return 0

    chosen: List[Target]
    if args.targets:
        unknown = [n for n in args.targets if n not in by_name]
        if unknown:
            parser.error(f"unknown target(s) {unknown}; see --list")
        chosen = [by_name[n] for n in args.targets]
    else:
        chosen = list(TARGETS)

    errors = sum(t.report() for t in chosen)
    print(f"\n{len(chosen)} target(s) checked, {errors} finding(s)")

    if not args.targets:
        sources = load_sources()
        broken = [v for rule in RULES for v in rule_violations(rule, sources)]
        for line in broken:
            print(line)
        print(f"{len(RULES)} rule(s) checked, {len(broken)} violation(s)")
        errors += len(broken)

    if args.selftest:
        print()
        failed = selftest()
        if failed:
            print(f"selftest: {failed} rejection case(s) NOT caught")
            errors += failed
        else:
            print("selftest: both rejection paths caught with blame")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
