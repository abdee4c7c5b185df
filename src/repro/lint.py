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
  issues, the capacity lint's verdict on every store into a
  capacity-managed output array, and the stream-property signature.

``python -m repro.lint [<target> ...] [--list] [--selftest]``: no
names means every target, pipelines first, then kernels by name.
``--selftest`` also demonstrates the rejection paths: a non-monotone
source and a contraction over a non-idempotent ⊕, both refused with
blame naming the node.  Exit status 1 when any target has a finding (a
kernel's verifier errors count), else 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    """One example kernel: built, then verified and bounds-linted."""

    name: str
    build: Callable[[], Kernel]

    def label(self) -> str:
        return "example kernel, interp backend  [float]"

    def report(self) -> int:
        """Print the verification + lint report; return the error count."""
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

        findings = kernel.capacity_findings
        if not findings:
            print("   bounds lint: no capacity-managed stores (dense/scalar output)")
        for f in findings:
            print(f"   bounds lint: {f}")
        unproven = [f for f in findings if not f.proven]

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

        verdict = "NEEDS GUARD" if unproven else "ok"
        print(
            f"   summary: {len(errors)} error(s), {len(warnings)} warning(s), "
            f"{len(stream_findings)} stream finding(s), "
            f"{len(findings) - len(unproven)}/{len(findings)} store(s) proven "
            f"in-bounds -> {verdict}"
        )
        return len(errors) + len(stream_findings)


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="statically certify the repo's pipelines and kernels",
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
