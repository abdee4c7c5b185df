"""``python -m repro.lint`` — static stream-property lint over the
repo's known pipelines.

Runs the :mod:`repro.compiler.analysis.streamprops` inference (the
paper's §6 preservation lemmas as transfer rules) over every
contraction pipeline built by ``examples/`` and the TPC-H queries, and
prints one property signature per pipeline plus any findings with
blame naming the offending node.  Exit status is the number of
pipelines with findings (0 = everything statically certified).

The lint is purely static: no tensors are materialized, nothing is
lowered or compiled — each target is the *expression* a pipeline
compiles, its type context, and its semiring.  That is exactly the
information :meth:`KernelBuilder.prepare` verifies at admission, so a
clean lint here means the serving layer will admit the same pipelines
without spending a compile.

``--selftest`` additionally demonstrates the rejection paths the
analysis exists for: a hand-written non-monotone source and a
contraction over a non-idempotent ⊕ both refused with blame naming
the exact node.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.analysis.streamprops import (
    Blame,
    PropertySignature,
    analyze_expr,
    analyze_stream,
)
from repro.compiler.formats import TensorInput
from repro.compiler.scalars import scalar_ops_for
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

    def analyze(self) -> Tuple[PropertySignature, List[Blame]]:
        expr, ctx, operand_attrs = self.make()
        ops = scalar_ops_for(self.semiring)
        specs = {
            name: TensorInput(name, tuple(attrs), ("sparse",) * len(attrs), ops)
            for name, attrs in operand_attrs.items()
        }
        return analyze_expr(expr, ctx, specs, self.semiring)


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


TARGETS: Tuple[LintTarget, ...] = (
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
)


def run_target(target: LintTarget, verbose: bool = True) -> int:
    sig, findings = target.analyze()
    status = "ok" if not findings else f"{len(findings)} finding(s)"
    if verbose:
        print(f"{target.name:<18} [{target.origin}]  {status}")
        print(f"    {sig.describe()}")
        for b in findings:
            print(f"    FINDING {b}")
    return len(findings)


def selftest(verbose: bool = True) -> int:
    """Prove the rejection paths work: each case *must* produce a
    finding with blame naming the offending node.  Returns the number
    of cases that failed to be rejected."""
    from repro.errors import StreamPropertyError  # noqa: F401 (doc link)
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
    if verbose:
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
    if verbose:
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
        description="statically certify the repo's stream pipelines",
    )
    parser.add_argument("targets", nargs="*",
                        help="target names (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list known targets and exit")
    parser.add_argument("--selftest", action="store_true",
                        help="also demonstrate the rejection paths")
    args = parser.parse_args(argv)

    by_name: Dict[str, LintTarget] = {t.name: t for t in TARGETS}
    if args.list:
        for t in TARGETS:
            print(f"{t.name:<18} {t.origin}  [{t.semiring.name}]")
        return 0

    chosen: List[LintTarget]
    if args.targets:
        unknown = [n for n in args.targets if n not in by_name]
        if unknown:
            parser.error(f"unknown target(s) {unknown}; see --list")
        chosen = [by_name[n] for n in args.targets]
    else:
        chosen = list(TARGETS)

    errors = 0
    for t in chosen:
        errors += run_target(t)
    print(f"\n{len(chosen)} pipeline(s) linted, "
          f"{errors} finding(s)")

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
