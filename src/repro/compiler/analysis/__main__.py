"""Command-line verification/lint report for example kernels.

Usage::

    python -m repro.compiler.analysis <kernel> [<kernel> ...]
    python -m repro.compiler.analysis --all

Each named kernel (``spmv``, ``matmul``, ``smul``, ``dot``, ``vadd``,
``madd3``, ``sddmm``) is compiled with the interpreter backend (no
toolchain needed), then the report prints the size of what was
generated (bytes of C source, **P** statements, **E** nodes — a
three-operand sum like ``madd3`` is where these used to blow up — and
how many of the statements are the ``PSearch``/``PSort`` primitives),
the typed-IR verification issues, the capacity
lint's verdict on every store into a capacity-managed output array,
and the stream-level property signature (lawfulness, monotonicity,
boundedness, ⊕-law obligations) inferred by
:mod:`repro.compiler.analysis.streamprops` — the IR-level and
stream-level verdicts in one report.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.compiler import codegen_c
from repro.compiler.analysis.dataflow import program_size
from repro.compiler.analysis.streamprops import analyze_expr
from repro.compiler.analysis.verifier import verify_kernel
from repro.compiler.formats import TensorInput
from repro.compiler.kernel import Kernel, OutputSpec, compile_kernel
from repro.data.tensor import Tensor
from repro.krelation.schema import Schema
from repro.lang.ast import Sum, Var
from repro.lang.typing import TypeContext
from repro.semirings.instances import FLOAT

N = 8


def _vec(attr: str) -> Tensor:
    entries = {(i,): float(i + 1) for i in range(N)}
    return Tensor.from_entries((attr,), ("dense",), (N,), entries, FLOAT)


def _mat(attrs: Tuple[str, str], formats=("dense", "sparse")) -> Tensor:
    entries = {
        (r, c): float(1 + (r + c) % 5)
        for r in range(N)
        for c in range(N)
        if (r * 31 + c * 17) % 3 == 0
    }
    return Tensor.from_entries(attrs, formats, (N, N), entries, FLOAT)


def _build_spmv() -> Kernel:
    schema = Schema.of(i=range(N), j=range(N))
    ctx = TypeContext(schema, {"A": {"i", "j"}, "v": {"j"}})
    return compile_kernel(
        Sum("j", Var("A") * Var("v")), ctx,
        {"A": _mat(("i", "j")), "v": _vec("j")},
        OutputSpec(("i",), ("dense",), (N,)),
        backend="interp", cache=False, name="cli_spmv",
    )


def _build_matmul(formats=("dense", "sparse"), search="linear",
                  name="cli_matmul") -> Kernel:
    schema = Schema.of(i=range(N), k=range(N), j=range(N))
    ctx = TypeContext(schema, {"A": {"i", "k"}, "B": {"k", "j"}})
    return compile_kernel(
        Sum("k", Var("A") * Var("B")), ctx,
        {"A": _mat(("i", "k"), formats), "B": _mat(("k", "j"), formats)},
        OutputSpec(("i", "j"), formats, (N, N)),
        backend="interp", search=search, cache=False, name=name,
    )


def _svec(start: int, step: int) -> Tensor:
    entries = {(i,): float(i) for i in range(start, N, step)}
    return Tensor.from_entries(("i",), ("sparse",), (N,), entries, FLOAT)


def _build_dot() -> Kernel:
    """Figure 2's shape: a co-iteration of compressed vectors, whose
    off-diagonal arm is two scanning skips."""
    schema = Schema.of(i=range(N))
    ctx = TypeContext(schema, {"x": {"i"}, "y": {"i"}})
    return compile_kernel(
        Sum("i", Var("x") * Var("y")), ctx,
        {"x": _svec(0, 2), "y": _svec(1, 3)},
        None, backend="interp", cache=False, name="cli_dot",
    )


def _build_vadd() -> Kernel:
    schema = Schema.of(i=range(N))
    ctx = TypeContext(schema, {"x": {"i"}, "y": {"i"}})
    return compile_kernel(
        Var("x") + Var("y"), ctx, {"x": _svec(0, 2), "y": _svec(1, 3)},
        OutputSpec(("i",), ("sparse",), (N,)),
        backend="interp", cache=False, name="cli_vadd",
    )


def _build_madd3() -> Kernel:
    schema = Schema.of(i=range(N), j=range(N))
    ctx = TypeContext(schema, {v: {"i", "j"} for v in "ABC"})
    sparse = ("sparse", "sparse")
    return compile_kernel(
        Var("A") + Var("B") + Var("C"), ctx,
        {v: _mat(("i", "j"), sparse) for v in "ABC"},
        OutputSpec(("i", "j"), sparse, (N, N)),
        backend="interp", cache=False, name="cli_madd3",
    )


def _build_sddmm() -> Kernel:
    schema = Schema.of(i=range(N), j=range(N), k=range(N))
    ctx = TypeContext(
        schema, {"S": {"i", "j"}, "A": {"i", "k"}, "B": {"j", "k"}}
    )
    return compile_kernel(
        Sum("k", Var("S") * Var("A") * Var("B")), ctx,
        {"S": _mat(("i", "j")), "A": _mat(("i", "k"), ("dense", "dense")),
         "B": _mat(("j", "k"), ("dense", "dense"))},
        OutputSpec(("i", "j"), ("dense", "sparse"), (N, N)),
        backend="interp", cache=False, name="cli_sddmm",
    )


KERNELS: Dict[str, Callable[[], Kernel]] = {
    "spmv": _build_spmv,
    "matmul": _build_matmul,
    # doubly compressed operands co-iterate: both primitives in one kernel
    "smul": lambda: _build_matmul(("sparse", "sparse"), "binary", "cli_smul"),
    "dot": _build_dot,
    "vadd": _build_vadd,
    "madd3": _build_madd3,
    "sddmm": _build_sddmm,
}


def report(name: str, kernel: Kernel) -> int:
    """Print the verification + lint report; return the error count."""
    print(f"== kernel {name!r} ({kernel.name}) " + "=" * max(0, 40 - len(name)))
    print(f"   params: {', '.join(f'{p.name}:{p.ctype}' for p in kernel.params)}")
    print(f"   locals: {len(kernel.decls)} compiler temporaries")
    c_source = codegen_c.emit_kernel_source(
        kernel.name, kernel.params, kernel.decls, kernel.loop_ir
    )
    size = program_size(kernel.loop_ir)
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

    stream_errors = 0
    recipe = kernel.recipe
    if recipe is None:
        print("   stream properties: (no recipe; not analyzable post-hoc)")
    else:
        specs = {
            var: TensorInput(var, attrs, formats, kernel.ops)
            for var, attrs, formats in recipe.input_structure
        }
        sig, stream_findings = analyze_expr(
            recipe.expr, recipe.ctx, specs, recipe.semiring,
            dims=dict(recipe.attr_dims),
        )
        print(f"   stream properties: {sig.describe()}")
        for b in stream_findings:
            print(f"   stream properties: FINDING {b}")
        stream_errors = len(stream_findings)

    verdict = "NEEDS GUARD" if unproven else "ok"
    print(
        f"   summary: {len(errors)} error(s), {len(warnings)} warning(s), "
        f"{stream_errors} stream finding(s), "
        f"{len(findings) - len(unproven)}/{len(findings)} store(s) proven "
        f"in-bounds -> {verdict}"
    )
    return len(errors) + stream_errors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler.analysis",
        description="verify and bounds-lint example kernels",
    )
    parser.add_argument(
        "kernels", nargs="*", metavar="kernel",
        help=f"kernel name(s): {', '.join(sorted(KERNELS))}",
    )
    parser.add_argument("--all", action="store_true", help="report on every kernel")
    args = parser.parse_args(argv)

    names = sorted(KERNELS) if args.all or not args.kernels else args.kernels
    errors = 0
    for name in names:
        build = KERNELS.get(name)
        if build is None:
            parser.error(f"unknown kernel {name!r}; choose from {sorted(KERNELS)}")
        errors += report(name, build())
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
