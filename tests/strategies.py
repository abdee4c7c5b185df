"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from hypothesis import strategies as st

from repro.semirings import BOOL, FLOAT, INT, MAX_PLUS, MIN_PLUS, NAT, PROVENANCE
from repro.semirings.provenance import Polynomial

#: semirings whose elements hypothesis can generate exactly
EXACT_SEMIRINGS = {
    "bool": (BOOL, st.booleans()),
    "nat": (NAT, st.integers(min_value=0, max_value=20)),
    "int": (INT, st.integers(min_value=-50, max_value=50)),
    "min_plus": (MIN_PLUS, st.integers(min_value=-20, max_value=20).map(float)),
    "max_plus": (MAX_PLUS, st.integers(min_value=-20, max_value=20).map(float)),
}


@st.composite
def semiring_and_elements(draw, n: int = 3):
    """A semiring plus ``n`` elements of it."""
    name = draw(st.sampled_from(sorted(EXACT_SEMIRINGS)))
    semiring, elements = EXACT_SEMIRINGS[name]
    return semiring, [draw(elements) for _ in range(n)]


@st.composite
def provenance_polynomials(draw) -> Polynomial:
    n_terms = draw(st.integers(min_value=0, max_value=3))
    poly = Polynomial()
    for _ in range(n_terms):
        term = Polynomial.constant(draw(st.integers(min_value=1, max_value=3)))
        for var in draw(st.lists(st.sampled_from("xyz"), max_size=2)):
            term = term * Polynomial.variable(var)
        poly = poly + term
    return poly


@st.composite
def sparse_data(draw, attrs: Tuple[str, ...], max_index: int = 8,
                semiring=INT, max_entries: int = 10) -> Dict[Tuple[int, ...], Any]:
    """A finitely supported function: coordinate tuples → nonzero values."""
    _, elements = EXACT_SEMIRINGS["int"] if semiring is INT else ("", None)
    if semiring is INT:
        values = st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0)
    elif semiring is NAT:
        values = st.integers(min_value=1, max_value=9)
    elif semiring is BOOL:
        values = st.just(True)
    else:
        values = st.integers(min_value=-9, max_value=9).map(float).filter(
            lambda v: not semiring.is_zero(v)
        )
    keys = st.tuples(*(st.integers(min_value=0, max_value=max_index - 1)
                       for _ in attrs))
    return draw(st.dictionaries(keys, values, max_size=max_entries))


# ----------------------------------------------------------------------
# nested sums and sums of products (checked against the denotation 𝒯)
# ----------------------------------------------------------------------
SUM_N = 4
SUM_ATTRS = ("i", "j", "k")
#: sums of 2–3 terms; a term with two operands is a product
SUM_FORMS = ("a+b", "a+b+c", "a*b+c", "a*b+c*d", "a+b*c+d")


@dataclass
class SumProgram:
    """A generated ℒ program: expression, typing context, operand
    K-relations (for ``denote``) and the matching tensors."""

    expr: Any
    ctx: Any
    krels: Dict[str, Any]
    tensors: Dict[str, Any]
    out_attrs: Tuple[str, ...]
    tag: str

    @property
    def schema(self):
        return self.ctx.schema


@st.composite
def sum_programs(draw, semiring) -> SumProgram:
    """``Σ?(t₁ + t₂ [+ t₃])`` over 1–3 levels, each ``tₙ`` an operand or
    a product of two, summed left- or right-nested, any subset of the
    levels contracted, operands compressed at every level or dense on
    the outermost — the programs whose merge loops bind per-iteration
    temporaries, at every nesting depth the compiler distinguishes."""
    from repro.data import tensor_from_krelation
    from repro.krelation import KRelation, Schema
    from repro.lang import Sum, TypeContext, Var

    depth = draw(st.integers(min_value=1, max_value=3))
    attrs = SUM_ATTRS[:depth]
    form = draw(st.sampled_from(SUM_FORMS))
    right_nested = draw(st.booleans())
    dense_outer = draw(st.booleans())
    contracted = tuple(a for a in attrs if draw(st.booleans()))

    schema = Schema.of(**{a: range(SUM_N) for a in attrs})
    names = sorted(set(form) - set("+*"))
    ctx = TypeContext(schema, {v: set(attrs) for v in names})
    formats = (("dense",) if dense_outer else ("sparse",)) + ("sparse",) * (depth - 1)
    krels, tensors = {}, {}
    for v in names:
        data = draw(sparse_data(attrs, max_index=SUM_N, semiring=semiring,
                                max_entries=8))
        krels[v] = KRelation(schema, semiring, attrs, data)
        tensors[v] = tensor_from_krelation(krels[v], formats, (SUM_N,) * depth)

    terms = []
    for term in form.split("+"):
        factors = [Var(v) for v in term.split("*")]
        terms.append(factors[0] if len(factors) == 1 else factors[0] * factors[1])
    if right_nested:
        expr = terms[-1]
        for t in reversed(terms[:-1]):
            expr = t + expr
    else:
        expr = terms[0]
        for t in terms[1:]:
            expr = expr + t
    for a in reversed(contracted):
        expr = Sum(a, expr)
    tag = "_".join([
        form.replace("+", "p").replace("*", "m"), f"d{depth}",
        "r" if right_nested else "l", "dn" if dense_outer else "sp",
        "c" + "".join(contracted),
    ])
    out_attrs = tuple(a for a in attrs if a not in contracted)
    return SumProgram(expr, ctx, krels, tensors, out_attrs, tag)
