"""TPC-H Query 9 ("product type profit") three ways.

profit(nation, year) = Σ over suppliers/parts/orders/lineitems of

    l_extendedprice·(1−l_discount) − ps_supplycost·l_quantity

restricted to parts whose name contains "green".  The amount is a dot
product of two vectors that ride on rows the join already pairs:
partsupp carries ``(1, −ps_supplycost)`` and lineitem ``(revenue,
l_quantity)``, each stacked on one more dense attribute ``c`` of extent
2 (``relation_to_tensor(measures=...)``).  So the query is one fused
contraction, not a sum of two::

    Σ_{s,p,o,ln,c}  supplier(n,s)·green(p)·ps(s,p,c)·line(s,p,o,ln,c)·oyear(o,y)

with attribute ordering n < s < p < o < y < ln < c.  The kernel walks
each relation's levels once and ends in a two-step dot product over
``c``.  The substring predicate is a boolean-valued stream over partkey
(exactly the paper's encoding) and year extraction is the integer op
YYYYMMDD / 10000 — the paper's custom timestamp-to-year operator.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.compiler.kernel import Kernel, OutputSpec
from repro.data.tensor import Tensor
from repro.lang.ast import Var, sum_over
from repro.relational.encode import relation_to_tensor
from repro.relational.query import Query
from repro.relational.relation import Relation
from repro.semirings.instances import FLOAT
from repro.tpch.datagen import TpchData
from repro.baselines import pairwise
from repro.baselines.sqlite_bridge import SqliteDB

ATTR_ORDER = ("n", "s", "p", "o", "y", "ln", "c")

# each operand's attributes, outermost first: what build_tensors packs
# and what ``python -m repro.lint`` checks expression() against
SHAPES = {
    "supplier": ("n", "s"),
    "green": ("p",),
    "ps": ("s", "p", "c"),
    "line": ("s", "p", "o", "ln", "c"),
    "oyear": ("o", "y"),
}

YEAR_BASE = 1992
N_YEARS = 7


def year_of(date: int) -> int:
    """The paper defines a custom operator for year extraction; with
    YYYYMMDD integer dates it is a single division."""
    return date // 10000


SQL = """
SELECT n_name AS nation, o_orderdate/10000 AS o_year,
       SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity)
       AS sum_profit
FROM part, supplier, lineitem, partsupp, orders, nation
WHERE s_suppkey = l_suppkey
  AND ps_suppkey = l_suppkey
  AND ps_partkey = l_partkey
  AND p_partkey = l_partkey
  AND o_orderkey = l_orderkey
  AND s_nationkey = n_nationkey
  AND p_name LIKE '%green%'
GROUP BY nation, o_year
"""


def build_tensors(data: TpchData) -> Dict[str, Tensor]:
    one = lambda _row: 1.0
    dims = {
        "n": 25,
        "s": len(data.supplier),
        "p": len(data.part),
        "o": len(data.orders),
        "y": N_YEARS,
        "ln": 8,
    }

    def pack(name, rel, keys, **measured):
        return relation_to_tensor(
            rel, keys, semiring=FLOAT, dims=dims,
            attr_names=dict(zip(keys, SHAPES[name])), **measured,
        )

    # the year-extraction operator applied while building the
    # (orderkey, year) boolean stream
    oyear = Relation(
        ("o_orderkey", "o_yearcode"),
        [(row[0], year_of(row[2]) - YEAR_BASE) for row in data.orders.rows],
    )
    return {
        "supplier": pack("supplier", data.supplier,
                         ("s_nationkey", "s_suppkey"), measure=one),
        # substring selection as a boolean-valued indexed stream (§8.2)
        "green": pack("green",
                      data.part.select(lambda row: "green" in row["p_name"]),
                      ("p_partkey",), measure=one),
        "ps": pack("ps", data.partsupp, ("ps_suppkey", "ps_partkey"),
                   measures=("c", (one, lambda row: -row["ps_supplycost"]))),
        "line": pack(
            "line", data.lineitem,
            ("l_suppkey", "l_partkey", "l_orderkey", "l_linenumber"),
            measures=("c", (
                lambda row: row["l_extendedprice"] * (1.0 - row["l_discount"]),
                lambda row: row["l_quantity"],
            )),
        ),
        "oyear": pack("oyear", oyear, ("o_orderkey", "o_yearcode"),
                      measure=one),
    }


def expression():
    body = (Var("supplier") * Var("green") * Var("ps") * Var("line")
            * Var("oyear"))
    return sum_over(("s", "p", "o", "ln", "c"), body)


def prepare_etch(data: TpchData, backend: str = "c", search: str = "linear") -> Tuple[Kernel, Dict[str, Tensor]]:
    tensors = build_tensors(data)
    query = Query(ATTR_ORDER, FLOAT)
    for name, tensor in tensors.items():
        query.bind(name, tensor)
    kernel = query.compile(
        expression(),
        OutputSpec(("n", "y"), ("dense", "dense"), (25, N_YEARS)),
        backend=backend,
        search=search,
        name="tpch_q9",
    )
    return kernel, tensors


def run_etch(kernel: Kernel, tensors: Dict[str, Tensor], data: TpchData) -> Dict[Tuple[str, int], float]:
    coords, vals = kernel.run(tensors).to_coo()
    names = {k: name for k, name, _reg in data.nation.rows}
    return {(names[n], YEAR_BASE + y): v
            for (n, y), v in zip(coords.tolist(), vals.tolist())}


def load_sqlite(data: TpchData) -> SqliteDB:
    db = SqliteDB()
    for name, rel in data.tables.items():
        db.load(name, rel)
    db.index("supplier", ("s_nationkey", "s_suppkey"))
    db.index("partsupp", ("ps_suppkey", "ps_partkey"))
    db.index("lineitem", ("l_suppkey", "l_partkey", "l_orderkey"))
    db.index("orders", ("o_orderkey",))
    db.index("part", ("p_partkey",))
    db.analyze()
    return db


def run_sqlite(db: SqliteDB) -> Dict[Tuple[str, int], float]:
    return {(name, year): v for name, year, v in db.query(SQL)}


def run_pairwise(data: TpchData) -> Dict[Tuple[str, int], float]:
    part = data.part.select(lambda r: "green" in r["p_name"]).rename(
        {"p_partkey": "l_partkey"}
    )
    supplier = data.supplier.rename({"s_suppkey": "l_suppkey"})
    partsupp = data.partsupp.rename(
        {"ps_partkey": "l_partkey", "ps_suppkey": "l_suppkey"}
    )
    orders = data.orders.rename({"o_orderkey": "l_orderkey"})
    nation = data.nation.rename({"n_nationkey": "s_nationkey"})

    joined = pairwise.join_all(
        [part, data.lineitem, partsupp, orders, supplier, nation]
    )
    agg = pairwise.aggregate(
        joined, ("n_name", "o_orderdate"),
        lambda row: row["l_extendedprice"] * (1.0 - row["l_discount"])
        - row["ps_supplycost"] * row["l_quantity"],
    )
    # collapse dates to years after the join, as the SQL does
    result: Dict[Tuple[str, int], float] = {}
    for name, date, v in agg.rows:
        key = (name, year_of(date))
        result[key] = result.get(key, 0.0) + v
    return result
