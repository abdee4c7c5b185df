"""TPC-H Query 5 ("local supplier volume") three ways.

The contraction-expression form computes, per nation ``n``::

    revenue(n) = Σ_{o,c,r,s,ln}  orders(o,c) · orders_in_1994(o)
               · customer(c,n) · nation(n,r) · region_asia(r)
               · supplier(n,s) · lineitem_rev(o,s,ln)

with the global attribute ordering o < c < n < r < s < ln: the fused
loop drives from orders (one pass over the fact data), follows the
functional joins o→c→n→r, and intersects the nation's suppliers with
the order's lineitem suppliers — overall linear in the data, which is
the join-locality advantage Figure 19 attributes to Etch on Q5.  All
joins, the date selection, and SUM/GROUP BY fuse into one loop nest;
the date and region selections are boolean-valued streams, the same
technique the paper uses for Q9's substring predicate.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.compiler.kernel import Kernel, OutputSpec
from repro.data.tensor import Tensor
from repro.lang.ast import Var, sum_over
from repro.relational.encode import relation_to_tensor
from repro.relational.query import Query
from repro.semirings.instances import FLOAT
from repro.tpch.datagen import TpchData
from repro.baselines import pairwise
from repro.baselines.sqlite_bridge import SqliteDB

ATTR_ORDER = ("o", "c", "n", "r", "s", "ln")

# each operand's attributes, outermost first: what build_tensors packs
# and what ``python -m repro.lint`` checks expression() against
SHAPES = {
    "orders": ("o", "c"),
    "odate": ("o",),
    "customer": ("c", "n"),
    "nation": ("n", "r"),
    "region_asia": ("r",),
    "supplier": ("n", "s"),
    "lineitem": ("o", "s", "ln"),
}

DATE_LO = 19940101
DATE_HI = 19950101

SQL = """
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= 19940101 AND o_orderdate < 19950101
GROUP BY n_name
"""


def build_tensors(data: TpchData) -> Dict[str, Tensor]:
    """Pack the tables into level-format tensors under ATTR_ORDER.

    Key columns that are 0-based surrogate keys get dense levels (the
    paper's Example 2.2: numeric identifiers favour dense storage);
    everything else is compressed.
    """
    one = lambda _row: 1.0
    dims = {
        "o": len(data.orders),
        "c": len(data.customer),
        "n": 25,
        "r": 5,
        "s": len(data.supplier),
        "ln": 8,
    }

    def pack(name, rel, keys, measure=one, formats=None):
        return relation_to_tensor(
            rel, keys, formats=formats, measure=measure, semiring=FLOAT,
            attr_names=dict(zip(keys, SHAPES[name])), dims=dims,
        )

    return {
        "orders": pack("orders", data.orders, ("o_orderkey", "o_custkey"),
                       formats=("dense", "sparse")),
        # the date selection as a boolean-valued stream over orderkey
        "odate": pack(
            "odate",
            data.orders.select(lambda row: DATE_LO <= row["o_orderdate"] < DATE_HI),
            ("o_orderkey",),
        ),
        "customer": pack("customer", data.customer,
                         ("c_custkey", "c_nationkey"),
                         formats=("dense", "sparse")),
        "nation": pack("nation", data.nation, ("n_nationkey", "n_regionkey"),
                       formats=("dense", "sparse")),
        "region_asia": pack(
            "region_asia",
            data.region.select(lambda row: row["r_name"] == "ASIA"),
            ("r_regionkey",),
        ),
        "supplier": pack("supplier", data.supplier,
                         ("s_nationkey", "s_suppkey")),
        "lineitem": pack(
            "lineitem", data.lineitem,
            ("l_orderkey", "l_suppkey", "l_linenumber"),
            measure=lambda row: row["l_extendedprice"] * (1.0 - row["l_discount"]),
            formats=("dense", "sparse", "sparse"),
        ),
    }


def expression():
    body = (
        Var("orders") * Var("odate") * Var("customer") * Var("nation")
        * Var("region_asia") * Var("supplier") * Var("lineitem")
    )
    return sum_over(("o", "c", "r", "s", "ln"), body)


def prepare_etch(data: TpchData, backend: str = "c", search: str = "linear") -> Tuple[Kernel, Dict[str, Tensor]]:
    """Build tensors and compile the fused kernel (the paper prepares
    queries before repeated execution — fairness measure (d))."""
    tensors = build_tensors(data)
    query = Query(ATTR_ORDER, FLOAT)
    for name, tensor in tensors.items():
        query.bind(name, tensor)
    kernel = query.compile(
        expression(),
        OutputSpec(("n",), ("dense",), (25,)),
        backend=backend,
        search=search,
        name="tpch_q5",
    )
    return kernel, tensors


def run_etch(kernel: Kernel, tensors: Dict[str, Tensor], data: TpchData) -> Dict[str, float]:
    coords, vals = kernel.run(tensors).to_coo()
    names = {k: name for k, name, _reg in data.nation.rows}
    return {names[n]: v for (n,), v in zip(coords.tolist(), vals.tolist())}


def load_sqlite(data: TpchData) -> SqliteDB:
    db = SqliteDB()
    for name, rel in data.tables.items():
        db.load(name, rel)
    # indices with the same column ordering as the Etch plan
    db.index("supplier", ("s_nationkey", "s_suppkey"))
    db.index("customer", ("c_custkey", "c_nationkey"))
    db.index("orders", ("o_orderkey", "o_custkey"))
    db.index("lineitem", ("l_orderkey", "l_suppkey"))
    db.index("nation", ("n_nationkey", "n_regionkey"))
    db.analyze()
    return db


def run_sqlite(db: SqliteDB) -> Dict[str, float]:
    return {name: rev for name, rev in db.query(SQL)}


def run_pairwise(data: TpchData) -> Dict[str, float]:
    """The classical plan: filter, pairwise hash joins, then aggregate."""
    region = data.region.select(lambda r: r["r_name"] == "ASIA")
    orders = data.orders.select(
        lambda r: DATE_LO <= r["o_orderdate"] < DATE_HI
    )
    nation = data.nation.rename({"n_nationkey": "c_nationkey"})
    customer = data.customer
    supplier = data.supplier.rename({"s_nationkey": "c_nationkey"})
    lineitem = data.lineitem.rename(
        {"l_orderkey": "o_orderkey", "l_suppkey": "s_suppkey"}
    )
    region = region.rename({"r_regionkey": "n_regionkey"})
    orders = orders.rename({"o_custkey": "c_custkey"})

    joined = pairwise.join_all([nation, region, customer, orders, lineitem, supplier])
    agg = pairwise.aggregate(
        joined, ("n_name",),
        lambda row: row["l_extendedprice"] * (1.0 - row["l_discount"]),
    )
    return {name: v for name, v in agg.rows}
