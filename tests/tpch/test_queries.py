"""TPC-H Q5 and Q9: the Etch kernels, SQLite, and the pairwise engine
must all agree (three independent implementations)."""

import pytest

from repro.tpch import generate, q5, q9


@pytest.fixture(scope="module")
def data():
    return generate(0.002, seed=11)


def agree(a, b, tol=1e-3):
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) < tol for k in keys)


@pytest.fixture(scope="module", params=["c", "interp"])
def backend(request):
    return request.param


def test_q5_three_way_agreement(data):
    kernel, tensors = q5.prepare_etch(data)
    etch = q5.run_etch(kernel, tensors, data)
    db = q5.load_sqlite(data)
    sql = q5.run_sqlite(db)
    pw = q5.run_pairwise(data)
    db.close()
    assert etch, "query must produce revenue rows"
    assert agree(etch, sql)
    assert agree(etch, pw)


def test_q5_interp_backend_agrees(data):
    kc, tc = q5.prepare_etch(data, backend="c")
    ki, ti = q5.prepare_etch(data, backend="interp")
    assert agree(q5.run_etch(kc, tc, data), q5.run_etch(ki, ti, data), tol=1e-6)


def test_q5_only_asia_nations(data):
    kernel, tensors = q5.prepare_etch(data)
    etch = q5.run_etch(kernel, tensors, data)
    asia = {name for name, reg in
            ((n, r) for n, r in [(row[1], row[2]) for row in data.nation.rows])
            if reg == 2}
    assert set(etch) <= asia


def test_q9_three_way_agreement(data):
    kernel, tensors = q9.prepare_etch(data)
    etch = q9.run_etch(kernel, tensors, data)
    db = q9.load_sqlite(data)
    sql = q9.run_sqlite(db)
    pw = q9.run_pairwise(data)
    db.close()
    assert etch
    assert agree(etch, sql)
    assert agree(etch, pw)


def test_q9_binary_search_agrees(data):
    k1, t1 = q9.prepare_etch(data, search="linear")
    k2, t2 = q9.prepare_etch(data, search="binary")
    binary = q9.run_etch(k2, t2, data)
    assert agree(q9.run_etch(k1, t1, data), binary, tol=1e-6)
    db = q9.load_sqlite(data)
    sql = q9.run_sqlite(db)
    db.close()
    assert agree(binary, sql)
    assert agree(binary, q9.run_pairwise(data))


@pytest.mark.parametrize("query", [q5, q9], ids=["q5", "q9"])
def test_tensors_have_the_shapes_the_lint_checks(data, query):
    """``SHAPES`` is the one table of operand attributes: what
    ``build_tensors`` packs is what ``python -m repro.lint`` reads."""
    tensors = query.build_tensors(data)
    assert {name: t.attrs for name, t in tensors.items()} == query.SHAPES


def test_q9_keys_are_nation_year(data):
    kernel, tensors = q9.prepare_etch(data)
    etch = q9.run_etch(kernel, tensors, data)
    for nation, year in etch:
        assert isinstance(nation, str)
        assert 1992 <= year <= 1998


def test_q9_year_op():
    assert q9.year_of(19940317) == 1994


def test_kernels_are_reusable_across_runs(data):
    kernel, tensors = q5.prepare_etch(data)
    first = q5.run_etch(kernel, tensors, data)
    second = q5.run_etch(kernel, tensors, data)
    assert first == second
