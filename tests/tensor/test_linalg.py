"""Named kernels (repro.tensor.linalg) vs numpy ground truth."""

import numpy as np
import pytest

from repro.data import Tensor
from repro.semirings import FLOAT
from repro.tensor import linalg
from repro.workloads import dense_matrix, dense_vector, sparse_matrix, sparse_tensor3

N = 20


def to_dense(t, dims):
    out = np.zeros(dims)
    for key, v in t.to_dict().items():
        out[key] = v
    return out


@pytest.fixture(scope="module")
def A():
    return sparse_matrix(N, N, 0.25, attrs=("i", "j"), seed=1)


def test_spmv_with_tensor_vector(A):
    x = dense_vector(N, attr="j", seed=2)
    y = linalg.spmv(A, x)
    assert np.allclose(to_dense(y, (N,)), to_dense(A, (N, N)) @ to_dense(x, (N,)))


def test_spmv_with_numpy_vector(A):
    x = np.random.default_rng(3).random(N)
    y = linalg.spmv(A, x)
    assert np.allclose(to_dense(y, (N,)), to_dense(A, (N, N)) @ x)


def test_spmv_rank_check():
    m = sparse_matrix(N, N, 0.1, seed=4)
    from repro.krelation import ShapeError

    with pytest.raises(ShapeError):
        linalg.spmv(m, m)


def test_matmul(A):
    B = sparse_matrix(N, N, 0.25, attrs=("k", "j"), seed=5)
    C = linalg.matmul(A, B)
    assert np.allclose(to_dense(C, (N, N)),
                       to_dense(A, (N, N)) @ to_dense(B, (N, N)))


def test_matmul_output_past_the_old_capacity_guess():
    """1,200 output entries: more than the 1,024 a capacity guess from
    nnz(A) once reserved, and the default reservation holds them."""
    rows, n = 4, 300
    A = Tensor.from_entries(("i", "k"), ("dense", "sparse"), (rows, n),
                            {(i, 7 * i): 1.0 + i for i in range(rows)}, FLOAT)
    B = Tensor.from_entries(("k", "j"), ("dense", "sparse"), (n, n),
                            {(7 * i, j): float(j % 5 + 1)
                             for i in range(rows) for j in range(n)}, FLOAT)
    C = linalg.matmul(A, B)
    assert C.nnz == rows * n
    assert np.allclose(to_dense(C, (rows, n)),
                       to_dense(A, (rows, n)) @ to_dense(B, (n, n)))


def test_inner_and_frobenius(A):
    B = sparse_matrix(N, N, 0.25, attrs=("i", "j"), seed=6)
    got = linalg.inner(A, B)
    want = float((to_dense(A, (N, N)) * to_dense(B, (N, N))).sum())
    assert got == pytest.approx(want)
    assert linalg.frobenius_norm_sq(A) == pytest.approx(
        float((to_dense(A, (N, N)) ** 2).sum())
    )


def test_sddmm(A):
    Ad = dense_matrix(N, N, attrs=("i", "k"), seed=7)
    Bd = dense_matrix(N, N, attrs=("k", "j"), seed=8)
    C = linalg.sddmm(A, Ad, Bd)
    S = to_dense(A, (N, N))
    want = S * (to_dense(Ad, (N, N)) @ to_dense(Bd, (N, N)))
    assert np.allclose(to_dense(C, (N, N)), want)
    # output inherits the sample's sparsity pattern (up to exact zeros)
    assert set(C.to_dict()) <= set(A.to_dict())


def test_sddmm_cost_scales_with_sample(A):
    """The fused kernel never visits (i,j) outside S's support — check
    by counting output candidates, which equal nnz(S)."""
    Ad = dense_matrix(N, 4, attrs=("i", "k"), seed=9)
    Bd = dense_matrix(4, N, attrs=("k", "j"), seed=10)
    C = linalg.sddmm(A, Ad, Bd, capacity=2 * A.nnz)
    assert C.nnz <= A.nnz


def test_mttkrp():
    n = 10
    B = sparse_tensor3((n, n, n), 0.05, attrs=("i", "k", "l"), seed=11)
    C = dense_matrix(n, n, attrs=("k", "j"), seed=12)
    D = dense_matrix(n, n, attrs=("l", "j"), seed=13)
    got = linalg.mttkrp(B, C, D)
    want = np.einsum("ikl,kj,lj->ij", to_dense(B, (n, n, n)),
                     to_dense(C, (n, n)), to_dense(D, (n, n)))
    assert np.allclose(to_dense(got, (n, n)), want)


def test_transpose(A):
    T = linalg.transpose(A)
    assert to_dense(T, (N, N)).T == pytest.approx(to_dense(A, (N, N)))
