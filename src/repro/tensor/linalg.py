"""Named linear-algebra kernels on level-format tensors.

Thin, well-typed wrappers over :func:`repro.tensor.einsum` for the
kernels the paper's evaluation exercises (SpMV, matmul, inner product)
plus the classic fused kernels the TACO line of work popularized
(SDDMM, residuals).  Each wrapper picks sensible formats and caches
nothing — kernel caching happens at the C level by source hash.  A
compressed output sizes itself
(:meth:`~repro.compiler.kernel.Kernel.execute`), so no wrapper guesses
a capacity.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.data.tensor import Tensor
from repro.krelation.schema import ShapeError
from repro.semirings.base import Semiring
from repro.semirings.instances import FLOAT
from repro.tensor.einsum import einsum, repack


def _as_vector(x, attr: str, semiring: Semiring = FLOAT) -> Tensor:
    if isinstance(x, Tensor):
        if x.order != 1:
            raise ShapeError(f"expected a vector, got {x!r}")
        if x.attrs != (attr,):
            return Tensor((attr,), x.formats, x.dims, x.pos, x.crd, x.vals,
                          x.semiring, check=False)
        return x
    arr = np.asarray(x, dtype=np.float64)
    return Tensor.from_coo(
        (attr,), ("dense",), (len(arr),), np.arange(len(arr)), arr, semiring)


def _relabel(t: Tensor, attrs: Sequence[str]) -> Tensor:
    if t.order != len(attrs):
        raise ShapeError(f"tensor {t!r} is not rank {len(attrs)}")
    return Tensor(tuple(attrs), t.formats, t.dims, t.pos, t.crd, t.vals,
                  t.semiring, check=False)


def spmv(A: Tensor, x, backend: str = "c") -> Tensor:
    """y = A·x for a rank-2 A and a vector (Tensor or array)."""
    A2 = _relabel(A, ("i", "j"))
    xv = _as_vector(x, "j", A.semiring)
    return einsum("ij,j->i", A2, xv, backend=backend, kernel_name="la_spmv")


def matmul(
    A: Tensor,
    B: Tensor,
    output_formats=("dense", "sparse"),
    capacity: Optional[int] = None,
    backend: str = "c",
) -> Tensor:
    """C = A·B by linear combination of rows (the fast §5.4.1 order)."""
    A2 = _relabel(A, ("i", "k"))
    B2 = _relabel(B, ("k", "j"))
    return einsum("ik,kj->ij", A2, B2, output_formats=output_formats,
                  order=("i", "k", "j"), capacity=capacity, backend=backend,
                  kernel_name="la_matmul")


def inner(A: Tensor, B: Tensor, backend: str = "c") -> float:
    """Σ_ij A(i,j)·B(i,j)."""
    return einsum("ij,ij->", _relabel(A, ("i", "j")), _relabel(B, ("i", "j")),
                  backend=backend, kernel_name="la_inner")


def sddmm(
    S: Tensor,
    A: Tensor,
    B: Tensor,
    capacity: Optional[int] = None,
    backend: str = "c",
) -> Tensor:
    """Sampled dense-dense matrix multiplication:

        C(i,j) = S(i,j) · Σ_k A(i,k)·B(k,j)

    the fusion showcase of the sparse-compilation literature: the k
    contraction only runs at S's nonzero positions, and with the locate
    optimization A and B are indexed directly — cost O(nnz(S)·K)
    rather than O(N²K).
    """
    S2 = _relabel(S, ("i", "j"))
    A2 = _relabel(A, ("i", "k"))
    # the j loop nests above k, so B must be presented j-major
    Bt = repack(_relabel(B, ("k", "j")), ("j", "k"), B.formats)
    return einsum("ij,ik,jk->ij", S2, A2, Bt,
                  output_formats=S.formats,
                  order=("i", "j", "k"),
                  capacity=capacity, backend=backend, kernel_name="la_sddmm")


def mttkrp(B: Tensor, C: Tensor, D: Tensor, backend: str = "c") -> Tensor:
    """A(i,j) = Σ_kl B(i,k,l)·C(k,j)·D(l,j) (dense output)."""
    B3 = _relabel(B, ("i", "k", "l"))
    C2 = _relabel(C, ("k", "j"))
    D2 = _relabel(D, ("l", "j"))
    return einsum("ikl,kj,lj->ij", B3, C2, D2, backend=backend,
                  kernel_name="la_mttkrp")


def frobenius_norm_sq(A: Tensor, backend: str = "c") -> float:
    """‖A‖_F² = Σ_ij A(i,j)²."""
    return inner(A, A, backend=backend)


def transpose(A: Tensor, formats=None) -> Tensor:
    """Aᵀ as a materialized temporary (a repack)."""
    A2 = _relabel(A, ("i", "j"))
    out = repack(A2, ("j", "i"), formats or A.formats)
    return out
