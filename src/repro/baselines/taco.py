"""TACO-style hand-written C kernels (the Section 8.1 baseline).

Each function replicates the loop structure the TACO compiler
[Kjolstad et al. 2017] generates for the corresponding expression:
per-row two-pointer merge loops for co-iteration (TACO skips by
incrementing, not binary search) and dense row workspaces for matmul
assembly [Kjolstad et al. 2019].  The C sources are compiled with the
same gcc pipeline as Etch kernels, so comparisons measure loop
strategy, not toolchain differences.  Like TACO's, each kernel reads
a ``crd`` at the width its tensor stores (32 bits when the dimension
fits), and writes its output's at the width of the output dimension.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.compiler.codegen_c import CKernel, c_name
from repro.compiler.formats import Param, crd_ctype
from repro.compiler.ir import TFLOAT, TINT
from repro.data.tensor import Tensor, crd_dtype
from repro.semirings.instances import FLOAT

_PRELUDE = """#include <stdint.h>
#include <stdbool.h>
#include <math.h>
#include <stdlib.h>

static int _cmp_i64(const void* a, const void* b) {
  int64_t x = *(const int64_t*)a, y = *(const int64_t*)b;
  return (x > y) - (x < y);
}
"""


#: each kernel, built on first use for each combination of crd widths
_KERNELS: Dict[Tuple[str, Tuple[str, ...]], CKernel] = {}


def _kernel(name: str, params, body: str) -> CKernel:
    key = (name, tuple(p.ctype for p in params))
    kernel = _KERNELS.get(key)
    if kernel is None:
        sig = ", ".join(
            f"{c_name(p.ctype)}* {p.name}" if p.kind == "array"
            else f"int64_t {p.name}"
            for p in params
        )
        source = f"{_PRELUDE}\nvoid {name}({sig}) {{\n{body}\n}}\n"
        kernel = _KERNELS[key] = CKernel(source, name, params)
    return kernel


def _arr(name, t=TINT):
    return Param(name, "array", t)


def _crd(name, crd: np.ndarray):
    """A ``crd`` parameter at the width of the array passed for it."""
    return Param(name, "array", crd_ctype(crd.dtype))


def _scl(name):
    return Param(name, "scalar", TINT)


# ----------------------------------------------------------------------
# SpMV: y(i) = Σ_j A(i,j) x(j), A in CSR, x/y dense
# ----------------------------------------------------------------------
def spmv(A: Tensor, x: np.ndarray) -> np.ndarray:
    kernel = _kernel(
        "taco_spmv",
        [_arr("A_pos"), _crd("A_crd", A.crd[1]), _arr("A_vals", TFLOAT),
         _arr("x", TFLOAT), _arr("y", TFLOAT), _scl("n")],
        """
  for (int64_t i = 0; i < n; i++) {
    double t = 0.0;
    for (int64_t p = A_pos[i]; p < A_pos[i+1]; p++)
      t += A_vals[p] * x[A_crd[p]];
    y[i] = t;
  }
""",
    )
    n = A.dims[0]
    y = np.zeros(n, dtype=np.float64)
    kernel({
        "A_pos": A.pos[1], "A_crd": A.crd[1],
        "A_vals": np.ascontiguousarray(A.vals, dtype=np.float64),
        "x": np.ascontiguousarray(x, dtype=np.float64), "y": y, "n": n,
    })
    return y


# ----------------------------------------------------------------------
# add: C(i,j) = A(i,j) + B(i,j), all CSR — TACO's two-way merge loop
# ----------------------------------------------------------------------
def add(A: Tensor, B: Tensor) -> Tensor:
    n = A.dims[0]
    cap = len(A.vals) + len(B.vals)
    C_pos = np.zeros(n + 1, dtype=np.int64)
    C_crd = np.zeros(max(cap, 1), dtype=crd_dtype(A.dims[1]))
    C_vals = np.zeros(max(cap, 1), dtype=np.float64)
    size = np.zeros(1, dtype=np.int64)
    kernel = _kernel(
        "taco_add",
        [_arr("A_pos"), _crd("A_crd", A.crd[1]), _arr("A_vals", TFLOAT),
         _arr("B_pos"), _crd("B_crd", B.crd[1]), _arr("B_vals", TFLOAT),
         _arr("C_pos"), _crd("C_crd", C_crd), _arr("C_vals", TFLOAT),
         _arr("out_size"), _scl("n")],
        """
  int64_t nnz = 0;
  C_pos[0] = 0;
  for (int64_t i = 0; i < n; i++) {
    int64_t pa = A_pos[i], pb = B_pos[i];
    int64_t ea = A_pos[i+1], eb = B_pos[i+1];
    while (pa < ea && pb < eb) {
      int64_t ja = A_crd[pa], jb = B_crd[pb];
      if (ja == jb) {
        C_crd[nnz] = ja; C_vals[nnz++] = A_vals[pa++] + B_vals[pb++];
      } else if (ja < jb) {
        C_crd[nnz] = ja; C_vals[nnz++] = A_vals[pa++];
      } else {
        C_crd[nnz] = jb; C_vals[nnz++] = B_vals[pb++];
      }
    }
    while (pa < ea) { C_crd[nnz] = A_crd[pa]; C_vals[nnz++] = A_vals[pa++]; }
    while (pb < eb) { C_crd[nnz] = B_crd[pb]; C_vals[nnz++] = B_vals[pb++]; }
    C_pos[i+1] = nnz;
  }
  out_size[0] = nnz;
""",
    )
    kernel({
        "A_pos": A.pos[1], "A_crd": A.crd[1],
        "A_vals": np.ascontiguousarray(A.vals, dtype=np.float64),
        "B_pos": B.pos[1], "B_crd": B.crd[1],
        "B_vals": np.ascontiguousarray(B.vals, dtype=np.float64),
        "C_pos": C_pos, "C_crd": C_crd, "C_vals": C_vals,
        "out_size": size, "n": n,
    })
    nnz = int(size[0])
    return Tensor(A.attrs, ("dense", "sparse"), A.dims,
                  {1: C_pos}, {1: C_crd[:nnz]}, C_vals[:nnz], FLOAT, check=False)


# ----------------------------------------------------------------------
# inner: Σ_ij A(i,j) B(i,j), both CSR — per-row two-pointer merge
# ----------------------------------------------------------------------
def inner(A: Tensor, B: Tensor) -> float:
    kernel = _kernel(
        "taco_inner",
        [_arr("A_pos"), _crd("A_crd", A.crd[1]), _arr("A_vals", TFLOAT),
         _arr("B_pos"), _crd("B_crd", B.crd[1]), _arr("B_vals", TFLOAT),
         _arr("out", TFLOAT), _scl("n")],
        """
  double acc = 0.0;
  for (int64_t i = 0; i < n; i++) {
    int64_t pa = A_pos[i], pb = B_pos[i];
    while (pa < A_pos[i+1] && pb < B_pos[i+1]) {
      int64_t ja = A_crd[pa], jb = B_crd[pb];
      if (ja == jb) acc += A_vals[pa++] * B_vals[pb++];
      else if (ja < jb) pa++;
      else pb++;
    }
  }
  out[0] = acc;
""",
    )
    out = np.zeros(1, dtype=np.float64)
    kernel({
        "A_pos": A.pos[1], "A_crd": A.crd[1],
        "A_vals": np.ascontiguousarray(A.vals, dtype=np.float64),
        "B_pos": B.pos[1], "B_crd": B.crd[1],
        "B_vals": np.ascontiguousarray(B.vals, dtype=np.float64),
        "out": out, "n": A.dims[0],
    })
    return float(out[0])


# ----------------------------------------------------------------------
# mmul: C = A·B, all CSR — linear combination of rows with a dense
# workspace per row (the TACO workspaces kernel)
# ----------------------------------------------------------------------
def mmul(A: Tensor, B: Tensor) -> Tensor:
    n = A.dims[0]
    m = B.dims[1]
    cap = n * m if n * m < (1 << 24) else (1 << 24)
    env = {
        "A_pos": A.pos[1], "A_crd": A.crd[1],
        "A_vals": np.ascontiguousarray(A.vals, dtype=np.float64),
        "B_pos": B.pos[1], "B_crd": B.crd[1],
        "B_vals": np.ascontiguousarray(B.vals, dtype=np.float64),
        "C_pos": np.zeros(n + 1, dtype=np.int64),
        "C_crd": np.zeros(cap, dtype=crd_dtype(m)),
        "C_vals": np.zeros(cap, dtype=np.float64),
        "w": np.zeros(m, dtype=np.float64),
        "wlist": np.zeros(m, dtype=np.int64),
        "wmask": np.zeros(m, dtype=np.int64),
        "out_size": np.zeros(1, dtype=np.int64),
        "n": n,
    }
    kernel = _kernel(
        "taco_mmul",
        [_arr("A_pos"), _crd("A_crd", A.crd[1]), _arr("A_vals", TFLOAT),
         _arr("B_pos"), _crd("B_crd", B.crd[1]), _arr("B_vals", TFLOAT),
         _arr("C_pos"), _crd("C_crd", env["C_crd"]), _arr("C_vals", TFLOAT),
         _arr("w", TFLOAT), _arr("wlist"), _arr("wmask"),
         _arr("out_size"), _scl("n")],
        """
  int64_t nnz = 0;
  C_pos[0] = 0;
  for (int64_t i = 0; i < n; i++) {
    int64_t cnt = 0;
    for (int64_t pa = A_pos[i]; pa < A_pos[i+1]; pa++) {
      int64_t k = A_crd[pa];
      double va = A_vals[pa];
      for (int64_t pb = B_pos[k]; pb < B_pos[k+1]; pb++) {
        int64_t j = B_crd[pb];
        if (!wmask[j]) { wmask[j] = 1; wlist[cnt++] = j; w[j] = 0.0; }
        w[j] += va * B_vals[pb];
      }
    }
    qsort(wlist, cnt, sizeof(int64_t), _cmp_i64);
    for (int64_t t = 0; t < cnt; t++) {
      int64_t j = wlist[t];
      C_crd[nnz] = j; C_vals[nnz++] = w[j]; wmask[j] = 0;
    }
    C_pos[i+1] = nnz;
  }
  out_size[0] = nnz;
""",
    )
    kernel(env)
    nnz = int(env["out_size"][0])
    return Tensor(("i", "k"), ("dense", "sparse"), (n, m),
                  {1: env["C_pos"]}, {1: env["C_crd"][:nnz]},
                  env["C_vals"][:nnz], FLOAT, check=False)


# ----------------------------------------------------------------------
# smul: C = A·B, all DCSR — TACO co-iterates A's column list with B's
# row list by a two-pointer (linear) merge; Etch's binary-search skip
# is the asymptotic improvement Section 8.1 reports
# ----------------------------------------------------------------------
def smul(A: Tensor, B: Tensor) -> Tensor:
    n = A.dims[0]
    m = B.dims[1]
    cap = min(n * m, 1 << 24)
    row_cap = min(n, cap)
    env = {
        "A_pos0": A.pos[0], "A_crd0": A.crd[0], "A_pos1": A.pos[1],
        "A_crd1": A.crd[1],
        "A_vals": np.ascontiguousarray(A.vals, dtype=np.float64),
        "B_pos0": B.pos[0], "B_crd0": B.crd[0], "B_pos1": B.pos[1],
        "B_crd1": B.crd[1],
        "B_vals": np.ascontiguousarray(B.vals, dtype=np.float64),
        "C_crd0": np.zeros(row_cap, dtype=crd_dtype(n)),
        "C_pos1": np.zeros(row_cap + 1, dtype=np.int64),
        "C_crd1": np.zeros(cap, dtype=crd_dtype(m)),
        "C_vals": np.zeros(cap, dtype=np.float64),
        "w": np.zeros(m, dtype=np.float64),
        "wlist": np.zeros(m, dtype=np.int64),
        "wmask": np.zeros(m, dtype=np.int64),
        "out_size": np.zeros(2, dtype=np.int64),
    }
    kernel = _kernel(
        "taco_smul",
        [_arr("A_pos0"), _crd("A_crd0", A.crd[0]), _arr("A_pos1"),
         _crd("A_crd1", A.crd[1]), _arr("A_vals", TFLOAT),
         _arr("B_pos0"), _crd("B_crd0", B.crd[0]), _arr("B_pos1"),
         _crd("B_crd1", B.crd[1]), _arr("B_vals", TFLOAT),
         _crd("C_crd0", env["C_crd0"]), _arr("C_pos1"),
         _crd("C_crd1", env["C_crd1"]), _arr("C_vals", TFLOAT),
         _arr("w", TFLOAT), _arr("wlist"), _arr("wmask"),
         _arr("out_size")],
        """
  int64_t n0 = 0, nnz = 0;
  C_pos1[0] = 0;
  int64_t a_rows = A_pos0[1];
  int64_t b_rows = B_pos0[1];
  for (int64_t qa = 0; qa < a_rows; qa++) {
    int64_t i = A_crd0[qa];
    int64_t cnt = 0;
    int64_t pa = A_pos1[qa], ea = A_pos1[qa+1];
    int64_t qb = 0;
    while (pa < ea && qb < b_rows) {
      int64_t k = A_crd1[pa], kb = B_crd0[qb];
      if (k == kb) {
        double va = A_vals[pa];
        for (int64_t pb = B_pos1[qb]; pb < B_pos1[qb+1]; pb++) {
          int64_t j = B_crd1[pb];
          if (!wmask[j]) { wmask[j] = 1; wlist[cnt++] = j; w[j] = 0.0; }
          w[j] += va * B_vals[pb];
        }
        pa++; qb++;
      } else if (k < kb) pa++;
      else qb++;
    }
    if (cnt > 0) {
      qsort(wlist, cnt, sizeof(int64_t), _cmp_i64);
      for (int64_t t = 0; t < cnt; t++) {
        int64_t j = wlist[t];
        C_crd1[nnz] = j; C_vals[nnz++] = w[j]; wmask[j] = 0;
      }
      C_crd0[n0++] = i;
      C_pos1[n0] = nnz;
    }
  }
  out_size[0] = n0;
  out_size[1] = nnz;
""",
    )
    kernel(env)
    n0 = int(env["out_size"][0])
    nnz = int(env["out_size"][1])
    return Tensor(("i", "k"), ("sparse", "sparse"), (n, m),
                  {0: np.array([0, n0], dtype=np.int64), 1: env["C_pos1"][: n0 + 1]},
                  {0: env["C_crd0"][:n0], 1: env["C_crd1"][:nnz]},
                  env["C_vals"][:nnz], FLOAT, check=False)


# ----------------------------------------------------------------------
# MTTKRP: A(i,j) = Σ_kl B(i,k,l) C(k,j) D(l,j), B in CSF, C/D/A dense
# ----------------------------------------------------------------------
def mttkrp(B: Tensor, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    kernel = _kernel(
        "taco_mttkrp",
        [_arr("B_pos0"), _crd("B_crd0", B.crd[0]), _arr("B_pos1"),
         _crd("B_crd1", B.crd[1]), _arr("B_pos2"), _crd("B_crd2", B.crd[2]),
         _arr("B_vals", TFLOAT),
         _arr("C", TFLOAT), _arr("D", TFLOAT), _arr("A", TFLOAT),
         _scl("r")],
        """
  for (int64_t q0 = 0; q0 < B_pos0[1]; q0++) {
    int64_t i = B_crd0[q0];
    for (int64_t q1 = B_pos1[q0]; q1 < B_pos1[q0+1]; q1++) {
      int64_t k = B_crd1[q1];
      for (int64_t q2 = B_pos2[q1]; q2 < B_pos2[q1+1]; q2++) {
        int64_t l = B_crd2[q2];
        double v = B_vals[q2];
        for (int64_t j = 0; j < r; j++)
          A[i*r + j] += v * C[k*r + j] * D[l*r + j];
      }
    }
  }
""",
    )
    r = C.shape[1]
    n = B.dims[0]
    A = np.zeros((n, r), dtype=np.float64)
    kernel({
        "B_pos0": B.pos[0], "B_crd0": B.crd[0],
        "B_pos1": B.pos[1], "B_crd1": B.crd[1],
        "B_pos2": B.pos[2], "B_crd2": B.crd[2],
        "B_vals": np.ascontiguousarray(B.vals, dtype=np.float64),
        "C": np.ascontiguousarray(C, dtype=np.float64),
        "D": np.ascontiguousarray(D, dtype=np.float64),
        "A": A.reshape(-1),
        "r": r,
    })
    return A
