"""Synthetic workload generators for the evaluation (Section 8).

The paper evaluates on synthetic matrices swept over sparsity levels
("they let us sweep over different sparsity percentages to demonstrate
that Etch can generate algorithms with suitable asymptotic
complexity"), the adversarial triangle-query family
``{0}×[n] ∪ [n]×{0}`` of Ngo et al. [2014], and a scaled TPC-H
(:mod:`repro.tpch`).
"""

from repro.workloads.generators import (
    dense_matrix,
    dense_vector,
    nested_sum,
    sparse_matrix,
    sparse_tensor3,
    sparse_vector,
    triangle_relations,
    triangle_tensors,
)

__all__ = [
    "sparse_vector",
    "sparse_matrix",
    "sparse_tensor3",
    "dense_vector",
    "dense_matrix",
    "nested_sum",
    "triangle_relations",
    "triangle_tensors",
]
