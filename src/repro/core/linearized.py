"""Linearized single-source SimRank engine (paper eq. 8 / Algorithm 1).

Given the diagonal correction matrix estimate ``D̂``, the single-source
result is::

    S·e_i = 1/(1-√c) Σ_{ℓ=0}^{L} (√c Pᵀ)^ℓ D̂ π_i^ℓ,     π_i^ℓ = (1-√c)(√c P)^ℓ e_i

computed as a *forward* phase (the ℓ-hop PPR vectors, Algorithm 1 lines 2-5)
and a *backward* phase (lines 9-13).  Setting ``L = ⌈log_{1/c}(2/ε)⌉`` bounds
the truncation error by ``c^L <= ε/2``.

The forward vectors are what costs memory (``O(n log 1/ε)`` dense); the
*sparse* mode drops entries ``<= (1-√c)²ε`` after each hop (Lemma 2), bounding
storage by ``O(1/ε)`` at an extra ``ε`` additive error.  The forward is a
level-wise local push (``matvec.expand_sparse``) for every threshold, so its
cost follows the stored support; ``ForwardResult`` keeps the levels as sparse
``(idx, val)`` pairs with exact stored-entry accounting for the Table-3
reproduction.  The backward phase stays a dense ``Pᵀ`` recurrence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graphs.graph import CSRGraph
from repro.linalg import matvec as mv


def iterations_for(eps: float, c: float) -> int:
    """``L = ⌈log_{1/c}(2/ε)⌉`` — truncation error ``c^L <= ε/2``."""
    return max(1, math.ceil(math.log(2.0 / eps) / math.log(1.0 / c)))


def sparse_threshold(eps: float, c: float) -> float:
    """Lemma 2 truncation threshold ``(1-√c)² ε`` for the ℓ-hop PPR entries."""
    return (1.0 - math.sqrt(c)) ** 2 * eps


@dataclass
class ForwardResult:
    """ℓ-hop PPR vectors of the source as sparse levels, plus accounting."""

    levels: List[mv.SparseVec]  # π_i^ℓ for ℓ = 0..L; levels that died out are empty
    n: int  # number of nodes (the dense vector length)
    edges: int  # edges traversed by the level pushes
    threshold: float  # the truncation threshold applied (0.0 = untruncated)

    @property
    def L(self) -> int:
        return len(self.levels) - 1

    @property
    def stored_entries(self) -> int:
        """Σ_ℓ nnz(π_i^ℓ) after truncation."""
        return sum(idx.size for idx, _ in self.levels)

    @property
    def pi(self) -> np.ndarray:
        """Σ_ℓ π_i^ℓ — the (dense) PPR vector of the source, built on demand."""
        pi = np.zeros(self.n)
        for idx, val in self.levels:
            pi[idx] += val
        return pi

    def dense_bytes(self) -> int:
        """Basic-ExactSim footprint: (L+1) dense double vectors."""
        return (self.L + 1) * self.n * 8

    def sparse_bytes(self) -> int:
        """Optimized footprint: stored (index, value) pairs only."""
        return self.stored_entries * 16


def forward(
    csr: CSRGraph,
    source: int,
    *,
    c: float,
    L: int,
    threshold: float = 0.0,
) -> ForwardResult:
    """Compute ``π_i^ℓ`` for ℓ = 0..L by a level-wise local push.

    Each hop pushes the surviving entries of the previous level along the
    reversed edges (``matvec.expand_sparse``), so a hop costs the in-degree
    sum of its support, not ``m``.  ``threshold > 0`` applies the Lemma-2
    sparsification after every hop: entries ``<= threshold`` are dropped
    *before* being stored or propagated, which is what bounds both the space
    and the downstream work.
    """
    sqrt_c = math.sqrt(c)
    idx = np.array([source], dtype=np.int64)
    val = np.array([1.0 - sqrt_c])
    levels = [(idx, val)]
    edges = 0
    while len(levels) <= L and idx.size:
        idx, val, cost = mv.expand_sparse(csr, idx, val)
        val = sqrt_c * val
        keep = val > threshold
        idx, val = idx[keep], val[keep]
        levels.append((idx, val))
        edges += cost
    levels += [(idx, val)] * (L + 1 - len(levels))  # the support died out
    return ForwardResult(levels=levels, n=csr.n, edges=edges, threshold=threshold)


def backward(
    csr: CSRGraph,
    fwd: ForwardResult,
    d_hat: np.ndarray,
    *,
    c: float,
) -> np.ndarray:
    """Accumulate ``s^L``: one dense ``Pᵀ`` hop per level, then scatter
    ``D̂·π_i^ℓ`` onto the level's support."""
    sqrt_c = math.sqrt(c)
    scale = 1.0 / (1.0 - sqrt_c)
    s = np.zeros(csr.n)
    for ell in range(fwd.L, -1, -1):
        if ell < fwd.L:
            s = sqrt_c * mv.matvec_PT(csr, s)
        idx, val = fwd.levels[ell]
        s[idx] += scale * d_hat[idx] * val
    return s


def single_source(
    csr: CSRGraph,
    source: int,
    d_hat: np.ndarray,
    *,
    c: float,
    eps: float,
    sparse: bool = False,
    L: Optional[int] = None,
) -> tuple[np.ndarray, ForwardResult]:
    """Full linearized query with a given ``D̂`` (numpy engine)."""
    L = iterations_for(eps, c) if L is None else L
    thr = sparse_threshold(eps, c) if sparse else 0.0
    fwd = forward(csr, source, c=c, L=L, threshold=thr)
    return backward(csr, fwd, d_hat, c=c), fwd
