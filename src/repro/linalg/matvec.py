"""Sparse matrix–vector products for the (reverse) transition matrix ``P``.

The mat-vecs exist in two engines:

* ``numpy`` — the dense mat-vecs ``matvec_P``/``matvec_PT`` (one
  ``np.bincount`` over the edge list) and the sparse push ``expand_sparse``
  (work proportional to the pushed support), the one push primitive of the
  forward phase, PRSim and Algorithm 3 (DESIGN.md §3).
* ``spark`` — the GraphX-``aggregateMessages`` equivalent in DataFrame form:
  join the weighted edge table with the vector table, ``groupBy`` the
  receiving endpoint, sum the messages.  Used to demonstrate the scale-out
  dataflow; tests assert bit-for-bit-level agreement with the numpy engine
  (up to fp summation order) and against the DuckDB oracle.

Conventions (see ``graphs/graph.py``): ``P(i, j) = 1/d_in(j)`` for each edge
``i -> j``.  Hence::

    (P  · v)(i) = Σ_{edges i->j} v(j) / d_in(j)      — "pull" along edges
    (Pᵀ · v)(j) = Σ_{edges i->j} v(i) / d_in(j)      — "push" along edges
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.graph import CSRGraph, Graph

#: ``accumulate`` (the sums of ``expand_sparse`` and of Algorithm 3's Lemma 4)
#: uses a dense ``bincount`` over the whole key space when that space is at
#: most this many times the input (dense levels, a few deep heads), and
#: ``np.unique`` over the touched keys otherwise (sparse levels, PRSim's
#: per-source pushes, Algorithm 3's row batches).
DENSE_KEYS_PER_EDGE = 10

SparseVec = Tuple[np.ndarray, np.ndarray]  # (indices int64, values float64)

# ---------------------------------------------------------------------------
# numpy engine
# ---------------------------------------------------------------------------


def matvec_P(csr: CSRGraph, v: np.ndarray) -> np.ndarray:
    """``P · v`` via one weighted bincount over the edge list."""
    if v.shape != (csr.n,):
        raise ValueError("vector length mismatch")
    d = csr.din[csr.dst].astype(np.float64)
    w = v[csr.dst] / d
    return np.bincount(csr.src, weights=w, minlength=csr.n)


def matvec_PT(csr: CSRGraph, v: np.ndarray) -> np.ndarray:
    """``Pᵀ · v`` via one weighted bincount over the edge list."""
    if v.shape != (csr.n,):
        raise ValueError("vector length mismatch")
    out = np.bincount(csr.dst, weights=v[csr.src], minlength=csr.n)
    nz = csr.din > 0
    out[nz] = out[nz] / csr.din[nz]
    return out


def expand_sparse(
    csr: CSRGraph,
    idx: np.ndarray,
    val: np.ndarray,
    *,
    prune: float = 0.0,
    rows: np.ndarray | None = None,
):
    """Sparse ``P · v`` by local push: distribute each entry to in-neighbors.

    ``P·v`` gathers ``v(j)/d_in(j)`` into every ``i ∈ I(j)`` — structurally,
    each nonzero entry is *pushed* along the reversed edges, which is the
    local-push primitive of the sparse forward, of PRSim and of Algorithm 3's
    BFS (where the same operation realizes ``M^t`` rows, since ``P = Mᵀ`` for
    the walk transition ``M``).  Entries at dead ends (``d_in = 0``) vanish;
    entries landing at a magnitude ``<= prune`` are dropped.

    ``rows`` optionally tags each entry with a row id in ``0..R-1``: entries
    of different rows never combine, so one call pushes ``R`` vectors.

    Returns ``(indices, values, edges_traversed)``, sorted by index; with
    ``rows`` the output row ids come fourth and the order is by
    ``(row, index)``.  The traversal count feeds the adaptive budgets.
    """
    keep = csr.din[idx] > 0
    idx, val = idx[keep], val[keep]
    if rows is not None:
        rows = rows[keep]
    if idx.size == 0:
        return (idx, val, 0) if rows is None else (idx, val, 0, rows)
    counts = csr.din[idx]
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    key = csr.in_neighbors[
        np.arange(total) + np.repeat(csr.in_indptr[idx] - starts, counts)
    ]
    w = np.repeat(val / counts, counts)
    keyspace = csr.n
    if rows is not None:
        key += np.repeat(rows, counts) * csr.n
        keyspace *= int(rows.max()) + 1
    key, acc = accumulate(key, w, keyspace, prune=prune)
    if rows is None:
        return key, acc, total
    return key % csr.n, acc, total, key // csr.n


def accumulate(key: np.ndarray, w: np.ndarray, keyspace: int, *, prune: float = 0.0):
    """Sum ``w`` per key in ``0..keyspace-1``; return the sorted keys whose
    sum exceeds ``prune`` in magnitude, and those sums.

    A dense ``bincount`` over the whole key space when it is at most
    ``DENSE_KEYS_PER_EDGE`` times the input, ``np.unique`` over the touched
    keys otherwise.  Both add each key's weights in input order: same sums.
    """
    if keyspace <= DENSE_KEYS_PER_EDGE * key.size:
        acc = np.bincount(key, weights=w, minlength=keyspace)
        key = np.flatnonzero(np.abs(acc) > prune)
        return key, acc[key]
    key, inv = np.unique(key, return_inverse=True)
    acc = np.bincount(inv, weights=w, minlength=key.size)
    live = np.abs(acc) > prune
    return key[live], acc[live]


# ---------------------------------------------------------------------------
# Spark DataFrame engine
# ---------------------------------------------------------------------------

VEC_COLS = ("id", "val")


def vec_to_df(graph: Graph, v: np.ndarray) -> DataFrame:
    """Sparse DataFrame view ``(id, val)`` of a numpy vector (zeros dropped)."""
    nz = np.flatnonzero(v)
    pdf = pd.DataFrame({"id": nz.astype(np.int64), "val": v[nz]})
    return graph.spark.createDataFrame(pdf, schema="id long, val double")


def df_to_vec(n: int, df: DataFrame) -> np.ndarray:
    """Collect a ``(id, val)`` DataFrame back into a dense numpy vector."""
    pdf = df.toPandas()
    out = np.zeros(n)
    if len(pdf):
        out[pdf["id"].to_numpy()] = pdf["val"].to_numpy()
    return out


def matvec_P_df(transition: DataFrame, vec: DataFrame) -> DataFrame:
    """``P · v`` as message passing: each edge ``i->j`` pulls ``w·v(j)`` to i.

    ``transition`` is ``Graph.transition_df()`` (``src, dst, w``), ``vec`` is a
    sparse ``(id, val)`` table.  The join keys on the *destination*, the
    aggregation lands on the *source* — the dataflow dual of ``matvec_PT_df``.
    """
    return (
        transition.join(vec, transition["dst"] == vec["id"])
        .groupBy(F.col("src").alias("id"))
        .agg(F.sum(F.col("w") * F.col("val")).alias("val"))
    )


def matvec_PT_df(transition: DataFrame, vec: DataFrame) -> DataFrame:
    """``Pᵀ · v``: each edge ``i->j`` pushes ``w·v(i)`` to j."""
    return (
        transition.join(vec, transition["src"] == vec["id"])
        .groupBy(F.col("dst").alias("id"))
        .agg(F.sum(F.col("w") * F.col("val")).alias("val"))
    )
