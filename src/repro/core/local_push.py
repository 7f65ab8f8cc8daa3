"""Algorithm 3 — local deterministic exploitation for ``D(k,k)``.

The first-meeting decomposition ``D(k,k) = 1 − Σ_ℓ Z_ℓ(k)`` (eq. 12) lets us
compute the head ``Σ_{ℓ<=ℓ(k)} Z_ℓ(k)`` *exactly* via the Lemma-4 recursion

    Z_ℓ(k,q) = c^ℓ M^ℓ(k,q)² − Σ_{t=1}^{ℓ-1} Σ_{q'} c^{ℓ-t} M^{ℓ-t}(q',q)² Z_t(k,q')

(``M = Pᵀ`` is the walk transition matrix; ``M^t(q',·)`` rows are grown by
sparse breadth-first expansion), and estimate only the tail
``Σ_{ℓ>ℓ(k)} Z_ℓ(k) = c^{ℓ(k)}·Pr[survive ℓ(k) un-met ∧ √c-continuations
meet]`` with the non-stop pair walks from ``walks.pair_walks``.

``ℓ(k)`` is chosen adaptively: expansion stops once the traversed-edge
counter ``E_k`` exceeds ``2R(k)/√c`` — the expected edge cost of simulating
the ``R(k)`` pairs — exactly Algorithm 3's budget rule.  Because the tail is
deterministically bounded by ``c^{ℓ(k)}``, a node whose head went deep enough
(``c^{ℓ(k)} <= skip_tol``) skips sampling entirely; on the lite graphs this is
what lets optimized ExactSim reach ε = 1e-7 genuinely (DESIGN.md §4).

:func:`meeting_head` computes the heads of a whole batch of nodes at once:
every node advances one level per iteration, all rows of all running nodes
go through one row-batched ``matvec.expand_sparse`` push, and the Lemma-4
sums of all nodes are one ``matvec.accumulate`` call.  A node's result does
not depend on the rest of its batch.  :func:`estimate_D_local_push` makes one
such call per query on the local engine; on Spark one per task, *across
nodes* with the broadcast CSR graph, each task holding a similar mix of
``R(k)``, the paper's own parallelization prescription (§3.2
"Parallelization").  It then walks every node's tail pairs in one batch of
pair-range chunks (``pair_walks.meet_counts``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pandas as pd

from repro.graphs.graph import CSRGraph, Graph
from repro.linalg import matvec as mv
from repro.walks import pair_walks
# simbench/tracing.py wraps ``local_push.pair_meet_count`` by name.
from repro.walks.pair_walks import pair_meet_count  # noqa: F401

#: Entries below this magnitude are dropped from sparse rows/Z vectors during
#: expansion.  Introduces error << 1e-10 per node — far below ε_min — while
#: keeping supports from exploding on dense graphs.
PRUNE = 1e-15

#: Hard cap on the deterministic depth; c^40 ≈ 1e-9 so deeper heads cannot
#: change the 1e-7 digit.
MAX_LEVEL = 40


@dataclass
class HeadBatch:
    """Deterministic heads of the first-meeting series for a batch of nodes.

    Every array is aligned with ``nodes``; ``edges`` is the batch total.
    """

    nodes: np.ndarray
    ell: np.ndarray  # ℓ(k): levels computed exactly
    z_sum: np.ndarray  # Σ_{ℓ<=ℓ(k)} Z_ℓ(k)
    node_edges: np.ndarray  # E_k actually traversed
    edges: int  # Σ_k E_k


def _powers(c: float, top: int) -> np.ndarray:
    """``c**j`` for ``j = 0..top``, each rounded as Python's ``c**j`` (a
    vectorized ``np.power`` may round differently)."""
    return np.array([c**j for j in range(top + 1)])


def meeting_head(
    csr: CSRGraph,
    nodes: np.ndarray,
    budgets: np.ndarray,
    *,
    c: float,
    max_level: int = MAX_LEVEL,
) -> HeadBatch:
    """Exact ``Σ_{ℓ<=ℓ(k)} Z_ℓ(k)`` for every node, each under its edge budget.

    All nodes advance one level per iteration (level-synchronous).  The
    state is a table of sparse rows, each with its owner ``k``, start level
    ``t0`` and weight ``w``: a row started from ``e_q`` at level ``t0`` holds
    ``M^{ℓ-1-t0}(q,·)`` entering iteration ℓ.  Each owner starts with its
    base row (``q = k``, ``t0 = 0``, ``w = +1``), and every
    ``q ∈ supp Z_t(k,·)`` adds a row with ``t0 = t``, ``w = −Z_t(k,q)``.  One
    iteration is:

    * cost check: a level's cost is the in-degree sum over an owner's row
      entries, known before paying it; an owner stops for good once
      ``E_k + cost > budget`` (Algorithm 3's ``E_k`` counter at level
      granularity);
    * push: one row-batched ``expand_sparse`` over every row of every
      running owner;
    * Lemma 4: ``Z_ℓ(k,·) = Σ_rows c^{ℓ-t0}·w·M^{ℓ-t0}(q,·)²``, one
      ``matvec.accumulate`` over ``(owner, index)`` keys.

    Fresh ``Z_ℓ`` rows are appended after the surviving rows, so each
    owner's rows stay in ``(t0, q)`` order without a sort and every key sums
    its terms in the same order as a one-node batch: a node's result does
    not depend on the batch around it.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    budgets = np.asarray(budgets, dtype=np.int64)
    n, size = csr.n, nodes.size
    cpow = _powers(c, max_level)
    ell = np.zeros(size, np.int64)
    z_sum = np.zeros(size)
    node_edges = np.zeros(size, np.int64)
    # Row table (owner, t0, w per row) and the rows' sparse entries.
    row_owner = np.arange(size)
    row_t0 = np.zeros(size, np.int64)
    row_w = np.ones(size)
    ent_row, ent_idx, ent_val = np.arange(size), nodes, np.ones(size)
    for level in range(1, max_level + 1):
        owner = row_owner[ent_row]
        cost = np.bincount(owner, weights=csr.din[ent_idx], minlength=size).astype(np.int64)
        run = np.bincount(row_owner, minlength=size) > 0
        run &= node_edges + cost <= budgets
        if not run.any():
            break
        if not run.all():
            live = run[owner]
            ent_row, ent_idx, ent_val = ent_row[live], ent_idx[live], ent_val[live]
        node_edges[run] += cost[run]
        ell[run] = level
        nbr, val, _, out_row = mv.expand_sparse(csr, ent_idx, ent_val, prune=PRUNE, rows=ent_row)
        del owner, ent_row, ent_idx, ent_val
        # Rows that died out (dead ends / pruned away) need no further work.
        first = np.ones(out_row.size, bool)
        first[1:] = out_row[1:] != out_row[:-1]
        kept = out_row[first]
        row_owner, row_t0, row_w = row_owner[kept], row_t0[kept], row_w[kept]
        rid = np.cumsum(first) - 1
        # --- Lemma 4 at this level, keyed by (rank of owner, index). ---
        owners = np.flatnonzero(np.bincount(row_owner, minlength=size))
        rank = np.searchsorted(owners, row_owner)
        term = cpow[level - row_t0[rid]] * val**2 * row_w[rid]
        key, zl = mv.accumulate(rank[rid] * n + nbr, term, owners.size * n, prune=PRUNE)
        del term
        z_owner = owners[key // n]
        z_sum += np.bincount(z_owner, weights=zl, minlength=size)
        # Next level advances the surviving rows plus one fresh row per
        # first-meeting node of this level.
        fresh = row_owner.size + np.arange(key.size)
        row_owner = np.concatenate([row_owner, z_owner])
        row_t0 = np.concatenate([row_t0, np.full(key.size, level)])
        row_w = np.concatenate([row_w, -zl])
        ent_row = np.concatenate([rid, fresh])
        ent_idx = np.concatenate([nbr, key % n])
        ent_val = np.concatenate([val, np.ones(key.size)])
        if cpow[level] < PRUNE:
            break
    return HeadBatch(nodes, ell, z_sum, node_edges, int(node_edges.sum()))


def estimate_heads(
    csr: CSRGraph,
    nodes: np.ndarray,
    r_k: np.ndarray,
    *,
    c: float,
    skip_tol: float = 0.0,
) -> pd.DataFrame:
    """Algorithm 3's deterministic part for a batch of nodes.

    Returns the frame ``(node, d_hat, ell, pairs)``: the head-only
    ``D̂(k,k) = 1 − head``, its depth ``ℓ(k)``, and ``R'(k)``, the tail
    pairs still to walk.  The caller subtracts the sampled tail
    ``c^{ℓ(k)}·met/R'(k)``.  Trivial in-degree cases short-circuit
    (lines 1-4); the other nodes get the budget ``⌈2R(k)/√c⌉`` and go to
    :func:`meeting_head` in one batch.  If the tail bound ``c^{ℓ(k)}`` is at
    most ``skip_tol`` no tail is sampled — the estimate is then
    deterministic with error <= ``c^{ℓ(k)}``.

    The tail sample count is scaled down to ``R'(k) = ⌈c^{ℓ(k)} R(k)⌉``: the
    tail estimator's values live in ``{0, c^{ℓ(k)}}``, so its variance is
    ``c^{2ℓ(k)} q(1-q)/R' <= c^{ℓ(k)}/(4R(k)) <= 1/(4R(k))`` — never worse
    than Algorithm 2 at the full ``R(k)``.  This is how the paper's "reduces
    the variance by at least ``c^{ℓ(k)}``" claim turns into wall-clock
    savings (Figure 9's 10-100×) rather than only accuracy.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    r_k = np.asarray(r_k, dtype=np.int64)
    din = csr.din[nodes]
    d_hat = np.where(din == 0, 1.0, 1.0 - c)
    ell = np.zeros(nodes.size, np.int64)
    pairs = np.zeros(nodes.size, np.int64)
    deep = np.flatnonzero(din > 1)
    budgets = np.ceil(2.0 * r_k[deep] / math.sqrt(c)).astype(np.int64)
    head = meeting_head(csr, nodes[deep], budgets, c=c)
    tail_bound = _powers(c, MAX_LEVEL)[head.ell]
    d_hat[deep] = 1.0 - head.z_sum
    ell[deep] = head.ell
    pairs[deep] = np.where(tail_bound <= skip_tol, 0, np.ceil(r_k[deep] * tail_bound))
    return pd.DataFrame({"node": nodes, "d_hat": d_hat, "ell": ell, "pairs": pairs})


# ---------------------------------------------------------------------------
# Distributed driver
# ---------------------------------------------------------------------------


def estimate_D_local_push(
    graph: Graph,
    nodes: np.ndarray,
    counts: np.ndarray,
    *,
    c: float,
    seed: int,
    skip_tol: float = 0.0,
    engine: str = "local",
    default: float | None = None,
) -> Tuple[np.ndarray, pd.DataFrame]:
    """Estimate ``D̂`` for the given nodes with Algorithm 3.

    Returns the dense ``D̂`` vector plus a per-node stats frame
    ``(node, d_hat, ell, pairs)``, ``pairs`` being the tail pairs walked.
    Heads run as one :func:`estimate_heads` batch; on the Spark engine as one
    batch per task, nodes dealt to tasks by ``R(k)`` rank so tasks carry
    similar budgets (the paper's load-balancing rule).  A node's head does
    not depend on its batch, and every node's tail pairs then run as one
    batch of pair-range chunks, which both engines walk with the same seeds,
    so the engines agree exactly.
    """
    pair_walks.check_engine(engine)
    nodes = np.asarray(nodes, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)

    def run_heads(csr: CSRGraph, pdf: pd.DataFrame) -> pd.DataFrame:
        return estimate_heads(
            csr, pdf["node"].to_numpy(), pdf["r_k"].to_numpy(), c=c, skip_tol=skip_tol
        )

    if engine == "spark" and nodes.size:
        par = max(2, graph.spark.sparkContext.defaultParallelism)
        # Round-robin by budget rank → tasks hold similar R(k) mixes.
        order = np.argsort(counts, kind="stable")[::-1]
        parts = [
            pd.DataFrame({"node": nodes[o], "r_k": counts[o]})
            for o in (order[t::par] for t in range(min(par, nodes.size)))
        ]
        stats = pair_walks.run_spark_tasks(graph, parts, run_heads)
    else:
        stats = estimate_heads(graph.csr, nodes, counts, c=c, skip_tol=skip_tol)
    stats = stats.sort_values("node").reset_index(drop=True)

    tail = stats[stats["pairs"] > 0]
    r_tail = tail["pairs"].to_numpy()
    ell = tail["ell"].to_numpy()
    met = pair_walks.meet_counts(
        graph, tail["node"].to_numpy(), r_tail, ell, c=c, seed=seed, engine=engine
    )
    stats.loc[tail.index, "d_hat"] -= np.power(c, ell) * met / r_tail

    d = np.full(graph.n, (1.0 - c) if default is None else default)
    d[stats["node"].to_numpy()] = stats["d_hat"].to_numpy()
    return d, stats
