"""√c pair-walk simulation (Algorithms 2 and 3, sampling part).

The paper's D-estimators simulate *pairs* of √c-walks from a node ``v_k``:

* Algorithm 2: both walks stop independently with prob ``1-√c`` per step;
  the estimator is the fraction of pairs that never meet (same node, same
  step, both still walking).
* Algorithm 3 tail: the walks are *non-stop* for the first ``ℓ0 = ℓ(k)``
  steps (always move), then behave as fresh √c-walks.  Pairs that coincide
  or hit a dead end during the non-stop prefix contribute 0; the fraction of
  the rest whose √c-continuations meet, scaled by ``c^{ℓ0}``, estimates the
  tail ``Σ_{ℓ>ℓ0} Z_ℓ(k)`` (see DESIGN.md and the Lemma 4 discussion).

:func:`meet_flags` is the one walk kernel: it walks an arbitrary batch of
pairs, each with its own start node and non-stop prefix, as shrinking numpy
arrays (expected √c-walk length is ``1/(1-√c) ≈ 4.4`` steps, so the loop is
short).  Every D̂ estimator reaches it through :func:`meet_counts`, which
lays all of a query's pairs end to end and cuts them into fixed-size
*pair-range* chunks (:func:`make_assignments`), one seed per chunk.  The
engines differ only in where a chunk runs: in-process
(:func:`simulate_pairs_local`) or in a Spark task with the broadcast CSR
graph (:func:`simulate_pairs_spark`) — the paper's "embarrassingly
parallel" phase.  Both run the same chunk list, so their counts are
bit-identical.
"""
from __future__ import annotations

from typing import Callable, List

import numpy as np
import pandas as pd

from repro.graphs.graph import CSRGraph, Graph

#: Hard cap on walk length: the probability a √c-walk pair survives t steps is
#: c^t, so the truncation bias at 300 steps is ~1e-66 — far below ε_min.
MAX_STEPS = 300

#: Where a batch of pair walks can run.
ENGINES = ("local", "spark")

#: Pairs per chunk: one kernel call and one seed each.  Large enough that
#: numpy amortizes its per-call overhead, small enough that a chunk's arrays
#: stay a few MB and Spark tasks balance.
CHUNK = 1 << 16


def check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown walk engine {engine!r}; expected one of {ENGINES}")


def meet_flags(
    csr: CSRGraph,
    starts: np.ndarray,
    nonstop: np.ndarray | int,
    *,
    c: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Which pairs meet: pair ``i`` walks two walks from ``starts[i]``.

    The first ``nonstop[i]`` steps always move (Algorithm 3's non-stop
    prefix); a coincidence there discards the pair.  After the prefix both
    walks continue with prob ``√c`` each; since a pair goes on only if both
    do, one ``< c`` draw stands for the two ``< √c`` draws.  A pair meets
    when its walks land on the same node after the prefix.  A walk at a node
    without in-neighbors stops, and its pair never meets.
    """
    pos_a = pos_b = np.asarray(starts, dtype=np.int64)
    n = pos_a.shape[0]
    met = np.zeros(n, dtype=bool)
    alive = np.arange(n)
    ns = np.broadcast_to(np.asarray(nonstop, dtype=np.int64), (n,))
    ns_max = int(ns.max()) if n else 0
    din, indptr, nbr = csr.din, csr.in_indptr, csr.in_neighbors
    for step in range(1, MAX_STEPS + 1):
        if alive.shape[0] == 0:
            break
        da = din[pos_a]
        db = din[pos_b]
        cont = (da > 0) & (db > 0)
        # Once every pair is past its prefix, ``ns`` is no longer needed;
        # skipping its bookkeeping measured 8-27% faster on plain √c batches.
        if step > ns_max:
            cont &= rng.random(alive.shape[0]) < c
        else:
            cont &= (step <= ns) | (rng.random(alive.shape[0]) < c)
            ns = ns[cont]
        alive, pos_a, pos_b, da, db = alive[cont], pos_a[cont], pos_b[cont], da[cont], db[cont]
        # floor(u·d) with u ∈ [0, 1) is a uniform in-neighbor index.
        u = rng.random((2, alive.shape[0]))
        pos_a = nbr[indptr[pos_a] + (u[0] * da).astype(np.int64)]
        pos_b = nbr[indptr[pos_b] + (u[1] * db).astype(np.int64)]
        coincide = pos_a == pos_b
        if step > ns_max:
            met[alive[coincide]] = True
        else:
            met[alive[coincide & (step > ns)]] = True
            ns = ns[~coincide]
        alive, pos_a, pos_b = alive[~coincide], pos_a[~coincide], pos_b[~coincide]
    return met


def pair_meet_count(
    csr: CSRGraph,
    start: int,
    pairs: int,
    *,
    c: float,
    rng: np.random.Generator,
    nonstop_steps: int = 0,
) -> int:
    """Number of ``pairs`` pairs from one node ``start`` that meet.

    With ``nonstop_steps == 0`` this is Algorithm 2's meeting count.  With
    ``nonstop_steps == ℓ0 > 0`` it counts pairs that complete the non-stop
    prefix un-met and whose √c-continuations then meet (Algorithm 3 lines
    22-27); the caller scales by ``c^{ℓ0}``.
    """
    starts = np.full(max(pairs, 0), start, dtype=np.int64)
    return int(np.count_nonzero(meet_flags(csr, starts, nonstop_steps, c=c, rng=rng)))


# ---------------------------------------------------------------------------
# Pair-range chunks and the engines that run them
# ---------------------------------------------------------------------------


def make_assignments(
    graph: Graph, nodes: np.ndarray, pairs: np.ndarray, nonstop: np.ndarray, seed: int
) -> pd.DataFrame:
    """The pair-range chunks of a batch, as (node, pairs, nonstop, chunk, offset, seed) rows.

    Node ``nodes[i]`` owns ``pairs[i]`` consecutive pairs of one global pair
    range, in input order.  Chunk ``j`` is the range ``[j·CHUNK, (j+1)·CHUNK)``;
    a node whose pairs straddle a chunk boundary gets one row in each chunk
    it touches.  ``offset`` is a row's first global pair index, which orders
    the rows of a chunk.  Every row of chunk ``j`` carries the seed derived
    from ``(seed, j)``, so re-running the same batch replays the same walks.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    keep = pairs > 0
    nodes = np.asarray(nodes, dtype=np.int64)[keep]
    nonstop = np.broadcast_to(np.asarray(nonstop, dtype=np.int64), keep.shape)[keep]
    ends = np.cumsum(pairs[keep])
    total = int(ends[-1]) if ends.size else 0
    # Rows start at every node start and every chunk start.
    offset = np.union1d(ends[:-1], np.arange(CHUNK, total, CHUNK))
    offset = np.concatenate([[0], offset]) if total else offset
    owner = np.searchsorted(ends, offset, side="right")
    chunk = offset // CHUNK
    return pd.DataFrame(
        {
            "node": nodes[owner],
            "pairs": np.diff(np.append(offset, total)),
            "nonstop": nonstop[owner],
            "chunk": chunk,
            "offset": offset,
            "seed": (seed * 1_000_003 + chunk) & 0x7FFFFFFF,
        }
    )


def _walk_chunks(csr: CSRGraph, rows: pd.DataFrame, c: float) -> pd.DataFrame:
    """Walk whole chunks; return each row's (node, nonstop, met, pairs).

    ``rows`` must hold every row of each chunk it touches.  A chunk's pairs
    follow its rows in ``offset`` order; the owner of each pair is built per
    chunk, so no array spans more than ``CHUNK`` pairs.
    """
    rows = rows.sort_values("offset", kind="stable")
    node = rows["node"].to_numpy(np.int64)
    nonstop = rows["nonstop"].to_numpy(np.int64)
    pairs = rows["pairs"].to_numpy(np.int64)
    seed = rows["seed"].to_numpy(np.int64)
    first = np.flatnonzero(np.diff(rows["chunk"].to_numpy(), prepend=-1))
    met = np.zeros(node.size, dtype=np.int64)
    for lo, hi in zip(first, [*first[1:], node.size]):
        owner = np.repeat(np.arange(hi - lo), pairs[lo:hi])
        flags = meet_flags(
            csr,
            node[lo:hi][owner],
            nonstop[lo:hi][owner],
            c=c,
            rng=np.random.default_rng(int(seed[lo])),
        )
        met[lo:hi] = np.bincount(owner[flags], minlength=hi - lo)
    return pd.DataFrame({"node": node, "nonstop": nonstop, "met": met, "pairs": pairs})


def run_spark_tasks(
    graph: Graph,
    parts: List[pd.DataFrame],
    fn: Callable[[CSRGraph, pd.DataFrame], pd.DataFrame],
) -> pd.DataFrame:
    """``fn(csr, part)`` for every frame of ``parts``, one Spark task each.

    The CSR graph rides a Spark broadcast.  The caller decides what each
    task holds, so no shuffle is needed to balance or group the work.
    """
    bc = graph.broadcast_csr()
    tasks = graph.spark.sparkContext.parallelize(parts, len(parts))
    out = tasks.map(lambda part: fn(bc.value, part)).collect()
    return pd.concat(out, ignore_index=True)


def _sum_by_node(res: pd.DataFrame) -> pd.DataFrame:
    return res.groupby(["node", "nonstop"], as_index=False)[["met", "pairs"]].sum()


def simulate_pairs_spark(
    graph: Graph,
    assignments: pd.DataFrame,
    *,
    c: float,
) -> pd.DataFrame:
    """Walk every chunk of ``assignments`` on the cluster.

    Returns one row per (node, nonstop) with summed ``met``/``pairs`` counts.
    Chunk ``j`` goes to task ``j mod parallelism``, so each task walks whole
    chunks and the tasks' pair counts differ by at most one chunk — the
    paper's multi-core parallelization of the random-walk phase.
    """
    par = max(2, graph.spark.sparkContext.defaultParallelism)
    task = assignments["chunk"].to_numpy() % par
    parts = [assignments[task == t] for t in np.unique(task)]
    res = run_spark_tasks(graph, parts, lambda csr, rows: _walk_chunks(csr, rows, c))
    return _sum_by_node(res)


def simulate_pairs_local(
    graph: Graph, assignments: pd.DataFrame, *, c: float
) -> pd.DataFrame:
    """Same contract as :func:`simulate_pairs_spark`, in-process.

    Walks the same chunks with the same seeds, so its counts equal the Spark
    engine's exactly.
    """
    return _sum_by_node(_walk_chunks(graph.csr, assignments, c))


def meet_counts(
    graph: Graph,
    nodes: np.ndarray,
    pairs: np.ndarray,
    nonstop: np.ndarray | int,
    *,
    c: float,
    seed: int,
    engine: str,
) -> np.ndarray:
    """Met pairs per node: ``pairs[i]`` pairs from ``nodes[i]`` (distinct nodes).

    All pairs of the batch run as pair-range chunks on ``engine``.
    """
    check_engine(engine)
    if not np.any(np.asarray(pairs) > 0):
        return np.zeros(len(nodes), dtype=np.int64)
    assignments = make_assignments(graph, nodes, pairs, nonstop, seed)
    run = simulate_pairs_spark if engine == "spark" else simulate_pairs_local
    res = run(graph, assignments, c=c)
    return res.set_index("node")["met"].reindex(nodes, fill_value=0).to_numpy(np.int64)
