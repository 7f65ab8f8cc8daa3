"""Benchmark: Algorithm 3's batched heads (``local_push.meeting_head``), in edges/s.

Two shapes: the head batches of ExactSim-opt queries at ``max_pairs=2e6`` on
the frozen source pools of the query benchmark (``simbench/oracles/``):

* DB-lite at ε=1e-4: thousands of nodes with small budgets plus the source
  itself, whose budget covers most of the pushed edges;
* TW-lite at ε=1e-3: fewer, cheaper nodes.

A batch is every allocated node with ``d_in > 1`` under its budget
``⌈2R(k)/√c⌉``, as ``estimate_D_local_push`` builds it on the local engine.
Each round runs one ``meeting_head`` call per pool source.
``extra_info["edges_per_s"]`` is the pushed edges over the median round.

    PYTHONPATH=src python3 -m pytest benchmarks/bench_heads.py --benchmark-only
"""
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core import diagonal, linearized, local_push
from repro.graphs import generators as gen

C = 0.6
MAX_PAIRS = 2_000_000
POOLS = Path(__file__).resolve().parents[1] / "simbench" / "oracles"


def _head_batches(dataset, eps):
    g = gen.load(dataset)
    with np.load(POOLS / f"{dataset}.npz") as z:
        sources = z["sources"].astype(np.int64)
    eps_int = eps / 2  # ExactSim-opt's internal error split
    L = linearized.iterations_for(eps_int, C)
    thr = linearized.sparse_threshold(eps_int, C)
    R = diagonal.total_samples(g.n, eps_int, C)
    batches = []
    for s in sources.tolist():
        fwd = linearized.forward(g.csr, s, c=C, L=L, threshold=thr)
        nodes, counts, _, _ = diagonal.allocate(fwd.pi, R, mode="pi2", cap=MAX_PAIRS)
        deep = g.csr.din[nodes] > 1
        batches.append((nodes[deep], np.ceil(2.0 * counts[deep] / math.sqrt(C)).astype(np.int64)))
    return g, batches


@pytest.mark.parametrize(
    "shape", [("DB-lite", 1e-4), ("TW-lite", 1e-3)], ids=["db-opt-e4", "tw-opt-e3"]
)
def test_bench_heads(benchmark, shape):
    g, batches = _head_batches(*shape)

    def run():
        return [local_push.meeting_head(g.csr, nodes, budgets, c=C) for nodes, budgets in batches]

    heads = benchmark.pedantic(run, rounds=5, iterations=1)
    edges = sum(h.edges for h in heads)
    assert edges > 0
    assert all((h.node_edges <= b).all() for h, (_, b) in zip(heads, batches))
    benchmark.extra_info["nodes"] = sum(h.nodes.size for h in heads)
    benchmark.extra_info["edges"] = edges
    benchmark.extra_info["mean_ell"] = float(np.mean(np.concatenate([h.ell for h in heads])))
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["edges_per_s"] = edges / benchmark.stats.stats.median
