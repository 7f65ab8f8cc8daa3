"""Benchmark: the batched pair-walk kernel, in pairs per second.

Two batch shapes, taken from single-source queries at ``max_pairs=2e6``:

* HP-lite, Algorithm 2 (ExactSim-basic at ε=3e-3): every node gets about
  1.7k plain √c pairs, 2e6 pairs in all.
* DB-lite, Algorithm 3 tails (ExactSim-opt at ε=1e-4): about 5.8k nodes
  with about 24 pairs each, non-stop prefixes ℓ0 ∈ {0, 1, 2} with mean
  ≈ 0.26 levels.

Each round runs the whole batch as pair-range chunks through the in-process
engine, the same path ``estimate_D_mc`` and the Algorithm 3 tail take.
``extra_info["pairs_per_s"]`` is the batch size over the median round.

    PYTHONPATH=src python3 -m pytest benchmarks/bench_walks.py --benchmark-only
"""
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.walks import pair_walks

C = 0.6


def _hp_basic():
    g = gen.load("HP-lite")
    nodes = np.flatnonzero(g.csr.din > 0)
    return g, nodes, np.full(nodes.size, 2_000_000 // nodes.size), 0


def _db_tails():
    g = gen.load("DB-lite")
    rng = np.random.default_rng(0)
    nodes = np.sort(rng.choice(np.flatnonzero(g.csr.din > 1), size=5800, replace=False))
    nonstop = rng.choice(3, size=nodes.size, p=[0.76, 0.22, 0.02])
    return g, nodes, np.full(nodes.size, 24), nonstop


@pytest.mark.parametrize("shape", [_hp_basic, _db_tails], ids=["hp-basic", "db-tails"])
def test_bench_walk_kernel(benchmark, shape):
    g, nodes, pairs, nonstop = shape()
    asg = pair_walks.make_assignments(g, nodes, pairs, nonstop, seed=1)
    res = benchmark.pedantic(
        lambda: pair_walks.simulate_pairs_local(g, asg, c=C), rounds=5, iterations=1
    )
    total = int(pairs.sum())
    assert int(res["pairs"].sum()) == total
    assert 0 < int(res["met"].sum()) < total
    benchmark.extra_info["pairs"] = total
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["pairs_per_s"] = total / benchmark.stats.stats.median
