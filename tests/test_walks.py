"""√c-walk kernels: exact meeting probabilities, traces, Spark/local parity."""
import math

import numpy as np
import pytest

from repro.core import diagonal
from repro.graphs import generators as gen
from repro.walks import pair_walks, traces

C = 0.6
SQC = math.sqrt(C)


# ---------------------------------------------------------------------------
# pair walks (Algorithm 2 kernel)
# ---------------------------------------------------------------------------


def test_pair_meet_cycle_probability():
    """On a cycle both walks move in lockstep: meet iff both continue at
    step 1, i.e. with probability exactly c."""
    g = gen.tiny_cycle(6)
    rng = np.random.default_rng(0)
    n = 200_000
    met = pair_walks.pair_meet_count(g.csr, 0, n, c=C, rng=rng)
    # Binomial std ≈ 0.0011; 5σ tolerance.
    assert met / n == pytest.approx(C, abs=0.006)


@pytest.mark.parametrize("g", [gen.tiny_star(3), gen.tiny_star(5)], ids=lambda g: g.name)
def test_pair_meet_matches_exact_diagonal(g):
    d = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    rng = np.random.default_rng(1)
    n = 150_000
    met = pair_walks.pair_meet_count(g.csr, 0, n, c=C, rng=rng)
    assert 1 - met / n == pytest.approx(d[0], abs=0.008)


def test_pair_meet_zero_pairs():
    g = gen.tiny_cycle(4)
    rng = np.random.default_rng(0)
    assert pair_walks.pair_meet_count(g.csr, 0, 0, c=C, rng=rng) == 0


def test_pair_meet_dead_end_never_meets():
    from repro.graphs.graph import from_edges

    g = from_edges("dead", 2, np.array([1]), np.array([0]), directed=True)
    rng = np.random.default_rng(0)
    # Walks from node 1 cannot move (d_in = 0): no pair ever meets.
    assert pair_walks.pair_meet_count(g.csr, 1, 10_000, c=C, rng=rng) == 0


def test_nonstop_tail_on_cycle_is_zero():
    """Non-stop walks on a cycle coincide at step 1, so every pair is
    excluded from the tail: the tail estimate for ℓ0 >= 1 must be 0 — which
    matches the exact tail (first meeting always happens at step 1)."""
    g = gen.tiny_cycle(6)
    rng = np.random.default_rng(2)
    met = pair_walks.pair_meet_count(
        g.csr, 0, 50_000, c=C, rng=rng, nonstop_steps=2
    )
    assert met == 0


def test_nonstop_tail_unbiased_on_star():
    """Tail estimator check: c^ℓ0 · E[tail indicator] must equal the exact
    tail mass Σ_{ℓ>ℓ0} Z_ℓ(k) (head computed exactly by Lemma 4)."""
    from repro.core import local_push

    g = gen.tiny_star(4)
    d = diagonal.exact_diagonal(g, c=C, tol=1e-14)
    ell0 = 2
    # Exact head at depth 2 via a huge-budget run capped at max_level=2.
    hr = local_push.meeting_head(g.csr, [0], [10**8], c=C, max_level=ell0)
    exact_tail = (1.0 - hr.z_sum[0]) - d[0]
    rng = np.random.default_rng(3)
    n = 300_000
    met = pair_walks.pair_meet_count(
        g.csr, 0, n, c=C, rng=rng, nonstop_steps=ell0
    )
    est_tail = (C**ell0) * met / n
    assert est_tail == pytest.approx(exact_tail, abs=3e-4)


def test_make_assignments_chunks_and_determinism():
    """Pairs lie end to end and are cut into CHUNK-sized pair ranges: a node
    straddling a boundary gets one row per chunk it touches, and every row
    of a chunk carries that chunk's seed."""
    g = gen.tiny_cycle(4)
    CH = pair_walks.CHUNK
    nodes = np.array([0, 1, 2, 3], dtype=np.int64)
    pairs = np.array([CH + 10, 5, 0, 2 * CH], dtype=np.int64)
    nonstop = np.array([0, 2, 1, 1], dtype=np.int64)
    a = pair_walks.make_assignments(g, nodes, pairs, nonstop, seed=3)
    b = pair_walks.make_assignments(g, nodes, pairs, nonstop, seed=3)
    assert a.equals(b)
    assert a["node"].tolist() == [0, 0, 1, 3, 3, 3]
    assert a["pairs"].tolist() == [CH, 10, 5, CH - 15, CH, 15]
    assert a["nonstop"].tolist() == [0, 0, 2, 1, 1, 1]
    assert a["offset"].tolist() == [0, CH, CH + 10, CH + 15, 2 * CH, 3 * CH]
    assert a["chunk"].tolist() == [0, 1, 1, 1, 2, 3]
    seeds = a.groupby("chunk")["seed"]
    assert (seeds.nunique() == 1).all() and seeds.first().is_unique
    # Another query seed replays none of these chunks.
    other = pair_walks.make_assignments(g, nodes, pairs, nonstop, seed=4)
    assert not set(other["seed"]) & set(a["seed"])


def test_simulate_pairs_local_aggregates():
    """The chunked runner equals walking each chunk's pairs, in row order,
    with one kernel call and the chunk's seed — and sums rows per node."""
    g = gen.load("GQ-lite")
    nodes = np.array([3, 3, 9, 4], dtype=np.int64)
    pairs = np.array([100, 50, pair_walks.CHUNK, 70], dtype=np.int64)
    nonstop = np.array([0, 0, 0, 2], dtype=np.int64)
    asg = pair_walks.make_assignments(g, nodes, pairs, nonstop, seed=1)
    res = pair_walks.simulate_pairs_local(g, asg, c=C).set_index("node")
    assert res.loc[3, "pairs"] == 150
    assert res.loc[9, "pairs"] == pair_walks.CHUNK  # straddles chunks 0 and 1
    assert res.loc[4, "pairs"] == 70
    assert (res["met"] <= res["pairs"]).all()
    expected = {3: 0, 9: 0, 4: 0}
    for _, rows in asg.groupby("chunk"):
        starts = np.repeat(rows["node"].to_numpy(), rows["pairs"].to_numpy())
        prefix = np.repeat(rows["nonstop"].to_numpy(), rows["pairs"].to_numpy())
        rng = np.random.default_rng(int(rows["seed"].iloc[0]))
        flags = pair_walks.meet_flags(g.csr, starts, prefix, c=C, rng=rng)
        for k in expected:
            expected[k] += int(np.count_nonzero(flags[starts == k]))
    assert res["met"].to_dict() == expected


def test_batched_kernel_mixed_starts_and_prefixes():
    """One batch over the disjoint union of tiny_star(3) and tiny_star(5),
    every node with prefixes 0 and ℓ0 = 1, spread over several chunks.
    Prefix-0 pairs must give exact D; prefix-ℓ0 pairs the exact tail
    ``(1 − head(ℓ0)) − D`` (head from Lemma 4).  Tolerance: 5 binomial σ from
    the exact value, so with 20 checks the flake bound is < 2e-5; a
    probability that is exactly 0 must be estimated as exactly 0.  (On a
    star every pair meets within two steps, so ℓ0 = 1 leaves the centers a
    tail of ``Z_2`` and the leaves none.)"""
    from repro.core import local_push
    from repro.graphs.graph import from_edges

    s3, s5 = gen.tiny_star(3), gen.tiny_star(5)
    src = np.concatenate([s3.csr.in_neighbors, s5.csr.in_neighbors + s3.n])
    dst = np.concatenate(
        [np.repeat(np.arange(g.n), g.csr.din) + off for g, off in ((s3, 0), (s5, s3.n))]
    )
    g = from_edges("star3+star5", s3.n + s5.n, src, dst, directed=False)
    d = diagonal.exact_diagonal(g, c=C, tol=1e-13)
    ell0, R = 1, 60_000
    nodes = np.tile(np.arange(g.n, dtype=np.int64), 2)
    prefix = np.repeat(np.array([0, ell0], dtype=np.int64), g.n)
    asg = pair_walks.make_assignments(g, nodes, np.full(nodes.size, R), prefix, seed=12)
    assert asg["chunk"].nunique() > 10
    res = pair_walks.simulate_pairs_local(g, asg, c=C).set_index(["node", "nonstop"])
    assert (res["pairs"] == R).all()
    for k in range(g.n):
        met_prob = 1.0 - d[k]
        sigma = math.sqrt(met_prob * (1 - met_prob) / R)
        assert abs(1.0 - res.loc[(k, 0), "met"] / R - d[k]) <= 5 * sigma + 1e-12
        head = local_push.meeting_head(g.csr, [k], [10**8], c=C, max_level=ell0)
        exact_tail = (1.0 - head.z_sum[0]) - d[k]
        q = min(max(exact_tail / C**ell0, 0.0), 1.0)
        sigma = C**ell0 * math.sqrt(q * (1 - q) / R)
        est_tail = C**ell0 * res.loc[(k, ell0), "met"] / R
        assert (exact_tail > 0.05) == (g.csr.din[k] > 1)
        assert abs(est_tail - exact_tail) <= 5 * sigma + 1e-12


def test_batched_walks_same_seed_same_bits():
    g = gen.load("GQ-lite")
    nodes = np.arange(g.n, dtype=np.int64)
    pairs = np.full(g.n, 300, dtype=np.int64)
    nonstop = nodes % 3

    def run(seed):
        asg = pair_walks.make_assignments(g, nodes, pairs, nonstop, seed=seed)
        return pair_walks.simulate_pairs_local(g, asg, c=C)

    a, b = run(5), run(5)
    assert a.equals(b)
    assert not a["met"].equals(run(6)["met"])


def test_simulate_pairs_spark_matches_local(spark):
    g = gen.load("GQ-lite", spark)
    nodes = np.arange(10, dtype=np.int64)
    pairs = np.full(10, 2000, dtype=np.int64)
    nonstop = np.array([0, 0, 0, 0, 0, 1, 1, 2, 2, 3], dtype=np.int64)
    asg = pair_walks.make_assignments(g, nodes, pairs, nonstop, seed=11)
    a = pair_walks.simulate_pairs_local(g, asg, c=C)
    b = pair_walks.simulate_pairs_spark(g, asg, c=C)
    a = a.sort_values(["node", "nonstop"]).reset_index(drop=True)
    b = b.sort_values(["node", "nonstop"]).reset_index(drop=True).astype(a.dtypes)
    assert a.equals(b)


# ---------------------------------------------------------------------------
# trace index (MC baseline substrate)
# ---------------------------------------------------------------------------


def test_walk_traces_deterministic_on_cycle():
    """Cycle walks are deterministic in position: step t lands at (start - t)
    mod n; only the lengths are random."""
    g = gen.tiny_cycle(8)
    rng = np.random.default_rng(4)
    starts = np.full(500, 3, dtype=np.int64)
    widx, step, pos = traces.walk_trace_arrays(g.csr, starts, c=C, rng=rng)
    np.testing.assert_array_equal(pos, (3 - step) % 8)


def test_walk_trace_length_distribution():
    # Walk length is geometric(1-√c): mean √c/(1-√c) ≈ 3.44.
    g = gen.tiny_cycle(8)
    rng = np.random.default_rng(5)
    starts = np.zeros(100_000, dtype=np.int64)
    widx, step, pos = traces.walk_trace_arrays(g.csr, starts, c=C, rng=rng)
    mean_len = len(step) / 100_000
    assert mean_len == pytest.approx(SQC / (1 - SQC), abs=0.05)


def test_trace_rows_local_deterministic():
    g = gen.load("GQ-lite")
    a = traces.trace_rows_local(g, r_per_node=3, c=C, seed=6)
    b = traces.trace_rows_local(g, r_per_node=3, c=C, seed=6)
    assert a.equals(b)
    assert set(a.columns) == {"node", "r", "step", "pos"}
    assert a["r"].max() <= 2


def test_trace_index_spark_matches_local(spark):
    g = gen.load("GQ-lite", spark)
    local = traces.trace_rows_local(g, r_per_node=2, c=C, seed=7)
    dist = traces.build_trace_index(g, r_per_node=2, c=C, seed=7).toPandas()
    key = ["node", "r", "step", "pos"]
    a = local.sort_values(key).reset_index(drop=True)
    b = dist.sort_values(key).reset_index(drop=True)
    assert a.equals(b)
