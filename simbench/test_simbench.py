"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest simbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import time
import types
from pathlib import Path

import numpy as np
import pytest

from simbench import run, tracing
from simbench.workloads import WORKLOADS, Workload

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
TINY = Workload("tiny", "GQ-lite", "opt", 5e-2, 2)


def fake_result(scores):
    return types.SimpleNamespace(
        scores=scores, seconds_forward=0.0, seconds_diagonal=0.0, seconds_backward=0.0
    )


def test_perturbed_scores_count_as_failed_query(monkeypatch):
    from repro.core import exactsim as es

    bench = run.Bench(WORKLOADS["hp-basic-3e-3"], seed=0)
    bench.build()
    eps = bench.wl.eps
    delta = np.zeros_like(bench.truth[0])
    delta[7] = 2 * eps
    monkeypatch.setattr(es, "exactsim", lambda g, s, **kw: fake_result(bench.truth[0] + delta))
    bad, _ = bench.query(0, "local")
    monkeypatch.setattr(es, "exactsim", lambda g, s, **kw: fake_result(bench.truth[0].copy()))
    good, _ = bench.query(0, "local")
    assert not bad.ok and bad.error == pytest.approx(2 * eps)
    assert good.ok


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A seconds-long workload on GQ-lite with a Power-Method oracle."""
    from repro.baselines.power_method import simrank_power
    from repro.graphs import generators as gen

    g = gen.load("GQ-lite")
    sources = np.array([3, 17, 101], dtype=np.int64)
    truth = simrank_power(g, c=0.6, tol=1e-10)[sources, :]
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "load_oracle", lambda ds: (sources, truth.copy()))
    monkeypatch.setattr(run, "oracle_manifest", lambda: {TINY.dataset: {"commit": "test"}})
    monkeypatch.setattr(run, "MAX_PAIRS", 50_000)
    monkeypatch.setattr(run, "RUN_DIR", tmp_path)
    # run.main points these at RUN_DIR; restore them afterwards.
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", "")
    return tmp_path


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(tiny, capsys, trace, section):
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:  # the unnormalised timings are printed too
        expected.update({"queries_per_s": "1/s", "query_s_p50": "s"})
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name


def test_reference_time_scales_by_neighbouring_calibrations(tiny, monkeypatch):
    bench = run.Bench(TINY, seed=0)
    bench.build()
    runs = iter([2 * run.REF_S, 4 * run.REF_S, 2 * run.REF_S, 2 * run.REF_S])
    monkeypatch.setattr(bench.calibrator, "run", lambda: next(runs))
    qs = bench.run_calibrated(0.0)
    assert len(qs) == 3
    assert qs[0].ref_seconds == pytest.approx(qs[0].seconds / 3)
    assert qs[1].ref_seconds == pytest.approx(qs[1].seconds / 3)
    assert qs[2].ref_seconds == pytest.approx(qs[2].seconds / 2)


def _assert_subtrees_add_up(spans):
    selfs = tracing.self_times(spans)
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s.sid)

    def subtree_self(sid):
        return selfs[sid] + sum(subtree_self(c) for c in children.get(sid, []))

    roots = children[-1]
    assert roots
    for r in roots:
        assert subtree_self(r) == pytest.approx(spans[r].duration, abs=1e-9)


def test_child_self_times_sum_to_parent_span():
    mod = types.SimpleNamespace()
    mod.leaf = lambda: time.sleep(0.002)
    mod.mid = lambda: [mod.leaf() for _ in range(3)]
    mod.top = lambda: (mod.mid(), mod.leaf(), time.sleep(0.001))
    tracer = tracing.Tracer()
    for name in ("leaf", "mid", "top"):
        tracer.wrap(mod, name, name, "exactsim")
    tracer.query = 0
    mod.top()
    mod.top()
    tracer.uninstall()
    assert [s.name for s in tracer.spans].count("leaf") == 8
    _assert_subtrees_add_up(tracer.spans)
    selfs = tracing.self_times(tracer.spans)
    assert all(t >= 0 for t in selfs)


def test_traced_query_spans_add_up(tiny):
    run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0.1", "--trace", "1"])
    dump = json.loads(next(tiny.glob("tiny-seed1-trace1.json")).read_text())
    spans = []
    for d in dump["spans"]:
        s = tracing.Span(d["id"], d["name"], d["layer"], d["parent"], d["query"], d["start"])
        s.end = d["end"]
        spans.append(s)
    assert {"exactsim.exactsim", "linearized.forward", "local_push.meeting_head"} <= {s.name for s in spans}
    _assert_subtrees_add_up(spans)
