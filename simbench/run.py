"""Single-source SimRank query benchmark.

Run from the repository root::

    python3 simbench/run.py --workload db-opt-e4 --seed 0 --seconds 10 --trace 0

One client issues ``exactsim(...)`` queries one after another (a closed loop)
over the workload's frozen source pool, checks each against its frozen
oracle (MaxError within the requested ε) and prints every metric by name
with its unit.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
queries each source untraced and then traced, and reports per-layer metrics
from spans recorded around each layer's public functions (see ``tracing.py``).
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
#: Everything a run writes: spans, and per process the Spark local dirs and
#: JVM temp files (removed when the run ends).
RUN_DIR = ROOT / ".simbench_run"
SETUP_REPS = 3
SPARK_THREADS = min(4, os.cpu_count() or 1)

sys.path.insert(0, str(ROOT))
from simbench import tracing  # noqa: E402
from simbench.calibration import REF_S, Calibrator  # noqa: E402
from simbench.workloads import C, MAX_PAIRS, WORKLOADS, Workload, load_oracle, max_error, oracle_manifest  # noqa: E402

# ---------------------------------------------------------------------------
# Environment and Spark lifetime
# ---------------------------------------------------------------------------


def tmp_dir() -> Path:
    return RUN_DIR / f"tmp-{os.getpid()}"


def prepare_env() -> None:
    """Point imports, temp files and Spark at the checkout."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"simbench: no program sources at {src}/repro")
    sys.path.insert(0, str(src))
    # Spark's Python workers inherit PYTHONPATH from the JVM's environment.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    tmp_dir().mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_dir())


def start_spark():
    tmp = shlex.quote(str(tmp_dir()))
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp_dir())  # shuffle and broadcast files
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_THREADS}] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f'--driver-java-options "-Djava.io.tmpdir={tmp} -XX:-UsePerfData" pyspark-shell'
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("simbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(SPARK_THREADS))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits on EOF of its stdin
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass
class Query:
    qid: int
    source: int
    engine: str
    seconds: float = 0.0
    ref_seconds: float = 0.0  # ``seconds`` at the reference host speed (calibration.py)
    error: Optional[float] = None  # MaxError; None when the query raised
    ok: bool = False
    phases: Optional[tuple] = None  # the result's (forward, diagonal, backward) seconds


class Bench:
    """One workload's graph, oracle and query loop."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        self.seed = seed
        self.graph = None
        self.qids = itertools.count()
        self.checks_failed = 0
        self.checks = 0
        self.calibrator = Calibrator()

    def query(self, j: int, engine: str, tracer: Optional[tracing.Tracer] = None):
        """Run one timed query for pool source ``j``; return it and its scores."""
        from repro.core import exactsim as es

        q = Query(next(self.qids), int(self.sources[j]), engine)
        scores = None
        if tracer is not None:
            tracer.query = q.qid
        t0 = time.perf_counter()
        try:
            r = es.exactsim(
                self.graph, q.source, eps=self.wl.eps, c=C, variant=self.wl.variant,
                seed=self.seed, walk_engine=engine, max_pairs=MAX_PAIRS,
            )
        except Exception:  # a failed query is counted, not fatal
            traceback.print_exc()
        else:
            scores = r.scores
            q.phases = (r.seconds_forward, r.seconds_diagonal, r.seconds_backward)
        q.seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.query = None
        if scores is not None:
            q.error = max_error(scores, self.truth[j])
            q.ok = q.error <= self.wl.eps  # the requested ε, not effective_eps
        return q, scores

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            print(f"simbench: check failed: {what}", file=sys.stderr)

    def build(self) -> float:
        """One set-up repetition: build the graph and load the oracle."""
        import numpy as np
        from repro.graphs import generators as gen

        t0 = time.perf_counter()
        gen._CACHE.pop(self.wl.dataset, None)  # each repetition builds from scratch
        self.graph = gen.load(self.wl.dataset)
        self.sources, self.truth = load_oracle(self.wl.dataset)
        self.order = np.random.default_rng(self.seed).permutation(len(self.sources))
        return time.perf_counter() - t0

    def warm_up(self) -> float:
        """Query the first pool source once before any timing."""
        t0 = time.perf_counter()
        warm, _ = self.query(0, "local")
        self.check(warm.ok, f"warm-up query on source {warm.source}, MaxError {warm.error}")
        self.calibrator.run()
        return time.perf_counter() - t0

    def attach_spark(self, spark) -> None:
        """Broadcast the graph and warm Spark up before its queries are timed.

        The first Spark query must give scores bit-identical to the local
        engine's.  A second one follows because Spark's Python workers keep
        speeding up over their first queries.
        """
        self.graph.spark = spark
        self.graph.broadcast_csr()
        first, scores = self.query(0, "spark")
        _, ref = self.query(0, "local")
        same = scores is not None and ref is not None and bool((scores == ref).all())
        self.check(first.ok, f"first Spark query on source {first.source}, MaxError {first.error}")
        self.check(same, f"Spark and local scores differ on source {first.source}")
        again, _ = self.query(0, "spark")
        self.check(again.ok, f"second Spark query on source {again.source}, MaxError {again.error}")

    def run_calibrated(self, seconds: float) -> List[Query]:
        """Local passes with the calibration kernel timed between queries."""
        cal = [self.calibrator.run()]

        def one(j: int) -> List[Query]:
            q = self.query(j, "local")[0]
            cal.append(self.calibrator.run())
            q.ref_seconds = q.seconds * REF_S / ((cal[-2] + cal[-1]) / 2)
            return [q]

        return self.run_passes(seconds, one)

    def run_passes(self, seconds: float, one: Callable[[int], List[Query]]) -> List[Query]:
        """Run ``one`` on each pool source in seed order, pass after pass.

        Another pass starts only while it is expected to end within
        ``seconds``; at least one pass always runs.
        """
        out: List[Query] = []
        t0 = time.perf_counter()
        passes = 0
        while True:
            for j in self.order:
                out += one(int(j))
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (passes + 1) / passes > seconds:
                return out


def throughput(qs: List[Query], ref: bool = False) -> float:
    """Completed queries per second of (reference) query time."""
    done = sum(q.phases is not None for q in qs)
    return done / sum(q.ref_seconds if ref else q.seconds for q in qs)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(qs: List[Query], setup_s: float) -> Dict[str, tuple]:
    return {
        "queries_per_ref_s": (throughput(qs, ref=True), "1/ref_s"),
        "query_ref_s_p50": (statistics.median(q.ref_seconds for q in qs), "ref_s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock(qs: List[Query]) -> Dict[str, tuple]:
    """The unnormalised timings, printed beside the end-to-end metrics."""
    return {
        "queries_per_s": (throughput(qs), "1/s"),
        "query_s_p50": (statistics.median(q.seconds for q in qs), "s"),
    }


def per_layer(
    bench: Bench, spans: List[tracing.Span], main: List[Query], plain: List[Query], on_spark: List[Query]
) -> Dict[str, tuple]:
    """Per-layer metrics from the traced pass ``main`` (per query unless a rate).

    The ``engine`` metrics come from the traced Spark pass ``on_spark`` over
    the same sources, and are 0 when the workload has none.
    """
    import numpy as np

    selfs = tracing.self_times(spans)
    qids = {q.qid for q in main}
    nq = len(main)

    def stats(name: str, layer: Optional[str] = None, queries: set = qids) -> Dict[str, float]:
        return tracing.span_stats(spans, selfs, name, queries, layer)

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    P, PT = stats("matvec.matvec_P"), stats("matvec.matvec_PT")
    fwd, bwd = stats("linearized.forward"), stats("linearized.backward")
    lp = stats("local_push.estimate_D_local_push")
    lp_local = stats("local_push.estimate_D_local_push", layer="local_push")
    head = stats("local_push.meeting_head")
    walk = stats("pair_walks.pair_meet_count")
    alloc = stats("diagonal.allocate")
    mc = stats("diagonal.estimate_D_mc")
    root = stats("exactsim.exactsim")
    load = stats("generators.load", queries={None})
    layer_s = tracing.layer_self_seconds(spans, selfs, qids)

    def diag_span(qs: List[Query]) -> float:
        ids = {q.qid for q in qs}
        return (stats("local_push.estimate_D_local_push", queries=ids)["busy_s"]
                + stats("diagonal.estimate_D_mc", queries=ids)["busy_s"]) / len(qs)

    overhead = diag_span(on_spark) - diag_span(main) if on_spark else 0.0
    spark_s = tracing.layer_self_seconds(spans, selfs, {q.qid for q in on_spark})
    phases = np.array([q.phases for q in main if q.phases is not None]).reshape(-1, 3)
    done = max(len(phases), 1)
    errors = [q.error for q in plain + main if q.error is not None]

    m = {
        "linalg.matvec_P.busy_s": (P["busy_s"] / nq, "s"),
        "linalg.matvec_PT.busy_s": (PT["busy_s"] / nq, "s"),
        "linalg.matvec.edges_per_s": (rate(P.get("edges", 0) + PT.get("edges", 0), P["busy_s"] + PT["busy_s"]), "1/s"),
        "linalg.expand_sparse.busy_s": (stats("matvec.expand_sparse")["busy_s"] / nq, "s"),
        "linearized.forward.busy_s": (fwd["busy_s"] / nq, "s"),
        "linearized.backward.busy_s": (bwd["busy_s"] / nq, "s"),
        "linearized.stored_entries": (fwd.get("stored_entries", 0) / nq, "count"),
        "linearized.vector_bytes": (fwd.get("vector_bytes", 0) / nq, "bytes"),
        "local_push.meeting_head.calls": (head["calls"] / nq, "count"),
        "local_push.meeting_head.busy_s": (head["busy_s"] / nq, "s"),
        "local_push.meeting_head.edges": (head.get("edges", 0) / nq, "count"),
        "local_push.meeting_head.edges_per_s": (rate(head.get("edges", 0), head["busy_s"]), "1/s"),
        "local_push.estimate_D.self_s": (lp_local["self_s"] / nq, "s"),
        "local_push.mean_ell": (rate(lp.get("ell_sum", 0), lp.get("nodes", 0)), "levels"),
        "local_push.tail_skipped": (lp.get("tail_skipped", 0) / nq, "count"),
        "walks.pair_meet_count.calls": (walk["calls"] / nq, "count"),
        "walks.pair_meet_count.busy_s": (walk["busy_s"] / nq, "s"),
        "walks.pair_meet_count.pairs": (walk.get("pairs", 0) / nq, "count"),
        "walks.pair_meet_count.pairs_per_s": (rate(walk.get("pairs", 0), walk["busy_s"]), "1/s"),
        "walks.pair_meet_count.pairs_per_call": (rate(walk.get("pairs", 0), walk["calls"]), "count"),
        "diagonal.pairs_allocated": (alloc.get("pairs_allocated", 0) / nq, "count"),
        "diagonal.pairs_theoretical": (alloc.get("pairs_theoretical", 0) / nq, "count"),
        "diagonal.capped_frac": (rate(alloc.get("capped", 0), alloc["calls"]), "frac"),
        "diagonal.estimate_D_mc.busy_s": (mc["busy_s"] / nq, "s"),
        "engine.spark_overhead_s": (overhead, "s"),
        "engine.spark_queries_per_s": (throughput(on_spark) if on_spark else 0.0, "1/s"),
        "engine.self_frac": (rate(spark_s["engine"], sum(spark_s.values())), "frac"),
        "exactsim.forward_s": (phases[:, 0].sum() / done, "s"),
        "exactsim.diagonal_s": (phases[:, 1].sum() / done, "s"),
        "exactsim.backward_s": (phases[:, 2].sum() / done, "s"),
        "exactsim.other_s": ((root["busy_s"] - phases.sum()) / nq, "s"),
        "exactsim.max_error_over_eps": (max(errors, default=0.0) / bench.wl.eps, "ratio"),
        "graphs.load.busy_s": (rate(load["busy_s"], load["calls"]), "s"),
        "trace.overhead_frac": (1.0 - rate(throughput(main), throughput(plain)), "frac"),
    }
    total = sum(layer_s.values())
    for layer in tracing.LAYERS:
        if layer not in ("graphs", "engine"):  # set-up only; Spark pass only
            m[f"{layer}.self_frac"] = (rate(layer_s[layer], total), "frac")
    return m


# ---------------------------------------------------------------------------
# Run metadata and output
# ---------------------------------------------------------------------------


def metadata(wl: Workload, seed: int, spark) -> dict:
    """Where and with what a run was made; ``spark`` is None without a session."""
    import numpy
    import pyarrow
    import pyspark

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": wl.name,
        "seed": seed,
        "dataset": wl.dataset,
        "variant": wl.variant,
        "eps": wl.eps,
        "c": C,
        "max_pairs": MAX_PAIRS,
        "nproc": os.cpu_count(),
        "spark_master": spark.sparkContext.master if spark is not None else None,
        "spark_threads": SPARK_THREADS if spark is not None else 0,
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "commit": commit,
        "oracle_commit": oracle_manifest()[wl.dataset]["commit"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    prepare_env()

    spark = None
    tracer = tracing.Tracer()
    info: Dict[str, tuple] = {}
    try:
        bench = Bench(wl, args.seed)
        with tracer.installed() if args.trace else contextlib.nullcontext():
            builds = [bench.build() for _ in range(SETUP_REPS)]
            warm_s = bench.warm_up()
        # The warm-up happens once per process; the build is repeated.
        setup_s = statistics.median(builds) + warm_s
        if args.trace:
            # Untraced and traced queries of a source run back to back, so
            # both see the same machine load.
            def paired(j: int) -> List[Query]:
                plain = bench.query(j, "local")[0]
                with tracer.installed():
                    return [plain, bench.query(j, "local", tracer)[0]]

            both = bench.run_passes(args.seconds, paired)
            plain, main_qs = both[0::2], both[1::2]
            on_spark: List[Query] = []
            if wl.spark_probe:
                spark = start_spark()
                bench.attach_spark(spark)
                with tracer.installed():
                    on_spark = bench.run_passes(0.0, lambda j: [bench.query(j, "spark", tracer)[0]])
            timed = both + on_spark
            metrics = per_layer(bench, tracer.spans, main_qs, plain, on_spark)
        else:
            timed = bench.run_calibrated(args.seconds)
            metrics = end_to_end(timed, setup_s)
            info = wall_clock(timed)
        meta = metadata(wl, args.seed, spark)
    finally:
        if spark is not None:
            stop_spark(spark)

    failed = sum(not q.ok for q in timed) + bench.checks_failed
    attempted = len(timed) + bench.checks
    report = {
        "meta": meta,
        "setup_s": {"builds": builds, "warm_up": warm_s},
        "query_fail_frac": sum(not q.ok for q in timed) / len(timed),
        "queries": [
            {"qid": q.qid, "source": q.source, "engine": q.engine, "seconds": q.seconds,
             "ref_seconds": q.ref_seconds, "max_error": q.error}
            for q in timed
        ],
    }
    if args.trace:
        report["executor_spans"] = (
            "not visible: spans inside Spark executors cannot be seen from the driver; "
            "the walk_engine='spark' D-estimation span counts as engine self time"
            if wl.spark_probe else "none (no Spark pass)"
        )
    RUN_DIR.mkdir(exist_ok=True)
    out = RUN_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**report, "spans": [s.as_dict() for s in tracer.spans]}))
    shutil.rmtree(tmp_dir(), ignore_errors=True)

    print(json.dumps(report))
    for name, (value, unit) in {**metrics, **info}.items():
        extra = f" (n={len(timed)} queries)" if name.endswith("_p50") else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    print(f"query_fail_frac = {report['query_fail_frac']:.6g} frac (n={len(timed)} queries)")
    print(f"spans written to {out}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
