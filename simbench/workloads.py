"""Workload definitions, frozen oracles and the MaxError of a query.

Each workload queries a fixed pool of sources whose reference score vectors
are frozen under ``oracles/`` (regenerate with ``make_oracles.py``).  The
pool is the union of the sources drawn with the default pool seed and with
one held-out pool seed.  The workload seed shuffles the query order and is
the ``exactsim`` seed, so every run covers the same sources.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

C = 0.6
MAX_PAIRS = 2_000_000
ORACLE_DIR = Path(__file__).resolve().parent / "oracles"

#: Pool seeds: the default sources and the held-out sources.
POOL_SEEDS = (0, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    variant: str
    eps: float
    #: Sources drawn per pool seed; one pass queries all of them.
    per_seed: int
    #: Traced runs also query the pool with ``walk_engine="spark"``.
    spark_probe: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tw-opt-e3", "TW-lite", "opt", 1e-3, 2),
        Workload("db-opt-e4", "DB-lite", "opt", 1e-4, 2, spark_probe=True),
        Workload("hp-basic-3e-3", "HP-lite", "basic", 3e-3, 3),
    )
}


def pick_sources(din: np.ndarray, k: int, seed: int, exclude: np.ndarray) -> np.ndarray:
    """``k`` distinct uniform sources with in-degree > 0, not in ``exclude``."""
    cand = np.setdiff1d(np.flatnonzero(din > 0), exclude)
    return np.sort(np.random.default_rng(seed).choice(cand, size=k, replace=False))


def oracle_path(dataset: str) -> Path:
    return ORACLE_DIR / f"{dataset}.npz"


def load_oracle(dataset: str) -> tuple[np.ndarray, np.ndarray]:
    """``(sources, scores)``: scores[j] is the reference vector of sources[j]."""
    with np.load(oracle_path(dataset)) as z:
        return z["sources"].astype(np.int64), z["scores"].astype(np.float64)


def oracle_manifest() -> dict:
    return json.loads((ORACLE_DIR / "MANIFEST.json").read_text())


def max_error(scores: np.ndarray, truth: np.ndarray) -> float:
    """MaxError of paper §4: the largest absolute deviation over all nodes."""
    if scores.shape != truth.shape:
        raise ValueError(f"score vector shape {scores.shape} != oracle shape {truth.shape}")
    return float(np.max(np.abs(scores - truth)))
