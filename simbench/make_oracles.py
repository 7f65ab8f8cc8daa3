"""Regenerate the frozen oracles under ``simbench/oracles/``.

Run from the repository root::

    PYTHONPATH=src python3 simbench/make_oracles.py [DATASET ...]

* HP-lite: rows of the Power-Method matrix ``simrank_power(tol=1e-11)``, an
  independent oracle.
* DB-lite, TW-lite: optimized ExactSim at a 100x tighter ε
  than the workload, with ``max_pairs=2e7`` and a seed no workload uses.

Sources are drawn per pool seed (default, then held-out); each dataset's
entry in ``MANIFEST.json`` records the commit and settings that produced it.
Scores are stored as float32: the rounding (< 6e-8) is far below every ε.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.baselines.power_method import simrank_power  # noqa: E402
from repro.core.exactsim import exactsim  # noqa: E402
from repro.graphs import generators as gen  # noqa: E402
from simbench.workloads import C, ORACLE_DIR, POOL_SEEDS, WORKLOADS, oracle_path, pick_sources  # noqa: E402

#: Seed of the ExactSim reference runs; distinct from any workload seed in use.
ORACLE_SEED = 982_451_653

REFERENCE = {
    "HP-lite": {"method": "simrank_power", "tol": 1e-11},
    "DB-lite": {"method": "exactsim", "variant": "opt", "eps": 1e-6, "max_pairs": 20_000_000, "seed": ORACLE_SEED},
    "TW-lite": {"method": "exactsim", "variant": "opt", "eps": 1e-5, "max_pairs": 20_000_000, "seed": ORACLE_SEED},
}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def pool_for(dataset: str, din: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sources of the default pool seed, then of the held-out one."""
    per_seed = max(w.per_seed for w in WORKLOADS.values() if w.dataset == dataset)
    chosen = np.zeros(0, dtype=np.int64)
    heldout = []
    for i, seed in enumerate(POOL_SEEDS):
        picked = pick_sources(din, per_seed, seed, chosen)
        chosen = np.concatenate([chosen, picked])
        heldout += [i > 0] * per_seed
    return chosen, np.array(heldout)


def build(dataset: str) -> dict:
    g = gen.load(dataset)
    sources, heldout = pool_for(dataset, g.csr.din)
    ref = REFERENCE[dataset]
    t0 = time.perf_counter()
    if ref["method"] == "simrank_power":
        S = simrank_power(g, c=C, tol=ref["tol"])
        scores = S[sources, :]
    else:
        scores = np.stack(
            [
                exactsim(
                    g, int(s), eps=ref["eps"], c=C, variant=ref["variant"],
                    seed=ref["seed"], max_pairs=ref["max_pairs"],
                ).scores
                for s in sources
            ]
        )
    seconds = time.perf_counter() - t0
    ORACLE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(
        oracle_path(dataset), sources=sources, heldout=heldout, scores=scores.astype(np.float32)
    )
    return {
        **ref,
        "c": C,
        "sources": sources.tolist(),
        "heldout": heldout.tolist(),
        "pool_seeds": list(POOL_SEEDS),
        "commit": git_commit(),
        "seconds": round(seconds, 1),
    }


def main(datasets: list[str]) -> None:
    manifest_path = ORACLE_DIR / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    for ds in datasets or sorted(REFERENCE):
        manifest[ds] = build(ds)
        print(ds, manifest[ds]["seconds"], "s", flush=True)
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
