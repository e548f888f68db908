"""Fixed set-up constants and the workload table (``perfbench/workloads.json``).

Everything a run depends on except the workload seed lives here or in the
JSON table next to this package, so two checkouts of the same benchmark
measure the same thing.  The speed-only serving knobs (kernel backend,
``workers``, ``max_wait_ms``, ``max_batch``, ``dedup_seeds``) are
deliberately *not* set anywhere: the benchmark runs the library defaults
and records what they resolved to, so a change of default shows up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

#: ``perfbench/`` — the benchmark's own directory.
BENCH_DIR = Path(__file__).resolve().parent.parent
#: Where runs leave artifacts, results and span dumps (git-ignored).
OUT_DIR = BENCH_DIR / "out"
WORKLOADS_FILE = BENCH_DIR / "workloads.json"

# Shared set-up ------------------------------------------------------------- #
NUM_NODES = 20_000
NUM_FEATURES = 64
NUM_CLASSES = 8
AVERAGE_DEGREE = 10.0
GRAPH_SEED = 0
HIDDEN = 32
BITS = 8
EPOCHS = 2
LEARNING_RATE = 0.01
MODEL_SEED = 0
FANOUT = 10
SESSION_BATCH = 256
SAMPLER_SEED = 0
REQUEST_SEEDS = 64
CACHE_ENTRIES = 65_536
CACHE_BYTES = 256 * 2 ** 20

# Update stream of the streaming workload ----------------------------------- #
#: One ``GraphDelta`` after every this many queries.
UPDATE_EVERY = 8
#: Edges added (and later removed) per edge delta.
EDGES_PER_DELTA = 16
#: Feature rows overwritten per feature delta.
FEATURE_ROWS_PER_DELTA = 4


@dataclass(frozen=True)
class Workload:
    """One row of the workload table."""

    name: str
    conv: str
    heads: int
    traffic: str
    skew: float
    cache: bool
    updates: bool
    open_qps: float
    latency_limit_ms: float
    why: str
    loads: Tuple[str, ...]
    bypasses: Tuple[str, ...]


@dataclass(frozen=True)
class Table:
    """The whole ``workloads.json``: shared run constants plus workloads."""

    default_seed: int
    held_out_seed: int
    warmup_requests: int
    setup_repeats: int
    open_loop_share: float
    rounds: int
    max_send_lag_ms: float
    workloads: Dict[str, Workload]


def load_table(path: Path = WORKLOADS_FILE) -> Table:
    raw = json.loads(path.read_text())
    workloads = {
        name: Workload(name=name, conv=row["conv"], heads=int(row["heads"]),
                       traffic=row["traffic"], skew=float(row["skew"]),
                       cache=bool(row["cache"]), updates=bool(row["updates"]),
                       open_qps=float(row["open_qps"]),
                       latency_limit_ms=float(row["latency_limit_ms"]),
                       why=row["why"], loads=tuple(row["loads"]),
                       bypasses=tuple(row["bypasses"]))
        for name, row in raw["workloads"].items()}
    return Table(default_seed=int(raw["default_seed"]),
                 held_out_seed=int(raw["held_out_seed"]),
                 warmup_requests=int(raw["warmup_requests"]),
                 setup_repeats=int(raw["setup_repeats"]),
                 open_loop_share=float(raw["open_loop_share"]),
                 rounds=int(raw["rounds"]),
                 max_send_lag_ms=float(raw["max_send_lag_ms"]),
                 workloads=workloads)
