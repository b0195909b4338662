"""Inputs for the benchmark: the dataset and the seeded probe lists.

The dataset is one fixed repository -- the same trips for every seed -- so
its build, byte and accuracy figures compare from one commit to the next;
across generator seeds those figures move by up to a half (artifact bytes
per raw byte ranged from 13 to 24 over five seeds), far beyond any bound a
regression gate could use.  ``--seed`` drives the probes: which raw points
are queried and in what order.  The program under test receives only the
generated dataset and query lists; the hot window is chosen from the
generated data (the busiest run of consecutive timestamps), never from
program state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import generate_porto_like
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.queries.batch import QuerySpec

DATASET_SEED = 3
NUM_TRAJECTORIES = 120
MAX_LENGTH = 300
MAX_START_OFFSET = 600
HOT_WINDOW = 64
TPQ_LENGTH = 20
BATCH_SIZE = 600
NUM_BATCHES = 10
SCALAR_PROBES = 8000
# 50/25/25 STRQ/TPQ/exact mix, used by batches and scalar lists.
KIND_CYCLE = ("strq", "tpq", "strq", "exact")

WORKLOADS = ("hot", "wide")

# Independent RNG streams derived from a seed.
_OFFSET_STREAM = 1
_PROBE_STREAM = 2


def make_dataset(seed: int = DATASET_SEED) -> TrajectoryDataset:
    """Porto-like trips whose start times are staggered over a long span."""
    base = generate_porto_like(NUM_TRAJECTORIES, max_length=MAX_LENGTH, seed=seed)
    rng = np.random.default_rng([seed, _OFFSET_STREAM])
    shifted = []
    for traj in base:
        offset = int(rng.integers(0, MAX_START_OFFSET))
        shifted.append(Trajectory(traj.traj_id, traj.points, traj.timestamps + offset))
    return TrajectoryDataset(shifted)


@dataclass(frozen=True)
class RawPoints:
    """Every raw point of a dataset as flat columns, sorted by ``(t, traj_id)``."""

    traj_ids: np.ndarray
    ts: np.ndarray
    xy: np.ndarray

    @classmethod
    def from_dataset(cls, dataset: TrajectoryDataset) -> "RawPoints":
        tids = np.concatenate([np.full(len(tr), tr.traj_id, dtype=np.int64) for tr in dataset])
        ts = np.concatenate([tr.timestamps for tr in dataset]).astype(np.int64)
        xy = np.concatenate([tr.points for tr in dataset]).astype(float)
        order = np.lexsort((tids, ts))
        return cls(traj_ids=tids[order], ts=ts[order], xy=xy[order])

    def __len__(self) -> int:
        return len(self.ts)


def hot_window(ts: np.ndarray, width: int = HOT_WINDOW) -> tuple[int, int]:
    """``[start, end)`` of the ``width`` consecutive timestamps holding most points."""
    t0 = int(ts.min())
    counts = np.bincount(ts - t0)
    if len(counts) <= width:
        return t0, t0 + width
    sums = np.convolve(counts, np.ones(width, dtype=np.int64), mode="valid")
    start = t0 + int(np.argmax(sums))
    return start, start + width


def probe_pool(raw: RawPoints, workload: str) -> np.ndarray:
    """Indices into ``raw`` that probes of ``workload`` are drawn from."""
    if workload == "wide":
        return np.arange(len(raw))
    if workload == "hot":
        start, end = hot_window(raw.ts)
        return np.nonzero((raw.ts >= start) & (raw.ts < end))[0]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _stratified(pool: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` picks from ``pool``, one uniformly inside each of ``count`` equal strata.

    ``pool`` is in timestamp order, so every probe list covers its time span
    evenly; only the pick inside each stratum depends on the seed.  This keeps
    the mix of cheap and costly probes alike from seed to seed.
    """
    positions = (np.arange(count) + rng.random(count)) * (len(pool) / count)
    return pool[np.minimum(positions.astype(np.int64), len(pool) - 1)]


def _specs(raw: RawPoints, picks: np.ndarray, rng: np.random.Generator) -> list[QuerySpec]:
    """Query specs on the picked points, kinds interleaved in time, then shuffled."""
    specs = []
    for position, index in enumerate(picks.tolist()):
        kind = KIND_CYCLE[position % len(KIND_CYCLE)]
        x, y = raw.xy[index]
        specs.append(QuerySpec(kind=kind, x=float(x), y=float(y), t=int(raw.ts[index]),
                               length=TPQ_LENGTH if kind == "tpq" else 0))
    return [specs[i] for i in rng.permutation(len(specs)).tolist()]


@dataclass(frozen=True)
class Probes:
    """The query lists of one run: batches for ``run_batch`` and a scalar list."""

    batches: list[list[QuerySpec]]
    scalar: list[QuerySpec]


def make_probes(raw: RawPoints, workload: str, seed: int) -> Probes:
    """Probe lists for ``workload``; every probe sits on a true raw point."""
    pool = probe_pool(raw, workload)
    rng = np.random.default_rng([seed, _PROBE_STREAM])
    batches = [_specs(raw, _stratified(pool, BATCH_SIZE, rng), rng) for _ in range(NUM_BATCHES)]
    scalar = _specs(raw, _stratified(pool, SCALAR_PROBES, rng), rng)
    return Probes(batches=batches, scalar=scalar)
