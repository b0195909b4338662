"""Brute-force answers from the raw data, and checks of the program's answers.

Ground truth follows Definition 5.2: the trajectories whose *raw* point at
``t`` lies in the ``g_c`` grid cell of ``(x, y)``.  The checks are the
guarantees the paper gives for each query kind:

* STRQ -- local search makes the candidate list a superset of the truth
  (Lemma 3);
* exact match -- the verified matches equal the truth;
* TPQ -- every true member gets a path of ``min(length, points before its
  first gap)`` points, each within ``sqrt(2)/2 * g_s`` of the raw point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from workload import RawPoints

METERS_PER_DEGREE = 111_000.0
# Slack for floating-point rounding only; the bound itself is Lemma 3's.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    """Ground truth of one query: true members and, for TPQ, their raw paths."""

    members: tuple[int, ...]
    paths: dict[int, np.ndarray] | None = None


class Oracle:
    """Ground truth computed from the raw points alone."""

    def __init__(self, raw: RawPoints, trajectories: dict[int, tuple[np.ndarray, np.ndarray]],
                 cell_size: float, radius: float) -> None:
        self.raw = raw
        self.trajectories = trajectories
        self.cell_size = float(cell_size)
        self.radius = float(radius)

    @classmethod
    def from_dataset(cls, dataset, raw: RawPoints, cell_size: float,
                     radius: float) -> "Oracle":
        trajectories = {int(tr.traj_id): (np.asarray(tr.timestamps, dtype=np.int64),
                                          np.asarray(tr.points, dtype=float))
                        for tr in dataset}
        return cls(raw, trajectories, cell_size, radius)

    def members(self, x: float, y: float, t: int) -> tuple[int, ...]:
        """Trajectories whose raw point at ``t`` shares the ``g_c`` cell of ``(x, y)``."""
        lo, hi = np.searchsorted(self.raw.ts, [t, t + 1])
        cells = np.floor(self.raw.xy[lo:hi] / self.cell_size)
        mask = (cells[:, 0] == np.floor(x / self.cell_size)) & (
            cells[:, 1] == np.floor(y / self.cell_size))
        return tuple(sorted(int(tid) for tid in self.raw.traj_ids[lo:hi][mask]))

    def raw_path(self, traj_id: int, t: int, length: int) -> np.ndarray:
        """Raw points of ``traj_id`` from ``t`` on, up to ``length`` or its first gap."""
        ts, points = self.trajectories[traj_id]
        start = int(np.searchsorted(ts, t))
        window = ts[start:start + length]
        consecutive = window == t + np.arange(len(window))
        count = len(window) if consecutive.all() else int(np.argmin(consecutive))
        return points[start:start + count]

    def expect(self, spec) -> Expected:
        members = self.members(spec.x, spec.y, spec.t)
        if spec.kind != "tpq":
            return Expected(members)
        paths = {tid: self.raw_path(tid, spec.t, spec.length) for tid in members}
        return Expected(members, paths)

    def within_bound(self, distances: np.ndarray) -> bool:
        return bool(np.all(distances <= self.radius * (1.0 + _REL_TOL)))

    def check(self, spec, expected: Expected, answer) -> bool:
        """Whether ``answer`` (a query result) meets the guarantee of its kind."""
        if spec.kind == "strq":
            candidates = getattr(answer, "candidates", None)
            return candidates is not None and set(expected.members) <= set(candidates)
        if spec.kind == "exact":
            matches = getattr(answer, "matches", None)
            return matches is not None and sorted(matches) == list(expected.members)
        paths = getattr(answer, "paths", None)
        if paths is None:
            return False
        for tid, raw in expected.paths.items():
            got = paths.get(tid)
            if got is None or len(got) != len(raw):
                return False
            if not self.within_bound(np.hypot(*(np.asarray(got) - raw).T)):
                return False
        return True

    def reconstruction_errors(self, reconstruct) -> np.ndarray | None:
        """Distance from each raw point to ``reconstruct(traj_id, t)``.

        ``None`` when some point has no reconstruction at all.
        """
        errors = np.empty(len(self.raw))
        for row, (tid, t) in enumerate(zip(self.raw.traj_ids.tolist(), self.raw.ts.tolist())):
            point = reconstruct(tid, t)
            if point is None:
                return None
            errors[row] = np.hypot(*(np.asarray(point) - self.raw.xy[row]))
        return errors
