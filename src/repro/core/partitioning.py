"""Partitioning of trajectory points for grouped modelling (Section 3.2).

Two criteria are supported:

* **spatial proximity** (PPQ-S): every point must lie within ``epsilon_p`` of
  its partition's spatial centroid (Equation 7);
* **autocorrelation similarity** (PPQ-A): every point's AR(k) coefficient
  vector must lie within ``epsilon_p`` of its partition's coefficient centroid
  (Equation 8).

Partitioning from scratch repeatedly increases the number of clusters ``q``
(by ``partition_growth`` per round) until the chosen criterion is satisfied,
giving the O(q·m·N·l) cost of Lemma 1.  The incremental temporal partitioner
(Section 3.2.2) carries assignments over from the previous timestamp,
re-splits only the partitions that violate the threshold, and merges partition
pairs whose centroids are within ``epsilon_p`` (at most one merge per
partition per step), giving the O(q'·m'·N'·l + q'·q) cost of Lemma 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import PPQConfig
from repro.core.quantizer import kmeans


@dataclass
class Partition:
    """One partition of trajectory points.

    Attributes
    ----------
    members:
        Trajectory IDs assigned to this partition.
    spatial_centroid:
        Mean position of the member points at the last update.
    feature_centroid:
        Mean feature vector (positions for the spatial criterion, AR
        coefficients for the autocorrelation criterion).
    merged_once:
        Whether this partition has already absorbed another partition at the
        current timestamp (the paper allows at most one merge per step).
    """

    members: set[int] = field(default_factory=set)
    spatial_centroid: np.ndarray | None = None
    feature_centroid: np.ndarray | None = None
    merged_once: bool = False

    def __len__(self) -> int:
        return len(self.members)


def partition_points(features: np.ndarray, epsilon_p: float,
                     growth: int = 2, kmeans_iterations: int = 8,
                     max_partitions: int = 256, seed: int = 0,
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """Partition feature vectors until the centroid-deviation bound holds.

    Implements the from-scratch partitioning of Section 3.2.1: the number of
    clusters grows by ``growth`` per round until every vector lies within
    ``epsilon_p`` of its cluster centroid (or ``max_partitions`` is reached).

    Parameters
    ----------
    features:
        ``(n, d)`` array: positions (spatial criterion) or AR coefficients
        (autocorrelation criterion).
    epsilon_p:
        The partition threshold of Equations 7/8.

    Returns
    -------
    (labels, centroids, rounds):
        Cluster label per vector, cluster centroids and the number of rounds
        ``m`` needed (used by the efficiency experiments).
    """
    features = np.asarray(features, dtype=float)
    n = len(features)
    if n == 0:
        width = features.shape[1] if features.ndim == 2 else 2
        return np.empty(0, dtype=np.int64), np.empty((0, width)), 0
    growth = max(1, int(growth))
    q = 1
    rounds = 0
    labels = np.zeros(n, dtype=np.int64)
    centroids = features.mean(axis=0, keepdims=True)
    while True:
        rounds += 1
        centroids, labels = kmeans(features, q, iterations=kmeans_iterations, seed=seed + rounds)
        deviations = np.linalg.norm(features - centroids[labels], axis=1)
        if np.all(deviations <= epsilon_p) or q >= min(n, max_partitions):
            return labels, centroids, rounds
        q = min(min(n, max_partitions), q + growth)


class IncrementalPartitioner:
    """Maintains the partitioning N^t across timestamps (Section 3.2.2).

    The partitioner stores, per trajectory ID, the partition it belongs to.
    At each :meth:`update` call with the points (and features) of the current
    timestamp it

    1. keeps every point in the partition of its trajectory at ``t-1``
       (new trajectories start unassigned);
    2. re-partitions the member sets of partitions that violate the
       ``epsilon_p`` bound, and clusters unassigned points into new
       partitions;
    3. merges partitions whose centroids are within ``epsilon_p`` of each
       other, each partition participating in at most one merge.

    The number of partitions is capped by ``config.max_partitions``.
    """

    def __init__(self, config: PPQConfig) -> None:
        self.config = config
        self._partitions: dict[int, Partition] = {}
        self._assignment: dict[int, int] = {}
        self._next_partition_id = 0
        #: Statistics for the efficiency experiments (Figure 7 / 8).
        self.stats = {"updates": 0, "resplits": 0, "merges": 0, "new_partitions": 0}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def num_partitions(self) -> int:
        """Current number of partitions ``q``."""
        return len(self._partitions)

    def partition_of(self, traj_id: int) -> int | None:
        """Partition ID a trajectory is currently assigned to, if any."""
        return self._assignment.get(traj_id)

    def update(self, traj_ids: np.ndarray, features: np.ndarray) -> dict[int, np.ndarray]:
        """Advance the partitioning to the current timestamp.

        Parameters
        ----------
        traj_ids:
            ``(n,)`` trajectory IDs active at this timestamp.
        features:
            ``(n, d)`` feature vectors (positions or AR coefficients) aligned
            with ``traj_ids``.

        Returns
        -------
        dict
            Mapping partition ID -> array of row indices (into ``traj_ids``)
            of the points assigned to that partition.
        """
        traj_ids = np.asarray(traj_ids, dtype=np.int64)
        features = np.asarray(features, dtype=float)
        if len(traj_ids) != len(features):
            raise ValueError("traj_ids and features must be aligned")
        self.stats["updates"] += 1
        eps = self.config.epsilon_p

        if not self._partitions:
            groups = self._initial_partition(traj_ids, features)
        else:
            groups = self._carry_over(traj_ids, features)
            groups = self._resplit_violating(groups, traj_ids, features, eps)
            self._merge_close(eps)
            groups = self._regroup(traj_ids)
        self._refresh_centroids(groups, features)
        return groups

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _new_partition(self) -> int:
        pid = self._next_partition_id
        self._next_partition_id += 1
        self._partitions[pid] = Partition()
        self.stats["new_partitions"] += 1
        return pid

    def _initial_partition(self, traj_ids: np.ndarray,
                           features: np.ndarray) -> dict[int, np.ndarray]:
        labels, _centroids, _rounds = partition_points(
            features, self.config.epsilon_p,
            growth=self.config.partition_growth,
            kmeans_iterations=self.config.kmeans_iterations,
            max_partitions=self.config.max_partitions,
            seed=self.config.seed,
        )
        groups: dict[int, np.ndarray] = {}
        for label in np.unique(labels):
            pid = self._new_partition()
            rows = np.flatnonzero(labels == label)
            groups[pid] = rows
            for row in rows:
                tid = int(traj_ids[row])
                self._partitions[pid].members.add(tid)
                self._assignment[tid] = pid
        return groups

    def _carry_over(self, traj_ids: np.ndarray,
                    features: np.ndarray) -> dict[int, np.ndarray]:
        """Step 1: keep each point in its previous partition; cluster new ones."""
        rows_by_pid: dict[int, list[int]] = {}
        unassigned: list[int] = []
        for row, tid in enumerate(traj_ids):
            pid = self._assignment.get(int(tid))
            if pid is None or pid not in self._partitions:
                unassigned.append(row)
            else:
                rows_by_pid.setdefault(pid, []).append(row)
                # A re-split drops absent trajectories from the members; a
                # returning one must rejoin, or a merge would strand it.
                self._partitions[pid].members.add(int(tid))
        if unassigned:
            rows = np.asarray(unassigned, dtype=np.int64)
            labels, _c, _r = partition_points(
                features[rows], self.config.epsilon_p,
                growth=self.config.partition_growth,
                kmeans_iterations=self.config.kmeans_iterations,
                max_partitions=self.config.max_partitions,
                seed=self.config.seed + 17,
            )
            for label in np.unique(labels):
                pid = self._new_partition()
                for row in rows[labels == label]:
                    tid = int(traj_ids[row])
                    self._partitions[pid].members.add(tid)
                    self._assignment[tid] = pid
                    rows_by_pid.setdefault(pid, []).append(int(row))
        return {pid: np.asarray(rows, dtype=np.int64) for pid, rows in rows_by_pid.items()}

    def _resplit_violating(self, groups: dict[int, np.ndarray], traj_ids: np.ndarray,
                           features: np.ndarray, eps: float) -> dict[int, np.ndarray]:
        """Step 2: re-partition groups whose members exceed the threshold."""
        result: dict[int, np.ndarray] = {}
        for pid, rows in groups.items():
            if len(rows) == 0:
                continue
            member_features = features[rows]
            centroid = member_features.mean(axis=0)
            deviations = np.linalg.norm(member_features - centroid, axis=1)
            if np.all(deviations <= eps) or len(rows) == 1:
                result[pid] = rows
                continue
            self.stats["resplits"] += 1
            labels, _c, _r = partition_points(
                member_features, eps,
                growth=self.config.partition_growth,
                kmeans_iterations=self.config.kmeans_iterations,
                max_partitions=self.config.max_partitions,
                seed=self.config.seed + 31,
            )
            unique = np.unique(labels)
            # The first sub-group keeps the original partition id, the rest
            # become fresh partitions.
            for j, label in enumerate(unique):
                sub_rows = rows[labels == label]
                target_pid = pid if j == 0 else self._new_partition()
                result[target_pid] = sub_rows
                for row in sub_rows:
                    tid = int(traj_ids[row])
                    self._assignment[tid] = target_pid
                    self._partitions[target_pid].members.add(tid)
            # Rebuild the membership of the original partition from scratch.
            self._partitions[pid].members = {
                int(traj_ids[row]) for row in result.get(pid, np.empty(0, dtype=np.int64))
            }
        return result

    def _merge_close(self, eps: float) -> None:
        """Step 3: merge partitions with close centroids (one merge each)."""
        pids = [pid for pid, part in self._partitions.items() if part.feature_centroid is not None]
        for part in self._partitions.values():
            part.merged_once = False
        merged_away: set[int] = set()
        for i, pid_a in enumerate(pids):
            if pid_a in merged_away:
                continue
            part_a = self._partitions[pid_a]
            if part_a.merged_once or part_a.feature_centroid is None:
                continue
            for pid_b in pids[i + 1:]:
                if pid_b in merged_away:
                    continue
                part_b = self._partitions[pid_b]
                if part_b.merged_once or part_b.feature_centroid is None:
                    continue
                distance = float(np.linalg.norm(part_a.feature_centroid - part_b.feature_centroid))
                if distance <= eps:
                    # Merge b into a.
                    for tid in part_b.members:
                        self._assignment[tid] = pid_a
                    part_a.members |= part_b.members
                    part_a.merged_once = True
                    merged_away.add(pid_b)
                    self.stats["merges"] += 1
                    break
        for pid in merged_away:
            del self._partitions[pid]

    def _regroup(self, traj_ids: np.ndarray) -> dict[int, np.ndarray]:
        """Recompute row groups after merging."""
        groups: dict[int, list[int]] = {}
        for row, tid in enumerate(traj_ids):
            pid = self._assignment.get(int(tid))
            if pid is not None and pid in self._partitions:
                groups.setdefault(pid, []).append(row)
        return {pid: np.asarray(rows, dtype=np.int64) for pid, rows in groups.items()}

    def _refresh_centroids(self, groups: dict[int, np.ndarray], features: np.ndarray) -> None:
        for pid, rows in groups.items():
            if len(rows) == 0:
                continue
            centroid = features[rows].mean(axis=0)
            part = self._partitions[pid]
            part.feature_centroid = centroid
            part.spatial_centroid = centroid[:2] if centroid.shape[0] >= 2 else centroid
