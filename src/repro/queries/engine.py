"""Convenience query engine tying a summary and a TPI together.

The engine is what applications interact with after compressing a repository:
it owns the summary, builds (or accepts) a TPI over the reconstructed points
and exposes STRQ / TPQ / exact-match queries with the paper's local-search
defaults applied.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import IndexConfig
from repro.core.summary import TrajectorySummary
from repro.cqc.local_search import search_radius
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.index.grid import PostingDecodeError
from repro.index.tpi import TemporalPartitionIndex, TimePeriod
from repro.queries.batch import QuerySpec, Workload, batch_exact, batch_strq, batch_tpq
from repro.reliability.degrade import QuarantineRecord, QueryError, recompute_cell_postings
from repro.reliability.retry import RetryExhaustedError, RetryPolicy
from repro.queries.exact import ExactQueryResult, exact_match_query
from repro.queries.strq import STRQResult, spatio_temporal_range_query
from repro.queries.tpq import TPQResult, trajectory_path_query


def _posting_error_in(error: BaseException) -> PostingDecodeError | None:
    """Find a :class:`PostingDecodeError` on ``error``'s cause chain, if any.

    Retry policies wrap the final failure in a ``RetryExhaustedError``; the
    degradation path needs the underlying decode error (with its grid/cell
    context) to know what to quarantine.
    """
    seen: set[int] = set()
    current: BaseException | None = error
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, PostingDecodeError):
            return current
        current = (
            getattr(current, "last_error", None)
            or getattr(current, "cause", None)
            or current.__cause__
        )
    return None


class QueryEngine:
    """Answer spatio-temporal queries over a quantized trajectory repository.

    Parameters
    ----------
    summary:
        The trajectory summary produced by a quantizer.
    index_config:
        Parameters for the TPI built over the summary's reconstructed points.
    raw_dataset:
        Optional raw dataset; only needed for exact-match verification.
    index:
        Optional pre-built TPI.  When given (e.g. restored from a model
        artifact by :func:`repro.storage.load_model`), it is used as-is and
        no index is built from the summary.
    on_fault:
        ``"degrade"`` (the default): when a grid cell's posting list fails
        to decode mid-query, quarantine the cell, recompute its postings by
        brute force from summary reconstructions over the owning time
        period, patch the index and re-run -- results stay identical to the
        healthy path.  ``"raise"``: fail fast, propagating the
        :class:`~repro.index.grid.PostingDecodeError`.
    retry_policy:
        Optional :class:`~repro.reliability.retry.RetryPolicy` applied to
        every guarded query; transient faults (flaky reads) are retried
        with exponential backoff before degradation is considered.
    """

    def __init__(self, summary: TrajectorySummary, index_config: IndexConfig | None = None,
                 raw_dataset: TrajectoryDataset | None = None,
                 index: TemporalPartitionIndex | None = None,
                 on_fault: str = "degrade",
                 retry_policy: RetryPolicy | None = None) -> None:
        if on_fault not in ("degrade", "raise"):
            raise ValueError(f"on_fault must be 'degrade' or 'raise', got {on_fault!r}")
        self.summary = summary
        self.index_config = index_config or IndexConfig()
        self.raw_dataset = raw_dataset
        self.on_fault = on_fault
        self.retry_policy = retry_policy
        #: Artifact file this engine's model can be reloaded from, when known
        #: (set by the storage layer on load/save).  Parallel execution hands
        #: this path to its worker processes instead of pickling the engine.
        self.source_path: str | None = None
        #: Quarantine log: one record per repaired cell, in repair order.
        self.quarantined: list[QuarantineRecord] = []
        # Cells already repaired once; a second failure of the same cell
        # means repair cannot help, so it propagates instead of looping.
        self._repaired: set[tuple[int, tuple[int, int]]] = set()
        self.index = index if index is not None else self._build_index()

    # ------------------------------------------------------------------ #
    # index construction
    # ------------------------------------------------------------------ #
    def _build_index(self) -> TemporalPartitionIndex:
        """Build a TPI over the summary's reconstructed points."""
        reconstructed = self._reconstructed_dataset()
        tpi = TemporalPartitionIndex(self.index_config)
        tpi.build(reconstructed)
        return tpi

    def _reconstructed_dataset(self) -> TrajectoryDataset:
        """Materialise the reconstructed points as a dataset for indexing."""
        trajectories = []
        for tid in self.summary.trajectory_ids:
            timestamps, points = self.summary.trajectory(tid)
            trajectories.append(Trajectory(traj_id=tid, points=points, timestamps=timestamps))
        trajectories.sort(key=lambda traj: int(traj.timestamps[0]))  # the slices' order
        return TrajectoryDataset(trajectories)

    # ------------------------------------------------------------------ #
    # degradation machinery
    # ------------------------------------------------------------------ #
    def _guard(self, fn):
        """Run ``fn`` with retry and quarantine-repair protection.

        Transient errors are retried per :attr:`retry_policy` (when set).
        A posting-list decode failure under ``on_fault="degrade"`` triggers
        :meth:`_quarantine_and_repair` and the query is re-run against the
        patched index; the loop terminates because a cell that fails again
        after its one repair propagates the error instead of re-repairing.
        """
        while True:
            try:
                if self.retry_policy is not None:
                    return self.retry_policy.call(fn)
                return fn()
            except PostingDecodeError as exc:
                if self.on_fault != "degrade":
                    raise
                self._quarantine_and_repair(exc)
            except RetryExhaustedError as exc:
                decode_error = _posting_error_in(exc)
                if self.on_fault != "degrade" or decode_error is None:
                    raise
                self._quarantine_and_repair(decode_error)

    def _quarantine_and_repair(self, error: PostingDecodeError) -> None:
        """Repair one quarantined cell or re-raise if repair cannot help.

        The recomputation is exact: rectangles are only ever appended to a
        period's PI and never shrink or move, so every point inserted at
        some timestamp of the period is still inside the same rectangle
        (and maps to the same globally-anchored cell) under the final
        geometry.  Scanning the period's reconstructions therefore yields
        precisely the posting list the corrupt payload encoded.
        """
        grid, cell = error.grid, error.cell
        key = (id(grid), cell)
        if key in self._repaired:
            raise error
        period = self._period_of_grid(grid)
        if period is None:
            raise error
        recovered = recompute_cell_postings(self.summary, grid, cell,
                                            period.start, period.end)
        grid.patch_cell(cell, recovered)
        self._repaired.add(key)
        self.quarantined.append(QuarantineRecord(
            cell=cell, period_start=period.start, period_end=period.end,
            reason=f"{type(error.cause).__name__}: {error.cause}",
            recovered_ids=len(recovered),
        ))

    def _period_of_grid(self, grid) -> TimePeriod | None:
        """The TPI period whose PI owns ``grid`` (identity scan)."""
        for period in self.index.periods:
            if any(g is grid for g in period.index.grids):
                return period
        return None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def local_search_radius(self) -> float | None:
        """The ``√2/2 · g_s`` radius, or ``None`` when CQC is disabled."""
        if self.summary.cqc_coder is None:
            return None
        return search_radius(self.summary.cqc_coder.grid_size)

    def strq(self, x: float, y: float, t: int, local_search: bool = True) -> STRQResult:
        """Spatio-temporal range query (Definition 5.2)."""
        radius = self.local_search_radius if local_search else None
        return self._guard(lambda: spatio_temporal_range_query(
            self.index, x, y, t, summary=self.summary, local_search_radius=radius
        ))

    def tpq(self, x: float, y: float, t: int, length: int,
            local_search: bool = True) -> TPQResult:
        """Trajectory path query (Definition 5.3)."""
        radius = self.local_search_radius if local_search else None
        return self._guard(lambda: trajectory_path_query(
            self.index, self.summary, x, y, t, length, local_search_radius=radius
        ))

    def exact(self, x: float, y: float, t: int) -> ExactQueryResult:
        """Exact-match query; requires the raw dataset for verification."""
        if self.raw_dataset is None:
            raise RuntimeError("exact queries require the raw dataset")
        return self._guard(lambda: exact_match_query(
            self.index, self.summary, self.raw_dataset, x, y, t,
            cell_size=self.index_config.grid_cell,
        ))

    def run_batch(self, workload, isolate: bool = False, jobs: int = 1,
                  model_path=None) -> list[STRQResult | TPQResult | ExactQueryResult
                                           | QueryError]:
        """Execute a mixed STRQ/TPQ/exact workload with shared scans.

        Queries are grouped by kind and answered through the batched
        functions of :mod:`repro.queries.batch`: candidate generation is one
        vectorised TPI pass per kind, and reconstructions are shared through
        the summary's LRU slice cache.  Results come back in workload order
        and are identical to running each query through :meth:`strq`,
        :meth:`tpq` or :meth:`exact` individually.

        Parameters
        ----------
        workload:
            A :class:`~repro.queries.batch.Workload`, or any iterable of
            :class:`~repro.queries.batch.QuerySpec` / dict entries (dicts use
            the workload-file schema: ``type``, ``x``, ``y``, ``t`` and, for
            TPQ, ``length``).
        isolate:
            With ``isolate=True`` one failing query cannot abort the
            workload: if a kind's batched pass raises even after the
            engine's retry/degradation protections, its queries are re-run
            individually and each failure is returned as a structured
            :class:`~repro.reliability.degrade.QueryError` in that query's
            result slot (successes keep their normal result objects).
            The default re-raises the first unrecoverable error.
        jobs:
            With ``jobs > 1`` the workload is sharded across that many
            worker processes by a
            :class:`~repro.parallel.executor.ParallelExecutor`; each worker
            loads the model artifact once and results (identical to
            ``jobs=1``, in workload order) are merged back.  Requires a
            model artifact: either ``model_path`` or an engine restored by
            :func:`repro.storage.load_model` (which records
            :attr:`source_path`).  Fitted-in-memory systems should call
            :meth:`PPQTrajectory.run_batch`, which spills a temporary
            artifact automatically.
        model_path:
            Artifact file the workers load; defaults to :attr:`source_path`.

        Examples
        --------
        ::

            workload = Workload.from_obj([
                {"type": "strq", "x": -8.62, "y": 41.16, "t": 20},
                {"type": "tpq", "x": -8.62, "y": 41.16, "t": 20, "length": 10},
                {"type": "exact", "x": -8.60, "y": 41.15, "t": 35},
            ])
            results = engine.run_batch(workload)
            strq_result, tpq_result, exact_result = results
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs > 1:
            return self._run_parallel(workload, isolate=isolate, jobs=jobs,
                                      model_path=model_path)
        specs = self._normalize_workload(workload)
        radius = self.local_search_radius
        by_kind: dict[str, list[int]] = {"strq": [], "tpq": [], "exact": []}
        for position, spec in enumerate(specs):
            by_kind[spec.kind].append(position)
        if by_kind["exact"] and self.raw_dataset is None and not isolate:
            raise RuntimeError("exact queries require the raw dataset")

        results: list = [None] * len(specs)
        batches = {
            "strq": lambda positions: batch_strq(
                self.index, [specs[i] for i in positions],
                summary=self.summary, local_search_radius=radius,
            ),
            "tpq": lambda positions: batch_tpq(
                self.index, self.summary, [specs[i] for i in positions],
                local_search_radius=radius,
            ),
            "exact": lambda positions: batch_exact(
                self.index, self.summary, self.raw_dataset,
                [specs[i] for i in positions],
                cell_size=self.index_config.grid_cell,
            ),
        }
        for kind, positions in by_kind.items():
            if not positions:
                continue
            if kind == "exact" and self.raw_dataset is None:
                # Only reachable with isolate=True (checked above).
                error = RuntimeError("exact queries require the raw dataset")
                for position in positions:
                    results[position] = QueryError.from_exception(position, kind, error)
                continue
            try:
                answers = self._guard(lambda k=kind, p=positions: batches[k](p))
            except Exception:
                if not isolate:
                    raise
                self._run_isolated(specs, positions, results)
            else:
                for position, answer in zip(positions, answers):
                    results[position] = answer
        return results

    def _run_parallel(self, workload, isolate: bool, jobs: int, model_path) -> list:
        """Fan a workload out to worker processes (the ``jobs > 1`` path)."""
        from repro.parallel.executor import ParallelExecutor

        path = model_path or self.source_path
        if path is None:
            raise ValueError(
                "run_batch(jobs>1) needs a model artifact for the workers to "
                "load: pass model_path=, or use an engine restored by "
                "repro.storage.load_model, or call PPQTrajectory.run_batch "
                "(which saves a temporary artifact automatically)"
            )
        with ParallelExecutor(path, jobs=jobs, retry_policy=self.retry_policy) as pool:
            return pool.run(workload, isolate=isolate)

    def _run_isolated(self, specs: list[QuerySpec], positions: list[int],
                      results: list) -> None:
        """Scalar fallback for one kind's batch: per-query error isolation."""
        for position in positions:
            spec = specs[position]
            try:
                results[position] = self._run_scalar(spec)
            except Exception as exc:  # noqa: BLE001 - converted to a record
                results[position] = QueryError.from_exception(
                    position, spec.kind, exc,
                    attempts=getattr(exc, "attempts", 1),
                )

    def _run_scalar(self, spec: QuerySpec):
        """Answer one query spec through the (guarded) scalar methods."""
        if spec.kind == "strq":
            return self.strq(spec.x, spec.y, spec.t)
        if spec.kind == "tpq":
            return self.tpq(spec.x, spec.y, spec.t, spec.length)
        return self.exact(spec.x, spec.y, spec.t)

    @staticmethod
    def _normalize_workload(workload) -> list[QuerySpec]:
        """Coerce a workload argument into a list of :class:`QuerySpec`."""
        if isinstance(workload, Workload):
            return list(workload.queries)
        specs = []
        for entry in workload:
            if isinstance(entry, QuerySpec):
                specs.append(entry)
            elif isinstance(entry, dict):
                specs.append(QuerySpec.from_dict(entry))
            else:
                raise TypeError(f"unsupported workload entry: {entry!r}")
        return specs

    def predict_next_positions(self, traj_id: int, t: int, horizon: int = 5) -> np.ndarray:
        """Forecast future positions of a trajectory from the summary.

        Uses the prediction coefficients of the trajectory's partition at
        ``t`` and rolls the linear model forward ``horizon`` steps -- the
        "predicting future positions of entities" analytics task mentioned in
        the paper's introduction.  The lags are the trajectory's last
        ``prediction_order`` appearances up to ``t``, as in the fit, so a gap
        in its timestamps does not cut the history short.  Empty when the
        trajectory was not summarised at ``t``.
        """
        order = self.summary.config.prediction_order
        timestamps, points = self.summary.trajectory(traj_id)
        end = int(np.searchsorted(timestamps, int(t), side="right"))
        if end == 0 or timestamps[end - 1] != int(t):
            return np.empty((0, 2), dtype=float)
        window = list(points[max(0, end - order):end][::-1])
        while len(window) < order:
            window.append(window[-1])
        record = self.summary.records[int(t)]
        row = int(np.searchsorted(record.traj_ids, int(traj_id)))
        coefficients = record.coefficients[int(record.partitions[row])]
        forecast = []
        for _ in range(horizon):
            prediction = np.einsum("k,kd->d", coefficients, np.stack(window[:order]))
            forecast.append(prediction)
            window.insert(0, prediction)
        return np.vstack(forecast)
