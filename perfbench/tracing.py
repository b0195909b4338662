"""Timing wrappers installed around the program's public functions.

Only the traced run installs them.  Each call of a wrapped function records
a span ``[name, trace_id, parent, start_ns, end_ns, queries, candidates]``;
``parent`` is the index of the enclosing span (``-1`` for a root) and every
span under one root -- one fit, one save, one load, one query or one
batch -- shares that root's trace id.  Index lookups also record how many
queries they answered and how many candidates they returned.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.

Functions the program imports by name are wrapped where they are called
(``repro.queries.engine.batch_strq``, ``repro.index.grid.decompress_ids``,
...); ``save_model``/``load_model`` are looked up in ``repro.storage.io`` at
call time by ``PPQTrajectory.save``/``load``, so they are wrapped there.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from pathlib import Path

import numpy as np

NAME, TRACE, PARENT, START, END, QUERIES, CANDIDATES = range(7)


def _scalar_lookup(result) -> tuple[int, int]:
    """(queries, candidates) of one scalar index lookup."""
    return 1, len(result)


def _batch_lookup(result) -> tuple[int, int]:
    """(queries, candidates) of one batched index lookup."""
    return len(result), sum(len(ids) for ids in result)


# (module, class or None, attribute, span name, result counter)
TARGETS = [
    ("repro.core.pipeline", "PPQTrajectory", "fit", "fit", None),
    ("repro.storage.io", None, "save_model", "storage.save", None),
    ("repro.storage.io", None, "load_model", "storage.load", None),
    ("repro.queries.engine", "QueryEngine", "run_batch", "engine.batch", None),
    ("repro.queries.engine", "QueryEngine", "strq", "engine.strq", None),
    ("repro.queries.engine", "QueryEngine", "tpq", "engine.tpq", None),
    ("repro.queries.engine", "QueryEngine", "exact", "engine.exact", None),
    ("repro.core.ppq", "PartitionwisePredictiveQuantizer", "summarize", "core.summarize", None),
    ("repro.index.tpi", "TemporalPartitionIndex", "build", "index.build", None),
    ("repro.index.tpi", "TemporalPartitionIndex", "lookup", "index.lookup", _scalar_lookup),
    ("repro.index.tpi", "TemporalPartitionIndex", "lookup_local", "index.lookup",
     _scalar_lookup),
    ("repro.index.tpi", "TemporalPartitionIndex", "lookup_batch", "index.lookup",
     _batch_lookup),
    ("repro.index.tpi", "TemporalPartitionIndex", "lookup_local_batch", "index.lookup",
     _batch_lookup),
    ("repro.index.grid", None, "decompress_ids", "index.posting_decode", None),
    ("repro.index.grid", "GridIndex", "encoded_table", "index.table", None),
    ("repro.core.summary", "TrajectorySummary", "reconstruct_point", "summary.reconstruct",
     None),
    ("repro.cqc.coding", "CQCCoder", "decode_offset", "cqc.decode", None),
    ("repro.queries.engine", None, "batch_strq", "queries.strq", None),
    ("repro.queries.engine", None, "batch_tpq", "queries.tpq", None),
    ("repro.queries.engine", None, "batch_exact", "queries.exact", None),
    ("repro.queries.engine", None, "spatio_temporal_range_query", "queries.strq", None),
    ("repro.queries.engine", None, "trajectory_path_query", "queries.tpq", None),
    ("repro.queries.engine", None, "exact_match_query", "queries.exact", None),
    ("repro.queries.batch", None, "verify_against_raw", "queries.verify", None),
    ("repro.queries.exact", None, "verify_against_raw", "queries.verify", None),
]

BUILD_ROOTS = ("fit", "storage.save", "storage.load")
SERVE_ROOTS = ("engine.batch", "engine.strq", "engine.tpq", "engine.exact")


class Tracer:
    """Span recorder; :meth:`install` patches :data:`TARGETS`, :meth:`uninstall` undoes it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.roots: list[str] = []  # trace id -> name of its root span
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        spans, stack, roots, clock = self.spans, self._stack, self.roots, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                trace = len(roots)
                roots.append(name)
            else:
                trace = spans[parent][TRACE]
            record = [name, trace, parent, clock(), 0, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if counter is not None:
                record[QUERIES], record[CANDIDATES] = counter(result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> list[tuple[object, str, object]]:
        """Patch every target; returns what :meth:`uninstall` needs."""
        patched = []
        for module_name, class_name, attr, name, counter in targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, counter))
            patched.append((owner, attr, original))
        return patched

    @staticmethod
    def uninstall(patched) -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as a gzip'd tab-separated table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\ttrace\troot\tparent\tname\tstart_ns\tend_ns\tqueries\tcandidates\n")
            for sid, (name, trace, parent, start, end, queries, cands) in enumerate(self.spans):
                out.write(f"{sid}\t{trace}\t{self.roots[trace]}\t{parent}\t{name}\t"
                          f"{start}\t{end}\t{queries}\t{cands}\n")


class SpanTable:
    """Column view of recorded spans, with self times."""

    def __init__(self, spans: list[list], roots: list[str]) -> None:
        n = len(spans)
        self.names = np.array([s[NAME] for s in spans], dtype=object)
        self.parent = np.array([s[PARENT] for s in spans], dtype=np.int64).reshape(n)
        start = np.array([s[START] for s in spans], dtype=np.int64).reshape(n)
        end = np.array([s[END] for s in spans], dtype=np.int64).reshape(n)
        self.queries = np.array([s[QUERIES] for s in spans], dtype=np.int64).reshape(n)
        self.candidates = np.array([s[CANDIDATES] for s in spans], dtype=np.int64).reshape(n)
        root_names = np.array(roots, dtype=object)
        traces = np.array([s[TRACE] for s in spans], dtype=np.int64).reshape(n)
        self.root = root_names[traces] if n else np.array([], dtype=object)
        self.duration = (end - start) / 1e9
        self.self_time = self_times(self.parent, self.duration)

    def mask(self, name: str, roots) -> np.ndarray:
        return (self.names == name) & np.isin(self.root, roots)

    def count(self, name: str, roots) -> int:
        return int(self.mask(name, roots).sum())

    def total(self, name: str, roots) -> float:
        return float(self.duration[self.mask(name, roots)].sum())

    def self_total(self, name: str, roots) -> float:
        return float(self.self_time[self.mask(name, roots)].sum())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    The program is single-threaded, so children of one span never overlap
    and their durations add up to the part of the parent they cover.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered
