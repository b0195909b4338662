"""Self-tests of the benchmark's own machinery (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py

They live here rather than under ``tests/`` or ``benchmarks/`` so the
repository's pytest run does not collect them.  They cover the oracle (it
flags corrupted answers), the span self-time arithmetic, the seeded
generator, and agreement of metric names with ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from oracle import Expected, Oracle  # noqa: E402
from repro.queries.batch import QuerySpec  # noqa: E402
from repro.queries.exact import ExactQueryResult  # noqa: E402
from repro.queries.strq import STRQResult  # noqa: E402
from repro.queries.tpq import TPQResult  # noqa: E402
from workload import (  # noqa: E402
    WORKLOADS, RawPoints, hot_window, make_dataset, make_probes,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _toy_oracle() -> Oracle:
    """Three trajectories on a unit grid; 0 and 1 share cell (0, 0) at t=0."""
    trajectories = {
        0: (np.array([0, 1, 2]), np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])),
        1: (np.array([0, 1, 5]), np.array([[0.5, 0.5], [1.5, 0.5], [2.5, 0.5]])),
        2: (np.array([0]), np.array([[1.5, 1.5]])),
    }
    tids, ts, xy = [], [], []
    for tid, (times, points) in trajectories.items():
        tids += [tid] * len(times)
        ts += times.tolist()
        xy += points.tolist()
    order = np.lexsort((tids, ts))
    raw = RawPoints(np.array(tids)[order], np.array(ts)[order], np.array(xy)[order])
    return Oracle(raw, trajectories, cell_size=1.0, radius=0.05)


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.oracle = _toy_oracle()

    def test_ground_truth(self):
        self.assertEqual(self.oracle.members(0.9, 0.9, 0), (0, 1))
        self.assertEqual(self.oracle.members(1.2, 1.9, 0), (2,))
        # Trajectory 1 has a gap after t=1, so its path stops there.
        self.assertEqual(len(self.oracle.raw_path(1, 0, 5)), 2)
        self.assertEqual(len(self.oracle.raw_path(0, 0, 2)), 2)

    def test_flags_corrupted_strq(self):
        spec = QuerySpec("strq", 0.9, 0.9, 0)
        expected = self.oracle.expect(spec)
        good = STRQResult(0.9, 0.9, 0, candidates=[0, 1, 2])
        self.assertTrue(self.oracle.check(spec, expected, good))
        bad = STRQResult(0.9, 0.9, 0, candidates=[0, 2])
        self.assertFalse(self.oracle.check(spec, expected, bad))

    def test_flags_corrupted_exact(self):
        spec = QuerySpec("exact", 0.9, 0.9, 0)
        expected = self.oracle.expect(spec)
        good = ExactQueryResult(0.9, 0.9, 0, candidates=[0, 1, 2], matches=[1, 0])
        self.assertTrue(self.oracle.check(spec, expected, good))
        for matches in ([0], [0, 1, 2]):
            bad = ExactQueryResult(0.9, 0.9, 0, candidates=[0, 1, 2], matches=matches)
            self.assertFalse(self.oracle.check(spec, expected, bad))

    def test_flags_corrupted_tpq(self):
        spec = QuerySpec("tpq", 0.9, 0.9, 0, length=3)
        expected = self.oracle.expect(spec)
        paths = {tid: path + 0.01 for tid, path in expected.paths.items()}
        self.assertTrue(self.oracle.check(spec, expected, TPQResult(0.9, 0.9, 0, 3, paths)))
        missing = {0: paths[0]}
        self.assertFalse(self.oracle.check(spec, expected, TPQResult(0.9, 0.9, 0, 3, missing)))
        short = {**paths, 0: paths[0][:2]}
        self.assertFalse(self.oracle.check(spec, expected, TPQResult(0.9, 0.9, 0, 3, short)))
        far = {**paths, 1: paths[1] + 0.1}
        self.assertFalse(self.oracle.check(spec, expected, TPQResult(0.9, 0.9, 0, 3, far)))

    def test_missing_answer_fails(self):
        spec = QuerySpec("strq", 0.9, 0.9, 0)
        self.assertFalse(self.oracle.check(spec, Expected((0,)), object()))


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sibling_spans(self):
        tracer = tracing.Tracer()

        def leaf():
            return None

        def middle():
            leaf()
            leaf()

        def top():
            middle()
            leaf()

        wrapped = {name: tracer.wrap(fn, name) for name, fn in
                   (("leaf", leaf), ("middle", middle), ("top", top))}
        leaf, middle, top = wrapped["leaf"], wrapped["middle"], wrapped["top"]
        top()
        top()
        self.assertEqual(len(tracer.spans), 10)
        self.assertEqual(tracer.roots, ["top", "top"])
        self.assertEqual([s[tracing.PARENT] for s in tracer.spans[:5]], [-1, 0, 1, 1, 0])
        self.assertEqual({s[tracing.TRACE] for s in tracer.spans[5:]}, {1})

    def test_self_time_arithmetic(self):
        # top [0, 100) holds middle [10, 60) and leaf [70, 80); middle holds
        # leaves [20, 30) and [40, 55).
        parent = np.array([-1, 0, 1, 1, 0])
        duration = np.array([100.0, 50.0, 10.0, 15.0, 10.0])
        self.assertEqual(tracing.self_times(parent, duration).tolist(),
                         [40.0, 25.0, 10.0, 15.0, 10.0])

    def test_span_table_filters_by_root(self):
        spans = [["fit", 0, -1, 0, 100, 0, 0], ["index.build", 0, 0, 10, 40, 0, 0],
                 ["engine.batch", 1, -1, 200, 260, 0, 0],
                 ["index.lookup", 1, 2, 210, 250, 4, 9],
                 ["index.table", 1, 3, 220, 230, 0, 0]]
        table = tracing.SpanTable(spans, ["fit", "engine.batch"])
        self.assertEqual(table.count("index.build", tracing.BUILD_ROOTS), 1)
        self.assertEqual(table.count("index.build", tracing.SERVE_ROOTS), 0)
        self.assertAlmostEqual(table.self_total("index.lookup", tracing.SERVE_ROOTS), 30e-9)
        self.assertAlmostEqual(table.total("index.lookup", tracing.SERVE_ROOTS), 40e-9)
        self.assertEqual(int(table.candidates.sum()), 9)

    def test_install_restores_originals(self):
        from repro.index.tpi import TemporalPartitionIndex
        import repro.index.grid as grid

        before = (TemporalPartitionIndex.lookup_batch, grid.decompress_ids)
        tracer = tracing.Tracer()
        patched = tracer.install()
        self.assertIsNot(TemporalPartitionIndex.lookup_batch, before[0])
        tracer.uninstall(patched)
        self.assertEqual((TemporalPartitionIndex.lookup_batch, grid.decompress_ids), before)


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed_and_differs_across_seeds(self):
        a, b = (RawPoints.from_dataset(make_dataset()) for _ in range(2))
        self.assertTrue(np.array_equal(a.xy, b.xy) and np.array_equal(a.ts, b.ts))
        other = RawPoints.from_dataset(make_dataset(4))
        self.assertFalse(len(a) == len(other) and np.array_equal(a.xy, other.xy))
        for workload in WORKLOADS:
            p, q, r = (make_probes(raw, workload, seed) for raw, seed in ((a, 3), (b, 3), (a, 4)))
            self.assertEqual(p, q)
            self.assertNotEqual(p.scalar, r.scalar)
            self.assertNotEqual(p.batches, r.batches)

    def test_hot_probes_stay_in_the_busiest_window(self):
        raw = RawPoints.from_dataset(make_dataset())
        start, end = hot_window(raw.ts)
        self.assertEqual(end - start, 64)
        counts = np.bincount(raw.ts)
        self.assertEqual(counts[start:end].sum(),
                         max(counts[s:s + 64].sum() for s in range(len(counts))))
        probes = make_probes(raw, "hot", 3)
        ts = [spec.t for batch in probes.batches for spec in batch]
        self.assertTrue(all(start <= t < end for t in ts))
        kinds = [spec.kind for spec in probes.batches[0]]
        self.assertEqual((kinds.count("strq"), kinds.count("tpq"), kinds.count("exact")),
                         (300, 150, 150))


class MetricNamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(set(declared), set(bench.END_TO_END_UNITS))
        for name, unit in bench.END_TO_END_UNITS.items():
            self.assertEqual(declared[name]["unit"], unit)
        layers = {m["name"]: m for m in spec["per_layer"]}
        self.assertEqual(set(layers), set(bench.PER_LAYER_UNITS))
        for name, unit in bench.PER_LAYER_UNITS.items():
            self.assertEqual(layers[name]["unit"], unit)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), WORKLOADS)
        self.assertEqual(run.WORKLOADS, WORKLOADS)
        for name in [*declared, *layers, *(w["name"] for w in spec["workloads"])]:
            self.assertTrue(NAME.fullmatch(name), name)


if __name__ == "__main__":
    unittest.main()
