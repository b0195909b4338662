"""Table 8 -- TPI statistics against the ADR threshold eps_d.

Same protocol as Table 7 but sweeping ``eps_d`` (the average-dropping-rate
threshold that decides re-build vs insertion) with ``eps_c`` fixed.
Expected shape: a larger ``eps_d`` lets one PI serve more timestamps, so the
number of periods drops, building gets cheaper and the index smaller, while
the number of insertions grows (uncovered points keep being appended to the
long-lived PI instead of triggering re-builds).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.core.config import IndexConfig
from repro.index.tpi import TemporalPartitionIndex

EPS_D_VALUES = (0.2, 0.4, 0.6, 0.8)


def _run(dataset, t_max=None):
    rows = []
    for eps_d in EPS_D_VALUES:
        config = IndexConfig(epsilon_c=0.5, epsilon_d=eps_d)
        tpi = TemporalPartitionIndex(config).build(dataset, t_max=t_max)
        rows.append([
            eps_d,
            tpi.storage_megabytes(),
            tpi.stats.build_seconds,
            tpi.num_periods,
            tpi.stats.num_insertions,
        ])
    return rows


@pytest.mark.benchmark(group="table8")
def test_table8_tpi_eps_d(benchmark, porto_staggered_bench):
    rows = benchmark.pedantic(lambda: _run(porto_staggered_bench), rounds=1, iterations=1)
    print_table("Table 8: TPI statistics vs eps_d (Porto-like)",
                ["eps_d", "size (MB)", "time (s)", "periods", "insertions"], rows,
                widths=[10, 14, 12, 10, 12])
    periods = [row[3] for row in rows]
    # A looser eps_d lets one PI serve more timestamps, so the number of
    # periods falls monotonically along the sweep.  (The paper additionally
    # observes a mildly shrinking index and a growing insertion count; at
    # synthetic scale those secondary trends do not reproduce, so only the
    # period count is asserted.)
    assert periods[-1] <= periods[0]
    assert all(a >= b for a, b in zip(periods, periods[1:]))
