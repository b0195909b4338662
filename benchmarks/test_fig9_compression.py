"""Figure 9 -- Compression ratio against the spatial deviation budget.

Every method summarises the same workload under the same deviation budget and
the compression ratio (raw size / summary size) is reported; the sub-Porto
panel additionally includes REST, which only works on highly repetitive data.
Expected shape: ratios grow with the deviation budget for every method; the
PPQ-basic variants reach the highest ratios (the CQC variants pay a small
overhead for the CQC codes); Q-trajectory / residual / product quantization
sit below PPQ; on sub-Porto the PPQ variants beat REST at tight deviations and
the gap narrows as the deviation grows.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from benchmarks.harness import BASELINES, build_baseline
from benchmarks.test_table5_build_time import PPQ_METHODS, build_with_deviation
from repro.baselines.rest import RESTCompressor
from repro.data.subporto import build_sub_porto
from repro.metrics.compression import compression_report
from repro.utils.geo import meters_to_degrees

DEVIATIONS_M = (200.0, 600.0, 1000.0)


def _run_main(dataset, dataset_name, t_max=60):
    rows = []
    for method in PPQ_METHODS + BASELINES:
        row = [method]
        for deviation in DEVIATIONS_M:
            summary, _ = build_with_deviation(method, dataset, deviation, dataset_name, t_max)
            row.append(compression_report(summary, method=method).compression_ratio)
        rows.append(row)
    return rows


def _run_subporto(dataset, t_max=60):
    split = build_sub_porto(dataset, num_base=40, variants_per_base=4,
                            compress_fraction=0.25, noise_std_m=10.0, seed=77)
    rows = []
    for method in ("PPQ-A", "PPQ-A-basic", "PPQ-S-basic", "Q-trajectory"):
        row = [method]
        for deviation in DEVIATIONS_M:
            if method in PPQ_METHODS:
                summary, _ = build_with_deviation(method, split.compress_set, deviation,
                                                  "porto", t_max)
            else:
                summary = build_baseline(method, split.compress_set,
                                         epsilon=meters_to_degrees(deviation), t_max=t_max)
            row.append(compression_report(summary, method=method).compression_ratio)
        rows.append(row)
    rest_row = ["REST"]
    for deviation in DEVIATIONS_M:
        compressor = RESTCompressor(split.reference_set, deviation=meters_to_degrees(deviation))
        rest_row.append(compressor.compress(split.compress_set).compression_ratio())
    rows.append(rest_row)
    return rows


@pytest.mark.benchmark(group="fig9")
def test_fig9_compression_porto(benchmark, porto_bench):
    rows = benchmark.pedantic(lambda: _run_main(porto_bench, "porto"), rounds=1, iterations=1)
    print_table("Figure 9a (Porto-like): compression ratio vs deviation",
                ["method"] + [f"{int(d)}m" for d in DEVIATIONS_M], rows,
                widths=[26, 10, 10, 10])
    by_method = {row[0]: row[1:] for row in rows}
    # Ratios are non-decreasing in the deviation budget.
    for method, ratios in by_method.items():
        assert ratios[-1] >= ratios[0] * 0.8, method
    # The basic PPQ variants compress at least as well as the CQC variants
    # (which additionally store CQC codes), and PPQ beats the per-timestamp
    # quantizers.
    for i in range(len(DEVIATIONS_M)):
        assert by_method["PPQ-A-basic"][i] >= by_method["PPQ-A"][i] * 0.9
        assert by_method["PPQ-A-basic"][i] > by_method["Residual Quantization"][i]
        assert by_method["PPQ-S-basic"][i] > by_method["Product Quantization"][i]


@pytest.mark.benchmark(group="fig9")
def test_fig9_compression_geolife(benchmark, geolife_bench):
    rows = benchmark.pedantic(lambda: _run_main(geolife_bench, "geolife", t_max=50),
                              rounds=1, iterations=1)
    print_table("Figure 9b (GeoLife-like): compression ratio vs deviation",
                ["method"] + [f"{int(d)}m" for d in DEVIATIONS_M], rows,
                widths=[26, 10, 10, 10])
    by_method = {row[0]: row[1:] for row in rows}
    for i in range(len(DEVIATIONS_M)):
        assert by_method["PPQ-A-basic"][i] > by_method["Residual Quantization"][i]


@pytest.mark.benchmark(group="fig9")
def test_fig9_compression_subporto(benchmark, porto_bench):
    rows = benchmark.pedantic(lambda: _run_subporto(porto_bench), rounds=1, iterations=1)
    print_table("Figure 9c (sub-Porto): compression ratio vs deviation (incl. REST)",
                ["method"] + [f"{int(d)}m" for d in DEVIATIONS_M], rows,
                widths=[26, 10, 10, 10])
    by_method = {row[0]: row[1:] for row in rows}
    # At the tightest deviation the PPQ-basic variants are at least
    # competitive with REST (the paper reports a 2x advantage at full scale;
    # the factor shrinks here because the codebook and the per-timestamp
    # coefficients are fixed costs spread over far fewer points), and
    # REST's ratio improves as the deviation grows, narrowing the gap.
    assert by_method["PPQ-A-basic"][0] >= by_method["REST"][0] * 0.85
    assert by_method["REST"][-1] >= by_method["REST"][0]
    # PPQ still clearly beats the non-reference baseline on sub-Porto.
    assert by_method["PPQ-A-basic"][0] > by_method["Q-trajectory"][0]
