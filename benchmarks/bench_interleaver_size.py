"""E4 — "Results for other interleaver dimensions ... differ only
slightly" (paper Sec. III).

Sweeps the triangle dimension over n = 256, 384 and 512 (a factor of
two) on one all-bank-refresh and one per-bank-refresh configuration
(DDR4-3200, LPDDR4-4266) and records the spread of the optimized
mapping's utilization, which must stay below 6 points.

That range does not show convergence at the paper's size.  Past
n = 512 other presets still move by several points: from n = 512 to
n = 2048, LPDDR5-8533's optimized read goes from 85.3 % to 92.1 % and
LPDDR5-4267's row-major read from 95.6 % to 86.5 %.  Table I at the
paper's n = 5000 on every preset is ROADMAP item 1.
"""

import pytest

from repro.dram.presets import get_config
from repro.system.sweep import sweep_sizes

SIZES = (256, 384, 512)


@pytest.mark.paper_artifact("size insensitivity")
@pytest.mark.parametrize("config_name", ["DDR4-3200", "LPDDR4-4266"])
def test_optimized_utilization_stable_across_sizes(benchmark, config_name):
    config = get_config(config_name)

    points = benchmark.pedantic(sweep_sizes, args=(config, SIZES),
                                rounds=1, iterations=1)
    optimized = [p for p in points if p.mapping_name == "optimized"]
    values = [p.min_utilization for p in optimized]
    spread = max(values) - min(values)
    for point in optimized:
        benchmark.extra_info[f"n{point.n}_min_pct"] = round(
            point.min_utilization * 100, 2)
    benchmark.extra_info["spread_pct"] = round(spread * 100, 2)
    # "differ only slightly": within a few points over this size range.
    assert spread < 0.06


@pytest.mark.paper_artifact("size trend (row-major)")
def test_row_major_read_worsens_with_size(benchmark):
    """Unlike the optimized mapping, the baseline read *degrades* as the
    triangle grows (column strides leave the page span)."""
    config = get_config("DDR4-3200")
    points = benchmark.pedantic(sweep_sizes, args=(config, (64, 512)),
                                rounds=1, iterations=1)
    row_major = {p.n: p for p in points if p.mapping_name == "row-major"}
    benchmark.extra_info["n64_read_pct"] = round(row_major[64].read_utilization * 100, 2)
    benchmark.extra_info["n512_read_pct"] = round(row_major[512].read_utilization * 100, 2)
    assert row_major[512].read_utilization < row_major[64].read_utilization
