"""Tests for the benchmark's own aggregation and cover checking.

    python3 -m pytest e2ebench/test_metrics.py -q
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as agg  # noqa: E402
import run  # noqa: E402
from cover import WrongCover, check_cover  # noqa: E402


def make_pass(latencies: dict[str, float], literals: int = 1) -> agg.Pass:
    return agg.Pass([agg.Sample(k, "cold", ms, True, literals) for k, ms in latencies.items()])


def test_percentile_keeps_ten_samples_beyond():
    assert agg.supports(100, 90) and not agg.supports(99, 90)
    assert agg.supports(20, 50) and not agg.supports(19, 50)
    assert agg.percentile(list(range(101)), 90) == pytest.approx(90.0)
    assert agg.highest_supported(1000) == 99.0
    assert agg.highest_supported(250) == 95.0
    assert agg.highest_supported(39) == 50.0
    assert agg.highest_supported(19) is None


def test_each_request_is_summarized_by_its_fastest_pass():
    # a slow spell that hits three passes out of four does not move it
    passes = [make_pass({"a": ms, "b": 2 * ms}) for ms in (15.0, 10.0, 30.0, 12.0)]
    assert agg.key_latencies(passes) == {"a": 10.0, "b": 20.0}


def test_geomean_weighs_each_output_the_same():
    passes = [make_pass({"fast": 10.0, "slow": 1000.0}), make_pass({"fast": 12.0, "slow": 5000.0}),
              make_pass({"fast": 10.0, "slow": 1000.0})]
    # fastest latencies 10 and 1000; the slow outlier pass does not move them
    assert agg.geomean_per_key(passes) == pytest.approx(100.0)


def test_throughput_sums_key_latencies_over_distinct_requests():
    passes = [make_pass({"a": 1000.0, "b": 500.0}), make_pass({"a": 1000.0, "b": 500.0}),
              make_pass({"a": 5000.0, "b": 500.0})]
    # fastest latencies 1 s and 0.5 s: 2 distinct requests in 1.5 s
    assert agg.throughput(passes) == pytest.approx(2 / 1.5)


def test_runs_stop_only_between_whole_passes():
    t0 = time.perf_counter()
    # fewer passes than the minimum: always another pass, whatever the time
    assert run.keep_going([5.0], t0 - 100, budget=24, min_passes=4)
    # a median pass (5 s) still fits after 16 s of a 24 s budget, not after 20 s
    assert run.keep_going([5.0, 4.0, 6.0, 5.0], t0 - 16, budget=24, min_passes=4)
    assert not run.keep_going([5.0, 4.0, 6.0, 5.0], t0 - 20, budget=24, min_passes=4)
    # so every request appears once per pass and the mix never depends on the cut
    passes = [make_pass({"a": 1.0, "b": 2.0, "c": 3.0}) for _ in range(3)]
    assert {k: len(v) for k, v in agg.per_key(passes).items()} == {"a": 3, "b": 3, "c": 3}


def test_literals_must_repeat_across_passes():
    with pytest.raises(ValueError, match="disagree"):
        agg.pass_literals([make_pass({"a": 1.0}, literals=2), make_pass({"a": 1.0}, literals=3)])


def test_cover_checker_rejects_wrong_covers():
    n = 3
    on = np.zeros(8, dtype=bool)
    on[[1, 2, 5, 6]] = True      # x0 xor x1
    dc = np.zeros(8, dtype=bool)
    good = {"n": 3, "pseudoproducts": [{"anchor": "1", "basis": ["3", "4"]}]}
    assert check_cover(n, on, dc, good) == 1
    short = {"n": 3, "pseudoproducts": [{"anchor": "1", "basis": ["4"]}]}
    with pytest.raises(WrongCover, match="misses 2 on-points"):
        check_cover(n, on, dc, short)
    over = {"n": 3, "pseudoproducts": [{"anchor": "1", "basis": ["1", "2", "4"]}]}
    with pytest.raises(WrongCover, match="off-points"):
        check_cover(n, on, dc, over)
    dc[[0, 3, 4, 7]] = True
    assert check_cover(n, on, dc, over) == 1

