"""WindowedCollector: per-window counters, histograms, gauges, rows."""

import json

import pytest

from repro.obs import StreamingHistogram, WindowedCollector


def test_counters_bucket_by_window_and_report_rates():
    collector = WindowedCollector(window=1.0)
    collector.inc("reqs", t=0.1)
    collector.inc("reqs", t=0.9)
    collector.inc("reqs", t=1.5)
    rows = collector.rows()
    assert len(rows) == 2
    assert rows[0]["t0"] == 0.0 and rows[0]["t1"] == 1.0
    assert rows[0]["reqs"] == 2
    assert rows[0]["reqs_rate"] == 2.0
    assert rows[1]["reqs"] == 1


def test_rate_scales_by_window_width():
    collector = WindowedCollector(window=0.5)
    for _ in range(3):
        collector.inc("reqs", t=0.2)
    assert collector.rows()[0]["reqs_rate"] == 6.0


def test_clock_supplies_default_time():
    now = {"t": 0.0}
    collector = WindowedCollector(window=1.0, clock=lambda: now["t"])
    collector.inc("reqs")
    now["t"] = 2.5
    collector.inc("reqs")
    rows = collector.rows()
    assert [row["t0"] for row in rows] == [0.0, 2.0]


def test_histogram_rows_carry_tail_quantiles():
    collector = WindowedCollector(window=1.0)
    for value in (0.01, 0.02, 0.03):
        collector.observe("lat", value, t=0.5)
    row = collector.rows()[0]
    assert row["lat_count"] == 3
    assert row["lat_mean"] == pytest.approx(0.02, rel=0.02)
    assert row["lat_p50"] == pytest.approx(0.02, rel=0.02)
    assert row["lat_p999"] == pytest.approx(0.03, rel=0.02)
    assert row["lat_max"] == pytest.approx(0.03, rel=1e-9)


def test_gauges_track_mean_min_max_last():
    collector = WindowedCollector(window=1.0)
    for value in (5.0, 1.0, 3.0):
        collector.gauge("inflight", value, t=0.5)
    row = collector.rows()[0]
    assert row["inflight_mean"] == pytest.approx(3.0)
    assert row["inflight_min"] == 1.0
    assert row["inflight_max"] == 5.0
    assert row["inflight_last"] == 3.0


def test_merged_histogram_pools_all_windows():
    collector = WindowedCollector(window=1.0)
    collector.observe("lat", 1.0, t=0.5)
    collector.observe("lat", 100.0, t=5.5)
    merged = collector.merged_histogram("lat")
    assert isinstance(merged, StreamingHistogram)
    assert merged.count == 2
    assert merged.max == 100.0


def test_counter_series_is_zero_filled_per_existing_window():
    collector = WindowedCollector(window=1.0)
    collector.inc("a", t=0.5)
    collector.inc("b", t=2.5)
    series = collector.counter_series("a")
    assert series == [(0.0, 1), (2.0, 0)]


def test_max_windows_ring_evicts_and_counts():
    collector = WindowedCollector(window=1.0, max_windows=2)
    for t in (0.5, 1.5, 2.5, 3.5):
        collector.inc("reqs", t=t)
    rows = collector.rows()
    assert len(rows) == 2
    assert [row["t0"] for row in rows] == [2.0, 3.0]
    assert collector.dropped_windows == 2


def test_rows_are_json_serializable():
    collector = WindowedCollector(window=0.5)
    collector.inc("reqs", t=0.1)
    collector.observe("lat", 0.01, t=0.1)
    collector.gauge("inflight", 2, t=0.1)
    json.dumps(collector.rows())


def test_round_trip_to_dict():
    collector = WindowedCollector(window=0.5)
    collector.inc("reqs", t=0.1)
    collector.observe("lat", 0.25, t=0.6)
    clone = WindowedCollector.from_dict(
        json.loads(json.dumps(collector.to_dict()))
    )
    assert clone.rows() == collector.rows()
    assert clone.window == collector.window


def test_negative_window_rejected():
    with pytest.raises(ValueError):
        WindowedCollector(window=0.0)


def _window_counts(collector, name):
    return {
        entry["index"]: entry["counters"][name]
        for entry in collector.to_dict()["windows"]
        if name in entry["counters"]
    }


def test_writes_land_in_the_window_floor_division_picks():
    # 0.3 // 0.1 == 2.0, 0.7 // 0.1 == 6.0 and 1.0 // 0.1 == 9.0: float
    # boundaries where a window's bounds (index * width) disagree with
    # the index floor division gives.
    now = [0.0]
    collector = WindowedCollector(window=0.1, clock=lambda: now[0])
    times = [0.2, 0.3, 0.30000000000000004, 0.29999999999999993, 0.6, 0.7,
             0.7000000000000001, 0.9999999999999999, 1.0, 0.3, 0.2, 0.7]
    expected = {}
    for t in times:
        now[0] = t
        collector.inc("clocked")
        collector.observe("lat", t)
        collector.inc("explicit", t=t)
        expected[int(t // 0.1)] = expected.get(int(t // 0.1), 0) + 1
    assert _window_counts(collector, "clocked") == expected
    assert _window_counts(collector, "explicit") == expected
    assert {
        entry["index"]: entry["histograms"]["lat"]["count"]
        for entry in collector.to_dict()["windows"]
    } == expected


def test_explicit_earlier_time_does_not_capture_later_writes():
    now = [2.25]
    collector = WindowedCollector(window=0.5, clock=lambda: now[0])
    collector.inc("reqs")
    collector.inc("reqs", t=0.75)
    collector.gauge("inflight", 3, t=0.75)
    collector.inc("reqs")
    now[0] = 2.5
    collector.inc("reqs")
    assert _window_counts(collector, "reqs") == {1: 1, 4: 2, 5: 1}
    assert collector.rows()[0]["inflight_last"] == 3


def test_writes_after_the_ring_evicts_the_current_window():
    collector = WindowedCollector(window=1.0, max_windows=2)
    collector.inc("reqs", t=0.5)
    collector.inc("reqs", t=1.5)
    collector.inc("reqs", t=0.5)  # window 0 is current again
    collector.inc("reqs", t=2.5)  # evicts window 0
    assert collector.dropped_windows == 1
    # Window 0 is re-created and evicted at birth on every write, as it
    # always was: each write counts one more dropped window.
    collector.inc("reqs", t=0.5)
    collector.inc("reqs", t=0.5)
    collector.inc("reqs", t=1.5)
    assert collector.dropped_windows == 3
    assert _window_counts(collector, "reqs") == {1: 2, 2: 1}
