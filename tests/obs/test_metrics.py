"""Unit tests for the metrics registry (counters, histograms, summary)."""

import json

import pytest

from repro.obs import Histogram, Metrics, WindowedCollector
from repro.obs.metrics import format_key


def test_counters_with_labels_are_separate_series():
    metrics = Metrics()
    metrics.inc("net.messages_sent", node="a")
    metrics.inc("net.messages_sent", node="a")
    metrics.inc("net.messages_sent", node="b")
    assert metrics.counter_value("net.messages_sent", node="a") == 2
    assert metrics.counter_value("net.messages_sent", node="b") == 1
    assert metrics.counter_value("net.messages_sent", node="c") == 0
    assert metrics.total("net.messages_sent") == 3


def test_counter_custom_amount_and_names():
    metrics = Metrics()
    metrics.inc("bytes", 100)
    metrics.inc("bytes", 28)
    assert metrics.counter_value("bytes") == 128
    assert metrics.counter_names() == ["bytes"]


def test_histogram_statistics():
    histogram = Histogram()
    for value in [4.0, 1.0, 3.0, 2.0]:
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.total == 10.0
    assert histogram.mean == 2.5
    assert histogram.min == 1.0
    assert histogram.max == 4.0
    assert histogram.percentile(50) == 2.0
    assert histogram.percentile(100) == 4.0
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_empty_histogram_is_all_zero():
    histogram = Histogram()
    assert histogram.count == 0
    assert histogram.mean == 0.0
    assert histogram.percentile(99) == 0.0
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 0


def test_observe_creates_labelled_series_and_merged_view():
    metrics = Metrics()
    metrics.observe("latency", 1.0, stream="s1")
    metrics.observe("latency", 3.0, stream="s2")
    assert metrics.histogram("latency", stream="s1").count == 1
    assert metrics.histogram("latency", stream="missing").count == 0
    merged = metrics.merged_histogram("latency")
    assert merged.count == 2
    assert merged.mean == 2.0


def test_summary_is_json_serializable_and_keyed():
    metrics = Metrics()
    metrics.inc("calls", stream="s1", kind="send")
    metrics.observe("wait", 5.0)
    report = metrics.summary()
    text = json.dumps(report)
    parsed = json.loads(text)
    assert parsed["counters"]["calls{kind=send,stream=s1}"] == 1
    assert parsed["histograms"]["wait"]["mean"] == 5.0


def test_histogram_snapshot_includes_p999():
    histogram = Histogram()
    for value in range(1, 1001):
        histogram.observe(float(value))
    snapshot = histogram.snapshot()
    assert snapshot["p999"] == histogram.percentile(99.9)
    assert snapshot["p99"] <= snapshot["p999"] <= snapshot["max"]


def test_exact_histogram_merge():
    left, right = Histogram(), Histogram()
    for value in (1.0, 5.0):
        left.observe(value)
    for value in (2.0, 4.0, 3.0):
        right.observe(value)
    assert left.merge(right) is left
    assert left.count == 5
    assert left.percentile(50) == 3.0
    # Merging an empty histogram is the identity.
    before = left.count
    left.merge(Histogram())
    assert left.count == before


def test_streaming_mode_swaps_histogram_type():
    from repro.obs import StreamingHistogram

    metrics = Metrics(streaming=True)
    metrics.observe("latency", 0.25)
    assert isinstance(metrics.histogram("latency"), StreamingHistogram)
    assert isinstance(metrics.merged_histogram("latency"), StreamingHistogram)
    exact = Metrics()
    exact.observe("latency", 0.25)
    assert isinstance(exact.histogram("latency"), Histogram)


def test_attached_collector_sees_every_write():
    from repro.obs import WindowedCollector

    collector = WindowedCollector(window=1.0, clock=lambda: 0.5)
    metrics = Metrics(streaming=True, collector=collector)
    metrics.inc("reqs", node="a")
    metrics.inc("reqs", node="b")
    metrics.observe("latency", 0.25, node="a")
    row = collector.rows()[0]
    # Collector series are keyed by bare name: labels pool together.
    assert row["reqs"] == 2
    assert row["latency_count"] == 1



def _reference_series(writes):
    """What the registry must report for *writes*: one series per name and
    label set, keyed with its labels sorted by name and ``str``-ed, as
    ``{key: (counter total, writes)}``."""
    series = {}
    for name, amount, labels in writes:
        key = format_key(name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        total, count = series.get(key, (0, 0))
        series[key] = (total + amount, count + 1)
    return series


# Labelled and unlabelled writes, the same label set in both orders, and
# values that compare equal but print differently (1, 1.0 and True; 0.0
# and -0.0), print the same but compare unequal (1 and "1"; NaN), or do
# not hash at all.
MIXED_WRITES = [
    ("reqs", 1, {}),
    ("reqs", 2, {"node": 1}),
    ("reqs", 1, {"node": "1"}),
    ("reqs", 1, {"node": True}),
    ("reqs", 1, {"node": 1.0}),
    ("reqs", 1, {"node": 0.0}),
    ("reqs", 1, {"node": -0.0}),
    ("reqs", 1, {"node": float("nan")}),
    ("reqs", 1, {"node": [1]}),
    ("reqs", 1, {"a": "x", "b": 2}),
    ("reqs", 1, {"b": 2, "a": "x"}),
    ("reqs", 1, {"b": "2", "a": "x"}),
    ("errs", 3, {}),
    ("errs", 1, {"node": 1}),
]


@pytest.mark.parametrize("streaming", [False, True])
def test_fast_write_paths_report_the_same_series(streaming):
    metrics = Metrics(streaming=streaming, collector=WindowedCollector(window=1.0))
    writes = MIXED_WRITES * 3
    for name, amount, labels in writes:
        metrics.inc(name, amount, **labels)
        metrics.observe(name, amount, **labels)
    expected = _reference_series(writes)
    report = metrics.summary()
    assert report["counters"] == {key: total for key, (total, _) in expected.items()}
    assert {key: snap["count"] for key, snap in report["histograms"].items()} == {
        key: count for key, (_, count) in expected.items()
    }
    assert len(expected) == 11
    for name, _amount, labels in MIXED_WRITES:
        key = format_key(name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        assert metrics.counter_value(name, **labels) == expected[key][0]
        assert metrics.histogram(name, **labels).count == expected[key][1]
    assert metrics.total("reqs") == sum(a for n, a, _ in writes if n == "reqs")
