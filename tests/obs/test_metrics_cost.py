"""Always-on metric writes cost a bounded number of Python calls.

Counters and histograms stay on under the load harness, so a write has to
cost about what the write itself needs: a counter bump, a histogram
observe, and the same again in the windowed collector attached to the
registry.  The test counts the calls of functions defined in ``repro``
(see ``tests/call_budget.py``) over repeated writes into existing series.
The collector's clock is the caller's function, not repro code, so it is
not counted.
"""

import pytest

from repro.obs import Metrics, WindowedCollector

from ..call_budget import count_repro_calls, heaviest

WRITES = 1000

#: Repro-owned calls allowed per write, with a collector attached.
BUDGETS = {"inc": 2, "observe": 4, "labelled_inc": 3}


def _unlabelled_inc(metrics):
    metrics.inc("load.issued")


def _observe(metrics):
    metrics.observe("load.latency", 0.0125)


def _labelled_inc(metrics):
    metrics.inc("load.errors", condition="unavailable")


WRITERS = {"inc": _unlabelled_inc, "observe": _observe, "labelled_inc": _labelled_inc}


@pytest.mark.parametrize("streaming", [True, False])
@pytest.mark.parametrize("kind", sorted(BUDGETS))
def test_metric_write_stays_within_call_budget(kind, streaming):
    now = [0.0]
    collector = WindowedCollector(window=0.5, clock=lambda: now[0])
    metrics = Metrics(streaming=streaming, collector=collector)
    write = WRITERS[kind]
    write(metrics)  # the series and the window exist from here on

    def writes():
        for index in range(WRITES):
            now[0] = index * 1e-4
            write(metrics)

    counts = count_repro_calls(writes)
    per_write = sum(counts.values()) / WRITES
    assert per_write <= BUDGETS[kind], "%.2f calls per %s; heaviest: %s" % (
        per_write,
        kind,
        heaviest(counts, WRITES),
    )
    assert collector.window_count == 1
