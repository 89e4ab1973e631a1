"""The open-loop request path costs a bounded number of Python calls.

An open-loop kv request crosses every layer: the driver's sleep, the
stream call and its promise, the shard's dispatcher and handler, the
reply and its vat continuation, and the always-on metric writes of the
load harness.  The test runs a short kv step of
``benchmarks.load.harness.run_load`` (3,200 requests per simulated
second for 0.25 s, 1% churn) and counts the calls of functions defined
in ``repro`` per issued request (see ``tests/call_budget.py``).
"""

from benchmarks.load.harness import LoadConfig, run_load

from ..call_budget import count_repro_calls, heaviest

#: Repro-owned Python calls allowed per issued request.
BUDGET = 110


def test_open_loop_request_stays_within_call_budget():
    config = LoadConfig(
        workload="kv", rate=3200.0, duration=0.25, churn_rate=0.01, seed=0
    )
    results = []
    counts = count_repro_calls(lambda: results.append(run_load(config)))
    (result,) = results
    issued = result["issued"]
    assert issued > 700 and result["completed"] == issued and result["drained"]
    per_request = sum(counts.values()) / issued
    assert per_request <= BUDGET, "%.1f calls per request; heaviest: %s" % (
        per_request,
        heaviest(counts, issued),
    )
