"""A graph cascade costs a bounded number of Python calls per routine.

A routine's life crosses the builder, the routine-tree codec, the call
streams that carry its frame, and the shard engine that runs it and
re-ships its leftover subtree.  Each of those steps should be paid once
per routine, not once per hop or once per property read.  The test
drives graph_kv-shaped DAGs (four shards, four graphs in flight, each
of 200 two-hop ``add`` -> ``scale`` chains joined four-wise by
collectors, scheduling keys drawn Zipf(1.2) over 64 keys) from
submission to the last emitted join, and counts the calls of
functions defined in ``repro`` with ``sys.setprofile``.  That sees
Python frames only, so the count repeats exactly from run to run; it
counts work, not time.
"""

import bisect
import random

import pytest

from repro.graph import GraphBuilder

from ..call_budget import count_repro_calls, heaviest
from .helpers import build_graph_system

pytestmark = pytest.mark.graph

SHARDS = 4
KEYSPACE = 64
ZIPF_S = 1.2
FAN_IN = 4
CHAINS = 200
GRAPHS = 4
ROUTINES = CHAINS * 2 + CHAINS // FAN_IN
#: Repro-owned Python calls allowed per routine, submission included.
BUDGET = 58


def _zipf_keys(rng):
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(KEYSPACE)]
    total, acc, cdf = sum(weights), 0.0, []
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    while True:
        yield min(bisect.bisect_left(cdf, rng.random()), KEYSPACE - 1)


def _build(keys, graph_index):
    g = GraphBuilder()
    pending = []
    for index in range(CHAINS):
        src = g.source(
            "t.add",
            captures=("g%d.c%d" % (graph_index, index), index + 1),
            sched_key=next(keys),
        )
        pending.append(src.then("t.scale", captures=(3,), sched_key=next(keys)))
        if len(pending) == FAN_IN:
            g.collect("t.sum", inputs=pending, sched_key=next(keys)).emit(
                "join%d" % index
            )
            pending = []
    return g


def test_graph_cascade_stays_within_call_budget():
    system, runtime = build_graph_system(n_shards=SHARDS)
    client = system.guardians["client"]
    keys = _zipf_keys(random.Random(5))
    joins = []

    def lane(graph_index):
        def main(ctx):
            promises = runtime.submit(ctx, _build(keys, graph_index))
            for promise in promises.values():
                joins.append((yield promise.claim()))

        return main

    def run_lanes():
        for process in [client.spawn(lane(index)) for index in range(GRAPHS)]:
            system.run(until=process)

    counts = count_repro_calls(run_lanes)
    assert len(joins) == GRAPHS * CHAINS // FAN_IN
    assert runtime.pending_count() == 0
    routines = GRAPHS * ROUTINES
    per_routine = sum(counts.values()) / routines
    assert per_routine <= BUDGET, "%.1f calls per routine; heaviest: %s" % (
        per_routine,
        heaviest(counts, routines),
    )
