"""GraphRuntime end to end: placement, batching, migration, give-up."""

import random

import pytest

import repro.graph.runtime as runtime_module
from repro.graph import GraphBuilder, GraphError

from ..conftest import run_client
from .helpers import build_graph_system

pytestmark = pytest.mark.graph

SETTLE = 40.0  # sim seconds; far beyond any propagation in these worlds


def _chain_and_join(runtime):
    """Two cross-shard chains joined by a collector, with pinned keys."""
    g = GraphBuilder()
    a = g.source("t.add", captures=("alpha", 2), sched_key=1).emit("a")
    b = a.then("t.scale", captures=(3,), sched_key=2).emit("b")
    c = g.source("t.add", captures=("beta", 5), sched_key=3).emit("c")
    g.collect("t.sum", inputs=[b, c], sched_key=4).emit("sum")
    return g


EXPECTED = {"a": (2,), "b": (6,), "c": (5,), "sum": (11,)}


def _submit_driver(runtime, batching):
    def main(ctx):
        promises = runtime.submit(ctx, _chain_and_join(runtime), batching=batching)
        assert set(promises) == set(EXPECTED)
        assert runtime.pending_count() == len(EXPECTED)
        yield ctx.sleep(SETTLE)
        results = {}
        for tag, promise in promises.items():
            assert promise.ready(), "promise %r never resolved" % (tag,)
            outcome = promise.outcome()
            assert outcome.is_normal
            results[tag] = outcome.results
        assert runtime.pending_count() == 0
        return results

    return main


@pytest.mark.parametrize("batching", [True, False])
def test_submit_resolves_every_emit(batching):
    system, runtime = build_graph_system()
    assert run_client(system, _submit_driver(runtime, batching)) == EXPECTED


def test_batching_sends_fewer_wire_messages():
    counts = {}
    for batching in (True, False):
        system, runtime = build_graph_system()
        run_client(system, _submit_driver(runtime, batching))
        counts[batching] = system.network.stats.messages_sent
    assert counts[True] < counts[False]


def test_rpc_baseline_computes_the_same_results():
    system, runtime = build_graph_system()

    def main(ctx):
        results = yield from runtime.run_rpc(ctx, _chain_and_join(runtime))
        return results

    assert run_client(system, main) == EXPECTED


def test_rpc_baseline_is_slower_than_batched_submit():
    # The engine's perf claim in miniature: per-edge RPC pays a blocking
    # round trip per DAG edge, the sharded engine pipelines the whole
    # DAG.  (The wire-message gap only opens at scale — graph_bench pins
    # that; here we pin latency.)
    system, runtime = build_graph_system()

    def rpc_main(ctx):
        start = ctx.now
        yield from runtime.run_rpc(ctx, _chain_and_join(runtime))
        return ctx.now - start

    rpc_elapsed = run_client(system, rpc_main)

    system, runtime = build_graph_system()

    def submit_main(ctx):
        start = ctx.now
        promises = runtime.submit(ctx, _chain_and_join(runtime), batching=True)
        for promise in promises.values():
            yield promise.claim()
        return ctx.now - start

    submit_elapsed = run_client(system, submit_main)
    assert submit_elapsed < rpc_elapsed


def test_node_func_migrates_to_the_value_owner():
    # t.mark reroutes by its actual input value.  Pick a value whose
    # owner shard differs from the static key's shard, and assert the
    # side effect lands on the owner.
    system, runtime = build_graph_system()
    router = runtime.router
    static_key = 1
    value = next(
        v
        for v in range(1, 50)
        if router.shard_index(v) != router.shard_index(static_key)
    )

    def main(ctx):
        g = GraphBuilder()
        src = g.source("t.add", captures=("m", value), sched_key=static_key)
        src.then("t.mark").emit("marked")
        promises = runtime.submit(ctx, g)
        yield ctx.sleep(SETTLE)
        return promises["marked"].outcome().results

    assert run_client(system, main) == (value,)
    owner = system.guardians[router.shard_name(value)]
    static = system.guardians[router.shard_name(static_key)]
    assert owner.state.get("hits") == [value]
    assert "hits" not in static.state  # it really moved, not ran twice


def test_abandon_breaks_pending_promises_as_unavailable():
    system, runtime = build_graph_system()

    def main(ctx):
        g = GraphBuilder()
        g.source("t.add", captures=("k", 1), sched_key=0).emit("a")
        promises = runtime.submit(ctx, g)
        # Give up before any result can arrive (no sim time has passed).
        assert runtime.abandon("gave up for the test") == 1
        assert runtime.pending_count() == 0
        outcome = promises["a"].outcome()
        assert not outcome.is_normal
        assert outcome.exception.condition == "unavailable"
        # The late result frame finds nothing pending and is dropped.
        yield ctx.sleep(SETTLE)
        return "done"

    assert run_client(system, main) == "done"


def test_duplicate_emit_tags_are_rejected():
    system, runtime = build_graph_system()

    def main(ctx):
        g = GraphBuilder()
        g.source("t.add", captures=("x", 1), sched_key=0).emit("same")
        g.source("t.add", captures=("y", 1), sched_key=1).emit("same")
        with pytest.raises(GraphError):
            runtime.submit(ctx, g)
        yield ctx.sleep(0)
        return "rejected"

    assert run_client(system, main) == "rejected"


def test_reshipped_frames_match_a_fresh_encoding(monkeypatch):
    # A shard re-ships a leftover subtree by appending the bytes it
    # received; the frame must be the one a fresh encoding of the same
    # builder-made trees gives.
    system, runtime = build_graph_system()
    g = GraphBuilder()
    pending = []
    for index in range(12):
        src = g.source("t.add", captures=("r%d" % index, index), sched_key=index)
        pending.append(src.then("t.scale", captures=(2,), sched_key=index * 7 + 3))
        if len(pending) == 3:
            g.collect("t.sum", inputs=pending, sched_key=index).emit("j%d" % index)
            pending = []
    fresh = {}
    todo = list(g.compile()[0])
    while todo:
        node = todo.pop()
        fresh[node.node_id] = node
        todo.extend(child for _slot, child in node.children)
    frames = []

    def recording(graph_id, origin, epoch, flags, units):
        frame = real(graph_id, origin, epoch, flags, units)
        frames.append((graph_id, origin, epoch, flags, list(units), frame))
        return frame

    real = runtime_module.encode_batch_frame
    monkeypatch.setattr(runtime_module, "encode_batch_frame", recording)

    def main(ctx):
        promises = runtime.submit(ctx, g)
        for promise in promises.values():
            yield promise.claim()

    run_client(system, main)
    reshipped = [
        entry for entry in frames if any(node._wire is not None for _s, node, _v in entry[4])
    ]
    assert reshipped, "no shard re-shipped a received subtree"
    for graph_id, origin, epoch, flags, units, frame in frames:
        rebuilt = [(slot, fresh[node.node_id], values) for slot, node, values in units]
        assert frame == real(graph_id, origin, epoch, flags, rebuilt)


def _kv_joins(graph_index, rng, chains=40, fan_in=4):
    """A graph_kv-shaped graph: two-hop ``add`` -> ``scale`` chains joined
    *fan_in*-wise by collectors, scheduling keys scattered over 64."""
    g = GraphBuilder()
    pending, expected = [], {}
    for index in range(chains):
        src = g.source(
            "t.add",
            captures=("g%d.c%d" % (graph_index, index), index + 1),
            sched_key=rng.randrange(64),
        )
        pending.append(src.then("t.scale", captures=(3,), sched_key=rng.randrange(64)))
        if len(pending) == fan_in:
            tag = "join%d" % index
            g.collect("t.sum", inputs=pending, sched_key=rng.randrange(64)).emit(tag)
            expected[tag] = (3 * sum(range(index + 2 - fan_in, index + 2)),)
            pending = []
    return g, expected


@pytest.mark.parametrize("mode", ["batched", "unbatched", "rpc"])
def test_fired_collectors_leave_no_state_behind(mode):
    system, runtime = build_graph_system(n_shards=4)
    rng = random.Random(5)
    graphs = [_kv_joins(index, rng) for index in range(4)]

    def main(ctx):
        results = []
        if mode == "rpc":
            for g, _expected in graphs:
                results.append((yield from runtime.run_rpc(ctx, g)))
            return results
        submitted = [
            runtime.submit(ctx, g, batching=mode == "batched") for g, _expected in graphs
        ]
        for promises in submitted:
            joins = {}
            for tag, promise in promises.items():
                joins[tag] = ((yield promise.claim()),)
            results.append(joins)
        return results

    assert run_client(system, main) == [expected for _g, expected in graphs]
    assert runtime.pending_count() == 0
    residue = [
        (name, key)
        for name in runtime.router.shard_names
        for key in system.guardians[name].state
        if isinstance(key, tuple) and key[:1] == ("graph.collect",)
    ]
    assert residue == []
