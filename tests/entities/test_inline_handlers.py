"""Handlers of sequential groups run on their stream's driver process.

A sequential group executes the calls of one stream one at a time (§2.1),
so the stream's driver runs each handler generator itself instead of
starting a process per call.  These tests pin what the driver takes over
from a per-call process: orphan destruction and crash kills reach the
running handler, outcomes map exactly as for a process of its own, nested
calls nest under the call's span, and the lock owner is the process the
handler runs on.  ``parallel=True`` groups keep one process per call.
"""

import pytest

from repro.core import Failure, Signal, Unavailable
from repro.entities import ArgusSystem
from repro.sim import Lock
from repro.streams import StreamConfig
from repro.types import INT, HandlerType

from ..conftest import run_client

WORK = HandlerType(args=[INT], returns=[INT])

#: One call per packet and no buffering delay: each call reaches the
#: server at a predictable time.
PROMPT = StreamConfig(batch_size=1, max_buffer_delay=0.0)


def slow_world():
    """A server whose ``slow(x)`` handler computes for ``x`` time units and
    records start, finish and its ``finally`` clause in ``server.state``."""
    system = ArgusSystem(
        latency=1.0, kernel_overhead=0.1, stream_config=PROMPT, tracing=True
    )
    server = system.create_guardian("server")
    state = server.state
    state.update(started=[], finished=[], cleaned=[])

    def slow(ctx, x):
        state["started"].append(x)
        try:
            yield ctx.compute(float(x))
            state["finished"].append(x)
            return x
        finally:
            state["cleaned"].append(x)

    server.create_handler("slow", WORK, slow)
    return system, server


def completed_calls(system):
    return [
        event
        for event in system.tracer.events
        if event.type == "stream.call_completed"
    ]


def test_receiver_break_mid_handler_kills_it_and_discards_the_queue():
    system, server = slow_world()

    def main(ctx):
        ref = ctx.lookup("server", "slow")
        promises = [ref.stream(x) for x in (50, 51, 52)]
        ref.flush()
        yield ctx.sleep(10.0)  # call 50 is running, 51 and 52 are queued
        (receiver,) = server.endpoint._receivers.values()
        receiver.break_stream("broken by the test")
        server.state["receiver"] = receiver
        outcomes = []
        for promise in promises:
            try:
                outcomes.append((yield promise.claim()))
            except Unavailable:
                outcomes.append("unavailable")
        yield ctx.sleep(100.0)  # long past call 50's natural completion
        return outcomes

    assert run_client(system, main) == ["unavailable"] * 3
    assert server.state["started"] == [50]
    assert server.state["finished"] == []
    assert server.state["cleaned"] == [50]  # the handler's finally ran
    assert completed_calls(system) == []  # no outcome was posted
    dispatcher = server.state["receiver"].dispatcher
    assert not dispatcher._queue
    # The killed driver stays listed, so the handler-leak oracle sees it.
    (driver,) = dispatcher._running
    assert not driver.is_alive


def test_supersede_mid_handler_destroys_the_orphan():
    system, server = slow_world()

    def main(ctx):
        ref = ctx.lookup("server", "slow")
        promises = [ref.stream(x) for x in (50, 51)]
        ref.flush()
        yield ctx.sleep(10.0)
        ref.restart()  # the reincarnation announce reaches the server
        for promise in promises:
            try:
                yield promise.claim()
            except Unavailable:
                pass
        yield ctx.sleep(100.0)
        return (yield ref.call(1))

    assert run_client(system, main) == 1
    assert server.state["started"] == [50, 1]
    assert server.state["finished"] == [1]
    assert server.state["cleaned"] == [50, 1]
    completed = completed_calls(system)
    # Only the new incarnation's call completed.
    assert [event.fields["incarnation"] for event in completed] == [1]


def test_node_crash_mid_handler_kills_it():
    system, server = slow_world()

    def main(ctx):
        ref = ctx.lookup("server", "slow")
        promise = ref.stream(50)
        ref.flush()
        yield ctx.sleep(10.0)
        server.node.crash()
        try:
            yield promise.claim()
        except Unavailable:
            pass
        yield ctx.sleep(100.0)

    run_client(system, main)
    assert server.state["started"] == [50]
    assert server.state["finished"] == []
    assert server.state["cleaned"] == [50]
    assert completed_calls(system) == []
    (crashed,) = [
        event for event in system.tracer.events
        if event.type == "guardian.crashed"
    ]
    assert crashed.fields["processes_killed"] == 1  # the stream's driver


class Bug(Exception):
    pass


def outcome_world(parallel):
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    server = system.create_guardian("server")
    server.create_group("work", parallel=parallel)

    def act(ctx, x):
        if x == 0:
            return 10  # never yields
        yield ctx.compute(1.0)
        if x == 1:
            raise Signal("odd", x)
        if x == 2:
            raise Failure("permanent trouble")
        if x == 3:
            raise Unavailable("transient trouble")
        if x == 4:
            raise Bug("oops")
        return x * 100

    act_type = HandlerType(args=[INT], returns=[INT], signals={"odd": [INT]})
    server.create_handler("act", act_type, act, group="work")
    return system


@pytest.mark.parametrize("parallel", [False, True], ids=["inline", "process"])
def test_outcomes_match_a_process_per_call(parallel):
    system = outcome_world(parallel)

    def main(ctx):
        ref = ctx.lookup("server", "act")
        promises = [ref.stream(x) for x in range(6)]
        ref.flush()
        results = []
        for promise in promises:
            try:
                results.append(("normal", (yield promise.claim())))
            except Signal as sig:
                results.append(("signal", sig.condition, sig.args))
            except Failure as exc:
                results.append(("failure", exc.args))
            except Unavailable as exc:
                results.append(("unavailable", exc.args))
        return results

    assert run_client(system, main) == [
        ("normal", 10),
        ("signal", "odd", (1,)),
        ("failure", ("permanent trouble",)),
        ("unavailable", ("transient trouble",)),
        ("failure", ("handler crashed: Bug('oops')",)),
        ("normal", 500),
    ]


def test_plain_function_handler_is_rejected_loudly():
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    server = system.create_guardian("server")
    server.create_handler("plain", WORK, lambda ctx, x: x)

    def main(ctx):
        return (yield ctx.lookup("server", "plain").call(1))

    with pytest.raises(TypeError, match="must be a generator function"):
        run_client(system, main)


def test_nested_calls_parent_under_each_calls_span():
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1, tracing=True)
    backend = system.create_guardian("backend")

    def leaf(ctx, x):
        yield ctx.compute(0.5)
        return x + 1

    backend.create_handler("leaf", WORK, leaf)
    front = system.create_guardian("front")

    def relay(ctx, x):
        value = yield ctx.lookup("backend", "leaf").call(x)
        return value

    front.create_handler("relay", WORK, relay)

    def main(ctx):
        ref = ctx.lookup("front", "relay")
        promises = [ref.stream(x) for x in (1, 2, 3)]
        ref.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values

    assert run_client(system, main) == [2, 3, 4]
    executing = [
        event.fields for event in system.tracer.events
        if event.type == "stream.call_executing"
    ]
    relays = [f for f in executing if f["port"] == "relay"]
    buffered = [
        event.fields for event in system.tracer.events
        if event.type == "stream.call_buffered"
    ]
    by_span = {f["span_id"]: f for f in buffered}
    nested = [f for f in buffered if f["parent_span_id"] != 0]
    assert len(relays) == 3 and len(nested) == 3
    # All three relays ran on one driver, yet each nested call parents
    # under the span of the relay call that made it.
    assert len({f["pid"] for f in relays}) == 1
    assert [f["parent_span_id"] for f in nested] == [
        f["span_id"] for f in relays
    ]
    for relay in relays:
        assert by_span[relay["span_id"]]["trace_id"] == relay["trace_id"]
    for child in nested:
        assert child["trace_id"] == by_span[child["parent_span_id"]]["trace_id"]


def test_lock_owner_is_the_process_running_the_handler():
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    server = system.create_guardian("server")
    lock = Lock(system.env)
    seen = []

    def guarded(ctx, x):
        yield lock.acquire()
        seen.append((x, lock.owner is ctx.env.active_process))
        yield ctx.compute(2.0)
        assert lock.owner is ctx.env.active_process
        lock.release()
        return x

    server.create_handler("guarded", WORK, guarded)

    def caller(ctx, x):
        return (yield ctx.lookup("server", "guarded").call(x))

    client = system.create_guardian("client")
    processes = [client.spawn(caller, x) for x in (1, 2)]
    system.run(until=system.env.all_of(processes))
    assert [p.value for p in processes] == [1, 2]
    # Two streams contend: each holder is its own stream's driver.
    assert sorted(seen) == [(1, True), (2, True)]
    assert lock.owner is None


def count_processes(parallel, calls):
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    server = system.create_guardian("server")
    server.create_group("work", parallel=parallel)

    def echo(ctx, x):
        yield ctx.compute(0.01)
        return x

    server.create_handler("echo", WORK, echo, group="work")

    def main(ctx):
        ref = ctx.lookup("server", "echo")
        promises = [ref.stream(x) for x in range(calls)]
        ref.flush()
        total = 0
        for promise in promises:
            total += yield promise.claim()
        return total

    client = system.create_guardian("client")
    process = client.spawn(main)
    before = system.env._next_pid
    assert system.run(until=process) == calls * (calls - 1) // 2
    (receiver,) = server.endpoint._receivers.values()
    return system.env._next_pid - before, receiver.stats.calls_delivered


def test_sequential_stream_creates_processes_per_driver_restart_not_per_call():
    created, delivered = count_processes(parallel=False, calls=1000)
    assert delivered == 1000
    # One driver per burst of delivered calls: the queue drains and the
    # driver restarts once per arriving batch, never once per call.
    assert created <= 1000 // StreamConfig().batch_size + 10


def test_parallel_group_still_creates_a_process_per_call():
    created, delivered = count_processes(parallel=True, calls=1000)
    assert delivered == 1000
    assert created >= 1000
