"""Process bookkeeping costs O(1) amortised per process, not O(live).

A guardian tracks its processes so a node crash can kill them, sweeping
finished ones out of the list now and then; a parallel dispatcher tracks
the handler processes it may have to destroy.  Both once rebuilt their
whole list on every spawn or completion, which is quadratic when many
processes are alive at once.  These tests count ``Process.is_alive``
evaluations, not time.
"""

import pytest

from repro.entities import ArgusSystem
from repro.sim.process import Process
from repro.types import INT, HandlerType

N = 2000


@pytest.fixture
def alive_checks(monkeypatch):
    """Counts evaluations of ``Process.is_alive`` while the test runs."""
    counter = {"n": 0}
    original = Process.is_alive

    def counting(process):
        counter["n"] += 1
        return original.fget(process)

    monkeypatch.setattr(Process, "is_alive", property(counting))
    return counter


def test_tracking_many_live_processes_is_linear(alive_checks):
    system = ArgusSystem()
    guardian = system.create_guardian("g")

    def sleeper(ctx):
        yield ctx.sleep(1000.0)

    for _ in range(N):
        guardian.spawn(sleeper)
    assert len(guardian._processes) == N
    # Sweeps happen only when the list doubles: at most about 2n checks,
    # where sweeping on every spawn costs n^2 / 2.
    assert alive_checks["n"] <= 2 * N


def test_node_crash_still_kills_every_tracked_process():
    system = ArgusSystem()
    guardian = system.create_guardian("g")

    def sleeper(ctx):
        yield ctx.sleep(1000.0)

    processes = [guardian.spawn(sleeper) for _ in range(N)]
    system.run(until=1.0)
    guardian.node.crash()
    assert not any(process.is_alive for process in processes)


def test_parallel_completions_do_not_rescan_running_handlers(alive_checks):
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    server = system.create_guardian("server")
    server.create_group("work", parallel=True)

    def nap(ctx, x):
        yield ctx.compute(10.0)
        return x

    server.create_handler(
        "nap", HandlerType(args=[INT], returns=[INT]), nap, group="work"
    )

    def main(ctx):
        ref = ctx.lookup("server", "nap")
        promises = [ref.stream(x) for x in range(N)]
        ref.flush()
        total = 0
        for promise in promises:
            total += yield promise.claim()
        return total

    process = system.create_guardian("client").spawn(main)
    assert system.run(until=process) == N * (N - 1) // 2
    (receiver,) = server.endpoint._receivers.values()
    assert not receiver.dispatcher._running
    # All N handlers overlap; rebuilding the running list on each of the
    # N completions would cost about n^2 / 2 checks.
    assert alive_checks["n"] <= 4 * N
