"""``rt_echo``: echo stream calls over real sockets on loopback.

Each round spawns a fresh echo worker process with ``RtCluster`` (timed
as set-up), then the client, running in this process on an ``RtHost``,
makes a closed loop of windows of 64 pipelined echo stream calls: issue
64, flush, claim all 64, repeat.  It is the only workload that
exercises ``rt``: the wallclock driver, the TCP transport and its
frames.

The simulated clock here is the wallclock driver's paced clock, one
unit per real millisecond, so the ``sim_*`` metrics are real times read
through the program's own clock.  The worker is pinned to the client's
CPU (see runner.one_round), so a call's host time is the whole CPU cost
of both sides of the socket.  A call broken with ``unavailable``
and the calls left when a round's real-time budget runs out count as
failed.
"""

from __future__ import annotations

import multiprocessing
import random
import time

from perfbench.runner import CheckFailed, Round, quantile
from perfbench.stats import StreamWorkload, sender_stats
from repro.core.exceptions import ArgusError
from repro.rt import RtCluster, WallclockTimeout
from repro.types import INT, HandlerType

ECHO = HandlerType(args=[INT], returns=[INT])
WINDOW = 64
#: Windows per round: about a quarter of a second of calls, so that a run
#: has some thirty rounds to take medians over (160 windows spread twice
#: as much over ten seeds).
WINDOWS = 80
#: Real seconds a round's calls may take before the rest count as failed.
TIMEOUT = 30.0


def setup_server(host) -> None:
    """The worker's world (runs in the spawned process)."""

    def echo(ctx, x):
        return x
        yield  # a handler is a generator

    host.create_guardian("server").create_handler("echo", ECHO, echo)


class RtEcho(StreamWorkload):
    name = "rt_echo"
    simulated = False

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.args = [
            [rng.randrange(-(2 ** 31), 2 ** 31) for _ in range(WINDOW)]
            for _ in range(WINDOWS)
        ]

    def setup(self):
        cluster = RtCluster({"node:server": setup_server})
        cluster.start()
        try:
            host = cluster.client_host()
            host.declare("server", "echo", ECHO, node="node:server")
            client = host.create_guardian("client")
        except BaseException:
            cluster.kill()
            raise
        return {"cluster": cluster, "host": host, "client": client, "stopped": False}

    def run(self, world) -> Round:
        host = world["host"]
        result = Round()
        sim_latencies = []
        sums = []
        clock = time.perf_counter
        started = {}

        def main(ctx):
            ref = ctx.lookup("server", "echo")
            started["sim"] = ctx.now
            for window in self.args:
                issued = clock()
                promises = [ref.stream(x) for x in window]
                ref.flush()
                total, failed_before = 0, result.failed
                for promise in promises:
                    result.attempted += 1
                    try:
                        total += yield promise.claim()
                    except ArgusError:
                        result.failed += 1
                        continue
                    sim_latencies.append(ctx.now - promise.created_at)
                    result.latencies_ms.append((clock() - issued) * 1000.0)
                sums.append((total, result.failed > failed_before))

        process = world["client"].spawn(main)
        try:
            host.run(until=process, timeout=TIMEOUT)
        except WallclockTimeout:
            pass
        sim_elapsed = host.now - started.get("sim", 0.0)
        unfinished = WINDOW * len(self.args) - result.attempted
        result.attempted += unfinished
        result.failed += unfinished
        result.ops = result.attempted - result.failed
        world["sums"] = sums
        rate = result.ops / sim_elapsed
        result.sim = {
            "sim_ops_per_sim_s": rate,
            "sim_latency_p50": quantile(sim_latencies, 0.50),
            "sim_latency_p99": quantile(sim_latencies, 0.99),
            "max_rate_in_slo": rate,
            "samples": len(sim_latencies),
        }
        return result

    def check(self, world, result: Round) -> None:
        """Every window that had no failed call echoes its arguments' sum."""
        for index, (args, (total, had_failure)) in enumerate(zip(self.args, world["sums"])):
            if not had_failure and total != sum(args):
                raise CheckFailed("window %d: echo sum %d != %d" % (index, total, sum(args)))

    def counters(self, world, result: Round):
        host = world["host"]
        counters = sender_stats(host)
        host.shutdown()
        workers = world["cluster"].stop()
        world["stopped"] = True
        for stats in workers.values():
            counters["msgs"] += stats["messages_sent"]
            counters["bytes"] += stats["bytes_sent"]
        counters["rt_frames"] = counters["msgs"]
        counters["driver_steps"] = host.driver.steps
        return counters

    def workers(self, world):
        """The echo worker: the only process ``RtCluster`` spawns."""
        return [child.pid for child in multiprocessing.active_children()]

    def teardown(self, world) -> None:
        if not world["stopped"]:
            world["host"].shutdown()
            world["cluster"].kill()
