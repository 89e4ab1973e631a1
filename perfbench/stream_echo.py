"""``stream_echo``: the paper's call-stream pattern on the simulator.

One client streams bursts of 1,024 ``INT`` echo calls to one server,
flushes, claims every call with a blocking ``claim`` and repeats (a
closed loop).  Default adaptive transport on the E1 network (latency 5,
kernel overhead 0.5, handler cost 0.05).  The smallest message makes
per-call cost dominate, and bursts larger than the 256-call flow-control
window put ack-driven window refill on the path.

The seed draws the echo arguments and the network's jitter stream
(uniform, at most 0.05 per message, which never reorders a link), so a
different seed changes both the values checked and the simulated
timings.
"""

from __future__ import annotations

import random
import time

from perfbench.runner import CheckFailed, Round, quantile
from perfbench.stats import StreamWorkload, sender_stats
from repro.core.exceptions import ArgusError
from repro.entities.system import ArgusSystem
from repro.types import INT, HandlerType

ECHO = HandlerType(args=[INT], returns=[INT])
LATENCY = 5.0
KERNEL_OVERHEAD = 0.5
HANDLER_COST = 0.05
JITTER = 0.05
BURST = 1024
#: Bursts per round: a fraction of a second of host time, so that the
#: host-speed readings around a round describe it (see runner.one_round).
BURSTS = 4
#: Simulated-time budget of a round; a round still running then is cut
#: and its unclaimed calls count as failed.
HORIZON = 1e6


class _Deadline(Exception):
    """The simulated-time budget of a round ran out."""


def _raise_deadline() -> None:
    raise _Deadline()


def _echo(ctx, x):
    yield ctx.compute(HANDLER_COST)
    return x


class StreamEcho(StreamWorkload):
    name = "stream_echo"

    def __init__(self, seed: int, bursts: int = BURSTS) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.args = [
            [rng.randrange(-(2 ** 31), 2 ** 31) for _ in range(BURST)]
            for _ in range(bursts)
        ]

    def setup(self):
        system = ArgusSystem(
            seed=self.seed,
            latency=LATENCY,
            kernel_overhead=KERNEL_OVERHEAD,
            jitter=JITTER,
        )
        system.create_guardian("server").create_handler("echo", ECHO, _echo)
        client = system.create_guardian("client")
        return {"system": system, "client": client}

    def run(self, world) -> Round:
        system = world["system"]
        result = Round()
        sim_latencies = []
        host_latencies = result.latencies_ms
        clock = time.perf_counter
        sums = []

        def main(ctx):
            ref = ctx.lookup("server", "echo")
            for burst in self.args:
                issued = clock()
                promises = [ref.stream(x) for x in burst]
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
                    host_latencies.append((clock() - issued) * 1000.0)
                sums.append((total, result.failed > failed_before))

        process = world["client"].spawn(main)
        system.env.call_at(HORIZON, _raise_deadline)
        try:
            system.run(until=process)
        except (_Deadline, RuntimeError):
            pass
        unfinished = BURST * len(self.args) - result.attempted
        result.attempted += unfinished
        result.failed += unfinished
        result.ops = result.attempted - result.failed
        world["sums"] = sums
        elapsed = system.now
        rate = result.ops / elapsed
        result.sim = {
            "sim_ops_per_sim_s": rate,
            "sim_latency_p50": quantile(sim_latencies, 0.50),
            "sim_latency_p99": quantile(sim_latencies, 0.99),
            "max_rate_in_slo": rate,
            "samples": len(sim_latencies),
            "sim_elapsed": elapsed,
        }
        return result

    def check(self, world, result: Round) -> None:
        """Every burst that had no failed call echoes its arguments' sum."""
        for index, (args, (total, had_failure)) in enumerate(zip(self.args, world["sums"])):
            if not had_failure and total != sum(args):
                raise CheckFailed("burst %d: echo sum %d != %d" % (index, total, sum(args)))

    def counters(self, world, result: Round):
        return sender_stats(world["system"])
