"""The stream-call path costs a bounded number of Python calls per call.

A stream call touches every layer: the handler ref, the stream sender and
receiver, the dispatcher, the promise and the kernel.  Each call should
reuse what its call site already knows (stream key, promise type, port
codecs) instead of rebuilding it.  The test counts the calls of functions
defined in ``repro`` with ``sys.setprofile``, which sees Python frames
only, so the count repeats exactly from run to run; it counts work, not
time.
"""

from repro.entities import ArgusSystem
from repro.types import INT, HandlerType

from ..call_budget import count_repro_calls, heaviest

ECHO = HandlerType(args=[INT], returns=[INT])
CALLS = 1024
#: Repro-owned Python calls allowed per stream call.
BUDGET = 80


def _echo(ctx, x):
    yield ctx.compute(0.05)
    return x


def test_echo_stream_call_stays_within_call_budget():
    # The E1 network of EXPERIMENTS.md.
    system = ArgusSystem(latency=5.0, kernel_overhead=0.5)
    system.create_guardian("server").create_handler("echo", ECHO, _echo)
    client = system.create_guardian("client")
    results = []

    def main(ctx):
        ref = ctx.lookup("server", "echo")
        promises = [ref.stream(x) for x in range(CALLS)]
        ref.flush()
        for promise in promises:
            results.append((yield promise.claim()))

    process = client.spawn(main)
    counts = count_repro_calls(lambda: system.run(until=process))
    assert results == list(range(CALLS))
    per_call = sum(counts.values()) / CALLS
    assert per_call <= BUDGET, "%.1f calls per stream call; heaviest: %s" % (
        per_call,
        heaviest(counts, CALLS),
    )
