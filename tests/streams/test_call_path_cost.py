"""The stream-call path costs a bounded number of Python calls per call.

A stream call touches every layer: the handler ref, the stream sender and
receiver, the dispatcher, the promise and the kernel.  Each call should
reuse what its call site already knows (stream key, promise type, port
codecs) instead of rebuilding it.  The test counts the calls of functions
defined in ``repro`` with ``sys.setprofile``, which sees Python frames
only, so the count repeats exactly from run to run; it counts work, not
time.
"""

import os
import sys
from collections import Counter

import repro
from repro.entities import ArgusSystem
from repro.types import INT, HandlerType

ECHO = HandlerType(args=[INT], returns=[INT])
CALLS = 1024
#: Repro-owned Python calls allowed per stream call.
BUDGET = 80

_REPRO_ROOT = os.path.dirname(repro.__file__) + os.sep


def _echo(ctx, x):
    yield ctx.compute(0.05)
    return x


def _count_calls(system, process):
    """Run *process* to completion, counting repro-owned calls by function."""
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_REPRO_ROOT):
                counts[code.co_filename[len(_REPRO_ROOT):], code.co_name] += 1

    sys.setprofile(profile)
    try:
        system.run(until=process)
    finally:
        sys.setprofile(None)
    return counts


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

    counts = _count_calls(system, client.spawn(main))
    assert results == list(range(CALLS))
    per_call = sum(counts.values()) / CALLS
    heaviest = ", ".join(
        "%s:%s %.2f" % (path, name, count / CALLS)
        for (path, name), count in counts.most_common(8)
    )
    assert per_call <= BUDGET, "%.1f calls per stream call; heaviest: %s" % (
        per_call,
        heaviest,
    )
